//! `layered_bulk` — the same 64 KiB `u32` records as `bulk_pair` through the
//! paper's straw man: BER encode → encrypt → record framing → byte-stream
//! transport → decrypt → BER decode, each a separate pass.
//!
//! Why: the shared `ct-wire` / `ct-crypto` / `ct-presentation` / `ct-netsim`
//! layers are used serially instead of fused, and `alf-core` is bypassed
//! entirely — so a kernel change that helps the fused path and hurts the
//! serial one shows, an `alf-core` change predicts no movement, and
//! `goodput_MBps(bulk_pair) ÷ goodput_MBps(layered_bulk)` is the paper's
//! headline ratio.

use super::bulk_pair::{KEY, RECORD_BYTES, RECORD_WORDS, SOURCES};
use super::pair::recv;
use super::{Counts, Meter, Params, Phase, Round};
use crate::gen;
use crate::trace::{Span, Tracer};
use ct_crypto::stream::XorStream;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::net::{Network, NodeId};
use ct_presentation::ber;
use ct_transport::stream::{StreamConfig, StreamTransport};
use std::collections::VecDeque;

/// Records per measured round at scale 1 (≈ 1 s here).
pub const OPS_PER_ROUND: u64 = 1_200;
/// Record framing on the byte stream: a 4-byte big-endian body length.
const FRAME_HEADER: usize = 4;
/// Records encoded ahead of the stream at most — the closed loop's window.
const MAX_IN_FLIGHT: usize = 8;

struct World {
    net: Network,
    a: StreamTransport,
    b: StreamTransport,
    node_a: NodeId,
    node_b: NodeId,
    cipher: XorStream,
    sources: Vec<Vec<u32>>,
    ledger: Option<ct_telemetry::Telemetry>,
    // Sender: the framed record being fed to the stream, and the cipher
    // position (stream-wide: the layered stack's cipher is order-bound).
    wire: Vec<u8>,
    wire_off: usize,
    tx_pos: u64,
    // Receiver.
    rx: Vec<u8>,
    rx_pos: u64,
    read_buf: Vec<u8>,
    /// Ops encoded and not yet decoded, oldest first.
    in_flight: VecDeque<u64>,
    inbox_depth_max: usize,
}

impl World {
    fn new(p: &Params) -> Self {
        let mut net = Network::new(p.seed);
        let node_a = net.add_node();
        let node_b = net.add_node();
        net.connect(node_a, node_b, LinkConfig::gigabit(), FaultConfig::none());
        let cfg = StreamConfig::default();
        let mut a = StreamTransport::new(cfg, 1, 2);
        let mut b = StreamTransport::new(cfg, 2, 1);
        if let Some(tel) = &p.telemetry {
            net.attach_telemetry(tel.clone());
            a.attach_telemetry(tel.clone(), "sender");
            b.attach_telemetry(tel.clone(), "receiver");
        }
        World {
            net,
            a,
            b,
            node_a,
            node_b,
            cipher: XorStream::new(KEY),
            sources: gen::u32_arrays(p.seed, 1, SOURCES, RECORD_WORDS),
            ledger: p.telemetry.clone(),
            wire: Vec::new(),
            wire_off: 0,
            tx_pos: 0,
            rx: Vec::new(),
            rx_pos: 0,
            read_buf: vec![0u8; 64 * 1024],
            in_flight: VecDeque::new(),
            inbox_depth_max: 0,
        }
    }

    /// Book one layer's traversal in the data-touch ledger (traced runs).
    fn touch(&self, stage: &'static str, reads: usize, writes: usize) {
        if let Some(tel) = &self.ledger {
            tel.ledger().touch(stage, reads as u64, writes as u64);
        }
    }

    /// Move records `first..first + count` through the stack.
    fn drive(&mut self, first: u64, count: u64, meter: &mut Meter, tr: &mut Tracer) {
        let end = first + count;
        let mut next = first;
        let consumed_before = meter.consumed_count();
        let max_turns = 2_000_000 + count * 4_096;

        for _ in 0..max_turns {
            // Sender: encode the next record once the previous one is fully
            // in the send buffer.
            if self.wire_off == self.wire.len()
                && next < end
                && self.in_flight.len() < MAX_IN_FLIGHT
            {
                let op = next;
                next += 1;
                meter.submitted(op, self.net.now());
                let src = &self.sources[op as usize % SOURCES];
                let mut body = tr.span(Span::BerEncode, Some(op), || ber::encode_u32_array(src));
                self.touch("presentation/encode", RECORD_BYTES, body.len());
                tr.span(Span::Xor, Some(op), || {
                    self.cipher.apply_in_place(self.tx_pos, &mut body)
                });
                self.touch("crypto/xor", body.len(), body.len());
                self.tx_pos += body.len() as u64;
                self.wire.clear();
                self.wire
                    .extend_from_slice(&(body.len() as u32).to_be_bytes());
                self.wire.extend_from_slice(&body);
                self.wire_off = 0;
                self.in_flight.push_back(op);
            }
            if self.wire_off < self.wire.len() {
                let n = tr.span(Span::StreamSend, None, || {
                    self.a.send(&self.wire[self.wire_off..])
                });
                self.wire_off += n;
                self.touch("transport/send_copy", n, n);
            }

            // Endpoints ↔ network.
            let now = self.net.now();
            let (na, nb) = (self.node_a, self.node_b);
            let mut moved = false;
            for f in tr.span(Span::StreamPoll, None, || self.a.poll(now)) {
                moved = true;
                tr.span(Span::NetSend, None, || {
                    let _ = self.net.send(na, nb, f);
                });
            }
            for f in tr.span(Span::StreamPoll, None, || self.b.poll(now)) {
                moved = true;
                tr.span(Span::NetSend, None, || {
                    let _ = self.net.send(nb, na, f);
                });
            }
            self.inbox_depth_max = self
                .inbox_depth_max
                .max(self.net.pending(na))
                .max(self.net.pending(nb));
            while let Some(frame) = recv(&mut self.net, nb, tr) {
                moved = true;
                tr.span(Span::StreamOnFrame, None, || {
                    self.b.on_frame(now, frame.payload.into())
                });
            }
            while let Some(frame) = recv(&mut self.net, na, tr) {
                moved = true;
                tr.span(Span::StreamOnFrame, None, || {
                    self.a.on_frame(now, frame.payload.into())
                });
            }

            // Receiver: read the stream, deframe, decrypt, decode.
            let mut read = 0;
            while self.b.recv_available() > 0 {
                let n = tr.span(Span::StreamRecv, None, || self.b.recv(&mut self.read_buf));
                self.rx.extend_from_slice(&self.read_buf[..n]);
                read += n;
            }
            if read > 0 {
                moved = true;
                self.touch("transport/recv_copy", read, read);
                self.deframe(meter, tr);
            }

            if next == end
                && meter.consumed_count() - consumed_before >= count
                && self.a.send_complete()
            {
                return;
            }

            if !self.net.is_idle() {
                tr.span(Span::NetStep, None, || self.net.step());
            } else if !moved && self.wire_off == self.wire.len() {
                let next_timeout = [self.a.next_timeout(), self.b.next_timeout()]
                    .into_iter()
                    .flatten()
                    .min();
                match next_timeout {
                    Some(t) if t > now => {
                        tr.span(Span::NetStep, None, || {
                            self.net.advance(t.saturating_since(now))
                        });
                    }
                    Some(_) => {}
                    None => return, // drained and stuck
                }
            }
        }
    }

    /// Decode every complete record in the receive accumulator.
    fn deframe(&mut self, meter: &mut Meter, tr: &mut Tracer) {
        let mut cursor = 0;
        while self.rx.len() - cursor >= FRAME_HEADER {
            let len = u32::from_be_bytes(
                self.rx[cursor..cursor + FRAME_HEADER]
                    .try_into()
                    .expect("4 bytes"),
            ) as usize;
            if self.rx.len() - cursor - FRAME_HEADER < len {
                break;
            }
            let start = cursor + FRAME_HEADER;
            let mut body = self.rx[start..start + len].to_vec();
            cursor = start + len;
            self.touch("transport/deframe", len, len);
            let Some(op) = self.in_flight.pop_front() else {
                meter.checked(false, 0);
                continue;
            };
            tr.span(Span::Xor, Some(op), || {
                self.cipher.apply_in_place(self.rx_pos, &mut body)
            });
            self.touch("crypto/xor", len, len);
            self.rx_pos += len as u64;
            let decoded = tr.span(Span::BerDecode, Some(op), || ber::decode_u32_array(&body));
            self.touch("presentation/decode", len, RECORD_BYTES);
            meter.arrived(op, self.net.now());
            let ok = tr.span(Span::Verify, Some(op), || {
                decoded.is_ok_and(|words| words == self.sources[op as usize % SOURCES])
            });
            meter.checked(ok, RECORD_BYTES);
        }
        self.rx.drain(..cursor);
    }

    fn counts(&self) -> Counts {
        let (a, b) = (&self.a.stats, &self.b.stats);
        vec![
            (
                "ct-transport.segments_out",
                (a.segments_out + b.segments_out) as f64,
            ),
            (
                "ct-transport.rto_retransmits",
                (a.rto_retransmits + b.rto_retransmits) as f64,
            ),
            (
                "ct-transport.ooo_bytes_peak",
                a.ooo_bytes_peak.max(b.ooo_bytes_peak) as f64,
            ),
            ("ct-netsim.inbox_depth_max", self.inbox_depth_max as f64),
        ]
    }
}

/// One round.
pub fn round(p: &Params, tr: &mut Tracer) -> Round {
    let setup = std::time::Instant::now();
    let mut w = World::new(p);
    let ops = p.scaled(OPS_PER_ROUND, 16);
    let warm = (ops / 20).max(8);
    w.drive(
        0,
        warm,
        &mut Meter::new(MAX_IN_FLIGHT, warm),
        &mut Tracer::off(),
    );
    let setup_s = setup.elapsed().as_secs_f64();

    let mut meter = Meter::new(MAX_IN_FLIGHT, ops);
    let phase = Phase::start(&w.net, w.counts(), tr);
    w.drive(warm, ops, &mut meter, tr);
    phase.finish(&w.net, || w.counts(), setup_s, ops, meter, tr)
}
