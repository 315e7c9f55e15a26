//! Glue between [`StreamTransport`] endpoints and the simulated network.
//!
//! The driver owns the event loop: it polls both endpoints, injects their
//! segments into the network, feeds arrivals back, lets the receiving
//! application drain continuously (the paper's pipeline requirement), and —
//! when the wire goes quiet — advances virtual time to the next
//! retransmission timer so loss recovery makes progress.

use crate::stream::{StreamConfig, StreamStats, StreamTransport};
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::net::{Network, NodeId};
use ct_netsim::time::SimDuration;
use ct_wire::checksum::crc32;

/// A pair of stream endpoints attached to the ends of one simulated link.
#[derive(Debug)]
pub struct TransportPair {
    /// The network carrying the segments.
    pub net: Network,
    /// Node the `a` endpoint is bound to.
    pub node_a: NodeId,
    /// Node the `b` endpoint is bound to.
    pub node_b: NodeId,
    /// Endpoint a (conventionally the sender in tests).
    pub a: StreamTransport,
    /// Endpoint b (conventionally the receiver).
    pub b: StreamTransport,
}

impl TransportPair {
    /// Build a two-node network with the given link and fault profile and
    /// attach a transport endpoint to each node.
    pub fn new(seed: u64, link: LinkConfig, faults: FaultConfig, cfg: StreamConfig) -> Self {
        let mut net = Network::new(seed);
        let node_a = net.add_node();
        let node_b = net.add_node();
        net.connect(node_a, node_b, link, faults);
        Self {
            net,
            node_a,
            node_b,
            a: StreamTransport::new(cfg, 1, 2),
            b: StreamTransport::new(cfg, 2, 1),
        }
    }

    /// One driver round: poll endpoints, exchange frames, process one
    /// network event (or jump to the next timer if the wire is idle).
    /// Returns `false` if nothing can make progress any more.
    pub fn tick(&mut self) -> bool {
        let now = self.net.now();
        let mut moved = false;
        for f in self.a.poll(now) {
            moved = true;
            let _ = self.net.send(self.node_a, self.node_b, f);
        }
        for f in self.b.poll(now) {
            moved = true;
            let _ = self.net.send(self.node_b, self.node_a, f);
        }
        while let Some(frame) = self.net.recv(self.node_b) {
            moved = true;
            self.b.on_frame(self.net.now(), frame.payload.into());
        }
        while let Some(frame) = self.net.recv(self.node_a) {
            moved = true;
            self.a.on_frame(self.net.now(), frame.payload.into());
        }
        if !self.net.is_idle() {
            self.net.step();
            return true;
        }
        if moved {
            return true;
        }
        // Wire quiet, nothing produced: jump to the earliest timer.
        let next = match (self.a.next_timeout(), self.b.next_timeout()) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(y),
            (None, None) => None,
        };
        match next {
            Some(t) if t > now => {
                self.net.advance(t.saturating_since(now));
                true
            }
            Some(_) => true, // timer already due; next poll handles it
            None => false,   // truly stuck (or finished)
        }
    }
}

/// Outcome of [`run_transfer`].
#[derive(Debug, Clone)]
pub struct TransferReport {
    /// Whether the full payload arrived and both FINs completed.
    pub complete: bool,
    /// Application bytes transferred.
    pub bytes: u64,
    /// Virtual time from first send to completion.
    pub elapsed: SimDuration,
    /// Application-level goodput in megabits per simulated second.
    pub goodput_mbps: f64,
    /// CRC-32 of the bytes the receiving application read, for end-to-end
    /// integrity checking without buffering the whole transfer.
    pub received_crc32: u32,
    /// Sender-side statistics.
    pub sender: StreamStats,
    /// Receiver-side statistics.
    pub receiver: StreamStats,
    /// Network-level loss rate observed during the run.
    pub net_loss_rate: f64,
}

/// Drive a complete `a → b` transfer of `data` over a fresh [`TransportPair`],
/// with the receiving application reading continuously. Returns the report;
/// `complete` is false if the run hit the iteration guard (pathological
/// loss rates).
pub fn run_transfer(
    seed: u64,
    link: LinkConfig,
    faults: FaultConfig,
    cfg: StreamConfig,
    data: &[u8],
) -> TransferReport {
    run_transfer_telemetry(seed, link, faults, cfg, data, None)
}

/// [`run_transfer`] with an optional observability sink: the network and
/// both endpoints share it (`a` records under layer `"sender"`, `b` under
/// `"receiver"`), and both endpoints' [`StreamStats`] publish under
/// `stream.sender.*` / `stream.receiver.*` when the run settles. With
/// tracing armed the receiver's `seg_recv` / `stream_adv` events feed the
/// HOL profiler ([`ct_telemetry::span::stream_stalls`]).
pub fn run_transfer_telemetry(
    seed: u64,
    link: LinkConfig,
    faults: FaultConfig,
    cfg: StreamConfig,
    data: &[u8],
    telemetry: Option<&ct_telemetry::Telemetry>,
) -> TransferReport {
    let mut pair = TransportPair::new(seed, link, faults, cfg);
    if let Some(tel) = telemetry {
        pair.net.attach_telemetry(tel.clone());
        pair.a.attach_telemetry(tel.clone(), "sender");
        pair.b.attach_telemetry(tel.clone(), "receiver");
    }
    let start = pair.net.now();
    let mut offset = 0usize;
    let mut fin_queued = false;
    let mut received = 0u64;
    let mut crc_state = 0xFFFF_FFFFu32;
    let mut buf = vec![0u8; 64 * 1024];
    // Iteration guard: generous, proportional to work.
    let max_iters = 2_000_000 + data.len() / 16;
    let mut complete = false;
    for _ in 0..max_iters {
        if offset < data.len() {
            offset += pair.a.send(&data[offset..]);
        }
        if offset == data.len() && !fin_queued {
            pair.a.finish();
            fin_queued = true;
        }
        loop {
            let n = pair.b.recv(&mut buf);
            if n == 0 {
                break;
            }
            crc_state = ct_wire::checksum::crc32_update(crc_state, &buf[..n]);
            received += n as u64;
        }
        if fin_queued
            && pair.a.send_complete()
            && pair.b.peer_finished()
            && received == data.len() as u64
        {
            complete = true;
            break;
        }
        if !pair.tick() {
            break;
        }
    }
    let elapsed = pair.net.now().saturating_since(start);
    if let Some(tel) = telemetry {
        let mut reg = tel.metrics_mut();
        pair.a.stats.publish(&mut reg, "stream.sender");
        pair.b.stats.publish(&mut reg, "stream.receiver");
        reg.counter_set("stream.run.delivered_bytes", received);
        reg.counter_set("stream.run.elapsed_ns", elapsed.as_nanos());
    }
    TransferReport {
        complete,
        bytes: received,
        elapsed,
        goodput_mbps: ct_wire::mbps(received, elapsed.as_secs_f64()),
        received_crc32: crc_state ^ 0xFFFF_FFFF,
        sender: pair.a.stats,
        receiver: pair.b.stats,
        net_loss_rate: pair.net.stats().loss_rate(),
    }
}

/// CRC-32 of a buffer — helper so callers can compare against
/// [`TransferReport::received_crc32`].
pub fn payload_crc(data: &[u8]) -> u32 {
    crc32(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(131) >> 3) as u8).collect()
    }

    #[test]
    fn clean_link_transfer() {
        let data = payload(200_000);
        let r = run_transfer(
            1,
            LinkConfig::lan(),
            FaultConfig::none(),
            StreamConfig::default(),
            &data,
        );
        assert!(r.complete);
        assert_eq!(r.bytes, data.len() as u64);
        assert_eq!(r.received_crc32, payload_crc(&data));
        assert_eq!(r.sender.rto_retransmits, 0);
        assert!(r.goodput_mbps > 1.0, "goodput {}", r.goodput_mbps);
    }

    #[test]
    fn lossy_link_still_delivers_exactly() {
        let data = payload(100_000);
        let r = run_transfer(
            2,
            LinkConfig::lan(),
            FaultConfig::loss(0.05),
            StreamConfig::default(),
            &data,
        );
        assert!(r.complete, "transfer must survive 5% loss");
        assert_eq!(r.received_crc32, payload_crc(&data));
        assert!(
            r.sender.rto_retransmits + r.sender.fast_retransmits > 0,
            "loss must have forced recovery"
        );
    }

    #[test]
    fn corruption_detected_and_recovered() {
        let data = payload(50_000);
        let r = run_transfer(
            3,
            LinkConfig::lan(),
            FaultConfig::corruption(0.05),
            StreamConfig::default(),
            &data,
        );
        assert!(r.complete);
        assert_eq!(r.received_crc32, payload_crc(&data));
        assert!(r.receiver.checksum_drops > 0 || r.sender.checksum_drops > 0);
    }

    #[test]
    fn reordering_causes_hol_blocking() {
        let data = payload(200_000);
        let r = run_transfer(
            4,
            LinkConfig::lan(),
            FaultConfig::reordering(0.2, SimDuration::from_millis(2)),
            StreamConfig::default(),
            &data,
        );
        assert!(r.complete);
        assert_eq!(r.received_crc32, payload_crc(&data));
        assert!(
            r.receiver.hol_delay_total > SimDuration::ZERO,
            "reordering must show up as head-of-line delay"
        );
    }

    #[test]
    fn loss_increases_completion_time() {
        let data = payload(150_000);
        let clean = run_transfer(
            5,
            LinkConfig::lan(),
            FaultConfig::none(),
            StreamConfig::default(),
            &data,
        );
        let lossy = run_transfer(
            5,
            LinkConfig::lan(),
            FaultConfig::loss(0.03),
            StreamConfig::default(),
            &data,
        );
        assert!(clean.complete && lossy.complete);
        assert!(
            lossy.elapsed > clean.elapsed,
            "lossy {} !> clean {}",
            lossy.elapsed,
            clean.elapsed
        );
    }

    #[test]
    fn clean_transfer_cuts_no_more_segments_than_it_needs() {
        // One data segment per MSS and one ACK each, plus FINs and slack:
        // no slivers, no retransmissions, nothing refused by the link.
        let data = payload(400_000);
        let cfg = StreamConfig::default();
        let r = run_transfer(1990, LinkConfig::gigabit(), FaultConfig::none(), cfg, &data);
        assert!(r.complete);
        assert_eq!(r.received_crc32, payload_crc(&data));
        let segments = r.sender.segments_out + r.receiver.segments_out;
        let bound = 2 * data.len().div_ceil(cfg.mss) as u64 + 16;
        assert!(segments <= bound, "{segments} segments > {bound}");
        assert_eq!(r.net_loss_rate, 0.0);
    }

    #[test]
    fn deterministic_runs() {
        let data = payload(80_000);
        let r1 = run_transfer(
            7,
            LinkConfig::lan(),
            FaultConfig::loss(0.02),
            StreamConfig::default(),
            &data,
        );
        let r2 = run_transfer(
            7,
            LinkConfig::lan(),
            FaultConfig::loss(0.02),
            StreamConfig::default(),
            &data,
        );
        assert_eq!(r1.elapsed, r2.elapsed);
        assert_eq!(r1.sender.segments_out, r2.sender.segments_out);
    }

    #[test]
    fn empty_transfer_completes() {
        let r = run_transfer(
            8,
            LinkConfig::lan(),
            FaultConfig::none(),
            StreamConfig::default(),
            &[],
        );
        assert!(r.complete);
        assert_eq!(r.bytes, 0);
    }

    #[test]
    fn wan_profile_slower_than_lan() {
        let data = payload(100_000);
        let lan = run_transfer(
            9,
            LinkConfig::lan(),
            FaultConfig::none(),
            StreamConfig::default(),
            &data,
        );
        let wan = run_transfer(
            9,
            LinkConfig::wan(),
            FaultConfig::none(),
            StreamConfig::default(),
            &data,
        );
        assert!(lan.complete && wan.complete);
        assert!(wan.elapsed > lan.elapsed);
    }
}
