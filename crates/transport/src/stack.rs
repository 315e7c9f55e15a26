//! The layered protocol stack — experiment E4's measurement subject.
//!
//! This is the "naive implementation of a layered suite" of §6: each unit of
//! information passes *sequentially* through the layer entities, and every
//! layer makes its own pass over the data with its own intermediate buffer:
//!
//! ```text
//! sender:   app record → [presentation encode] → [encrypt] → [record frame]
//!           → transport send (copy into send buffer, checksum on segment)
//! receiver: transport recv (checksum verify, reassembly copy, stream copy)
//!           → [record deframe] → [decrypt] → [presentation decode] → app
//! ```
//!
//! Each bracketed stage is a separate traversal of the data, timed with the
//! host's monotonic clock, so the harness can report what fraction of stack
//! overhead each layer accounts for — the paper's "97 % of the total
//! protocol stack overhead was attributable to the presentation conversion"
//! experiment, regenerated.
//!
//! Virtual (simulated) time governs protocol dynamics; *real* CPU time
//! measures manipulation cost. The two never mix: `LayerTimes` holds real
//! seconds, `TransferReport` holds simulated seconds.

use crate::driver::TransportPair;
use crate::stream::StreamConfig;
use ct_crypto::stream::XorStream;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_presentation::{ber, xdr, CodecError, PValue, TransferSyntax};
use std::time::Instant;

/// One application record to be carried through the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// An array of 32-bit integers — the conversion-intensive workload
    /// (the paper's "equivalent length array of 32 bit integers").
    U32Array(Vec<u32>),
    /// Raw bytes — the no-conversion baseline (the paper's "very long
    /// OCTET STRING").
    Octets(Vec<u8>),
}

impl Record {
    /// Application-meaningful size in bytes (what goodput is measured in).
    pub fn app_bytes(&self) -> usize {
        match self {
            Record::U32Array(v) => v.len() * 4,
            Record::Octets(b) => b.len(),
        }
    }
}

/// Real-CPU-time accounting per layer, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Presentation encode + decode.
    pub presentation: f64,
    /// Encryption + decryption.
    pub crypto: f64,
    /// Transport machine: poll / on_frame / send / recv, including the
    /// per-segment checksum and all stream copies.
    pub transport: f64,
}

impl LayerTimes {
    /// Sum of all layer times.
    pub fn total(&self) -> f64 {
        self.presentation + self.crypto + self.transport
    }

    /// Fraction of total stack CPU attributable to presentation, in `[0, 1]`.
    pub fn presentation_fraction(&self) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            self.presentation / t
        }
    }
}

/// Configuration of a layered stack run.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    /// Transfer syntax applied to `Record::U32Array` records
    /// (`Record::Octets` always passes through unconverted, like a BER
    /// OCTET STRING body).
    pub syntax: TransferSyntax,
    /// Apply the (seekable) stream cipher as a separate layer pass.
    pub encrypt: bool,
    /// Use the *generic* presentation path (value tree in the abstract
    /// syntax, per-element allocation — the shape of the paper's untuned
    /// ISODE toolkit) instead of the hand-tuned array fast path (the shape
    /// of the paper's "hand coded conversion routine"). Only meaningful
    /// for BER and XDR; Raw and LWTS always use their direct form.
    pub generic_presentation: bool,
    /// Transport configuration.
    pub transport: StreamConfig,
}

impl Default for StackConfig {
    fn default() -> Self {
        Self {
            syntax: TransferSyntax::Ber,
            encrypt: false,
            generic_presentation: true,
            transport: StreamConfig::default(),
        }
    }
}

/// Result of [`run_layered_transfer`].
#[derive(Debug, Clone)]
pub struct StackReport {
    /// True if every record arrived intact.
    pub complete: bool,
    /// Records delivered and verified.
    pub records_delivered: usize,
    /// Total application bytes moved.
    pub app_bytes: u64,
    /// Per-layer real CPU time.
    pub times: LayerTimes,
    /// Application-level throughput in Mb per *real* second of stack CPU —
    /// the paper's Mb/s metric for protocol processing cost.
    pub cpu_mbps: f64,
    /// Simulated wall-clock of the transfer.
    pub sim_elapsed: ct_netsim::time::SimDuration,
}

/// Record wire framing: 1 tag byte + 4-byte length + body.
const REC_U32: u8 = 1;
const REC_OCT: u8 = 2;

/// Presentation-encode an integer array per the configured path.
fn encode_u32s(cfg: &StackConfig, vals: &[u32]) -> Vec<u8> {
    if cfg.generic_presentation {
        match cfg.syntax {
            TransferSyntax::Ber => ber::encode(&PValue::u32_array(vals)),
            TransferSyntax::Xdr => xdr::encode(&PValue::u32_array(vals)),
            _ => cfg.syntax.encode_u32s(vals),
        }
    } else {
        cfg.syntax.encode_u32s(vals)
    }
}

/// Presentation-decode an integer array per the configured path.
fn decode_u32s(cfg: &StackConfig, body: &[u8]) -> Result<Vec<u32>, CodecError> {
    if cfg.generic_presentation {
        let value = match cfg.syntax {
            TransferSyntax::Ber => ber::decode(body)?,
            TransferSyntax::Xdr => xdr::decode(body)?,
            _ => return cfg.syntax.decode_u32s(body),
        };
        value.as_u32_array().ok_or(CodecError::IntegerOverflow)
    } else {
        cfg.syntax.decode_u32s(body)
    }
}

fn frame_record(tag: u8, body: &[u8], out: &mut Vec<u8>) {
    out.push(tag);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
}

/// Encryption key used by stack runs (both ends share it out of band).
const STACK_KEY: u64 = 0x0C1A_12C3;

/// Run `records` from sender to receiver through the full layered stack over
/// a simulated network, accounting per-layer CPU time.
pub fn run_layered_transfer(
    seed: u64,
    link: LinkConfig,
    faults: FaultConfig,
    cfg: StackConfig,
    records: &[Record],
) -> StackReport {
    run_layered_transfer_telemetry(seed, link, faults, cfg, records, None)
}

/// [`run_layered_transfer`] with observability: when `telemetry` is given,
/// the network counts frame events, every layer's data traversal is booked
/// in the data-touch ledger (`presentation/encode`, `crypto/xor`,
/// `transport/send_copy`, `transport/recv_copy`, `transport/deframe`,
/// `presentation/decode` — the layered stack's passes-per-byte, measured
/// rather than asserted), and both endpoints' [`StreamStats`] publish under
/// `stream.a.*` / `stream.b.*` when the run settles.
///
/// [`StreamStats`]: crate::stream::StreamStats
pub fn run_layered_transfer_telemetry(
    seed: u64,
    link: LinkConfig,
    faults: FaultConfig,
    cfg: StackConfig,
    records: &[Record],
    telemetry: Option<&ct_telemetry::Telemetry>,
) -> StackReport {
    let mut pair = TransportPair::new(seed, link, faults, cfg.transport);
    if let Some(tel) = telemetry {
        pair.net.attach_telemetry(tel.clone());
    }
    let ledger = telemetry.map(ct_telemetry::Telemetry::ledger);
    let cipher = XorStream::new(STACK_KEY);
    let mut times = LayerTimes::default();

    // ---------------- sender-side state ----------------
    let mut next_record = 0usize;
    let mut pending_wire: Vec<u8> = Vec::new();
    let mut pending_off = 0usize;
    let mut crypto_pos_tx = 0u64; // cipher stream position (stream-wide)
    let mut fin_queued = false;

    // ---------------- receiver-side state ----------------
    let mut rx_accum: Vec<u8> = Vec::new();
    let mut crypto_pos_rx = 0u64;
    let mut delivered: Vec<Record> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];

    let start = pair.net.now();
    let total_app_bytes: u64 = records.iter().map(|r| r.app_bytes() as u64).sum();
    let max_iters = 2_000_000 + total_app_bytes as usize / 8;
    let mut complete = false;

    for _ in 0..max_iters {
        // --- sender: encode the next record when the pipe needs bytes ---
        if pending_off == pending_wire.len() && next_record < records.len() {
            pending_wire.clear();
            pending_off = 0;
            let rec = &records[next_record];
            next_record += 1;
            // Layer pass 1: presentation encode (separate buffer).
            let t0 = Instant::now();
            let (tag, mut body) = match rec {
                Record::U32Array(vals) => (REC_U32, encode_u32s(&cfg, vals)),
                Record::Octets(bytes) => (REC_OCT, bytes.clone()),
            };
            times.presentation += t0.elapsed().as_secs_f64();
            if let Some(l) = ledger {
                // The octet clone is a traversal too — book both shapes.
                l.touch(
                    "presentation/encode",
                    rec.app_bytes() as u64,
                    body.len() as u64,
                );
            }
            // Layer pass 2: encryption (in place counts as a pass).
            if cfg.encrypt {
                let t1 = Instant::now();
                cipher.apply_in_place(crypto_pos_tx, &mut body);
                if let Some(l) = ledger {
                    l.touch("crypto/xor", body.len() as u64, body.len() as u64);
                }
                crypto_pos_tx += body.len() as u64;
                times.crypto += t1.elapsed().as_secs_f64();
            }
            frame_record(tag, &body, &mut pending_wire);
        }
        // Layer pass 3: transport send (copy into the send buffer).
        if pending_off < pending_wire.len() {
            let t2 = Instant::now();
            let n = pair.a.send(&pending_wire[pending_off..]);
            pending_off += n;
            times.transport += t2.elapsed().as_secs_f64();
            if let Some(l) = ledger {
                // Copy into the transport send buffer.
                l.touch("transport/send_copy", n as u64, n as u64);
            }
        }
        if next_record == records.len() && pending_off == pending_wire.len() && !fin_queued {
            pair.a.finish();
            fin_queued = true;
        }

        // --- network + transport machinery ---
        // Only the protocol endpoints' work (segment encode/decode,
        // checksums, stream copies) counts as transport CPU; the simulator's
        // event processing is the "network", which the paper's stack
        // accounting of course excludes.
        let progressed = {
            let now = pair.net.now();
            let t3 = Instant::now();
            let frames_a = pair.a.poll(now);
            let frames_b = pair.b.poll(now);
            times.transport += t3.elapsed().as_secs_f64();
            let mut moved = !frames_a.is_empty() || !frames_b.is_empty();
            for f in frames_a {
                let _ = pair.net.send(pair.node_a, pair.node_b, f);
            }
            for f in frames_b {
                let _ = pair.net.send(pair.node_b, pair.node_a, f);
            }
            while let Some(frame) = pair.net.recv(pair.node_b) {
                moved = true;
                let t = Instant::now();
                // Owned frame → zero-copy ingest (out-of-order segments are
                // buffered as views). The layered stack's booked passes are
                // its explicit per-layer copies, which are unchanged.
                pair.b.on_frame(pair.net.now(), frame.payload.into());
                times.transport += t.elapsed().as_secs_f64();
            }
            while let Some(frame) = pair.net.recv(pair.node_a) {
                moved = true;
                let t = Instant::now();
                pair.a.on_frame(pair.net.now(), frame.payload.into());
                times.transport += t.elapsed().as_secs_f64();
            }
            if !pair.net.is_idle() {
                pair.net.step();
                true
            } else if moved {
                true
            } else {
                let next = match (pair.a.next_timeout(), pair.b.next_timeout()) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                };
                match next {
                    Some(t) if t > now => {
                        pair.net.advance(t.saturating_since(now));
                        true
                    }
                    Some(_) => true,
                    None => false,
                }
            }
        };
        let n_read = {
            let t3 = Instant::now();
            let mut total = 0usize;
            loop {
                let n = pair.b.recv(&mut buf);
                if n == 0 {
                    break;
                }
                rx_accum.extend_from_slice(&buf[..n]);
                total += n;
            }
            times.transport += t3.elapsed().as_secs_f64();
            if let Some(l) = ledger {
                if total > 0 {
                    // Stream copy out of the transport plus the reassembly
                    // accumulation into `rx_accum`.
                    l.touch("transport/recv_copy", total as u64, total as u64);
                }
            }
            total
        };

        // --- receiver: deframe, decrypt, decode complete records ---
        if n_read > 0 {
            let mut cursor = 0usize;
            while rx_accum.len() - cursor >= 5 {
                let tag = rx_accum[cursor];
                let len = u32::from_be_bytes([
                    rx_accum[cursor + 1],
                    rx_accum[cursor + 2],
                    rx_accum[cursor + 3],
                    rx_accum[cursor + 4],
                ]) as usize;
                if rx_accum.len() - cursor - 5 < len {
                    break;
                }
                let mut body = rx_accum[cursor + 5..cursor + 5 + len].to_vec();
                cursor += 5 + len;
                if let Some(l) = ledger {
                    l.touch("transport/deframe", body.len() as u64, body.len() as u64);
                }
                if cfg.encrypt {
                    let t4 = Instant::now();
                    cipher.apply_in_place(crypto_pos_rx, &mut body);
                    if let Some(l) = ledger {
                        l.touch("crypto/xor", body.len() as u64, body.len() as u64);
                    }
                    crypto_pos_rx += body.len() as u64;
                    times.crypto += t4.elapsed().as_secs_f64();
                }
                let t5 = Instant::now();
                let rec = match tag {
                    REC_U32 => decode_u32s(&cfg, &body).map(Record::U32Array),
                    REC_OCT => Ok(Record::Octets(body)),
                    _ => {
                        // Framing desync: unrecoverable in this harness.
                        break;
                    }
                };
                times.presentation += t5.elapsed().as_secs_f64();
                match rec {
                    Ok(r) => {
                        if let Some(l) = ledger {
                            l.touch("presentation/decode", len as u64, r.app_bytes() as u64);
                        }
                        delivered.push(r);
                    }
                    Err(_) => break,
                }
            }
            rx_accum.drain(..cursor);
        }

        if fin_queued
            && pair.a.send_complete()
            && pair.b.peer_finished()
            && delivered.len() == records.len()
        {
            complete = true;
            break;
        }
        if !progressed && n_read == 0 && pending_off == pending_wire.len() {
            // Drained and stuck.
            if delivered.len() == records.len() {
                complete = true;
            }
            break;
        }
    }

    // Verify content, not just count.
    let intact = complete && delivered == records;
    let app_bytes: u64 = delivered.iter().map(|r| r.app_bytes() as u64).sum();
    if let Some(tel) = telemetry {
        let mut reg = tel.metrics_mut();
        pair.a.stats.publish(&mut reg, "stream.a");
        pair.b.stats.publish(&mut reg, "stream.b");
        reg.counter_set("stack.records_delivered", delivered.len() as u64);
        reg.counter_set("stack.app_bytes", app_bytes);
        drop(reg);
        tel.ledger().deliver(app_bytes);
    }
    let total_cpu = times.total();
    StackReport {
        complete: intact,
        records_delivered: delivered.len(),
        app_bytes,
        times,
        cpu_mbps: ct_wire::mbps(app_bytes, total_cpu),
        sim_elapsed: pair.net.now().saturating_since(start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u32_records(n_records: usize, ints_each: usize) -> Vec<Record> {
        (0..n_records)
            .map(|r| {
                Record::U32Array(
                    (0..ints_each)
                        .map(|i| (r * 31 + i) as u32 ^ 0x5A5A)
                        .collect(),
                )
            })
            .collect()
    }

    fn octet_records(n_records: usize, bytes_each: usize) -> Vec<Record> {
        (0..n_records)
            .map(|r| Record::Octets((0..bytes_each).map(|i| (r + i) as u8).collect()))
            .collect()
    }

    #[test]
    fn ber_records_roundtrip() {
        let records = u32_records(10, 500);
        let rep = run_layered_transfer(
            1,
            LinkConfig::lan(),
            FaultConfig::none(),
            StackConfig::default(),
            &records,
        );
        assert!(rep.complete, "delivered {}/10", rep.records_delivered);
        assert_eq!(rep.app_bytes, 10 * 500 * 4);
        assert!(rep.times.presentation > 0.0);
    }

    #[test]
    fn octets_skip_presentation_cost() {
        let records = octet_records(10, 2000);
        let rep = run_layered_transfer(
            2,
            LinkConfig::lan(),
            FaultConfig::none(),
            StackConfig::default(),
            &records,
        );
        assert!(rep.complete);
        // Octets still pass through the (timed) presentation stage, but the
        // work there is a clone, far cheaper than BER conversion.
        let conv = run_layered_transfer(
            2,
            LinkConfig::lan(),
            FaultConfig::none(),
            StackConfig::default(),
            &u32_records(10, 500),
        );
        assert!(conv.complete);
        assert!(
            conv.times.presentation > rep.times.presentation,
            "BER conversion must cost more than passthrough"
        );
    }

    #[test]
    fn encryption_layer_optional_and_correct() {
        let records = u32_records(5, 300);
        let cfg = StackConfig {
            encrypt: true,
            ..StackConfig::default()
        };
        let rep = run_layered_transfer(3, LinkConfig::lan(), FaultConfig::none(), cfg, &records);
        assert!(rep.complete);
        assert!(rep.times.crypto > 0.0);
    }

    #[test]
    fn survives_loss() {
        let records = u32_records(8, 400);
        let rep = run_layered_transfer(
            4,
            LinkConfig::lan(),
            FaultConfig::loss(0.03),
            StackConfig {
                encrypt: true,
                ..StackConfig::default()
            },
            &records,
        );
        assert!(rep.complete, "delivered {}/8", rep.records_delivered);
    }

    #[test]
    fn all_syntaxes_work_through_stack() {
        for syntax in [
            TransferSyntax::Raw,
            TransferSyntax::Lwts,
            TransferSyntax::Xdr,
            TransferSyntax::Ber,
        ] {
            let records = u32_records(4, 250);
            let rep = run_layered_transfer(
                5,
                LinkConfig::lan(),
                FaultConfig::none(),
                StackConfig {
                    syntax,
                    ..StackConfig::default()
                },
                &records,
            );
            assert!(rep.complete, "{}", syntax.name());
        }
    }

    #[test]
    fn empty_record_list() {
        let rep = run_layered_transfer(
            6,
            LinkConfig::lan(),
            FaultConfig::none(),
            StackConfig::default(),
            &[],
        );
        assert!(rep.complete);
        assert_eq!(rep.app_bytes, 0);
    }

    #[test]
    fn telemetry_ledger_books_layer_passes() {
        let tel = ct_telemetry::Telemetry::new();
        let records = u32_records(6, 400);
        let rep = run_layered_transfer_telemetry(
            9,
            LinkConfig::lan(),
            FaultConfig::none(),
            StackConfig {
                encrypt: true,
                ..StackConfig::default()
            },
            &records,
            Some(&tel),
        );
        assert!(rep.complete);
        let ledger = tel.ledger();
        assert!(
            ledger.passes_per_delivered_byte() > 2.0,
            "a layered stack must traverse delivered data repeatedly: {}",
            ledger.passes_per_delivered_byte()
        );
        let stages: Vec<_> = ledger.stages().iter().map(|s| s.stage).collect();
        for want in [
            "presentation/encode",
            "crypto/xor",
            "transport/send_copy",
            "transport/recv_copy",
            "transport/deframe",
            "presentation/decode",
        ] {
            assert!(stages.contains(&want), "{want} missing from {stages:?}");
        }
        assert!(tel.metrics().counter("stream.a.segments_out") > 0);
        assert_eq!(tel.metrics().counter("stack.records_delivered"), 6);
    }

    #[test]
    fn presentation_fraction_math() {
        let t = LayerTimes {
            presentation: 0.97,
            crypto: 0.0,
            transport: 0.03,
        };
        assert!((t.presentation_fraction() - 0.97).abs() < 1e-12);
        assert_eq!(LayerTimes::default().presentation_fraction(), 0.0);
    }
}
