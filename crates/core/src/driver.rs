//! Drivers: ALF workloads over simulated packet and ATM cell networks.
//!
//! These functions are the measurement harness for the X-series experiments:
//! they move a list of ADUs from one node to another under configurable
//! loss/reordering, over either a classic packet substrate (each TU is one
//! network frame) or an ATM substrate (each TU travels as a PDU of 53-byte
//! cells through `ct-netsim`'s adaptation layer) — demonstrating §5's claim
//! that the ADU, not the packet or cell, is the stable unit of manipulation
//! while "the network technology of the day ... can and will change".

use crate::adu::{Adu, AduName};
use crate::transport::{AduTransport, AlfConfig, AlfStats, RecoveryMode};
use ct_netsim::drive::Pair;
pub use ct_netsim::drive::Substrate;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Outcome of an ALF transfer run.
#[derive(Debug, Clone)]
pub struct AlfReport {
    /// All offered ADUs were either delivered intact or explicitly reported
    /// lost (no silent corruption, no unaccounted ADU).
    pub complete: bool,
    /// Every delivered payload matched the sender's bytes for that name.
    pub verified: bool,
    /// ADUs offered by the sending application.
    pub adus_offered: usize,
    /// ADUs delivered complete to the receiving application.
    pub adus_delivered: u64,
    /// ADUs lost for good (sender gave up / no-retransmit losses).
    pub adus_lost: u64,
    /// Simulated time from first send to completion.
    pub elapsed: SimDuration,
    /// Application goodput over delivered ADUs, Mb per simulated second.
    pub goodput_mbps: f64,
    /// Mean per-ADU delivery latency (first TU arrival → completion).
    pub latency_mean: SimDuration,
    /// Max per-ADU delivery latency.
    pub latency_max: SimDuration,
    /// Sender-side transport stats.
    pub sender: AlfStats,
    /// Receiver-side transport stats.
    pub receiver: AlfStats,
    /// Peak bytes the sender held for retransmission.
    pub sender_buffer_peak: usize,
    /// Peak bytes the receiver held in partial reassemblies.
    pub reassembly_peak: usize,
    /// Observed network loss rate (frames or cells, per substrate).
    pub net_loss_rate: f64,
    /// The sender declared the peer unreachable (dead-peer timeout fired
    /// and the run stopped instead of retrying forever).
    pub peer_unreachable: bool,
}

/// Scenario shaping beyond the static link/fault configuration.
#[derive(Debug, Clone, Default)]
pub struct ScenarioOpts {
    /// Link outage windows `(from, until)` applied to both directions of
    /// the A–B link — partitions that heal (use [`SimTime::MAX`] as `until`
    /// for one that never does).
    pub outages: Vec<(SimTime, SimTime)>,
    /// Observability handle shared by the network and both endpoints. When
    /// set, the network counts frame events, both transports record flight-
    /// recorder events (sender under layer `"sender"`, receiver under
    /// `"receiver"`, if tracing is armed) and the driver records the
    /// application edges of each ADU's lifecycle span (`adu_submit` /
    /// `adu_consume` under layer `"app"`); a per-ADU delivery-latency
    /// histogram accumulates under `alf.delivery_latency_us.<mode>`
    /// (labeled by recovery mode: `buffered`, `recompute`,
    /// `no_retransmit`); when the run settles, the final [`AlfStats`] of
    /// both ends publish under `alf.sender.*` / `alf.receiver.*` and — if
    /// tracing was armed — per-ADU HOL stalls stitched from the flight
    /// record land in the `alf.adu_stall_us` histogram.
    pub telemetry: Option<ct_telemetry::Telemetry>,
}

/// A recompute oracle for [`RecoveryMode::AppRecompute`] runs: given an ADU
/// name, regenerate its payload ("the sending application to provide the
/// data", §5).
pub type RecomputeFn<'a> = &'a dyn Fn(AduName) -> Vec<u8>;

/// Record an application-layer lifecycle event (`adu_submit` /
/// `adu_consume`) — a no-op unless tracing is armed. `span_assoc` is the
/// *transport's* association id, used only for the span-sampling decision
/// so the app edges of a span agree with its transport edges (the recorded
/// event keeps `assoc: 0` under layer `"app"`, as always).
fn trace_app(
    telemetry: &Option<ct_telemetry::Telemetry>,
    at: SimTime,
    kind: &'static str,
    name: AduName,
    len: u64,
    span_assoc: u32,
) {
    if let Some(tel) = telemetry {
        if tel.tracing_enabled() && tel.span_sampled_key(span_assoc, name.span_key()) {
            tel.record(ct_telemetry::Event {
                at_nanos: at.as_nanos(),
                layer: "app",
                kind,
                assoc: 0,
                adu: Some(name.to_string()),
                a: 0,
                b: 0,
                len,
            });
        }
    }
}

/// The recovery-mode label on the driver's delivery-latency histogram.
fn latency_metric_name(recovery: RecoveryMode) -> &'static str {
    match recovery {
        RecoveryMode::TransportBuffer => "alf.delivery_latency_us.buffered",
        RecoveryMode::AppRecompute => "alf.delivery_latency_us.recompute",
        RecoveryMode::NoRetransmit => "alf.delivery_latency_us.no_retransmit",
    }
}

/// Run `adus` from node A to node B and return the report.
///
/// `recompute` must be provided for [`RecoveryMode::AppRecompute`]; it is
/// ignored otherwise.
pub fn run_alf_transfer(
    seed: u64,
    link: LinkConfig,
    faults: FaultConfig,
    cfg: AlfConfig,
    substrate: Substrate,
    adus: &[Adu],
    recompute: Option<RecomputeFn<'_>>,
) -> AlfReport {
    run_alf_transfer_scenario(
        seed,
        link,
        faults,
        cfg,
        substrate,
        adus,
        recompute,
        &ScenarioOpts::default(),
    )
}

/// [`run_alf_transfer`] with additional scenario shaping (scheduled link
/// outages — partitions that heal or don't).
#[allow(clippy::too_many_arguments)]
pub fn run_alf_transfer_scenario(
    seed: u64,
    link: LinkConfig,
    faults: FaultConfig,
    cfg: AlfConfig,
    substrate: Substrate,
    adus: &[Adu],
    recompute: Option<RecomputeFn<'_>>,
    opts: &ScenarioOpts,
) -> AlfReport {
    // Out-of-band rate computation (§3): derive the TU pace from the
    // substrate's per-TU wire time unless the caller fixed one — or
    // enabled adaptive control, which measures its own rate from ACKs.
    // NoRetransmit flows carry no ACK clock to measure with, so they keep
    // the static derivation even under adaptive control.
    let mut cfg = cfg;
    let self_pacing = cfg.adaptive && cfg.recovery != RecoveryMode::NoRetransmit;
    if cfg.pace_per_tu == SimDuration::ZERO && !self_pacing && link.bandwidth_bps > 0 {
        let wire_bytes = match substrate {
            Substrate::Packet => cfg.mtu_payload + crate::wire::TU_HEADER_BYTES,
            // On ATM, each TU becomes ceil(len/44)+framing cells of 53 B.
            Substrate::Atm => {
                ct_netsim::atm::cells_for(cfg.mtu_payload + crate::wire::TU_HEADER_BYTES)
                    * ct_netsim::atm::CELL_SIZE_BYTES
            }
        };
        let ser = SimDuration::serialization(wire_bytes, link.bandwidth_bps);
        // 5% headroom so control traffic fits alongside data.
        cfg.pace_per_tu = SimDuration::from_nanos(ser.as_nanos() + ser.as_nanos() / 20);
    }
    let mut pair = Pair::new(
        seed,
        link,
        faults,
        substrate,
        AduTransport::new(cfg),
        AduTransport::new(cfg),
    );
    for &(from, until) in &opts.outages {
        pair.net
            .schedule_outage(pair.node_a, pair.node_b, from, until);
    }
    if let Some(tel) = &opts.telemetry {
        pair.net.attach_telemetry(tel.clone());
        pair.a.attach_telemetry(tel.clone(), "sender");
        pair.b.attach_telemetry(tel.clone(), "receiver");
    }

    let expected: HashMap<AduName, &[u8]> = adus
        .iter()
        .map(|adu| (adu.name, adu.payload.as_slice()))
        .collect();

    let start = pair.net.now();
    let mut next_offer = 0usize;
    let mut delivered_ok = 0u64;
    let mut delivered_bytes = 0u64;
    let mut corrupt_deliveries = 0u64;
    let mut lost_names = 0u64;
    let mut sender_buffer_peak = 0usize;
    let mut reassembly_peak = 0usize;

    let total_bytes: usize = adus.iter().map(Adu::len).sum();
    let max_iters = 2_000_000 + total_bytes / 8;
    let mut complete = false;
    let mut quiet_deadline: Option<SimTime> = None;
    let latency_metric = latency_metric_name(cfg.recovery);
    // ADUs whose first offer attempt has been traced (`adu_submit` marks
    // when the application first asked, even if the window refused it —
    // that wait is the admit_wait stage of the lifecycle span).
    let mut submitted_upto = 0usize;

    for _ in 0..max_iters {
        // Offer ADUs while the window accepts them.
        while next_offer < adus.len() {
            let adu = &adus[next_offer];
            if next_offer >= submitted_upto {
                trace_app(
                    &opts.telemetry,
                    pair.net.now(),
                    "adu_submit",
                    adu.name,
                    adu.len() as u64,
                    u32::from(cfg.assoc),
                );
                submitted_upto = next_offer + 1;
            }
            match pair.a.send_adu(adu.name, adu.payload.clone()) {
                Ok(_) => next_offer += 1,
                Err(_) => break,
            }
        }

        // Recompute requests from the previous round (AppRecompute runs):
        // answered before the poll so the regenerated payload flows out in
        // this iteration and never lingers as sender state.
        if cfg.recovery == RecoveryMode::AppRecompute {
            let reqs = pair.a.take_recompute_requests();
            if !reqs.is_empty() {
                let oracle = recompute.expect("AppRecompute run needs a recompute oracle");
                for req in reqs {
                    pair.a.provide_recomputed(req.adu_id, oracle(req.name));
                }
            }
        }

        let moved = pair.exchange();

        // Application drains out-of-order deliveries.
        while let Some((adu, latency)) = pair.b.recv_adu() {
            delivered_bytes += adu.len() as u64;
            if let Some(tel) = &opts.telemetry {
                tel.metrics_mut()
                    .observe(latency_metric, latency.as_nanos() / 1_000);
            }
            trace_app(
                &opts.telemetry,
                pair.net.now(),
                "adu_consume",
                adu.name,
                adu.len() as u64,
                u32::from(cfg.assoc),
            );
            match expected.get(&adu.name) {
                Some(want) if *want == adu.payload.as_slice() => delivered_ok += 1,
                _ => {
                    #[cfg(feature = "debug-loss")]
                    eprintln!(
                        "corrupt delivery: {} len {} expected {:?}",
                        adu.name,
                        adu.len(),
                        expected.get(&adu.name).map(|w| w.len())
                    );
                    corrupt_deliveries += 1;
                }
            }
        }
        lost_names += pair.a.take_loss_reports().len() as u64;

        sender_buffer_peak = sender_buffer_peak.max(pair.a.retransmit_buffer_bytes());
        reassembly_peak = reassembly_peak.max(pair.b.reassembly_bytes());

        // Completion check.
        let accounted = delivered_ok + corrupt_deliveries + lost_names;
        if next_offer == adus.len() && pair.a.send_complete() && accounted >= adus.len() as u64 {
            complete = true;
            break;
        }
        // Dead peer: the sender flushed everything to loss reports (drained
        // above) and refuses new work — stop instead of spinning. Offered-
        // but-unsubmitted ADUs stay unaccounted, so `complete` stays false
        // unless the flush covered the whole workload.
        if pair.a.peer_unreachable() {
            break;
        }
        // NoRetransmit: the sender is done instantly, but the receiver may
        // be waiting on partial ADUs that will never complete. Run the
        // clock past the assembly deadline once the wire is quiet.
        if cfg.recovery == RecoveryMode::NoRetransmit
            && next_offer == adus.len()
            && pair.a.send_complete()
            && pair.net.is_idle()
        {
            match quiet_deadline {
                None => {
                    quiet_deadline =
                        Some(pair.net.now() + cfg.assembly_timeout + SimDuration::from_millis(1));
                    pair.net
                        .advance(cfg.assembly_timeout + SimDuration::from_millis(1));
                }
                Some(d) if pair.net.now() >= d => {
                    // Expire leftovers and finish.
                    let _ = pair.b.poll(pair.net.now());
                    complete = true;
                    break;
                }
                Some(_) => {
                    pair.net.advance(SimDuration::from_millis(1));
                }
            }
            continue;
        }

        // Nothing pending anywhere: a question to the sending application
        // still counts as pending work; so do receiver partials (let them
        // expire).
        if !pair.settle(moved, None) {
            if pair.a.pending_recompute_requests() > 0 {
                // Answered at the top of the next iteration.
            } else if pair.b.reassembly_bytes() > 0 {
                pair.net
                    .advance(cfg.assembly_timeout + SimDuration::from_millis(1));
            } else if pair.a.send_complete() && next_offer == adus.len() {
                // All sent; any unaccounted ADUs are silent losses
                // (NoRetransmit ACK losses etc.).
                complete = true;
                break;
            } else {
                break;
            }
        }
    }

    let elapsed = pair.net.now().saturating_since(start);
    if let Some(tel) = &opts.telemetry {
        // End-of-run publication: both endpoints' counters, plus the bytes
        // the application actually received into the data-touch ledger (so
        // ledgered manipulation stages divide into passes-per-byte).
        let mut reg = tel.metrics_mut();
        pair.a.stats().publish(&mut reg, "alf.sender");
        pair.b.stats().publish(&mut reg, "alf.receiver");
        reg.counter_set("alf.run.delivered_bytes", delivered_bytes);
        reg.counter_set("alf.run.elapsed_ns", elapsed.as_nanos());
        drop(reg);
        tel.ledger().deliver(delivered_bytes);
        // With tracing armed, stitch the flight record into lifecycle
        // spans and publish each ADU's HOL stall (time fully-arrived but
        // not yet consumed; ~0 is the ALF claim made measurable).
        if tel.tracing_enabled() {
            let spans = tel.span_report();
            let mut reg = tel.metrics_mut();
            for span in &spans.spans {
                if let Some(ns) = span.stall_nanos() {
                    reg.observe("alf.adu_stall_us", ns / 1_000);
                }
            }
        }
    }
    let stats_b = pair.b.stats();
    let delivered = stats_b.adus_delivered;
    let latency_mean = stats_b
        .delivery_latency_total
        .as_nanos()
        .checked_div(delivered)
        .map_or(SimDuration::ZERO, SimDuration::from_nanos);
    AlfReport {
        complete,
        verified: corrupt_deliveries == 0,
        adus_offered: adus.len(),
        adus_delivered: delivered,
        adus_lost: lost_names + pair.a.stats().adus_given_up.saturating_sub(lost_names),
        elapsed,
        goodput_mbps: ct_wire::mbps(delivered_bytes, elapsed.as_secs_f64()),
        latency_mean,
        latency_max: stats_b.delivery_latency_max,
        sender: pair.a.stats(),
        receiver: stats_b,
        sender_buffer_peak,
        reassembly_peak,
        net_loss_rate: pair.net.stats().loss_rate(),
        peer_unreachable: pair.a.peer_unreachable(),
    }
}

/// Build a simple sequential ADU workload: `count` ADUs of `size` bytes
/// each, named by sequence index, with deterministic contents.
pub fn seq_workload(count: usize, size: usize) -> Vec<Adu> {
    (0..count)
        .map(|i| {
            Adu::new(
                AduName::Seq { index: i as u64 },
                workload_payload(i as u64, size),
            )
        })
        .collect()
}

/// The deterministic payload generator shared by workloads and recompute
/// oracles: regenerating ADU `index` always yields the same bytes — which
/// is what makes application recomputation a *valid* recovery strategy.
pub fn workload_payload(index: u64, size: usize) -> Vec<u8> {
    (0..size)
        .map(|j| ((index as usize).wrapping_mul(31) ^ j.wrapping_mul(131) ^ (j >> 7)) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg(recovery: RecoveryMode) -> AlfConfig {
        AlfConfig {
            recovery,
            ..AlfConfig::default()
        }
    }

    #[test]
    fn clean_packet_transfer() {
        let adus = seq_workload(50, 4000);
        let r = run_alf_transfer(
            1,
            LinkConfig::lan(),
            FaultConfig::none(),
            base_cfg(RecoveryMode::TransportBuffer),
            Substrate::Packet,
            &adus,
            None,
        );
        assert!(r.complete && r.verified, "{r:?}");
        assert_eq!(r.adus_delivered, 50);
        assert_eq!(r.adus_lost, 0);
        assert_eq!(r.sender.adus_retransmitted, 0);
    }

    #[test]
    fn lossy_packet_transfer_buffer_mode() {
        let adus = seq_workload(60, 4000);
        let r = run_alf_transfer(
            2,
            LinkConfig::lan(),
            FaultConfig::loss(0.05),
            base_cfg(RecoveryMode::TransportBuffer),
            Substrate::Packet,
            &adus,
            None,
        );
        assert!(r.complete && r.verified, "{r:?}");
        assert_eq!(r.adus_delivered, 60, "buffer mode repairs all losses");
        assert!(
            r.sender.adus_retransmitted + r.sender.tus_retransmitted_selective + r.sender.probe_tus
                > 0,
            "loss must have forced some repair traffic"
        );
        assert!(r.sender_buffer_peak > 0);
    }

    #[test]
    fn lossy_recompute_mode() {
        let adus = seq_workload(40, 3000);
        let oracle = |name: AduName| match name {
            AduName::Seq { index } => workload_payload(index, 3000),
            _ => panic!("unexpected name"),
        };
        let r = run_alf_transfer(
            3,
            LinkConfig::lan(),
            FaultConfig::loss(0.05),
            base_cfg(RecoveryMode::AppRecompute),
            Substrate::Packet,
            &adus,
            Some(&oracle),
        );
        assert!(r.complete && r.verified, "{r:?}");
        assert_eq!(r.adus_delivered, 40);
        assert!(r.sender.recompute_requests > 0, "app must have been asked");
        // The defining property: no standing retransmission buffer.
        assert_eq!(r.sender_buffer_peak, 0);
    }

    #[test]
    fn lossy_no_retransmit_mode() {
        let adus = seq_workload(100, 2000);
        let r = run_alf_transfer(
            4,
            LinkConfig::lan(),
            FaultConfig::loss(0.10),
            AlfConfig {
                assembly_timeout: SimDuration::from_millis(5),
                ..base_cfg(RecoveryMode::NoRetransmit)
            },
            Substrate::Packet,
            &adus,
            None,
        );
        assert!(r.verified);
        assert!(r.adus_delivered < 100, "10% TU loss must kill some ADUs");
        assert!(r.adus_delivered > 50, "most ADUs should survive");
        assert_eq!(r.sender.adus_retransmitted, 0);
        assert_eq!(r.sender_buffer_peak, 0);
    }

    #[test]
    fn atm_substrate_clean() {
        let adus = seq_workload(20, 3000);
        let r = run_alf_transfer(
            5,
            LinkConfig::ideal(),
            FaultConfig::none(),
            base_cfg(RecoveryMode::TransportBuffer),
            Substrate::Atm,
            &adus,
            None,
        );
        assert!(r.complete && r.verified, "{r:?}");
        assert_eq!(r.adus_delivered, 20);
    }

    #[test]
    fn atm_substrate_cell_loss_recovered() {
        let adus = seq_workload(20, 2000);
        let r = run_alf_transfer(
            6,
            LinkConfig::ideal(),
            FaultConfig::loss(0.002), // per-cell loss
            base_cfg(RecoveryMode::TransportBuffer),
            Substrate::Atm,
            &adus,
            None,
        );
        assert!(r.complete && r.verified, "{r:?}");
        assert_eq!(r.adus_delivered, 20);
    }

    #[test]
    fn out_of_order_adus_dont_block() {
        let adus = seq_workload(80, 3000);
        let r = run_alf_transfer(
            7,
            LinkConfig::lan(),
            FaultConfig::reordering(0.3, SimDuration::from_millis(1)),
            base_cfg(RecoveryMode::TransportBuffer),
            Substrate::Packet,
            &adus,
            None,
        );
        assert!(r.complete && r.verified, "{r:?}");
        assert_eq!(r.adus_delivered, 80);
    }

    #[test]
    fn deterministic_reports() {
        let adus = seq_workload(30, 2500);
        let run = |seed| {
            run_alf_transfer(
                seed,
                LinkConfig::lan(),
                FaultConfig::loss(0.03),
                base_cfg(RecoveryMode::TransportBuffer),
                Substrate::Packet,
                &adus,
                None,
            )
        };
        let r1 = run(42);
        let r2 = run(42);
        assert_eq!(r1.elapsed, r2.elapsed);
        assert_eq!(r1.sender.tus_sent, r2.sender.tus_sent);
    }

    #[test]
    fn fec_lifts_no_retransmit_delivery_under_loss() {
        let adus = seq_workload(100, 4000); // 3 TUs each
        let run = |fec_group| {
            let r = run_alf_transfer(
                55,
                LinkConfig::lan(),
                FaultConfig::loss(0.05),
                AlfConfig {
                    recovery: RecoveryMode::NoRetransmit,
                    assembly_timeout: SimDuration::from_millis(5),
                    fec_group,
                    ..AlfConfig::default()
                },
                Substrate::Packet,
                &adus,
                None,
            );
            assert!(r.verified);
            r.adus_delivered
        };
        let plain = run(0);
        let fec = run(4);
        assert!(
            fec > plain,
            "FEC must deliver more ADUs without retransmission: {fec} !> {plain}"
        );
        assert!(
            fec >= 95,
            "single-erasure parity should repair most losses, got {fec}"
        );
    }

    #[test]
    fn workload_payload_is_reproducible() {
        assert_eq!(workload_payload(5, 100), workload_payload(5, 100));
        assert_ne!(workload_payload(5, 100), workload_payload(6, 100));
    }
}
