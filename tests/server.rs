//! End-to-end checks of the `ct-server` many-association subsystem:
//!
//! * determinism — two same-seed 1 000-association cluster runs produce
//!   byte-identical metrics registries and flight-recorder dumps (the
//!   property BENCH_x13.json's gated values stand on);
//! * the X13 CLI validates its arguments and exits 2 on malformed input,
//!   matching the x8 convention;
//! * the timer regression guard: `next_timeout()` examines no entries, so
//!   its cost cannot scale with the in-flight ADU count (the O(n)
//!   min-scan the timers replaced would fail this immediately).

use alf_core::adu::AduName;
use alf_core::transport::{AduTransport, AlfConfig};
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::time::SimTime;
use ct_server::cluster::{run_cluster, ClusterConfig};
use ct_telemetry::Telemetry;

/// One 1 000-association cluster run; returns the full telemetry exports.
fn cluster_dumps(seed: u64) -> (String, String) {
    let tel = Telemetry::with_tracing(1 << 15);
    let cfg = ClusterConfig {
        clients: 2,
        assocs_per_client: 500,
        adus_per_assoc: 2,
        adu_bytes: 300,
        link: LinkConfig::lan(),
        faults: FaultConfig::loss(0.01),
        ..ClusterConfig::default()
    };
    let r = run_cluster(seed, &cfg, Some(tel.clone()));
    assert!(r.complete, "cluster run wedged: {r:?}");
    assert!(r.verified, "cluster run delivered corrupt bytes");
    let metrics = tel.metrics().render_text();
    let trace = tel.trace_jsonl();
    (metrics, trace)
}

#[test]
fn same_seed_cluster_runs_are_byte_identical() {
    let (metrics_a, trace_a) = cluster_dumps(42);
    let (metrics_b, trace_b) = cluster_dumps(42);
    assert!(!metrics_a.is_empty() && !trace_a.is_empty());
    assert_eq!(
        metrics_a, metrics_b,
        "same-seed metrics registries must be byte-identical"
    );
    assert_eq!(
        trace_a, trace_b,
        "same-seed flight-recorder dumps must be byte-identical"
    );
}

#[test]
fn different_seed_cluster_runs_differ() {
    // Loss draws differ by seed, so the recorders must too — this guards
    // against the determinism test passing vacuously (e.g. empty dumps).
    let (_, trace_a) = cluster_dumps(42);
    let (_, trace_b) = cluster_dumps(43);
    assert_ne!(trace_a, trace_b, "seed must reach the fault process");
}

// ---------------------------------------------------------------------------
// X13 CLI argument validation (x8 convention: malformed input exits 2)
// ---------------------------------------------------------------------------

fn harness(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("spawn harness")
}

#[test]
fn x13_cli_rejects_malformed_args_with_exit_2() {
    for bad in [
        &["x13", "--assoc", "banana"][..],
        &["x13", "--assoc"][..],
        &["x13", "--assoc", "0"][..],
        &["x13", "--batch", "-4"][..],
        &["x13", "--adus", "1.5"][..],
        &["x13", "--bogus", "7"][..],
    ] {
        let out = harness(bad);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bad:?} must exit 2, got {:?}",
            out.status
        );
        assert!(
            !out.stderr.is_empty(),
            "{bad:?} must explain itself on stderr"
        );
    }
}

#[test]
fn x13_cli_accepts_valid_smoke_args() {
    let out = harness(&["x13", "--assoc", "2", "--adus", "1", "--batch", "8"]);
    assert!(
        out.status.success(),
        "valid smoke args must run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("ns/ADU"));
}

// ---------------------------------------------------------------------------
// Timer-cost regression: the endpoint's sorted deadline ring answers
// `next_timeout()` from its front, so asking for the next deadline
// examines zero timer entries no matter how many ADUs are in flight.
// ---------------------------------------------------------------------------

/// Arm `inflight` retransmission timers, then ask for the next deadline
/// 10 000 times; returns (entries examined, slots scanned) deltas.
fn next_timeout_cost(inflight: usize) -> (u64, u64) {
    let cfg = AlfConfig {
        window_adus: inflight + 8,
        // Fixed window and an unthrottled burst: every ADU transmits (and
        // arms its retransmit deadline) on the first poll.
        adaptive: false,
        burst_tus: inflight + 8,
        ..AlfConfig::default()
    };
    let mut t = AduTransport::new(cfg);
    for i in 0..inflight as u64 {
        t.send_adu(AduName::Seq { index: i }, vec![0u8; 64])
            .expect("window sized for the burst");
    }
    // Transmit (and thereby arm one retransmit deadline per ADU).
    let _ = t.poll(SimTime::ZERO);
    assert_eq!(t.timer_stats().inserts, inflight as u64);

    let before = t.timer_stats();
    for _ in 0..10_000 {
        assert!(t.next_timeout().is_some(), "armed timers must surface");
    }
    let after = t.timer_stats();
    (
        after.entries_examined - before.entries_examined,
        after.slots_scanned - before.slots_scanned,
    )
}

#[test]
fn next_timeout_cost_is_independent_of_inflight_count() {
    let (examined_1, scanned_1) = next_timeout_cost(1);
    let (examined_512, scanned_512) = next_timeout_cost(512);
    assert_eq!(examined_1, 0, "next_timeout must touch no timer entries");
    assert_eq!(examined_512, 0, "next_timeout must touch no timer entries");
    assert_eq!(
        scanned_1, scanned_512,
        "slot scans per query must not grow with the in-flight count"
    );
}
