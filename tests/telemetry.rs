//! End-to-end checks of the `ct-telemetry` subsystem as the stack actually
//! uses it:
//!
//! * a driver run with an attached [`Telemetry`] populates the registry, the
//!   delivery-latency histogram, the flight recorder, and the data-touch
//!   ledger coherently with the run's own report;
//! * the registry and trace JSONL exports survive a round trip losslessly;
//! * the overhead guard: the ledgered fused kernel, with tracing off (the
//!   always-on fast path) and with the lifecycle-span trace points armed,
//!   books one entry per call whatever the buffer size (and, under
//!   `WALLCLOCK=1`, pays a fixed nanosecond cost for it).

use alf_core::driver::{run_alf_transfer_scenario, seq_workload, ScenarioOpts, Substrate};
use alf_core::transport::AlfConfig;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_telemetry::{Event, MetricsRegistry, Telemetry, TouchLedger};

#[test]
fn driver_run_populates_registry_recorder_and_ledger() {
    let tel = Telemetry::with_tracing(8192);
    let adus = seq_workload(24, 4000);
    let r = run_alf_transfer_scenario(
        11,
        LinkConfig::lan(),
        FaultConfig::loss(0.02),
        AlfConfig::default(),
        Substrate::Packet,
        &adus,
        None,
        &ScenarioOpts {
            telemetry: Some(tel.clone()),
            ..ScenarioOpts::default()
        },
    );
    assert!(r.complete && r.verified, "{r:?}");

    // Registry agrees with the run's own report.
    let m = tel.metrics();
    assert_eq!(m.counter("alf.sender.adus_sent"), 24);
    assert_eq!(m.counter("alf.receiver.adus_delivered"), r.adus_delivered);
    assert_eq!(m.counter("alf.sender.tus_sent"), r.sender.tus_sent);
    assert!(m.counter("net.frame_send") >= r.sender.tus_sent);
    let h = m
        .histogram("alf.delivery_latency_us.buffered")
        .expect("latency hist is labelled by the run's recovery mode");
    assert_eq!(h.count(), r.adus_delivered);
    assert!(h.max() >= h.min());
    let stall = m
        .histogram("alf.adu_stall_us")
        .expect("span layer publishes HOL stall when tracing is armed");
    assert_eq!(stall.count(), r.adus_delivered);
    drop(m);

    // Ledger saw the application bytes.
    assert_eq!(tel.ledger().delivered(), 24 * 4000);

    // Flight recorder captured transport + network events with ADU names.
    assert!(tel.trace_len() > 0);
    let jsonl = tel.trace_jsonl();
    let parsed = Event::parse_jsonl(&jsonl).expect("trace parses");
    assert_eq!(parsed.len(), tel.trace_len());
    assert!(
        parsed.iter().any(|e| e.kind == "adu_deliver"
            && e.layer == "receiver"
            && e.adu.as_deref().is_some_and(|n| n.starts_with("seq:"))),
        "deliveries must be traced with their ADU names"
    );
    assert!(
        parsed.iter().any(|e| e.layer == "net"),
        "network frame events must share the recorder"
    );

    // Events survive the JSONL round trip semantically.
    let events = tel.trace_events();
    let reparsed: Vec<ct_telemetry::ParsedEvent> =
        events.iter().map(ct_telemetry::ParsedEvent::from).collect();
    assert_eq!(parsed, reparsed);
}

#[test]
fn registry_jsonl_round_trips_from_a_real_run() {
    let tel = Telemetry::new();
    let adus = seq_workload(10, 3000);
    let r = run_alf_transfer_scenario(
        13,
        LinkConfig::lan(),
        FaultConfig::loss(0.05),
        AlfConfig::default(),
        Substrate::Packet,
        &adus,
        None,
        &ScenarioOpts {
            telemetry: Some(tel.clone()),
            ..ScenarioOpts::default()
        },
    );
    assert!(r.complete, "{r:?}");
    let snap = tel.metrics().snapshot();
    assert!(!snap.is_empty());
    let jsonl = snap.to_jsonl();
    let back = MetricsRegistry::from_jsonl(&jsonl).expect("registry JSONL parses");
    assert_eq!(back, snap, "registry must survive its own export");
}

/// `calls` runs of `copy_and_checksum` from `src` into `dst`, each followed
/// — if `ledgered` — by its ledger entry (one traversal: `len` reads + `len`
/// writes, the checksum folded into the same pass). Returns nanoseconds per
/// call.
fn kernel_calls_ns(
    ledger: &TouchLedger,
    (src, dst): (&[u8], &mut [u8]),
    calls: usize,
    ledgered: bool,
) -> f64 {
    let len = src.len() as u64;
    let t = std::time::Instant::now();
    for _ in 0..calls {
        std::hint::black_box(ct_wire::fused::copy_and_checksum(
            std::hint::black_box(src),
            dst,
        ));
        if ledgered {
            ledger.touch("wire/fused_copy_ck", len, len);
        }
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// A `len`-byte source and a destination for it.
fn buffers(len: usize) -> (Vec<u8>, Vec<u8>) {
    let src = (0..len).map(|i| (i.wrapping_mul(131) >> 3) as u8).collect();
    (src, vec![0u8; len])
}

/// The nanosecond form of the guard, enforced under `WALLCLOCK=1` only: the
/// entry fits a fixed per-call budget, measured where a 64-byte kernel
/// cannot hide it; and it costs no more on a 256 KiB buffer than on a
/// 4 KiB one, to within a twentieth of the large kernel's own time — any
/// per-byte hook costs a multiple of that. Both are differences, not ratios
/// to kernel time (which tighten whenever the kernel speeds up). Returns
/// what was violated.
fn ledger_cost_violation(ledger: &TouchLedger) -> Option<String> {
    const BUDGET_NS: f64 = 250.0;
    const REPS: usize = 100;
    let bare_and_booked = |len, calls| {
        let (src, mut dst) = buffers(len);
        ct_bench::interleaved_min_ns(REPS, |ledgered| {
            kernel_calls_ns(ledger, (&src, &mut dst), calls, ledgered)
        })
    };
    let (bare, ledgered) = bare_and_booked(64, 4096);
    let per_call = ledgered - bare;
    if per_call >= BUDGET_NS {
        return Some(format!(
            "ledger entry costs {per_call:.0} ns per call (budget {BUDGET_NS} ns)"
        ));
    }
    let (bare_4k, ledgered_4k) = bare_and_booked(4 << 10, 64);
    let (bare_256k, ledgered_256k) = bare_and_booked(256 << 10, 1);
    let growth = (ledgered_256k - bare_256k) - (ledgered_4k - bare_4k);
    (growth >= bare_256k / 20.0).then(|| {
        format!(
            "ledger cost grew by {growth:.0} ns from 4 KiB to 256 KiB \
             (bare 256 KiB kernel: {bare_256k:.0} ns) — a per-byte hook?"
        )
    })
}

/// The always-on telemetry fast path — data-touch accounting with tracing
/// disarmed — posts one O(1) entry per kernel call and has no per-byte
/// hook; and the lifecycle-span instrumentation is strictly per-TU, so a
/// **tracing-armed** [`Telemetry`]'s ledger does exactly the same. Asserted
/// as counts: whatever the buffer size, `calls` kernel calls leave one
/// stage with `calls` entries and `calls x len` reads and writes, and
/// nothing in the flight recorder.
///
/// Under `WALLCLOCK=1` the same is also bounded in nanoseconds. One test,
/// so the timed loops never run beside each other; and a violation must
/// repeat three times, because the other tests of this binary run beside
/// this one — a real hook fails every attempt.
#[test]
fn ledgered_fast_path_cost_is_per_call_armed_or_not() {
    let tel = Telemetry::with_tracing(1 << 15);
    assert!(tel.tracing_enabled(), "span layer must actually be armed");
    for ledger in [&TouchLedger::new(), tel.ledger()] {
        for (len, calls) in [(64usize, 4096usize), (4 << 10, 64), (256 << 10, 4)] {
            ledger.reset();
            let (src, mut dst) = buffers(len);
            kernel_calls_ns(ledger, (&src, &mut dst), calls, true);
            let booked = (calls * len) as u64;
            assert_eq!(
                ledger.stages(),
                [ct_telemetry::StageTouch {
                    stage: "wire/fused_copy_ck",
                    reads: booked,
                    writes: booked,
                    calls: calls as u64,
                }],
                "{calls} calls of {len} bytes"
            );
        }
        assert_eq!(tel.trace_len(), 0, "a ledger entry is not a trace event");
        if !ct_bench::wallclock_enforced() {
            continue;
        }
        let mut violation = None;
        for _attempt in 0..3 {
            violation = ledger_cost_violation(ledger);
            if violation.is_none() {
                break;
            }
        }
        if let Some(violation) = violation {
            panic!("{violation}");
        }
    }
}
