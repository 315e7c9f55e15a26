//! End-to-end determinism and fidelity checks for the ADU lifecycle-span
//! layer (`ct_telemetry::span`) as `ct-trace` consumes it:
//!
//! * same seed ⇒ byte-identical JSONL export, byte-identical timeline and
//!   attribution reports — the property that makes the flight record a
//!   debugging artifact rather than a sample;
//! * the offline stitcher (what `ct-trace` runs on a dump) reproduces the
//!   in-process stitching exactly;
//! * the stream HOL profiler is deterministic under the same seed and sees
//!   loss as stalls;
//! * a wrapped ring yields an explicit `TRUNCATED` marker in the export
//!   and the report, never a silently short timeline.

use alf_core::driver::{run_alf_transfer_scenario, seq_workload, ScenarioOpts, Substrate};
use alf_core::transport::AlfConfig;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_telemetry::span::{stream_stalls, SpanReport};
use ct_telemetry::{Event, Telemetry};
use ct_transport::{run_transfer_telemetry, StreamConfig};

fn traced_alf_run(seed: u64, trace_cap: usize) -> Telemetry {
    let tel = Telemetry::with_tracing(trace_cap);
    let adus = seq_workload(40, 3000);
    let r = run_alf_transfer_scenario(
        seed,
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
    tel
}

#[test]
fn same_seed_yields_byte_identical_attribution() {
    let t1 = traced_alf_run(21, 1 << 15);
    let t2 = traced_alf_run(21, 1 << 15);
    assert_eq!(
        t1.trace_jsonl(),
        t2.trace_jsonl(),
        "same seed must export a byte-identical flight record"
    );
    let (r1, r2) = (t1.span_report(), t2.span_report());
    assert_eq!(r1.spans.len(), 40);
    assert_eq!(
        r1.render_timeline(usize::MAX),
        r2.render_timeline(usize::MAX)
    );
    assert_eq!(r1.render_attribution(), r2.render_attribution());
}

#[test]
fn offline_stitching_reproduces_in_process_report() {
    let tel = traced_alf_run(22, 1 << 15);
    let live = tel.span_report();
    let events = Event::parse_jsonl(&tel.trace_jsonl()).expect("export parses");
    let offline = SpanReport::from_parsed(&events);
    assert_eq!(
        live.render_timeline(usize::MAX),
        offline.render_timeline(usize::MAX)
    );
    assert_eq!(live.render_attribution(), offline.render_attribution());
    // Every span is fully stitched: no missing lifecycle edges under a
    // trace capacity that held the whole run.
    assert_eq!(tel.trace_overwritten(), 0);
    for s in &offline.spans {
        assert!(!s.truncated, "{}: truncated without a wrapped ring", s.adu);
        assert!(s.submit_at.is_some() && s.consume_at.is_some(), "{}", s.adu);
    }
}

#[test]
fn stream_hol_profile_is_deterministic_and_sees_loss() {
    const ADU_BYTES: usize = 2000;
    let data: Vec<u8> = (0..60 * ADU_BYTES)
        .map(|i| (i.wrapping_mul(131) >> 3) as u8)
        .collect();
    let link = LinkConfig::lan();
    let run = || {
        let tel = Telemetry::with_tracing(1 << 15);
        let r = run_transfer_telemetry(
            23,
            link,
            FaultConfig::loss(0.02),
            StreamConfig::default(),
            &data,
            Some(&tel),
        );
        assert!(r.complete);
        tel.trace_jsonl()
    };
    let (j1, j2) = (run(), run());
    assert_eq!(
        j1, j2,
        "same seed must export a byte-identical stream record"
    );
    let events = Event::parse_jsonl(&j1).expect("stream export parses");
    let stalls = stream_stalls(&events, ADU_BYTES as u64);
    assert_eq!(stalls.len(), 60, "every ADU-sized range must be profiled");
    assert!(
        stalls.iter().any(|s| s.stall_nanos() > 0),
        "2% loss must stall at least one in-order range"
    );
}

#[test]
fn wrapped_ring_reports_truncation_not_silence() {
    // Capacity far below the run's event count: the ring wraps and early
    // submits are lost. The report must say so explicitly.
    let tel = traced_alf_run(24, 64);
    assert!(tel.trace_overwritten() > 0);
    let report = tel.span_report();
    assert_eq!(report.truncated_events, tel.trace_overwritten());
    let timeline = report.render_timeline(usize::MAX);
    assert!(
        timeline.contains("TRUNCATED"),
        "timeline must carry the truncation marker:\n{timeline}"
    );
    // The JSONL export round-trips the marker so ct-trace sees it too.
    let events = Event::parse_jsonl(&tel.trace_jsonl()).expect("export parses");
    let offline = SpanReport::from_parsed(&events);
    assert_eq!(offline.truncated_events, tel.trace_overwritten());
}
