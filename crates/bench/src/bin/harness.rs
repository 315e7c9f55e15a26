//! The experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p ct-bench --bin harness [t1|e2|e3|e4|e5|t2|x1|x2|x3|x4|x5|x6|x7|x8|x9|x10|x11|x12|x13|x14|all]
//! cargo run --release -p ct-bench --bin harness x8 [budget_kib]
//! cargo run --release -p ct-bench --bin harness x13 [--assoc N] [--batch M]
//! cargo run --release -p ct-bench --bin harness x14 [--assoc N] [--batch M] [--adus K]
//! ```
//!
//! Each experiment prints the paper's reference numbers next to the
//! measurements from this implementation; EXPERIMENTS.md records a captured
//! run. CPU-cost experiments (T1, E2, E3, E5, T2, X2, X5) use wall-clock
//! time of release-mode kernels; protocol-dynamics experiments (E4 partly,
//! X1, X3, X4) use the deterministic simulator's virtual clock.

use alf_core::adu::AduName;
use alf_core::driver::{
    run_alf_transfer, run_alf_transfer_scenario, seq_workload, workload_payload, ScenarioOpts,
    Substrate,
};
use alf_core::pipeline::canonical_receive_chain;
use alf_core::transport::{AduTransport, AlfConfig, RecoveryMode};
use ct_apps::parallel::{
    consume_batch, for_each_record, serialize_stream, shard_workload, StreamResplitter,
};
use ct_bench::{
    byte_workload, fmt_f, time_mbps, time_ns_per_call, u32_workload, Table, ALF_CONTROL_STEPS,
};
use ct_netsim::drive::Pair;
use ct_netsim::fault::{FaultConfig, MutatorConfig};
use ct_netsim::link::LinkConfig;
use ct_netsim::net::Network;
use ct_netsim::time::{SimDuration, SimTime};
use ct_presentation::{ber, fused as pfused, lwts, xdr, TransferSyntax};
use ct_telemetry::span::{stream_stall_summary, stream_stalls, SpanReport};
use ct_telemetry::{Event, Telemetry, TouchLedger};
use ct_transport::segment::Segment;
use ct_transport::stack::{
    run_layered_transfer, run_layered_transfer_telemetry, Record, StackConfig,
};
use ct_transport::stream::{StreamConfig, StreamTransport};
use ct_transport::{run_transfer, run_transfer_telemetry, TransferReport};
use ct_wire::checksum::{
    adler32, crc32, fletcher32, internet_checksum, internet_checksum_unrolled,
};
use ct_wire::copy::CopyKind;
use ct_wire::fused::copy_and_checksum;
use ct_wire::serial_effective_mbps;

/// The paper's "typical large packet today": 4000 bytes.
const PACKET_BYTES: usize = 4000;

const EXPERIMENTS: &[&str] = &[
    "t1", "e2", "e3", "e4", "e5", "t2", "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9",
    "x10", "x11", "x12", "x13", "x14",
];

/// Parse the shared `[--assoc N] [--batch M] [--adus K]` smoke-override
/// tail used by the cluster experiments (x13, x14). `exp` names the
/// experiment for error messages.
fn cluster_overrides(exp: &str) -> (Option<usize>, Option<usize>, Option<usize>) {
    let (mut assoc, mut batch, mut adus) = (None, None, None);
    let mut args = std::env::args().skip(2);
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--assoc" => &mut assoc,
            "--batch" => &mut batch,
            "--adus" => &mut adus,
            other => {
                eprintln!(
                    "{exp}: unknown argument '{other}' — expected \
                     `harness {exp} [--assoc N] [--batch M] [--adus K]`"
                );
                std::process::exit(2);
            }
        };
        *slot = match args.next().as_deref().map(str::parse::<usize>) {
            Some(Ok(n)) if n > 0 => Some(n),
            got => {
                eprintln!(
                    "{exp}: bad value for {flag} ({got:?}) — expected a \
                     positive count, e.g. `harness {exp} --assoc 512`"
                );
                std::process::exit(2);
            }
        };
    }
    (assoc, batch, adus)
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let all = which == "all";
    if !all && !EXPERIMENTS.contains(&which.as_str()) {
        eprintln!(
            "unknown experiment '{which}'; expected 'all' or one of: {}",
            EXPERIMENTS.join(", ")
        );
        std::process::exit(2);
    }
    if all || which == "t1" {
        t1_kernels();
    }
    if all || which == "e2" {
        e2_fusion();
    }
    if all || which == "e3" {
        e3_presentation();
    }
    if all || which == "e4" {
        e4_stack();
    }
    if all || which == "e5" {
        e5_convert_checksum();
    }
    if all || which == "t2" {
        t2_control_vs_manipulation();
    }
    if all || which == "x1" {
        x1_head_of_line();
    }
    if all || which == "x2" {
        x2_ilp_stages();
    }
    if all || which == "x3" {
        x3_atm();
    }
    if all || which == "x4" {
        x4_recovery_modes();
    }
    if all || which == "x5" {
        x5_parallel_sink();
    }
    if all || which == "x6" {
        x6_fec();
    }
    if all || which == "x7" {
        x7_adaptive_control();
    }
    if all || which == "x8" {
        // `harness x8 [budget_kib]`: optional receive-budget override.
        let budget_kib = match std::env::args().nth(2) {
            None => 64,
            Some(_) if which != "x8" => 64,
            Some(s) => match s.parse::<usize>() {
                Ok(k) if k > 0 => k,
                _ => {
                    eprintln!(
                        "x8: bad budget '{s}' — expected a positive receive \
                         budget in KiB, e.g. `harness x8 64`"
                    );
                    std::process::exit(2);
                }
            },
        };
        x8_robustness(budget_kib);
    }
    if all || which == "x9" {
        x9_telemetry();
    }
    if all || which == "x10" {
        x10_zero_copy();
    }
    if all || which == "x11" {
        x11_lifecycle_spans();
    }
    if all || which == "x12" {
        x12_hostile_wire();
    }
    if all || which == "x13" {
        // `harness x13 [--assoc N] [--batch M] [--adus K]`: smoke
        // overrides — run one small point instead of the full 1 → 1k →
        // 100k sweep (and leave the committed BENCH_x13.json baseline
        // alone).
        let (assoc, batch, adus) = if which == "x13" {
            cluster_overrides("x13")
        } else {
            (None, None, None)
        };
        x13_many_assoc(assoc, batch, adus);
    }
    if all || which == "x14" {
        // Same smoke-override shape as x13: a small armed point instead
        // of the full 100k overhead comparison.
        let (assoc, batch, adus) = if which == "x14" {
            cluster_overrides("x14")
        } else {
            (None, None, None)
        };
        x14_observability(assoc, batch, adus);
    }
}

fn heading(id: &str, title: &str, paper: &str) {
    println!("\n=== {id}: {title} ===");
    println!("paper: {paper}\n");
}

// ---------------------------------------------------------------------
// T1 — Table 1: copy and checksum speeds
// ---------------------------------------------------------------------

fn t1_kernels() {
    heading(
        "T1",
        "manipulation kernel speeds (Table 1)",
        "uVax copy 42 / checksum 60 Mb/s; R2000 copy 130 / checksum 115 Mb/s \
         — both memory-bound, same order of magnitude",
    );
    let src = byte_workload(PACKET_BYTES);
    let mut dst = vec![0u8; PACKET_BYTES];

    let mut t = Table::new(&["kernel", "Mb/s"]);
    for kind in [
        CopyKind::Memcpy,
        CopyKind::ByteRolled,
        CopyKind::Word,
        CopyKind::WordUnrolled,
    ] {
        let rate = time_mbps(PACKET_BYTES, || kind.run(&src, &mut dst));
        t.row(&[format!("copy/{}", kind.name()), fmt_f(rate)]);
    }
    let r = time_mbps(PACKET_BYTES, || {
        std::hint::black_box(internet_checksum(&src));
    });
    t.row(&["checksum/internet (wide lanes)".into(), fmt_f(r)]);
    let r = time_mbps(PACKET_BYTES, || {
        std::hint::black_box(internet_checksum_unrolled(&src));
    });
    t.row(&["checksum/internet-unrolled-4".into(), fmt_f(r)]);
    let r = time_mbps(PACKET_BYTES, || {
        std::hint::black_box(fletcher32(&src));
    });
    t.row(&["checksum/fletcher32".into(), fmt_f(r)]);
    let r = time_mbps(PACKET_BYTES, || {
        std::hint::black_box(adler32(&src));
    });
    t.row(&["checksum/adler32".into(), fmt_f(r)]);
    let r = time_mbps(PACKET_BYTES, || {
        std::hint::black_box(crc32(&src));
    });
    t.row(&["checksum/crc32".into(), fmt_f(r)]);
    print!("{}", t.render());
}

// ---------------------------------------------------------------------
// E2 — fused copy+checksum vs serial passes
// ---------------------------------------------------------------------

fn e2_fusion() {
    heading(
        "E2",
        "ILP fusion: copy+checksum in one pass (S4)",
        "copy 130, checksum 115 => serial-effective ~60 Mb/s; fused loop 90 Mb/s (1.5x)",
    );
    // The fusion win is a *memory-pass* win: on a 1990 RISC every pass paid
    // DRAM cost; on a modern CPU a 4 kB packet lives in L1 and extra passes
    // are nearly free. Sweeping the working-set size recreates the paper's
    // regime at the bottom rows (buffers past the LLC).
    let mut t = Table::new(&[
        "working set",
        "memcpy",
        "checksum",
        "serial eff.",
        "serial meas.",
        "fused",
        "speedup",
    ]);
    for (label, size) in [
        ("4 kB (L1, paper's packet)", PACKET_BYTES),
        ("256 kB (L2)", 256 * 1024),
        ("8 MB (LLC)", 8 * 1024 * 1024),
        ("128 MB (DRAM)", 128 * 1024 * 1024),
    ] {
        let src = byte_workload(size);
        let mut dst = vec![0u8; size];
        // Both sides run the production kernels: `memcpy` (this row's
        // roofline) and the wide-lane checksum, serially or fused.
        let copy = time_mbps(size, || ct_wire::copy::copy_bytes(&src, &mut dst));
        let cksum = time_mbps(size, || {
            std::hint::black_box(internet_checksum(&src));
        });
        let serial_measured = time_mbps(size, || {
            ct_wire::copy::copy_bytes(&src, &mut dst);
            std::hint::black_box(internet_checksum(&dst));
        });
        let fused = time_mbps(size, || {
            std::hint::black_box(copy_and_checksum(&src, &mut dst));
        });
        t.row(&[
            label.into(),
            fmt_f(copy),
            fmt_f(cksum),
            fmt_f(serial_effective_mbps(copy, cksum)),
            fmt_f(serial_measured),
            fmt_f(fused),
            format!("{}x", fmt_f(fused / serial_measured)),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nAll rates in Mb/s. 'serial eff.' is the paper's 1/(1/copy + 1/checksum)\n\
         arithmetic; 'speedup' is fused vs serial-measured. The paper's 1.5x\n\
         appears where the working set no longer fits in cache."
    );
}

// ---------------------------------------------------------------------
// E3 — presentation conversion vs copy
// ---------------------------------------------------------------------

fn e3_presentation() {
    heading(
        "E3",
        "presentation conversion cost (S4)",
        "R2000: word copy 130 Mb/s vs hand-coded ASN.1 integer-array \
         conversion 28 Mb/s — a factor of 4-5",
    );
    let ints = u32_workload(PACKET_BYTES / 4);
    let app_bytes = ints.len() * 4;
    let src = byte_workload(PACKET_BYTES);
    let mut dst = vec![0u8; PACKET_BYTES];

    let copy = time_mbps(app_bytes, || {
        ct_wire::copy::copy_words_unrolled(&src, &mut dst)
    });
    let ber_wire = ber::encode_u32_array(&ints);
    let xdr_wire = xdr::encode_u32_array(&ints);
    let lwts_wire = lwts::encode_u32_array(&ints);

    let mut t = Table::new(&["conversion", "Mb/s", "vs copy"]);
    t.row(&["word copy (baseline)".into(), fmt_f(copy), "1.0x".into()]);
    let mut add = |name: &str, rate: f64| {
        t.row(&[name.into(), fmt_f(rate), format!("{}x", fmt_f(copy / rate))]);
    };
    add(
        "BER encode (int array)",
        time_mbps(app_bytes, || {
            std::hint::black_box(ber::encode_u32_array(&ints));
        }),
    );
    add(
        "BER decode (int array)",
        time_mbps(app_bytes, || {
            std::hint::black_box(ber::decode_u32_array(&ber_wire).unwrap());
        }),
    );
    add(
        "XDR encode",
        time_mbps(app_bytes, || {
            std::hint::black_box(xdr::encode_u32_array(&ints));
        }),
    );
    add(
        "XDR decode",
        time_mbps(app_bytes, || {
            std::hint::black_box(xdr::decode_u32_array(&xdr_wire).unwrap());
        }),
    );
    add(
        "LWTS encode",
        time_mbps(app_bytes, || {
            std::hint::black_box(lwts::encode_u32_array(&ints));
        }),
    );
    add(
        "LWTS decode",
        time_mbps(app_bytes, || {
            std::hint::black_box(lwts::decode_u32_array(&lwts_wire).unwrap());
        }),
    );
    print!("{}", t.render());
}

// ---------------------------------------------------------------------
// E4 — full layered stack: presentation dominates
// ---------------------------------------------------------------------

fn e4_stack() {
    heading(
        "E4",
        "full layered stack, OCTET STRING vs INTEGER array (S4)",
        "TCP+ISODE: ~97% of stack overhead attributable to presentation; \
         conversion-intensive case ~30x slower",
    );
    let n_records = 40;
    let ints_per_record = 8000; // 32 kB of application data per record
    let octets: Vec<Record> = (0..n_records)
        .map(|i| Record::Octets(byte_workload(ints_per_record * 4 + i)))
        .collect();
    let int_arrays: Vec<Record> = (0..n_records)
        .map(|_| Record::U32Array(u32_workload(ints_per_record)))
        .collect();

    let base = run_layered_transfer(
        11,
        LinkConfig::gigabit(),
        FaultConfig::none(),
        StackConfig {
            syntax: TransferSyntax::Ber,
            ..StackConfig::default()
        },
        &octets,
    );
    let conv = run_layered_transfer(
        11,
        LinkConfig::gigabit(),
        FaultConfig::none(),
        StackConfig {
            syntax: TransferSyntax::Ber,
            ..StackConfig::default()
        },
        &int_arrays,
    );
    // The paper's other data point: its hand-coded conversion routine
    // (4-5x vs copy) — our tuned array fast path plays that role.
    let tuned = run_layered_transfer(
        11,
        LinkConfig::gigabit(),
        FaultConfig::none(),
        StackConfig {
            syntax: TransferSyntax::Ber,
            generic_presentation: false,
            ..StackConfig::default()
        },
        &int_arrays,
    );
    assert!(
        base.complete && conv.complete && tuned.complete,
        "stack runs must complete"
    );

    let mut t = Table::new(&[
        "workload",
        "stack CPU Mb/s",
        "presentation %",
        "crypto %",
        "transport %",
    ]);
    for (name, rep) in [
        ("OCTET STRING (no conversion)", &base),
        ("INTEGER array (generic BER)", &conv),
        ("INTEGER array (hand-tuned BER)", &tuned),
    ] {
        let total = rep.times.total();
        t.row(&[
            name.into(),
            fmt_f(rep.cpu_mbps),
            format!("{:.1}%", 100.0 * rep.times.presentation / total),
            format!("{:.1}%", 100.0 * rep.times.crypto / total),
            format!("{:.1}%", 100.0 * rep.times.transport / total),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nconversion-intensive slowdown: generic {}x, hand-tuned {}x \
         (paper's range: ~30x untuned ISODE ... 4-5x hand-coded)",
        fmt_f(base.cpu_mbps / conv.cpu_mbps),
        fmt_f(base.cpu_mbps / tuned.cpu_mbps),
    );
    println!(
        "presentation share of conversion-intensive stack: {:.1}% (paper: ~97% untuned)",
        100.0 * conv.times.presentation_fraction()
    );
}

// ---------------------------------------------------------------------
// E5 — conversion fused with checksum
// ---------------------------------------------------------------------

fn e5_convert_checksum() {
    heading(
        "E5",
        "conversion fused with checksum (S4)",
        "BER conversion alone 28 Mb/s; conversion+checksum in one step 24 Mb/s \
         (~14% slower, i.e. integrity nearly free once the bytes are hot)",
    );
    let ints = u32_workload(PACKET_BYTES / 4);
    let app_bytes = ints.len() * 4;

    let mut t = Table::new(&["configuration", "Mb/s", "slowdown"]);
    let mut pair = |name: &str, alone: f64, fused: f64| {
        t.row(&[format!("{name} alone"), fmt_f(alone), String::new()]);
        t.row(&[
            format!("{name} + checksum fused"),
            fmt_f(fused),
            format!("{:.1}%", 100.0 * (1.0 - fused / alone)),
        ]);
    };

    let ber_alone = time_mbps(app_bytes, || {
        std::hint::black_box(ber::encode_u32_array(&ints));
    });
    let ber_fused = time_mbps(app_bytes, || {
        std::hint::black_box(pfused::ber_encode_u32s_checksummed(&ints));
    });
    pair("BER encode", ber_alone, ber_fused);

    let xdr_alone = time_mbps(app_bytes, || {
        std::hint::black_box(xdr::encode_u32_array(&ints));
    });
    let xdr_fused = time_mbps(app_bytes, || {
        std::hint::black_box(pfused::xdr_encode_u32s_checksummed(&ints));
    });
    pair("XDR encode", xdr_alone, xdr_fused);

    // The layered alternative: conversion pass then a separate checksum pass.
    let ber_two_pass = time_mbps(app_bytes, || {
        let wire = ber::encode_u32_array(&ints);
        std::hint::black_box(internet_checksum(&wire));
    });
    t.row(&[
        "BER encode, separate checksum pass".into(),
        fmt_f(ber_two_pass),
        format!("{:.1}%", 100.0 * (1.0 - ber_two_pass / ber_alone)),
    ]);
    print!("{}", t.render());
}

// ---------------------------------------------------------------------
// T2 — control cost vs manipulation cost
// ---------------------------------------------------------------------

fn t2_control_vs_manipulation() {
    heading(
        "T2",
        "in-band control vs data manipulation (S4)",
        "control path lengths are tens of instructions; manipulation touches \
         1000 words per 4000-byte packet — manipulation dominates",
    );
    // Control path: a receiver processing one pure ACK (no payload).
    let mut sender = StreamTransport::new(StreamConfig::default(), 1, 2);
    sender.send(&byte_workload(1400));
    let _ = sender.poll(ct_netsim::time::SimTime::ZERO);
    let ack = Segment {
        src_port: 2,
        dst_port: 1,
        seq: 0,
        ack: 0, // duplicate ack of nothing: cheapest valid control input
        flags: ct_transport::segment::FLAG_ACK,
        window: 65535,
        payload: vec![].into(),
    }
    .encode();
    // The frame is built once; each timed call ingests a clone of the view
    // (a reference-count increment, no allocation).
    let ack = ct_wire::WireBuf::from(ack);
    let ack_ns = time_ns_per_call(|| {
        sender.on_frame(ct_netsim::time::SimTime::ZERO, ack.clone());
    });
    // The ACK segment itself is checksummed on arrival (30 bytes); subtract
    // nothing — report both raw and header-checksum-free figures.
    let hdr_ck_ns = time_ns_per_call(|| {
        std::hint::black_box(internet_checksum(&ack));
    });

    // Manipulation path: checksum + copy of a 4000-byte packet.
    let src = byte_workload(PACKET_BYTES);
    let mut dst = vec![0u8; PACKET_BYTES];
    let manip_ns = time_ns_per_call(|| {
        std::hint::black_box(copy_and_checksum(&src, &mut dst));
    });

    let mut t = Table::new(&["operation", "ns/packet", "allocs", "manip/control"]);
    let vs = |ns: f64| format!("{}x", fmt_f(manip_ns / ns));
    t.row(&[
        "stream: process pure ACK".into(),
        fmt_f(ack_ns),
        "0".into(),
        vs(ack_ns),
    ]);
    t.row(&[
        "  (of which 30-byte header checksum)".into(),
        fmt_f(hdr_ck_ns),
        "".into(),
        "".into(),
    ]);
    // The same question asked of the transport the paper proposes.
    for ((step, allocs), ns) in ALF_CONTROL_STEPS.iter().zip(t2_alf_control_steps()) {
        t.row(&[step.to_string(), fmt_f(ns), allocs.to_string(), vs(ns)]);
    }
    t.row(&[
        format!("data manipulation: copy+checksum {PACKET_BYTES} B"),
        fmt_f(manip_ns),
        "0".into(),
        "".into(),
    ]);
    print!("{}", t.render());
    println!(
        "\nmanipulation / control ratio on the stream's pure ACK: {}x (paper: 'tens of \
         instructions' vs 'thousands of memory cycles'). The ALF rows are whole API \
         calls — decode, checksum verify, window/assembler/timer update, and the \
         allocations the owned-frame API forces — so they sit nearer the packet's \
         copy+checksum than the stream's bare ACK does; allocation counts are pinned \
         by tests/alloc_budget.rs.",
        fmt_f(manip_ns / ack_ns)
    );
}

/// Nanoseconds for each [`ALF_CONTROL_STEPS`] entry. A few warm
/// associations each carry one 200-byte ADU at a time (`send_adu` → poll →
/// ingest → poll → ingest ACK → `recv_adu`); a step is clocked across all
/// of them at once, so the clock's own cost is spread over `PAIRS` calls.
/// The idle poll repeats without changing state and is timed in a plain
/// loop.
fn t2_alf_control_steps() -> [f64; 4] {
    use std::time::{Duration, Instant};
    const PAIRS: usize = 16;
    fn timed(slot: &mut Duration, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        *slot += t.elapsed();
    }
    let now = SimTime::ZERO;
    let mut pairs: Vec<_> = (0..PAIRS)
        .map(|_| {
            let cfg = AlfConfig::default();
            (AduTransport::new(cfg), AduTransport::new(cfg))
        })
        .collect();
    let payload = ct_wire::WireBuf::from_vec(byte_workload(200));
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(PAIRS);
    let [mut ingest_tu, mut ingest_ack, mut emit] = [Duration::ZERO; 3];
    let mut rounds = 0u64;
    let start = Instant::now();
    while start.elapsed() < 3 * ct_bench::MEASURE_WINDOW {
        for (a, _) in &mut pairs {
            a.send_adu(AduName::Seq { index: rounds }, payload.clone())
                .expect("one ADU outstanding");
        }
        timed(&mut emit, || {
            frames.extend(pairs.iter_mut().flat_map(|(a, _)| a.poll(now)));
        });
        assert_eq!(frames.len(), PAIRS, "one TU per association");
        timed(&mut ingest_tu, || {
            for ((_, b), tu) in pairs.iter_mut().zip(frames.drain(..)) {
                b.on_frame(now, tu.into());
            }
        });
        frames.extend(pairs.iter_mut().flat_map(|(_, b)| b.poll(now)));
        assert_eq!(frames.len(), PAIRS, "one ACK per association");
        timed(&mut ingest_ack, || {
            for ((a, _), ack) in pairs.iter_mut().zip(frames.drain(..)) {
                a.on_frame(now, ack.into());
            }
        });
        for (a, b) in &mut pairs {
            assert!(b.recv_adu().is_some() && a.send_complete());
        }
        rounds += 1;
    }
    let per = |total: Duration| total.as_nanos() as f64 / (rounds * PAIRS as u64) as f64;
    let idle = time_ns_per_call(|| {
        std::hint::black_box(pairs[0].0.poll(now));
    });
    [per(ingest_tu), per(ingest_ack), per(emit), idle]
}

// ---------------------------------------------------------------------
// X1 — head-of-line blocking: layered stream vs ALF
// ---------------------------------------------------------------------

fn x1_head_of_line() {
    heading(
        "X1",
        "head-of-line blocking under loss: byte stream vs ALF (S5)",
        "qualitative claim: 'a lost packet stops the application from \
         performing presentation conversion'; ALF's out-of-order ADUs keep \
         the pipeline busy",
    );
    let adu_bytes = 4000;
    let n_adus = 250;
    let stream_payload = byte_workload(adu_bytes * n_adus);
    let adus = seq_workload(n_adus, adu_bytes);

    let mut t = Table::new(&[
        "loss",
        "TCP time",
        "TCP HOL total",
        "TCP HOL max",
        "ALF time",
        "ALF lat max",
        "ALF ooo",
    ]);
    for loss_pct in [0.0, 1.0, 2.0, 5.0, 10.0] {
        let faults = FaultConfig::loss(loss_pct / 100.0);
        let tcp: TransferReport = run_transfer(
            100 + loss_pct as u64,
            LinkConfig::lan(),
            faults,
            StreamConfig::default(),
            &stream_payload,
        );
        let alf = run_alf_transfer(
            100 + loss_pct as u64,
            LinkConfig::lan(),
            faults,
            AlfConfig {
                // Timers scaled to the LAN RTT (~0.3 ms), as TCP's RTT
                // estimator does automatically.
                retransmit_timeout: SimDuration::from_millis(5),
                assembly_timeout: SimDuration::from_millis(2),
                ..AlfConfig::default()
            },
            Substrate::Packet,
            &adus,
            None,
        );
        assert!(tcp.complete, "tcp must complete at {loss_pct}%");
        assert!(
            alf.complete && alf.verified,
            "alf must complete at {loss_pct}%"
        );
        // `complete` counts an ADU reported lost as accounted for; here
        // every one must arrive, or "ALF time" is not a transfer time.
        assert_eq!(alf.sender.adus_given_up, 0, "at {loss_pct}%");
        t.row(&[
            format!("{loss_pct}%"),
            format!("{}", tcp.elapsed),
            format!("{}", tcp.receiver.hol_delay_total),
            format!("{}", tcp.receiver.hol_delay_max),
            format!("{}", alf.elapsed),
            format!("{}", alf.latency_max),
            format!("{}", alf.receiver.adus_delivered_out_of_order),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nTCP 'HOL' columns: total/max time in-order delivery stalled behind a gap.\n\
         ALF 'lat max': worst single-ADU completion latency — it includes that ADU's\n\
         own repair time but never the recovery of unrelated data. 'ooo': ADUs\n\
         delivered out of order (each would have been a stall in the byte stream)."
    );
}

// ---------------------------------------------------------------------
// X2 — ILP gain vs number of stages
// ---------------------------------------------------------------------

fn x2_ilp_stages() {
    heading(
        "X2",
        "integrated vs layered execution as stages accumulate (S6)",
        "'an integrated processing loop is more efficient than several \
         separate steps which read the data from memory, possibly convert \
         it, and write it again' — the gap should grow with stage count",
    );
    // Like E2, the gain is a memory-pass gain: a 4 kB packet stays in L1
    // through every layered pass, so integration has little to save; a
    // record past L1 makes each layered pass a trip to L2 or DRAM while
    // the integrated tile stays cache-resident.
    let mut t = Table::new(&[
        "working set",
        "stages",
        "layered Mb/s",
        "integrated Mb/s",
        "speedup",
    ]);
    for (label, size) in [
        ("4 kB", PACKET_BYTES),
        ("64 kB", 64 * 1024),
        ("8 MB", 8 * 1024 * 1024),
    ] {
        let input = byte_workload(size);
        for n in 1..=4 {
            let p = canonical_receive_chain(n, 0xC1A);
            let lay = time_mbps(size, || {
                std::hint::black_box(p.run_layered(&input));
            });
            let int = time_mbps(size, || {
                std::hint::black_box(p.run_integrated(&input));
            });
            let names: Vec<&str> = p.stages().iter().map(|s| s.name()).collect();
            t.row(&[
                label.into(),
                format!("{n}: {}", names.join("+")),
                fmt_f(lay),
                fmt_f(int),
                format!("{}x", fmt_f(int / lay)),
            ]);
        }
    }
    print!("{}", t.render());

    // Where the multi-stage rows get their speed: `bulk_pair`'s send chain
    // on its 64 KiB record. Run as separate passes over L1-resident tiles
    // the stages' costs *add*; hosted on the keystream pass — which is
    // bound by its multiplies, not by loads and stores — the chain costs
    // about what that one stage does. Best of five windows each: this is a
    // sum of small differences, and noise only ever adds time.
    use alf_core::pipeline::{Manipulation, Pipeline};
    const TILE: usize = 4096;
    let record = byte_workload(64 * 1024);
    let mut out = record.clone();
    let cipher = ct_crypto::stream::XorStream::new(0xC1A);
    let chain = Pipeline::new()
        .stage(Manipulation::Swap32)
        .stage(Manipulation::Xor {
            key: 0xC1A,
            offset: 0,
        })
        .stage(Manipulation::Checksum);
    fn best_ns(mut f: impl FnMut()) -> f64 {
        (0..5)
            .map(|_| time_ns_per_call(&mut f))
            .fold(f64::INFINITY, f64::min)
    }
    let passes = [
        (
            "move",
            best_ns(|| {
                for (s, d) in record.chunks(TILE).zip(out.chunks_mut(TILE)) {
                    std::hint::black_box(d).copy_from_slice(s);
                }
            }),
        ),
        (
            "swap32",
            best_ns(|| {
                for tile in out.chunks_mut(TILE) {
                    ct_wire::swap::swap32_in_place(std::hint::black_box(tile));
                }
            }),
        ),
        (
            "xor",
            best_ns(|| {
                for tile in out.chunks_mut(TILE) {
                    cipher.apply_in_place(0, std::hint::black_box(tile));
                }
            }),
        ),
        (
            "checksum",
            best_ns(|| {
                for tile in out.chunks(TILE) {
                    std::hint::black_box(internet_checksum(std::hint::black_box(tile)));
                }
            }),
        ),
    ];
    let hosted = best_ns(|| {
        std::hint::black_box(chain.run_integrated(&record));
    });
    let us = |ns: f64| format!("{:.1}", ns / 1000.0);
    let mut t = Table::new(&["swap32+xor+checksum over 64 kB", "us"]);
    for (name, ns) in passes {
        t.row(&[format!("{name} alone, tile by tile"), us(ns)]);
    }
    let sum: f64 = passes.iter().map(|(_, ns)| ns).sum();
    let max = passes.iter().map(|(_, ns)| *ns).fold(0.0, f64::max);
    t.row(&["sum of the four passes".into(), us(sum)]);
    t.row(&["slowest pass".into(), us(max)]);
    t.row(&[
        "run_integrated (allocates its output too)".into(),
        us(hosted),
    ]);
    print!("\n{}", t.render());
}

// ---------------------------------------------------------------------
// X3 — ADUs over ATM cells: loss amplification
// ---------------------------------------------------------------------

fn x3_atm() {
    heading(
        "X3",
        "ADUs over ATM cells: whole-ADU loss from single-cell loss (S5)",
        "48-byte cells (44 net after adaptation) are 'too small a unit ... to \
         permit manipulation operations to be synchronized on each cell'; \
         P[ADU lost] = 1-(1-p)^cells grows with ADU size",
    );
    let mut t = Table::new(&[
        "ADU bytes",
        "cells/ADU",
        "cell loss",
        "predicted ADU survival",
        "measured",
        "goodput Mb/s",
    ]);
    for adu_bytes in [512usize, 4096, 16384] {
        for cell_loss in [0.0001, 0.001, 0.01] {
            let n_adus = 120;
            let adus = seq_workload(n_adus, adu_bytes);
            let cfg = AlfConfig {
                recovery: RecoveryMode::NoRetransmit,
                assembly_timeout: SimDuration::from_millis(20),
                mtu_payload: 1400,
                ..AlfConfig::default()
            };
            let r = run_alf_transfer(
                (adu_bytes + (cell_loss * 1e6) as usize) as u64,
                LinkConfig::gigabit(),
                FaultConfig::loss(cell_loss),
                cfg,
                Substrate::Atm,
                &adus,
                None,
            );
            assert!(r.verified);
            // Cells per ADU: each TU of <=1400+34 B becomes cells.
            let tus = adu_bytes.div_ceil(1400).max(1);
            let full_tus = adu_bytes / 1400;
            let tail = adu_bytes - full_tus * 1400;
            let mut cells = full_tus * ct_netsim::atm::cells_for(1400 + 34);
            if tail > 0 || full_tus == 0 {
                cells += ct_netsim::atm::cells_for(tail + 34);
            }
            let predicted = (1.0 - cell_loss).powi(cells as i32);
            let measured = r.adus_delivered as f64 / n_adus as f64;
            t.row(&[
                format!("{adu_bytes}"),
                format!("{cells} ({tus} TU)"),
                format!("{cell_loss}"),
                format!("{:.3}", predicted),
                format!("{:.3}", measured),
                fmt_f(r.goodput_mbps),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "\nWith retransmission (TransportBuffer) the same cell-loss rates deliver 100%\n\
         at a latency cost; see X4. Framing overhead: 53/44 cell tax plus 34-byte TU\n\
         header per 1400-byte fragment."
    );
}

// ---------------------------------------------------------------------
// X4 — the three recovery modes
// ---------------------------------------------------------------------

fn x4_recovery_modes() {
    heading(
        "X4",
        "loss recovery: sender buffering vs app recompute vs none (S5)",
        "'A general purpose data transfer protocol ought to permit any of \
         these options to be selected' — each has a distinct cost signature",
    );
    let adu_bytes = 4000;
    let n_adus = 150;
    let adus = seq_workload(n_adus, adu_bytes);
    let oracle = move |name: AduName| match name {
        AduName::Seq { index } => workload_payload(index, adu_bytes),
        _ => unreachable!(),
    };
    let mut t = Table::new(&[
        "mode",
        "delivered",
        "time",
        "sender buffer peak",
        "whole retx",
        "selective TUs",
        "probes",
        "recompute reqs",
    ]);
    for (name, mode) in [
        ("TransportBuffer", RecoveryMode::TransportBuffer),
        ("AppRecompute", RecoveryMode::AppRecompute),
        ("NoRetransmit", RecoveryMode::NoRetransmit),
    ] {
        let cfg = AlfConfig {
            recovery: mode,
            assembly_timeout: SimDuration::from_millis(10),
            ..AlfConfig::default()
        };
        let r = run_alf_transfer(
            777,
            LinkConfig::lan(),
            FaultConfig::loss(0.02),
            cfg,
            Substrate::Packet,
            &adus,
            Some(&oracle),
        );
        assert!(r.verified, "{name}");
        t.row(&[
            name.into(),
            format!("{}/{}", r.adus_delivered, n_adus),
            format!("{}", r.elapsed),
            format!("{} B", r.sender_buffer_peak),
            format!("{}", r.sender.adus_retransmitted),
            format!("{}", r.sender.tus_retransmitted_selective),
            format!("{}", r.sender.probe_tus),
            format!("{}", r.sender.recompute_requests),
        ]);
    }
    print!("{}", t.render());
}

// ---------------------------------------------------------------------
// X5 — parallel-processor delivery
// ---------------------------------------------------------------------

fn x5_parallel_sink() {
    heading(
        "X5",
        "parallel-processor delivery: self-routing ADUs vs stream resplit (S7)",
        "'lacking such a [hot] spot, there is no place to connect a high-speed \
         serial network' — the stream splitter is that hot spot; ADUs remove it",
    );
    let units_per_shard = 256;
    let unit_bytes = 8192;
    let mut t = Table::new(&[
        "shards",
        "ALF direct Mb/s",
        "split+parallel Mb/s",
        "fully serial Mb/s",
        "ALF advantage",
    ]);
    for shards in [1u16, 2, 4, 8] {
        let adus = shard_workload(shards, units_per_shard, unit_bytes);
        let total_bytes: usize = adus.iter().map(|a| a.payload.len()).sum();
        let stream = serialize_stream(&adus);

        // The ALF property: the *network* already delivered each ADU to its
        // shard (the name controlled its delivery), so partitioning is not
        // part of the receive path. Build the per-shard views once, then
        // measure the shards consuming in parallel.
        let mut partitioned: Vec<Vec<(u32, &[u8])>> = vec![Vec::new(); shards as usize];
        for adu in &adus {
            if let AduName::Shard { shard, index } = adu.name {
                partitioned[shard as usize].push((index, adu.payload.as_slice()));
            }
        }
        let alf_rate = time_mbps(total_bytes, || {
            std::thread::scope(|scope| {
                for part in &partitioned {
                    scope.spawn(move || {
                        std::hint::black_box(consume_batch(part.iter().copied()).digest);
                    });
                }
            });
        });

        // Byte-stream with the best engineering available to it: one serial
        // splitter parses every header and copies every body into per-shard
        // queues, then the shards consume in parallel. The splitter is the
        // aggregate-rate hot spot.
        let split_parallel_rate = time_mbps(total_bytes, || {
            let mut queues: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); shards as usize];
            for_each_record(&stream, |shard, index, body| {
                queues[shard as usize].push((index, body.to_vec()));
            });
            std::thread::scope(|scope| {
                for q in &queues {
                    scope.spawn(move || {
                        std::hint::black_box(
                            consume_batch(q.iter().map(|(i, b)| (*i, b.as_slice()))).digest,
                        );
                    });
                }
            });
        });

        // And the naive fully serial resplit.
        let serial_rate = time_mbps(total_bytes, || {
            let mut splitter = StreamResplitter::new(shards as usize);
            splitter.ingest_stream(&stream);
            std::hint::black_box(splitter.sink().total_bytes());
        });

        t.row(&[
            format!("{shards}"),
            fmt_f(alf_rate),
            fmt_f(split_parallel_rate),
            fmt_f(serial_rate),
            format!("{}x", fmt_f(alf_rate / split_parallel_rate)),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nALF: the network delivered each self-routing ADU to its shard; shards\n\
         consume in parallel with no shared stage. split+parallel: a serial splitter\n\
         parses and copies every record before parallel consumption — its throughput\n\
         ceiling is the splitter. fully serial: parse and consume on one core."
    );
}

// ---------------------------------------------------------------------
// X6 — ADU-level FEC ablation
// ---------------------------------------------------------------------

fn x6_fec() {
    heading(
        "X6",
        "ADU-level FEC: parity vs retransmission vs nothing (S5 fn.10)",
        "'lower layer recovery schemes, such as forward error correction (FEC), \
         may be applied to these transmission units ... ADU-level FEC' — parity \
         trades constant wire overhead for loss repair without a round trip",
    );
    let n_adus = 200;
    let adu_bytes = 8400; // 6 TUs at the default MTU
    let adus = seq_workload(n_adus, adu_bytes);
    let mut t = Table::new(&[
        "loss",
        "FEC group",
        "delivered",
        "wire TUs",
        "reconstructions",
        "latency mean",
    ]);
    for loss in [0.01, 0.03, 0.05] {
        for fec_group in [0usize, 8, 4, 2] {
            let r = run_alf_transfer(
                600 + (loss * 1000.0) as u64,
                LinkConfig::lan(),
                FaultConfig::loss(loss),
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
            t.row(&[
                format!("{}%", loss * 100.0),
                if fec_group == 0 {
                    "off".into()
                } else {
                    format!("1/{fec_group}")
                },
                format!("{}/{}", r.adus_delivered, n_adus),
                format!("{}", r.sender.tus_sent),
                format!("{}", r.receiver.fec_reconstructions),
                format!("{}", r.latency_mean),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "\nNo-retransmission (real-time) flows: FEC group 1/k adds k-th parity\n\
         overhead ('wire TUs') and repairs single-erasure groups in place —\n\
         delivery climbs toward 100% without any retransmission round trip."
    );
}

// ---------------------------------------------------------------------
// X7 — adaptive transfer control vs fixed timers
// ---------------------------------------------------------------------

fn x7_adaptive_control() {
    heading(
        "X7",
        "adaptive transfer control: RTT-driven RTO + AIMD window + rate pacing (S3)",
        "'the flow control mechanism of the next generation of protocol should be \
         rate based' with transmission control 'computed out-of-band' — here the \
         out-of-band controller is driven by ACK timestamp echoes: Jacobson/Karels \
         RTO, an ADU-unit congestion window, and pacing at the measured delivery rate",
    );
    let n_adus = 200;
    let adu_bytes = 1400; // one TU per ADU
    let adus = seq_workload(n_adus, adu_bytes);
    // The token bucket passes 4 frames per 10 ms: 400 × 1400 B/s of payload.
    let bottleneck_mbps = 400.0 * adu_bytes as f64 * 8.0 / 1e6;
    let scenarios: [(&str, FaultConfig); 3] = [
        ("clean", FaultConfig::none()),
        ("loss 1%", FaultConfig::loss(0.01)),
        (
            "bottleneck 4.48 Mb/s",
            FaultConfig::rate_limited(4, SimDuration::from_millis(10)),
        ),
    ];
    let mut t = Table::new(&[
        "scenario",
        "control",
        "goodput",
        "vs bottleneck",
        "elapsed",
        "retx",
        "srtt",
        "rto",
        "cwnd peak",
        "loss ev",
        "est rate",
    ]);
    for (label, faults) in scenarios {
        for adaptive in [false, true] {
            let r = run_alf_transfer(
                7,
                LinkConfig::lan(),
                faults,
                AlfConfig {
                    adaptive,
                    ..AlfConfig::default()
                },
                Substrate::Packet,
                &adus,
                None,
            );
            assert!(r.complete && r.verified, "{label} adaptive={adaptive}");
            let s = &r.sender;
            let vs = if label.starts_with("bottleneck") {
                format!("{:.0}%", r.goodput_mbps / bottleneck_mbps * 100.0)
            } else {
                "-".into()
            };
            t.row(&[
                label.into(),
                if adaptive {
                    "adaptive".into()
                } else {
                    "fixed 50ms".into()
                },
                format!("{} Mb/s", fmt_f(r.goodput_mbps)),
                vs,
                format!("{}", r.elapsed),
                format!("{}", s.adus_retransmitted),
                if s.rtt_samples > 0 {
                    format!("{:.0}us", s.srtt_us)
                } else {
                    "-".into()
                },
                if s.rto_us > 0.0 {
                    format!("{:.0}us", s.rto_us)
                } else {
                    "50000us".into()
                },
                format!("{:.1}", s.cwnd_peak_adus),
                format!("{}", s.loss_events),
                if s.delivery_rate_mbps > 0.0 {
                    format!("{} Mb/s", fmt_f(s.delivery_rate_mbps))
                } else {
                    "-".into()
                },
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "\nFixed timers blast at link pace and stall 50 ms per loss; the adaptive\n\
         sender measures the RTT from ACK echoes (RTO ~ srtt + 4*rttvar), halves\n\
         its ADU window per loss round, and paces at the delivery rate it actually\n\
         observes — converging to the token-bucket bottleneck from above."
    );
}

// ---------------------------------------------------------------------
// X8 — robustness: partitions, dead peers, receiver flow control
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// X9 — observability: the data-touch ledger and the flight recorder
// ---------------------------------------------------------------------

fn x9_telemetry() {
    heading(
        "X9",
        "observability: memory passes per delivered byte, layered vs integrated",
        "'the throughput of the system is more and more limited by the memory \
         bandwidth' (\u{a7}6) — ct-telemetry's data-touch ledger turns the pass \
         count from an estimate into a measurement, and the flight recorder \
         replaces printf archaeology when a run misbehaves",
    );

    // Part 1: every kernel reports its traversals to the ledger; divide by
    // delivered bytes and the ILP claim becomes a measured number.
    let input: Vec<u8> = (0..64 * 1024)
        .map(|i: usize| (i.wrapping_mul(197) ^ (i >> 3)) as u8)
        .collect();
    let mut t = Table::new(&[
        "stages",
        "layered passes/B",
        "integrated passes/B",
        "layered/integrated",
    ]);
    let mut deepest: Option<TouchLedger> = None;
    for n in 1..=4usize {
        let p = canonical_receive_chain(n, 0xFEED);
        let lay = TouchLedger::new();
        let int = TouchLedger::new();
        let a = p.run_layered_ledgered(&input, &lay);
        let b = p.run_integrated(&input);
        int.touch(
            "pipeline/integrated",
            input.len() as u64,
            b.data.len() as u64,
        );
        assert_eq!(a, b, "the two engineerings must be bit-identical");
        lay.deliver(input.len() as u64);
        int.deliver(input.len() as u64);
        let (lp, ip) = (
            lay.passes_per_delivered_byte(),
            int.passes_per_delivered_byte(),
        );
        assert!(
            ip < lp,
            "integrated must touch strictly fewer bytes at n={n}: {ip} !< {lp}"
        );
        t.row(&[
            format!("{n}"),
            format!("{lp:.3}"),
            format!("{ip:.3}"),
            format!("{:.2}x", lp / ip),
        ]);
        if n == 4 {
            deepest = Some(lay);
        }
    }
    print!("{}", t.render());
    println!(
        "
per-stage ledger of the 4-stage layered chain:"
    );
    println!("{}", deepest.expect("n=4 ran").render());

    // Part 2: a telemetry-enabled ALF run over a lossy link — the registry
    // and the tail of the flight recorder, as a failure dump would show it.
    let tel = Telemetry::with_tracing(256);
    let adus = seq_workload(30, 4000);
    let r = run_alf_transfer_scenario(
        9,
        LinkConfig::lan(),
        FaultConfig::loss(0.03),
        AlfConfig::default(),
        Substrate::Packet,
        &adus,
        None,
        &ScenarioOpts {
            telemetry: Some(tel.clone()),
            ..ScenarioOpts::default()
        },
    );
    assert!(r.complete && r.verified, "telemetry run failed: {r:?}");
    println!("metrics registry after a 30-ADU transfer at 3% loss:");
    print!("{}", tel.metrics().render_text());
    println!(
        "
flight recorder: last 8 of {} events ({} overwritten):",
        tel.trace_len(),
        tel.trace_overwritten()
    );
    print!("{}", tel.trace_dump_last(8));
    println!(
        "
The integrated pass count stays flat at 2 passes per delivered byte\n\
         while the layered chain climbs by 2 per stage: exactly the memory\n\
         traffic \u{a7}6 says dominates. The registry and recorder cost nothing\n\
         when disarmed (the overhead guard in tests/telemetry.rs pins the\n\
         counters-on fast path at a fixed few ns per kernel call)."
    );
}

// ---------------------------------------------------------------------
// X10 — zero-copy datapath: end-to-end memory passes per delivered byte
// ---------------------------------------------------------------------

/// Passes per delivered byte contributed by one ledger stage (0 if the
/// stage never reported — itself a meaningful result for the copy stages
/// the zero-copy datapath eliminates).
fn stage_passes_per_byte(tel: &Telemetry, stage: &str) -> f64 {
    let delivered = tel.ledger().delivered();
    if delivered == 0 {
        return 0.0;
    }
    tel.ledger()
        .stages()
        .iter()
        .find(|s| s.stage == stage)
        .map(|s| (s.reads + s.writes) as f64 / delivered as f64)
        .unwrap_or(0.0)
}

fn x10_zero_copy() {
    heading(
        "X10",
        "zero-copy ADU datapath: end-to-end memory passes per delivered byte",
        "'the flow of data within the end-point should be organized so that the \
         data is touched as few times as possible' (\u{a7}6) — the WireBuf \
         datapath leaves three countable touches: the fused TU encode (one \
         read, one write, checksum folded into the sweep), placement into \
         the ADU's buffer (one read, one write) with the receive checksum \
         folded into it for every TU that continues the placed prefix, and \
         a separate verify read only for the TUs that do not (an ADU's \
         first, a reordered one). An ADU that fits one frame is released as \
         a view of it: verified, never placed. Every touch is booked in the \
         data-touch ledger, so the pass count below is measured, not claimed",
    );

    const ADUS: usize = 40;
    const ADU_BYTES: usize = 8 * 1024;

    // Baseline: the layered stream stack moves every byte once per layer —
    // presentation encode, transport send copy, receive copy, deframe,
    // presentation decode — even with conversion and crypto turned off.
    let tel_lay = Telemetry::new();
    let records: Vec<Record> = (0..ADUS)
        .map(|i| Record::Octets(workload_payload(i as u64, ADU_BYTES)))
        .collect();
    let lay = run_layered_transfer_telemetry(
        11,
        LinkConfig::lan(),
        FaultConfig::none(),
        StackConfig {
            encrypt: false,
            ..StackConfig::default()
        },
        &records,
        Some(&tel_lay),
    );
    assert!(
        lay.complete,
        "layered baseline must complete on a clean link"
    );
    let lay_e2e = tel_lay.ledger().passes_per_delivered_byte();

    let mut t = Table::new(&["path", "send p/B", "verify p/B", "place p/B", "e2e p/B"]);
    t.row(&[
        "layered stream stack".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{lay_e2e:.3}"),
    ]);

    let mut json_rows = vec![format!(
        "    {{\"path\": \"layered\", \"e2e_passes_per_byte\": {lay_e2e:.4}}}"
    )];
    let mut clean_send = f64::NAN;
    let mut clean_e2e = f64::NAN;
    let mut single_frame_place = f64::NAN;
    // 8 KiB ADUs fragment ~6 ways (placement is honest work); 1200-byte ADUs
    // fit one frame and exercise the view-through release.
    for (label, adu_bytes, faults) in [
        ("alf zero-copy, clean", ADU_BYTES, FaultConfig::none()),
        ("alf zero-copy, 3% loss", ADU_BYTES, FaultConfig::loss(0.03)),
        ("alf zero-copy, 1-frame ADUs", 1200, FaultConfig::none()),
    ] {
        let adus = seq_workload(ADUS, adu_bytes);
        let tel = Telemetry::new();
        let r = run_alf_transfer_scenario(
            10,
            LinkConfig::lan(),
            faults,
            AlfConfig::default(),
            Substrate::Packet,
            &adus,
            None,
            &ScenarioOpts {
                telemetry: Some(tel.clone()),
                ..ScenarioOpts::default()
            },
        );
        assert!(r.complete && r.verified, "{label} failed: {r:?}");
        let send = stage_passes_per_byte(&tel, "alf/tu_encode");
        let verify = stage_passes_per_byte(&tel, "alf/verify");
        let place = stage_passes_per_byte(&tel, "alf/place");
        let e2e = tel.ledger().passes_per_delivered_byte();
        if label.ends_with("clean") {
            clean_send = send;
            clean_e2e = e2e;
        }
        if label.ends_with("1-frame ADUs") {
            single_frame_place = place;
        }
        t.row(&[
            label.into(),
            format!("{send:.3}"),
            format!("{verify:.3}"),
            format!("{place:.3}"),
            format!("{e2e:.3}"),
        ]);
        // The key keeps its pre-placement name so the 1-frame row, which
        // neither gathered then nor places now, stays byte-identical.
        json_rows.push(format!(
            "    {{\"path\": \"{label}\", \"send_passes_per_byte\": {send:.4}, \
             \"verify_passes_per_byte\": {verify:.4}, \
             \"gather_passes_per_byte\": {place:.4}, \
             \"e2e_passes_per_byte\": {e2e:.4}}}"
        ));
    }
    print!("{}", t.render());
    // The acceptance bar: a fused send sweep is one read and one write per
    // payload byte — nothing hidden, so clean-link send cost is exactly 2.
    assert!(
        clean_send <= 2.0 + 1e-9,
        "send path must stay at \u{2264} 2 passes/byte with the checksum fused; got {clean_send:.4}"
    );
    assert!(
        clean_e2e < lay_e2e,
        "zero-copy e2e ({clean_e2e:.3}) must beat the layered stack ({lay_e2e:.3})"
    );
    assert_eq!(
        single_frame_place, 0.0,
        "single-frame ADUs must release as views, without a placement pass"
    );

    let json = format!(
        "{{\n  \"experiment\": \"x10\",\n  \"adus\": {ADUS},\n  \"adu_bytes\": {ADU_BYTES},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_x10.json", &json) {
        Ok(()) => println!("\nwrote BENCH_x10.json"),
        Err(e) => eprintln!("\ncould not write BENCH_x10.json: {e}"),
    }
    println!(
        "\nFragmentation slices the ADU without copying and the checksum rides\n\
         the encode sweep. On receive, each TU of a multi-frame ADU is copied\n\
         once into the ADU's buffer, the checksum riding that copy for every\n\
         TU after the first — so verify is the first fragment's share — and\n\
         the buffer is handed over with no gather; an ADU that fits one\n\
         frame is verified where it lies and released as a view into it."
    );
}

fn x8_robustness(budget_kib: usize) {
    heading(
        "X8",
        &format!("robustness: partitions, dead peers, {budget_kib} KiB receive budget (S2, S5)"),
        "'the proper model is ... regions of determinism within the cloud' — the \
         transport must survive the cloud misbehaving: partitions that heal resume \
         from buffered state, partitions that don't surface as an explicit \
         unreachable-peer report, and a memory-limited receiver pushes back through \
         its advertised window instead of silently wedging",
    );
    let budget = budget_kib * 1024;
    let adus = seq_workload(120, 8 * 1024); // ~80 ms unimpeded on the LAN profile
    let base = AlfConfig {
        recovery: RecoveryMode::TransportBuffer,
        max_retries: 30,
        ..AlfConfig::default()
    };
    let burst = FaultConfig::bursty_loss(ct_netsim::fault::GilbertElliott::bursty(0.02, 0.25, 0.7));
    let scenarios: [(&str, FaultConfig, AlfConfig, ScenarioOpts); 5] = [
        ("clean", FaultConfig::none(), base, ScenarioOpts::default()),
        (
            "burst loss ~5% + budget",
            burst,
            AlfConfig {
                reassembly_budget_bytes: budget,
                ..base
            },
            ScenarioOpts::default(),
        ),
        (
            "partition 2s (heals)",
            FaultConfig::none(),
            base,
            ScenarioOpts {
                outages: vec![(SimTime::from_millis(20), SimTime::from_millis(2020))],
                ..ScenarioOpts::default()
            },
        ),
        (
            "partition (never heals)",
            FaultConfig::none(),
            AlfConfig {
                peer_timeout: SimDuration::from_secs(2),
                ..base
            },
            ScenarioOpts {
                outages: vec![(SimTime::from_millis(20), SimTime::MAX)],
                ..ScenarioOpts::default()
            },
        ),
        (
            "loss 10%, media (shed)",
            FaultConfig::loss(0.10),
            AlfConfig {
                recovery: RecoveryMode::NoRetransmit,
                reassembly_budget_bytes: budget / 4,
                assembly_timeout: SimDuration::from_millis(200),
                ..base
            },
            ScenarioOpts::default(),
        ),
    ];
    let mut t = Table::new(&[
        "scenario",
        "outcome",
        "goodput",
        "elapsed",
        "delivered",
        "lost",
        "shed",
        "bp TUs",
        "bp sends",
        "probes",
        "rto backoff",
    ]);
    for (label, faults, cfg, opts) in &scenarios {
        let r = run_alf_transfer_scenario(
            7,
            LinkConfig::lan(),
            *faults,
            *cfg,
            Substrate::Packet,
            &adus,
            None,
            opts,
        );
        let outcome = if r.peer_unreachable {
            "PEER DEAD".into()
        } else if r.complete && r.adus_lost == 0 {
            "complete".into()
        } else {
            format!("partial ({} lost)", r.adus_lost)
        };
        t.row(&[
            (*label).into(),
            outcome,
            format!("{} Mb/s", fmt_f(r.goodput_mbps)),
            format!("{}", r.elapsed),
            format!("{}", r.adus_delivered),
            format!("{}", r.adus_lost),
            format!("{}", r.receiver.adus_shed),
            format!("{}", r.receiver.tus_backpressured),
            format!("{}", r.sender.send_backpressured),
            format!("{}", r.sender.zero_window_probes),
            format!("{}", r.sender.rto_backoff_events),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nThe healed partition costs elapsed time but zero data: buffered state\n\
         plus backed-off retransmission resumes where it left off. The unhealed\n\
         one ends in a bounded, explicit PEER DEAD report instead of infinite\n\
         retry. Under the receive budget the squeeze is visible end to end —\n\
         refused TUs, refused sends, and zero-window probes — while a media flow\n\
         sheds oldest-first and keeps playing."
    );
}

// ---------------------------------------------------------------------
// X11 — ADU lifecycle spans, latency attribution, HOL-blocking profiler
// ---------------------------------------------------------------------

fn x11_lifecycle_spans() {
    heading(
        "X11",
        "lifecycle spans: latency attribution and HOL stall, ALF vs stream",
        "'not all ADUs ... need be processed in the order originally intended; \
         the receiver can process out of order those ADUs that arrive out of \
         order' (\u{a7}2) — so an ALF receiver's HOL stall (time between an \
         ADU's last byte arriving and the application consuming it) stays \
         near zero under loss, while a byte-stream receiver holds arrived \
         bytes hostage behind the gap until retransmission fills it",
    );

    const ADUS: usize = 150;
    const ADU_BYTES: usize = 4000;
    const TRACE_CAP: usize = 65536;
    let loss_rates = [0.0f64, 0.01, 0.03];
    let link = LinkConfig::lan();

    let adus = seq_workload(ADUS, ADU_BYTES);
    let stream_data: Vec<u8> = (0..ADUS as u64)
        .flat_map(|i| workload_payload(i, ADU_BYTES))
        .collect();

    let mut t = Table::new(&[
        "loss",
        "alf stall mean",
        "alf stall max",
        "stream stall mean",
        "stream stall p99",
        "stream stall max",
        "stalled ranges",
    ]);
    let mut json_rows = Vec::new();
    let mut alf_stall_means = Vec::new();
    let mut stream_stall_means = Vec::new();
    let mut stream_stall_floor = Vec::new();
    let mut attribution_3pct = String::new();

    for &loss in &loss_rates {
        let faults = if loss > 0.0 {
            FaultConfig::loss(loss)
        } else {
            FaultConfig::none()
        };

        // --- ALF substrate: full lifecycle spans from the flight record.
        let tel = Telemetry::with_tracing(TRACE_CAP);
        let r = run_alf_transfer_scenario(
            11,
            link,
            faults,
            AlfConfig::default(),
            Substrate::Packet,
            &adus,
            None,
            &ScenarioOpts {
                telemetry: Some(tel.clone()),
                ..ScenarioOpts::default()
            },
        );
        assert!(r.complete && r.verified, "alf run at {loss} failed: {r:?}");
        assert_eq!(
            tel.trace_overwritten(),
            0,
            "x11 trace capacity must hold the whole run"
        );
        let live = tel.span_report();
        assert_eq!(live.spans.len(), ADUS, "one span per ADU");

        // Determinism acceptance: the offline analyzer sees exactly what
        // the in-process stitcher saw — byte-identical reports from the
        // JSONL export.
        let jsonl = tel.trace_jsonl();
        let parsed_events = Event::parse_jsonl(&jsonl).expect("export must re-parse");
        let offline = SpanReport::from_parsed(&parsed_events);
        assert_eq!(
            live.render_attribution(),
            offline.render_attribution(),
            "offline attribution must reproduce the in-process stitching"
        );
        assert_eq!(
            live.render_timeline(usize::MAX),
            offline.render_timeline(usize::MAX)
        );
        if (loss - 0.03).abs() < 1e-9 {
            attribution_3pct = live.render_attribution();
            // Trace dumps are scratch artifacts: keep them under target/
            // so they never land in the repo root.
            let _ = std::fs::create_dir_all("target");
            if let Err(e) = std::fs::write("target/x11_alf_trace.jsonl", &jsonl) {
                eprintln!("could not write target/x11_alf_trace.jsonl: {e}");
            }
        }
        let alf_stall = live.stall_summary();
        assert_eq!(alf_stall.count as usize, ADUS);

        // --- Stream substrate: same bytes, same link, HOL from seg events.
        // Buffers sized past the whole transfer so flow-control overruns
        // never drop segments: every stall below is loss-induced, not an
        // artifact of a small receive window.
        let stream_cfg = StreamConfig {
            send_buffer: 1 << 20,
            recv_buffer: 1 << 20,
            ..StreamConfig::default()
        };
        let tel_s = Telemetry::with_tracing(TRACE_CAP);
        let rs = run_transfer_telemetry(11, link, faults, stream_cfg, &stream_data, Some(&tel_s));
        assert!(rs.complete, "stream run at {loss} failed");
        assert!(
            loss > 0.0 || rs.net_loss_rate == 0.0,
            "the 0% baseline must see no congestion loss either, got {}",
            rs.net_loss_rate
        );
        assert_eq!(
            tel_s.trace_overwritten(),
            0,
            "x11 stream trace capacity must hold the whole run"
        );
        let stream_events = Event::parse_jsonl(&tel_s.trace_jsonl()).expect("stream export");
        let stalls = stream_stalls(&stream_events, ADU_BYTES as u64);
        assert_eq!(
            stalls.len(),
            ADUS,
            "every ADU-sized range must complete arrival and delivery"
        );
        let ss = stream_stall_summary(&stalls);
        if (loss - 0.03).abs() < 1e-9 {
            let _ = std::fs::create_dir_all("target");
            if let Err(e) = std::fs::write("target/x11_stream_trace.jsonl", tel_s.trace_jsonl()) {
                eprintln!("could not write target/x11_stream_trace.jsonl: {e}");
            }
        }

        let stalled = stalls.iter().filter(|st| st.stall_nanos() > 0).count();
        t.row(&[
            format!("{:.0}%", loss * 100.0),
            format!("{:.1} us", alf_stall.mean_us),
            format!("{} us", alf_stall.max_us),
            format!("{:.1} us", ss.mean_us),
            format!("{} us", ss.p99_us),
            format!("{} us", ss.max_us),
            format!("{stalled}/{}", stalls.len()),
        ]);
        json_rows.push(format!(
            "    {{\"loss_pct\": {:.1}, \"alf_stall_mean_us\": {:.2}, \
             \"alf_stall_max_us\": {}, \"stream_stall_mean_us\": {:.2}, \
             \"stream_stall_p99_us\": {}, \"stream_stall_max_us\": {}, \
             \"stream_stalled_ranges\": {stalled}}}",
            loss * 100.0,
            alf_stall.mean_us,
            alf_stall.max_us,
            ss.mean_us,
            ss.p99_us,
            ss.max_us,
        ));
        alf_stall_means.push(alf_stall.mean_us);
        stream_stall_means.push(ss.mean_us);
        stream_stall_floor.push((loss, stalled, ss.max_us));
    }
    print!("{}", t.render());

    println!("\nALF stage attribution at 3% loss (per-ADU latency, fully accounted):");
    print!("{attribution_3pct}");

    // The acceptance bar (the paper's claim, measured): ALF stall stays
    // near zero at every loss rate; the stream has none on a clean link and
    // some under any loss. Not "grows with loss": a lossier stream runs a
    // smaller window, so less data waits behind each hole, and across seeds
    // the 3 % mean is below the 1 % mean as often as above (EXPERIMENTS X11).
    for (&loss, &mean) in loss_rates.iter().zip(&alf_stall_means) {
        assert!(
            mean < 1.0,
            "ALF HOL stall must stay near zero (loss {loss}: {mean:.2} us)"
        );
    }
    let (s0, s1, s3) = (
        stream_stall_means[0],
        stream_stall_means[1],
        stream_stall_means[2],
    );
    assert!(
        s0 == 0.0 && s1 > 0.0 && s3 > 0.0,
        "stream HOL stall must be zero clean and present under loss: {s0:.1}, {s1:.1}, {s3:.1}"
    );
    // And present means a retransmission's worth: under loss the worst
    // range waits at least one round trip of the link, and at least one
    // range per `loss x ADUS` stalls (8 seeds read >= 800 us, >= 8 and >= 12
    // ranges). A stall that shrank to microseconds is not a stall.
    let round_trip_us = 2 * link.propagation.as_nanos() / 1_000;
    for &(loss, stalled, max_us) in stream_stall_floor.iter().filter(|r| r.0 > 0.0) {
        assert!(
            max_us >= round_trip_us && stalled as f64 >= loss * ADUS as f64,
            "stream HOL stall at {loss}: max {max_us} us (floor {round_trip_us}), {stalled} ranges"
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"x11\",\n  \"adus\": {ADUS},\n  \"adu_bytes\": {ADU_BYTES},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    match std::fs::write("BENCH_x11.json", &json) {
        Ok(()) => println!("\nwrote BENCH_x11.json"),
        Err(e) => eprintln!("\ncould not write BENCH_x11.json: {e}"),
    }
    println!(
        "\nBoth substrates saw identical bytes, links, and seeds. The stall\n\
         column is the HOL metric: time between all of a 4000-byte range's\n\
         bytes having arrived at the receiver and the application being able\n\
         to consume them. Out-of-order ADU delivery pins it at ~0; in-order\n\
         byte-stream delivery lets one lost segment hold every later range\n\
         hostage for a retransmission round trip. Analyze the dumps offline\n\
         with:\n\
         cargo run -p ct-telemetry --bin ct-trace -- target/x11_alf_trace.jsonl\n\
         cargo run -p ct-telemetry --bin ct-trace -- --adu-bytes 4000 target/x11_stream_trace.jsonl"
    );
}

// ---------------------------------------------------------------------
// X12 — hostile-wire survivability
// ---------------------------------------------------------------------

/// Every rejection reason the receive path can count (see
/// `alf_core::wire::WireError::reason` and the transport's
/// `alf.rx_rejected.{reason}` counters).
const X12_REJECT_REASONS: [&str; 10] = [
    "truncated",
    "unknown_type",
    "bad_checksum",
    "length_mismatch",
    "bad_name",
    "frag_out_of_range",
    "assoc_mismatch",
    "bad_parity",
    "replayed",
    "other",
];

fn x12_rejected_total(tel: &Telemetry) -> u64 {
    X12_REJECT_REASONS
        .iter()
        .map(|r| tel.metrics().counter(&format!("alf.rx_rejected.{r}")))
        .sum()
}

struct X12Run {
    goodput_mbps: f64,
    adversarial: u64,
    rejected: u64,
    replays_suppressed: u64,
    peak_reassembly: usize,
}

const X12_ADU_BYTES: usize = 6 * 1024;
const X12_BUDGET: usize = 96 * 1024;

/// One survivability transfer: a fixed buffered-recovery workload while the
/// data direction's [`ct_netsim::fault::Mutator`] truncates, extends,
/// header-flips, replays, and forges at `hostility`. Every delivered ADU is
/// byte-compared against what was submitted, inside the pump loop.
fn x12_hostile_transfer(seed: u64, hostility: f64) -> X12Run {
    const ADUS: u64 = 64;
    let tel = Telemetry::new();
    // Multi-fragment ADUs by construction (6 KiB over a ~1.4 KiB MTU): a
    // forged or replayed single frame can never complete an ADU on its own,
    // so content integrity reduces to the per-frame checksum plus the
    // assembler's metadata-consistency and replay-window checks.
    let cfg = AlfConfig {
        recovery: RecoveryMode::TransportBuffer,
        reassembly_budget_bytes: X12_BUDGET,
        window_adus: 16,
        max_retries: 200,
        ..AlfConfig::default()
    };
    let mut pair = Pair::new(
        seed,
        LinkConfig::lan(),
        FaultConfig::none(),
        Substrate::Packet,
        AduTransport::new(cfg),
        AduTransport::new(cfg),
    );
    let (node_a, node_b) = (pair.node_a, pair.node_b);
    pair.net.attach_telemetry(tel.clone());
    if hostility > 0.0 {
        pair.net
            .set_mutator(node_a, node_b, MutatorConfig::hostile(hostility));
    }
    pair.a.attach_telemetry(tel.clone(), "sender");
    pair.b.attach_telemetry(tel.clone(), "receiver");

    let expected: Vec<Vec<u8>> = (0..ADUS)
        .map(|i| workload_payload(i, X12_ADU_BYTES))
        .collect();
    let mut seen = vec![false; ADUS as usize];
    let mut delivered = 0u64;
    let mut next_offer = 0u64;
    let mut peak = 0usize;
    let mut done_at = None;

    for _ in 0..8_000_000u64 {
        while next_offer < ADUS {
            let payload = expected[next_offer as usize].clone();
            match pair.a.send_adu(AduName::Seq { index: next_offer }, payload) {
                Ok(_) => next_offer += 1,
                Err(_) => break,
            }
        }
        let moved = pair.exchange();

        while let Some((adu, _latency)) = pair.b.recv_adu() {
            let AduName::Seq { index } = adu.name else {
                panic!(
                    "x12 hostility {hostility}: delivered ADU with foreign name {:?}",
                    adu.name
                );
            };
            let idx = index as usize;
            assert!(
                idx < seen.len() && !seen[idx],
                "x12 hostility {hostility}: ADU {index} delivered twice or out of range"
            );
            assert!(
                adu.payload == expected[idx],
                "x12 hostility {hostility}: ADU {index} delivered with corrupted bytes"
            );
            seen[idx] = true;
            delivered += 1;
        }
        peak = peak.max(pair.b.reassembly_bytes());
        assert!(
            pair.b.reassembly_bytes() <= X12_BUDGET,
            "x12 hostility {hostility}: reassembly {} bytes exceeds the {X12_BUDGET} byte budget",
            pair.b.reassembly_bytes()
        );
        assert!(
            pair.a.take_loss_reports().is_empty(),
            "x12 hostility {hostility}: buffered sender gave up under a recoverable adversary"
        );

        if next_offer == ADUS && pair.a.send_complete() && delivered == ADUS {
            done_at = Some(pair.net.now());
            break;
        }
        assert!(
            pair.net.now() < SimTime::from_secs(120),
            "x12 hostility {hostility}: no convergence after 120 simulated seconds \
             ({delivered}/{ADUS} delivered)"
        );

        if !pair.settle(moved, None) {
            assert!(
                pair.b.reassembly_bytes() > 0,
                "x12 hostility {hostility}: wedged with nothing scheduled \
                 ({delivered}/{ADUS} delivered)"
            );
            pair.net
                .advance(cfg.assembly_timeout + SimDuration::from_millis(1));
        }
    }
    let done_at = done_at.unwrap_or_else(|| {
        panic!("x12 hostility {hostility}: iteration cap hit ({delivered}/{ADUS} delivered)")
    });
    let secs = done_at.as_nanos() as f64 / 1e9;
    let replays_suppressed = tel.metrics().counter("alf.rx_rejected.replayed");
    X12Run {
        goodput_mbps: (ADUS as usize * X12_ADU_BYTES) as f64 * 8.0 / secs / 1e6,
        adversarial: pair
            .net
            .mutator_stats(node_a, node_b)
            .map(|s| s.total())
            .unwrap_or(0),
        rejected: x12_rejected_total(&tel),
        replays_suppressed,
        peak_reassembly: peak,
    }
}

struct X12Flood {
    sends: u64,
    adversarial: u64,
    rejected: u64,
    replays_suppressed: u64,
    delivered: u64,
    peak_reassembly: usize,
}

/// The volume phase: a one-way hostile firehose of genuine template frames
/// with every injection knob at full, pumped until the mutator has produced
/// `target` adversarial frames. The receiver must stay total, byte-exact,
/// and inside its reassembly budget the whole way — its control replies go
/// nowhere, so nothing here depends on sender cooperation.
fn x12_frame_flood(target: u64) -> X12Flood {
    const ADUS: u64 = 16;
    const BUDGET: usize = 64 * 1024;
    let cfg = AlfConfig {
        recovery: RecoveryMode::TransportBuffer,
        reassembly_budget_bytes: BUDGET,
        window_adus: ADUS as usize,
        ..AlfConfig::default()
    };
    let expected: Vec<Vec<u8>> = (0..ADUS)
        .map(|i| workload_payload(i, X12_ADU_BYTES))
        .collect();

    // Harvest genuine template frames from a scratch sender: the flood
    // mutates and replays real traffic, not synthetic bytes.
    let mut templates = Vec::new();
    {
        let mut s = AduTransport::new(cfg);
        for (i, payload) in expected.iter().enumerate() {
            s.send_adu(AduName::Seq { index: i as u64 }, payload.clone())
                .expect("window admits the flood templates");
        }
        let mut t = SimTime::ZERO;
        for _ in 0..64 {
            let msgs = s.poll(t);
            if msgs.is_empty() && !templates.is_empty() {
                break;
            }
            templates.extend(msgs);
            t += SimDuration::from_millis(1);
        }
    }
    assert!(!templates.is_empty(), "template harvest produced no frames");

    let tel = Telemetry::new();
    let mut net = Network::new(0xF100D);
    let node_a = net.add_node();
    let node_b = net.add_node();
    net.connect(node_a, node_b, LinkConfig::lan(), FaultConfig::none());
    net.attach_telemetry(tel.clone());
    net.set_mutator(
        node_a,
        node_b,
        MutatorConfig {
            truncate: 0.2,
            extend: 0.2,
            header_flip: 0.25,
            replay: 1.0,
            forge_random: 1.0,
            forge_grammar: 1.0,
            ..MutatorConfig::default()
        },
    );
    let mut r = AduTransport::new(cfg);
    r.attach_telemetry(tel.clone(), "receiver");

    let mut seen = vec![false; ADUS as usize];
    let mut delivered = 0u64;
    let mut peak = 0usize;
    let mut sends = 0u64;
    let mut next_template = 0usize;
    loop {
        let done = net
            .mutator_stats(node_a, node_b)
            .expect("mutator attached")
            .total();
        if done >= target {
            break;
        }
        for _ in 0..48 {
            let payload = templates[next_template % templates.len()].clone();
            next_template += 1;
            let _ = net.send(node_a, node_b, payload);
            sends += 1;
        }
        net.run_until_idle();
        while let Some(frame) = net.recv(node_b) {
            r.on_frame(net.now(), frame.payload.into());
        }
        // Control replies (ACKs, NACKs, window probes) are dropped on the
        // floor; poll still runs so expiry sweeps and shed notices fire.
        let _ = r.poll(net.now());
        while let Some((adu, _latency)) = r.recv_adu() {
            let AduName::Seq { index } = adu.name else {
                panic!("x12 flood: delivered ADU with foreign name {:?}", adu.name);
            };
            let idx = index as usize;
            assert!(
                idx < seen.len() && !seen[idx],
                "x12 flood: ADU {index} delivered twice or out of range"
            );
            assert!(
                adu.payload == expected[idx],
                "x12 flood: ADU {index} delivered with corrupted bytes"
            );
            seen[idx] = true;
            delivered += 1;
        }
        peak = peak.max(r.reassembly_bytes());
        assert!(
            r.reassembly_bytes() <= BUDGET,
            "x12 flood: reassembly {} bytes exceeds the {BUDGET} byte budget",
            r.reassembly_bytes()
        );
        // Nudge the clock so assembly deadlines fire and forged phantom
        // assemblies cycle out instead of pinning the budget forever.
        net.advance(SimDuration::from_millis(2));
    }
    let replays_suppressed = tel.metrics().counter("alf.rx_rejected.replayed");
    X12Flood {
        sends,
        adversarial: net
            .mutator_stats(node_a, node_b)
            .map(|s| s.total())
            .unwrap_or(0),
        rejected: x12_rejected_total(&tel),
        replays_suppressed,
        delivered,
        peak_reassembly: peak,
    }
}

fn x12_hostile_wire() {
    heading(
        "X12",
        "hostile-wire survivability: 10^6 adversarial frames, zero corruption",
        "'some applications may find damaged data of use' (\u{a7}5) is an option, \
         never an obligation: a receiver on a hostile wire must stay total \
         (reject, never panic), bounded (quotas, not hope), and honest (only \
         byte-exact ADUs reach the application)",
    );

    let levels = [0.0f64, 0.05, 0.15];
    let mut t = Table::new(&[
        "hostility",
        "goodput",
        "adversarial",
        "rejected",
        "replays",
        "peak reasm",
    ]);
    let mut runs = Vec::new();
    for &p in &levels {
        let run = x12_hostile_transfer(12, p);
        t.row(&[
            format!("{:.0}%", p * 100.0),
            format!("{} Mb/s", fmt_f(run.goodput_mbps)),
            format!("{}", run.adversarial),
            format!("{}", run.rejected),
            format!("{}", run.replays_suppressed),
            format!("{} B", run.peak_reassembly),
        ]);
        runs.push((p, run));
    }
    print!("{}", t.render());

    // Graceful degradation: every hostility level still completes (asserted
    // inside the run), and goodput falls below the clean baseline instead
    // of collapsing to zero or wedging.
    let clean = runs[0].1.goodput_mbps;
    for (p, run) in runs.iter().skip(1) {
        assert!(
            run.goodput_mbps > 0.0 && run.goodput_mbps < clean,
            "hostility {p}: goodput {} must degrade from the clean {} without dying",
            run.goodput_mbps,
            clean
        );
        assert!(
            run.rejected > 0 && run.adversarial > 0,
            "hostility {p}: the adversary must have been exercised and rejected"
        );
    }

    let sweep_total: u64 = runs.iter().map(|(_, r)| r.adversarial).sum();
    let flood = x12_frame_flood(1_000_000u64.saturating_sub(sweep_total));
    let grand_total = sweep_total + flood.adversarial;
    assert!(
        grand_total >= 1_000_000,
        "x12 must drive at least 10^6 adversarial frames, got {grand_total}"
    );
    assert!(
        flood.rejected > 0 && flood.replays_suppressed > 0,
        "the flood must exercise the rejection and replay-window paths"
    );

    println!(
        "\nflood: {} template sends, {} adversarial frames, {} rejected, \
         {} replays suppressed, {}/16 ADUs delivered byte-exact, peak \
         reassembly {} B (budget {} B)",
        flood.sends,
        flood.adversarial,
        flood.rejected,
        flood.replays_suppressed,
        flood.delivered,
        flood.peak_reassembly,
        64 * 1024,
    );
    println!(
        "adversarial frames total: {grand_total} (>= 10^6), zero panics, zero corrupted deliveries"
    );

    let rows: Vec<String> = runs
        .iter()
        .map(|(p, r)| {
            format!(
                "    {{\"hostility_pct\": {:.1}, \"goodput_mbps\": {:.2}, \
                 \"adversarial\": {}, \"rejected\": {}, \"replays_suppressed\": {}, \
                 \"peak_reassembly_bytes\": {}}}",
                p * 100.0,
                r.goodput_mbps,
                r.adversarial,
                r.rejected,
                r.replays_suppressed,
                r.peak_reassembly
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"x12\",\n  \"adus\": 64,\n  \"adu_bytes\": {X12_ADU_BYTES},\n  \
         \"rows\": [\n{}\n  ],\n  \"flood\": {{\"sends\": {}, \"adversarial\": {}, \
         \"rejected\": {}, \"replays_suppressed\": {}, \"delivered\": {}, \
         \"peak_reassembly_bytes\": {}}},\n  \"adversarial_total\": {grand_total}\n}}\n",
        rows.join(",\n"),
        flood.sends,
        flood.adversarial,
        flood.rejected,
        flood.replays_suppressed,
        flood.delivered,
        flood.peak_reassembly,
    );
    match std::fs::write("BENCH_x12.json", &json) {
        Ok(()) => println!("\nwrote BENCH_x12.json"),
        Err(e) => eprintln!("\ncould not write BENCH_x12.json: {e}"),
    }
    println!(
        "\nEvery adversarial frame either died at a typed rejection (counted\n\
         per reason in alf.rx_rejected.*), was absorbed by the replay window,\n\
         or charged a bounded quota that evicted deterministically. Nothing\n\
         panicked, nothing corrupt was delivered, and goodput under attack\n\
         degraded instead of collapsing — the robustness floor the\n\
         many-association server (ROADMAP item 1) will stand on."
    );
}

// ---------------------------------------------------------------------------
// X13: many-association server — flat per-ADU cost from 1 to 100k
// ---------------------------------------------------------------------------

/// One X13 sweep point: `assocs` associations moving `adus_per_assoc` ADUs
/// each into one server over ideal links.
fn x13_point(
    assocs: usize,
    clients: usize,
    adus_per_assoc: usize,
    batch_frames: Option<usize>,
) -> ct_server::cluster::ClusterReport {
    assert_eq!(assocs % clients, 0, "sweep points divide evenly");
    let mut server = ct_server::ServerConfig::default();
    if let Some(b) = batch_frames {
        server.batch_frames = b;
    }
    let cfg = ct_server::cluster::ClusterConfig {
        clients,
        assocs_per_client: assocs / clients,
        adus_per_assoc,
        adu_bytes: X13_ADU_BYTES,
        server,
        alf: AlfConfig::default(),
        link: LinkConfig::ideal(),
        faults: FaultConfig::none(),
        ..Default::default()
    };
    let r = ct_server::cluster::run_cluster(13, &cfg, None);
    assert!(
        r.complete,
        "x13 {assocs}-association run did not complete: {r:?}"
    );
    assert!(
        r.verified,
        "x13 {assocs}-association run delivered corrupt bytes"
    );
    assert_eq!(r.adus_lost, 0, "clean links must lose nothing");
    assert_eq!(
        r.adus_delivered, r.adus_offered,
        "every offered ADU must arrive"
    );
    r
}

const X13_ADU_BYTES: usize = 600;

fn x13_many_assoc(
    assoc_override: Option<usize>,
    batch_override: Option<usize>,
    adus_override: Option<usize>,
) {
    heading(
        "X13",
        "many-association ALF server: per-ADU cost vs. concurrent associations",
        "the ALF argument is about how a server should be organized: the ADU \
         is the unit the application names, so a server terminating many \
         clients should pay a flat per-ADU cost no matter how many \
         associations it holds. Sharded association table + per-shard timer \
         wheels + batched event loop make that claim measurable",
    );

    if let Some(n) = assoc_override {
        // Smoke mode: one point, no baseline rewrite.
        let clients = if n >= 4 && n % 4 == 0 { 4 } else { 1 };
        let r = x13_point(n, clients, adus_override.unwrap_or(4), batch_override);
        println!(
            "smoke: {} associations over {clients} client nodes — {} ADUs \
             delivered and verified, {} batches, {:.0} bytes/assoc, \
             {:.0} ns/ADU",
            r.assocs,
            r.adus_delivered,
            r.batches,
            r.bytes_per_assoc(),
            r.ns_per_adu()
        );
        return;
    }

    // The sweep: association count grows 1 → 1k → 100k while the per-point
    // ADU volume stays large enough to time. Everything in BENCH_x13.json
    // is simulator- or capacity-derived and reproduces bit-identically;
    // wall-clock ns/ADU is machine-dependent, so it is printed, not gated
    // there, and bounded only under WALLCLOCK=1 (below).
    let points = [
        (1usize, 1usize, 20_000usize),
        (1_000, 2, 20),
        (100_000, 4, 4),
    ];
    let mut t = Table::new(&[
        "assocs",
        "ADUs",
        "ns/ADU (wall)",
        "bytes/assoc",
        "batches",
        "sim elapsed ms",
        "polls/assoc",
        "wheel entries/assoc",
        "wheel slots/assoc",
    ]);
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for &(assocs, clients, adus) in &points {
        let r = x13_point(assocs, clients, adus, None);
        let per_assoc = |n: u64| format!("{:.3}", n as f64 / assocs as f64);
        t.row(&[
            format!("{assocs}"),
            format!("{}", r.adus_delivered),
            format!("{:.0}", r.ns_per_adu()),
            format!("{:.0}", r.bytes_per_assoc()),
            format!("{}", r.batches),
            format!("{:.2}", r.elapsed.as_nanos() as f64 / 1e6),
            per_assoc(r.work.polls),
            per_assoc(r.work.wheel_entries_examined),
            per_assoc(r.work.wheel_slots_scanned),
        ]);
        rows.push(format!(
            "    {{\"assocs\": {assocs}, \"clients\": {clients}, \
             \"adus_per_assoc\": {adus}, \"adus_delivered\": {}, \
             \"frames_in\": {}, \"frames_out\": {}, \"batches\": {}, \
             \"elapsed_ns\": {}, \"mem_bytes_per_assoc\": {:.0}, \
             \"assoc_polls\": {}, \"wheel_entries_examined\": {}, \
             \"wheel_slots_scanned\": {}}}",
            r.adus_delivered,
            r.frames_in,
            r.frames_out,
            r.batches,
            r.elapsed.as_nanos(),
            r.bytes_per_assoc(),
            r.work.polls,
            r.work.wheel_entries_examined,
            r.work.wheel_slots_scanned,
        ));
        reports.push(r);
    }
    print!("{}", t.render());

    // The acceptance bar (ISSUE 8): ≥100k concurrent associations, per-ADU
    // cost flat in the association count, and per-association memory
    // bounded. "Flat" is gated on what a cost growing with the table would
    // move, counted exactly: associations polled (a sweep that visits every
    // slot), and shard-wheel entries examined and slots scanned (a wheel
    // that walks dead entries). None may be higher per association at 100k
    // than at 1k associations. Per association, not per ADU: the 1k point
    // sends 20 ADUs per association and the 100k point 4, and an honest
    // server polls an association about twice per burst of arrivals
    // whatever the burst's size (2.06 and 2.0 polls per association; 0.10
    // and 0.50 per ADU). A loop that visits every slot each batch polls
    // each association once per batch instead: 80 times at 1k, 1 564 at
    // 100k.
    assert!(reports[2].assocs >= 100_000);
    let (k, big) = (&reports[1], &reports[2]);
    for (what, at_1k, at_100k) in [
        ("polls", k.work.polls, big.work.polls),
        (
            "wheel entries examined",
            k.work.wheel_entries_examined,
            big.work.wheel_entries_examined,
        ),
        (
            "wheel slots scanned",
            k.work.wheel_slots_scanned,
            big.work.wheel_slots_scanned,
        ),
    ] {
        // at_100k / 100k associations <= at_1k / 1k associations, in integers.
        assert!(
            u128::from(at_100k) * k.assocs as u128 <= u128::from(at_1k) * big.assocs as u128,
            "{what} per association must not grow with the table: {at_100k} at {} \
             associations vs {at_1k} at {}",
            big.assocs,
            k.assocs
        );
    }
    // The wall-clock form of the same bar, an observation unless WALLCLOCK=1
    // enforces it (this VM's noise trips it a run in four or five): 100k −
    // one association ≤ 1 250 ns/ADU, min of REPS interleaved runs a side.
    // The allowance is the cost of cold endpoint state at 100k — four cold
    // visits per ADU (client send, server ingest, server poll, client ACK) —
    // and nothing that scales with the table (a scan or a sweep overshoots
    // by orders of magnitude). Held as a difference so a faster
    // single-association path cannot fail it. It started as what one
    // association cost when the bar was set (≈ 1 750 ns/ADU, "100k ≤ 2× one
    // association" → 1 800) and moved with the state it pays for: the
    // hot-first endpoint cut the growth to 0.69× the parent's on the same
    // host and day (580–726 ns over ten runs against 934–1 016), so the
    // allowance is 0.69 × 1 800.
    const COLD_STATE_BUDGET_NS: f64 = 1_250.0;
    const REPS: usize = 3;
    let (single, at_scale) = if ct_bench::wallclock_enforced() {
        ct_bench::interleaved_min_ns(REPS, |at_scale| {
            let (assocs, clients, adus) = points[if at_scale { 2 } else { 0 }];
            x13_point(assocs, clients, adus, None).ns_per_adu()
        })
    } else {
        (reports[0].ns_per_adu(), reports[2].ns_per_adu())
    };
    println!(
        "\n100k − 1 association: {:+.0} ns/ADU ({}; WALLCLOCK=1 enforces <= \
         {COLD_STATE_BUDGET_NS:.0} ns over the min of {REPS} interleaved runs a side)",
        at_scale - single,
        if ct_bench::wallclock_enforced() {
            "enforced"
        } else {
            "one run each, observed"
        }
    );
    assert!(
        !ct_bench::wallclock_enforced() || at_scale - single <= COLD_STATE_BUDGET_NS,
        "per-ADU cost must stay flat: {at_scale:.0} ns/ADU at 100k vs \
         {single:.0} ns/ADU at 1 association (grew by more than \
         {COLD_STATE_BUDGET_NS:.0} ns)"
    );
    // 701 B when this bound was set: the slot record, the endpoint's 504
    // inline bytes, its completed-ADU queue and ACK ids, its share of the
    // index (every byte the server holds, checked against the allocator in
    // tests/alloc_budget.rs). A field added to the hot part, a counter
    // block a fault-free association allocates, a container allocating
    // before it holds something or a slab that copies on growth shows here.
    assert!(
        reports[2].bytes_per_assoc() <= 720.0,
        "an association must stay within 720 B at 100k-scale, got {:.0}",
        reports[2].bytes_per_assoc()
    );

    let json = format!(
        "{{\n  \"experiment\": \"x13\",\n  \"adu_bytes\": {X13_ADU_BYTES},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    match std::fs::write("BENCH_x13.json", &json) {
        Ok(()) => println!("\nwrote BENCH_x13.json"),
        Err(e) => eprintln!("\ncould not write BENCH_x13.json: {e}"),
    }
    println!(
        "\nOne server process terminated every association above. Frames hash\n\
         by (peer, association) to a shard, expired retransmit clocks surface\n\
         from hashed timer wheels instead of per-association scans, and the\n\
         event loop drains ingress in batches with one clock read per batch —\n\
         which is why the ns/ADU column does not grow with the table."
    );
}

// ---------------------------------------------------------------------------
// X14: server-scale observability plane — armed overhead and fidelity
// ---------------------------------------------------------------------------

/// Span-sampling parameters for the armed X14 runs. At 1% of the 16-bit
/// association-id space, a 100k-association cluster keeps full
/// flight-recorder spans for ~1k associations — recorder traffic scales
/// with the sample, not the population.
const X14_SAMPLE_SEED: u64 = 14;
const X14_SAMPLE_RATE: f64 = 0.01;
/// Flight-recorder ring capacity for armed runs. The ring overwrites
/// oldest-first, so memory stays bounded while the recorded-event total
/// (`trace_len + trace_overwritten`) remains exactly reproducible.
const X14_TRACE_CAP: usize = 1 << 15;

/// One X13-shaped cluster run with the observability plane armed
/// (tracing ring + deterministic span sampling + per-shard rollups) or
/// fully unarmed (no telemetry attached at all — the X13 baseline).
fn x14_run(
    assocs: usize,
    clients: usize,
    adus_per_assoc: usize,
    batch_frames: Option<usize>,
    armed: bool,
) -> (ct_server::cluster::ClusterReport, Option<Telemetry>) {
    assert_eq!(assocs % clients, 0, "points divide evenly");
    let mut server = ct_server::ServerConfig::default();
    if let Some(b) = batch_frames {
        server.batch_frames = b;
    }
    let cfg = ct_server::cluster::ClusterConfig {
        clients,
        assocs_per_client: assocs / clients,
        adus_per_assoc,
        adu_bytes: X13_ADU_BYTES,
        server,
        alf: AlfConfig::default(),
        link: LinkConfig::ideal(),
        faults: FaultConfig::none(),
        ..Default::default()
    };
    let tel = armed.then(|| {
        let tel = Telemetry::with_tracing(X14_TRACE_CAP);
        tel.enable_span_sampling(X14_SAMPLE_SEED, X14_SAMPLE_RATE);
        tel
    });
    let r = ct_server::cluster::run_cluster(13, &cfg, tel.clone());
    assert!(
        r.complete && r.verified && r.adus_lost == 0,
        "x14 {assocs}-association run (armed={armed}) failed: {r:?}"
    );
    (r, tel)
}

/// Dump the armed run's registry as metrics JSONL — the snapshot `ct-top`
/// renders offline (verify.sh feeds it to `ct-top --self-check`).
fn x14_write_rollup(tel: &Telemetry) {
    let jsonl = tel.metrics().to_jsonl();
    let _ = std::fs::create_dir_all("target");
    match std::fs::write("target/x14_rollup.jsonl", &jsonl) {
        Ok(()) => println!(
            "\nwrote target/x14_rollup.jsonl ({} metrics)",
            jsonl.lines().count()
        ),
        Err(e) => eprintln!("\ncould not write target/x14_rollup.jsonl: {e}"),
    }
}

fn x14_observability(
    assoc_override: Option<usize>,
    batch_override: Option<usize>,
    adus_override: Option<usize>,
) {
    heading(
        "X14",
        "observability plane armed at 100k associations: sampled spans, rollups",
        "\u{a7}6's discipline applied to the server's own introspection: \
         watching 100 000 associations must not cost the datapath. \
         Deterministic span sampling keeps recorder traffic O(sample), \
         per-shard registries merge into one rollup, and the event loop \
         attributes its own batch phases — all while the delivery counters \
         stay bit-identical to an unarmed run",
    );

    if let Some(n) = assoc_override {
        // Smoke mode: one small armed point — exercises sampling, the
        // rollup publisher and the ct-top snapshot without the 100k
        // overhead comparison (and without touching BENCH_x14.json).
        let clients = if n >= 4 && n % 4 == 0 { 4 } else { 1 };
        let (r, tel) = x14_run(n, clients, adus_override.unwrap_or(4), batch_override, true);
        let tel = tel.expect("smoke runs armed");
        print!("{}", ct_telemetry::top::render_top(&tel.metrics()));
        x14_write_rollup(&tel);
        println!(
            "smoke: {} associations armed — {} ADUs delivered and verified, \
             {} batches, {} recorder events",
            r.assocs,
            r.adus_delivered,
            r.batches,
            tel.trace_len() as u64 + tel.trace_overwritten(),
        );
        return;
    }

    // The full comparison: X13's 100k point, unarmed vs armed.
    const POINT: (usize, usize, usize) = (100_000, 4, 4);
    const REPS: usize = 3;
    const ATTEMPTS: usize = 3;
    // The plane's cost is a fixed amount of work per ADU (sampler hash,
    // phase observations, rollup flush), so the figure is the *difference*
    // armed - unarmed, not the ratio: a faster datapath must not look worse
    // on unchanged telemetry. 90 ns was 2 % of the unarmed cost when the
    // bound was set. This VM's noise is about the size of the bound, so it
    // is an observation unless WALLCLOCK=1 asks for it to be enforced (then
    // the best of ATTEMPTS counts: a clean attempt is proof, a dirty one is
    // not disproof). What must hold on every run is asserted below as
    // counts: the armed plane changes nothing the simulator derives.
    const BOUND_NS: f64 = 90.0;
    let (assocs, clients, adus) = POINT;
    let enforced = ct_bench::wallclock_enforced();

    // One untimed warm-up pays the process's one-time costs (allocator
    // growth, page faults) before either side is measured.
    let _ = x14_run(assocs, clients, adus, None, false);

    let mut best_extra_ns = f64::INFINITY;
    let mut kept: Option<(ct_server::cluster::ClusterReport, Telemetry)> = None;
    for attempt in 1..=if enforced { ATTEMPTS } else { 1 } {
        let mut unarmed = None;
        let (base_ns, armed_ns) = ct_bench::interleaved_min_ns(REPS, |armed| {
            let (r, tel) = x14_run(assocs, clients, adus, None, armed);
            let ns = r.ns_per_adu();
            let Some(tel) = tel else {
                unarmed = Some(r);
                return ns;
            };
            // The plane observes; it must never steer. Every
            // simulator-derived number agrees bit-for-bit.
            let rb = unarmed.take().expect("the unarmed side runs first");
            assert_eq!(
                rb.adus_delivered, r.adus_delivered,
                "armed run changed delivery"
            );
            assert_eq!(rb.batches, r.batches, "armed run changed batching");
            assert_eq!(rb.frames_in, r.frames_in, "armed run changed ingress");
            assert_eq!(rb.frames_out, r.frames_out, "armed run changed egress");
            assert_eq!(rb.elapsed, r.elapsed, "armed run changed sim time");
            kept = Some((r, tel));
            ns
        });
        let extra_ns = armed_ns - base_ns;
        println!(
            "attempt {attempt}: unarmed {base_ns:.0} ns/ADU, armed {armed_ns:.0} ns/ADU, \
             armed - unarmed {extra_ns:+.0} ns/ADU"
        );
        best_extra_ns = best_extra_ns.min(extra_ns);
        if best_extra_ns <= BOUND_NS {
            break;
        }
    }
    assert!(
        !enforced || best_extra_ns <= BOUND_NS,
        "armed observability plane must cost <= {BOUND_NS:.0} ns/ADU at {assocs} \
         associations; best armed - unarmed over {ATTEMPTS} attempts was \
         {best_extra_ns:+.0} ns/ADU"
    );

    let (r, tel) = kept.expect("at least one attempt ran");
    let trace_events = tel.trace_len() as u64 + tel.trace_overwritten();
    let stuck = tel.metrics().counter("server.rollup.stuck_assocs");
    println!("\nrollup of the armed {assocs}-association run:");
    print!("{}", ct_telemetry::top::render_top(&tel.metrics()));
    x14_write_rollup(&tel);

    let json = format!(
        "{{\n  \"experiment\": \"x14\",\n  \"assocs\": {assocs},\n  \
         \"adu_bytes\": {X13_ADU_BYTES},\n  \"sample_rate_pct\": {:.1},\n  \
         \"adus_delivered\": {},\n  \"batches\": {},\n  \"frames_in\": {},\n  \
         \"frames_out\": {},\n  \"elapsed_ns\": {},\n  \"trace_events\": {trace_events},\n  \
         \"stuck_assocs\": {stuck}\n}}\n",
        X14_SAMPLE_RATE * 100.0,
        r.adus_delivered,
        r.batches,
        r.frames_in,
        r.frames_out,
        r.elapsed.as_nanos(),
    );
    match std::fs::write("BENCH_x14.json", &json) {
        Ok(()) => println!("\nwrote BENCH_x14.json"),
        Err(e) => eprintln!("\ncould not write BENCH_x14.json: {e}"),
    }
    println!(
        "\nThe armed plane recorded {trace_events} flight-recorder events for\n\
         ~{:.0}% of associations (whole spans, chosen by a seeded hash of the\n\
         association id and ADU name), merged {} shard registries into the\n\
         rollup above, and attributed every batch's work to its event-loop\n\
         phase — for {best_extra_ns:+.0} ns per ADU on top of the unarmed cost here\n\
         (min of {REPS} interleaved runs a side; WALLCLOCK=1 enforces <= {BOUND_NS:.0} ns).",
        X14_SAMPLE_RATE * 100.0,
        r.assocs.min(ct_server::ServerConfig::default().shards),
    );
}
