//! Probes: isolated calls into single kernels and control steps, on the same
//! seeded inputs the workloads use. They give each layer's cost without the
//! rest of the stack around it, and `memcpy` on the same buffers in the same
//! run is the roofline the GB/s figures are read against.
//!
//! Each probe reports the best of [`WINDOWS`] windows (a minimum, not a
//! median: the least-disturbed window is the closest to the code's cost).

use crate::gen;
use crate::workloads::bulk_pair::{KEY, RECORD_BYTES, RECORD_WORDS};
use alf_core::adu::AduName;
use alf_core::assembler::Assembler;
use alf_core::pipeline::canonical_receive_chain;
use alf_core::timer::TimerWheel;
use alf_core::wire::{fragment_adu_buf, Message, RWND_UNLIMITED};
use ct_crypto::stream::XorStream;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::net::Network;
use ct_netsim::time::{SimDuration, SimTime};
use ct_presentation::{ber, lwts, xdr};
use ct_wire::WireBuf;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Windows per probe.
pub const WINDOWS: usize = 5;

/// Best-of-windows nanoseconds per call of `f`.
fn ns_per_call(window: Duration, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..WINDOWS {
        let start = Instant::now();
        let mut calls = 0u64;
        let elapsed = loop {
            f();
            calls += 1;
            let e = start.elapsed();
            if e >= window {
                break e;
            }
        };
        best = best.min(elapsed.as_nanos() as f64 / calls as f64);
    }
    best
}

/// GB/s (10⁹ B/s) when each call of `f` handles `bytes` bytes.
fn gbps(window: Duration, bytes: usize, f: impl FnMut()) -> f64 {
    bytes as f64 / ns_per_call(window, f)
}

/// Run every probe; `window` is the length of one window.
pub fn run(seed: u64, window: Duration) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    const K4: usize = 4 << 10;
    const M8: usize = 8 << 20;
    let src = gen::bytes(seed, 4, M8);
    let mut dst = vec![0u8; M8];

    // Copy and checksum kernels, cache-resident and DRAM-sized.
    for (size, memcpy, fused) in [
        (K4, "memcpy.GBps.4k", "ct-wire.copy_and_checksum.GBps.4k"),
        (M8, "memcpy.GBps.8m", "ct-wire.copy_and_checksum.GBps.8m"),
    ] {
        out.push((
            memcpy,
            gbps(window, size, || {
                black_box(&mut dst[..size]).copy_from_slice(black_box(&src[..size]));
            }),
        ));
        out.push((
            fused,
            gbps(window, size, || {
                black_box(ct_wire::copy_and_checksum(
                    black_box(&src[..size]),
                    &mut dst[..size],
                ));
            }),
        ));
    }
    out.push((
        "ct-wire.internet_checksum.GBps.4k",
        gbps(window, K4, || {
            black_box(ct_wire::internet_checksum(black_box(&src[..K4])));
        }),
    ));
    let cipher = XorStream::new(KEY);
    out.push((
        "ct-crypto.xor.GBps.4k",
        gbps(window, K4, || {
            cipher.apply_in_place(0, black_box(&mut dst[..K4]));
        }),
    ));

    // The four-stage receive chain, one pass and four.
    let record = &src[..RECORD_BYTES];
    let chain = canonical_receive_chain(4, KEY);
    out.push((
        "alf-core.pipeline.integrated4.GBps.64k",
        gbps(window, RECORD_BYTES, || {
            black_box(chain.run_integrated(black_box(record)));
        }),
    ));
    out.push((
        "alf-core.pipeline.layered4.GBps.64k",
        gbps(window, RECORD_BYTES, || {
            black_box(chain.run_layered(black_box(record)));
        }),
    ));

    // Transfer syntaxes, per application byte.
    let words = &gen::u32_arrays(seed, 1, 1, RECORD_WORDS)[0];
    macro_rules! codec {
        ($m:ident, $enc:literal, $dec:literal) => {
            let encoded = $m::encode_u32_array(words);
            assert_eq!($m::decode_u32_array(&encoded).as_deref(), Ok(&words[..]));
            out.push((
                $enc,
                gbps(window, RECORD_BYTES, || {
                    black_box($m::encode_u32_array(black_box(words)));
                }),
            ));
            out.push((
                $dec,
                gbps(window, RECORD_BYTES, || {
                    let _ = black_box($m::decode_u32_array(black_box(&encoded)));
                }),
            ));
        };
    }
    codec!(
        ber,
        "ct-presentation.ber.encode.GBps.64k",
        "ct-presentation.ber.decode.GBps.64k"
    );
    codec!(
        xdr,
        "ct-presentation.xdr.encode.GBps.64k",
        "ct-presentation.xdr.decode.GBps.64k"
    );
    codec!(
        lwts,
        "ct-presentation.lwts.encode.GBps.64k",
        "ct-presentation.lwts.decode.GBps.64k"
    );

    // Control steps on a 16 KiB ADU cut into 1400-byte TUs.
    let adu = WireBuf::from_vec(src[..16 << 10].to_vec());
    let name = AduName::Seq { index: 7 };
    let tus = fragment_adu_buf(1, 7, name, &adu, 1400);
    let tu_msg = Message::Tu(tus[0].clone());
    let tu_frame = WireBuf::from_vec(tu_msg.encode());
    let ack_frame = WireBuf::from_vec(
        Message::Ack {
            assoc: 1,
            ids: vec![7],
            echo: None,
            rwnd: RWND_UNLIMITED,
        }
        .encode(),
    );
    out.push((
        "alf-core.wire.encode_tu_ns",
        ns_per_call(window, || {
            black_box(black_box(&tu_msg).encode());
        }),
    ));
    out.push((
        "alf-core.wire.decode_frame_tu_ns",
        ns_per_call(window, || {
            let _ = black_box(Message::decode_frame(black_box(&tu_frame)));
        }),
    ));
    out.push((
        "alf-core.wire.decode_frame_ack_ns",
        ns_per_call(window, || {
            let _ = black_box(Message::decode_frame(black_box(&ack_frame)));
        }),
    ));

    // One whole ADU through the assembler per call: insert every TU, release.
    let mut adu_id = 0u64;
    let per_adu = ns_per_call(window, || {
        let mut asm = Assembler::new(SimDuration::from_millis(30), 256);
        for tu in &tus {
            let mut tu = tu.clone();
            tu.adu_id = adu_id;
            asm.on_tu(SimTime::ZERO, &tu);
        }
        black_box(asm.pop_ready());
        adu_id += 1;
    });
    out.push(("alf-core.assembler.on_tu_ns", per_adu / tus.len() as f64));

    // Timer wheel: arm + cancel (the ACKed-in-time path), and firing.
    const BATCH: u64 = 256;
    let mut wheel: TimerWheel<u64> = TimerWheel::new(64, SimDuration::from_millis(1));
    let mut t = 0u64;
    let arm_cancel = ns_per_call(window, || {
        for k in 0..BATCH {
            let d = SimTime::from_micros(t + 5_000 + k);
            wheel.insert(d, k);
            black_box(wheel.remove(d, k));
        }
        t += 1;
    });
    out.push(("alf-core.timer.insert_remove_ns", arm_cancel / BATCH as f64));
    let mut wheel: TimerWheel<u64> = TimerWheel::new(64, SimDuration::from_millis(1));
    let mut due = Vec::new();
    let mut now = SimTime::ZERO;
    let fire = ns_per_call(window, || {
        for k in 0..BATCH {
            wheel.insert(now + SimDuration::from_micros(100 + k), k);
        }
        now += SimDuration::from_millis(2);
        due.clear();
        wheel.advance(now, &mut due);
        assert_eq!(due.len() as u64, BATCH);
    });
    out.push(("alf-core.timer.advance_ns", fire / BATCH as f64));

    // One small frame through the simulator: send, event, receive.
    let mut net = Network::new(seed);
    let (a, b) = (net.add_node(), net.add_node());
    net.connect(a, b, LinkConfig::ideal(), FaultConfig::none());
    out.push((
        "ct-netsim.frame_ns",
        ns_per_call(window, || {
            let _ = net.send(a, b, vec![0u8; 64]);
            net.step();
            black_box(net.recv(b));
        }),
    ));
    out
}
