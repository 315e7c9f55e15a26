//! Cross-crate integration: the full receive chain — wire decode → ADU
//! reassembly → integrated stage-2 pipeline → presentation decode — with
//! property tests pinning the integrated execution to the layered one
//! through real wire bytes.

use alf_core::adu::{Adu, AduName};
use alf_core::assembler::Assembler;
use alf_core::pipeline::{canonical_receive_chain, Manipulation, Pipeline};
use alf_core::wire::{fragment_adu_buf, Message};
use ct_crypto::stream::XorStream;
use ct_netsim::time::{SimDuration, SimTime};
use ct_presentation::{fused, TransferSyntax};
use proptest::prelude::*;

/// Encode an ADU's payload (encrypted), fragment it, scramble the TUs,
/// reassemble, and run the integrated stage-2 chain — the whole §6
/// two-stage receive, in miniature.
#[test]
fn two_stage_receive_full_path() {
    let values: Vec<u32> = (0..2000u32).map(|i| i.wrapping_mul(77)).collect();
    // Sender: presentation-encode with fused checksum, then encrypt.
    let (mut wire_body, wire_ck) = fused::xdr_encode_u32s_checksummed(&values);
    let cipher = XorStream::new(0xA11CE);
    cipher.apply_in_place(0, &mut wire_body);

    // Fragment into TUs, encode to wire, shuffle deterministically.
    let name = AduName::Rpc { call: 1, part: 0 };
    let mut tus = fragment_adu_buf(1, 7, name, &wire_body.as_slice().into(), 1000);
    tus.reverse();
    let mid = tus.len() / 2;
    tus.swap(0, mid);

    // Stage 1: reassembly from scrambled TUs (after wire decode).
    let mut asm = Assembler::new(SimDuration::from_millis(10), 16);
    for tu in &tus {
        let frame = tu.encode().into();
        match Message::decode_frame(&frame).expect("clean wire") {
            Message::Tu(tu) => {
                asm.on_tu(SimTime::ZERO, &tu);
            }
            _ => unreachable!(),
        }
    }
    let (id, adu, _) = asm.pop_ready().expect("complete");
    assert_eq!(id, 7);
    assert_eq!(adu.name, name);

    // Stage 2: one integrated pass — checksum the ciphertext? No: decrypt
    // then the presentation layer checks its fused checksum. Here the
    // pipeline decrypts in one pass; XDR decode+verify follows on the
    // plaintext (itself a fused kernel).
    let chain = Pipeline::new().stage(Manipulation::Xor {
        key: 0xA11CE,
        offset: 0,
    });
    chain.check_alf_compatible(&[cipher.constraint()]).unwrap();
    let out = chain.run_integrated(&adu.payload);
    let (decoded, ck_ok) = fused::xdr_decode_u32s_checksummed(&out.data, wire_ck).unwrap();
    assert!(ck_ok, "fused checksum must verify after decrypt");
    assert_eq!(decoded, values);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any ADU payload, fragmented at any MTU and delivered in reverse,
    /// reassembles exactly.
    #[test]
    fn prop_fragment_scramble_reassemble(
        payload in proptest::collection::vec(any::<u8>(), 0..6000),
        mtu in 1usize..1500,
    ) {
        let name = AduName::Seq { index: 1 };
        let mut tus = fragment_adu_buf(1, 1, name, &payload.as_slice().into(), mtu);
        tus.reverse();
        let mut asm = Assembler::new(SimDuration::from_millis(10), 1024);
        for tu in &tus {
            asm.on_tu(SimTime::ZERO, tu);
        }
        let (_, adu, _) = asm.pop_ready().expect("complete");
        prop_assert_eq!(adu.payload, payload);
    }

    /// The canonical integrated chains match layered execution over wire
    /// bytes produced by every transfer syntax — and so does a relay's
    /// chain, which holds two hosted runs: verify and decrypt under one key,
    /// re-encrypt at another stream position under a second, checksum the
    /// new ciphertext. (From two stages up the canonical chain is itself an
    /// `Xor` with riders; `block` puts the relay's second run on and off
    /// the keystream block.)
    #[test]
    fn prop_integrated_chain_over_real_wire(
        values in proptest::collection::vec(any::<u32>(), 0..400),
        key in any::<u64>(),
        n_stages in 1usize..=4,
        offset in any::<u64>(),
        block in any::<bool>(),
    ) {
        let relay = Pipeline::new()
            .stage(Manipulation::Checksum)
            .stage(Manipulation::Xor { key, offset: 0 })
            .stage(Manipulation::Swap32)
            .stage(Manipulation::Copy)
            .stage(Manipulation::Swap32)
            .stage(Manipulation::Xor {
                key: !key,
                offset: if block { offset & !7 } else { offset },
            })
            .stage(Manipulation::Checksum);
        for syntax in [TransferSyntax::Raw, TransferSyntax::Lwts, TransferSyntax::Xdr, TransferSyntax::Ber] {
            let wire = syntax.encode_u32s(&values);
            for chain in [&canonical_receive_chain(n_stages, key), &relay] {
                prop_assert_eq!(chain.run_integrated(&wire), chain.run_layered(&wire));
            }
        }
    }

    /// Reassembly is insertion-order independent: any permutation of TUs
    /// yields the same ADU (modelled with rotations + swaps).
    #[test]
    fn prop_reassembly_order_independent(
        payload in proptest::collection::vec(any::<u8>(), 100..4000),
        rot in 0usize..32,
        swap_a in 0usize..32,
        swap_b in 0usize..32,
    ) {
        let name = AduName::Media { frame: 2, slot: 0 };
        let mut tus = fragment_adu_buf(1, 9, name, &payload.as_slice().into(), 256);
        let n = tus.len();
        let (rot, sa, sb) = (rot % n, swap_a % n, swap_b % n);
        tus.rotate_left(rot);
        tus.swap(sa, sb);
        let mut asm = Assembler::new(SimDuration::from_millis(10), 1024);
        for tu in &tus {
            asm.on_tu(SimTime::ZERO, tu);
        }
        let (_, adu, _) = asm.pop_ready().expect("complete");
        prop_assert_eq!(adu.payload, payload);
    }

    /// Zero-copy invariance: the released ADU bytes are identical under any
    /// fragment arrival permutation and overlap pattern, whether stage 1 is
    /// handed the TUs as cut (payloads viewing the sender's chunk) or as
    /// decoded off the wire (each payload a view into its own frame, so the
    /// release gathers).
    #[test]
    fn prop_release_identical_with_and_without_wirebuf_path(
        payload in proptest::collection::vec(any::<u8>(), 1..4000),
        mtu in 120usize..900,
        extra in proptest::collection::vec((any::<u16>(), 1u16..700), 0..6),
        rot in 0usize..32,
        swap_a in 0usize..32,
        swap_b in 0usize..32,
    ) {
        let name = AduName::Seq { index: 4 };
        let total = payload.len();
        // Base fragmentation guarantees coverage; extra TUs overlap it
        // arbitrarily (retransmission-shaped traffic).
        let mut tus = fragment_adu_buf(1, 4, name, &payload.as_slice().into(), mtu);
        for &(start, len) in &extra {
            let off = start as usize % total;
            let len = (len as usize).min(total - off);
            if len == 0 {
                continue;
            }
            tus.push(alf_core::wire::Tu {
                flags: 0,
                assoc: 1,
                timestamp_us: 0,
                adu_id: 4,
                adu_len: total as u32,
                frag_off: off as u32,
                name,
                payload: payload[off..off + len].to_vec().into(),
            });
        }
        let n = tus.len();
        tus.rotate_left(rot % n);
        tus.swap(swap_a % n, swap_b % n);

        let mut asm_cut = Assembler::new(SimDuration::from_millis(10), 1024);
        let mut asm_wire = Assembler::new(SimDuration::from_millis(10), 1024);
        for tu in &tus {
            asm_cut.on_tu(SimTime::ZERO, tu);
            let frame = tu.encode().into();
            match Message::decode_frame(&frame).expect("clean wire") {
                Message::Tu(tu) => { asm_wire.on_tu(SimTime::ZERO, &tu); }
                _ => unreachable!(),
            }
        }
        let (_, adu_cut, _) = asm_cut.pop_ready().expect("cut path complete");
        let (_, adu_wire, _) = asm_wire.pop_ready().expect("wire path complete");
        prop_assert_eq!(&adu_cut.payload, &payload);
        prop_assert_eq!(&adu_wire.payload, &payload);
        prop_assert_eq!(adu_cut, adu_wire);
        prop_assert!(asm_cut.pop_ready().is_none());
        prop_assert!(asm_wire.pop_ready().is_none());
    }

    /// Duplicated TUs never corrupt reassembly.
    #[test]
    fn prop_duplicates_harmless(
        payload in proptest::collection::vec(any::<u8>(), 1..3000),
        dup_idx in any::<prop::sample::Index>(),
    ) {
        let name = AduName::Seq { index: 3 };
        let tus = fragment_adu_buf(1, 3, name, &payload.as_slice().into(), 512);
        let dup = dup_idx.get(&tus).clone();
        let mut asm = Assembler::new(SimDuration::from_millis(10), 1024);
        asm.on_tu(SimTime::ZERO, &dup);
        for tu in &tus {
            asm.on_tu(SimTime::ZERO, tu);
            asm.on_tu(SimTime::ZERO, tu);
        }
        let (_, adu, _) = asm.pop_ready().expect("complete");
        prop_assert_eq!(adu.payload, payload);
        prop_assert!(asm.pop_ready().is_none(), "only one release");
    }
}

/// An Adu built from pieces equals an Adu built whole (sanity anchoring the
/// two construction paths used across the crates).
#[test]
fn adu_equality_semantics() {
    let a = Adu::new(AduName::Seq { index: 1 }, vec![1, 2, 3]);
    let b = Adu {
        name: AduName::Seq { index: 1 },
        payload: vec![1, 2, 3].into(),
    };
    assert_eq!(a, b);
}

/// Every per-reason rejection counter, the receiver's replay and
/// reassembly counters, and when the transfer finished (in the order the
/// test below lists), for one seeded X12-shaped transfer (6 KiB buffered
/// ADUs, budgeted receiver) through a hostile mutator: truncation,
/// extension, unsealed header flips, replays, random and grammar-correct
/// forgeries.
fn hostile_transfer_verdicts(seed: u64, hostility: f64) -> Vec<u64> {
    use alf_core::driver::workload_payload;
    use alf_core::transport::{AduTransport, AlfConfig, RecoveryMode};
    use ct_netsim::fault::{FaultConfig, MutatorConfig};
    use ct_netsim::link::LinkConfig;
    use ct_netsim::{Pair, Substrate};
    use ct_telemetry::Telemetry;

    const ADUS: u64 = 24;
    let tel = Telemetry::new();
    let cfg = AlfConfig {
        recovery: RecoveryMode::TransportBuffer,
        reassembly_budget_bytes: 96 * 1024,
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
    pair.net
        .set_mutator(pair.node_a, pair.node_b, MutatorConfig::hostile(hostility));
    pair.b.attach_telemetry(tel.clone(), "receiver");
    let expected: Vec<Vec<u8>> = (0..ADUS).map(|i| workload_payload(i, 6 * 1024)).collect();
    let (mut next, mut delivered) = (0u64, 0u64);
    while delivered < ADUS || !pair.a.send_complete() {
        assert!(pair.net.now() < SimTime::from_secs(60), "no convergence");
        while next < ADUS
            && pair
                .a
                .send_adu(
                    AduName::Seq { index: next },
                    expected[next as usize].clone(),
                )
                .is_ok()
        {
            next += 1;
        }
        let moved = pair.exchange();
        while let Some((adu, _)) = pair.b.recv_adu() {
            let AduName::Seq { index } = adu.name else {
                panic!("foreign name {:?}", adu.name);
            };
            assert_eq!(
                adu.payload, expected[index as usize],
                "ADU {index} corrupted"
            );
            delivered += 1;
        }
        assert!(pair.settle(moved, None), "wedged with nothing scheduled");
    }
    let reasons = [
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
    let mut out: Vec<u64> = reasons
        .iter()
        .map(|r| tel.metrics().counter(&format!("alf.rx_rejected.{r}")))
        .collect();
    let s = pair.b.assembler_stats();
    out.extend([
        pair.b.stats().bad_messages,
        pair.b.stats().tus_replayed,
        pair.b.stats.adus_delivered,
        pair.b.stats().tus_backpressured,
        s.tus_in,
        s.duplicate_tus,
        s.adus_abandoned,
        s.tus_refused,
        pair.net.now().as_nanos(),
    ]);
    out
}

/// Placement moved the checksum of every in-order TU into the copy that
/// places it: a frame's verdict must not move with it. The values below
/// were first recorded by running this function on the receiver that
/// verified every frame whole before looking at it, and re-recorded once
/// when the receiver's reassembly sweep began to reach the clock through
/// `next_timeout` (the loop no longer idles past `assembly_timeout`, so
/// the adversary sees a different, shorter exchange).
#[test]
fn hostile_rejections_by_reason_match_the_verify_first_receiver() {
    // Order: the ten `alf.rx_rejected.*` reasons (truncated, unknown_type,
    // bad_checksum, length_mismatch, bad_name, frag_out_of_range,
    // assoc_mismatch, bad_parity, replayed, other), then bad_messages,
    // tus_replayed, adus_delivered, tus_backpressured, the assembler's
    // tus_in, duplicate_tus, adus_abandoned, tus_refused, and the
    // simulated nanosecond the transfer finished.
    let recorded: [(f64, [u64; 19]); 2] = [
        (
            0.15,
            [
                1,
                0,
                76,
                0,
                0,
                0,
                0,
                0,
                7,
                0,
                77,
                7,
                24,
                4,
                144,
                8,
                11,
                4,
                241_951_208,
            ],
        ),
        (
            0.4,
            [
                18,
                0,
                536,
                1,
                0,
                0,
                0,
                0,
                57,
                0,
                555,
                57,
                24,
                78,
                334,
                51,
                142,
                78,
                16_331_062_336,
            ],
        ),
    ];
    for (hostility, want) in recorded {
        let got = hostile_transfer_verdicts(0x0012_5EED, hostility);
        assert_eq!(got, want, "hostility {hostility}");
    }
}
