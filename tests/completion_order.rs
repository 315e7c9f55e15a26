//! The completed-ADU queue, pinned from outside.
//!
//! An ADU used to cross two queues between reassembly and the application
//! (`Assembler::ready`, then `AduTransport::deliver`); it now waits in one.
//! Nothing the application can observe may depend on that: which ADUs are
//! delivered, in what order, with what latency and how many of them count
//! as out of order — including when FEC reconstruction completes an ADU in
//! the middle of handling another TU. The scenario below is a seeded
//! erasure-and-reorder storm over an FEC-protected flow; its digest was
//! recorded by running this same file against the two-queue parent.

use alf_core::adu::AduName;
use alf_core::assembler::Assembler;
use alf_core::transport::{AduTransport, AlfConfig, RecoveryMode};
use alf_core::wire::fragment_adu_buf;
use ct_netsim::time::{SimDuration, SimTime};

/// SplitMix64: the storm's only source of randomness.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv(digest: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn payload(index: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (index as usize * 131 + i * 7) as u8)
        .collect()
}

/// Drive `adus` FEC-protected ADUs through `storm`-seeded erasures and
/// reordering; the receiving application drains only once per flight, so
/// completions pile up in the queue. Returns the digest of everything it
/// saw plus the counters that depend on completion order.
fn fec_storm(storm: u64, adus: u64) -> (u64, u64, u64, u64) {
    let cfg = AlfConfig {
        mtu_payload: 500,
        fec_group: 3,
        window_adus: 8,
        recovery: RecoveryMode::TransportBuffer,
        retransmit_timeout: SimDuration::from_millis(4),
        assembly_timeout: SimDuration::from_millis(2),
        ..AlfConfig::default()
    };
    let (mut tx, mut rx) = (AduTransport::new(cfg), AduTransport::new(cfg));
    let mut rng = storm;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut now = SimTime::ZERO;
    let (mut offered, mut delivered) = (0u64, 0u64);
    for _ in 0..200_000 {
        if delivered == adus && tx.send_complete() {
            break;
        }
        now += SimDuration::from_micros(250);
        while offered < adus {
            // 1 to 7 TUs per ADU, so groups end ragged.
            let len = 200 + (next(&mut rng) % 3000) as usize;
            if tx
                .send_adu(AduName::Seq { index: offered }, payload(offered, len))
                .is_err()
            {
                break;
            }
            offered += 1;
        }
        // One flight: erase a sixth of the frames, swap some neighbours.
        let mut flight = tx.poll(now);
        flight.retain(|_| !next(&mut rng).is_multiple_of(6));
        for i in 1..flight.len() {
            if next(&mut rng).is_multiple_of(4) {
                flight.swap(i - 1, i);
            }
        }
        for frame in flight {
            rx.on_frame(now, frame.into());
        }
        // The application looks only now.
        while let Some((adu, latency)) = rx.recv_adu() {
            let AduName::Seq { index } = adu.name else {
                panic!("unexpected name {:?}", adu.name);
            };
            assert_eq!(adu.payload.as_slice(), payload(index, adu.len()));
            fnv(&mut digest, index);
            fnv(&mut digest, latency.as_nanos());
            delivered += 1;
        }
        for frame in rx.poll(now) {
            if !next(&mut rng).is_multiple_of(10) {
                tx.on_frame(now, frame.into());
            }
        }
    }
    assert_eq!(delivered, adus, "storm {storm} did not converge");
    assert_eq!(rx.stats.adus_delivered, adus, "each ADU exactly once");
    (
        digest,
        rx.stats().adus_delivered_out_of_order,
        rx.stats().fec_reconstructions,
        rx.assembler_stats().duplicate_tus,
    )
}

#[test]
fn fec_storm_delivery_matches_the_two_queue_parent() {
    // (digest of (index, latency) in delivery order, out-of-order count,
    // reconstructions, duplicate TUs), recorded on the parent commit.
    assert_eq!(fec_storm(1990, 400), PARENT_1990);
    assert_eq!(fec_storm(7, 400), PARENT_7);
    let (_, out_of_order, reconstructions, _) = PARENT_1990;
    assert!(
        out_of_order > 0 && reconstructions > 0,
        "the storm must bite"
    );
}

const PARENT_1990: (u64, u64, u64, u64) = (3048799867372302470, 75, 190, 5);
const PARENT_7: (u64, u64, u64, u64) = (429378159738064414, 77, 192, 5);

#[test]
fn bare_assembler_yields_the_adu_as_the_benchmark_probe_drives_it() {
    // `benchmark/src/probes.rs`: every TU of one ADU through `on_tu`, then
    // a single `pop_ready` — no transport around it.
    let data = payload(7, 16 << 10);
    let name = AduName::Seq { index: 7 };
    let tus = fragment_adu_buf(1, 7, name, &data.as_slice().into(), 1400);
    let mut asm = Assembler::new(SimDuration::from_millis(30), 256);
    for (i, tu) in tus.iter().enumerate() {
        assert!(asm.on_tu(SimTime::from_micros(i as u64), tu));
    }
    let (id, adu, latency) = asm.pop_ready().expect("complete");
    assert_eq!((id, adu.name), (7, name));
    assert_eq!(adu.payload.as_slice(), &data[..]);
    // First TU at 0 µs, last at 11 µs.
    assert_eq!(latency, SimDuration::from_micros(tus.len() as u64 - 1));
    assert!(asm.pop_ready().is_none());
}
