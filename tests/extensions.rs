//! Cross-crate integration for the extension features: association
//! multiplexing, ADU-level FEC, TU timestamping/jitter, presentation
//! negotiation, streaming decode, and the token-bucket rate limiter —
//! each exercised through the real transports over the real simulator.

use alf_core::adu::AduName;
use alf_core::driver::{run_alf_transfer, seq_workload, Substrate};
use alf_core::transport::{AlfConfig, RecoveryMode};
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::time::SimDuration;
use ct_presentation::negotiate::{negotiate, ConversionPlan, LocalSyntax, SyntaxCaps};
use ct_presentation::stream::BerU32Stream;
use ct_presentation::{ber, TransferSyntax};
use ct_server::star::Star;
use ct_server::{AlfServer, AssocKey, ServerConfig};

#[test]
fn mux_carries_isolated_associations_over_lossy_network() {
    // Three associations share one lossy wire through an AlfServer at each
    // end; every association's data arrives intact and uncrossed. The
    // third recovers by asking its sending application to recompute.
    let snappy = AlfConfig {
        retransmit_timeout: SimDuration::from_millis(5),
        assembly_timeout: SimDuration::from_millis(2),
        ..AlfConfig::default()
    };
    let config_for = |assoc| AlfConfig {
        recovery: if assoc == 30 {
            RecoveryMode::AppRecompute
        } else {
            RecoveryMode::TransportBuffer
        },
        ..snappy
    };
    // Each end knows the other as one peer: a one-spoke star whose hub is
    // the receiving end, as in X13.
    const PEER: u64 = 0;
    let key = |assoc| AssocKey { peer: PEER, assoc };
    let mut a = AlfServer::new(ServerConfig::default());
    let mut b = AlfServer::new(ServerConfig::default());
    for assoc in [10u16, 20, 30] {
        a.add_association(key(assoc), config_for(assoc)).unwrap();
        b.add_association(key(assoc), config_for(assoc)).unwrap();
    }
    // Distinct payload per association.
    let payload_for = |assoc: u16, i: u64| -> Vec<u8> {
        (0..2000)
            .map(|j| (assoc as usize + i as usize * 31 + j) as u8)
            .collect()
    };
    for assoc in [10u16, 20, 30] {
        for i in 0..10u64 {
            a.send_adu(key(assoc), AduName::Seq { index: i }, payload_for(assoc, i))
                .unwrap();
        }
    }
    let mut star = Star::new(61, LinkConfig::lan(), FaultConfig::loss(0.03), b, vec![a]);
    let mut received = 0usize;
    let mut answered = 0u64;
    for _ in 0..1_000_000 {
        let moved = star.exchange();
        // The layout and wakeup invariants, at every step of a star whose
        // senders' first polls (20 TUs each) hit the burst cap of 12, and
        // with no exemption for an ADU waiting on its application.
        for end in std::iter::once(&star.hub).chain(&star.spokes) {
            for i in 0..end.shard_count() {
                end.check_shard_layout(i).expect("layout agrees");
            }
        }
        // The batch that raised a recompute request handed it over; only
        // an answer marks the sender's slot dirty.
        let sender = &mut star.spokes[0];
        for (k, req) in sender.take_recompute_requests() {
            let AduName::Seq { index } = req.name else {
                panic!()
            };
            let ep = sender.endpoint_mut(k).expect("bound");
            assert!(ep.provide_recomputed(req.adu_id, payload_for(k.assoc, index)));
            answered += 1;
        }
        let asked = sender.endpoint(key(30)).expect("bound").stats();
        assert_eq!(asked.recompute_requests, answered, "every request taken");
        for (k, adu, _) in star.hub.take_delivered() {
            let AduName::Seq { index } = adu.name else {
                panic!()
            };
            assert_eq!(adu.payload, payload_for(k.assoc, index), "{k:?}");
            received += 1;
        }
        if received == 30 || !star.settle(moved, None) {
            break;
        }
    }
    assert_eq!(received, 30, "all associations must complete");
    assert!(answered > 0, "the lossy wire cost association 30 a payload");
    assert_eq!(
        star.hub.rollup().counter("misdelivered"),
        0,
        "nothing crosses associations"
    );
}

#[test]
fn fec_over_atm_cells_repairs_without_retransmission() {
    // The real-time profile over the cell substrate: parity repairs what
    // single-cell loss destroys, without any NACK round trip.
    let adus = seq_workload(60, 8400); // 6 TUs each
    let run = |fec_group| {
        let r = run_alf_transfer(
            71,
            LinkConfig::gigabit(),
            FaultConfig::loss(0.0008), // per-cell
            AlfConfig {
                recovery: RecoveryMode::NoRetransmit,
                assembly_timeout: SimDuration::from_millis(10),
                fec_group,
                ..AlfConfig::default()
            },
            Substrate::Atm,
            &adus,
            None,
        );
        assert!(r.verified);
        (r.adus_delivered, r.receiver.fec_reconstructions)
    };
    let (plain, _) = run(0);
    let (with_fec, reconstructions) = run(3);
    assert!(
        with_fec > plain,
        "FEC must lift cell-loss delivery: {with_fec} !> {plain}"
    );
    assert!(reconstructions > 0, "repairs must have happened in place");
}

#[test]
fn negotiated_direct_plan_round_trips_through_transport() {
    // §5 one-step conversion: the sender converts straight into the
    // receiver's local syntax; ADUs cross the network; the receiver does a
    // zero-conversion read.
    let sender_caps = SyntaxCaps::full(LocalSyntax::LittleEndianU32);
    let receiver_caps = SyntaxCaps::full(LocalSyntax::BigEndianU32);
    let plan = negotiate(&sender_caps, &receiver_caps, true).unwrap();
    assert!(matches!(plan, ConversionPlan::Direct { .. }));
    assert_eq!(plan.total_conversion_passes(), 1);

    let values: Vec<u32> = (0..5000u32).map(|i| i.wrapping_mul(97)).collect();
    let wire_bytes = plan.encode_u32s(&values);
    let adus: Vec<alf_core::Adu> = wire_bytes
        .chunks(4000)
        .enumerate()
        .map(|(i, c)| {
            alf_core::Adu::new(
                AduName::FileRange {
                    offset: (i * 4000) as u64,
                },
                c.to_vec(),
            )
        })
        .collect();
    let r = run_alf_transfer(
        81,
        LinkConfig::lan(),
        FaultConfig::loss(0.02),
        AlfConfig {
            retransmit_timeout: SimDuration::from_millis(5),
            assembly_timeout: SimDuration::from_millis(2),
            ..AlfConfig::default()
        },
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(r.complete && r.verified);
    // Receiver-side read: the wire layout IS the receiver's local layout.
    assert_eq!(plan.decode_u32s(&wire_bytes).unwrap(), values);
}

#[test]
fn negotiation_cost_ordering() {
    // Direct ≤ via-LWTS ≤ via-BER in wire-size terms for the benchmark type.
    let values: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(2654435761)).collect();
    let direct = negotiate(
        &SyntaxCaps::full(LocalSyntax::LittleEndianU32),
        &SyntaxCaps::full(LocalSyntax::BigEndianU32),
        true,
    )
    .unwrap();
    let via_ber = ConversionPlan::ViaTransfer {
        syntax: TransferSyntax::Ber,
    };
    assert!(direct.encode_u32s(&values).len() < via_ber.encode_u32s(&values).len());
}

#[test]
fn streaming_decode_consumes_transport_deliveries() {
    // BER stream cut into ADUs, shipped with loss, decoded incrementally
    // from the in-order prefix as ADUs complete — the §5 pipeline in test
    // form (the `pipelined_receiver` example is the narrated version).
    let values: Vec<u32> = (0..30_000u32).map(|i| i ^ 0xA5A5).collect();
    let wire = ber::encode_u32_array(&values);
    let adus: Vec<alf_core::Adu> = wire
        .chunks(8192)
        .enumerate()
        .map(|(i, c)| {
            alf_core::Adu::new(
                AduName::FileRange {
                    offset: (i * 8192) as u64,
                },
                c.to_vec(),
            )
        })
        .collect();
    let r = run_alf_transfer(
        91,
        LinkConfig::lan(),
        FaultConfig::loss(0.02),
        AlfConfig {
            retransmit_timeout: SimDuration::from_millis(5),
            assembly_timeout: SimDuration::from_millis(2),
            fec_group: 4,
            ..AlfConfig::default()
        },
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(r.complete && r.verified);
    // Decode the (now known-intact) stream incrementally, as the receiver
    // application would have.
    let mut dec = BerU32Stream::new();
    let mut got = Vec::new();
    for adu in &adus {
        got.extend(dec.push(&adu.payload).unwrap());
    }
    assert!(dec.is_done());
    assert_eq!(got, values);
}

#[test]
fn rate_limited_link_shapes_throughput() {
    // A token-bucket-limited link caps goodput; the buffered transport
    // still delivers everything, just slower.
    let adus = seq_workload(30, 3000);
    let fast = run_alf_transfer(
        95,
        LinkConfig::lan(),
        FaultConfig::none(),
        AlfConfig::default(),
        Substrate::Packet,
        &adus,
        None,
    );
    let shaped = run_alf_transfer(
        95,
        LinkConfig::lan(),
        FaultConfig::rate_limited(4, SimDuration::from_millis(10)),
        AlfConfig {
            retransmit_timeout: SimDuration::from_millis(30),
            assembly_timeout: SimDuration::from_millis(15),
            ..AlfConfig::default()
        },
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(fast.complete && fast.verified);
    assert!(shaped.complete && shaped.verified, "{shaped:?}");
    assert!(
        shaped.elapsed.as_nanos() > fast.elapsed.as_nanos() * 3,
        "shaping must slow the transfer: {} vs {}",
        shaped.elapsed,
        fast.elapsed
    );
}

#[test]
fn timestamps_survive_the_full_path_and_measure_jitter() {
    let adus = seq_workload(60, 1200); // single-TU ADUs at a steady pace
    let r = run_alf_transfer(
        97,
        LinkConfig::lan(),
        FaultConfig::reordering(0.3, SimDuration::from_millis(1)),
        AlfConfig {
            timestamps: true,
            retransmit_timeout: SimDuration::from_millis(5),
            assembly_timeout: SimDuration::from_millis(2),
            ..AlfConfig::default()
        },
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(r.complete && r.verified);
    assert_eq!(
        r.receiver.timestamped_tus,
        r.receiver.adus_delivered + r.sender.adus_retransmitted
    );
    assert!(
        r.receiver.jitter_us > 10.0,
        "reordering delay must register as jitter, got {}",
        r.receiver.jitter_us
    );
}
