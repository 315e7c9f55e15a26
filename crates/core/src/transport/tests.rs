use super::*;
use crate::wire::{encode_nack_frags, fragment_adu_buf, WireError};

/// Decode an emitted frame (the one copy is this helper's, not the stack's).
fn decode(frame: &[u8]) -> Result<Message, WireError> {
    Message::decode_frame(&frame.into())
}

fn cfg(recovery: RecoveryMode) -> AlfConfig {
    AlfConfig {
        recovery,
        ..AlfConfig::default()
    }
}

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 13 % 251) as u8).collect()
}

/// Wire both endpoints directly (lossless, zero-delay) until quiet.
fn pump(a: &mut AduTransport, b: &mut AduTransport, mut now: SimTime) -> SimTime {
    for _ in 0..1000 {
        now += SimDuration::from_micros(50);
        let fa = a.poll(now);
        let fb = b.poll(now);
        if fa.is_empty() && fb.is_empty() {
            return now;
        }
        for f in fa {
            b.on_frame(now, f.into());
        }
        for f in fb {
            a.on_frame(now, f.into());
        }
    }
    panic!("did not quiesce");
}

#[test]
fn single_adu_roundtrip() {
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut b = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let data = payload(5000);
    let name = AduName::FileRange { offset: 4096 };
    a.send_adu(name, data.clone()).unwrap();
    pump(&mut a, &mut b, SimTime::ZERO);
    let (adu, _latency) = b.recv_adu().unwrap();
    assert_eq!(adu.name, name);
    assert_eq!(adu.payload, data);
    assert!(a.send_complete(), "ACK must clear the sender buffer");
    assert_eq!(a.retransmit_buffer_bytes(), 0);
}

#[test]
fn many_adus_all_delivered() {
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut b = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut now = SimTime::ZERO;
    let mut delivered = 0;
    for batch in 0..5 {
        for i in 0..20u64 {
            a.send_adu(
                AduName::Seq {
                    index: batch * 20 + i,
                },
                payload(100 + i as usize * 37),
            )
            .unwrap();
        }
        now = pump(&mut a, &mut b, now);
        while b.recv_adu().is_some() {
            delivered += 1;
        }
    }
    assert_eq!(delivered, 100);
    assert_eq!(b.stats.adus_delivered, 100);
}

#[test]
fn window_refuses_when_full() {
    let mut a = AduTransport::new(AlfConfig {
        window_adus: 2,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    a.send_adu(AduName::Seq { index: 0 }, payload(10)).unwrap();
    a.send_adu(AduName::Seq { index: 1 }, payload(10)).unwrap();
    assert_eq!(
        a.send_adu(AduName::Seq { index: 2 }, payload(10)),
        Err(SendRefused::WindowFull)
    );
}

#[test]
fn no_retransmit_mode_has_no_window() {
    let mut a = AduTransport::new(AlfConfig {
        window_adus: 1,
        ..cfg(RecoveryMode::NoRetransmit)
    });
    for i in 0..100 {
        a.send_adu(AduName::Seq { index: i }, payload(10)).unwrap();
    }
    for round in 0..20 {
        let _ = a.poll(SimTime::from_micros(round));
        if a.send_complete() {
            break;
        }
    }
    assert!(a.send_complete(), "fire-and-forget keeps no state");
    assert_eq!(a.retransmit_buffer_bytes(), 0);
}

#[test]
fn buffer_mode_recovers_from_total_loss() {
    // All first-copy TUs vanish. The sender's timeout fires a cheap
    // first-TU probe; the receiver's missing-range NACKs then fetch the
    // rest — the full repair loop, driven by hand.
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut b = AduTransport::new(AlfConfig {
        assembly_timeout: SimDuration::from_millis(5),
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let data = payload(2000); // 2 TUs
    a.send_adu(AduName::Seq { index: 0 }, data.clone()).unwrap();
    let lost = a.poll(SimTime::ZERO);
    assert_eq!(lost.len(), 2); // dropped on the floor
                               // Timeout: probe goes out.
    let t1 = SimTime::from_millis(100);
    let probe = a.poll(t1);
    assert_eq!(probe.len(), 1, "first-TU probe only");
    assert_eq!(a.stats().probe_tus, 1);
    for f in probe {
        b.on_frame(t1, f.into());
    }
    // Receiver now has 1400/2000 bytes; its deadline expires and it
    // NACKs the missing range.
    let t2 = SimTime::from_millis(110);
    let nacks = b.poll(t2);
    assert_eq!(nacks.len(), 1);
    for f in nacks {
        a.on_frame(t2, f.into());
    }
    let repair = a.poll(t2);
    assert_eq!(repair.len(), 1, "just the missing fragment");
    assert_eq!(a.stats().tus_retransmitted_selective, 1);
    for f in repair {
        b.on_frame(t2, f.into());
    }
    let (adu, _) = b.recv_adu().unwrap();
    assert_eq!(adu.payload, data);
}

#[test]
fn single_tu_adu_timeout_resends_whole() {
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    a.send_adu(AduName::Seq { index: 0 }, payload(500)).unwrap();
    let _ = a.poll(SimTime::ZERO);
    let retx = a.poll(SimTime::from_millis(100));
    assert_eq!(retx.len(), 1);
    assert_eq!(a.stats().adus_retransmitted, 1);
    assert_eq!(a.stats().probe_tus, 0);
}

#[test]
fn recompute_mode_asks_application() {
    let mut a = AduTransport::new(cfg(RecoveryMode::AppRecompute));
    let mut b = AduTransport::new(cfg(RecoveryMode::AppRecompute));
    let data = payload(900);
    let id = a
        .send_adu(AduName::Rpc { call: 1, part: 0 }, data.clone())
        .unwrap();
    let _lost = a.poll(SimTime::ZERO); // dropped on the floor
    assert_eq!(
        a.retransmit_buffer_bytes(),
        0,
        "recompute mode buffers nothing"
    );
    // Timeout fires: transport must ask the app, not retransmit.
    let later = SimTime::from_millis(100);
    let out = a.poll(later);
    assert!(out.is_empty(), "nothing to send without the payload");
    // The waiting request is work due since the timer fired.
    assert_eq!(a.next_timeout(), Some(later));
    let reqs = a.take_recompute_requests();
    assert_eq!(reqs.len(), 1);
    assert_eq!(reqs[0].adu_id, id);
    assert_eq!(reqs[0].name, AduName::Rpc { call: 1, part: 0 });
    // Taken, it is not; the ADU keeps its retransmission deadline.
    assert!(a.next_timeout().is_some_and(|t| t > later));
    // App regenerates the data.
    assert!(a.provide_recomputed(id, data.clone()));
    let retx = a.poll(later);
    assert!(!retx.is_empty());
    for f in retx {
        b.on_frame(later, f.into());
    }
    let (adu, _) = b.recv_adu().unwrap();
    assert_eq!(adu.payload, data);
}

#[test]
fn unanswered_recompute_request_times_out() {
    // The application is asked once; a question it never answers times
    // out like an unacknowledged send.
    let mut a = AduTransport::new(AlfConfig {
        max_retries: 2,
        ..cfg(RecoveryMode::AppRecompute)
    });
    let name = AduName::Rpc { call: 7, part: 0 };
    let id = a.send_adu(name, payload(900)).unwrap();
    let _lost = a.poll(SimTime::ZERO); // dropped on the floor
    let mut asked = 0;
    for _ in 0..10 {
        let Some(now) = a.next_timeout() else {
            break;
        };
        assert!(
            a.poll(now).is_empty(),
            "nothing to send without the payload"
        );
        asked += a.take_recompute_requests().len();
    }
    assert_eq!(asked, 1, "asked once");
    assert_eq!(a.take_loss_reports(), [LossReport { adu_id: id, name }]);
    assert!(a.send_complete());
    assert_eq!(a.next_timeout(), None);
    assert_eq!(a.stats().adus_given_up, 1);
    assert!(!a.provide_recomputed(id, payload(900)), "a late answer");
}

#[test]
fn sender_gives_up_and_reports_by_name() {
    let mut a = AduTransport::new(AlfConfig {
        max_retries: 2,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let name = AduName::Media { frame: 9, slot: 1 };
    a.send_adu(name, payload(100)).unwrap();
    let mut now = SimTime::ZERO;
    // Let every (re)transmission vanish. The horizon covers the
    // per-ADU backoff *and* the global consecutive-timeout backoff
    // that stretches each RTO while no ACKs arrive.
    for _ in 0..15 {
        now += SimDuration::from_millis(100);
        let _ = a.poll(now);
    }
    let losses = a.take_loss_reports();
    assert_eq!(losses.len(), 1);
    assert_eq!(losses[0].name, name, "loss reported in application terms");
    assert!(a.send_complete());
    assert_eq!(a.stats().adus_given_up, 1);
}

#[test]
fn out_of_order_delivery_counted() {
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut b = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    a.send_adu(AduName::Seq { index: 0 }, payload(3000))
        .unwrap();
    a.send_adu(AduName::Seq { index: 1 }, payload(500)).unwrap();
    let frames = a.poll(SimTime::ZERO);
    // ADU 0 = 3 TUs, ADU 1 = 1 TU. Drop ADU 0's first TU initially.
    assert_eq!(frames.len(), 4);
    let now = SimTime::from_micros(10);
    b.on_frame(now, frames[1].as_slice().into());
    b.on_frame(now, frames[2].as_slice().into());
    b.on_frame(now, frames[3].as_slice().into()); // ADU 1 completes first
    let (adu, _) = b.recv_adu().unwrap();
    assert_eq!(adu.name, AduName::Seq { index: 1 });
    // Now ADU 0's missing TU arrives.
    b.on_frame(SimTime::from_micros(20), frames[0].as_slice().into());
    let (adu0, _) = b.recv_adu().unwrap();
    assert_eq!(adu0.name, AduName::Seq { index: 0 });
    assert_eq!(b.stats().adus_delivered_out_of_order, 1);
}

#[test]
fn nack_triggers_selective_recovery() {
    let mut a = AduTransport::new(AlfConfig {
        retransmit_timeout: SimDuration::from_secs(10), // timer too slow to matter
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let mut b = AduTransport::new(AlfConfig {
        assembly_timeout: SimDuration::from_millis(5),
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let data = payload(3000); // 3 TUs at the default 1400-byte MTU
    a.send_adu(AduName::Seq { index: 0 }, data.clone()).unwrap();
    let frames = a.poll(SimTime::ZERO);
    assert_eq!(frames.len(), 3);
    // Deliver only the first TU: b starts an assembly that will expire.
    b.on_frame(SimTime::from_micros(10), frames[0].as_slice().into());
    let nacks = b.poll(SimTime::from_millis(10));
    assert!(!nacks.is_empty(), "expired assembly must be NACKed");
    for f in nacks {
        a.on_frame(SimTime::from_millis(10), f.into());
    }
    // The first recovery round is selective: only the two missing TUs
    // are resent, not the whole ADU.
    let retx = a.poll(SimTime::from_millis(10));
    assert_eq!(retx.len(), 2, "exactly the missing fragments");
    assert_eq!(a.stats().tus_retransmitted_selective, 2);
    assert_eq!(a.stats().adus_retransmitted, 0);
    for f in retx {
        b.on_frame(SimTime::from_millis(11), f.into());
    }
    let (adu, _) = b.recv_adu().expect("completed after selective repair");
    assert_eq!(adu.payload, data);
}

/// `next_timeout`'s combinator against the array-flatten-min it replaced,
/// on all 64 Some/None patterns of its six terms: each term the minimum in
/// turn, pairs tied, and all six tied.
#[test]
fn earliest_matches_flatten_min_on_every_pattern() {
    let orders: [[u64; 6]; 8] = [
        [1, 2, 3, 4, 5, 6],
        [6, 5, 4, 3, 2, 1],
        [2, 1, 3, 4, 5, 6],
        [3, 4, 1, 2, 6, 5],
        [4, 3, 2, 1, 6, 5],
        [5, 6, 4, 3, 1, 2],
        [2, 2, 1, 1, 3, 3],
        [7, 7, 7, 7, 7, 7],
    ];
    for ms in orders {
        for mask in 0u32..64 {
            let t: [Option<SimTime>; 6] =
                std::array::from_fn(|i| (mask >> i & 1 == 1).then(|| SimTime::from_millis(ms[i])));
            let want = t.into_iter().flatten().min();
            assert_eq!(
                earliest(t[0], t[1], t[2], t[3], t[4], t[5]),
                want,
                "{ms:?} mask {mask:06b}"
            );
        }
    }
}

/// The reassembly sweep reaches the clock. With only the first TU of a
/// 3-TU ADU held, `next_timeout` names the instant a poll acts at: each of
/// `nack_frag_rounds` selective NACK rounds, then abandonment with a
/// whole-ADU NACK, after which nothing is held and nothing is scheduled. A
/// NoRetransmit receiver asks for no repair its sender would never send:
/// it abandons at its first deadline.
#[test]
fn selective_rounds_exhaust_to_whole_adu_nack() {
    for (recovery, selective) in [
        (RecoveryMode::TransportBuffer, 2),
        (RecoveryMode::NoRetransmit, 0),
    ] {
        let mut b = AduTransport::new(AlfConfig {
            assembly_timeout: SimDuration::from_millis(5),
            nack_frag_rounds: 2,
            ..cfg(recovery)
        });
        let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
        a.send_adu(AduName::Seq { index: 0 }, payload(3000))
            .unwrap();
        let frames = a.poll(SimTime::ZERO);
        b.on_frame(SimTime::from_micros(10), frames[0].as_slice().into());
        assert!(b.reassembly_bytes() > 0);
        for round in 1..=selective + 1 {
            let at = b
                .next_timeout()
                .expect("a held partial ADU reports its sweep");
            let out = b.poll(at);
            assert_eq!(
                out.len(),
                1,
                "{recovery:?} round {round}: the poll at {at:?} acts"
            );
            match decode(&out[0]).unwrap() {
                Message::NackFrags { ranges, .. } if round <= selective => {
                    assert_eq!(ranges, vec![(1400, 1600)]);
                }
                Message::Nack { ids, .. } if round == selective + 1 => {
                    assert_eq!(ids, vec![0]);
                }
                other => panic!("{recovery:?} round {round}: unexpected {other:?}"),
            }
        }
        assert_eq!(b.assembler_stats().adus_abandoned, 1);
        assert_eq!(b.reassembly_bytes(), 0);
        assert_eq!(b.next_timeout(), None);
    }
}

/// A receiver asking for the rest of an ADU is alive and holding part of
/// it: answering it is not charged to `max_retries`. The allowance is what
/// an honest receiver can ask for (`nack_frag_rounds` per loss event);
/// past it every further request is charged, so a forged stream of them
/// still ends in a loss report.
#[test]
fn selective_repairs_are_not_charged_to_the_give_up_budget() {
    let mut a = AduTransport::new(AlfConfig {
        max_retries: 2,
        nack_frag_rounds: 3,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    a.send_adu(AduName::Seq { index: 0 }, payload(3000))
        .unwrap();
    assert_eq!(a.poll(SimTime::ZERO).len(), 3);
    let nack = crate::wire::Message::NackFrags {
        assoc: 1,
        adu_id: 0,
        ranges: vec![(1400, 1400)],
    }
    .encode();
    // 2 x 3 requests are answered, one repair TU each, and none of them
    // brings the ADU nearer to being given up.
    for round in 1..=6u64 {
        let now = SimTime::from_micros(100 * round);
        a.on_frame(now, nack.clone().into());
        assert_eq!(a.poll(now).len(), 1, "round {round} repaired");
    }
    assert_eq!(a.stats().tus_retransmitted_selective, 6);
    assert_eq!(a.stats().adus_given_up, 0);
    assert!(!a.send_complete());
    // The next two are loss events (a first-TU probe each), the third
    // finds the budget spent.
    for round in 7..=9u64 {
        let now = SimTime::from_micros(100 * round);
        a.on_frame(now, nack.clone().into());
        let _ = a.poll(now);
    }
    assert_eq!(a.stats().tus_retransmitted_selective, 6);
    assert_eq!(a.stats().probe_tus, 2);
    assert_eq!(a.stats().adus_given_up, 1);
    assert_eq!(a.take_loss_reports().len(), 1);
    assert!(a.send_complete());
}

/// Satellite of the zero-copy PR: a repair request whose range falls
/// outside the ADU we declared is a protocol error — counted and
/// refused, never silently clamped into a plausible-looking repair.
#[test]
fn out_of_range_repair_request_rejected_and_counted() {
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    a.send_adu(AduName::Seq { index: 0 }, payload(3000))
        .unwrap();
    let frames = a.poll(SimTime::ZERO);
    assert_eq!(frames.len(), 3, "all TUs released");
    // Forged/corrupted selective NACK: offset at the total, end past
    // the total, and an empty range. None may produce a repair.
    let bad = crate::wire::Message::NackFrags {
        assoc: 1,
        adu_id: 0,
        ranges: vec![(3000, 100), (2900, 200), (0, 0)],
    }
    .encode();
    a.on_frame(SimTime::from_millis(1), bad.into());
    assert_eq!(a.stats().nack_range_errors, 3);
    assert_eq!(a.stats().tus_retransmitted_selective, 0);
    assert!(
        a.poll(SimTime::from_millis(1)).is_empty(),
        "rejected ranges must not be answered"
    );
    // A mixed request still repairs its valid range — per-range
    // rejection, not per-message.
    let mixed = crate::wire::Message::NackFrags {
        assoc: 1,
        adu_id: 0,
        ranges: vec![(u32::MAX - 7, 8), (0, 1400)],
    }
    .encode();
    a.on_frame(SimTime::from_millis(2), mixed.into());
    assert_eq!(a.stats().nack_range_errors, 4);
    assert_eq!(a.stats().tus_retransmitted_selective, 1);
    assert_eq!(a.poll(SimTime::from_millis(2)).len(), 1);
}

#[test]
fn bidirectional_adu_exchange() {
    // Both ends send ADUs at once over the same association: data TUs
    // and control messages interleave without interference.
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut b = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    for i in 0..10u64 {
        a.send_adu(AduName::Seq { index: i }, payload(2000 + i as usize))
            .unwrap();
        b.send_adu(
            AduName::Media {
                frame: i as u32,
                slot: 0,
            },
            payload(900 + i as usize),
        )
        .unwrap();
    }
    pump(&mut a, &mut b, SimTime::ZERO);
    let mut from_a = 0;
    while let Some((adu, _)) = b.recv_adu() {
        assert!(matches!(adu.name, AduName::Seq { .. }));
        from_a += 1;
    }
    let mut from_b = 0;
    while let Some((adu, _)) = a.recv_adu() {
        assert!(matches!(adu.name, AduName::Media { .. }));
        from_b += 1;
    }
    assert_eq!(from_a, 10);
    assert_eq!(from_b, 10);
    assert!(a.send_complete() && b.send_complete());
}

#[test]
fn corrupt_messages_counted() {
    let mut b = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    b.on_frame(SimTime::ZERO, [0u8; 40].into());
    b.on_frame(SimTime::ZERO, [1u8, 2, 3].into());
    assert_eq!(b.stats().bad_messages, 2);
}

#[test]
fn wrong_assoc_ignored() {
    let mut a = AduTransport::new(AlfConfig {
        assoc: 1,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let mut b = AduTransport::new(AlfConfig {
        assoc: 2,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    a.send_adu(AduName::Seq { index: 0 }, payload(10)).unwrap();
    for f in a.poll(SimTime::ZERO) {
        b.on_frame(SimTime::ZERO, f.into());
    }
    assert!(b.recv_adu().is_none());
}

#[test]
fn fec_repairs_single_tu_loss_without_retransmission() {
    let mut a = AduTransport::new(AlfConfig {
        fec_group: 4,
        recovery: RecoveryMode::NoRetransmit,
        ..cfg(RecoveryMode::NoRetransmit)
    });
    let mut b = AduTransport::new(cfg(RecoveryMode::NoRetransmit));
    let data = payload(4000); // 3 data TUs
    a.send_adu(AduName::Seq { index: 0 }, data.clone()).unwrap();
    let frames = a.poll(SimTime::ZERO);
    assert_eq!(frames.len(), 4, "3 data + 1 parity");
    assert_eq!(a.stats().fec_parity_sent, 1);
    // Drop one data TU (the middle one); parity travels last.
    for (i, f) in frames.iter().enumerate() {
        if i == 1 {
            continue;
        }
        b.on_frame(SimTime::from_micros(i as u64), f.as_slice().into());
    }
    let (adu, _) = b.recv_adu().expect("FEC must complete the ADU");
    assert_eq!(adu.payload, data);
    assert_eq!(b.stats().fec_reconstructions, 1);
}

#[test]
fn fec_parity_loss_harmless() {
    let mut a = AduTransport::new(AlfConfig {
        fec_group: 4,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let mut b = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let data = payload(4000);
    a.send_adu(AduName::Seq { index: 0 }, data.clone()).unwrap();
    let frames = a.poll(SimTime::ZERO);
    // Drop the parity (last frame), deliver all data.
    for f in &frames[..frames.len() - 1] {
        b.on_frame(SimTime::ZERO, f.as_slice().into());
    }
    let (adu, _) = b.recv_adu().unwrap();
    assert_eq!(adu.payload, data);
    assert_eq!(b.stats().fec_reconstructions, 0);
}

#[test]
fn fec_two_losses_fall_back_to_retransmission() {
    let mut a = AduTransport::new(AlfConfig {
        fec_group: 4,
        retransmit_timeout: SimDuration::from_millis(5),
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let mut b = AduTransport::new(AlfConfig {
        assembly_timeout: SimDuration::from_millis(2),
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let data = payload(4000);
    a.send_adu(AduName::Seq { index: 0 }, data.clone()).unwrap();
    let frames = a.poll(SimTime::ZERO);
    // Drop two data TUs: parity can't help; NACK path must.
    b.on_frame(SimTime::ZERO, frames[0].as_slice().into()); // first data TU
    b.on_frame(SimTime::ZERO, frames[3].as_slice().into()); // parity (travels last)
    assert!(b.recv_adu().is_none());
    let nacks = b.poll(SimTime::from_millis(5));
    assert!(!nacks.is_empty());
    for f in nacks {
        a.on_frame(SimTime::from_millis(5), f.into());
    }
    for f in a.poll(SimTime::from_millis(5)) {
        b.on_frame(SimTime::from_millis(6), f.into());
    }
    let (adu, _) = b.recv_adu().expect("selective repair completes it");
    assert_eq!(adu.payload, data);
}

#[test]
fn timestamps_off_by_default_zero_jitter() {
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut b = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    a.send_adu(AduName::Seq { index: 0 }, payload(3000))
        .unwrap();
    for (i, f) in a.poll(SimTime::ZERO).iter().enumerate() {
        b.on_frame(SimTime::from_micros(100 * i as u64), f.as_slice().into());
    }
    assert_eq!(b.stats().timestamped_tus, 0);
    assert_eq!(b.stats().jitter_us, 0.0);
}

#[test]
fn steady_arrivals_converge_to_low_jitter() {
    let mut a = AduTransport::new(AlfConfig {
        timestamps: true,
        ..cfg(RecoveryMode::NoRetransmit)
    });
    let mut b = AduTransport::new(cfg(RecoveryMode::NoRetransmit));
    // Send many single-TU ADUs stamped at a perfectly regular cadence,
    // delivered with constant latency: D = 0 every step.
    for i in 0..50u64 {
        let t = SimTime::from_micros(i * 1000);
        a.send_adu(AduName::Seq { index: i }, payload(100)).unwrap();
        for f in a.poll(t) {
            b.on_frame(t + SimDuration::from_micros(40), f.into());
        }
    }
    assert_eq!(b.stats().timestamped_tus, 50);
    assert!(
        b.stats().jitter_us < 1.0,
        "constant transit must give ~zero jitter, got {}",
        b.stats().jitter_us
    );
}

#[test]
fn variable_delay_raises_jitter() {
    let mut a = AduTransport::new(AlfConfig {
        timestamps: true,
        ..cfg(RecoveryMode::NoRetransmit)
    });
    let mut b = AduTransport::new(cfg(RecoveryMode::NoRetransmit));
    for i in 0..50u64 {
        let t = SimTime::from_micros(i * 1000);
        a.send_adu(AduName::Seq { index: i }, payload(100)).unwrap();
        // Alternate 40 µs and 640 µs transit: |D| = 600 µs.
        let transit = if i % 2 == 0 { 40 } else { 640 };
        for f in a.poll(t) {
            b.on_frame(t + SimDuration::from_micros(transit), f.into());
        }
    }
    assert!(
        b.stats().jitter_us > 100.0,
        "alternating transit must register, got {}",
        b.stats().jitter_us
    );
}

#[test]
fn probe_retransmission_carries_timestamp_when_configured() {
    // Regression: the timeout probe used to go out with flags 0 and
    // timestamp 0 even under `timestamps: true`, leaving a hole in the
    // receiver's jitter series.
    let mut a = AduTransport::new(AlfConfig {
        timestamps: true,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    a.send_adu(AduName::Seq { index: 0 }, payload(2000))
        .unwrap(); // 2 TUs
    let _lost = a.poll(SimTime::ZERO);
    let t1 = SimTime::from_millis(100);
    let probe = a.poll(t1);
    assert_eq!(probe.len(), 1);
    assert_eq!(a.stats().probe_tus, 1);
    let Ok(Message::Tu(tu)) = decode(&probe[0]) else {
        panic!("probe must decode as a TU");
    };
    assert_ne!(tu.flags & TU_FLAG_TIMESTAMP, 0, "probe must be stamped");
    assert_eq!(tu.timestamp_us, micros_wrapping(t1));
}

#[test]
fn selective_repair_tus_carry_timestamps_when_configured() {
    let mut a = AduTransport::new(AlfConfig {
        timestamps: true,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let mut b = AduTransport::new(AlfConfig {
        assembly_timeout: SimDuration::from_millis(5),
        ..cfg(RecoveryMode::TransportBuffer)
    });
    a.send_adu(AduName::Seq { index: 0 }, payload(3000))
        .unwrap(); // 3 TUs
    let frames = a.poll(SimTime::ZERO);
    b.on_frame(SimTime::from_micros(10), frames[0].as_slice().into());
    let nacks = b.poll(SimTime::from_millis(10));
    for f in nacks {
        a.on_frame(SimTime::from_millis(10), f.into());
    }
    let t = SimTime::from_millis(10);
    let repairs = a.poll(t);
    assert_eq!(repairs.len(), 2);
    for f in &repairs {
        let Ok(Message::Tu(tu)) = decode(f) else {
            panic!("repair must decode as a TU");
        };
        assert_ne!(tu.flags & TU_FLAG_TIMESTAMP, 0, "repair must be stamped");
        assert_eq!(tu.timestamp_us, micros_wrapping(t));
    }
}

#[test]
fn rtt_sampling_survives_microsecond_clock_wrap() {
    // Start just shy of the 32-bit µs wrap (~71.6 minutes in) and run
    // the echo loop across it: samples must stay small and sane, not
    // jump by ~2^32 µs.
    let mut a = AduTransport::new(AlfConfig {
        adaptive: true,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let mut b = AduTransport::new(AlfConfig {
        adaptive: true,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let mut now = SimTime::from_micros((1u64 << 32) - 300);
    for i in 0..10u64 {
        a.send_adu(AduName::Seq { index: i }, payload(400)).unwrap();
        now += SimDuration::from_micros(100);
        for f in a.poll(now) {
            b.on_frame(now + SimDuration::from_micros(50), f.into());
        }
        now += SimDuration::from_micros(100);
        for f in b.poll(now) {
            a.on_frame(now + SimDuration::from_micros(50), f.into());
        }
    }
    // The wrap falls inside the second iteration; well over half the
    // exchanges complete across it (the rest queue behind the
    // delivery-rate pacer, which is orthogonal to this test).
    assert!(
        a.stats().rtt_samples >= 5,
        "echoes must keep flowing across the wrap"
    );
    assert!(
        a.stats().srtt_us > 0.0 && a.stats().srtt_us < 10_000.0,
        "srtt must stay near the real ~100 µs RTT, got {}",
        a.stats().srtt_us
    );
}

#[test]
fn jitter_estimator_survives_microsecond_clock_wrap() {
    let mut a = AduTransport::new(AlfConfig {
        timestamps: true,
        ..cfg(RecoveryMode::NoRetransmit)
    });
    let mut b = AduTransport::new(cfg(RecoveryMode::NoRetransmit));
    // Constant 40 µs transit across the 2^32 µs wrap: jitter stays ~0.
    for i in 0..50u64 {
        let t = SimTime::from_micros((1u64 << 32) - 25_000 + i * 1000);
        a.send_adu(AduName::Seq { index: i }, payload(100)).unwrap();
        for f in a.poll(t) {
            b.on_frame(t + SimDuration::from_micros(40), f.into());
        }
    }
    assert_eq!(b.stats().timestamped_tus, 50);
    assert!(
        b.stats().jitter_us < 1.0,
        "the wrap must not spike the jitter estimate, got {}",
        b.stats().jitter_us
    );
}

#[test]
fn adaptive_rto_tracks_measured_rtt() {
    let mut a = AduTransport::new(AlfConfig {
        adaptive: true,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let mut b = AduTransport::new(AlfConfig {
        adaptive: true,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    for i in 0..20u64 {
        a.send_adu(AduName::Seq { index: i }, payload(500)).unwrap();
    }
    pump(&mut a, &mut b, SimTime::ZERO);
    assert!(a.stats().rtt_samples > 0, "echoes must produce samples");
    assert!(a.stats().rto_us >= 500.0, "RTO is clamped at rto_min");
    assert!(
        a.stats().rto_us < 50_000.0,
        "adaptive RTO must sit far below the fixed 50 ms default, got {} µs",
        a.stats().rto_us
    );
}

#[test]
fn cwnd_halves_on_loss_and_regrows_on_acks() {
    let mut a = AduTransport::new(AlfConfig {
        adaptive: true,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let mut b = AduTransport::new(AlfConfig {
        adaptive: true,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let mut now = SimTime::ZERO;
    // Clean exchange grows the window past its initial value.
    for i in 0..30u64 {
        a.send_adu(AduName::Seq { index: i }, payload(200)).unwrap();
    }
    now = pump(&mut a, &mut b, now);
    let grown = a.stats().cwnd_adus;
    assert!(
        grown > CWND_INIT_ADUS,
        "clean ACKs must grow cwnd, got {grown}"
    );
    assert_eq!(a.stats().loss_events, 0);
    // Lose a transmission outright: the timeout is a loss event.
    a.send_adu(AduName::Seq { index: 99 }, payload(200))
        .unwrap();
    let _lost = a.poll(now); // dropped on the floor
    now += SimDuration::from_millis(200);
    let retx = a.poll(now);
    assert_eq!(a.stats().loss_events, 1);
    let halved = a.stats().cwnd_adus;
    assert!(
        halved <= grown / 2.0 + 1e-9,
        "multiplicative decrease: {halved} !<= {grown}/2"
    );
    // Recovery: deliver the retransmission, keep exchanging cleanly.
    for f in retx {
        b.on_frame(now, f.into());
    }
    now = pump(&mut a, &mut b, now);
    for i in 100..130u64 {
        a.send_adu(AduName::Seq { index: i }, payload(200)).unwrap();
    }
    pump(&mut a, &mut b, now);
    assert!(
        a.stats().cwnd_adus > halved,
        "cwnd must regrow after recovery: {} !> {halved}",
        a.stats().cwnd_adus
    );
    assert!(a.stats().cwnd_peak_adus >= grown);
}

#[test]
fn no_retransmit_ignores_congestion_window() {
    // Real-time flows have no ACK clock; adaptive mode must not gate
    // them behind a window that can never grow.
    let mut a = AduTransport::new(AlfConfig {
        adaptive: true,
        ..cfg(RecoveryMode::NoRetransmit)
    });
    for i in 0..100 {
        a.send_adu(AduName::Seq { index: i }, payload(10)).unwrap();
    }
    let mut sent = 0;
    for round in 0..20 {
        sent += a.poll(SimTime::from_micros(round)).len();
        if a.send_complete() {
            break;
        }
    }
    assert_eq!(sent, 100, "fire-and-forget must not be ACK-clocked");
    assert!(a.send_complete());
}

#[test]
fn adaptive_off_leaves_fixed_timers_in_force() {
    // With `adaptive: false`, an arriving echo feeds the estimator (for
    // observability) but the RTO stays the configured fixed value.
    let mut a = AduTransport::new(AlfConfig {
        timestamps: true,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let mut b = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut now = SimTime::ZERO;
    for i in 0..5u64 {
        a.send_adu(AduName::Seq { index: i }, payload(100)).unwrap();
    }
    now = pump(&mut a, &mut b, now);
    assert!(a.stats().rtt_samples > 0, "echoes still observed when off");
    assert_eq!(a.stats().loss_events, 0);
    assert_eq!(
        a.stats().cwnd_adus,
        CWND_INIT_ADUS,
        "cwnd untouched when off"
    );
    // A fresh ADU lost on the floor must wait the full fixed timeout.
    a.send_adu(AduName::Seq { index: 9 }, payload(100)).unwrap();
    let _lost = a.poll(now);
    let before = now + SimDuration::from_millis(49);
    assert!(a.poll(before).is_empty(), "fixed 50 ms RTO still in force");
    let after = now + SimDuration::from_millis(51);
    assert!(!a.poll(after).is_empty());
}

#[test]
fn delivery_latency_recorded() {
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut b = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    a.send_adu(AduName::Seq { index: 0 }, payload(3000))
        .unwrap();
    let frames = a.poll(SimTime::ZERO);
    b.on_frame(SimTime::from_millis(1), frames[0].as_slice().into());
    b.on_frame(SimTime::from_millis(2), frames[1].as_slice().into());
    b.on_frame(SimTime::from_millis(4), frames[2].as_slice().into());
    let (_, latency) = b.recv_adu().unwrap();
    assert_eq!(latency, SimDuration::from_millis(3));
    assert_eq!(b.stats.delivery_latency_max, SimDuration::from_millis(3));
}

// ------------------------------------------------------------------
// Flow control, backpressure, partition survival
// ------------------------------------------------------------------

#[test]
fn acks_advertise_receiver_window() {
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut b = AduTransport::new(AlfConfig {
        reassembly_budget_bytes: 64 * 1024,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    a.send_adu(AduName::Seq { index: 0 }, payload(1000))
        .unwrap();
    let frames = a.poll(SimTime::ZERO);
    for f in &frames {
        b.on_frame(SimTime::ZERO, f.as_slice().into());
    }
    let out = b.poll(SimTime::from_micros(10));
    let ack = out
        .iter()
        .find_map(|f| match decode(f) {
            Ok(Message::Ack { ids, rwnd, .. }) => Some((ids, rwnd)),
            _ => None,
        })
        .expect("an ACK");
    assert_eq!(ack.0, vec![0]);
    // The ADU completed and was released: the whole budget is free.
    assert_eq!(ack.1, 64 * 1024);
    // An endpoint without a budget advertises an unlimited window.
    let mut c = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    c.on_frame(SimTime::ZERO, frames[0].as_slice().into());
    let out = c.poll(SimTime::from_micros(10));
    let rwnd = out
        .iter()
        .find_map(|f| match decode(f) {
            Ok(Message::Ack { rwnd, .. }) => Some(rwnd),
            _ => None,
        })
        .expect("an ACK");
    assert_eq!(rwnd, RWND_UNLIMITED);
}

#[test]
fn backpressure_never_exceeds_budget_and_recovers() {
    const BUDGET: usize = 8 * 1024;
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut b = AduTransport::new(AlfConfig {
        reassembly_budget_bytes: BUDGET,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    // Far more in flight than the receiver can hold at once, with the
    // final TU of each ADU lost on first transmission so assemblies
    // pile up incomplete — the condition that actually squeezes the
    // budget and forces refusals.
    let mut sent = Vec::new();
    for i in 0..6u64 {
        let data = payload(3000 + i as usize);
        a.send_adu(AduName::Seq { index: i }, data.clone()).unwrap();
        sent.push(data);
    }
    let mut now = SimTime::ZERO;
    let mut got = Vec::new();
    let mut tail_drops = 0;
    for _ in 0..30_000 {
        now += SimDuration::from_micros(50);
        let fa = a.poll(now);
        let fb = b.poll(now);
        for f in fa {
            if tail_drops < 6 {
                if let Ok(Message::Tu(tu)) = decode(&f) {
                    if tu.frag_off > 0
                        && tu.frag_off as usize + tu.payload.len() == tu.adu_len as usize
                    {
                        tail_drops += 1;
                        continue; // the network eats the closing TU
                    }
                }
            }
            b.on_frame(now, f.into());
        }
        for f in fb {
            a.on_frame(now, f.into());
        }
        // The invariant the budget exists to enforce:
        assert!(
            b.reassembly_bytes() <= BUDGET,
            "reassembly {} exceeds budget",
            b.reassembly_bytes()
        );
        while let Some((adu, _)) = b.recv_adu() {
            got.push(adu);
        }
        if got.len() == sent.len() && a.send_complete() {
            break;
        }
    }
    assert_eq!(got.len(), sent.len(), "backpressure must not lose data");
    got.sort_by_key(|adu| match adu.name {
        AduName::Seq { index } => index,
        _ => unreachable!(),
    });
    for (adu, want) in got.iter().zip(&sent) {
        assert_eq!(&adu.payload, want, "byte-identical delivery");
    }
    assert!(
        b.stats().tus_backpressured > 0,
        "the squeeze must actually have engaged"
    );
    assert_eq!(b.assembler_stats().adus_shed, 0, "no silent shedding");
}

#[test]
fn zero_window_probe_backs_off_and_resumes() {
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    a.send_adu(AduName::Seq { index: 0 }, payload(1000))
        .unwrap();
    a.send_adu(AduName::Seq { index: 1 }, payload(1000))
        .unwrap();
    // The peer slams the window shut before anything is admitted.
    let shut = Message::Ack {
        assoc: 1,
        ids: vec![],
        echo: None,
        rwnd: 0,
    }
    .encode();
    a.on_frame(SimTime::ZERO, shut.into());
    let frames = a.poll(SimTime::ZERO);
    assert!(
        frames
            .iter()
            .all(|f| matches!(decode(f), Ok(Message::WindowProbe { .. }))),
        "no data may move through a zero window"
    );
    assert_eq!(a.stats().zero_window_probes, 1);
    // Probes back off exponentially: the second comes after ~RTO, not
    // on the next poll.
    assert!(a.poll(SimTime::from_millis(1)).is_empty());
    assert!(!a.poll(SimTime::from_millis(51)).is_empty());
    assert_eq!(a.stats().zero_window_probes, 2);
    assert!(a.poll(SimTime::from_millis(100)).is_empty());
    let t3 = a.next_timeout().expect("probe timer armed");
    assert!(t3 >= SimTime::from_millis(151), "backoff doubled");
    // The window reopens: queued data flows and probe state resets.
    let open = Message::Ack {
        assoc: 1,
        ids: vec![],
        echo: None,
        rwnd: RWND_UNLIMITED,
    }
    .encode();
    a.on_frame(SimTime::from_millis(200), open.into());
    let frames = a.poll(SimTime::from_millis(200));
    assert!(frames
        .iter()
        .any(|f| matches!(decode(f), Ok(Message::Tu(_)))));
    assert_eq!(a.stats().zero_window_probes, 2, "no probe after reopen");
}

#[test]
fn window_probe_answered_with_id_less_ack() {
    let mut b = AduTransport::new(AlfConfig {
        reassembly_budget_bytes: 4096,
        ..cfg(RecoveryMode::TransportBuffer)
    });
    b.on_frame(
        SimTime::ZERO,
        Message::WindowProbe { assoc: 1 }.encode().into(),
    );
    let out = b.poll(SimTime::from_micros(10));
    let (ids, rwnd) = out
        .iter()
        .find_map(|f| match decode(f) {
            Ok(Message::Ack { ids, rwnd, .. }) => Some((ids, rwnd)),
            _ => None,
        })
        .expect("probe answered");
    assert!(ids.is_empty());
    assert_eq!(rwnd, 4096);
}

#[test]
fn silent_peer_declared_unreachable_then_heals() {
    let mut a = AduTransport::new(AlfConfig {
        peer_timeout: SimDuration::from_secs(1),
        ..cfg(RecoveryMode::TransportBuffer)
    });
    let name = AduName::Seq { index: 7 };
    a.send_adu(name, payload(500)).unwrap();
    let mut now = SimTime::ZERO;
    // Nothing ever answers.
    while now < SimTime::from_millis(1500) {
        now += SimDuration::from_millis(25);
        let _ = a.poll(now);
    }
    assert!(a.peer_unreachable());
    assert_eq!(a.stats().peer_unreachable_events, 1);
    let losses = a.take_loss_reports();
    assert_eq!(losses.len(), 1);
    assert_eq!(losses[0].name, name, "flushed in application terms");
    assert!(a.send_complete(), "no infinite retry loop");
    assert_eq!(
        a.send_adu(AduName::Seq { index: 8 }, payload(10)),
        Err(SendRefused::PeerUnreachable)
    );
    // The peer comes back: any intact message revives the association.
    let ack = Message::Ack {
        assoc: 1,
        ids: vec![],
        echo: None,
        rwnd: RWND_UNLIMITED,
    }
    .encode();
    a.on_frame(now, ack.into());
    assert!(!a.peer_unreachable());
    assert!(a.send_adu(AduName::Seq { index: 8 }, payload(10)).is_ok());
}

#[test]
fn idle_endpoint_never_declares_peer_dead() {
    let mut a = AduTransport::new(AlfConfig {
        peer_timeout: SimDuration::from_millis(100),
        ..cfg(RecoveryMode::TransportBuffer)
    });
    // Long silence with nothing outstanding: silence is not evidence.
    for ms in (0..2000).step_by(50) {
        let _ = a.poll(SimTime::from_millis(ms));
    }
    assert!(!a.peer_unreachable());
    // Work submitted *after* the silence gets the full timeout.
    a.send_adu(AduName::Seq { index: 0 }, payload(100)).unwrap();
    let _ = a.poll(SimTime::from_millis(2000));
    assert!(!a.peer_unreachable());
    let _ = a.poll(SimTime::from_millis(2099));
    assert!(!a.peer_unreachable());
    let _ = a.poll(SimTime::from_millis(2150));
    assert!(a.peer_unreachable());
}

#[test]
fn consecutive_timeouts_stretch_rto() {
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    a.send_adu(AduName::Seq { index: 0 }, payload(100)).unwrap();
    let mut now = SimTime::ZERO;
    let mut fires = Vec::new();
    let mut last_frames = 0usize;
    for _ in 0..400 {
        now += SimDuration::from_millis(10);
        let n = a.poll(now).len();
        if n > 0 && last_frames == 0 {
            fires.push(now);
        }
        last_frames = n;
    }
    // Gaps between successive (re)transmissions grow strictly: the
    // per-ADU doubling is compounded by the global backoff.
    assert!(fires.len() >= 3, "need several retransmissions: {fires:?}");
    let gaps: Vec<_> = fires
        .windows(2)
        .map(|w| w[1].saturating_since(w[0]))
        .collect();
    for pair in gaps.windows(2) {
        assert!(pair[1] > pair[0], "RTO must keep stretching: {gaps:?}");
    }
    assert!(a.stats().rto_backoff_events >= 2);
}

#[test]
fn drop_oldest_shedding_for_media_counted() {
    const BUDGET: usize = 4096;
    let mut b = AduTransport::new(AlfConfig {
        reassembly_budget_bytes: BUDGET,
        ..cfg(RecoveryMode::NoRetransmit)
    });
    // Three incomplete 3000-byte assemblies can't coexist under 4 KiB:
    // each newcomer evicts the previous (oldest) one.
    for id in 0..3u64 {
        let tus = fragment_adu_buf(
            1,
            id,
            AduName::Media {
                frame: id as u32,
                slot: 0,
            },
            &payload(3000).into(),
            1400,
        );
        b.on_frame(SimTime::from_millis(id), tus[0].encode().into());
        assert!(b.reassembly_bytes() <= BUDGET);
    }
    assert_eq!(b.assembler_stats().adus_shed, 2);
    let _ = b.poll(SimTime::from_millis(10));
    assert_eq!(b.stats().adus_shed, 2, "sheds surface in AlfStats");
}

#[test]
fn ack_queue_past_the_count_field_goes_out_as_whole_frames() {
    // An ACK's id count is 16 bits. A peer (or a replaying middlebox) that
    // repeats one delivered TU queues one re-ACK id per repeat; 70 000 of
    // them between two polls must leave as frames that each decode, not
    // as one frame whose count wrapped.
    const REPLAYS: usize = 70_000;
    let mut a = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    let mut b = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    a.send_adu(AduName::Seq { index: 0 }, payload(100)).unwrap();
    let frames = a.poll(SimTime::ZERO);
    assert_eq!(frames.len(), 1);
    let tu = WireBuf::from(frames.into_iter().next().unwrap());
    b.on_frame(SimTime::ZERO, tu.clone());
    assert!(b.recv_adu().is_some());
    assert_eq!(b.poll(SimTime::ZERO).len(), 1, "the first ACK");
    for _ in 0..REPLAYS {
        b.on_frame(SimTime::from_micros(1), tu.clone());
    }
    assert_eq!(b.stats().tus_replayed, REPLAYS as u64);
    let acks = b.poll(SimTime::from_micros(2));
    assert_eq!(acks.len(), 2);
    let mut acked = 0;
    for f in &acks {
        let Ok(Message::Ack { ids, .. }) = decode(f) else {
            panic!("every emitted frame must decode as an ACK");
        };
        assert!(ids.iter().all(|&id| id == 0));
        acked += ids.len();
    }
    assert_eq!(acked, REPLAYS);
    assert_eq!(b.stats.control_sent, 3);
}

/// ISSUE 25: a TU that continues an assembly's prefix is verified as it is
/// copied into place. One flipped payload byte in such a TU must be
/// rejected as a bad checksum with exactly the counters a frame verified
/// whole gets, and must leave the prefix's length and bytes as they were.
#[test]
fn corrupt_in_order_tu_is_rejected_and_leaves_the_prefix() {
    let data = payload(5000);
    let tus = fragment_adu_buf(1, 0, AduName::Seq { index: 0 }, &data.clone().into(), 1400);
    let mut bad = tus[1].encode();
    *bad.last_mut().unwrap() ^= 0x10;
    // The verdict a frame verified whole gets: a receiver with nothing
    // open for the ADU never copies it.
    // Every counter but the one the rejection bumps.
    let others = |ep: &AduTransport| {
        let stats = AlfStats {
            bad_messages: 0,
            ..ep.stats()
        };
        format!("{stats:?} {:?}", ep.assembler_stats())
    };
    let whole = Telemetry::new();
    let mut fresh = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    fresh.attach_telemetry(whole.clone(), "receiver");
    let before = others(&fresh);
    fresh.on_frame(SimTime::ZERO, bad.clone().into());
    assert_eq!(fresh.stats().bad_messages, 1);

    let placed = Telemetry::new();
    let mut b = AduTransport::new(cfg(RecoveryMode::TransportBuffer));
    b.attach_telemetry(placed.clone(), "receiver");
    b.on_frame(SimTime::ZERO, tus[0].encode().into());
    let prefix = b.assembler.placed(0).expect("open").clone();
    assert_eq!(prefix, data[..1400]);
    let stats = others(&b);
    b.on_frame(SimTime::ZERO, bad.into());
    assert_eq!(b.stats().bad_messages, 1);
    assert_eq!(others(&b), stats);
    assert_eq!(others(&fresh), before);
    for tel in [&whole, &placed] {
        assert_eq!(tel.metrics().counter("alf.rx_rejected.bad_checksum"), 1);
    }
    let placed_now = b.assembler.placed(0).expect("still open");
    assert_eq!(
        (placed_now.len(), &placed_now[..]),
        (prefix.len(), &prefix[..])
    );
    // The intact TUs still complete the ADU.
    for tu in &tus[1..] {
        b.on_frame(SimTime::ZERO, tu.encode().into());
    }
    assert_eq!(b.recv_adu().expect("complete").0.payload, data);
}

/// ISSUE 25: a checksum-valid first TU that declares a 4 GiB ADU reserves
/// no more than the view quota lets an honest ADU of its fragment length
/// reach, writes only the bytes that arrived, and is NACKed and abandoned
/// as before.
#[test]
fn forged_adu_len_reserves_at_most_the_quota_and_is_abandoned() {
    let c = cfg(RecoveryMode::TransportBuffer);
    let mut b = AduTransport::new(c);
    let forged = Tu {
        flags: 0,
        assoc: c.assoc,
        timestamp_us: 0,
        adu_id: 0,
        adu_len: u32::MAX,
        frag_off: 0,
        name: AduName::Seq { index: 0 },
        payload: payload(1400).into(),
    };
    b.on_frame(SimTime::ZERO, forged.encode().into());
    let buf = b.assembler.placed(0).expect("admitted");
    assert!(
        buf.capacity() <= c.max_frag_views * 1400,
        "{}",
        buf.capacity()
    );
    assert_eq!(buf.len(), 1400);
    let (mut now, mut rounds, mut nacked) = (SimTime::ZERO, 0, false);
    while !nacked {
        assert!(now < SimTime::from_secs(1), "never abandoned");
        now += c.assembly_timeout + SimDuration::from_millis(1);
        for f in b.poll(now) {
            match decode(&f).unwrap() {
                Message::NackFrags { adu_id, ranges, .. } => {
                    assert_eq!((adu_id, ranges), (0, vec![(1400, u32::MAX - 1400)]));
                    rounds += 1;
                }
                Message::Nack { ids, .. } => nacked = ids == [0],
                _ => {}
            }
        }
    }
    assert_eq!(rounds, c.nack_frag_rounds);
    assert_eq!(b.assembler_stats().adus_abandoned, 1);
    assert_eq!(b.reassembly_bytes(), 0);
}

/// What bounds reassembly memory with `reassembly_budget_bytes` at its
/// default of 0 (no byte budget): a peer declares every ADU 4 GiB long and
/// really streams it, in order, in valid TUs. Each assembly reserves at
/// most `max_frag_views` × its first fragment, its buffer holds exactly the
/// bytes received, and opening one past `max_partial_adus` abandons the
/// oldest — so the stored bytes stay at what arrived, and the reservations
/// at `max_partial_adus × max_frag_views × first fragment`.
#[test]
fn declared_4_gib_adus_streamed_in_order_stay_within_the_view_and_count_bounds() {
    let c = cfg(RecoveryMode::TransportBuffer);
    assert_eq!(
        c.reassembly_budget_bytes, 0,
        "the default has no byte budget"
    );
    let (frag, tus_per_adu) = (64u32, 3u32);
    let adus = c.max_partial_adus as u64 + 8;
    let mut b = AduTransport::new(c);
    for id in 0..adus {
        for k in 0..tus_per_adu {
            let tu = Tu {
                flags: 0,
                assoc: c.assoc,
                timestamp_us: 0,
                adu_id: id,
                adu_len: u32::MAX,
                frag_off: k * frag,
                name: AduName::Seq { index: id },
                payload: payload(frag as usize).into(),
            };
            b.on_frame(SimTime::ZERO, tu.encode().into());
            let buf = b.assembler.placed(id).expect("open");
            assert!(buf.capacity() <= c.max_frag_views * frag as usize);
            assert_eq!(buf.len(), ((k + 1) * frag) as usize, "ADU {id}");
            assert!(b.assembler.pending_count() <= c.max_partial_adus);
        }
    }
    let open = c.max_partial_adus;
    assert_eq!(b.assembler.pending_count(), open);
    assert_eq!(b.assembler_stats().adus_abandoned, adus - open as u64);
    assert!(b.assembler.placed(adus - open as u64 - 1).is_none());
    assert_eq!(
        b.assembler.stored_bytes(),
        open * (tus_per_adu * frag) as usize
    );
    // The bound is reached: 256 reservations of 4 096 × 64 B (64 MiB)
    // for 48 KiB received.
    let reserved: usize = (adus - open as u64..adus)
        .map(|id| b.assembler.placed(id).expect("open").capacity())
        .sum();
    assert_eq!(reserved, open * c.max_frag_views * frag as usize);
    // The declared totals are what `reassembly_bytes` reports, not what is
    // held.
    assert_eq!(b.reassembly_bytes(), open * u32::MAX as usize);
    assert!(b.recv_adu().is_none());
}

mod placement {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// ISSUE 25: placement under any arrival schedule — fragments in
        /// random order, duplicated, overlapping (each ADU is cut at two
        /// MTUs), dropped and bit-flipped — with the clean frames replayed
        /// at the end so every ADU can complete. Each ADU is delivered once,
        /// with exactly its bytes; at every step the bytes stage 1 stores
        /// equal the bytes it covers, no buffer runs ahead of them, and
        /// none of it exceeds the verified payload bytes it was handed.
        #[test]
        fn prop_placement_delivers_exact_bytes_once(
            lens in prop::collection::vec(0usize..5000, 1..5),
            schedule in prop::collection::vec((any::<u16>(), 0u8..6, any::<u16>()), 0..80),
        ) {
            let c = cfg(RecoveryMode::TransportBuffer);
            let mut b = AduTransport::new(c);
            let adus: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).map(|j| (j * 31 + i * 7) as u8).collect())
                .collect();
            let mut frames = Vec::new();
            for (i, p) in adus.iter().enumerate() {
                let p: WireBuf = p.clone().into();
                for mtu in [1400, 1000] {
                    let name = AduName::Seq { index: i as u64 };
                    for tu in fragment_adu_buf(c.assoc, i as u64, name, &p, mtu) {
                        frames.push(tu.encode());
                    }
                }
            }
            let mut delivered = vec![false; adus.len()];
            let mut fed = 0usize;
            let clean = frames.clone().into_iter().map(|f| (f, false));
            let scheduled = schedule.into_iter().filter_map(|(pick, action, pos)| {
                let mut f = frames[pick as usize % frames.len()].clone();
                match action {
                    0 => None, // dropped
                    1 => {
                        let i = pos as usize % f.len();
                        f[i] ^= 1 << (pos % 8);
                        Some((f, true))
                    }
                    _ => Some((f, false)),
                }
            });
            for (f, corrupt) in scheduled.collect::<Vec<_>>().into_iter().chain(clean) {
                if !corrupt {
                    fed += f.len() - crate::wire::TU_HEADER_BYTES;
                }
                let bad = b.stats().bad_messages;
                b.on_frame(SimTime::ZERO, f.into());
                // A single flipped bit always breaks the Internet checksum.
                prop_assert_eq!(b.stats().bad_messages, bad + u64::from(corrupt));
                while let Some((adu, _)) = b.recv_adu() {
                    let AduName::Seq { index } = adu.name else { unreachable!() };
                    let i = index as usize;
                    prop_assert!(!delivered[i], "ADU {} delivered twice", i);
                    prop_assert_eq!(&adu.payload, &adus[i]);
                    delivered[i] = true;
                }
                let mut covered = 0usize;
                for i in 0..adus.len() as u64 {
                    if let Some(n) = b.assembler.bytes_covered(i) {
                        prop_assert!(b.assembler.placed(i).unwrap().len() <= n as usize);
                        covered += n as usize;
                    }
                }
                prop_assert_eq!(b.assembler.stored_bytes(), covered);
                prop_assert!(covered <= fed);
            }
            prop_assert!(delivered.iter().all(|&d| d));
        }
    }
}

/// FNV-1a over every frame's length and bytes, in emission order.
fn frames_digest(frames: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in frames {
        for &b in (f.len() as u32).to_be_bytes().iter().chain(f) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every frame of a one-way transfer of 24 ADUs (one, one and four TUs),
/// both directions, in emission order.
fn one_way_frames(c: AlfConfig) -> Vec<Vec<u8>> {
    let (mut a, mut b) = (AduTransport::new(c), AduTransport::new(c));
    for i in 0..24u64 {
        let len = [40, 1400, 5000][i as usize % 3];
        a.send_adu(AduName::Seq { index: i }, payload(len)).unwrap();
    }
    let (mut all, mut now) = (Vec::new(), SimTime::ZERO);
    for _ in 0..1000 {
        now += SimDuration::from_micros(50);
        let (fa, fb) = (a.poll(now), b.poll(now));
        if fa.is_empty() && fb.is_empty() {
            break;
        }
        for f in fa {
            all.push(f.clone());
            b.on_frame(now, f.into());
        }
        for f in fb {
            all.push(f.clone());
            a.on_frame(now, f.into());
        }
    }
    assert!(a.send_complete());
    assert_eq!(b.stats.adus_delivered, 24);
    all
}

/// In a one-way flow no poll has both a TU and an ACK to send, so bundling
/// changes no frame: the counts and digests below were recorded on the
/// receiver that never bundled, with plain and with stamped (restamped,
/// echoed) TUs.
#[test]
fn one_way_transfer_emits_the_frames_it_did_before_bundling() {
    let stamped = AlfConfig {
        timestamps: true,
        adaptive: true,
        ..cfg(RecoveryMode::TransportBuffer)
    };
    for (c, want) in [
        (
            cfg(RecoveryMode::TransportBuffer),
            (52, 0x6414_d2a1_2fd1_d138),
        ),
        (stamped, (53, 0x53cc_db03_bc63_4c95)),
    ] {
        let frames = one_way_frames(c);
        assert_eq!((frames.len(), frames_digest(&frames)), want);
    }
}

/// One call from `a` and its answer from `b`, each leaving in the poll after
/// the ADU it answers arrived; returns the frames each poll emitted.
fn rpc_turn(a: &mut AduTransport, b: &mut AduTransport, call: u32, now: SimTime) -> [usize; 2] {
    a.send_adu(AduName::Rpc { call, part: 0 }, payload(64))
        .unwrap();
    let request = a.poll(now);
    let sent = request.len();
    for f in request {
        b.on_frame(now, f.into());
    }
    let (req, _) = b.recv_adu().expect("request delivered");
    b.send_adu(AduName::Rpc { call, part: 1 }, req.payload)
        .unwrap();
    let response = b.poll(now);
    let answered = response.len();
    for f in response {
        a.on_frame(now, f.into());
    }
    assert_eq!(
        a.recv_adu().expect("response delivered").0.payload,
        payload(64)
    );
    [sent, answered]
}

/// An RPC exchange: each side's ACK for the ADU it just received rides the
/// ADU it sends next, so a call costs one frame each way — and the counters
/// still count every message.
#[test]
fn an_rpc_call_is_one_frame_each_way() {
    let (mut a, mut b) = (
        AduTransport::new(cfg(RecoveryMode::TransportBuffer)),
        AduTransport::new(cfg(RecoveryMode::TransportBuffer)),
    );
    let mut now = SimTime::ZERO;
    for call in 0..50 {
        now += SimDuration::from_micros(10);
        assert_eq!(rpc_turn(&mut a, &mut b, call, now), [1, 1], "call {call}");
        // The response carried the request's ACK; the next request carries
        // the response's.
        assert!(a.send_complete(), "call {call}: request ACKed");
        assert!(!b.send_complete(), "call {call}: response not yet ACKed");
    }
    // The last response's ACK has no ADU to ride: it leaves alone.
    let last = a.poll(now);
    assert_eq!(last.len(), 1);
    for f in last {
        b.on_frame(now, f.into());
    }
    assert!(b.send_complete());
    for ep in [&a, &b] {
        assert_eq!((ep.stats.tus_sent, ep.stats.control_sent), (50, 50));
        assert_eq!(ep.stats().bad_messages, 0);
    }
}

/// A bundle's two messages are verified apart: one flipped bit in the
/// carried ACK costs the ACK (counted as a bad checksum) but delivers the
/// TU; one in the TU rejects the frame as a bad checksum, exactly as an
/// unbundled TU's would be, and leaves the ACK unread.
#[test]
fn a_damaged_bundle_costs_only_the_damaged_message() {
    let tu_len = TU_HEADER_BYTES + 64;
    for (flip_at, delivered, acked) in [(tu_len + 13, true, false), (tu_len - 9, false, false)] {
        let (mut a, mut b) = (
            AduTransport::new(cfg(RecoveryMode::TransportBuffer)),
            AduTransport::new(cfg(RecoveryMode::TransportBuffer)),
        );
        let tel = Telemetry::new();
        a.attach_telemetry(tel.clone(), "client");
        a.send_adu(AduName::Rpc { call: 0, part: 0 }, payload(64))
            .unwrap();
        for f in a.poll(SimTime::ZERO) {
            b.on_frame(SimTime::ZERO, f.into());
        }
        let (req, _) = b.recv_adu().unwrap();
        b.send_adu(AduName::Rpc { call: 0, part: 1 }, req.payload)
            .unwrap();
        let mut frames = b.poll(SimTime::ZERO);
        assert_eq!(frames.len(), 1);
        let mut bundle = frames.pop().unwrap();
        assert!(bundle.len() > tu_len, "the ACK rides the response");
        bundle[flip_at] ^= 0x04;
        a.on_frame(SimTime::ZERO, bundle.into());
        assert_eq!(a.recv_adu().is_some(), delivered);
        assert_eq!(a.send_complete(), acked);
        assert_eq!(a.stats().bad_messages, 1);
        assert_eq!(tel.metrics().counter("alf.rx_rejected.bad_checksum"), 1);
    }
}

mod bundling {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Both endpoints send ADUs (single- and multi-TU) over one
        /// association while a hostile scheduler polls, delivers in any
        /// order, duplicates, drops and lets time pass; then the link turns
        /// clean. Every ADU is delivered exactly once with its bytes, both
        /// send windows drain, and no frame — bundled or not — is longer
        /// than a full TU.
        #[test]
        fn prop_bidirectional_schedules_deliver_once_and_drain(
            adus in prop::collection::vec((0usize..700, any::<bool>()), 1..12),
            schedule in prop::collection::vec((0u8..8, any::<u16>()), 0..200),
        ) {
            let c = AlfConfig {
                mtu_payload: 300,
                max_retries: 1_000,
                ..cfg(RecoveryMode::TransportBuffer)
            };
            let max_frame = TU_HEADER_BYTES + c.mtu_payload;
            let mut ends = [AduTransport::new(c), AduTransport::new(c)];
            // ADU i goes from end `from` to the other; its bytes name it.
            let bytes = |i: usize, len: usize| -> Vec<u8> {
                (0..len).map(|j| (j * 7 + i * 13) as u8).collect()
            };
            let mut next = [0usize; 2]; // next ADU index (into `adus`) per sender
            let mut delivered = vec![false; adus.len()];
            let mut wire: [Vec<Vec<u8>>; 2] = [Vec::new(), Vec::new()]; // towards end 0 / 1
            let mut now = SimTime::ZERO;

            // Offer `from`'s next ADU, if any is left and the window takes it.
            let offer = |ends: &mut [AduTransport; 2], next: &mut [usize; 2], from: usize| {
                let Some(i) = (next[from]..adus.len()).find(|&i| usize::from(adus[i].1) == from) else {
                    next[from] = adus.len();
                    return;
                };
                let name = AduName::Seq { index: i as u64 };
                if ends[from].send_adu(name, bytes(i, adus[i].0)).is_ok() {
                    next[from] = i + 1;
                }
            };
            let poll = |ends: &mut [AduTransport; 2], wire: &mut [Vec<Vec<u8>>; 2], now| {
                for from in 0..2 {
                    for f in ends[from].poll(now) {
                        assert!(f.len() <= max_frame, "{}-byte frame", f.len());
                        wire[1 - from].push(f);
                    }
                }
            };
            let take = |ends: &mut [AduTransport; 2], delivered: &mut Vec<bool>| {
                for end in ends.iter_mut() {
                    while let Some((adu, _)) = end.recv_adu() {
                        let AduName::Seq { index } = adu.name else { unreachable!() };
                        let i = index as usize;
                        assert!(!delivered[i], "ADU {i} delivered twice");
                        assert_eq!(adu.payload, bytes(i, adus[i].0));
                        delivered[i] = true;
                    }
                }
            };

            for (action, pick) in schedule {
                let to = usize::from(pick & 1);
                let len = wire[to].len();
                match action {
                    0 => poll(&mut ends, &mut wire, now),
                    1 | 2 if len > 0 => {
                        let f = wire[to].remove(usize::from(pick) % len);
                        ends[to].on_frame(now, f.into());
                    }
                    3 if len > 0 => {
                        let f = wire[to][usize::from(pick) % len].clone();
                        ends[to].on_frame(now, f.into());
                    }
                    4 if len > 0 => {
                        wire[to].remove(usize::from(pick) % len);
                    }
                    5 => now += SimDuration::from_micros(u64::from(pick) % 60_000),
                    _ => offer(&mut ends, &mut next, to),
                }
                take(&mut ends, &mut delivered);
            }

            // A clean link: poll, deliver everything in order, let timers run.
            for _ in 0..100_000 {
                if delivered.iter().all(|&d| d) && ends.iter().all(AduTransport::send_complete) {
                    break;
                }
                offer(&mut ends, &mut next, 0);
                offer(&mut ends, &mut next, 1);
                poll(&mut ends, &mut wire, now);
                let quiet = wire.iter().all(Vec::is_empty);
                for to in 0..2 {
                    for f in std::mem::take(&mut wire[to]) {
                        ends[to].on_frame(now, f.into());
                    }
                }
                take(&mut ends, &mut delivered);
                if quiet {
                    now += SimDuration::from_millis(1);
                }
            }
            prop_assert!(delivered.iter().all(|&d| d), "undelivered: {:?}", delivered);
            for end in &ends {
                prop_assert!(end.send_complete());
                prop_assert_eq!(end.stats().adus_given_up, 0);
            }
        }
    }
}

/// One lossy, hostile exchange, scripted from a fixed seed: drops,
/// duplicates, reordering and corruption both ways, FEC repair, replays of
/// delivered TUs, a TU under another association and forged repair ranges,
/// under adaptive control with timestamps and a tight receive budget. Returns the sender and receiver.
fn lossy_hostile_script() -> (AduTransport, AduTransport) {
    let config = AlfConfig {
        timestamps: true,
        adaptive: true,
        fec_group: 3,
        mtu_payload: 500,
        window_adus: 16,
        assembly_timeout: SimDuration::from_millis(3),
        ..cfg(RecoveryMode::TransportBuffer)
    };
    // The receiver holds at most two views per assembly and 8 000 bytes of
    // open assemblies: quota evictions and backpressure too.
    let mut a = AduTransport::new(config);
    let mut b = AduTransport::new(AlfConfig {
        max_frag_views: 2,
        reassembly_budget_bytes: 8_000,
        ..config
    });
    let mut seed = 1990u64;
    let mut roll = move |percent: u64| {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (seed >> 33) % 100 < percent
    };
    let (mut held, mut seen): (Vec<Vec<u8>>, Vec<Vec<u8>>) = (Vec::new(), Vec::new());
    let (mut now, mut index) = (SimTime::ZERO, 0u64);
    for step in 0..600u64 {
        now += SimDuration::from_micros(300);
        if index < 120 {
            let len = 100 + (index as usize * 97) % 2900;
            if a.send_adu(AduName::Seq { index }, payload(len)).is_ok() {
                index += 1;
            }
        }
        let in_flight = (0..a.next_adu_id)
            .rev()
            .find(|&id| a.send.as_ref().is_some_and(|s| s.window.contains_key(id)));
        if let Some(id) = in_flight.filter(|_| step % 25 == 5) {
            // A repair request for the newest ADU in flight with two forged
            // ranges in it, one empty and one past the end.
            let ranges = [(0, 0), (0, 50), (u32::MAX - 4, 9)];
            a.on_frame(now, encode_nack_frags(a.assoc, id, &ranges).into());
        }
        let mut to_b = std::mem::take(&mut held);
        for mut f in a.poll(now) {
            if roll(6) {
                continue; // dropped
            }
            if roll(4) {
                let last = f.len() - 1;
                f[last] ^= 0x20; // corrupted
            }
            if roll(5) {
                held.push(f); // reordered behind the next poll's frames
                continue;
            }
            if roll(8) {
                to_b.push(f.clone()); // duplicated
            }
            if roll(3) {
                seen.push(f.clone());
            }
            to_b.push(f);
        }
        if step % 40 == 39 {
            // A replay of an old frame, and a TU under another association.
            if let Some(old) = seen.first() {
                to_b.push(old.clone());
            }
            let tu = Tu {
                flags: 0,
                assoc: 9,
                timestamp_us: 0,
                adu_id: step,
                adu_len: 10,
                frag_off: 0,
                name: AduName::Seq { index: step },
                payload: payload(10).into(),
            };
            to_b.push(tu.encode());
        }
        for f in to_b {
            b.on_frame(now, f.into());
        }
        for mut f in b.poll(now) {
            if roll(4) {
                continue;
            }
            if roll(2) {
                let last = f.len() - 1;
                f[last] ^= 0x01;
            }
            a.on_frame(now, f.into());
        }
        while b.recv_adu().is_some() {}
    }
    for _ in 0..2000 {
        if a.send_complete() {
            break;
        }
        now += SimDuration::from_millis(1);
        now = pump(&mut a, &mut b, now);
        while b.recv_adu().is_some() {}
    }
    (a, b)
}

#[test]
fn lossy_hostile_script_reports_the_pinned_counters() {
    // Captured while every counter was held inline: a snapshot built from
    // the inline counters and the rare block reads the same values.
    let (a, b) = lossy_hostile_script();
    let pinned = [
        (
            format!("{:?}", a.stats()),
            concat!(
                "AlfStats { adus_sent: 39, tus_sent: 178, control_sent: 0, ",
                "adus_delivered: 0, delivery_latency_total: SimDuration(0), ",
                "delivery_latency_max: SimDuration(0), ",
                "adus_delivered_out_of_order: 0, adus_retransmitted: 2, ",
                "tus_retransmitted_selective: 8, probe_tus: 11, timestamped_tus: 0, ",
                "jitter_us: 0.0, fec_parity_sent: 39, fec_reconstructions: 0, ",
                "recompute_requests: 0, adus_given_up: 0, losses_reported: 0, ",
                "bad_messages: 1, srtt_us: 2.159343284028572, ",
                "rttvar_us: 4.305975237884033, rto_us: 500.0, rtt_samples: 41, ",
                "cwnd_adus: 5.575554607204394, cwnd_peak_adus: 6.0, loss_events: 13, ",
                "delivery_rate_mbps: 0.27811472174580393, adus_shed: 0, ",
                "tus_backpressured: 0, zero_window_probes: 0, ",
                "send_backpressured: 82, rto_backoff_events: 5, ",
                "peer_unreachable_events: 0, nack_range_errors: 2, tus_replayed: 0, ",
                "quota_evictions: 0, timers_fired: 5 }",
            ),
        ),
        (
            format!("{:?}", b.stats()),
            concat!(
                "AlfStats { adus_sent: 0, tus_sent: 0, control_sent: 152, ",
                "adus_delivered: 39, delivery_latency_total: SimDuration(270800000), ",
                "delivery_latency_max: SimDuration(26750000), ",
                "adus_delivered_out_of_order: 3, adus_retransmitted: 0, ",
                "tus_retransmitted_selective: 0, probe_tus: 0, timestamped_tus: 140, ",
                "jitter_us: 1.6153047780045597, fec_parity_sent: 0, ",
                "fec_reconstructions: 9, recompute_requests: 0, adus_given_up: 0, ",
                "losses_reported: 0, bad_messages: 19, srtt_us: 0.0, rttvar_us: 0.0, ",
                "rto_us: 0.0, rtt_samples: 0, cwnd_adus: 4.0, cwnd_peak_adus: 4.0, ",
                "loss_events: 0, delivery_rate_mbps: 0.0, adus_shed: 0, ",
                "tus_backpressured: 0, zero_window_probes: 0, send_backpressured: 0, ",
                "rto_backoff_events: 0, peer_unreachable_events: 0, ",
                "nack_range_errors: 0, tus_replayed: 34, quota_evictions: 1, ",
                "timers_fired: 0 }",
            ),
        ),
        (
            format!("{:?}", a.assembler_stats()),
            concat!(
                "AssemblerStats { tus_in: 0, adus_completed: 0, ",
                "zero_copy_releases: 0, gathered_bytes: 0, duplicate_tus: 0, ",
                "adus_abandoned: 0, adus_shed: 0, tus_refused: 0, ",
                "quota_evictions: 0 }",
            ),
        ),
        (
            format!("{:?}", b.assembler_stats()),
            concat!(
                "AssemblerStats { tus_in: 140, adus_completed: 39, ",
                "zero_copy_releases: 9, gathered_bytes: 3677, duplicate_tus: 8, ",
                "adus_abandoned: 7, adus_shed: 0, tus_refused: 0, ",
                "quota_evictions: 1 }",
            ),
        ),
    ];
    for (got, want) in pinned {
        assert_eq!(got, want);
    }
    // The hashed wheel these deadlines lived in reported 29 inserts and 5
    // fired, having examined 28 entries over 31 slots: the ring inserts
    // and fires the same, and examines only what it fires.
    let t = a.timer_stats();
    assert_eq!(
        (t.inserts, t.fired, t.entries_examined, t.slots_scanned),
        (29, 5, 5, 0)
    );
    // The sender's assembler saw no TU; each other owner wrote a rare
    // counter and holds its one block.
    assert_eq!((a.counter_blocks(), b.counter_blocks()), (1, 2));
}
