//! The stream transport's protocol decisions, pinned to the byte.
//!
//! Each scenario drives a seeded [`TransportPair`] to completion and folds
//! every frame either endpoint emits (direction, length, bytes — in emission
//! order) into one FNV-1a digest, then reads both endpoints' final counters.
//! A change to segmentation, ACK generation, retransmission choice, window
//! arithmetic or the wire encoding moves a digest, so "no protocol behaviour
//! changed" is a test, not a claim.
//!
//! The constants were captured in ISSUE 24, with the link queue that drains
//! (ct-netsim) and the sender that cuts no window-limited slivers (RFC 1122
//! section 4.2.3.4); EXPERIMENTS.md has the rows they replaced and which
//! half moved which pin.

use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_transport::segment::Segment;
use ct_transport::{StreamConfig, StreamStats, StreamTransport, TransportPair};
use std::collections::BTreeSet;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

/// The counters a protocol change would move: segments out, segments in,
/// bytes delivered, RTO retransmits, fast retransmits, checksum drops, old
/// segments, out-of-order segments, out-of-order peak bytes, HOL delay (ns).
fn stat_row(s: &StreamStats) -> [u64; 10] {
    [
        s.segments_out,
        s.segments_in,
        s.bytes_delivered,
        s.rto_retransmits,
        s.fast_retransmits,
        s.checksum_drops,
        s.old_segments,
        s.ooo_segments,
        s.ooo_bytes_peak as u64,
        s.hol_delay_total.as_nanos(),
    ]
}

struct Scenario {
    seed: u64,
    faults: FaultConfig,
    /// Receiver's buffer (the sender keeps the default configuration).
    recv_buffer: usize,
    bytes: usize,
    /// The receiving application reads at most `read_chunk` bytes every
    /// `read_every` driver rounds.
    read_every: usize,
    read_chunk: usize,
}

#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    frames_digest: u64,
    sender: [u64; 10],
    receiver: [u64; 10],
    /// Cumulative ACKs from `b` that landed strictly inside a segment `a`
    /// had cut (neither at its start nor at its end).
    partial_acks: u64,
    sim_nanos: u64,
}

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i.wrapping_mul(131) >> 3) as u8).collect()
}

fn run(sc: &Scenario) -> Outcome {
    let cfg = StreamConfig::default();
    let mut pair = TransportPair::new(sc.seed, LinkConfig::gigabit(), sc.faults, cfg);
    pair.b = StreamTransport::new(
        StreamConfig {
            recv_buffer: sc.recv_buffer,
            ..cfg
        },
        2,
        1,
    );
    let data = payload(sc.bytes);
    let mut got = Vec::with_capacity(data.len());
    let mut offset = 0;
    let mut fin_queued = false;
    let mut digest = FNV_OFFSET;
    let mut boundaries = BTreeSet::from([0u64]);
    let mut partial_acks = 0;
    let mut buf = vec![0u8; sc.read_chunk];
    let mut complete = false;

    for round in 0..4_000_000usize {
        if offset < data.len() {
            offset += pair.a.send(&data[offset..]);
        }
        if offset == data.len() && !fin_queued {
            pair.a.finish();
            fin_queued = true;
        }
        if round % sc.read_every == 0 {
            let n = pair.b.recv(&mut buf);
            got.extend_from_slice(&buf[..n]);
        }
        if fin_queued && pair.a.send_complete() && pair.b.peer_finished() && got.len() == data.len()
        {
            complete = true;
            break;
        }

        // `TransportPair::tick`, with every emitted frame observed.
        let now = pair.net.now();
        let mut moved = false;
        for f in pair.a.poll(now) {
            moved = true;
            fnv1a(&mut digest, b"a");
            fnv1a(&mut digest, &(f.len() as u32).to_be_bytes());
            fnv1a(&mut digest, &f);
            let seg = Segment::decode_frame(&f.as_slice().into()).expect("own frame");
            boundaries.insert(seg.seq);
            boundaries.insert(seg.seq_end());
            let _ = pair.net.send(pair.node_a, pair.node_b, f);
        }
        for f in pair.b.poll(now) {
            moved = true;
            fnv1a(&mut digest, b"b");
            fnv1a(&mut digest, &(f.len() as u32).to_be_bytes());
            fnv1a(&mut digest, &f);
            let seg = Segment::decode_frame(&f.as_slice().into()).expect("own frame");
            if !boundaries.contains(&seg.ack) {
                partial_acks += 1;
            }
            let _ = pair.net.send(pair.node_b, pair.node_a, f);
        }
        while let Some(frame) = pair.net.recv(pair.node_b) {
            moved = true;
            pair.b.on_frame(pair.net.now(), frame.payload.into());
        }
        while let Some(frame) = pair.net.recv(pair.node_a) {
            moved = true;
            pair.a.on_frame(pair.net.now(), frame.payload.into());
        }
        if !pair.net.is_idle() {
            pair.net.step();
        } else if !moved {
            let next = [pair.a.next_timeout(), pair.b.next_timeout()]
                .into_iter()
                .flatten()
                .min();
            if let Some(t) = next {
                pair.net.advance(t.saturating_since(now));
            }
        }
    }
    assert!(complete, "transfer did not complete");
    assert_eq!(got, data, "stream delivered different bytes");
    Outcome {
        frames_digest: digest,
        sender: stat_row(&pair.a.stats),
        receiver: stat_row(&pair.b.stats),
        partial_acks,
        sim_nanos: pair.net.now().as_nanos(),
    }
}

#[test]
fn clean_gigabit_transfer_is_pinned() {
    let o = run(&Scenario {
        seed: 1990,
        faults: FaultConfig::none(),
        recv_buffer: StreamConfig::default().recv_buffer,
        bytes: 400_000,
        read_every: 1,
        read_chunk: 64 * 1024,
    });
    assert_eq!(
        o,
        Outcome {
            frames_digest: 0xb346_8603_a7f5_ab68,
            sender: [287, 287, 0, 0, 0, 0, 0, 0, 0, 0],
            receiver: [287, 287, 400_000, 0, 0, 0, 0, 0, 0, 0],
            partial_acks: 0,
            sim_nanos: 3_329_440,
        }
    );
}

#[test]
fn lossy_reordering_transfer_is_pinned() {
    let o = run(&Scenario {
        seed: 7,
        faults: FaultConfig {
            drop: 0.02,
            reorder: 0.01,
            ..FaultConfig::default()
        },
        recv_buffer: StreamConfig::default().recv_buffer,
        bytes: 300_000,
        read_every: 1,
        read_chunk: 64 * 1024,
    });
    assert_eq!(
        o,
        Outcome {
            frames_digest: 0x64d1_3ae0_ea5f_eca2,
            sender: [223, 214, 0, 0, 5, 0, 0, 0, 0, 0],
            receiver: [217, 217, 300_000, 0, 0, 0, 1, 73, 47_600, 10_942_720],
            partial_acks: 0,
            sim_nanos: 3_182_800,
        }
    );
}

#[test]
fn partial_ack_inside_a_segment_is_pinned() {
    // A 2 000-byte receive buffer under a 1 400-byte MSS and a slow reader:
    // the receiver keeps the head of a segment and drops its tail, so its
    // cumulative ACK lands inside a segment the sender still holds whole —
    // and must retransmit whole, from its original sequence number. None of
    // the four comes from the send rule: three answer the first flight,
    // cut against the sender's own guess before any window was advertised,
    // and one answers the whole-segment RTO retransmission.
    let o = run(&Scenario {
        seed: 42,
        faults: FaultConfig::none(),
        recv_buffer: 2_000,
        bytes: 60_000,
        read_every: 3,
        read_chunk: 700,
    });
    assert_eq!(
        o,
        Outcome {
            frames_digest: 0x5584_01e4_7ddd_16a3,
            sender: [69, 91, 0, 1, 0, 0, 0, 0, 0, 0],
            receiver: [91, 69, 60_000, 0, 0, 0, 0, 0, 0, 0],
            partial_acks: 4,
            sim_nanos: 13_590_800,
        }
    );
}
