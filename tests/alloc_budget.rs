//! Allocation budgets for the per-frame control paths: the ALF transport
//! and the byte-stream straw man it is compared with.
//!
//! Counts, not times: a warm association must run its steady-state calls
//! with only the heap allocations the public API forces (an owned frame per
//! message, a `Vec` per non-empty `poll` result, the `WireBuf` chunk header
//! an owned frame is wrapped in). A tree node, a
//! scratch `Vec` or a thrown-away queue capacity on that path shows up here
//! as a number, on any host, every run. So does the structure a warm, idle
//! endpoint keeps: how many heap blocks it holds, each one named, and how
//! many bytes — which `approx_mem_bytes`, the figure X13 and the benchmark
//! report, must equal.

use alf_core::adu::AduName;
use alf_core::transport::{AduTransport, AlfConfig};
use ct_bench::ALF_CONTROL_STEPS;
use ct_netsim::time::SimTime;
use ct_server::{AlfServer, AssocKey, ServerConfig};
use ct_transport::{StreamConfig, StreamTransport};
use ct_wire::WireBuf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // Per thread, so the test harness's other threads stay out of a count;
    // `const` and destructor-free, so safe to touch inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Blocks this thread allocated and has not freed yet, and their bytes
    // (as requested: the allocator's own headers and rounding are not
    // counted).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add(counter: &'static std::thread::LocalKey<Cell<i64>>, n: i64) {
    let _ = counter.try_with(|c| c.set(c.get() + n));
}

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a plain thread-local integer and cannot affect
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        add(&LIVE, 1);
        add(&LIVE_BYTES, layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        add(&LIVE_BYTES, new_size as i64 - layout.size() as i64);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(&LIVE, -1);
        add(&LIVE_BYTES, -(layout.size() as i64));
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls `f` makes on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Heap blocks freed by dropping `value` — the blocks it was holding.
fn blocks_held<T>(value: T) -> i64 {
    held(value).0
}

/// `(blocks, bytes)` freed by dropping `value`: what it was holding.
fn held<T>(value: T) -> (i64, i64) {
    let (blocks, bytes) = (LIVE.with(Cell::get), LIVE_BYTES.with(Cell::get));
    drop(value);
    (
        blocks - LIVE.with(Cell::get),
        bytes - LIVE_BYTES.with(Cell::get),
    )
}

const NOW: SimTime = SimTime::ZERO;

/// One ADU from `a` to `b` and its ACK back: `send_adu → poll → on_frame →
/// poll → on_frame → recv_adu`.
fn one_adu(a: &mut AduTransport, b: &mut AduTransport, index: u64, payload: &WireBuf) {
    a.send_adu(AduName::Seq { index }, payload.clone())
        .expect("window open");
    for frame in a.poll(NOW) {
        b.on_frame(NOW, frame.into());
    }
    for frame in b.poll(NOW) {
        a.on_frame(NOW, frame.into());
    }
    let (adu, _) = b.recv_adu().expect("delivered");
    assert_eq!(adu.payload, *payload);
    assert!(a.send_complete(), "ACKed");
}

/// A pair that has already carried `warm` ADUs of `payload`, so every
/// queue and ring is at its working capacity.
fn warm_pair(cfg: AlfConfig, payload: &WireBuf, warm: u64) -> (AduTransport, AduTransport) {
    warm_up(
        AduTransport::new(cfg),
        AduTransport::new(cfg),
        payload,
        warm,
    )
}

/// [`warm_pair`] for two endpoints that share `template`, as the
/// associations of an `AlfServer` do: neither owns the configuration.
fn warm_shared_pair(
    template: &Arc<AlfConfig>,
    payload: &WireBuf,
    warm: u64,
) -> (AduTransport, AduTransport) {
    let ep = || AduTransport::with_template(Arc::clone(template), 1);
    warm_up(ep(), ep(), payload, warm)
}

fn warm_up(
    mut a: AduTransport,
    mut b: AduTransport,
    payload: &WireBuf,
    warm: u64,
) -> (AduTransport, AduTransport) {
    for index in 0..warm {
        one_adu(&mut a, &mut b, index, payload);
    }
    (a, b)
}

#[test]
fn idle_poll_allocates_nothing() {
    let payload = WireBuf::from_vec(vec![7u8; 200]);
    let (mut a, mut b) = warm_pair(AlfConfig::default(), &payload, 16);
    for ep in [&mut a, &mut b] {
        let (n, frames) = allocs_in(|| ep.poll(NOW));
        assert!(frames.is_empty());
        assert_eq!(n, ALF_CONTROL_STEPS[3].1, "idle poll allocated");
    }
}

#[test]
fn control_steps_allocate_what_t2_prints() {
    let payload = WireBuf::from_vec(vec![7u8; 200]);
    let (mut a, mut b) = warm_pair(AlfConfig::default(), &payload, 16);
    a.send_adu(AduName::Seq { index: 16 }, payload.clone())
        .expect("window open");
    let (emit, mut frames) = allocs_in(|| a.poll(NOW));
    assert_eq!(frames.len(), 1);
    let tu = frames.pop().expect("the TU");
    let (ingest_tu, ()) = allocs_in(|| b.on_frame(NOW, tu.into()));
    let ack = b.poll(NOW).pop().expect("the ACK");
    let (ingest_ack, ()) = allocs_in(|| a.on_frame(NOW, ack.into()));
    assert!(a.send_complete());
    assert_eq!(
        [ingest_tu, ingest_ack, emit],
        [
            ALF_CONTROL_STEPS[0].1,
            ALF_CONTROL_STEPS[1].1,
            ALF_CONTROL_STEPS[2].1
        ],
        "[ingest TU, ingest ACK, emitting poll]"
    );
}

#[test]
fn single_tu_adu_round_within_budget() {
    // Two frames, two `poll` result `Vec`s and two `WireBuf` chunk headers:
    // 6 — the ACK's ids are read off its frame, not collected. (The parent
    // of this test spent 13; ISSUE 25's parent 7.)
    let payload = WireBuf::from_vec(vec![7u8; 200]);
    let (mut a, mut b) = warm_pair(AlfConfig::default(), &payload, 16);
    for index in 16..24 {
        let (n, ()) = allocs_in(|| one_adu(&mut a, &mut b, index, &payload));
        assert_eq!(n, 6, "single-TU ADU round allocated {n}");
    }
}

#[test]
fn twelve_tu_adu_round_within_budget() {
    // 16 KiB at 1400 bytes per TU: twelve frames and their chunk headers
    // (24), the `poll` result growing to twelve (3), the ACK frame, its
    // `poll` result and chunk header (3), the assembly's buffer — which
    // becomes the payload, no gather — and that payload's chunk header
    // (2): 32. No fragment list and no interval list: in-order bytes are
    // placed, not held. (The parent of this test spent 53; ISSUE 25's
    // parent 37.)
    let cfg = AlfConfig {
        mtu_payload: 1400,
        ..AlfConfig::default()
    };
    let payload = WireBuf::from_vec((0..16 << 10).map(|i| i as u8).collect());
    let (mut a, mut b) = warm_pair(cfg, &payload, 8);
    for index in 8..12 {
        let (n, ()) = allocs_in(|| one_adu(&mut a, &mut b, index, &payload));
        assert_eq!(n, 32, "12-TU ADU round allocated {n}");
    }
}

/// One RPC round between two endpoints: `a` sends a request, `b` answers
/// it, each side sending from the poll after the ADU it answers arrived —
/// `send_adu → poll → on_frame → recv_adu`, twice.
fn rpc_round(a: &mut AduTransport, b: &mut AduTransport, call: u32, req: &WireBuf, resp: &WireBuf) {
    a.send_adu(AduName::Rpc { call, part: 0 }, req.clone())
        .expect("window open");
    for frame in a.poll(NOW) {
        b.on_frame(NOW, frame.into());
    }
    assert_eq!(b.recv_adu().expect("request").0.payload, *req);
    b.send_adu(AduName::Rpc { call, part: 1 }, resp.clone())
        .expect("window open");
    for frame in b.poll(NOW) {
        a.on_frame(NOW, frame.into());
    }
    assert_eq!(a.recv_adu().expect("response").0.payload, *resp);
    assert!(a.send_complete(), "the response carried the request's ACK");
}

#[test]
fn rpc_round_carries_both_acks_and_allocates_six() {
    // Each side's ACK rides the ADU it sends next, so a round is two
    // frames, not four: per direction the frame, its `poll` result `Vec`
    // and its `WireBuf` chunk header — 6. (Each ACK in a frame of its own
    // costs its frame and chunk header on top: 10.)
    let req = WireBuf::from_vec(vec![3u8; 64]);
    let resp = WireBuf::from_vec(vec![5u8; 200]);
    let mut a = AduTransport::new(AlfConfig::default());
    let mut b = AduTransport::new(AlfConfig::default());
    for call in 0..16 {
        rpc_round(&mut a, &mut b, call, &req, &resp);
    }
    for call in 16..24 {
        let (n, ()) = allocs_in(|| rpc_round(&mut a, &mut b, call, &req, &resp));
        assert_eq!(n, 6, "RPC round allocated {n}");
    }
    assert_eq!(
        (a.stats.tus_sent, a.stats.control_sent, b.stats.control_sent),
        (24, 23, 24)
    );
}

#[test]
fn warm_idle_endpoint_holds_two_blocks_and_no_cold_state() {
    // What an association costs while nothing is in flight, for endpoints
    // that share their configuration as an `AlfServer`'s do. Sender: the
    // send block and behind it the send ring (admission queue and
    // unacknowledged window in one) and the deadline ring — an unpaced
    // sender's TUs leave in the poll that encodes them, so its pacing
    // queue never allocates. A standalone sender keeps all three across
    // an idle stretch; only an `AlfServer` takes the block back. Receiver:
    // the completed-ADU queue and the ACK id list — it never sent, so it
    // holds no send block, and its in-order replay window is two inline
    // words.
    let one_tu = WireBuf::from_vec(vec![7u8; 200]);
    let twelve_tus = WireBuf::from_vec((0..16 << 10).map(|i| i as u8).collect());
    let template = Arc::new(AlfConfig {
        mtu_payload: 1400,
        ..AlfConfig::default()
    });
    for (payload, rounds) in [
        (&one_tu, 1),
        (&one_tu, 16),
        (&twelve_tus, 1),
        (&twelve_tus, 8),
    ] {
        let (a, b) = warm_shared_pair(&template, payload, rounds);
        // Default configuration — no timestamps, adaptive control or FEC —
        // and no fault: neither the recovery/estimator box nor a rare
        // counter's block was ever needed.
        assert!(!a.cold_state_allocated() && !b.cold_state_allocated());
        assert_eq!((a.counter_blocks(), b.counter_blocks()), (0, 0));
        let tus = payload.len().div_ceil(1400);
        assert_eq!(blocks_held(a), 3, "sender after {rounds} x {tus}-TU rounds");
        // A receiver that has reassembled fragments keeps a third block:
        // the open-assemblies array, which keeps its four slots once it
        // has had an entry.
        let rx_blocks = if tus > 1 { 3 } else { 2 };
        assert_eq!(
            blocks_held(b),
            rx_blocks,
            "receiver after {rounds} x {tus}-TU rounds"
        );
    }
    // Never used: nothing at all — and on its own, only its configuration.
    assert_eq!(
        blocks_held(AduTransport::with_template(Arc::clone(&template), 1)),
        0
    );
    assert_eq!(blocks_held(AduTransport::new(AlfConfig::default())), 1);
}

#[test]
fn warm_idle_endpoint_bytes_are_pinned_and_reported_exactly() {
    // The bytes behind the blocks above, as numbers: a change to what an
    // endpoint keeps resident fails here with the new figure in view. And
    // `approx_mem_bytes` — the figure X13 and the benchmark's
    // `mem_bytes_per_assoc` report — is exactly the inline part plus these.
    //   sender    send block 104 + ring 4 x 72 (id + `SentAdu`)
    //             + deadlines 4 x 16                                  456
    //   receiver  ready queue 1 x 56 + ACK ids 4 x 8                   88
    //   receiver  after fragments: + open assemblies 4 x 104           504
    // (The sender's 104-byte block held its three headers inline, in all
    // 504 inline bytes, until the send side moved behind one pointer.)
    let payload = WireBuf::from_vec(vec![7u8; 200]);
    let template = Arc::new(AlfConfig::default());
    let (a, b) = warm_shared_pair(&template, &payload, 16);
    let inline = std::mem::size_of::<AduTransport>();
    assert_eq!(inline, 408, "inline part");
    let (ra, rb) = (a.approx_mem_bytes(), b.approx_mem_bytes());
    assert_eq!(
        (held(a).1, held(b).1),
        (456, 88),
        "[sender, receiver] bytes"
    );
    assert_eq!((ra - inline, rb - inline), (456, 88), "approx_mem_bytes");

    // A receiver that has reassembled fragments: its third block.
    let twelve_tus = WireBuf::from_vec((0..16 << 10).map(|i| i as u8).collect());
    let (_, b) = warm_shared_pair(&template, &twelve_tus, 8);
    let rb = b.approx_mem_bytes() - inline;
    assert_eq!(
        (held(b).1, rb),
        (504, 504),
        "[held, reported] receiver bytes"
    );

    // On its own an endpoint owns its configuration block, and says so.
    for (payload, rounds) in [(&payload, 16), (&payload, 1)] {
        let (a, b) = warm_pair(AlfConfig::default(), payload, rounds);
        for ep in [a, b] {
            let reported = ep.approx_mem_bytes() - inline;
            assert_eq!(held(ep).1 as usize, reported, "after {rounds} rounds");
        }
    }
}

#[test]
fn server_association_bytes_are_pinned_and_reported_exactly() {
    // One warm association on each side of the `server_fanin` shape, every
    // byte each server holds: `approx_mem_bytes` equals it, so X13's and
    // the benchmark's `mem_bytes_per_assoc` are measured, not estimated.
    // Per server: 8 shards x 320, the first endpoint chunk 64 x 408, four
    // slot records x 56, the key index 116, dirty and draining lists 64,
    // the chunk list 96, the shared configuration 136 and its set 52, the
    // ingress queue 128 and the list its polls append frames to 4 x 24 = 96
    // — 29 584 — then the client's shard wheel 1 656, the receiving
    // endpoint's own blocks, 88, and the sender's send block, 456, which
    // the idle sender handed to the client's spare list, whose own block is
    // 4 x 8 = 32. (31 632 and 29 576 before the frame list; 37 896 and
    // 35 720 while each endpoint held the send side's three headers inline,
    // 504 B, and the spare list two rings by value.)
    let mut client = AlfServer::new(ServerConfig::default());
    let mut server = AlfServer::new(ServerConfig::default());
    let key = AssocKey { peer: 0, assoc: 1 };
    client.add_association(key, AlfConfig::default()).unwrap();
    server.add_association(key, AlfConfig::default()).unwrap();
    let payload = WireBuf::from_vec(vec![7u8; 600]);
    let mut egress = Vec::new();
    for index in 0..16 {
        one_adu_through_servers(&mut client, &mut server, index, &payload, &mut egress);
    }
    for side in [&client, &server] {
        let ep = side.endpoint(key).expect("bound");
        assert_eq!(ep.counter_blocks(), 0, "a fault-free association");
    }
    let inline = std::mem::size_of::<AlfServer>();
    let (rc, rs) = (client.approx_mem_bytes(), server.approx_mem_bytes());
    let (hc, hs) = (held(client).1 as usize, held(server).1 as usize);
    assert_eq!(
        (rc - inline, rs - inline),
        (hc, hs),
        "[client, server] approx_mem_bytes"
    );
    assert_eq!((hc, hs), (31_728, 29_672), "[client, server] bytes held");
}

#[test]
fn send_rings_follow_active_associations_not_every_association() {
    // 1 000 associations send one ADU each through two `AlfServer`s, at
    // most 8 in flight. An idle sender hands its send block to the
    // client's spare list and the next one to start sending takes it, so
    // the client never holds more than one block (456 B: 104 + 4 x 72 +
    // 4 x 16) per association in flight — 8 blocks, not 1 000 — and the
    // server's associations, which only receive, hold none at all.
    const ASSOCS: u16 = 1_000;
    const IN_FLIGHT: usize = 8;
    const BLOCK: usize = 456;
    let mut client = AlfServer::new(ServerConfig::default());
    let mut server = AlfServer::new(ServerConfig::default());
    for assoc in 1..=ASSOCS {
        let key = AssocKey { peer: 0, assoc };
        client.add_association(key, AlfConfig::default()).unwrap();
        server.add_association(key, AlfConfig::default()).unwrap();
    }
    let payload = WireBuf::from_vec(vec![7u8; 600]);
    let mut egress = Vec::new();
    let (mut next, mut delivered) = (1u16, 0usize);
    let mut active: Vec<AssocKey> = Vec::new();
    let (mut peak_active, mut peak_ring_bytes) = (0, 0);
    while delivered < usize::from(ASSOCS) {
        while active.len() < IN_FLIGHT && next <= ASSOCS {
            let key = AssocKey {
                peer: 0,
                assoc: next,
            };
            client
                .send_adu(key, AduName::Seq { index: 0 }, payload.clone())
                .expect("window open");
            active.push(key);
            next += 1;
        }
        peak_active = peak_active.max(active.len());
        peak_ring_bytes = peak_ring_bytes.max(client.send_ring_bytes());
        exchange(&mut client, &mut server, &mut egress);
        delivered += server.take_delivered().len();
        active.retain(|&k| !client.endpoint(k).expect("bound").send_complete());
        peak_ring_bytes = peak_ring_bytes.max(client.send_ring_bytes());
    }
    assert!(client.drained());
    assert_eq!(peak_active, IN_FLIGHT);
    assert!(
        peak_ring_bytes <= peak_active * BLOCK,
        "client ring bytes {peak_ring_bytes} for {peak_active} associations in flight"
    );
    for assoc in 1..=ASSOCS {
        let ep = client.endpoint(AssocKey { peer: 0, assoc }).expect("bound");
        assert_eq!(ep.send_ring_bytes(), 0, "idle association {assoc}");
        // A block is never smaller than itself, so 0 is "holds none".
        let ep = server.endpoint(AssocKey { peer: 0, assoc }).expect("bound");
        assert_eq!(ep.send_ring_bytes(), 0, "receive-only association {assoc}");
        assert!(ep.send_complete());
    }
    assert_eq!(
        server.send_blocks(),
        0,
        "no receive-only endpoint holds one"
    );
    assert_eq!(server.send_ring_bytes(), 0, "no block made, none spare");
    for i in 0..client.shard_count() {
        client
            .check_shard_layout(i)
            .expect("consistent client shard");
    }
    // Kept, not freed: the spare list still holds every block it made.
    assert_eq!(client.send_ring_bytes(), peak_ring_bytes);
    let inline = std::mem::size_of::<AlfServer>();
    for side in [client, server] {
        let reported = side.approx_mem_bytes() - inline;
        assert_eq!(held(side).1 as usize, reported, "approx_mem_bytes");
    }
}

#[test]
fn a_standalone_sender_keeps_its_send_block_across_an_idle_stretch() {
    // Only an owner of many endpoints takes a send block back; a `Pair`
    // endpoint has one code path and simply never gives it up. Idle polls
    // long after its last ACK neither free nor allocate anything.
    let payload = WireBuf::from_vec(vec![7u8; 200]);
    let (mut a, mut b) = warm_pair(AlfConfig::default(), &payload, 4);
    assert!(a.send_complete());
    assert_eq!(
        a.send_ring_bytes(),
        456,
        "block + 4 ring slots + 4 deadlines"
    );
    assert_eq!(b.send_ring_bytes(), 0, "a receiver never holds one");
    for ms in [1, 1_000, 60_000] {
        let now = SimTime::from_millis(ms);
        let (n, frames) = allocs_in(|| [a.poll(now), b.poll(now)]);
        assert!(frames.iter().all(Vec::is_empty));
        assert_eq!(n, 0, "idle polls at {ms} ms allocated");
        assert_eq!(a.send_ring_bytes(), 456, "still held at {ms} ms");
    }
    assert_eq!(
        blocks_held(a),
        4,
        "the block, its two rings, the configuration"
    );
}

#[test]
fn one_corrupt_frame_allocates_one_counter_block_and_reports_it() {
    // A rejected frame moves one rare counter, `bad_messages`: the
    // endpoint allocates that block and nothing else, and
    // `approx_mem_bytes` grows by exactly its bytes.
    let payload = WireBuf::from_vec(vec![7u8; 200]);
    let template = Arc::new(AlfConfig::default());
    let (mut a, mut b) = warm_shared_pair(&template, &payload, 16);
    a.send_adu(AduName::Seq { index: 16 }, payload)
        .expect("window open");
    let mut frame = a.poll(NOW).pop().expect("the TU");
    *frame.last_mut().expect("payload") ^= 0x10;
    // A clone stays out here, so dropping the frame frees nothing.
    let frame = WireBuf::from_vec(frame);
    let reported = b.approx_mem_bytes();
    let (blocks, bytes) = (LIVE.with(Cell::get), LIVE_BYTES.with(Cell::get));
    b.on_frame(NOW, frame.clone());
    let grown = (
        LIVE.with(Cell::get) - blocks,
        (LIVE_BYTES.with(Cell::get) - bytes) as usize,
    );
    assert_eq!(b.stats().bad_messages, 1);
    assert_eq!(b.counter_blocks(), 1);
    let block = std::mem::size_of::<alf_core::transport::AlfStats>();
    assert_eq!(grown, (1, block), "[blocks, bytes] the rejection allocated");
    assert_eq!(b.approx_mem_bytes() - reported, block, "approx_mem_bytes");
}

/// Drive a client stack and a server stack until both go quiet: the
/// client's frames to the server, the server's answers back, and the
/// client's poll of what they brought.
fn exchange(client: &mut AlfServer, server: &mut AlfServer, egress: &mut Vec<(u64, Vec<u8>)>) {
    while client.pending_work() && !client.poll_batch(NOW, egress).idle() {}
    for (_, frame) in egress.drain(..) {
        server.ingest(0, frame);
    }
    while server.pending_work() && !server.poll_batch(NOW, egress).idle() {}
    for (_, frame) in egress.drain(..) {
        client.ingest(0, frame);
    }
    while client.pending_work() && !client.poll_batch(NOW, egress).idle() {}
}

/// One single-TU ADU from a client stack to a server stack and its ACK
/// back, each side driven until it goes quiet — the shape of the
/// `server_fanin` benchmark's inner loop.
fn one_adu_through_servers(
    client: &mut AlfServer,
    server: &mut AlfServer,
    index: u64,
    payload: &WireBuf,
    egress: &mut Vec<(u64, Vec<u8>)>,
) {
    let key = AssocKey { peer: 0, assoc: 1 };
    client
        .send_adu(key, AduName::Seq { index }, payload.clone())
        .expect("window open");
    exchange(client, server, egress);
    let delivered = server.take_delivered();
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].1.payload, *payload);
    assert!(client.drained(), "ACKed");
}

#[test]
fn server_adu_round_allocates_only_what_the_api_forces() {
    // Five, each forced by a public signature:
    //   client `poll_batch`  the TU frame (owned by the caller afterwards) 1
    //   server `poll_batch`  the `WireBuf` chunk header the ingested frame
    //                        is wrapped in, the ACK frame                 2
    //   `take_delivered`     hands its `Vec` to the caller, so the next
    //                        delivery starts a new one                    1
    //   client `poll_batch`  the ACK's chunk header (its ids are read off
    //                        the frame in place)                          1
    // Nothing for the slab, the slot records, the dirty lists, the shard
    // wheels, the endpoint's rings or the list a poll appends its frames to
    // (`AduTransport::poll_into`: each server keeps one; 7 while every
    // emitting poll returned a `Vec` of its own). `server_fanin` reports
    // 2.5 per ADU: there four TUs share each ACK and delivery `Vec`.
    let mut client = AlfServer::new(ServerConfig::default());
    let mut server = AlfServer::new(ServerConfig::default());
    let key = AssocKey { peer: 0, assoc: 1 };
    client.add_association(key, AlfConfig::default()).unwrap();
    server.add_association(key, AlfConfig::default()).unwrap();
    let payload = WireBuf::from_vec(vec![7u8; 600]);
    let mut egress = Vec::new();
    for index in 0..16 {
        one_adu_through_servers(&mut client, &mut server, index, &payload, &mut egress);
    }
    for index in 16..24 {
        let (n, ()) = allocs_in(|| {
            one_adu_through_servers(&mut client, &mut server, index, &payload, &mut egress)
        });
        assert_eq!(n, 5, "single-TU ADU through two AlfServers allocated {n}");
    }
}

#[test]
fn a_peer_declaring_4_gib_adus_is_charged_what_it_holds() {
    // The hostile declaration of the transport's in-order 4 GiB test: 264
    // ADUs declared at `u32::MAX`, three 64-byte TUs each, against the
    // default (unlimited) byte budget. 256 stay open, each buffer reserved
    // at 4 096 views x 64 B, and `approx_mem_bytes` is the bytes the
    // allocator holds, not 256 x 4 GiB.
    use alf_core::wire::Tu;
    let cfg = AlfConfig::default();
    let (frag, tus_per_adu) = (64u32, 3u32);
    let adus = cfg.max_partial_adus as u64 + 8;
    let mut b = AduTransport::new(cfg);
    for id in 0..adus {
        for k in 0..tus_per_adu {
            let tu = Tu {
                flags: 0,
                assoc: cfg.assoc,
                timestamp_us: 0,
                adu_id: id,
                adu_len: u32::MAX,
                frag_off: k * frag,
                name: AduName::Seq { index: id },
                payload: WireBuf::from_vec(vec![id as u8; frag as usize]),
            };
            b.on_frame(NOW, tu.encode().into());
        }
    }
    assert_eq!(
        b.reassembly_bytes(),
        cfg.max_partial_adus * u32::MAX as usize,
        "declared"
    );
    let reported = b.approx_mem_bytes() - std::mem::size_of::<AduTransport>();
    let reserved = cfg.max_partial_adus * cfg.max_frag_views * frag as usize;
    assert!(
        reported >= reserved,
        "{reported} below the {reserved} reserved"
    );
    assert_eq!(held(b).1 as usize, reported, "approx_mem_bytes");
}

/// One data segment from `a` to `b` and its ACK back: `send → poll →
/// on_frame → poll → on_frame`, then the application's `recv`.
fn one_segment(a: &mut StreamTransport, b: &mut StreamTransport, data: &[u8], sink: &mut [u8]) {
    assert_eq!(a.send(data), data.len());
    let mut frames = a.poll(NOW);
    assert_eq!(frames.len(), 1);
    b.on_frame(NOW, frames.pop().expect("the segment").into());
    let mut acks = b.poll(NOW);
    assert_eq!(acks.len(), 1);
    a.on_frame(NOW, acks.pop().expect("the ACK").into());
    assert!(a.send_complete(), "ACKed");
    assert_eq!(b.recv(sink), data.len());
}

#[test]
fn stream_segment_round_allocates_only_what_the_api_forces() {
    // Two `poll` result `Vec`s, two frame `Vec`s and the two `WireBuf` chunk
    // headers the caller wraps them in: 6. Nothing for the send/retransmit
    // FIFO, the in-flight ring or the in-order receive queue once warm. (The
    // parent of this test spent 10: a `take` copy, its `Rc`, a tree node and
    // the `covered` list on top.)
    let (mut a, mut b) = (
        StreamTransport::new(StreamConfig::default(), 1, 2),
        StreamTransport::new(StreamConfig::default(), 2, 1),
    );
    let data = [7u8; 1400];
    let mut sink = [0u8; 1400];
    for _ in 0..16 {
        one_segment(&mut a, &mut b, &data, &mut sink);
    }
    for _ in 0..8 {
        let (n, ()) = allocs_in(|| one_segment(&mut a, &mut b, &data, &mut sink));
        assert_eq!(n, 6, "stream data-segment round allocated {n}");
    }
}

/// `run_integrated` allocates what it returns — the output and the checksum
/// list (the latter only when the chain has a `Checksum`) — however many
/// hosted `Xor` runs the chain holds: the runs are found by walking the
/// stage list per tile, so there is no plan to allocate.
#[test]
fn integrated_pipeline_allocates_only_its_output() {
    use alf_core::pipeline::{Manipulation, Pipeline};
    let xor = |key| Manipulation::Xor { key, offset: 64 };
    let chain =
        |stages: Vec<Manipulation>| stages.into_iter().fold(Pipeline::new(), Pipeline::stage);
    let none = chain(vec![
        Manipulation::Swap32,
        Manipulation::Checksum,
        Manipulation::Copy,
    ]);
    let one = chain(vec![Manipulation::Swap32, xor(1), Manipulation::Checksum]);
    let two = chain(vec![
        Manipulation::Checksum,
        xor(1),
        Manipulation::Swap32,
        Manipulation::Copy,
        Manipulation::Swap32,
        xor(2),
        Manipulation::Checksum,
    ]);
    let no_sum = chain(vec![xor(1), Manipulation::Swap32]);
    let record: Vec<u8> = (0..65_536 + 5).map(|i| (i * 7) as u8).collect();
    for (runs, p, budget) in [(0, &none, 2), (1, &one, 2), (2, &two, 2), (1, &no_sum, 1)] {
        let (n, out) = allocs_in(|| p.run_integrated(&record));
        assert_eq!(out, p.run_layered(&record));
        assert!(
            n <= budget,
            "{runs} hosted run(s), {} stages: {n} allocations (budget {budget})",
            p.len()
        );
    }
}
