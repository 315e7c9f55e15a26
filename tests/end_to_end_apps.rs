//! Cross-crate integration: the application substrates running over the
//! real transport and network — file transfer with out-of-order placement,
//! real-time video with concealment, RPC with out-of-order completion, and
//! the parallel sink's path equivalence.

use alf_core::adu::AduName;
use alf_core::transport::{AduTransport, AlfConfig, RecoveryMode};
use ct_apps::filetransfer::{FileReceiver, FileSender};
use ct_apps::parallel::{serialize_stream, shard_workload, ShardedSink, StreamResplitter};
use ct_apps::rpc::{Proc, RpcClient, RpcServer};
use ct_apps::video::{PlayoutBuffer, VideoSource};
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::net::{Network, NodeId};
use ct_netsim::time::{SimDuration, SimTime};

/// Shared scaffolding: a two-node net with two ALF endpoints and a pump
/// closure that advances everything one step.
struct World {
    net: Network,
    a_node: NodeId,
    b_node: NodeId,
    a: AduTransport,
    b: AduTransport,
}

impl World {
    fn new(seed: u64, faults: FaultConfig, cfg: AlfConfig) -> Self {
        let mut net = Network::new(seed);
        let a_node = net.add_node();
        let b_node = net.add_node();
        net.connect(a_node, b_node, LinkConfig::lan(), faults);
        World {
            net,
            a_node,
            b_node,
            a: AduTransport::new(cfg),
            b: AduTransport::new(cfg),
        }
    }

    /// One driver round; returns false when nothing can progress.
    fn tick(&mut self) -> bool {
        let now = self.net.now();
        let mut moved = false;
        for m in self.a.poll(now) {
            moved = true;
            let _ = self.net.send(self.a_node, self.b_node, m);
        }
        for m in self.b.poll(now) {
            moved = true;
            let _ = self.net.send(self.b_node, self.a_node, m);
        }
        while let Some(f) = self.net.recv(self.b_node) {
            moved = true;
            self.b.on_frame(self.net.now(), f.payload.into());
        }
        while let Some(f) = self.net.recv(self.a_node) {
            moved = true;
            self.a.on_frame(self.net.now(), f.payload.into());
        }
        if !self.net.is_idle() {
            self.net.step();
            return true;
        }
        if moved {
            return true;
        }
        let next = [self.a.next_timeout(), self.b.next_timeout()]
            .into_iter()
            .flatten()
            .min();
        match next {
            Some(t) if t > now => {
                self.net.advance(t.saturating_since(now));
                true
            }
            Some(_) => true,
            None => false,
        }
    }
}

fn snappy(recovery: RecoveryMode) -> AlfConfig {
    AlfConfig {
        recovery,
        retransmit_timeout: SimDuration::from_millis(5),
        assembly_timeout: SimDuration::from_millis(2),
        ..AlfConfig::default()
    }
}

#[test]
fn file_transfer_end_to_end_with_placement() {
    let file: Vec<u8> = (0..300_000).map(|i| (i % 241) as u8).collect();
    let sender = FileSender::new(&file, 8192);
    let mut world = World::new(
        17,
        FaultConfig::loss(0.03),
        snappy(RecoveryMode::TransportBuffer),
    );
    let mut rx = FileReceiver::new(file.len());
    let adus = sender.adus();
    let mut offered = 0usize;
    for _ in 0..3_000_000 {
        while offered < adus.len() {
            match world
                .a
                .send_adu(adus[offered].name, adus[offered].payload.clone())
            {
                Ok(_) => offered += 1,
                Err(_) => break,
            }
        }
        while let Some((adu, _)) = world.b.recv_adu() {
            rx.place(&adu).expect("placement in range");
        }
        if rx.is_complete() {
            break;
        }
        if !world.tick() {
            break;
        }
    }
    assert!(rx.is_complete(), "holes left: {:?}", rx.holes());
    assert_eq!(rx.into_file(), file);
}

#[test]
fn video_end_to_end_loss_tolerant() {
    const FRAMES: u32 = 30;
    const SLOTS: u16 = 6;
    let source = VideoSource::new(FRAMES, SLOTS, 1000);
    let mut world = World::new(
        23,
        FaultConfig::loss(0.04),
        snappy(RecoveryMode::NoRetransmit),
    );
    let interval = SimDuration::from_millis(33);
    let mut playout = PlayoutBuffer::new(
        SLOTS,
        FRAMES,
        SimTime::ZERO,
        interval,
        SimDuration::from_millis(66),
    );
    let mut next_frame = 0u32;
    while !playout.finished() {
        let now = world.net.now();
        while next_frame < FRAMES
            && now >= SimTime::ZERO + interval.saturating_mul(next_frame as u64)
        {
            for adu in source.frame_adus(next_frame) {
                world
                    .a
                    .send_adu(adu.name, adu.payload)
                    .expect("no window in NoRetransmit");
            }
            next_frame += 1;
        }
        while let Some((adu, _)) = world.b.recv_adu() {
            playout.on_adu(world.net.now(), adu);
        }
        playout.advance(world.net.now());
        if !world.tick() {
            world.net.advance(SimDuration::from_millis(1));
        }
    }
    let s = playout.stats;
    assert_eq!(s.frames_perfect + s.frames_partial, FRAMES as u64);
    assert!(
        s.render_ratio() > 0.85,
        "stream should stay mostly intact at 4% TU loss, got {}",
        s.render_ratio()
    );
    assert!(s.tiles_concealed > 0, "4% loss must conceal something");
    // The defining real-time property: the stream finished on schedule.
    assert!(world.net.now() < SimTime::from_secs(3));
}

#[test]
fn rpc_end_to_end_out_of_order_completion() {
    let mut world = World::new(
        29,
        FaultConfig::loss(0.02),
        snappy(RecoveryMode::TransportBuffer),
    );
    let mut client = RpcClient::new();
    let mut server = RpcServer::new();
    // One big call then several small ones.
    let mut reqs = vec![client.call(Proc::Sum, &(0..30_000u32).collect::<Vec<_>>())];
    for k in 0..6u32 {
        reqs.push(client.call(Proc::Square, &[k, k + 1]));
    }
    for req in &reqs {
        world.a.send_adu(req.name, req.payload.clone()).unwrap();
    }
    let mut done: Vec<u32> = Vec::new();
    for _ in 0..3_000_000 {
        while let Some((adu, _)) = world.b.recv_adu() {
            let resp = server.handle(&adu).expect("valid request");
            world.b.send_adu(resp.name, resp.payload).unwrap();
        }
        while let Some((adu, _)) = world.a.recv_adu() {
            client.on_response(&adu).expect("valid response");
        }
        for (id, _proc, result) in client.take_completed() {
            if id == 0 {
                assert_eq!(
                    result,
                    vec![(0..30_000u32).fold(0u32, |a, b| a.wrapping_add(b))]
                );
            }
            done.push(id);
        }
        if done.len() == reqs.len() {
            break;
        }
        if !world.tick() {
            break;
        }
    }
    assert_eq!(done.len(), reqs.len(), "all calls must complete");
    assert_ne!(
        done.first(),
        Some(&0),
        "the big call must not finish first — small calls overtake it"
    );
    assert_eq!(server.calls_served as usize, reqs.len());
}

#[test]
fn parallel_sink_paths_agree_over_network_delivery() {
    // Ship shard-named ADUs through the real transport, ingest them at the
    // receiver, and verify the digest equals both local ingest paths.
    let adus = shard_workload(4, 16, 2048);
    let mut world = World::new(
        37,
        FaultConfig::loss(0.02),
        snappy(RecoveryMode::TransportBuffer),
    );
    let mut sink = ShardedSink::new(4);
    let mut offered = 0usize;
    let mut received = 0usize;
    for _ in 0..3_000_000 {
        while offered < adus.len() {
            match world
                .a
                .send_adu(adus[offered].name, adus[offered].payload.clone())
            {
                Ok(_) => offered += 1,
                Err(_) => break,
            }
        }
        while let Some((adu, _)) = world.b.recv_adu() {
            assert!(matches!(adu.name, AduName::Shard { .. }));
            sink.ingest_adu(&adu).unwrap();
            received += 1;
        }
        if received == adus.len() {
            break;
        }
        if !world.tick() {
            break;
        }
    }
    assert_eq!(received, adus.len());

    let mut local = ShardedSink::new(4);
    for adu in &adus {
        local.ingest_adu(adu).unwrap();
    }
    let mut resplit = StreamResplitter::new(4);
    resplit.ingest_stream(&serialize_stream(&adus));

    assert_eq!(sink.combined_digest(), local.combined_digest());
    assert_eq!(sink.combined_digest(), resplit.sink().combined_digest());
    assert_eq!(sink.total_bytes(), 4 * 16 * 2048);
}
