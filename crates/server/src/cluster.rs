//! Many-association cluster driver: one [`AlfServer`] node terminating
//! many client nodes in `ct-netsim`.
//!
//! This is the measurement harness for experiment X13: N associations
//! spread over a few client nodes (the wire association id is 16-bit, so
//! 100 000 associations ride as several clients × tens of thousands of
//! ids each) all transfer ADUs to one server process, and the run reports
//! wall-clock cost per ADU and bytes per association so the harness can
//! assert the cost curve stays flat from 1 to 100 000 associations.
//!
//! Determinism: the simulator clock, FNV shard placement, slab-index
//! storage (hash map used only for point lookups, never iterated) and
//! sorted dirty-list drains make two runs of the same seed
//! byte-identical — including the telemetry dumps, which is what the
//! determinism test in `tests/server.rs` pins.

use crate::{AlfServer, AssocKey, LoopWork, ServerConfig};
use alf_core::adu::AduName;
use alf_core::transport::AlfConfig;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::net::Network;
use ct_netsim::time::SimDuration;
use std::collections::VecDeque;

/// Shape of a many-association run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Client nodes. Total associations = `clients × assocs_per_client`.
    pub clients: usize,
    /// Associations per client node (wire ids `1..=assocs_per_client`,
    /// so at most [`u16::MAX`]).
    pub assocs_per_client: usize,
    /// ADUs each association sends to the server.
    pub adus_per_assoc: usize,
    /// Bytes per ADU.
    pub adu_bytes: usize,
    /// Server table/wheel/batch shape.
    pub server: ServerConfig,
    /// Transport configuration used by both ends of every association.
    pub alf: AlfConfig,
    /// Client↔server link.
    pub link: LinkConfig,
    /// Fault process on every link.
    pub faults: FaultConfig,
    /// In-flight ADU budget across the whole run: offers pause once this
    /// many offered ADUs are neither delivered nor reported lost. This is
    /// what keeps a 100 000-association run's working set (frames queued in
    /// the simulator, reassembly state, retransmission buffers) bounded —
    /// without it the offer burst scales the footprint with the total ADU
    /// count and the measured per-ADU cost drowns in allocator traffic.
    pub inflight: usize,
    /// Untimed warmup ADUs per association, run to full drain before the
    /// measured phase. One warmup ADU pays each endpoint's one-time costs
    /// (send queue, retransmission buffer, reassembly state) outside the
    /// measured window, so `ns_per_adu` reports steady-state per-ADU cost
    /// rather than per-association setup amortized over however many ADUs
    /// the sweep point happens to send.
    pub warmup_adus: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            clients: 1,
            assocs_per_client: 1,
            adus_per_assoc: 16,
            adu_bytes: 512,
            server: ServerConfig::default(),
            alf: AlfConfig::default(),
            link: LinkConfig::ideal(),
            faults: FaultConfig::none(),
            inflight: 512,
            warmup_adus: 1,
        }
    }
}

/// Outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Concurrent associations the server terminated.
    pub assocs: usize,
    /// ADUs offered across all associations.
    pub adus_offered: u64,
    /// ADUs delivered complete to the server application.
    pub adus_delivered: u64,
    /// ADUs reported lost by name (sender side).
    pub adus_lost: u64,
    /// Every delivered payload matched the regenerated bytes for its own
    /// `(peer, assoc, index)` identity — i.e. zero cross-association bleed.
    pub verified: bool,
    /// Every offered ADU was delivered or explicitly reported lost, and
    /// every client drained.
    pub complete: bool,
    /// Simulated time from first send to completion.
    pub elapsed: SimDuration,
    /// Wall-clock time of the run loop (setup — association creation —
    /// excluded). This is the X13 cost numerator.
    pub wall: std::time::Duration,
    /// Server batches executed.
    pub batches: u64,
    /// Frames the server ingested / emitted.
    pub frames_in: u64,
    pub frames_out: u64,
    /// The server's batch-loop work (see [`LoopWork`]).
    pub work: LoopWork,
    /// Peak observed server footprint (sampled after the offer burst and
    /// at completion; see [`AlfServer::approx_mem_bytes`]).
    pub server_mem_bytes: usize,
}

impl ClusterReport {
    /// Wall-clock nanoseconds per delivered ADU.
    pub fn ns_per_adu(&self) -> f64 {
        if self.adus_delivered == 0 {
            return f64::INFINITY;
        }
        self.wall.as_nanos() as f64 / self.adus_delivered as f64
    }

    /// Server bytes per association.
    pub fn bytes_per_assoc(&self) -> f64 {
        self.server_mem_bytes as f64 / (self.assocs.max(1)) as f64
    }
}

/// The deterministic payload of ADU `index` on `(peer, assoc)` — its bytes
/// encode the association's identity, so a frame steered to the wrong
/// association can never verify. Regenerable, which is what makes
/// verification (and `AppRecompute` recovery) possible without storing
/// every payload.
pub fn assoc_payload(peer: u64, assoc: u16, index: u64, size: usize) -> Vec<u8> {
    // Full-width avalanche so every identity bit reaches every byte (a
    // plain shift-xor seed let distinct peers collide once truncated).
    let mut seed = peer.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ u64::from(assoc).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
        ^ index.wrapping_mul(0x1656_67b1_9e37_79f9);
    seed ^= seed >> 33;
    seed = seed.wrapping_mul(0xff51_afd7_ed55_8ccd);
    seed ^= seed >> 33;
    (0..size as u64)
        .map(|j| ((seed ^ j).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
        .collect()
}

/// Run `cfg.clients × cfg.assocs_per_client` associations into one
/// [`AlfServer`] and report. With `telemetry`, the network, the server
/// endpoints and the client endpoints all record into it, the server's
/// per-shard stats publish at completion, and two same-seed runs produce
/// byte-identical registries and flight-recorder dumps.
///
/// # Panics
/// If `assocs_per_client` exceeds the 16-bit wire association id space.
pub fn run_cluster(
    seed: u64,
    cfg: &ClusterConfig,
    telemetry: Option<ct_telemetry::Telemetry>,
) -> ClusterReport {
    assert!(
        cfg.assocs_per_client <= u16::MAX as usize,
        "wire association ids are 16-bit"
    );
    let mut net = Network::new(seed);
    let server_node = net.add_node();
    let client_nodes: Vec<_> = (0..cfg.clients).map(|_| net.add_node()).collect();
    for &c in &client_nodes {
        net.connect(server_node, c, cfg.link, cfg.faults);
    }
    // NodeId → peer index for routing server ingress.
    let mut peer_of_node = vec![u64::MAX; net.node_count()];
    for (i, c) in client_nodes.iter().enumerate() {
        peer_of_node[c.index()] = i as u64;
    }

    let mut server = AlfServer::new(cfg.server);
    if let Some(tel) = &telemetry {
        net.attach_telemetry(tel.clone());
        server.attach_telemetry(tel.clone());
    }
    // The client side reuses [`AlfServer`] as its stack: the same dirty
    // lists and wakeup wheels make per-iteration client work proportional
    // to the associations something *happened* to, never to the population.
    // (A flat mux scanned per iteration costs O(associations × frames) —
    // quadratic in the X13 sweep.) Each client stack keys everything under
    // peer 0: its single remote is the server.
    let mut clients: Vec<AlfServer> = (0..cfg.clients)
        .map(|_| {
            let mut c = AlfServer::new(cfg.server);
            if let Some(tel) = &telemetry {
                c.attach_telemetry_as(tel.clone(), "client");
            }
            c
        })
        .collect();
    for (peer, client) in clients.iter_mut().enumerate() {
        for a in 1..=cfg.assocs_per_client as u16 {
            let key = AssocKey {
                peer: peer as u64,
                assoc: a,
            };
            server.add_association(key, cfg.alf).expect("unique keys");
            client
                .add_association(AssocKey { peer: 0, assoc: a }, cfg.alf)
                .expect("unique ids");
        }
    }

    let assocs = cfg.clients * cfg.assocs_per_client;
    let warmup = cfg.warmup_adus as u64;
    let measured_total = (assocs * cfg.adus_per_assoc) as u64;
    // Associations still offering in a phase: `(peer, assoc, next index)`.
    // A rotating queue — the front association offers, then moves to the
    // back — so every association makes progress while the in-flight
    // throttle holds the working set flat.
    let make_offer = |first_idx: u64| -> VecDeque<(u64, u16, u64)> {
        (0..cfg.clients as u64)
            .flat_map(|p| (1..=cfg.assocs_per_client as u16).map(move |a| (p, a, first_idx)))
            .collect()
    };

    let mut cx = DriveCtx {
        net: &mut net,
        server: &mut server,
        clients: &mut clients,
        server_node,
        client_nodes: &client_nodes,
        peer_of_node: &peer_of_node,
        adu_bytes: cfg.adu_bytes,
        inflight_cap: cfg.inflight.max(1) as u64,
        egress: Vec::new(),
    };
    let mut tally = Tally::default();
    let mut complete = true;

    // Warmup (untimed): `warmup_adus` ADUs per association, run to full
    // drain before the clock starts. This pays each endpoint's one-time
    // costs — send queue, retransmission buffer, reassembly state, their
    // first page faults — outside the measured window, so X13 compares
    // steady-state per-ADU cost across association counts rather than
    // charging 100 000 associations' setup to two ADUs each.
    if warmup > 0 {
        let mut woffer = make_offer(0);
        complete &= drive_phase(
            &mut cx,
            &mut woffer,
            warmup,
            assocs as u64 * warmup,
            &mut tally,
            false,
        );
    }
    let warm = tally.clone();
    let warm_batches = cx.server.batches();
    let warm_work = cx.server.loop_work();

    let start = cx.net.now();
    let wall_start = std::time::Instant::now();
    let mut offer = make_offer(warmup);
    complete &= drive_phase(
        &mut cx,
        &mut offer,
        warmup + cfg.adus_per_assoc as u64,
        assocs as u64 * warmup + measured_total,
        &mut tally,
        true,
    );
    let wall = wall_start.elapsed();
    tally.mem_peak = tally.mem_peak.max(cx.server.approx_mem_bytes());
    let elapsed = cx.net.now().saturating_since(start);

    if let Some(tel) = &telemetry {
        // With span sampling armed the network suppressed its per-frame
        // counter mirror; this flush writes the identical final values
        // from the authoritative stats block (a no-op when unarmed).
        cx.net.publish_net_counters();
        let mut reg = tel.metrics_mut();
        cx.server.publish_stats(&mut reg, "server");
        // The observability-plane rollup: per-shard registries merged into
        // the server-wide snapshot (ct-top reads these names).
        cx.server.publish_rollup(&mut reg, "server.rollup");
        reg.counter_set(
            "server.run.delivered",
            tally.delivered_ok - warm.delivered_ok,
        );
        reg.counter_set("server.run.elapsed_ns", elapsed.as_nanos());
    }

    ClusterReport {
        assocs,
        adus_offered: measured_total,
        adus_delivered: (tally.delivered_ok + tally.corrupt) - (warm.delivered_ok + warm.corrupt),
        adus_lost: tally.lost - warm.lost,
        verified: tally.corrupt == 0,
        complete,
        elapsed,
        wall,
        batches: cx.server.batches() - warm_batches,
        frames_in: tally.frames_in - warm.frames_in,
        frames_out: tally.frames_out - warm.frames_out,
        work: cx.server.loop_work() - warm_work,
        server_mem_bytes: tally.mem_peak,
    }
}

/// Counters accumulated across the warmup and measured phases of
/// [`run_cluster`]. Cumulative — the measured phase reports deltas against
/// a snapshot taken when it starts.
#[derive(Debug, Clone, Default)]
struct Tally {
    offered: u64,
    delivered_ok: u64,
    corrupt: u64,
    lost: u64,
    frames_in: u64,
    frames_out: u64,
    mem_peak: usize,
}

/// Everything one phase of the cluster run borrows.
struct DriveCtx<'a> {
    net: &'a mut Network,
    server: &'a mut AlfServer,
    clients: &'a mut [AlfServer],
    server_node: ct_netsim::net::NodeId,
    client_nodes: &'a [ct_netsim::net::NodeId],
    peer_of_node: &'a [u64],
    adu_bytes: usize,
    inflight_cap: u64,
    /// Scratch for endpoint egress, reused across batches and phases.
    egress: Vec<(u64, Vec<u8>)>,
}

/// Drive the cluster until every association has moved its ADUs for this
/// phase (`offer` entries run from their start index up to `idx_end`) and
/// everything has drained, or the world wedges. `target` is the
/// *cumulative* offered/accounted count at which the phase is complete.
/// Returns true on clean completion.
fn drive_phase(
    cx: &mut DriveCtx<'_>,
    offer: &mut VecDeque<(u64, u16, u64)>,
    idx_end: u64,
    target: u64,
    t: &mut Tally,
    sample_mem: bool,
) -> bool {
    let offered_start = t.offered;
    let mut sampled = !sample_mem;
    let max_iters = 2_000_000 + (target - offered_start) as usize * 4;
    for _ in 0..max_iters {
        // Offer from the front of the queue while the in-flight budget
        // allows. The front association bursts all its remaining ADUs
        // while its endpoint is hot in cache (one touch per association,
        // not one per ADU); a refusal (window full) rotates it to the
        // back and yields the rest of the iteration to draining — never a
        // scan of every blocked association.
        'budget: while t.offered < target
            && t.offered - (t.delivered_ok + t.corrupt + t.lost) < cx.inflight_cap
        {
            let Some(&(peer, assoc, mut next)) = offer.front() else {
                break;
            };
            let ckey = AssocKey { peer: 0, assoc };
            while next < idx_end {
                if t.offered >= target
                    || t.offered - (t.delivered_ok + t.corrupt + t.lost) >= cx.inflight_cap
                {
                    offer.front_mut().expect("front exists").2 = next;
                    break 'budget;
                }
                let payload = assoc_payload(peer, assoc, next, cx.adu_bytes);
                match cx.clients[peer as usize].send_adu(
                    ckey,
                    AduName::Seq { index: next },
                    payload,
                ) {
                    Ok(_) => {
                        t.offered += 1;
                        next += 1;
                    }
                    Err(_) => {
                        // Window full: park the association at the back
                        // with its progress and drain before retrying.
                        let mut item = offer.pop_front().expect("front exists");
                        item.2 = next;
                        offer.push_back(item);
                        break 'budget;
                    }
                }
            }
            if next >= idx_end {
                offer.pop_front();
            }
        }

        let now = cx.net.now();
        let mut moved = false;

        // Clients → network: batched polls, O(dirty associations). The
        // wheel-due check matters: an expired retransmission timer is not
        // "pending work" until a batch advances the wheel and fires it.
        for (peer, client) in cx.clients.iter_mut().enumerate() {
            while client.pending_work() || client.next_wakeup().is_some_and(|w| w <= now) {
                if client.poll_batch(now, &mut cx.egress).idle() {
                    break;
                }
                moved = true;
            }
            for (_, f) in cx.egress.drain(..) {
                let _ = cx.net.send(cx.client_nodes[peer], cx.server_node, f);
            }
            t.lost += client.take_losses().len() as u64;
        }

        // Network → server ingress queue (no per-frame clock read).
        while let Some(frame) = cx.net.recv(cx.server_node) {
            moved = true;
            t.frames_in += 1;
            cx.server
                .ingest(cx.peer_of_node[frame.src.index()], frame.payload);
        }

        // Server batches: one clock read per batch; same wheel-due gate as
        // the clients so expired wakeups get a batch to fire in.
        while cx.server.pending_work() || cx.server.next_wakeup().is_some_and(|w| w <= now) {
            if cx.server.poll_batch(now, &mut cx.egress).idle() {
                break;
            }
            moved = true;
        }
        for (peer, f) in cx.egress.drain(..) {
            t.frames_out += 1;
            let _ = cx
                .net
                .send(cx.server_node, cx.client_nodes[peer as usize], f);
        }

        // Server application: verify each delivery against the regenerated
        // bytes for its own identity — cross-association bleed cannot pass.
        for (key, adu, _latency) in cx.server.take_delivered() {
            let AduName::Seq { index } = adu.name else {
                t.corrupt += 1;
                continue;
            };
            let want = assoc_payload(key.peer, key.assoc, index, cx.adu_bytes);
            if adu.payload.as_slice() == want.as_slice() {
                t.delivered_ok += 1;
            } else {
                t.corrupt += 1;
            }
        }

        // Network → clients (ACKs, NACKs): queue only; the next
        // iteration's batched client polls process them.
        for (peer, client) in cx.clients.iter_mut().enumerate() {
            while let Some(frame) = cx.net.recv(cx.client_nodes[peer]) {
                moved = true;
                client.ingest(0, frame.payload);
            }
        }
        if !sampled && t.offered - offered_start >= (target - offered_start).min(cx.inflight_cap) {
            // One O(n) footprint sample while the throttle window is full
            // (steady-state peak), plus the completion sample at run end.
            t.mem_peak = t.mem_peak.max(cx.server.approx_mem_bytes());
            sampled = true;
        }

        // Completion: cheap count gates first, the O(associations) drain
        // check only once they all pass.
        if offer.is_empty()
            && t.delivered_ok + t.corrupt + t.lost >= target
            && !moved
            && cx.clients.iter().all(|c| c.drained())
        {
            return true;
        }

        // Advance the world (same discipline as the single-pair driver:
        // never jump the clock while something just moved at this instant).
        if !cx.net.is_idle() {
            // Drain every scheduled delivery before the next endpoint
            // round, so one loop iteration is one network *phase* and the
            // per-iteration sweeps amortize over a whole flight of frames.
            while cx.net.step().is_some() {}
        } else if moved {
            // Re-poll at the same instant.
        } else {
            let next = [
                cx.server.next_wakeup(),
                cx.clients.iter().filter_map(|c| c.next_wakeup()).min(),
            ]
            .into_iter()
            .flatten()
            .min();
            match next {
                Some(w) if w > now => cx.net.advance(w.saturating_since(now)),
                Some(_) => {}
                None => return false, // nothing scheduled anywhere — wedged
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cluster_clean_run_completes_and_verifies() {
        let cfg = ClusterConfig {
            clients: 2,
            assocs_per_client: 8,
            adus_per_assoc: 5,
            adu_bytes: 900,
            ..ClusterConfig::default()
        };
        let r = run_cluster(11, &cfg, None);
        assert!(r.complete, "{r:?}");
        assert!(r.verified, "{r:?}");
        assert_eq!(r.adus_delivered, 80);
        assert_eq!(r.adus_lost, 0);
        assert_eq!(r.assocs, 16);
        assert!(r.batches > 0);
        assert!(r.server_mem_bytes > 0);
    }

    #[test]
    fn lossy_cluster_recovers_every_adu() {
        let cfg = ClusterConfig {
            clients: 2,
            assocs_per_client: 4,
            adus_per_assoc: 6,
            adu_bytes: 3000,
            link: LinkConfig::lan(),
            faults: FaultConfig::loss(0.05),
            ..ClusterConfig::default()
        };
        let r = run_cluster(7, &cfg, None);
        assert!(r.complete && r.verified, "{r:?}");
        assert_eq!(r.adus_delivered, 48, "buffered mode repairs all losses");
    }

    #[test]
    fn payloads_encode_identity() {
        assert_ne!(assoc_payload(1, 2, 3, 64), assoc_payload(1, 2, 4, 64));
        assert_ne!(assoc_payload(1, 2, 3, 64), assoc_payload(2, 2, 3, 64));
        assert_ne!(assoc_payload(1, 2, 3, 64), assoc_payload(1, 3, 3, 64));
        assert_eq!(assoc_payload(5, 6, 7, 64), assoc_payload(5, 6, 7, 64));
    }
}
