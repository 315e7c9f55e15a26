//! `server_fanin` — four client nodes × 25 000 associations into one
//! default-config `AlfServer` (the clients are `AlfServer`s too, as in
//! `ct_server::cluster`), 600-byte ADUs over ideal links.
//!
//! Why: the working set (≈ 2 KB of endpoint state × 100 000 associations,
//! on each side) defeats every cache, so demux, slab, shard wheels, dirty
//! list and batch amortisation in `ct-server` dominate. It is the only
//! workload where set-up time and resident memory are large, so work moved
//! into set-up or memory shows.

use super::pair::{alf_counts, recv};
use super::{Counts, Meter, Params, Phase, Round};
use crate::gen;
use crate::trace::{Span, Tracer};
use alf_core::adu::AduName;
use alf_core::transport::AlfConfig;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::net::{Network, NodeId};
use ct_server::cluster::assoc_payload;
use ct_server::{AlfServer, AssocKey, ServerConfig};
use ct_wire::WireBuf;
use std::collections::VecDeque;

/// Client nodes.
pub const CLIENTS: usize = 4;
/// Associations per client node at scale 1.
pub const ASSOCS_PER_CLIENT: u64 = 25_000;
/// Measured ADUs per association (after one untimed warm-up ADU each).
pub const ADUS_PER_ASSOC: u64 = 4;
/// Bytes per ADU: one TU.
pub const ADU_BYTES: usize = 600;
/// Offered-but-unaccounted ADUs allowed across the whole run. Bounds the
/// working set of frames in the simulator, as `ClusterConfig::inflight`.
pub const INFLIGHT: u64 = 512;
/// The pool payloads are views into. Small on purpose: the endpoint state is
/// what must miss the caches here, not the load generator's source bytes
/// (with a 1 MiB pool, checking a delivery cost 180 ns, 5 % of the run).
const POOL_BYTES: usize = 4 << 10;

/// Where `(peer, assoc, op)`'s payload starts in the pool: the identity is
/// in the bytes, so a frame steered to the wrong association cannot verify.
fn offset(peer: u64, assoc: u16, op: u64) -> usize {
    let id = gen::mix(peer << 16 | u64::from(assoc));
    (gen::mix(id ^ gen::mix(op)) % (POOL_BYTES - ADU_BYTES) as u64) as usize
}

struct World {
    net: Network,
    server: AlfServer,
    server_node: NodeId,
    clients: Vec<AlfServer>,
    client_nodes: Vec<NodeId>,
    /// `NodeId::index()` → peer number, for routing server ingress.
    peer_of_node: Vec<u64>,
    assocs_per_client: u16,
    pool: WireBuf,
    egress: Vec<(u64, Vec<u8>)>,
    /// `(peer, assoc)` by op number, for the ops in flight.
    owner: Vec<(u64, u16)>,
    frames_in: u64,
    ingress_backlog_max: usize,
    inbox_depth_max: usize,
}

impl World {
    fn new(p: &Params, tr: &mut Tracer) -> Self {
        let assocs_per_client = p.scaled(ASSOCS_PER_CLIENT, 8) as u16;
        let mut net = Network::new(p.seed);
        let server_node = net.add_node();
        let client_nodes: Vec<_> = (0..CLIENTS).map(|_| net.add_node()).collect();
        for &c in &client_nodes {
            net.connect(server_node, c, LinkConfig::ideal(), FaultConfig::none());
        }
        let mut peer_of_node = vec![u64::MAX; net.node_count()];
        for (i, c) in client_nodes.iter().enumerate() {
            peer_of_node[c.index()] = i as u64;
        }
        let mut server = AlfServer::new(ServerConfig::default());
        let mut clients: Vec<_> = (0..CLIENTS)
            .map(|_| AlfServer::new(ServerConfig::default()))
            .collect();
        if let Some(tel) = &p.telemetry {
            net.attach_telemetry(tel.clone());
            server.attach_telemetry(tel.clone());
            for c in &mut clients {
                c.attach_telemetry_as(tel.clone(), "client");
            }
        }
        let alf = AlfConfig::default();
        for (peer, client) in clients.iter_mut().enumerate() {
            for assoc in 1..=assocs_per_client {
                let key = AssocKey {
                    peer: peer as u64,
                    assoc,
                };
                tr.span(Span::AddAssociation, None, || {
                    server.add_association(key, alf).expect("unique keys");
                    client
                        .add_association(AssocKey { peer: 0, assoc }, alf)
                        .expect("unique ids");
                });
            }
        }
        World {
            net,
            server,
            server_node,
            clients,
            client_nodes,
            peer_of_node,
            assocs_per_client,
            pool: WireBuf::from_vec(assoc_payload(p.seed, 0, 0, POOL_BYTES)),
            egress: Vec::new(),
            owner: vec![(0, 0); (2 * INFLIGHT as usize).next_power_of_two()],
            frames_in: 0,
            ingress_backlog_max: 0,
            inbox_depth_max: 0,
        }
    }

    fn assocs(&self) -> u64 {
        CLIENTS as u64 * u64::from(self.assocs_per_client)
    }

    /// Every association offers `per_assoc` ADUs, numbered from `first_op`;
    /// run until all are accounted and everything has drained.
    fn drive(&mut self, first_op: u64, per_assoc: u64, meter: &mut Meter, tr: &mut Tracer) {
        let target = self.assocs() * per_assoc;
        // Associations still offering: `(peer, assoc, ADUs left)`. The front
        // one bursts while its endpoint is hot in cache; a refusal rotates
        // it to the back — never a scan of every blocked association.
        let mut offer: VecDeque<(u64, u16, u64)> = (0..CLIENTS as u64)
            .flat_map(|p| (1..=self.assocs_per_client).map(move |a| (p, a, per_assoc)))
            .collect();
        let mut offered = 0u64;
        let mut lost = 0u64;
        let consumed_before = meter.consumed_count();
        let ring = self.owner.len() - 1;
        let max_turns = 2_000_000 + target * 4;

        for _ in 0..max_turns {
            let accounted = meter.consumed_count() - consumed_before + lost;
            'budget: while offered < target && offered - accounted < INFLIGHT {
                let Some(&mut (peer, assoc, ref mut left)) = offer.front_mut() else {
                    break;
                };
                while *left > 0 && offered < target && offered - accounted < INFLIGHT {
                    let op = first_op + offered;
                    let payload = tr.span(Span::Gen, Some(op), || {
                        let off = offset(peer, assoc, op);
                        self.pool.slice(off..off + ADU_BYTES)
                    });
                    let key = AssocKey { peer: 0, assoc };
                    let name = AduName::Seq { index: op };
                    let client = &mut self.clients[peer as usize];
                    if tr
                        .span(Span::SendAdu, Some(op), || {
                            client.send_adu(key, name, payload)
                        })
                        .is_err()
                    {
                        // Window full: park it at the back and drain first.
                        offer.rotate_left(1);
                        break 'budget;
                    }
                    self.owner[op as usize & ring] = (peer, assoc);
                    meter.submitted(op, self.net.now());
                    offered += 1;
                    *left -= 1;
                }
                if *left == 0 {
                    offer.pop_front();
                } else {
                    break; // in-flight budget exhausted
                }
            }

            let now = self.net.now();
            let mut moved = false;

            // Clients → network. The span covers the run-a-batch gate too:
            // `pending_work` / `next_wakeup` are ct-server calls, and an
            // expired wakeup is not pending work until a batch fires it.
            for (peer, client) in self.clients.iter_mut().enumerate() {
                let egress = &mut self.egress;
                tr.span(Span::PollBatchClients, None, || {
                    while client.pending_work() || client.next_wakeup().is_some_and(|w| w <= now) {
                        if client.poll_batch(now, egress).idle() {
                            break;
                        }
                        moved = true;
                    }
                });
                for (_, f) in self.egress.drain(..) {
                    let (from, to) = (self.client_nodes[peer], self.server_node);
                    tr.span(Span::NetSend, None, || {
                        let _ = self.net.send(from, to, f);
                    });
                }
                lost += client.take_losses().len() as u64;
            }

            // Network → server ingress queue.
            self.inbox_depth_max = self.inbox_depth_max.max(self.net.pending(self.server_node));
            while let Some(frame) = recv(&mut self.net, self.server_node, tr) {
                moved = true;
                self.frames_in += 1;
                let peer = self.peer_of_node[frame.src.index()];
                tr.span(Span::Ingest, None, || {
                    self.server.ingest(peer, frame.payload)
                });
            }
            self.ingress_backlog_max = self.ingress_backlog_max.max(self.server.ingress_backlog());

            // Server batches.
            {
                let (server, egress) = (&mut self.server, &mut self.egress);
                tr.span(Span::PollBatch, None, || {
                    while server.pending_work() || server.next_wakeup().is_some_and(|w| w <= now) {
                        if server.poll_batch(now, egress).idle() {
                            break;
                        }
                        moved = true;
                    }
                });
            }
            for (peer, f) in self.egress.drain(..) {
                let (from, to) = (self.server_node, self.client_nodes[peer as usize]);
                tr.span(Span::NetSend, None, || {
                    let _ = self.net.send(from, to, f);
                });
            }

            // Server application: each delivery is checked against the
            // bytes of its own (peer, assoc, op) identity.
            for (key, adu, _) in tr.span(Span::TakeDelivered, None, || self.server.take_delivered())
            {
                let op = match adu.name {
                    AduName::Seq { index } if index >= first_op && index < first_op + offered => {
                        index
                    }
                    _ => {
                        meter.checked(false, 0);
                        continue;
                    }
                };
                meter.arrived(op, now);
                let ok = tr.span(Span::Verify, Some(op), || {
                    let off = offset(key.peer, key.assoc, op);
                    self.owner[op as usize & ring] == (key.peer, key.assoc)
                        && adu.payload.as_slice() == &self.pool.as_slice()[off..off + ADU_BYTES]
                });
                meter.checked(ok, adu.len());
            }

            // Network → clients (ACKs): queued now, processed by the next
            // turn's batched polls.
            for (peer, client) in self.clients.iter_mut().enumerate() {
                let node = self.client_nodes[peer];
                while let Some(frame) = recv(&mut self.net, node, tr) {
                    moved = true;
                    tr.span(Span::Ingest, None, || client.ingest(0, frame.payload));
                }
            }

            // Cheap count gates first; the O(associations) drain check only
            // once they all pass.
            let accounted = meter.consumed_count() - consumed_before + lost;
            if offer.is_empty()
                && accounted >= target
                && !moved
                && self.clients.iter().all(AlfServer::drained)
            {
                return;
            }

            if !self.net.is_idle() {
                // Drain every scheduled delivery before the next endpoint
                // round: one turn is one network phase, so the per-turn
                // sweeps amortise over a whole flight of frames.
                while tr.span(Span::NetStep, None, || self.net.step()).is_some() {}
            } else if !moved {
                let next = self
                    .clients
                    .iter()
                    .filter_map(AlfServer::next_wakeup)
                    .chain(self.server.next_wakeup())
                    .min();
                match next {
                    Some(w) if w > now => {
                        tr.span(Span::NetStep, None, || {
                            self.net.advance(w.saturating_since(now))
                        });
                    }
                    Some(_) => {}
                    None => return, // nothing scheduled anywhere: wedged
                }
            }
        }
    }

    fn counts(&self) -> Counts {
        let keys =
            |peer: u64| (1..=self.assocs_per_client).map(move |assoc| AssocKey { peer, assoc });
        let server_eps = (0..CLIENTS as u64)
            .flat_map(keys)
            .filter_map(|k| self.server.endpoint(k));
        let client_eps = self
            .clients
            .iter()
            .flat_map(|c| keys(0).filter_map(|k| c.endpoint(k)));
        // Occupancy peaks are a pair-loop notion; here the server's own
        // footprint accounting stands in.
        let mut counts = alf_counts(server_eps.chain(client_eps), 0, 0, self.inbox_depth_max);
        counts.push(("ct-server.batches", self.server.batches() as f64));
        counts.push(("_ct-server.frames_in", self.frames_in as f64));
        counts.push((
            "ct-server.ingress_backlog_max",
            self.ingress_backlog_max as f64,
        ));
        counts
    }
}

/// One round.
pub fn round(p: &Params, tr: &mut Tracer) -> Round {
    let setup = std::time::Instant::now();
    let mut w = World::new(p, tr);
    let assocs = w.assocs();
    // One warm-up ADU per association pays each endpoint's one-time costs
    // (send queue, retransmission buffer, reassembly state, first page
    // faults) outside the measured phase.
    w.drive(
        0,
        1,
        &mut Meter::new(2 * INFLIGHT as usize, assocs),
        &mut Tracer::off(),
    );
    let setup_s = setup.elapsed().as_secs_f64();

    let ops = assocs * ADUS_PER_ASSOC;
    let mut meter = Meter::new(2 * INFLIGHT as usize, ops);
    let phase = Phase::start(&w.net, w.counts(), tr);
    w.drive(assocs, ADUS_PER_ASSOC, &mut meter, tr);
    let mut round = phase.finish(&w.net, || w.counts(), setup_s, ops, meter, tr);
    let count = |name| super::count(&round.counts, name);
    let frames_per_batch = count("_ct-server.frames_in") / count("ct-server.batches").max(1.0);
    round
        .counts
        .push(("ct-server.frames_per_batch", frames_per_batch));
    round.counts.push((
        "ct-server.mem_bytes_per_assoc",
        w.server.approx_mem_bytes() as f64 / assocs as f64,
    ));
    super::push_retx_ratio(&mut round, ops);
    round
}
