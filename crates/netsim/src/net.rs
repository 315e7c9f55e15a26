//! The network: nodes, duplex links, routing, and the simulation loop.
//!
//! [`Network`] is the façade protocol code talks to. It owns the virtual
//! clock, the event queue, per-link state ([`crate::link`]) and fault
//! injectors ([`crate::fault`]), and per-node delivery inboxes. Frames
//! travel hop by hop (store-and-forward) along shortest paths computed when
//! the topology was built, taking serialization + propagation delay and
//! fault decisions at every hop.
//!
//! The driving pattern (smoltcp-style synchronous polling):
//!
//! ```
//! use ct_netsim::{Network, LinkConfig, FaultConfig};
//!
//! let mut net = Network::new(42);
//! let a = net.add_node();
//! let b = net.add_node();
//! net.connect(a, b, LinkConfig::lan(), FaultConfig::none());
//! net.send(a, b, vec![1, 2, 3]).unwrap();
//! net.run_until_idle();
//! let frame = net.recv(b).expect("delivered");
//! assert_eq!(frame.payload, vec![1, 2, 3]);
//! ```

use crate::event::EventQueue;
use crate::fault::{
    FaultConfig, FaultInjector, MutationKind, MutationStats, Mutator, MutatorConfig,
};
use crate::link::{LinkConfig, LinkRefusal, LinkState};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{FrameEvent, NetStats};
use ct_telemetry::Telemetry;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Identifies a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The underlying index (stable for the lifetime of the network).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A frame delivered to a node's inbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Originating node.
    pub src: NodeId,
    /// Final destination node.
    pub dst: NodeId,
    /// Payload bytes (possibly corrupted in transit — that is the
    /// receiver's problem to detect, as in a real network).
    pub payload: Vec<u8>,
    /// Simulated instant the frame was injected by the sender.
    pub sent_at: SimTime,
    /// Simulated instant the frame reached the destination inbox.
    pub arrived_at: SimTime,
}

/// In-flight event: a frame arriving at `node` (final or intermediate hop).
#[derive(Debug)]
struct Arrival {
    node: NodeId,
    frame: Frame,
}

/// Errors from [`Network::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// No path exists between the endpoints.
    NoRoute {
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// The first-hop link refused the frame.
    Refused(LinkRefusal),
    /// Source and destination are the same node.
    SelfSend,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::NoRoute { from, to } => write!(f, "no route from {from} to {to}"),
            SendError::Refused(LinkRefusal::TooBig { len, mtu }) => {
                write!(f, "frame of {len} bytes exceeds link MTU {mtu}")
            }
            SendError::Refused(LinkRefusal::QueueFull) => write!(f, "link transmit queue full"),
            SendError::SelfSend => write!(f, "cannot send to self"),
        }
    }
}

impl std::error::Error for SendError {}

/// One direction of a link.
struct LinkDir {
    state: LinkState,
    injector: FaultInjector,
    /// Adversarial mutation stage, ahead of the statistical injector —
    /// a hostile middlebox sitting on this hop. `None` on honest links.
    mutator: Option<Mutator>,
}

/// The simulated network.
pub struct Network {
    nodes: Vec<VecDeque<Frame>>,
    /// Directed links, in connection order.
    links: Vec<LinkDir>,
    /// `(a, b)` → index into `links`. Only the set-up calls look here; a
    /// frame in flight finds its link through `routes`.
    link_index: HashMap<(NodeId, NodeId), usize>,
    /// `routes[src * route_stride + dst]` = the neighbour to forward
    /// through and the link that leads there; `None` where no path exists.
    routes: Vec<Option<(NodeId, usize)>>,
    /// Node count when `routes` was last rebuilt.
    route_stride: usize,
    routes_dirty: bool,
    queue: EventQueue<Arrival>,
    now: SimTime,
    rng: SimRng,
    stats: NetStats,
    /// Frames taken in and then found unroutable or over a hop's MTU (the
    /// sender is told at the first hop; an interior hop is silent). Not a
    /// `net.*` drop cause, but conservation does not close without it.
    refused: u64,
    telemetry: Option<Telemetry>,
}

impl Network {
    /// Create an empty network. All randomness (fault injection) derives
    /// from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: Vec::new(),
            links: Vec::new(),
            link_index: HashMap::new(),
            routes: Vec::new(),
            route_stride: 0,
            routes_dirty: false,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            stats: NetStats::default(),
            refused: 0,
            telemetry: None,
        }
    }

    /// Attach a shared telemetry sink: frame events land in
    /// its unified flight recorder (layer `"net"`, operands = node ids) and
    /// its counters mirror [`NetStats`] as `net.*` at each event.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    fn record(&mut self, event: FrameEvent, src: NodeId, dst: NodeId, len: usize) {
        if let Some(tel) = self.telemetry.as_ref() {
            // With span sampling armed, the per-frame mirror is suppressed:
            // at 100k associations this firehose of counter bumps and
            // assoc-less recorder events is exactly the O(population) cost
            // the sampler exists to avoid. The authoritative [`NetStats`]
            // block still counts every frame; [`Self::publish_net_counters`]
            // flushes the same final values in O(1) at a drain point.
            if tel.span_sampling_enabled() {
                return;
            }
            let (kind, counter) = match event {
                FrameEvent::Sent => ("frame_send", "net.frame_send"),
                FrameEvent::Delivered => ("frame_deliver", "net.frame_deliver"),
                FrameEvent::Forwarded => ("frame_forward", "net.frame_forward"),
                FrameEvent::FaultDropped => ("frame_drop", "net.frame_drop"),
                FrameEvent::CongestionDropped => ("frame_congest", "net.frame_congest"),
                FrameEvent::Corrupted => ("frame_corrupt", "net.frame_corrupt"),
            };
            tel.metrics_mut().counter_add(counter, 1);
            if tel.tracing_enabled() {
                tel.record(ct_telemetry::Event {
                    at_nanos: self.now.as_nanos(),
                    layer: "net",
                    kind,
                    assoc: 0,
                    adu: None,
                    a: src.0 as u64,
                    b: dst.0 as u64,
                    len: len as u64,
                });
            }
        }
    }

    /// Record one adversarial mutation outcome: a `net.mutated.{kind}`
    /// counter bump plus a flight-recorder event (layer `"net"`), when a
    /// telemetry sink is attached.
    fn record_mutation(&mut self, kind: MutationKind, src: NodeId, dst: NodeId, len: usize) {
        if let Some(tel) = self.telemetry.as_ref() {
            let (ev, counter) = match kind {
                MutationKind::Truncated => ("frame_mutate_truncate", "net.mutated.truncate"),
                MutationKind::Extended => ("frame_mutate_extend", "net.mutated.extend"),
                MutationKind::HeaderFlipped => {
                    ("frame_mutate_header_flip", "net.mutated.header_flip")
                }
                MutationKind::Replayed => ("frame_mutate_replay", "net.mutated.replay"),
                MutationKind::ForgedRandom => {
                    ("frame_mutate_forge_random", "net.mutated.forge_random")
                }
                MutationKind::ForgedGrammar => {
                    ("frame_mutate_forge_grammar", "net.mutated.forge_grammar")
                }
            };
            tel.metrics_mut().counter_add(counter, 1);
            if tel.tracing_enabled() {
                tel.record(ct_telemetry::Event {
                    at_nanos: self.now.as_nanos(),
                    layer: "net",
                    kind: ev,
                    assoc: 0,
                    adu: None,
                    a: src.0 as u64,
                    b: dst.0 as u64,
                    len: len as u64,
                });
            }
        }
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(VecDeque::new());
        self.routes_dirty = true;
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Connect `a` and `b` with a duplex link: the same `LinkConfig` and
    /// `FaultConfig` in both directions (each direction gets an independent
    /// RNG stream).
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: LinkConfig, faults: FaultConfig) {
        assert!(a != b, "self-links are not supported");
        for key in [(a, b), (b, a)] {
            let dir = LinkDir {
                state: LinkState::new(link),
                injector: FaultInjector::new(faults, self.rng.fork()),
                mutator: None,
            };
            match self.link_index.get(&key) {
                Some(&i) => self.links[i] = dir,
                None => {
                    self.link_index.insert(key, self.links.len());
                    self.links.push(dir);
                }
            }
        }
        self.routes_dirty = true;
    }

    /// The directed link `a -> b` (set-up path: one hash lookup).
    fn link(&self, a: NodeId, b: NodeId) -> &LinkDir {
        &self.links[*self.link_index.get(&(a, b)).expect("link exists")]
    }

    fn link_mut(&mut self, a: NodeId, b: NodeId) -> &mut LinkDir {
        &mut self.links[*self.link_index.get(&(a, b)).expect("link exists")]
    }

    /// Replace the fault configuration on the directed link `a -> b`
    /// (e.g. for mid-run parameter sweeps). Panics if the link is absent.
    pub fn set_faults(&mut self, a: NodeId, b: NodeId, faults: FaultConfig) {
        self.link_mut(a, b).injector.set_config(faults);
    }

    /// Install an adversarial [`Mutator`] on the directed link `a -> b`,
    /// ahead of the statistical fault injector: frames are truncated,
    /// extended, header-flipped (and re-sealed), replayed from capture, or
    /// accompanied by forgeries, per `config`. The mutator gets its own
    /// forked RNG stream; installing replaces any previous mutator and its
    /// counters. Panics if the link is absent.
    pub fn set_mutator(&mut self, a: NodeId, b: NodeId, config: MutatorConfig) {
        let rng = self.rng.fork();
        self.link_mut(a, b).mutator = Some(Mutator::new(config, rng));
    }

    /// Remove the adversarial mutator from the directed link `a -> b`, if
    /// any. Panics if the link is absent.
    pub fn clear_mutator(&mut self, a: NodeId, b: NodeId) {
        self.link_mut(a, b).mutator = None;
    }

    /// Mutation counters of the `a -> b` mutator (`None` if no mutator is
    /// installed). Panics if the link is absent.
    pub fn mutator_stats(&self, a: NodeId, b: NodeId) -> Option<MutationStats> {
        self.link(a, b).mutator.as_ref().map(|m| m.stats)
    }

    /// Schedule a bidirectional outage of the `a <-> b` link: frames
    /// offered in `[from, until)` vanish in both directions — a partition.
    /// Pass [`SimTime::MAX`] as `until` for a partition that never heals.
    /// Panics if the link is absent.
    pub fn schedule_outage(&mut self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) {
        for (x, y) in [(a, b), (b, a)] {
            self.link_mut(x, y).injector.schedule_outage(from, until);
        }
    }

    /// Whether the directed link `a -> b` is up (outside every scheduled
    /// outage) at the current instant. Panics if the link is absent.
    pub fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        self.link(a, b).injector.link_up(self.now)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the clock by `d` without processing events scheduled after
    /// the new time (events in between are processed). Used by protocol
    /// drivers to let retransmission timers fire on an otherwise idle net.
    pub fn advance(&mut self, d: SimDuration) {
        let target = self.now + d;
        while let Some(t) = self.queue.next_time() {
            if t > target {
                break;
            }
            self.step();
        }
        self.now = self.now.max(target);
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mirror the authoritative [`NetStats`] into the attached telemetry's
    /// `net.*` counters — the same names and final values the per-frame
    /// mirror leaves behind, set in one pass. Drivers that arm span
    /// sampling (which suppresses the per-frame mirror) call this at a
    /// drain point; with sampling unarmed it is an idempotent no-op, since
    /// the per-frame counters already hold these exact values. Mutation
    /// counters (`net.mutated.*`) are not affected: adversarial mutation
    /// volume is scenario-bound, not population-bound, so that mirror
    /// stays per-frame even when sampling is armed.
    pub fn publish_net_counters(&self) {
        let Some(tel) = self.telemetry.as_ref() else {
            return;
        };
        let mut reg = tel.metrics_mut();
        for (name, v) in [
            ("net.frame_send", self.stats.frames_sent),
            ("net.frame_deliver", self.stats.frames_delivered),
            ("net.frame_forward", self.stats.hops_forwarded),
            ("net.frame_drop", self.stats.fault_drops),
            ("net.frame_congest", self.stats.congestion_drops),
            ("net.frame_corrupt", self.stats.corrupted),
        ] {
            // Only nonzero values: the per-frame mirror never creates a
            // name for an event that did not happen, and neither may the
            // flush — the two paths must leave byte-identical registries.
            if v > 0 {
                reg.counter_set(name, v);
            }
        }
    }

    /// Recompute the shortest-path route table (BFS per source). Called
    /// lazily on first send after a topology change.
    fn rebuild_routes(&mut self) {
        let n = self.nodes.len();
        self.routes.clear();
        self.routes.resize(n * n, None);
        self.route_stride = n;
        // adjacency
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (a, b) in self.link_index.keys() {
            adj[a.0].push(*b);
        }
        for list in &mut adj {
            list.sort_unstable(); // deterministic iteration order
        }
        for src in 0..n {
            // BFS from src.
            let mut prev: Vec<Option<usize>> = vec![None; n];
            let mut visited = vec![false; n];
            let mut q = VecDeque::new();
            visited[src] = true;
            q.push_back(src);
            while let Some(u) = q.pop_front() {
                for &v in &adj[u] {
                    if !visited[v.0] {
                        visited[v.0] = true;
                        prev[v.0] = Some(u);
                        q.push_back(v.0);
                    }
                }
            }
            // Walk back from each dst to find the first hop out of src.
            for (dst, &seen) in visited.iter().enumerate() {
                if dst == src || !seen {
                    continue;
                }
                let mut cur = dst;
                while let Some(p) = prev[cur] {
                    if p == src {
                        let link = self.link_index[&(NodeId(src), NodeId(cur))];
                        self.routes[src * n + dst] = Some((NodeId(cur), link));
                        break;
                    }
                    cur = p;
                }
            }
        }
        self.routes_dirty = false;
    }

    /// Inject a frame from `from` to `to` at the current simulated time.
    ///
    /// # Errors
    /// [`SendError::NoRoute`] if the nodes are not connected,
    /// [`SendError::Refused`] if the first-hop link drops it (MTU or queue),
    /// [`SendError::SelfSend`] for `from == to`.
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: Vec<u8>) -> Result<(), SendError> {
        if from == to {
            return Err(SendError::SelfSend);
        }
        if self.routes_dirty {
            self.rebuild_routes();
        }
        let frame = Frame {
            src: from,
            dst: to,
            payload,
            sent_at: self.now,
            arrived_at: self.now,
        };
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.payload.len() as u64;
        self.record(FrameEvent::Sent, from, to, frame.payload.len());
        self.forward(from, frame).map_err(|e| {
            self.refused += 1;
            match e {
                ForwardFailure::NoRoute { from, to } => SendError::NoRoute { from, to },
                ForwardFailure::Refused(r) => SendError::Refused(r),
            }
        })
    }

    /// Offer `frame` to the next hop out of `at`. Applies link admission
    /// (MTU/queue) and fault injection, scheduling an [`Arrival`].
    fn forward(&mut self, at: NodeId, frame: Frame) -> Result<(), ForwardFailure> {
        // Two indexed loads per hop: the route, then the link it names.
        let n = self.route_stride;
        let route = if at.0 < n && frame.dst.0 < n {
            self.routes[at.0 * n + frame.dst.0]
        } else {
            None // a node added since the last rebuild has no routes yet
        };
        let (hop, link) = route.ok_or(ForwardFailure::NoRoute {
            from: at,
            to: frame.dst,
        })?;
        let mut frame = frame;
        // Adversarial mutation happens first: the hostile middlebox sits
        // on the wire ahead of the statistical channel, and its replays /
        // forgeries are injected even if the original frame is then lost.
        let mutation = match self.links[link].mutator.as_mut() {
            Some(m) => m.apply(&mut frame.payload),
            None => crate::fault::MutationOutcome::default(),
        };
        if let Some(kind) = mutation.mutated {
            self.stats.mutated += 1;
            self.record_mutation(kind, frame.src, frame.dst, frame.payload.len());
        }
        for (i, (kind, payload)) in mutation.injected.into_iter().enumerate() {
            // Injected frames do not pay the sender's serialization slot —
            // the adversary stuffs the wire directly. They arrive at the
            // next hop a hair after "now" (deterministically staggered)
            // and travel on toward the original frame's destination.
            self.stats.injected += 1;
            self.record_mutation(kind, frame.src, frame.dst, payload.len());
            let hostile = Frame {
                src: frame.src,
                dst: frame.dst,
                payload,
                sent_at: self.now,
                arrived_at: self.now,
            };
            self.queue.schedule(
                self.now + SimDuration::from_micros(2 + i as u64),
                Arrival {
                    node: hop,
                    frame: hostile,
                },
            );
        }
        let dir = &mut self.links[link];
        // Fault injection happens before link admission: a dropped frame
        // still consumed no transmitter time (it "vanished on the wire" at
        // this hop boundary).
        let outcome = dir.injector.apply(self.now, &mut frame.payload);
        if outcome.dropped {
            self.stats.fault_drops += 1;
            self.record(
                FrameEvent::FaultDropped,
                frame.src,
                frame.dst,
                frame.payload.len(),
            );
            return Ok(()); // silent loss: senders learn via their own timers
        }
        let offer = dir.state.offer(self.now, frame.payload.len());
        if outcome.corrupted {
            self.stats.corrupted += 1;
            self.record(
                FrameEvent::Corrupted,
                frame.src,
                frame.dst,
                frame.payload.len(),
            );
        }
        let arrive = match offer {
            Ok(t) => t,
            Err(LinkRefusal::QueueFull) => {
                self.stats.congestion_drops += 1;
                self.record(
                    FrameEvent::CongestionDropped,
                    frame.src,
                    frame.dst,
                    frame.payload.len(),
                );
                return Ok(()); // congestion loss is silent too
            }
            Err(r @ LinkRefusal::TooBig { .. }) => return Err(ForwardFailure::Refused(r)),
        };
        let arrive = arrive + outcome.extra_delay;
        if outcome.duplicated {
            self.stats.duplicates += 1;
            let dup = frame.clone();
            self.queue.schedule(
                arrive + SimDuration::from_micros(1),
                Arrival {
                    node: hop,
                    frame: dup,
                },
            );
        }
        self.queue.schedule(arrive, Arrival { node: hop, frame });
        Ok(())
    }

    /// Process the next pending event, advancing the clock to it.
    /// Returns the new time, or `None` if the network is idle.
    pub fn step(&mut self) -> Option<SimTime> {
        let (t, Arrival { node, mut frame }) = self.queue.pop()?;
        self.now = self.now.max(t);
        frame.arrived_at = self.now;
        if node == frame.dst {
            self.stats.frames_delivered += 1;
            self.stats.bytes_delivered += frame.payload.len() as u64;
            self.record(
                FrameEvent::Delivered,
                frame.src,
                frame.dst,
                frame.payload.len(),
            );
            self.nodes[node.0].push_back(frame);
        } else {
            // Intermediate hop: store-and-forward onward. A forwarding
            // failure at an interior hop is silent loss (like real routers).
            self.stats.hops_forwarded += 1;
            self.record(
                FrameEvent::Forwarded,
                frame.src,
                frame.dst,
                frame.payload.len(),
            );
            if self.forward(node, frame).is_err() {
                self.refused += 1;
            }
        }
        // Every run, however it is driven, ends on one of these.
        debug_assert!(
            self.frames_conserved(),
            "frames not conserved: {}, refused {}, in flight {}",
            self.stats,
            self.refused,
            self.queue.len()
        );
        Some(self.now)
    }

    /// Run the event loop until no events remain.
    pub fn run_until_idle(&mut self) {
        while self.step().is_some() {}
    }

    /// Pop the next delivered frame for `node`, if any.
    pub fn recv(&mut self, node: NodeId) -> Option<Frame> {
        self.nodes[node.0].pop_front()
    }

    /// Number of frames waiting in `node`'s inbox.
    pub fn pending(&self, node: NodeId) -> usize {
        self.nodes[node.0].len()
    }

    /// True if no events are in flight (inboxes may still hold frames).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Frame conservation: every frame that entered the network — offered
    /// by a sender, injected by a mutator or copied by a duplication fault
    /// — was delivered, dropped for a counted cause, refused, or is still
    /// in flight. It checks the network's bookkeeping, not the link's
    /// verdicts: a link that refuses frames it had room for still counts
    /// each refusal, and conserves.
    fn frames_conserved(&self) -> bool {
        let s = &self.stats;
        s.frames_sent + s.injected + s.duplicates
            == s.frames_delivered
                + s.fault_drops
                + s.congestion_drops
                + self.refused
                + self.queue.len() as u64
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("now", &self.now)
            .field("in_flight", &self.queue.len())
            .finish()
    }
}

/// Internal forwarding failure (surfaced only at the first hop).
enum ForwardFailure {
    NoRoute { from: NodeId, to: NodeId },
    Refused(LinkRefusal),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes(seed: u64, faults: FaultConfig) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(seed);
        let a = net.add_node();
        let b = net.add_node();
        net.connect(a, b, LinkConfig::lan(), faults);
        (net, a, b)
    }

    #[test]
    fn delivers_point_to_point() {
        let (mut net, a, b) = two_nodes(1, FaultConfig::none());
        net.send(a, b, vec![1, 2, 3]).unwrap();
        net.run_until_idle();
        let f = net.recv(b).unwrap();
        assert_eq!(f.payload, vec![1, 2, 3]);
        assert_eq!(f.src, a);
        assert_eq!(f.dst, b);
        assert!(f.arrived_at > f.sent_at);
        assert!(net.recv(b).is_none());
        assert!(net.recv(a).is_none());
    }

    #[test]
    fn preserves_fifo_on_clean_link() {
        let (mut net, a, b) = two_nodes(2, FaultConfig::none());
        for i in 0..50u8 {
            net.send(a, b, vec![i]).unwrap();
        }
        net.run_until_idle();
        for i in 0..50u8 {
            assert_eq!(net.recv(b).unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn self_send_rejected() {
        let (mut net, a, _) = two_nodes(3, FaultConfig::none());
        assert_eq!(net.send(a, a, vec![]), Err(SendError::SelfSend));
    }

    #[test]
    fn no_route_rejected() {
        let mut net = Network::new(4);
        let a = net.add_node();
        let b = net.add_node();
        // no connect
        assert_eq!(
            net.send(a, b, vec![1]),
            Err(SendError::NoRoute { from: a, to: b })
        );
    }

    #[test]
    fn mtu_violation_surfaces() {
        let mut net = Network::new(5);
        let a = net.add_node();
        let b = net.add_node();
        net.connect(
            a,
            b,
            LinkConfig {
                mtu: 10,
                ..LinkConfig::lan()
            },
            FaultConfig::none(),
        );
        assert!(matches!(
            net.send(a, b, vec![0u8; 11]),
            Err(SendError::Refused(LinkRefusal::TooBig { len: 11, mtu: 10 }))
        ));
    }

    #[test]
    fn multi_hop_routing() {
        // a - r1 - r2 - b chain.
        let mut net = Network::new(6);
        let a = net.add_node();
        let r1 = net.add_node();
        let r2 = net.add_node();
        let b = net.add_node();
        net.connect(a, r1, LinkConfig::lan(), FaultConfig::none());
        net.connect(r1, r2, LinkConfig::lan(), FaultConfig::none());
        net.connect(r2, b, LinkConfig::lan(), FaultConfig::none());
        net.send(a, b, vec![9, 9]).unwrap();
        net.run_until_idle();
        let f = net.recv(b).unwrap();
        assert_eq!(f.payload, vec![9, 9]);
        assert_eq!(net.stats().hops_forwarded, 2);
    }

    #[test]
    fn shortest_path_chosen() {
        // Square with diagonal: a-b direct and a-c-b; direct must win.
        let mut net = Network::new(7);
        let a = net.add_node();
        let b = net.add_node();
        let c = net.add_node();
        net.connect(a, c, LinkConfig::lan(), FaultConfig::none());
        net.connect(c, b, LinkConfig::lan(), FaultConfig::none());
        net.connect(a, b, LinkConfig::lan(), FaultConfig::none());
        net.send(a, b, vec![1]).unwrap();
        net.run_until_idle();
        assert!(net.recv(b).is_some());
        assert_eq!(net.stats().hops_forwarded, 0, "took the direct link");
    }

    #[test]
    fn loss_is_silent_and_counted() {
        let (mut net, a, b) = two_nodes(8, FaultConfig::loss(1.0));
        net.send(a, b, vec![1, 2, 3]).unwrap();
        net.run_until_idle();
        assert!(net.recv(b).is_none());
        assert_eq!(net.stats().fault_drops, 1);
        assert_eq!(net.stats().frames_delivered, 0);
    }

    #[test]
    fn loss_rate_statistical() {
        let (mut net, a, b) = two_nodes(9, FaultConfig::loss(0.2));
        let n = 5000;
        for _ in 0..n {
            net.send(a, b, vec![0u8; 32]).unwrap();
            net.run_until_idle(); // drain so the queue never congests
        }
        let delivered = net.stats().frames_delivered;
        let rate = 1.0 - delivered as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.03, "loss rate {rate}");
    }

    #[test]
    fn corruption_changes_payload() {
        let (mut net, a, b) = two_nodes(10, FaultConfig::corruption(1.0));
        net.send(a, b, vec![0xFFu8; 64]).unwrap();
        net.run_until_idle();
        let f = net.recv(b).unwrap();
        assert_ne!(f.payload, vec![0xFFu8; 64]);
        assert_eq!(f.payload.len(), 64);
        assert_eq!(net.stats().corrupted, 1);
    }

    #[test]
    fn duplication_delivers_twice() {
        let (mut net, a, b) = two_nodes(
            11,
            FaultConfig {
                duplicate: 1.0,
                ..FaultConfig::default()
            },
        );
        net.send(a, b, vec![7]).unwrap();
        net.run_until_idle();
        assert_eq!(net.pending(b), 2);
        assert_eq!(net.recv(b).unwrap().payload, vec![7]);
        assert_eq!(net.recv(b).unwrap().payload, vec![7]);
    }

    #[test]
    fn reordering_observed() {
        // With reorder probability 0.5 and a large extra delay, a burst of
        // frames must arrive out of order.
        let (mut net, a, b) = two_nodes(
            12,
            FaultConfig::reordering(0.5, SimDuration::from_millis(50)),
        );
        for i in 0..20u8 {
            net.send(a, b, vec![i]).unwrap();
        }
        net.run_until_idle();
        let mut got = Vec::new();
        while let Some(f) = net.recv(b) {
            got.push(f.payload[0]);
        }
        assert_eq!(got.len(), 20);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_ne!(got, sorted, "expected out-of-order arrivals, got {got:?}");
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let (mut net, a, b) = two_nodes(seed, FaultConfig::loss(0.3));
            for i in 0..100u8 {
                net.send(a, b, vec![i]).unwrap();
            }
            net.run_until_idle();
            let mut got = Vec::new();
            while let Some(f) = net.recv(b) {
                got.push(f.payload[0]);
            }
            got
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn advance_moves_clock_without_events() {
        let (mut net, _a, _b) = two_nodes(13, FaultConfig::none());
        assert_eq!(net.now(), SimTime::ZERO);
        net.advance(SimDuration::from_millis(7));
        assert_eq!(net.now(), SimTime::from_millis(7));
    }

    #[test]
    fn advance_processes_due_events_only() {
        let (mut net, a, b) = two_nodes(14, FaultConfig::none());
        net.send(a, b, vec![1]).unwrap();
        // Frame arrives ~130us (ser + prop) — advancing 1ms must deliver it.
        net.advance(SimDuration::from_millis(1));
        assert_eq!(net.pending(b), 1);
        assert_eq!(net.now(), SimTime::from_millis(1));
    }

    /// The `(kind, src, dst)` of every event the attached recorder holds.
    fn recorded(tel: &Telemetry) -> Vec<(&'static str, u64, u64)> {
        let events = tel.trace_events();
        events.iter().map(|e| (e.kind, e.a, e.b)).collect()
    }

    #[test]
    fn trace_records_full_frame_lifecycle() {
        let tel = Telemetry::with_tracing(64);
        let mut net = Network::new(44);
        net.attach_telemetry(tel.clone());
        let a = net.add_node();
        let r = net.add_node();
        let b = net.add_node();
        net.connect(a, r, LinkConfig::lan(), FaultConfig::none());
        net.connect(r, b, LinkConfig::lan(), FaultConfig::none());
        net.send(a, b, vec![1, 2, 3]).unwrap();
        net.run_until_idle();
        // Every event names the frame's end points: n0 -> n2.
        assert_eq!(
            recorded(&tel),
            vec![
                ("frame_send", 0, 2),
                ("frame_forward", 0, 2),
                ("frame_deliver", 0, 2)
            ]
        );
    }

    #[test]
    fn trace_records_drops() {
        let tel = Telemetry::with_tracing(64);
        let mut net = Network::new(45);
        net.attach_telemetry(tel.clone());
        let a = net.add_node();
        let b = net.add_node();
        net.connect(a, b, LinkConfig::lan(), FaultConfig::loss(1.0));
        net.send(a, b, vec![9]).unwrap();
        net.run_until_idle();
        assert_eq!(
            recorded(&tel),
            vec![("frame_send", 0, 1), ("frame_drop", 0, 1)]
        );
    }

    #[test]
    fn partition_drops_during_window_and_heals() {
        let (mut net, a, b) = two_nodes(16, FaultConfig::none());
        net.schedule_outage(a, b, SimTime::from_millis(1), SimTime::from_millis(5));
        // Before the partition: delivered.
        net.send(a, b, vec![1]).unwrap();
        net.run_until_idle();
        assert_eq!(net.pending(b), 1);
        // During: both directions dead.
        net.advance(SimTime::from_millis(2).saturating_since(net.now()));
        assert!(!net.link_up(a, b));
        assert!(!net.link_up(b, a));
        net.send(a, b, vec![2]).unwrap();
        net.send(b, a, vec![3]).unwrap();
        net.run_until_idle();
        assert_eq!(net.pending(b), 1, "frame sent mid-partition vanished");
        assert_eq!(net.pending(a), 0);
        // After the heal: delivered again.
        net.advance(SimTime::from_millis(6).saturating_since(net.now()));
        assert!(net.link_up(a, b));
        net.send(a, b, vec![4]).unwrap();
        net.run_until_idle();
        assert_eq!(net.pending(b), 2);
    }

    #[test]
    fn stats_bytes_counted() {
        let (mut net, a, b) = two_nodes(15, FaultConfig::none());
        net.send(a, b, vec![0u8; 100]).unwrap();
        net.run_until_idle();
        assert_eq!(net.stats().bytes_sent, 100);
        assert_eq!(net.stats().bytes_delivered, 100);
    }

    #[test]
    fn mutator_mutates_and_injects_on_link() {
        let (mut net, a, b) = two_nodes(16, FaultConfig::none());
        net.set_mutator(a, b, MutatorConfig::hostile(0.5));
        for _ in 0..200 {
            net.send(a, b, vec![0xAB; 48]).unwrap();
            net.run_until_idle();
        }
        let stats = net.mutator_stats(a, b).expect("mutator attached");
        assert!(stats.total() > 0, "hostile config must act on the stream");
        assert_eq!(
            net.stats().mutated,
            stats.truncated + stats.extended + stats.header_flipped
        );
        assert_eq!(
            net.stats().injected,
            stats.replayed + stats.forged_random + stats.forged_grammar
        );
        // Injected frames arrive at the destination on top of the originals.
        assert!(net.stats().frames_delivered >= 200);
        // The reverse direction carries no mutator; clearing is idempotent.
        assert!(net.mutator_stats(b, a).is_none());
        net.clear_mutator(a, b);
        assert!(net.mutator_stats(a, b).is_none());
    }

    #[test]
    fn frames_are_conserved_on_a_lossy_congested_two_hop_path() {
        // a - r - b. The second hop is slower with a short queue, so bursts
        // overflow it; both hops lose, duplicate and reorder; a mutator
        // replays and forges on the first, and extends some frames past the
        // second hop's MTU. Checked with frames in flight, idle, and after
        // more traffic — not left to the `debug_assert` in `step`, which a
        // release test run compiles out.
        let mut net = Network::new(17);
        let a = net.add_node();
        let r = net.add_node();
        let b = net.add_node();
        let faults = FaultConfig {
            drop: 0.05,
            duplicate: 0.05,
            reorder: 0.1,
            ..FaultConfig::default()
        };
        net.connect(a, r, LinkConfig::lan(), faults);
        let narrow = LinkConfig {
            bandwidth_bps: 10_000_000,
            queue_frames: 8,
            mtu: 1000,
            ..LinkConfig::lan()
        };
        net.connect(r, b, narrow, faults);
        net.set_mutator(a, r, MutatorConfig::hostile(0.05));
        for burst in 0..200 {
            for _ in 0..20 {
                net.send(a, b, vec![0x5A; 990]).unwrap();
            }
            // Over the first hop's MTU too, unless a fault takes it first.
            let _ = net.send(a, b, vec![0; 9001]);
            assert!(net.frames_conserved(), "{}", net.stats());
            if burst % 2 == 0 {
                net.advance(SimDuration::from_micros(300));
            } else {
                net.run_until_idle();
            }
            assert!(net.frames_conserved(), "{}", net.stats());
        }
        let s = *net.stats();
        assert!(s.fault_drops > 0 && s.congestion_drops > 0, "{s}");
        assert!(s.duplicates > 0 && s.injected > 0, "{s}");
        assert!(net.refused > 200, "interior MTU refusals: {}", net.refused);
        assert!(s.frames_delivered > 0 && s.frames_delivered < s.frames_sent);
        // Losing one frame from any term is seen.
        net.stats.congestion_drops -= 1;
        assert!(!net.frames_conserved());
        net.stats.congestion_drops += 1;
    }

    #[test]
    fn mutator_deterministic_per_seed() {
        let run = |seed: u64| {
            let (mut net, a, b) = two_nodes(seed, FaultConfig::none());
            net.set_mutator(a, b, MutatorConfig::hostile(0.3));
            for i in 0..100u8 {
                net.send(a, b, vec![i; 40]).unwrap();
            }
            net.run_until_idle();
            let mut got = Vec::new();
            while let Some(f) = net.recv(b) {
                got.push(f.payload);
            }
            (got, *net.stats())
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21).1, run(22).1);
    }
}
