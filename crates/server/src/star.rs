//! The star loop: one hub [`AlfServer`] on the first node, and one spoke
//! `AlfServer` on the far end of each of its links. The hub knows spoke `i`
//! as peer `i`; every spoke knows the hub as peer 0.
//!
//! It is the many-association twin of [`ct_netsim::drive::Pair`]: the
//! caller runs [`Star::exchange`], its own scenario code (offers, delivery
//! checks, churn, invariants), then [`Star::settle`]. Unlike `Pair`,
//! `settle` drains a whole network phase per round, so each batch
//! amortises its sweeps over a flight of frames (X13 pins it).

use crate::AlfServer;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::net::{Network, NodeId};
use ct_netsim::time::SimTime;

/// One hub and its spokes on a simulated star network.
#[derive(Debug)]
pub struct Star {
    /// The network carrying the frames.
    pub net: Network,
    /// Node the hub is bound to (the network's first node).
    pub hub_node: NodeId,
    /// Node spoke `i` is bound to.
    pub spoke_nodes: Vec<NodeId>,
    /// The hub stack, keying spoke `i`'s associations under peer `i`.
    pub hub: AlfServer,
    /// The spoke stacks, each keying its associations under peer 0.
    pub spokes: Vec<AlfServer>,
    /// Scratch for egress, reused across rounds.
    egress: Vec<(u64, Vec<u8>)>,
}

impl Star {
    /// A network seeded with `seed`: the hub's node first, then one node
    /// per spoke, each joined to the hub by a duplex link with `faults`, in
    /// spoke order.
    pub fn new(
        seed: u64,
        link: LinkConfig,
        faults: FaultConfig,
        hub: AlfServer,
        spokes: Vec<AlfServer>,
    ) -> Self {
        let mut net = Network::new(seed);
        let hub_node = net.add_node();
        let spoke_nodes: Vec<NodeId> = spokes.iter().map(|_| net.add_node()).collect();
        for &s in &spoke_nodes {
            net.connect(hub_node, s, link, faults);
        }
        Self {
            net,
            hub_node,
            spoke_nodes,
            hub,
            spokes,
            egress: Vec::new(),
        }
    }

    /// One exchange at the current instant: each spoke is served and its
    /// egress sent to the hub; the hub ingests every arrival, is served and
    /// sends its egress; each spoke ingests what reached it. Returns whether
    /// any batch did work or any frame arrived.
    pub fn exchange(&mut self) -> bool {
        let now = self.net.now();
        let mut moved = false;
        for (spoke, &node) in self.spokes.iter_mut().zip(&self.spoke_nodes) {
            moved |= serve(spoke, now, &mut self.egress);
            for (_, f) in self.egress.drain(..) {
                let _ = self.net.send(node, self.hub_node, f);
            }
        }
        while let Some(frame) = self.net.recv(self.hub_node) {
            moved = true;
            // Spoke `i` sits on node `i + 1`.
            self.hub.ingest(frame.src.index() as u64 - 1, frame.payload);
        }
        moved |= serve(&mut self.hub, now, &mut self.egress);
        for (peer, f) in self.egress.drain(..) {
            let _ = self
                .net
                .send(self.hub_node, self.spoke_nodes[peer as usize], f);
        }
        for (spoke, &node) in self.spokes.iter_mut().zip(&self.spoke_nodes) {
            while let Some(frame) = self.net.recv(node) {
                moved = true;
                spoke.ingest(0, frame.payload);
            }
        }
        moved
    }

    /// Advance the world after a round in which `moved` said whether
    /// anything moved: every scheduled delivery of the current phase if the
    /// wire is busy; nothing if the round moved (a batch may have left
    /// output that must leave at this instant); otherwise a jump to the
    /// earliest of the hub's wakeup, the spokes' wakeups and the caller's
    /// `wake`. Returns `false` only when nothing is scheduled anywhere:
    /// the caller decides whether that is the end of the run or a wedge.
    pub fn settle(&mut self, moved: bool, wake: Option<SimTime>) -> bool {
        if !self.net.is_idle() {
            while self.net.step().is_some() {}
            return true;
        }
        if moved {
            return true;
        }
        let now = self.net.now();
        let spokes = self.spokes.iter().filter_map(AlfServer::next_wakeup).min();
        match [self.hub.next_wakeup(), spokes, wake]
            .into_iter()
            .flatten()
            .min()
        {
            Some(t) => {
                self.net.advance(t.saturating_since(now));
                true
            }
            None => false,
        }
    }
}

/// Run batches at `now` while `host` has queued work or a due wakeup (an
/// expired timer is not pending work until a batch advances the wheel and
/// fires it). Returns whether any batch did work.
fn serve(host: &mut AlfServer, now: SimTime, egress: &mut Vec<(u64, Vec<u8>)>) -> bool {
    let mut moved = false;
    while host.pending_work() || host.next_wakeup().is_some_and(|w| w <= now) {
        if host.poll_batch(now, egress).idle() {
            break;
        }
        moved = true;
    }
    moved
}
