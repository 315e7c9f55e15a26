//! The one drive loop: two endpoints, one link, one substrate.
//!
//! Every two-endpoint experiment in the workspace moves frames the same
//! way, so the rule lives here once:
//!
//! 1. [`Pair::exchange`] polls `a` and sends its frames, then does the same
//!    for `b`, all at the current instant, and hands every arrived frame to
//!    `b`, then to `a`. It reports whether anything moved.
//! 2. Scenario logic — offers, recompute answers, completion checks, fault
//!    churn — runs in the caller, as plain code between the two calls.
//! 3. [`Pair::settle`] advances the world by one network event if the wire
//!    is busy; stays at the current instant if the round moved (an endpoint
//!    may have queued output, e.g. an ACK, that must leave *now*); and
//!    otherwise jumps to the earliest endpoint timer or caller wake.
//!
//! The substrate is the network technology of the day (§5): with
//! [`Substrate::Atm`] each frame travels as a PDU of 53-byte cells, and the
//! endpoints never know.
//!
//! Many-association servers drain a whole network phase per iteration and
//! use peer-keyed ingest, so they go through the one star loop,
//! `ct_server::star::Star` (DESIGN.md §3).

use crate::atm::{AtmConfig, AtmEndpoint};
use crate::fault::FaultConfig;
use crate::link::LinkConfig;
use crate::net::{Network, NodeId};
use crate::time::SimTime;
use ct_wire::WireBuf;

/// A protocol endpoint as the drive loop sees it: frames out, frames in,
/// and the instant it next needs the clock.
pub trait Endpoint {
    /// Frames to transmit at `now`, in order.
    fn poll(&mut self, now: SimTime) -> Vec<Vec<u8>>;
    /// Ingest one frame received at `now` (ownership passes to the
    /// endpoint, so it may keep views into it).
    fn on_frame(&mut self, now: SimTime, frame: WireBuf);
    /// The earliest instant the endpoint has timed work, if any.
    fn next_timeout(&self) -> Option<SimTime>;
}

/// Which network substrate carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// Each frame is one network frame (classic packet switching).
    Packet,
    /// Each frame is segmented into 53-byte ATM cells with AAL-style
    /// reassembly; per-cell faults, lost cell ⇒ lost frame.
    Atm,
}

/// Two endpoints on the ends of one simulated link.
#[derive(Debug)]
pub struct Pair<E> {
    /// The network carrying the frames.
    pub net: Network,
    /// Node the `a` endpoint is bound to.
    pub node_a: NodeId,
    /// Node the `b` endpoint is bound to.
    pub node_b: NodeId,
    /// Endpoint a (conventionally the sender).
    pub a: E,
    /// Endpoint b (conventionally the receiver).
    pub b: E,
    /// On ATM, the cell endpoints of `a` and `b`, indexed by node; empty
    /// on packets.
    cells: Vec<AtmEndpoint>,
}

impl<E: Endpoint> Pair<E> {
    /// A two-node network seeded with `seed`, one duplex link with `faults`
    /// between the nodes, `a` on the first node and `b` on the second.
    pub fn new(
        seed: u64,
        link: LinkConfig,
        faults: FaultConfig,
        substrate: Substrate,
        a: E,
        b: E,
    ) -> Self {
        let mut net = Network::new(seed);
        let node_a = net.add_node();
        let node_b = net.add_node();
        net.connect(node_a, node_b, link, faults);
        let cells = match substrate {
            Substrate::Packet => Vec::new(),
            Substrate::Atm => [node_a, node_b]
                .map(|node| AtmEndpoint::new(node, AtmConfig::default()))
                .into(),
        };
        Self {
            net,
            node_a,
            node_b,
            a,
            b,
            cells,
        }
    }

    /// The cell endpoints of `a` and `b` (their counters), on ATM.
    pub fn atm(&self) -> Option<(&AtmEndpoint, &AtmEndpoint)> {
        match &self.cells[..] {
            [a, b] => Some((a, b)),
            _ => None,
        }
    }

    /// One exchange at the current instant: poll `a` and send its frames,
    /// poll `b` and send its frames, then hand every arrived frame to `b`,
    /// then to `a`. Returns whether any frame was produced or consumed.
    pub fn exchange(&mut self) -> bool {
        let now = self.net.now();
        let (na, nb) = (self.node_a, self.node_b);
        let mut moved = false;
        for f in self.a.poll(now) {
            moved = true;
            self.transmit(na, nb, f);
        }
        for f in self.b.poll(now) {
            moved = true;
            self.transmit(nb, na, f);
        }
        while let Some(frame) = self.receive(nb) {
            moved = true;
            self.b.on_frame(now, frame);
        }
        while let Some(frame) = self.receive(na) {
            moved = true;
            self.a.on_frame(now, frame);
        }
        moved
    }

    /// Put one frame on the wire, as a packet or as cells. A refused frame
    /// is lost, as on a real wire.
    fn transmit(&mut self, from: NodeId, to: NodeId, frame: Vec<u8>) {
        match self.cells.get_mut(from.index()) {
            None => drop(self.net.send(from, to, frame)),
            Some(cells) => drop(cells.send_pdu(&mut self.net, to, &frame)),
        }
    }

    /// The next frame that arrived at `node`, reassembled from its cells
    /// on ATM. Received frames are owned here, so both substrates hand
    /// them over whole: an endpoint may keep views into them.
    fn receive(&mut self, node: NodeId) -> Option<WireBuf> {
        match self.cells.get_mut(node.index()) {
            None => self.net.recv(node).map(|f| f.payload.into()),
            Some(cells) => {
                cells.pump(&mut self.net);
                cells.recv_pdu().map(|(_, pdu)| pdu.into())
            }
        }
    }

    /// Advance the world after a round in which `moved` said whether
    /// anything moved: one network event if the wire is busy; nothing if
    /// the round moved (an endpoint may have queued output, e.g. an ACK,
    /// that must leave at this instant); otherwise a jump to the earliest
    /// of both endpoints' timers and the caller's `wake`. Returns `false`
    /// only when nothing is scheduled anywhere: the caller decides whether
    /// that is the end of the run or a wedge.
    pub fn settle(&mut self, moved: bool, wake: Option<SimTime>) -> bool {
        if !self.net.is_idle() {
            self.net.step();
            return true;
        }
        if moved {
            return true;
        }
        let now = self.net.now();
        match [self.a.next_timeout(), self.b.next_timeout(), wake]
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

#[cfg(test)]
mod tests {
    use super::*;

    /// An endpoint that emits what it is handed, records what it receives
    /// and reports whatever timeout it is set to.
    #[derive(Debug, Default)]
    struct Fake {
        out: Vec<Vec<u8>>,
        got: Vec<Vec<u8>>,
        timeout: Option<SimTime>,
    }

    impl Endpoint for Fake {
        fn poll(&mut self, _now: SimTime) -> Vec<Vec<u8>> {
            std::mem::take(&mut self.out)
        }
        fn on_frame(&mut self, _now: SimTime, frame: WireBuf) {
            self.got.push(frame.to_vec());
        }
        fn next_timeout(&self) -> Option<SimTime> {
            self.timeout
        }
    }

    /// Over an unbounded queue, so no burst of cells overflows it.
    fn pair(substrate: Substrate) -> Pair<Fake> {
        let (a, b) = (Fake::default(), Fake::default());
        Pair::new(7, LinkConfig::ideal(), FaultConfig::none(), substrate, a, b)
    }

    #[test]
    fn settle_holds_the_clock_in_a_round_that_moved() {
        let mut p = pair(Substrate::Packet);
        p.a.out.push(vec![1; 100]);
        assert!(p.exchange());
        p.net.run_until_idle();
        let arrived = p.net.now();
        p.a.timeout = Some(SimTime::from_secs(1));
        // The frame waits in b's inbox: the round moves on an idle wire.
        assert!(p.exchange());
        assert_eq!(p.b.got, [vec![1; 100]]);
        assert!(p.settle(true, Some(SimTime::from_secs(2))));
        assert_eq!(p.net.now(), arrived, "a round that moved must not jump");
        // The next, quiet round jumps to the timer.
        assert!(!p.exchange());
        assert!(p.settle(false, None));
        assert_eq!(p.net.now(), SimTime::from_secs(1));
    }

    #[test]
    fn settle_takes_exactly_one_event_on_a_busy_wire() {
        let mut p = pair(Substrate::Packet);
        p.a.out = vec![vec![2; 10], vec![3; 10]];
        p.a.timeout = Some(SimTime::from_nanos(1));
        assert!(p.exchange());
        // Neither the timer nor the wake overrides a busy wire.
        assert!(p.settle(false, Some(SimTime::from_nanos(1))));
        assert_eq!(p.net.pending(p.node_b), 1, "one arrival, not two");
        assert!(!p.net.is_idle());
        assert!(p.settle(false, None));
        assert_eq!(p.net.pending(p.node_b), 2);
        assert!(p.net.is_idle());
    }

    #[test]
    fn settle_jumps_to_the_earliest_of_both_timers_and_the_wake() {
        let t = SimTime::from_micros;
        for (ta, tb, wake, want) in [
            (Some(t(30)), Some(t(20)), Some(t(25)), t(20)),
            (Some(t(10)), Some(t(20)), Some(t(25)), t(10)),
            (Some(t(30)), None, Some(t(25)), t(25)),
            (None, None, Some(t(5)), t(5)),
        ] {
            let mut p = pair(Substrate::Packet);
            (p.a.timeout, p.b.timeout) = (ta, tb);
            assert!(!p.exchange());
            assert!(p.settle(false, wake));
            assert_eq!(p.net.now(), want, "{ta:?} {tb:?} {wake:?}");
        }
        // A timer already due is served at the current instant.
        let mut p = pair(Substrate::Packet);
        p.net.advance(crate::time::SimDuration::from_micros(50));
        p.b.timeout = Some(t(40));
        assert!(p.settle(false, None));
        assert_eq!(p.net.now(), t(50));
    }

    #[test]
    fn settle_reports_when_nothing_is_scheduled() {
        let mut p = pair(Substrate::Packet);
        assert!(!p.exchange());
        assert!(!p.settle(false, None));
        assert_eq!(p.net.now(), SimTime::ZERO);
        // A round that moved is still progress, even with nothing scheduled.
        assert!(p.settle(true, None));
    }

    #[test]
    fn the_same_frames_cross_packet_and_atm_pairs() {
        let frames_a: Vec<Vec<u8>> = [1usize, 40, 41, 1500, 9000]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7 + n) as u8).collect())
            .collect();
        let frames_b = vec![vec![0xAC; 52], vec![]];
        let cells = |frames: &[Vec<u8>]| -> u64 {
            let count = |f: &Vec<u8>| crate::atm::cells_for(f.len()) as u64;
            frames.iter().map(count).sum()
        };
        for (substrate, wire_frames) in [
            (Substrate::Packet, 7),
            (Substrate::Atm, cells(&frames_a) + cells(&frames_b)),
        ] {
            let mut p = pair(substrate);
            (p.a.out, p.b.out) = (frames_a.clone(), frames_b.clone());
            let rounds = (0..10_000).take_while(|_| {
                let moved = p.exchange();
                p.settle(moved, None)
            });
            assert!(rounds.count() < 10_000, "{substrate:?}: never settled");
            assert_eq!(p.b.got, frames_a, "{substrate:?}");
            assert_eq!(p.a.got, frames_b, "{substrate:?}");
            assert_eq!(p.net.stats().frames_sent, wire_frames, "{substrate:?}");
            assert_eq!(p.atm().is_some(), substrate == Substrate::Atm);
        }
    }
}
