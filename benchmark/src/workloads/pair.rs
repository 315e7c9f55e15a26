//! One association between two [`AduTransport`] endpoints over `ct-netsim`,
//! and the loop that moves ADUs across it. `bulk_pair` and `lossy_pair`
//! drive it with [`drive_transfer`]; `rpc_pair` uses the same turn
//! ([`Pair::exchange`] / [`Pair::advance`]) under its own call loop.

use super::{push_retx_ratio, Counts, Meter, Phase, Round};
use crate::trace::{Span, Tracer};
use alf_core::adu::AduName;
use alf_core::transport::{AduTransport, AlfConfig};
use alf_core::wire::TU_HEADER_BYTES;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::net::{Network, NodeId};
use ct_netsim::time::SimDuration;
use ct_wire::WireBuf;
use std::ops::Range;

/// Turns between samples of the O(window) buffer-occupancy accessors.
const PEAK_SAMPLE_TURNS: u64 = 64;

/// Two endpoints, `a` (the sender / client) and `b` (the receiver / server),
/// joined by one duplex link.
pub struct Pair {
    /// The simulated network.
    pub net: Network,
    /// Sending endpoint (RPC client side).
    pub a: AduTransport,
    /// Receiving endpoint (RPC server side).
    pub b: AduTransport,
    node_a: NodeId,
    node_b: NodeId,
    turns: u64,
    /// A frame reached `a` since [`Pair::take_a_heard`] was last called.
    a_heard: bool,
    inbox_depth_max: usize,
    reassembly_peak: usize,
    retransmit_peak: usize,
}

/// `cfg` with the TU pace derived from the link's serialisation time plus 5 %
/// headroom for control traffic, as `run_alf_transfer_scenario` derives it.
/// Without it a window's worth of TUs overruns the link's transmit queue.
pub fn paced(mut cfg: AlfConfig, link: &LinkConfig) -> AlfConfig {
    let ser = SimDuration::serialization(cfg.mtu_payload + TU_HEADER_BYTES, link.bandwidth_bps);
    cfg.pace_per_tu = SimDuration::from_nanos(ser.as_nanos() + ser.as_nanos() / 20);
    cfg
}

impl Pair {
    /// Build the pair. The same fault process runs on both directions.
    pub fn new(
        seed: u64,
        link: LinkConfig,
        faults: FaultConfig,
        cfg: AlfConfig,
        telemetry: Option<&ct_telemetry::Telemetry>,
    ) -> Self {
        let mut net = Network::new(seed);
        let node_a = net.add_node();
        let node_b = net.add_node();
        net.connect(node_a, node_b, link, faults);
        let mut a = AduTransport::new(cfg);
        let mut b = AduTransport::new(cfg);
        if let Some(tel) = telemetry {
            net.attach_telemetry(tel.clone());
            a.attach_telemetry(tel.clone(), "sender");
            b.attach_telemetry(tel.clone(), "receiver");
        }
        Pair {
            net,
            a,
            b,
            node_a,
            node_b,
            turns: 0,
            a_heard: false,
            inbox_depth_max: 0,
            reassembly_peak: 0,
            retransmit_peak: 0,
        }
    }

    /// One turn of endpoint and network work at the current instant: poll
    /// both endpoints into the network, then hand every arrived frame to its
    /// endpoint. Returns whether anything moved.
    pub fn exchange(&mut self, tr: &mut Tracer) -> bool {
        let now = self.net.now();
        let (na, nb) = (self.node_a, self.node_b);
        let mut moved = false;

        let frames = tr.span(Span::PollTx, None, || self.a.poll(now));
        for f in frames {
            moved = true;
            tr.span(Span::NetSend, None, || {
                let _ = self.net.send(na, nb, f);
            });
        }
        let frames = tr.span(Span::PollRx, None, || self.b.poll(now));
        for f in frames {
            moved = true;
            tr.span(Span::NetSend, None, || {
                let _ = self.net.send(nb, na, f);
            });
        }

        self.inbox_depth_max = self
            .inbox_depth_max
            .max(self.net.pending(na))
            .max(self.net.pending(nb));
        while let Some(frame) = recv(&mut self.net, nb, tr) {
            moved = true;
            tr.span(Span::OnFrameRx, None, || {
                self.b.on_frame(now, frame.payload.into())
            });
        }
        while let Some(frame) = recv(&mut self.net, na, tr) {
            moved = true;
            self.a_heard = true;
            tr.span(Span::OnFrameTx, None, || {
                self.a.on_frame(now, frame.payload.into())
            });
        }

        self.turns += 1;
        if self.turns.is_multiple_of(PEAK_SAMPLE_TURNS) {
            self.reassembly_peak = self.reassembly_peak.max(self.b.reassembly_bytes());
            self.retransmit_peak = self.retransmit_peak.max(self.a.retransmit_buffer_bytes());
        }
        moved
    }

    /// Whether a frame (an ACK, say) reached `a` since the last call — the
    /// only thing that can reopen `a`'s send window short of a give-up.
    pub fn take_a_heard(&mut self) -> bool {
        std::mem::take(&mut self.a_heard)
    }

    /// Advance the world by one event — but never jump the clock while
    /// something just moved at this instant (it may have queued output that
    /// must leave now). Returns false when nothing is pending anywhere.
    pub fn advance(&mut self, moved: bool, tr: &mut Tracer) -> bool {
        if !self.net.is_idle() {
            tr.span(Span::NetStep, None, || self.net.step());
            return true;
        }
        if moved {
            return true;
        }
        let now = self.net.now();
        let next = [self.a.next_timeout(), self.b.next_timeout()]
            .into_iter()
            .flatten()
            .min();
        match next {
            Some(t) if t > now => {
                tr.span(Span::NetStep, None, || {
                    self.net.advance(t.saturating_since(now))
                });
                true
            }
            // A timer is due at this very instant: the next poll fires it.
            Some(_) => true,
            None if self.b.reassembly_bytes() > 0 || self.a.reassembly_bytes() > 0 => {
                // Partials with no timer armed: let them run to expiry.
                let d = self.a.config().assembly_timeout + SimDuration::from_millis(1);
                tr.span(Span::NetStep, None, || self.net.advance(d));
                true
            }
            None => false,
        }
    }

    /// The `alf-core.*` and `ct-netsim.inbox_depth_max` counts, both
    /// endpoints summed (cumulative; the caller subtracts phase starts).
    pub fn counts(&self) -> Counts {
        alf_counts(
            [&self.a, &self.b],
            self.reassembly_peak,
            self.retransmit_peak,
            self.inbox_depth_max,
        )
    }
}

/// `net.recv(node)`, asked only when the inbox holds a frame: an empty
/// inbox is seen through the `pending` accessor, not by a timed call.
pub fn recv(net: &mut Network, node: NodeId, tr: &mut Tracer) -> Option<ct_netsim::net::Frame> {
    if net.pending(node) == 0 {
        return None;
    }
    tr.span(Span::NetRecv, None, || net.recv(node))
}

/// `ep.recv_adu()`, asked only when an ADU is waiting.
pub fn recv_adu(ep: &mut AduTransport, tr: &mut Tracer) -> Option<alf_core::adu::Adu> {
    if ep.recv_available() == 0 {
        return None;
    }
    tr.span(Span::RecvAdu, None, || ep.recv_adu())
        .map(|(adu, _)| adu)
}

/// The `alf-core.*` counts over a set of endpoints.
pub fn alf_counts<'a>(
    endpoints: impl IntoIterator<Item = &'a AduTransport>,
    reassembly_peak: usize,
    retransmit_peak: usize,
    inbox_depth_max: usize,
) -> Counts {
    let mut stats = alf_core::transport::AlfStats::default();
    let mut asm = alf_core::assembler::AssemblerStats::default();
    let mut timer = alf_core::timer::WheelStats::default();
    for ep in endpoints {
        stats.merge(&ep.stats);
        let a = ep.assembler_stats();
        asm.duplicate_tus += a.duplicate_tus;
        asm.zero_copy_releases += a.zero_copy_releases;
        asm.gathered_bytes += a.gathered_bytes;
        let t = ep.timer_stats();
        timer.inserts += t.inserts;
        timer.fired += t.fired;
        timer.entries_examined += t.entries_examined;
    }
    vec![
        ("alf-core.tus_sent", stats.tus_sent as f64),
        ("alf-core.control_sent", stats.control_sent as f64),
        (
            "alf-core.adus_retransmitted",
            stats.adus_retransmitted as f64,
        ),
        (
            "alf-core.tus_retransmitted_selective",
            stats.tus_retransmitted_selective as f64,
        ),
        (
            "alf-core.adus_delivered_out_of_order",
            stats.adus_delivered_out_of_order as f64,
        ),
        ("alf-core.bad_messages", stats.bad_messages as f64),
        ("alf-core.assembler.duplicate_tus", asm.duplicate_tus as f64),
        (
            "alf-core.assembler.zero_copy_releases",
            asm.zero_copy_releases as f64,
        ),
        (
            "alf-core.assembler.gathered_bytes",
            asm.gathered_bytes as f64,
        ),
        ("alf-core.timer.inserts", timer.inserts as f64),
        ("alf-core.timer.fired", timer.fired as f64),
        (
            "alf-core.timer.entries_examined",
            timer.entries_examined as f64,
        ),
        ("alf-core.reassembly_peak_bytes", reassembly_peak as f64),
        (
            "alf-core.retransmit_buffer_peak_bytes",
            retransmit_peak as f64,
        ),
        ("ct-netsim.inbox_depth_max", inbox_depth_max as f64),
    ]
}

/// The application on both ends of a one-way transfer.
pub trait TransferApp {
    /// Produce op `op`'s payload (sender side). Must be cheap to re-offer:
    /// the result is held and offered as O(1) clones until accepted.
    fn produce(&mut self, op: u64, tr: &mut Tracer) -> WireBuf;
    /// Consume a delivered payload (receiver side); true if its bytes are
    /// exactly what `produce(op)` was made from.
    fn consume(&mut self, op: u64, payload: &WireBuf, tr: &mut Tracer) -> bool;
}

/// One round of a one-way transfer: warm the pair with 5 % of `ops` (at least
/// two windows), then measure `ops` ADUs of `adu_bytes` each. `setup` is when
/// the caller started building the world.
pub fn transfer_round(
    mut pair: Pair,
    app: &mut impl TransferApp,
    ops: u64,
    adu_bytes: usize,
    setup: std::time::Instant,
    tr: &mut Tracer,
) -> Round {
    let cfg = *pair.a.config();
    let warm = (ops / 20).max(2 * cfg.window_adus as u64);
    drive_transfer(
        &mut pair,
        app,
        0..warm,
        &mut Meter::new(cfg.window_adus, warm),
        &mut Tracer::off(),
    );
    let setup_s = setup.elapsed().as_secs_f64();

    let mut meter = Meter::new(cfg.window_adus, ops);
    let phase = Phase::start(&pair.net, pair.counts(), tr);
    drive_transfer(&mut pair, app, warm..warm + ops, &mut meter, tr);
    let mut round = phase.finish(&pair.net, || pair.counts(), setup_s, ops, meter, tr);
    push_retx_ratio(&mut round, ops * adu_bytes.div_ceil(cfg.mtu_payload) as u64);
    round
}

/// Move ops `ops` from `a` to `b`, closed loop: the next ADU is offered as
/// soon as the sender's window takes it. Stops when every op is consumed or
/// reported lost by name, or when the world wedges; whatever the meter did
/// not verify, the caller counts as failed.
pub fn drive_transfer(
    pair: &mut Pair,
    app: &mut impl TransferApp,
    ops: Range<u64>,
    meter: &mut Meter,
    tr: &mut Tracer,
) {
    let total = ops.end - ops.start;
    let window = pair.a.config().window_adus as u64;
    let mut next = ops.start;
    let mut pending: Option<WireBuf> = None;
    let mut lost = 0u64;
    // The last offer was refused and nothing has happened since that could
    // have reopened the window: do not ask again.
    let mut blocked = false;
    let consumed_before = meter.consumed_count();
    let max_turns = 2_000_000 + total * 4_096;

    for _ in 0..max_turns {
        // Offer while the window accepts. The window is tested *before* a
        // payload is built, so a refused offer costs a view clone, not a
        // pipeline run.
        let done = meter.consumed_count() - consumed_before + lost;
        blocked &= !pair.take_a_heard();
        while next < ops.end && !blocked {
            if pending.is_none() {
                if next - ops.start - done >= window {
                    break;
                }
                pending = Some(app.produce(next, tr));
            }
            let payload = pending.clone().expect("just set");
            let name = AduName::Seq { index: next };
            match tr.span(Span::SendAdu, Some(next), || pair.a.send_adu(name, payload)) {
                Ok(_) => {
                    meter.submitted(next, pair.net.now());
                    pending = None;
                    next += 1;
                }
                Err(_) => blocked = true,
            }
        }

        let moved = pair.exchange(tr);

        while let Some(adu) = recv_adu(&mut pair.b, tr) {
            match adu.name {
                AduName::Seq { index } if ops.contains(&index) => {
                    meter.arrived(index, pair.net.now());
                    let ok = app.consume(index, &adu.payload, tr);
                    meter.checked(ok, adu.len());
                }
                _ => meter.checked(false, 0),
            }
        }
        let given_up = pair.a.take_loss_reports().len() as u64;
        lost += given_up;
        blocked &= given_up == 0;

        let done = meter.consumed_count() - consumed_before + lost;
        if next == ops.end && done >= total && pair.a.send_complete() {
            break;
        }
        if pair.a.peer_unreachable() || !pair.advance(moved, tr) {
            break;
        }
    }
}
