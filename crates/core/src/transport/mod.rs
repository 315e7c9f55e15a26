//! The ALF transport endpoint.
//!
//! [`AduTransport`] sends and receives **whole ADUs**. The contrasts with a
//! byte-stream transport are exactly the paper's:
//!
//! * the unit of transmission framing, error detection, acknowledgement and
//!   retransmission is the ADU (sub-ADU fragmentation into TUs is invisible
//!   above stage 1);
//! * complete ADUs are delivered to the application **as they complete**,
//!   out of order — no head-of-line blocking;
//! * losses are reported in application terms: the ADU's *name*, never a
//!   byte range ("losses must be expressed in terms meaningful to the
//!   application", §5);
//! * recovery policy is the application's choice ([`RecoveryMode`]):
//!   sender-transport buffering, sending-application recomputation, or no
//!   retransmission at all.
//!
//! Like [`ct_transport::StreamTransport`], the endpoint is synchronous and
//! poll-driven: `poll(now)` emits wire messages and recompute requests;
//! `on_frame(now, frame)` ingests them.
//!
//! [`ct_transport::StreamTransport`]: ../../ct_transport/stream/struct.StreamTransport.html

use crate::adu::{Adu, AduName};
use crate::assembler::{Assembler, Extend, ShedPolicy};
use crate::fec;
use crate::ids::IdRing;
use crate::wire::{
    self, encode_ack, encode_nack, encode_nack_frags, fragments, restamp_tu, AckView, Frame,
    Message, Tu, WireError, MAX_FRAME_ENTRIES, RWND_UNLIMITED, TU_FLAG_ACK_FOLLOWS, TU_FLAG_PARITY,
    TU_FLAG_TIMESTAMP, TU_HEADER_BYTES,
};
use ct_netsim::time::{SimDuration, SimTime};
use ct_telemetry::Telemetry;
use ct_wire::WireBuf;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

mod config;
mod rtt;
mod stats;
#[cfg(test)]
mod tests;

pub use config::{AlfConfig, LossReport, RecoveryMode, SendRefused};
pub use stats::{AlfStats, EndpointStats};

use crate::timer::{DeadlineRing, WheelStats};
use rtt::RttEstimator;

/// The per-ADU retransmission deadline with exponential backoff: the base
/// timeout doubled per retry (capped at 2^6) — the NACK path does the
/// fine-grained work; the sender timer is the coarse fallback. Under
/// adaptive control the base comes from the RTT estimator instead of the
/// fixed `retransmit_timeout`.
fn rto_for(base: SimDuration, retries: u32) -> SimDuration {
    base.saturating_mul(1u64 << retries.min(6))
}

/// Bytes of one shared configuration block: the configuration behind the
/// `Arc`'s two reference counts.
pub fn config_block_bytes() -> usize {
    std::mem::size_of::<AlfConfig>() + 2 * std::mem::size_of::<usize>()
}

/// Simulated time as wrapping microseconds (the TU timestamp clock).
fn micros_wrapping(t: SimTime) -> u32 {
    ((t.as_nanos() / 1_000) & 0xFFFF_FFFF) as u32
}

/// Initial congestion window, in ADUs (adaptive mode).
const CWND_INIT_ADUS: f64 = 4.0;

/// Pacing probes slightly past the measured delivery rate so the sender
/// can discover newly available bandwidth; losses pull it back down.
const PACING_GAIN: f64 = 1.25;

/// Upper bound on the adapted inter-TU pace (keeps a startup mis-estimate
/// from freezing the sender).
const MAX_PACE: SimDuration = SimDuration::from_millis(20);

/// Minimum elapsed time before a delivery-rate window closes into a sample.
const MIN_RATE_WINDOW: SimDuration = SimDuration::from_millis(1);

/// Ring slots a first activation reserves (what a first `push` would
/// reserve anyway), and as many deadline-ring entries: a submission to an
/// endpoint that holds no send block and was given none
/// ([`AduTransport::give_send_rings`]; an `AlfServer` gives one while its
/// spare list has one). Reserving them then, right behind the block itself,
/// changes no count and no size — only which addresses the allocator hands
/// out, so what it is worth (see [`SendRings::first`]) is a property of the
/// system allocator's placement, not of this code: re-measure before relying
/// on it under another allocator.
const FIRST_SEND_SLOTS: usize = 4;

/// The earliest of `next_timeout`'s six terms, `None` when all six are.
/// A fold of two-way minima, because it runs on every poll of every
/// association and must stay straight-line code: the six in an array
/// through `flatten().min()` compile to 15 KB with a 1.4 KB stack frame
/// (`scripts/verify.sh` fails `next_timeout` above 1 KiB).
fn earliest(
    a: Option<SimTime>,
    b: Option<SimTime>,
    c: Option<SimTime>,
    d: Option<SimTime>,
    e: Option<SimTime>,
    f: Option<SimTime>,
) -> Option<SimTime> {
    let min = |x: Option<SimTime>, y: Option<SimTime>| match (x, y) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) | (None, x) => x,
    };
    min(min(min(a, b), min(c, d)), min(e, f))
}

/// A configured bound on a 16-bit count: beyond 65 535 it acts as 65 535.
fn limit16(n: u32) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// Sender-side record of a submitted, unacknowledged ADU.
#[derive(Debug)]
struct SentAdu {
    name: AduName,
    /// Payload view: the whole ADU until it is admitted, afterwards kept
    /// under [`RecoveryMode::TransportBuffer`] only — it shares the
    /// application's chunk, so "buffering" for retransmission costs no copy.
    payload: Option<WireBuf>,
    /// The retransmission deadline. Moved only by [`SentAdu::set_deadline`],
    /// which first cancels the ring entry armed at the old one.
    deadline: SimTime,
    total_len: u32,
    /// TUs of this ADU still sitting in the pacing queue. The retransmit
    /// deadline is live only once this reaches zero — a queued-but-unsent
    /// ADU cannot have been lost yet.
    tus_unreleased: u32,
    /// Loss events charged to this ADU — retransmission timeouts and
    /// whole-ADU NACKs. `max_retries` bounds these.
    retries: u16,
    /// Selective repair rounds answered. Each stretches the RTO like a
    /// retry but is not charged to `max_retries`: a receiver that asks for
    /// the rest of an ADU is alive and holding part of it.
    repairs: u16,
    /// Waiting for the application to deliver a recomputed payload.
    awaiting_recompute: bool,
    /// The deadline ring holds `(deadline, id)` for this ADU. Invariant
    /// (kept by `AduTransport::sync_timer`): exactly one ring entry per
    /// ADU whose retransmission clock is live, none while gated — so the
    /// ring's front equals the old full min-scan bit-for-bit.
    armed: bool,
}

// A ring slot is this plus its id: 72 bytes, four to a first reservation.
const _: () = assert!(std::mem::size_of::<SentAdu>() <= 64);

impl SentAdu {
    /// Exponent of this ADU's RTO backoff: every repair attempt so far.
    fn backoff(&self) -> u32 {
        u32::from(self.retries) + u32::from(self.repairs)
    }

    /// Move the retransmission deadline to `at`. An entry armed at the old
    /// deadline is cancelled first — the ring finds an entry by its
    /// deadline — and `AduTransport::sync_timer` arms the new one.
    fn set_deadline(&mut self, ring: &mut DeadlineRing, id: u64, at: SimTime) {
        if self.armed && self.deadline != at {
            ring.remove(self.deadline, id);
            self.armed = false;
        }
        self.deadline = at;
    }
}

/// The send side of an endpoint, in one heap block: the send ring, the
/// pacing queue and the retransmission deadlines. An endpoint holds it from
/// its first `send_adu` on. An owner of many endpoints moves it out of an
/// idle one with [`AduTransport::take_send_rings`] and into the next one to
/// send with [`AduTransport::give_send_rings`], so it holds one block per
/// association that is sending, not one per association. The counters the
/// send side moves, and the pacer's clock, stay in the endpoint.
#[derive(Debug, Default)]
pub struct SendRings {
    /// Submitted ADUs, sorted by id: the mapped part is the window of
    /// unacknowledged ADUs, the parked tail the ADUs queued for first
    /// transmission. Ids are assigned here and monotone, so submission
    /// appends, admission maps the oldest parked entry in place, and an
    /// id sits `id − oldest` slots behind the front unless an ADU between
    /// them has left first (acknowledged out of order); then it is a
    /// binary search over at most `window_adus` entries.
    window: IdRing<SentAdu>,
    /// Encoded data TUs awaiting a transmit slot (pacing queue), tagged
    /// with their ADU id so the retransmission deadline can be refreshed
    /// when the TU actually leaves. Only what the pacer or the burst budget
    /// holds back waits here; an unpaced sender never allocates it.
    txq: VecDeque<(u64, AduName, Vec<u8>)>,
    /// The window's retransmission deadlines, sorted: one entry per ADU
    /// with a live clock, reconciled by `sync_timer` after every state
    /// change and cancelled eagerly on ACK. The next deadline is the front
    /// entry and firing pops only due ones, so `poll` and
    /// [`AduTransport::next_timeout`] do not scan the ADUs in flight.
    deadlines: DeadlineRing,
}

impl SendRings {
    /// A first activation's block: the block, then the send ring's slots
    /// and the deadline ring's entries, allocated back to back. Allocated as
    /// first used instead, the deadlines — first needed in the middle of the
    /// first `poll`, after it has allocated a frame — would land elsewhere.
    /// Side by side is worth a tenth of `server_fanin` at 10^5 endpoints,
    /// nothing at 10^3.
    fn first(recovery: RecoveryMode) -> Box<Self> {
        let mut block = Box::<Self>::default();
        block.window.reserve(FIRST_SEND_SLOTS);
        if recovery != RecoveryMode::NoRetransmit {
            block.deadlines.reserve(FIRST_SEND_SLOTS);
        }
        block
    }

    /// Heap bytes the block holds: itself, and its three containers by
    /// capacity (not the frames queued in `txq`).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.window.capacity() * size_of::<(u64, SentAdu)>()
            + self.txq.capacity() * size_of::<(u64, AduName, Vec<u8>)>()
            + self.deadlines.approx_mem_bytes()
    }

    /// True when nothing is submitted, queued or armed: the block of a
    /// send-idle endpoint.
    pub fn is_empty(&self) -> bool {
        self.window.is_vacant() && self.txq.is_empty() && self.deadlines.is_empty()
    }
}

/// One `poll`'s output while it is built, appended to the caller's list.
/// Every data TU the poll sends goes through [`AduTransport::send_tu`].
struct Emit<'a> {
    frames: &'a mut Vec<Vec<u8>>,
    /// Data TUs released so far, against `burst_tus`.
    tus: usize,
    /// Where in `frames` the last released TU sits — past whatever the
    /// list held on entry: the frame a pending ACK may ride in.
    carrier: Option<usize>,
    /// The RTO base a released TU's retransmission clock starts from.
    base: SimDuration,
}

/// State an endpoint needs only once it leaves the fault-free TU/ACK path:
/// loss recovery, FEC, and the timestamp-driven estimators. Boxed behind
/// [`AduTransport::cold`] and allocated by the first event that needs it,
/// so an association that never leaves its fast path — the common one in a
/// many-association server — carries a null pointer instead.
#[derive(Debug)]
struct Cold {
    /// ADUs to (re)transmit this poll: `(id, full)` — `full` resends the
    /// whole ADU, otherwise only a first-TU probe goes out and the
    /// receiver's selective NACKs fetch the rest.
    retransmit_now: Vec<(u64, bool)>,
    /// Reusable scratch for draining the deadline ring (a firing timer is
    /// already off the fast path).
    due_scratch: Vec<(SimTime, u64)>,
    /// Pending outbound NACK ids.
    nack_queue: Vec<u64>,
    /// Pending outbound selective NACKs: `(adu_id, missing ranges)`.
    nack_frag_out: Vec<(u64, Vec<(u32, u32)>)>,
    /// Recompute requests awaiting `take_recompute_requests`, and when
    /// the oldest was raised (`next_timeout` reports it until taken).
    recompute_out: Vec<LossReport>,
    recompute_since: Option<SimTime>,
    /// Losses to report to the local application.
    loss_reports: Vec<LossReport>,
    /// Parity TUs held per pending ADU (FEC).
    parities: BTreeMap<u64, Vec<fec::Parity>>,
    /// Jitter estimator state: (previous arrival µs, previous timestamp µs).
    prev_timing: Option<(u32, u32)>,
    /// Receiver-side echo state: the most recent stamped TU's
    /// `(timestamp_us, arrival µs)`, consumed by the next outbound ACK.
    echo_pending: Option<(u32, u32)>,
    /// Sender-side RTT estimator fed by ACK echoes.
    rtt: RttEstimator,
    /// AIMD congestion window, in ADUs (adaptive mode).
    cwnd: f64,
    /// Slow-start threshold, in ADUs.
    ssthresh: f64,
    /// Instant of the last multiplicative decrease (once-per-RTT guard).
    last_cwnd_cut: Option<SimTime>,
    /// Delivery-rate window: bytes ACKed since `rate_epoch`.
    rate_bytes: u64,
    /// Start of the current delivery-rate window.
    rate_epoch: Option<SimTime>,
    /// Smoothed delivery rate, bits per second (0 = no sample yet).
    rate_bps: f64,
    /// Next zero-window probe instant, with its backoff exponent.
    next_probe_at: Option<SimTime>,
    probe_backoff: u32,
}

impl Default for Cold {
    fn default() -> Self {
        Self {
            retransmit_now: Vec::new(),
            due_scratch: Vec::new(),
            nack_queue: Vec::new(),
            nack_frag_out: Vec::new(),
            recompute_out: Vec::new(),
            recompute_since: None,
            loss_reports: Vec::new(),
            parities: BTreeMap::new(),
            prev_timing: None,
            echo_pending: None,
            rtt: RttEstimator::default(),
            cwnd: CWND_INIT_ADUS,
            ssthresh: f64::INFINITY,
            last_cwnd_cut: None,
            rate_bytes: 0,
            rate_epoch: None,
            rate_bps: 0.0,
            next_probe_at: None,
            probe_backoff: 0,
        }
    }
}

/// The ALF transport endpoint (symmetric: both ends run the same code).
///
/// Laid out hot first (`repr(C)` keeps the declaration order): the state
/// every call touches; the pointer to the send block beside the ACK ids
/// (what a poll tests for work); the pacer's rate and the deadline count;
/// stage 1; the delivery and id watermarks directly before `stats`, the six
/// counters the fault-free path bumps and the pointer to the rest; and the
/// pointer to the configuration, which every endpoint built from the same
/// one shares. The send side is behind `send`, held only while sending;
/// everything the fault-free path never reads is behind `cold`.
#[derive(Debug)]
#[repr(C)]
pub struct AduTransport {
    // ---- every call --------------------------------------------------------
    /// Last instant any valid peer message arrived (dead-peer clock).
    last_peer_activity: Option<SimTime>,
    /// Attached observability handle plus the endpoint's role label
    /// (`"sender"` / `"receiver"` — the flight recorder's `layer` field).
    telemetry: Option<(Telemetry, &'static str)>,
    /// Recovery, FEC and estimator state; `None` until first needed.
    cold: Option<Box<Cold>>,
    /// Latest receiver window advertised by the peer's ACKs, bytes.
    peer_rwnd: u32,
    /// Karn-style global backoff exponent added to every per-ADU RTO while
    /// timeouts fire without ACK progress; reset when new data is ACKed.
    timeout_backoff: u32,
    /// The peer was declared unreachable (cleared if it is heard again).
    peer_dead: bool,
    /// First transmissions are currently stalled on `peer_rwnd`.
    rwnd_blocked: bool,
    /// The receiver owes the peer a window update: emit an ACK next poll
    /// even if no ADU ids are pending (probe answers, post-shed updates).
    window_ack_due: bool,
    /// Association identifier carried in every message — this endpoint's,
    /// whatever the shared configuration's `assoc` says.
    assoc: u16,

    // ---- is there anything to send or acknowledge --------------------------
    /// The send side — send ring, pacing queue, retransmission deadlines —
    /// while this endpoint holds it: from its first `send_adu` on, unless
    /// its owner took it back while it was send-idle. `None` answers every
    /// question as empty rings do.
    send: Option<Box<SendRings>>,
    /// Pending outbound ACK ids.
    ack_queue: Vec<u64>,

    // ---- pacer rate and deadline count ------------------------------------
    /// Effective inter-TU pace: `cfg.pace_per_tu` until adaptive control
    /// derives one from the delivery rate.
    pace_now: SimDuration,
    /// Deadlines armed over the endpoint's life (`WheelStats::inserts`):
    /// every armed ADU moves it, so it stays here when the block moves.
    deadline_inserts: u64,

    // ---- receive stage 1 ---------------------------------------------------
    /// Reassembly, replay suppression, and the queue of completed ADUs
    /// awaiting the application.
    assembler: Assembler,
    /// Earliest instant the pacer will release the next TU; unpaced, the
    /// instant of the last release, when a burst-capped remainder is due.
    next_tx_at: SimTime,

    // ---- watermarks, then the counters (fast-path ones first) -------------
    highest_delivered: Option<u64>,
    next_adu_id: u64,
    /// Counters: the fast path's inline, the rest behind one lazily
    /// allocated block ([`AduTransport::stats`] reads them all).
    pub stats: EndpointStats,
    /// The configuration: one block per distinct configuration, not a
    /// copy per endpoint — an `AlfServer` interns it, so its associations
    /// share one. `assoc` above is the one field that differs per endpoint.
    cfg: Arc<AlfConfig>,
}

// The next field added to the endpoint's inline part fails the build with
// the number in view. 408 is the size reached, not a target met: the
// counters inline are `stats` (56) and the assembler's (32), the fast
// path's plus a pointer to the rest each, and `deadline_inserts` (8); the
// send side is one pointer (DESIGN §12 has the per-field table and
// `tests/design_figures.rs` holds it to this number).
const _: () = assert!(std::mem::size_of::<AduTransport>() <= 408);

impl AduTransport {
    /// Create an endpoint. It allocates its configuration's block; endpoints
    /// that share a configuration are made with
    /// [`AduTransport::with_template`].
    pub fn new(cfg: AlfConfig) -> Self {
        Self::with_template(Arc::new(cfg), cfg.assoc)
    }

    /// Create an endpoint for association `assoc` that shares `template`:
    /// every field but `assoc` comes from it, and the endpoint keeps a
    /// pointer, not a copy.
    pub fn with_template(cfg: Arc<AlfConfig>, assoc: u16) -> Self {
        let mut assembler = Assembler::new(cfg.assembly_timeout, cfg.max_partial_adus);
        if cfg.reassembly_budget_bytes > 0 {
            // The shed policy follows the recovery mode: media streams
            // prefer fresh data (drop-oldest); buffered modes must never
            // lose silently (backpressure — the sender retransmits).
            let shed = if cfg.recovery == RecoveryMode::NoRetransmit {
                ShedPolicy::DropOldest
            } else {
                ShedPolicy::Backpressure
            };
            assembler.set_budget(cfg.reassembly_budget_bytes, shed);
        }
        assembler.set_frag_quota(cfg.max_frag_views);
        Self {
            last_peer_activity: None,
            telemetry: None,
            cold: None,
            peer_rwnd: RWND_UNLIMITED,
            timeout_backoff: 0,
            peer_dead: false,
            rwnd_blocked: false,
            window_ack_due: false,
            assoc,
            send: None,
            ack_queue: Vec::new(),
            pace_now: cfg.pace_per_tu,
            deadline_inserts: 0,
            assembler,
            next_tx_at: SimTime::ZERO,
            highest_delivered: None,
            next_adu_id: 0,
            stats: EndpointStats::default(),
            cfg,
        }
    }

    /// The cold state, allocated on first use.
    fn cold_mut(&mut self) -> &mut Cold {
        self.cold.get_or_insert_with(Box::default)
    }

    /// Whether the recovery/estimator state was ever needed — false for
    /// the whole life of an association that stays on its fast path.
    pub fn cold_state_allocated(&self) -> bool {
        self.cold.is_some()
    }

    /// Rare-counter blocks held, the endpoint's and its assembler's: each
    /// is allocated by the first write that moves one of its counters, so
    /// an association that stays on its fast path holds none.
    pub fn counter_blocks(&self) -> usize {
        usize::from(self.stats.rare_allocated())
            + usize::from(self.assembler.rare_counters_allocated())
    }

    /// The configuration in force. Its `assoc` is the template's: an
    /// endpoint made with [`AduTransport::with_template`] (every endpoint of
    /// an `AlfServer`) carries its own id, which [`AduTransport::assoc`]
    /// returns.
    pub fn config(&self) -> &AlfConfig {
        &self.cfg
    }

    /// The association id this endpoint stamps on, and accepts in, every
    /// message.
    pub fn assoc(&self) -> u16 {
        self.assoc
    }

    /// Attach an observability handle. `role` labels this endpoint's events
    /// in the flight recorder (conventionally `"sender"` or `"receiver"`);
    /// it is the `layer` field of every [`ct_telemetry::Event`] the
    /// endpoint records. Counters are NOT updated per event — drivers call
    /// [`AlfStats::publish`] when the run settles.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry, role: &'static str) {
        self.telemetry = Some((telemetry, role));
    }

    /// Record one flight-recorder event — a no-op unless telemetry is
    /// attached with tracing armed, so the hot path pays one branch and
    /// allocates nothing when disabled.
    fn trace(
        &self,
        at: SimTime,
        kind: &'static str,
        name: Option<AduName>,
        a: u64,
        b: u64,
        len: u64,
    ) {
        if let Some((tel, role)) = &self.telemetry {
            if tel.tracing_enabled() {
                // Span sampling gates *named* events only: the seeded hash
                // of (assoc, name) keeps or drops an ADU's whole lifecycle
                // span, so tracing stays O(sample) at server scale while
                // unnamed control events (ACKs, probes) always record.
                if let Some(n) = &name {
                    if !tel.span_sampled_key(u32::from(self.assoc), n.span_key()) {
                        return;
                    }
                }
                tel.record(ct_telemetry::Event {
                    at_nanos: at.as_nanos(),
                    layer: role,
                    kind,
                    assoc: u32::from(self.assoc),
                    adu: name.map(|n| n.to_string()),
                    a,
                    b,
                    len,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Sending application interface
    // ------------------------------------------------------------------

    /// Submit one ADU for transmission. Returns its transport id.
    ///
    /// # Errors
    /// [`SendRefused::WindowFull`] when too many ADUs are unacknowledged
    /// (buffered modes only) — or [`SendRefused::Backpressured`] when that
    /// window filled because the *peer's* advertised reassembly window is
    /// exhausted; [`SendRefused::TooBig`] for > u32 payloads;
    /// [`SendRefused::PeerUnreachable`] after the dead-peer declaration.
    pub fn send_adu(
        &mut self,
        name: AduName,
        payload: impl Into<WireBuf>,
    ) -> Result<u64, SendRefused> {
        let payload = payload.into();
        if self.peer_dead {
            return Err(SendRefused::PeerUnreachable);
        }
        if payload.len() > u32::MAX as usize {
            return Err(SendRefused::TooBig);
        }
        let submitted = self
            .send
            .as_ref()
            .map_or(0, |s| s.window.len() + s.window.parked_len());
        if self.cfg.recovery != RecoveryMode::NoRetransmit && submitted >= self.cfg.window_adus {
            if self.rwnd_blocked {
                self.stats.rare_mut().send_backpressured += 1;
                return Err(SendRefused::Backpressured);
            }
            return Err(SendRefused::WindowFull);
        }
        if self.cfg.peer_timeout > SimDuration::ZERO && !self.work_outstanding() {
            // Idle → busy transition: the dead-peer clock must measure
            // silence from this submission, not from the idle stretch
            // before it (next poll restarts it).
            self.last_peer_activity = None;
        }
        let id = self.next_adu_id;
        self.next_adu_id += 1;
        self.stats.adus_sent += 1;
        let recovery = self.cfg.recovery;
        let send = self.send.get_or_insert_with(|| SendRings::first(recovery));
        send.window.park(
            id,
            SentAdu {
                name,
                total_len: payload.len() as u32,
                payload: Some(payload),
                deadline: SimTime::ZERO,
                tus_unreleased: 0,
                retries: 0,
                repairs: 0,
                awaiting_recompute: false,
                armed: false,
            },
        );
        Ok(id)
    }

    /// Losses the transport has given up on, in application terms (name,
    /// not byte range). Draining.
    pub fn take_loss_reports(&mut self) -> Vec<LossReport> {
        match &mut self.cold {
            Some(cold) => std::mem::take(&mut cold.loss_reports),
            None => Vec::new(),
        }
    }

    /// Recompute requests for the sending application
    /// ([`RecoveryMode::AppRecompute`] only). Draining. The application
    /// answers each via [`AduTransport::provide_recomputed`]. An ADU is
    /// asked once; left unanswered, it times out like an unacknowledged send.
    pub fn take_recompute_requests(&mut self) -> Vec<LossReport> {
        self.cold.as_mut().map_or_else(Vec::new, |cold| {
            cold.recompute_since = None;
            std::mem::take(&mut cold.recompute_out)
        })
    }

    /// Deliver a recomputed payload for a previously requested ADU. The
    /// payload is retransmitted as the same ADU id. Returns false if the
    /// request is no longer live (e.g. ACKed in the meantime).
    pub fn provide_recomputed(&mut self, adu_id: u64, payload: impl Into<WireBuf>) -> bool {
        match self.send.as_mut().and_then(|s| s.window.get_mut(adu_id)) {
            Some(sent) if sent.awaiting_recompute => {
                sent.payload = Some(payload.into());
                sent.awaiting_recompute = false;
                self.cold_mut().retransmit_now.push((adu_id, true));
                self.sync_timer(adu_id);
                true
            }
            _ => false,
        }
    }

    /// The peer has been silent past `peer_timeout` with work outstanding;
    /// every in-flight ADU has been reported lost and `send_adu` refuses.
    /// Clears automatically if the peer is heard from again.
    pub fn peer_unreachable(&self) -> bool {
        self.peer_dead
    }

    /// The peer's most recently advertised receiver window, in bytes
    /// ([`crate::wire::RWND_UNLIMITED`] when it runs without a budget).
    pub fn peer_rwnd(&self) -> u32 {
        self.peer_rwnd
    }

    /// True when nothing is queued, paced, or unacknowledged (sender drained).
    pub fn send_complete(&self) -> bool {
        !self.work_outstanding()
    }

    /// True while this endpoint holds a send block: it has sent, and the
    /// block was not taken since ([`AduTransport::take_send_rings`]).
    pub fn holds_send_block(&self) -> bool {
        self.send.is_some()
    }

    /// Heap bytes of the send block ([`SendRings::heap_bytes`]): zero for
    /// an endpoint that never sent, or whose block was taken.
    pub fn send_ring_bytes(&self) -> usize {
        self.send.as_ref().map_or(0, |s| s.heap_bytes())
    }

    /// Hand out the send block, empty, so an idle endpoint holds none —
    /// only when nothing is submitted, queued or armed. Every counter, the
    /// deadline count among them, and the pacer's clock stay here.
    pub fn take_send_rings(&mut self) -> Option<Box<SendRings>> {
        self.send.take_if(|s| s.is_empty())
    }

    /// Install `rings` (taken from any endpoint by
    /// [`AduTransport::take_send_rings`]) in an endpoint that holds no send
    /// block, so its next `send_adu` allocates none. Refused, and handed
    /// back, when this endpoint holds a block of its own.
    ///
    /// # Errors
    /// The block itself, when this endpoint holds one or it is not empty.
    pub fn give_send_rings(&mut self, rings: Box<SendRings>) -> Result<(), Box<SendRings>> {
        if self.send.is_some() || !rings.is_empty() {
            return Err(rings);
        }
        self.send = Some(rings);
        Ok(())
    }

    /// Sender memory held for retransmission (X4's buffering cost).
    pub fn retransmit_buffer_bytes(&self) -> usize {
        self.send.as_ref().map_or(0, |s| {
            s.window
                .values()
                .map(|s| s.payload.as_ref().map_or(0, WireBuf::len))
                .sum()
        })
    }

    // ------------------------------------------------------------------
    // Receiving application interface
    // ------------------------------------------------------------------

    /// Pop the next complete ADU, with its delivery latency (first TU
    /// arrival → completion). Delivery order is completion order, NOT name
    /// or id order — out-of-order by design.
    pub fn recv_adu(&mut self) -> Option<(Adu, SimDuration)> {
        let (id, adu, latency) = self.assembler.pop_ready()?;
        if self.highest_delivered.is_some_and(|hi| id < hi) {
            self.stats.rare_mut().adus_delivered_out_of_order += 1;
        }
        self.highest_delivered = Some(self.highest_delivered.map_or(id, |h| h.max(id)));
        Some((adu, latency))
    }

    /// Complete ADUs waiting for the application.
    pub fn recv_available(&self) -> usize {
        self.assembler.ready_len()
    }

    // ------------------------------------------------------------------
    // Wire interface
    // ------------------------------------------------------------------

    /// Advance the machine: expire assemblies, fire retransmission timers,
    /// emit data and control messages.
    ///
    /// Each section is a no-op on its own emptiness test, so a poll with
    /// nothing to do is a handful of compares, and a working one allocates
    /// only the frames it returns and the list that holds them.
    pub fn poll(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// [`AduTransport::poll`], appending the frames to `out`: a caller that
    /// keeps one list across polls allocates only the frames.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<Vec<u8>>) {
        // Sender: dead-peer clock. While work is outstanding and the peer
        // is silent past `peer_timeout`, give up *once*: flush everything
        // to loss reports instead of retrying forever.
        self.check_peer_silence(now);

        if self.assembler.needs_sweep(now) {
            // Receiver: overdue assemblies get selective-fragment NACKs for
            // a few rounds, then a whole-ADU NACK and abandonment — and
            // assemblies shed to honor the byte budget (drop-oldest policy)
            // are NACKed too, so a retransmitting sender stops resending.
            // A NoRetransmit sender never answers a selective NACK, so its
            // receiver abandons at the first deadline instead of asking.
            let rounds = if self.cfg.recovery == RecoveryMode::NoRetransmit {
                0
            } else {
                self.cfg.nack_frag_rounds
            };
            let actions = self.assembler.expire_policy(now, rounds);
            let shed = self.assembler.take_shed();
            let budget_freed = !actions.abandoned.is_empty() || !shed.is_empty();
            if budget_freed || !actions.request_frags.is_empty() {
                let cold = self.cold.get_or_insert_with(Box::default);
                cold.nack_frag_out.extend(actions.request_frags);
                let lost = actions.abandoned.iter().chain(&shed);
                cold.nack_queue.extend(lost.map(|&(id, _name)| id));
            }
            let asm = self.assembler.stats();
            if asm.adus_shed + asm.quota_evictions > 0 {
                // Both only grow, so while they are zero so are the copies.
                let rare = self.stats.rare_mut();
                rare.adus_shed = asm.adus_shed;
                rare.quota_evictions = asm.quota_evictions;
            }
            if budget_freed && self.assembler.budget_bytes() > 0 {
                // Freed budget is a window update the (possibly stalled)
                // sender needs to hear about even if no ACK ids are pending.
                self.window_ack_due = true;
            }
        }

        // Sender: retransmission deadlines — the front of the sorted ring
        // says whether any is due, never the whole in-flight set.
        self.fire_retransmit_timers(now);

        // Sender: explicit retransmissions (timeout-, NACK- or recompute-
        // triggered).
        let base = self.rto_base();
        let mut emit = Emit {
            frames: out,
            tus: 0,
            carrier: None,
            base,
        };
        let retx = match &mut self.cold {
            Some(cold) => std::mem::take(&mut cold.retransmit_now),
            None => Vec::new(),
        };
        for (id, full) in retx {
            let Some(send) = self.send.as_deref_mut() else {
                break;
            };
            if let Some(sent) = send.window.get_mut(id) {
                // Buffer mode keeps its copy for further losses; recompute
                // mode hands the regenerated payload straight through — the
                // transport holds no standing copy ("recompute the lost
                // data values, rather than buffering them", §5).
                let payload = if self.cfg.recovery == RecoveryMode::TransportBuffer {
                    sent.payload.clone()
                } else {
                    sent.payload.take()
                };
                if let Some(payload) = payload {
                    let at = now + rto_for(base, sent.backoff() + self.timeout_backoff);
                    sent.set_deadline(&mut send.deadlines, id, at);
                    let name = sent.name;
                    if full || payload.len() <= self.cfg.mtu_payload {
                        self.stats.rare_mut().adus_retransmitted += 1;
                        self.trace(now, "adu_retx", Some(name), id, 0, payload.len() as u64);
                        self.emit_adu(now, &mut emit, id, name, &payload);
                    } else {
                        // Probe: resend only the first TU; the receiver's
                        // missing-range NACKs drive the rest of the repair.
                        self.stats.rare_mut().probe_tus += 1;
                        self.trace(now, "probe", Some(name), id, 0, self.cfg.mtu_payload as u64);
                        let mut tu = Tu {
                            flags: 0,
                            assoc: self.assoc,
                            timestamp_us: 0,
                            adu_id: id,
                            adu_len: payload.len() as u32,
                            frag_off: 0,
                            name,
                            payload: payload.slice(..self.cfg.mtu_payload),
                        };
                        if self.cfg.timestamps {
                            tu.flags |= TU_FLAG_TIMESTAMP;
                            tu.timestamp_us = micros_wrapping(now);
                        }
                        self.send_tu(now, &mut emit, id, name, tu.encode());
                    }
                }
                self.sync_timer(id);
            }
        }

        // Sender: first transmissions — gated by min(cwnd, rwnd): the
        // congestion window under adaptive control, and the peer's
        // advertised reassembly window in bytes. NoRetransmit flows are
        // held back by neither (no ACK clock to grow a cwnd; the receiver
        // sheds drop-oldest rather than pushing back).
        // (`rwnd_blocked` holds only while an ADU is parked, so an endpoint
        // with no send block has nothing here.)
        if let Some(send) = self
            .send
            .as_deref()
            .filter(|s| s.window.parked_len() > 0 || self.rwnd_blocked)
        {
            let cwnd_slots = if self.cfg.adaptive && self.cfg.recovery != RecoveryMode::NoRetransmit
            {
                let cwnd = self.cold.as_ref().map_or(CWND_INIT_ADUS, |c| c.cwnd);
                (cwnd as usize).saturating_sub(send.window.len())
            } else {
                usize::MAX
            };
            let mut rwnd_free = if self.cfg.recovery == RecoveryMode::NoRetransmit
                || self.peer_rwnd == RWND_UNLIMITED
            {
                None
            } else {
                let inflight: u64 = send.window.values().map(|s| u64::from(s.total_len)).sum();
                Some(u64::from(self.peer_rwnd).saturating_sub(inflight))
            };
            let mut admit = 0usize;
            let was_blocked = self.rwnd_blocked;
            self.rwnd_blocked = false;
            for (i, queued) in send.window.parked().enumerate() {
                if i >= cwnd_slots {
                    break;
                }
                if let Some(free) = rwnd_free {
                    let need = u64::from(queued.total_len);
                    if need > free {
                        // Admitting this ADU could overflow the receiver's
                        // budget and be shed; hold it until the window reopens.
                        self.rwnd_blocked = true;
                        break;
                    }
                    rwnd_free = Some(free - need);
                }
                admit = i + 1;
            }
            if was_blocked && !self.rwnd_blocked {
                if let Some(cold) = &mut self.cold {
                    cold.next_probe_at = None;
                    cold.probe_backoff = 0;
                }
            }
            for _ in 0..admit {
                let Some(send) = self.send.as_deref_mut() else {
                    break;
                };
                // An admitted ADU joins the window where it already sits;
                // under NoRetransmit nothing is ever acknowledged, so it
                // leaves the ring instead.
                let (id, name, payload) = match self.cfg.recovery {
                    RecoveryMode::NoRetransmit => {
                        let (id, sent) = send.window.pop_parked().expect("admit <= parked");
                        (id, sent.name, sent.payload)
                    }
                    recovery => {
                        let (id, sent) = send.window.admit().expect("admit <= parked");
                        sent.set_deadline(&mut send.deadlines, id, now + base);
                        let payload = if recovery == RecoveryMode::TransportBuffer {
                            sent.payload.clone()
                        } else {
                            sent.payload.take()
                        };
                        (id, sent.name, payload)
                    }
                };
                let payload = payload.expect("a queued ADU holds its payload");
                self.trace(now, "adu_send", Some(name), id, 0, payload.len() as u64);
                self.emit_adu(now, &mut emit, id, name, &payload);
                self.sync_timer(id);
            }
        }

        // Release what the pacing queue still holds, up to the burst budget
        // and the token pacer (a TU sent above went straight out only if
        // nothing was queued ahead of it).
        while self.may_release(now, &emit) {
            let Some((id, name, frame)) = self.send.as_mut().and_then(|s| s.txq.pop_front()) else {
                break;
            };
            self.release(now, &mut emit, id, name, frame);
            self.sync_timer(id);
        }
        let Emit {
            frames: out,
            carrier,
            ..
        } = emit;

        // Sender: zero-window probing. When the peer's window has us fully
        // stalled (nothing in flight whose ACKs could carry an update),
        // probe with exponential backoff so a window reopening is noticed
        // without retransmitting data into a full receiver.
        let draining = self
            .send
            .as_ref()
            .is_some_and(|s| !s.window.is_empty() || !s.txq.is_empty());
        if self.rwnd_blocked && !draining && !self.peer_dead {
            let rto = self.rto_base();
            let cold = self.cold.get_or_insert_with(Box::default);
            if cold.next_probe_at.is_none_or(|t| now >= t) {
                out.push(Message::WindowProbe { assoc: self.assoc }.encode());
                let backoff = cold.probe_backoff;
                cold.probe_backoff = (backoff + 1).min(6);
                cold.next_probe_at = Some(now + rto_for(rto, backoff));
                self.stats.rare_mut().zero_window_probes += 1;
                self.stats.control_sent += 1;
                self.trace(now, "win_probe", None, u64::from(backoff), 0, 0);
            }
        }

        // Control: coalesced ACKs / NACKs. The ACK echoes the most recent
        // stamped TU's timestamp plus how long we held it, so the sender
        // can recover a round-trip sample — and always advertises the
        // receiver window (free reassembly budget). A pending window
        // update (probe answer, freed budget) forces an ACK out even with
        // no ids to acknowledge. The id queue is encoded in place and
        // keeps its allocation. When this poll released a data TU, the ACK
        // rides in that frame's tailroom if it fits (an RPC turn: one frame
        // each way, not two). Otherwise it leaves in frames of its own: a
        // frame's count field is 16 bits, so a queue longer than that (a
        // peer replaying one delivered TU queues an id per replay) goes out
        // as several.
        if !self.ack_queue.is_empty() || self.window_ack_due {
            self.window_ack_due = false;
            let mut echo = self
                .cold
                .as_mut()
                .and_then(|c| c.echo_pending.take())
                .map(|(ts, arrival)| (ts, micros_wrapping(now).wrapping_sub(arrival)));
            let rwnd = self.advertised_rwnd();
            let max_len = TU_HEADER_BYTES + self.cfg.mtu_payload;
            let (assoc, mut ids) = (self.assoc, self.ack_queue.as_slice());
            if carrier
                .is_some_and(|i| wire::bundle_ack(&mut out[i], max_len, assoc, ids, echo, rwnd))
            {
                self.stats.control_sent += 1;
            } else {
                // At least one frame: a pure window update is an id-less ACK.
                loop {
                    let (head, rest) = ids.split_at(ids.len().min(MAX_FRAME_ENTRIES));
                    out.push(encode_ack(assoc, head, echo.take(), rwnd));
                    self.stats.control_sent += 1;
                    if rest.is_empty() {
                        break;
                    }
                    ids = rest;
                }
            }
            self.ack_queue.clear();
        }
        if let Some(cold) = &mut self.cold {
            for ids in std::mem::take(&mut cold.nack_queue).chunks(MAX_FRAME_ENTRIES) {
                out.push(encode_nack(self.assoc, ids));
                self.stats.control_sent += 1;
            }
            for (adu_id, ranges) in std::mem::take(&mut cold.nack_frag_out) {
                for ranges in ranges.chunks(MAX_FRAME_ENTRIES) {
                    out.push(encode_nack_frags(self.assoc, adu_id, ranges));
                    self.stats.control_sent += 1;
                }
            }
        }
    }

    /// Fire the retransmission deadlines `now` has passed. A fired entry
    /// is authoritative only if it still matches the ADU's current
    /// deadline (lazy cancellation) and the ADU is not still draining
    /// through the pacer — every path out of that state rewrites the
    /// deadline and re-arms the ring, so dropping a gated entry loses
    /// nothing.
    fn fire_retransmit_timers(&mut self, now: SimTime) {
        let Some(send) = self.send.as_deref_mut() else {
            return;
        };
        if send.deadlines.next_deadline().is_none_or(|d| d > now) {
            return;
        }
        let cold = self.cold.get_or_insert_with(Box::default);
        let mut due = std::mem::take(&mut cold.due_scratch);
        send.deadlines.advance(now, &mut due);
        self.stats.rare_mut().timers_fired += due.len() as u64;
        let mut overdue: Vec<u64> = Vec::with_capacity(due.len());
        for &(deadline, id) in &due {
            if let Some(sent) = send.window.get_mut(id) {
                if sent.armed && sent.deadline == deadline {
                    // The ring gave this entry up; it is no longer armed.
                    sent.armed = false;
                }
                if sent.deadline == deadline && sent.tus_unreleased == 0 {
                    overdue.push(id);
                }
            }
        }
        due.clear();
        self.cold_mut().due_scratch = due;
        // Defense in depth: the one-entry-per-ADU invariant makes
        // duplicates impossible, but the loss event must only ever fire
        // once per ADU, in id order (the order the old full scan produced).
        overdue.sort_unstable();
        overdue.dedup();
        let timeouts_fired = !overdue.is_empty();
        for id in overdue {
            self.handle_loss_event(id, now);
        }
        if timeouts_fired {
            // Karn-style escalation, applied from the *next* sweep on:
            // consecutive timeout sweeps with no intervening ACK progress
            // stretch every RTO further (the ACK handler resets this once
            // new data is acknowledged). A single isolated timeout keeps
            // the plain per-ADU backoff.
            self.timeout_backoff = (self.timeout_backoff + 1).min(6);
            self.stats.rare_mut().rto_backoff_events += 1;
        }
    }

    /// Ingest one owned frame. A data TU that continues an assembly's
    /// verified prefix — every TU of a clean transfer after the first — is
    /// checked as it is copied into place: one read of the frame, one
    /// write. Any other frame is verified whole first; a TU among them is
    /// then placed, or held as an O(1) view into `frame` until the bytes
    /// before it arrive, and a single-TU ADU is released as that view.
    ///
    /// A TU may carry an ACK behind its payload: the two are processed in
    /// wire order, each verified on its own, so a damaged ACK is refused
    /// without costing the data in front of it.
    pub fn on_frame(&mut self, now: SimTime, frame: WireBuf) {
        let parsed = wire::parse(&frame);
        let own = wire::covered(&frame, &parsed);
        // Where the ACK a TU says it carries starts.
        let carried = match &parsed {
            Ok(Frame::Tu(tu)) if tu.flags & TU_FLAG_ACK_FOLLOWS != 0 => Some(own.len()),
            _ => None,
        };
        if let Ok(Frame::Tu(tu)) = &parsed {
            if tu.assoc == self.assoc && tu.flags & TU_FLAG_PARITY == 0 {
                let ready_before = self.assembler.ready_len();
                match self
                    .assembler
                    .extend_prefix(now, tu, |dst| wire::copy_verified(own, dst))
                {
                    Extend::NotNext => {}
                    Extend::Corrupt => {
                        self.reject(now, WireError::BadChecksum.reason(), frame.len());
                        return;
                    }
                    Extend::Placed(placed) => {
                        self.heard_from_peer(now);
                        self.note_stamp(now, tu);
                        // The checksum rode the copy: one read and one
                        // write per payload byte, no verify pass.
                        self.ledger_touch("alf/place", placed as u64, placed as u64);
                        self.tu_placed(now, tu, ready_before);
                        if let Some(at) = carried {
                            self.on_carried_ack(now, frame.slice(at..));
                        }
                        return;
                    }
                }
            }
        }
        let verified = if wire::checksum_ok(own) {
            parsed
        } else {
            Err(WireError::BadChecksum)
        };
        match verified {
            Ok(msg) => {
                self.on_verified(now, msg);
                if let Some(at) = carried {
                    self.on_carried_ack(now, frame.slice(at..));
                }
            }
            Err(e) => self.reject(now, e.reason(), frame.len()),
        }
    }

    /// The ACK a verified TU carried behind its payload: accepted, or
    /// refused and counted under its reason, on its own.
    fn on_carried_ack(&mut self, now: SimTime, ack: WireBuf) {
        match wire::carried_ack(&ack) {
            Ok(view) => {
                self.heard_from_peer(now);
                self.on_ack(now, view);
            }
            Err(e) => self.reject(now, e.reason(), ack.len()),
        }
    }

    /// Count and trace a frame refused at ingest.
    fn reject(&mut self, now: SimTime, reason: &'static str, len: usize) {
        self.stats.rare_mut().bad_messages += 1;
        self.count_rejected(reason);
        self.trace(now, "bad_msg", None, 0, 0, len as u64);
    }

    /// Any intact message restarts the dead-peer clock — and revives a
    /// peer previously declared unreachable (its lost ADUs stay lost; new
    /// sends flow again).
    fn heard_from_peer(&mut self, now: SimTime) {
        self.last_peer_activity = Some(now);
        self.peer_dead = false;
    }

    /// A stamped TU feeds the jitter estimate and the next ACK's echo.
    fn note_stamp(&mut self, now: SimTime, tu: &Tu) {
        if tu.flags & TU_FLAG_TIMESTAMP != 0 {
            self.update_jitter(now, tu.timestamp_us);
            self.cold_mut().echo_pending = Some((tu.timestamp_us, micros_wrapping(now)));
        }
    }

    /// After a TU entered reassembly: trace its arrival, try FEC, and do
    /// the completion bookkeeping for whatever it completed.
    fn tu_placed(&mut self, now: SimTime, tu: &Tu, ready_before: usize) {
        // Fragment accepted into reassembly: the arrival edge of the ADU's
        // lifecycle span.
        self.trace(
            now,
            "tu_recv",
            Some(tu.name),
            tu.adu_id,
            u64::from(tu.frag_off),
            tu.payload.len() as u64,
        );
        self.try_fec_reconstruct(now, tu.adu_id, tu.name);
        self.completed_since(now, ready_before);
    }

    /// Completion-time bookkeeping for whatever this frame (or a
    /// reconstruction it triggered) completed, read off the back of the
    /// ready queue: the ADUs themselves stay there until `recv_adu` pops
    /// them.
    fn completed_since(&mut self, now: SimTime, ready_before: usize) {
        for &(id, ref adu, latency) in self.assembler.ready_from(ready_before) {
            if let Some(cold) = &mut self.cold {
                cold.parities.remove(&id);
            }
            #[cfg(feature = "debug-loss")]
            eprintln!("adu {id} complete at {now}");
            self.stats.adus_delivered += 1;
            self.stats.delivery_latency_total += latency;
            self.stats.delivery_latency_max = self.stats.delivery_latency_max.max(latency);
            self.ack_queue.push(id);
            self.trace(
                now,
                "adu_deliver",
                Some(adu.name),
                id,
                latency.as_nanos() / 1_000,
                adu.payload.len() as u64,
            );
        }
    }

    /// The rest of [`AduTransport::on_frame`] for a verified message.
    fn on_verified(&mut self, now: SimTime, msg: Frame<'_>) {
        self.heard_from_peer(now);
        match msg {
            Frame::Tu(tu) => {
                if tu.assoc != self.assoc {
                    self.stats.rare_mut().bad_messages += 1;
                    self.count_rejected("assoc_mismatch");
                    return;
                }
                if self.assembler.was_released(tu.adu_id) {
                    // The sender is retransmitting an ADU we already
                    // delivered (our ACK was lost), or a hostile middlebox
                    // is replaying a captured frame. Either way the TU
                    // charges nothing and resurrects nothing: re-ACK and
                    // drop. The replay window behind `was_released` keeps
                    // this check sound even for ancient ids (see
                    // [`crate::assembler::Assembler`]), and it is the TU's
                    // only replay lookup: stage 1 trusts it.
                    self.stats.rare_mut().tus_replayed += 1;
                    self.count_rejected("replayed");
                    self.ack_queue.push(tu.adu_id);
                    return;
                }
                // Checksum verification read every payload byte once (the
                // whole sealed frame folds to zero; the header's share is
                // O(1) control cost, excluded by policy).
                self.ledger_touch("alf/verify", tu.payload.len() as u64, 0);
                self.note_stamp(now, &tu);
                let ready_before = self.assembler.ready_len();
                if tu.flags & TU_FLAG_PARITY != 0 {
                    if let Some(p) = fec::parse_parity(&tu) {
                        let held = &mut self.cold_mut().parities;
                        held.entry(tu.adu_id).or_default().push(p);
                    } else {
                        self.stats.rare_mut().bad_messages += 1;
                        self.count_rejected("bad_parity");
                    }
                    self.try_fec_reconstruct(now, tu.adu_id, tu.name);
                    self.completed_since(now, ready_before);
                    return;
                }
                let Some(placed) = self.assembler.accept(now, &tu) else {
                    // Byte budget full, backpressure policy: the TU is
                    // refused (not silently lost — the sender still holds
                    // the ADU). Owe the peer a window update so it stops
                    // pushing until budget frees.
                    self.stats.rare_mut().tus_backpressured += 1;
                    self.window_ack_due = true;
                    return;
                };
                // Placement: one read of the bytes copied behind the
                // prefix (this TU's, or held views it let drain), one
                // write. A view released whole books nothing.
                if placed > 0 {
                    self.ledger_touch("alf/place", placed as u64, placed as u64);
                }
                self.tu_placed(now, &tu, ready_before);
            }
            Frame::Ack(ack) => self.on_ack(now, ack),
            Frame::Nack { assoc, ids } => {
                if assoc != self.assoc {
                    return;
                }
                for id in ids {
                    self.handle_loss_event(id, now);
                }
            }
            Frame::NackFrags {
                assoc,
                adu_id,
                ranges,
            } => {
                if assoc != self.assoc {
                    return;
                }
                self.retransmit_fragments(now, adu_id, ranges.map(wire::split_range));
            }
            Frame::WindowProbe { assoc } => {
                if assoc != self.assoc {
                    return;
                }
                // Answer with a (possibly id-less) ACK carrying the
                // current receiver window.
                self.window_ack_due = true;
            }
        }
    }

    /// An intact ACK: the peer's window, an RTT sample from its echo, and
    /// the ADUs it acknowledges leaving the send window.
    fn on_ack(&mut self, now: SimTime, ack: AckView<'_>) {
        let AckView {
            assoc,
            ids,
            echo,
            rwnd,
        } = ack;
        if assoc != self.assoc {
            return;
        }
        self.peer_rwnd = rwnd;
        #[cfg(feature = "debug-loss")]
        eprintln!("ack in: {:?} at {now}", ids.clone().collect::<Vec<_>>());
        if let Some((ts, hold)) = echo {
            // rtt = now − stamp − receiver hold, all wrapping on the 32-bit
            // µs clock. A garbled/ancient echo shows up as an implausibly
            // huge delta; discard it.
            let rtt = micros_wrapping(now).wrapping_sub(ts).wrapping_sub(hold);
            if rtt < 1 << 31 {
                let est = &mut self.cold.get_or_insert_with(Box::default).rtt;
                est.on_sample(rtt as f64);
                let rare = self.stats.rare_mut();
                rare.srtt_us = est.srtt_us;
                rare.rttvar_us = est.rttvar_us;
                rare.rtt_samples = est.samples;
                if let Some(rto) = est.rto(self.cfg.rto_min, self.cfg.rto_max) {
                    rare.rto_us = rto.as_nanos() as f64 / 1_000.0;
                }
            }
        }
        let Some(send) = self.send.as_deref_mut() else {
            return;
        };
        let mut newly_acked = 0u64;
        let mut acked_bytes = 0u64;
        for id in ids {
            if let Some(sent) = send.window.remove(id) {
                if sent.armed {
                    send.deadlines.remove(sent.deadline, id);
                }
                newly_acked += 1;
                acked_bytes += u64::from(sent.total_len);
            }
        }
        if newly_acked > 0 {
            self.cwnd_on_acked(newly_acked);
            self.note_delivery(now, acked_bytes);
            // ACK progress ends the Karn-style escalation.
            self.timeout_backoff = 0;
        }
    }

    /// The earliest pending timer: the sender's retransmission deadline,
    /// pacing wake-up (or, unpaced, the instant a burst cap held TUs
    /// back), zero-window probe, dead-peer declaration or untaken
    /// recompute request (due since it was raised), or the receiver's
    /// reassembly sweep (a NACK round or an abandonment).
    pub fn next_timeout(&self) -> Option<SimTime> {
        // The ring's front, never O(ADUs in flight). `sync_timer` keeps the
        // ring holding exactly the live retransmission deadlines, so this
        // minimum is the same value the old full min-scan produced.
        let send = self.send.as_deref();
        let retx = send.and_then(|s| s.deadlines.next_deadline());
        let queued = send.is_some_and(|s| !s.txq.is_empty());
        let pace = queued.then_some(self.next_tx_at);
        let probe = if self.rwnd_blocked && !self.peer_dead {
            self.cold.as_ref().and_then(|c| c.next_probe_at)
        } else {
            None
        };
        let dead = if self.cfg.peer_timeout > SimDuration::ZERO
            && !self.peer_dead
            && self.work_outstanding()
        {
            self.last_peer_activity.map(|t| t + self.cfg.peer_timeout)
        } else {
            None
        };
        let sweep = self.assembler.next_sweep();
        let recompute = self.cold.as_ref().and_then(|c| c.recompute_since);
        earliest(retx, pace, probe, dead, sweep, recompute)
    }

    /// Receiver memory currently invested in partial ADUs.
    pub fn reassembly_bytes(&self) -> usize {
        self.assembler.pending_bytes()
    }

    /// Retransmission-timer instrumentation, in a timer wheel's terms. The
    /// regression tests use this to prove that `poll` /
    /// [`AduTransport::next_timeout`] timer cost does not scale with the
    /// number of in-flight ADUs. The deadlines are a sorted ring: it scans
    /// no slots, and the only entries an `advance` examines are the ones it
    /// fires (the compare with the front that ends each one is the read
    /// `next_timeout` makes, and is not counted either).
    pub fn timer_stats(&self) -> WheelStats {
        let fired = self.stats().timers_fired;
        WheelStats {
            inserts: self.deadline_inserts,
            fired,
            entries_examined: fired,
            slots_scanned: 0,
        }
    }

    /// Approximate memory footprint of this endpoint, in bytes: the struct
    /// itself plus every heap block behind it — the configuration's block
    /// while this endpoint is its only owner (a shared template is charged
    /// to whoever interned it), the send rings' blocks (while it holds
    /// them: see [`AduTransport::take_send_rings`]) and the retransmission
    /// payloads they buffer, the pacing queue and its frames, the ACK id
    /// queue, stage 1 (open assemblies, the completed-ADU queue, replay
    /// islands, its rare counters), and the cold state and the rare
    /// counters once they exist. Deterministic (derived from lengths and
    /// capacities, never allocator internals) — X13 uses it for the
    /// bytes-per-association bound, and `tests/alloc_budget.rs` checks it
    /// against the bytes a warm endpoint really holds.
    pub fn approx_mem_bytes(&self) -> usize {
        use std::mem::size_of;
        let config = if Arc::strong_count(&self.cfg) == 1 {
            config_block_bytes()
        } else {
            0
        };
        size_of::<Self>()
            + config
            + self.send_ring_bytes()
            + self.retransmit_buffer_bytes()
            + self.send.as_ref().map_or(0, |s| {
                s.txq.iter().map(|(_, _, f)| f.capacity()).sum::<usize>()
            })
            + self.ack_queue.capacity() * size_of::<u64>()
            + self.assembler.approx_mem_bytes()
            + self.cold.as_ref().map_or(0, |c| {
                size_of::<Cold>() + c.due_scratch.capacity() * size_of::<(SimTime, u64)>()
            })
            + self.stats.heap_bytes()
    }

    /// Every counter and estimator read-out, inline and rare alike.
    pub fn stats(&self) -> AlfStats {
        AlfStats::from(&self.stats)
    }

    /// Stage-1 statistics.
    pub fn assembler_stats(&self) -> crate::assembler::AssemblerStats {
        self.assembler.stats()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Sender work that expects the peer to eventually answer.
    fn work_outstanding(&self) -> bool {
        self.send.as_ref().is_some_and(|s| !s.is_empty())
            || self
                .cold
                .as_ref()
                .is_some_and(|c| !c.retransmit_now.is_empty())
    }

    /// Dead-peer clock: declare the peer unreachable after `peer_timeout`
    /// of silence with work outstanding, flushing everything to loss
    /// reports (application terms — names, never byte ranges).
    fn check_peer_silence(&mut self, now: SimTime) {
        if self.cfg.peer_timeout == SimDuration::ZERO || self.peer_dead {
            return;
        }
        if !self.work_outstanding() {
            // Idle: nothing is owed, so silence is not evidence of death.
            self.last_peer_activity = Some(now);
            return;
        }
        let since = *self.last_peer_activity.get_or_insert(now);
        if now.saturating_since(since) < self.cfg.peer_timeout {
            return;
        }
        self.peer_dead = true;
        self.stats.rare_mut().peer_unreachable_events += 1;
        let (inflight, parked) = self
            .send
            .as_ref()
            .map_or((0, 0), |s| (s.window.len(), s.window.parked_len()));
        self.trace(now, "peer_dead", None, inflight as u64, parked as u64, 0);
        let cold = self.cold.get_or_insert_with(Box::default);
        if let Some(send) = self.send.as_deref_mut() {
            // In-flight ADUs, then the ones still queued, in id order.
            for (id, sent) in send.window.drain() {
                if sent.armed {
                    send.deadlines.remove(sent.deadline, id);
                }
                let rare = self.stats.rare_mut();
                rare.adus_given_up += 1;
                rare.losses_reported += 1;
                cold.loss_reports.push(LossReport {
                    adu_id: id,
                    name: sent.name,
                });
            }
            send.txq.clear();
        }
        cold.retransmit_now.clear();
        cold.recompute_out.clear();
        cold.recompute_since = None;
        cold.next_probe_at = None;
        cold.probe_backoff = 0;
        self.rwnd_blocked = false;
    }

    /// The receiver window to advertise: free reassembly budget in bytes,
    /// [`RWND_UNLIMITED`] when running without a budget.
    fn advertised_rwnd(&self) -> u32 {
        match self.assembler.budget_free() {
            Some(free) => free.min(u32::MAX as usize) as u32,
            None => RWND_UNLIMITED,
        }
    }

    /// Count data-byte passes against the attached [`ct_telemetry::TouchLedger`]
    /// (payload bytes only — fixed-size headers are O(1) control cost per
    /// TU, not a per-data-byte pass, and are excluded by policy).
    fn ledger_touch(&self, stage: &'static str, reads: u64, writes: u64) {
        if let Some((tel, _)) = &self.telemetry {
            tel.ledger().touch(stage, reads, writes);
        }
    }

    /// Bump the per-reason rejection counter for a frame refused at
    /// ingest. The reason labels come from [`WireError::reason`] plus the
    /// transport's own post-decode checks; the static match keeps the hot
    /// rejection path allocation-free.
    fn count_rejected(&self, reason: &'static str) {
        if let Some((tel, _)) = &self.telemetry {
            let name = match reason {
                "truncated" => "alf.rx_rejected.truncated",
                "unknown_type" => "alf.rx_rejected.unknown_type",
                "bad_checksum" => "alf.rx_rejected.bad_checksum",
                "length_mismatch" => "alf.rx_rejected.length_mismatch",
                "not_an_ack" => "alf.rx_rejected.not_an_ack",
                "bad_name" => "alf.rx_rejected.bad_name",
                "frag_out_of_range" => "alf.rx_rejected.frag_out_of_range",
                "assoc_mismatch" => "alf.rx_rejected.assoc_mismatch",
                "bad_parity" => "alf.rx_rejected.bad_parity",
                "replayed" => "alf.rx_rejected.replayed",
                _ => "alf.rx_rejected.other",
            };
            tel.metrics_mut().counter_add(name, 1);
        }
    }

    /// Fragment an ADU and send its TUs (plus FEC parity when configured).
    ///
    /// Fragmentation slices the payload (O(1) views, no copy) and each TU
    /// is encoded as it is cut — no list of them is built unless FEC needs
    /// the group to compute parity over.
    fn emit_adu(
        &mut self,
        now: SimTime,
        emit: &mut Emit,
        id: u64,
        name: AduName,
        payload: &WireBuf,
    ) {
        let stamp = self.cfg.timestamps.then(|| micros_wrapping(now));
        let fec_group = self.cfg.fec_group;
        let mut protected = Vec::new();
        for mut tu in fragments(self.assoc, id, name, payload, self.cfg.mtu_payload) {
            if let Some(stamp) = stamp {
                tu.timestamp_us = stamp;
                tu.flags |= TU_FLAG_TIMESTAMP;
            }
            self.encode_tu(now, emit, &tu);
            if fec_group > 0 {
                protected.push(tu);
            }
        }
        // Parity follows the data it protects: by the time a parity TU
        // arrives, its group's data TUs have either arrived or been lost,
        // so reconstruction fires only for real erasures.
        if fec_group > 0 {
            for parity in fec::build_parity(&protected, fec_group) {
                self.encode_tu(now, emit, &parity);
                self.stats.rare_mut().fec_parity_sent += 1;
            }
        }
    }

    /// Encode one TU and send it. This is the send side's single data
    /// pass: [`Tu::encode`] copies the payload into the frame and checksums
    /// it in the same sweep — one read and one write per payload byte,
    /// booked as `alf/tu_encode`.
    fn encode_tu(&mut self, now: SimTime, emit: &mut Emit, tu: &Tu) {
        let len = tu.payload.len() as u64;
        let frame = tu.encode();
        self.ledger_touch("alf/tu_encode", len, len);
        self.send_tu(now, emit, tu.adu_id, tu.name, frame);
    }

    /// Whether the burst budget and the token pacer let one more data TU
    /// out of this poll.
    fn may_release(&self, now: SimTime, emit: &Emit) -> bool {
        emit.tus < self.cfg.burst_tus
            && (self.pace_now == SimDuration::ZERO || now >= self.next_tx_at)
    }

    /// Send one encoded data TU from this poll: straight into its frames
    /// when the pacer and the burst budget allow it and nothing is queued
    /// ahead of it, otherwise to the back of the pacing queue, counted
    /// against its ADU (whose retransmission clock waits for it). Either
    /// way the caller re-arms the ADU's timer once all of it is sent.
    fn send_tu(&mut self, now: SimTime, emit: &mut Emit, id: u64, name: AduName, frame: Vec<u8>) {
        let queued = self.send.as_ref().is_some_and(|s| !s.txq.is_empty());
        if !queued && self.may_release(now, emit) {
            self.release(now, emit, id, name, frame);
        } else {
            // Every TU a poll sends belongs to a submitted ADU, so the
            // block is there.
            let send = self.send.get_or_insert_with(Box::default);
            if let Some(sent) = send.window.get_mut(id) {
                sent.tus_unreleased += 1;
            }
            send.txq.push_back((id, name, frame));
        }
    }

    /// Let one data TU out: the pacer's next slot, the release-time stamp,
    /// and the owning ADU's retransmission deadline, which runs from the
    /// moment its TUs actually leave, not from when they were queued
    /// behind the pacer. The caller re-arms the deadline ring.
    fn release(
        &mut self,
        now: SimTime,
        emit: &mut Emit,
        id: u64,
        name: AduName,
        mut frame: Vec<u8>,
    ) {
        // Unpaced, what the burst cap holds back is due at this instant.
        self.next_tx_at = if self.pace_now > SimDuration::ZERO {
            self.next_tx_at.max(now) + self.pace_now
        } else {
            now
        };
        if self.cfg.adaptive {
            // Stamp at actual release, not at queueing: the echo then
            // measures the true network round trip, excluding time spent
            // behind the pacer — and a retransmitted TU carries a fresh
            // stamp, making Karn's filter unnecessary.
            restamp_tu(&mut frame, micros_wrapping(now));
        }
        if let Some(send) = self.send.as_deref_mut() {
            if let Some(sent) = send.window.get_mut(id) {
                // A TU that never waited was never counted: the pacing
                // queue was empty, so every ADU's count was zero and stays
                // so.
                sent.tus_unreleased = sent.tus_unreleased.saturating_sub(1);
                let at = now + rto_for(emit.base, sent.backoff() + self.timeout_backoff);
                sent.set_deadline(&mut send.deadlines, id, at);
            }
        }
        self.stats.tus_sent += 1;
        self.trace(now, "tu_send", Some(name), id, 0, frame.len() as u64);
        emit.carrier = Some(emit.frames.len());
        emit.frames.push(frame);
        emit.tus += 1;
    }

    /// RFC 3550 §6.4.1 interarrival jitter: `J += (|D| - J) / 16` where
    /// `D` is the difference in relative transit time between consecutive
    /// stamped TUs (all arithmetic wrapping, µs).
    fn update_jitter(&mut self, now: SimTime, ts_us: u32) {
        let arrival = micros_wrapping(now);
        self.stats.rare_mut().timestamped_tus += 1;
        let prev = self.cold_mut().prev_timing.replace((arrival, ts_us));
        if let Some((prev_arrival, prev_ts)) = prev {
            let d = (arrival.wrapping_sub(prev_arrival) as i32)
                .wrapping_sub(ts_us.wrapping_sub(prev_ts) as i32);
            let d = (d as f64).abs();
            let rare = self.stats.rare_mut();
            rare.jitter_us += (d - rare.jitter_us) / 16.0;
        }
    }

    /// Try to rebuild missing fragments of `adu_id` from held parity TUs,
    /// feeding reconstructions back into stage 1 (which may complete the
    /// ADU and let `pop_ready` release it).
    fn try_fec_reconstruct(&mut self, now: SimTime, adu_id: u64, name: AduName) {
        let Some(plist) = self.cold.as_ref().and_then(|c| c.parities.get(&adu_id)) else {
            return;
        };
        let Some(adu_len) = self.assembler.declared_len(adu_id) else {
            return;
        };
        let mut rebuilt: Vec<(u32, Vec<u8>)> = Vec::new();
        for p in plist {
            let mtu = p.xor.len();
            if mtu == 0 {
                continue;
            }
            if let Some(hit) = fec::reconstruct(p, mtu, adu_len, |j| {
                let off = p.group_off as u64 + (j * mtu) as u64;
                if off >= adu_len as u64 {
                    // Group slot past the ADU end (malformed k): treat as
                    // present-empty so it cannot count as the erasure.
                    return Some(Vec::new());
                }
                let len = ((adu_len as u64 - off) as usize).min(mtu);
                self.assembler.fragment_if_present(adu_id, off as u32, len)
            }) {
                rebuilt.push(hit);
            }
        }
        if rebuilt.is_empty() {
            return;
        }
        let mut placed = 0;
        for (frag_off, payload) in rebuilt {
            self.stats.rare_mut().fec_reconstructions += 1;
            let tu = Tu {
                flags: 0,
                assoc: self.assoc,
                timestamp_us: 0,
                adu_id,
                adu_len,
                frag_off,
                name,
                payload: payload.into(),
            };
            // An earlier rebuilt fragment may have completed the ADU: then
            // this one is a duplicate, and `on_tu` counts it as one.
            if self.assembler.was_released(adu_id) {
                self.assembler.on_tu(now, &tu);
            } else {
                placed += self.assembler.accept(now, &tu).unwrap_or(0);
            }
        }
        if placed > 0 {
            self.ledger_touch("alf/place", placed as u64, placed as u64);
        }
    }

    /// Selective retransmission: resend just the NACKed byte ranges of one
    /// ADU (requires the payload at hand — buffer mode, or a still-cached
    /// recomputed payload). Falls back to the whole-ADU loss path when the
    /// payload is gone.
    fn retransmit_fragments(
        &mut self,
        now: SimTime,
        adu_id: u64,
        ranges: impl Iterator<Item = (u32, u32)>,
    ) {
        let base = self.rto_base();
        let stamp = self.cfg.timestamps.then(|| micros_wrapping(now));
        let Some(sent) = self.send.as_ref().and_then(|s| s.window.get(adu_id)) else {
            return; // already ACKed — the NACK raced the final TU
        };
        if sent.tus_unreleased > 0 {
            // Repairs (or the original transmission) are still draining
            // through the pacer; answering this NACK round would only queue
            // duplicates behind them.
            return;
        }
        if sent.repairs
            >= limit16(
                self.cfg
                    .max_retries
                    .saturating_mul(self.cfg.nack_frag_rounds),
            )
        {
            // More selective rounds than an honest receiver asks for over
            // the whole give-up budget (`nack_frag_rounds` per loss event):
            // charge this one as a loss event, so a forged NACK stream
            // cannot hold an ADU in the window forever.
            self.handle_loss_event(adu_id, now);
            return;
        }
        let Some(payload) = sent.payload.clone() else {
            // No copy to cut from: treat as a loss event (recompute / give up).
            self.handle_loss_event(adu_id, now);
            return;
        };
        let name = sent.name;
        let total = payload.len() as u32;
        // Each repair TU is encoded into the pacing queue as it is cut (a
        // frame arrival has no poll to release it into).
        let mut queued = 0u32;
        let mut retx_bytes = 0usize;
        for (off, len) in ranges {
            if len == 0 || off as u64 + u64::from(len) > u64::from(total) {
                // A repair request outside the ADU we declared is a
                // protocol error (corrupted or forged NACK) — reject the
                // range and say so, rather than clamping it into a
                // plausible-looking repair that masks the bug.
                self.stats.rare_mut().nack_range_errors += 1;
                self.trace(
                    now,
                    "nack_range_err",
                    Some(name),
                    adu_id,
                    u64::from(off),
                    u64::from(len),
                );
                continue;
            }
            let end = off + len;
            let mut cursor = off;
            while cursor < end {
                let take = (end - cursor).min(self.cfg.mtu_payload as u32) as usize;
                let tu = Tu {
                    flags: if stamp.is_some() {
                        TU_FLAG_TIMESTAMP
                    } else {
                        0
                    },
                    assoc: self.assoc,
                    timestamp_us: stamp.unwrap_or(0),
                    adu_id,
                    adu_len: total,
                    frag_off: cursor,
                    name,
                    payload: payload.slice(cursor as usize..cursor as usize + take),
                };
                let Some(send) = self.send.as_deref_mut() else {
                    return;
                };
                send.txq.push_back((adu_id, name, tu.encode()));
                queued += 1;
                retx_bytes += take;
                cursor += take as u32;
            }
        }
        if queued == 0 {
            return;
        }
        let Some(send) = self.send.as_deref_mut() else {
            return;
        };
        let sent = send
            .window
            .get_mut(adu_id)
            .expect("checked live above; no removal since");
        sent.repairs += 1;
        let at = now + rto_for(base, sent.backoff() + self.timeout_backoff);
        sent.set_deadline(&mut send.deadlines, adu_id, at);
        sent.tus_unreleased += queued;
        self.stats.rare_mut().tus_retransmitted_selective += queued as u64;
        self.ledger_touch("alf/tu_encode", retx_bytes as u64, retx_bytes as u64);
        self.trace(
            now,
            "tu_retx",
            Some(name),
            adu_id,
            queued as u64,
            retx_bytes as u64,
        );
        self.sync_timer(adu_id);
    }

    /// An ADU was (probably) lost: apply the recovery policy and, under
    /// adaptive control, the congestion response (timeouts and NACKs both
    /// land here — there is exactly one loss-signal point).
    fn handle_loss_event(&mut self, id: u64, now: SimTime) {
        if !self
            .send
            .as_ref()
            .is_some_and(|s| s.window.contains_key(id))
        {
            return;
        }
        self.cwnd_on_loss(now);
        let base = self.rto_base();
        let cold = self.cold.get_or_insert_with(Box::default);
        let Some(send) = self.send.as_deref_mut() else {
            return;
        };
        let Some(sent) = send.window.get_mut(id) else {
            return;
        };
        #[cfg(feature = "debug-loss")]
        eprintln!(
            "loss event: adu {id} now {now} deadline {} retries {}",
            sent.deadline, sent.retries
        );
        if sent.retries >= limit16(self.cfg.max_retries) {
            let (name, armed, deadline) = (sent.name, sent.armed, sent.deadline);
            send.window.remove(id);
            if armed {
                send.deadlines.remove(deadline, id);
            }
            let rare = self.stats.rare_mut();
            rare.adus_given_up += 1;
            rare.losses_reported += 1;
            cold.loss_reports.push(LossReport { adu_id: id, name });
            self.trace(now, "adu_lost", Some(name), id, 0, 0);
            return;
        }
        sent.retries += 1;
        let deadline = now + rto_for(base, sent.backoff() + self.timeout_backoff);
        sent.set_deadline(&mut send.deadlines, id, deadline);
        match self.cfg.recovery {
            RecoveryMode::TransportBuffer => {
                cold.retransmit_now.push((id, false));
            }
            RecoveryMode::AppRecompute => {
                if !sent.awaiting_recompute && sent.payload.is_none() {
                    sent.awaiting_recompute = true;
                    let name = sent.name;
                    self.stats.rare_mut().recompute_requests += 1;
                    cold.recompute_out.push(LossReport { adu_id: id, name });
                    cold.recompute_since.get_or_insert(now);
                } else if sent.payload.is_some() {
                    // A recomputed payload is still cached from a previous
                    // round: reuse it.
                    cold.retransmit_now.push((id, true));
                }
            }
            RecoveryMode::NoRetransmit => unreachable!("no unacked in NoRetransmit"),
        }
        self.sync_timer(id);
    }

    /// Reconcile the deadline ring with an ADU's state: arm its deadline iff
    /// its retransmission clock is live (nothing of it queued behind the
    /// pacer, awaiting a recompute or not), disarm otherwise. Every state
    /// change funnels through here (and a moved deadline through
    /// [`SentAdu::set_deadline`], which disarms the old one), so the ring
    /// holds exactly one entry per live clock and
    /// [`AduTransport::next_timeout`] reproduces the old O(n) min-scan
    /// bit-for-bit. O(1) for a deadline armed in order or an ADU
    /// acknowledged in order; otherwise a search and a shift bounded by
    /// `window_adus`.
    fn sync_timer(&mut self, id: u64) {
        let Some(send) = self.send.as_deref_mut() else {
            return;
        };
        let Some(sent) = send.window.get_mut(id) else {
            return;
        };
        let live = sent.tus_unreleased == 0;
        if live == sent.armed {
            return;
        }
        if live {
            send.deadlines.insert(sent.deadline, id);
            self.deadline_inserts += 1;
        } else {
            send.deadlines.remove(sent.deadline, id);
        }
        sent.armed = live;
    }

    /// Base retransmission timeout: the RTT-derived RTO under adaptive
    /// control (once a sample exists), the fixed config value otherwise.
    fn rto_base(&self) -> SimDuration {
        if self.cfg.adaptive {
            let est = self.cold.as_ref().map(|c| &c.rtt);
            if let Some(rto) = est.and_then(|e| e.rto(self.cfg.rto_min, self.cfg.rto_max)) {
                return rto;
            }
        }
        self.cfg.retransmit_timeout
    }

    /// AIMD growth on clean ACKs: slow start (+1 ADU per ACKed ADU) below
    /// `ssthresh`, congestion avoidance (+1/cwnd) above it, capped at the
    /// application's `window_adus` bound.
    fn cwnd_on_acked(&mut self, newly_acked: u64) {
        if !self.cfg.adaptive {
            return;
        }
        let cold = self.cold.get_or_insert_with(Box::default);
        for _ in 0..newly_acked {
            if cold.cwnd < cold.ssthresh {
                cold.cwnd += 1.0;
            } else {
                cold.cwnd += 1.0 / cold.cwnd;
            }
        }
        cold.cwnd = cold.cwnd.min(self.cfg.window_adus as f64);
        let rare = self.stats.rare_mut();
        rare.cwnd_adus = cold.cwnd;
        rare.cwnd_peak_adus = rare.cwnd_peak_adus.max(cold.cwnd);
    }

    /// AIMD multiplicative decrease, at most once per round trip — the
    /// TUs already in flight when congestion struck will all signal the
    /// same event, and it must be charged only once.
    fn cwnd_on_loss(&mut self, now: SimTime) {
        if !self.cfg.adaptive {
            return;
        }
        let cold = self.cold.get_or_insert_with(Box::default);
        let guard = cold.rtt.srtt().unwrap_or(self.cfg.retransmit_timeout);
        if let Some(last) = cold.last_cwnd_cut {
            if now.saturating_since(last) < guard {
                return;
            }
        }
        cold.last_cwnd_cut = Some(now);
        cold.ssthresh = (cold.cwnd / 2.0).max(1.0);
        cold.cwnd = cold.ssthresh;
        let rare = self.stats.rare_mut();
        rare.cwnd_adus = cold.cwnd;
        rare.loss_events += 1;
    }

    /// Fold newly ACKed bytes into the delivery-rate estimate and re-derive
    /// the TU pace from it: the sender transmits at slightly above the
    /// rate the receiver demonstrably absorbed (§3's rate-based transfer
    /// control, computed out of band from the data path).
    fn note_delivery(&mut self, now: SimTime, bytes: u64) {
        if !self.cfg.adaptive {
            return;
        }
        let cold = self.cold.get_or_insert_with(Box::default);
        cold.rate_bytes += bytes;
        let epoch = *cold.rate_epoch.get_or_insert(now);
        let dt = now.saturating_since(epoch);
        if dt < MIN_RATE_WINDOW {
            return;
        }
        let sample_bps = cold.rate_bytes as f64 * 8.0 / (dt.as_nanos() as f64 / 1e9);
        cold.rate_bps = if cold.rate_bps == 0.0 {
            sample_bps
        } else {
            cold.rate_bps + (sample_bps - cold.rate_bps) / 4.0
        };
        cold.rate_bytes = 0;
        cold.rate_epoch = Some(now);
        self.stats.rare_mut().delivery_rate_mbps = cold.rate_bps / 1e6;
        let wire_bits = (self.cfg.mtu_payload + crate::wire::TU_HEADER_BYTES) as f64 * 8.0;
        let pace_ns = wire_bits / (cold.rate_bps * PACING_GAIN) * 1e9;
        self.pace_now = SimDuration::from_nanos(pace_ns as u64).min(MAX_PACE);
    }
}

impl ct_netsim::drive::Endpoint for AduTransport {
    fn poll(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        AduTransport::poll(self, now)
    }
    fn on_frame(&mut self, now: SimTime, frame: WireBuf) {
        AduTransport::on_frame(self, now, frame);
    }
    fn next_timeout(&self) -> Option<SimTime> {
        AduTransport::next_timeout(self)
    }
}
