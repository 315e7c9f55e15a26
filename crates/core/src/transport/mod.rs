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
//! `on_message(now, bytes)` ingests them.
//!
//! [`ct_transport::StreamTransport`]: ../../ct_transport/stream/struct.StreamTransport.html

use crate::adu::{Adu, AduName};
use crate::assembler::{Assembler, ShedPolicy};
use crate::fec;
use crate::ids::IdRing;
use crate::wire::{
    encode_ack, fragments, restamp_tu, Message, Tu, RWND_UNLIMITED, TU_FLAG_PARITY,
    TU_FLAG_TIMESTAMP,
};
use ct_netsim::time::{SimDuration, SimTime};
use ct_telemetry::Telemetry;
use ct_wire::WireBuf;
use std::collections::{BTreeMap, VecDeque};

mod config;
mod rtt;
mod stats;
#[cfg(test)]
mod tests;

pub use config::{AlfConfig, LossReport, RecoveryMode, SendRefused};
pub use stats::AlfStats;

use crate::timer::TimerWheel;
use rtt::RttEstimator;

/// The per-ADU retransmission deadline with exponential backoff: the base
/// timeout doubled per retry (capped at 2^6) — the NACK path does the
/// fine-grained work; the sender timer is the coarse fallback. Under
/// adaptive control the base comes from the RTT estimator instead of the
/// fixed `retransmit_timeout`.
fn rto_for(base: SimDuration, retries: u32) -> SimDuration {
    base.saturating_mul(1u64 << retries.min(6))
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

/// Slots in the per-endpoint retransmission timer wheel. Kept small: a
/// many-association server instantiates one wheel per endpoint, so the
/// fixed footprint matters more than rotation length (entries living
/// beyond one rotation are merely rescanned when their slot comes around).
const RETX_WHEEL_SLOTS: usize = 8;

/// Tick width of the retransmission wheel. Deadlines stay exact — the
/// granularity only bounds how many slots an `advance` scans per elapsed
/// interval (one rotation = 8 × 4 ms = 32 ms).
const RETX_WHEEL_GRANULARITY: SimDuration = SimDuration::from_millis(4);

/// Sender-side record of an unacknowledged ADU.
#[derive(Debug)]
struct SentAdu {
    name: AduName,
    /// Payload view ([`RecoveryMode::TransportBuffer`] only) — shares the
    /// application's chunk, so "buffering" for retransmission costs no copy.
    payload: Option<WireBuf>,
    total_len: u32,
    deadline: SimTime,
    retries: u32,
    /// Waiting for the application to deliver a recomputed payload.
    awaiting_recompute: bool,
    /// TUs of this ADU still sitting in the pacing queue. The retransmit
    /// deadline is live only once this reaches zero — a queued-but-unsent
    /// ADU cannot have been lost yet.
    tus_unreleased: usize,
    /// The deadline currently armed in the timer wheel for this ADU, if
    /// any. Invariant (kept by `AduTransport::sync_timer`): exactly one
    /// wheel entry per ADU whose retransmission clock is live, none while
    /// gated — so the wheel's minimum equals the old full min-scan
    /// bit-for-bit.
    armed: Option<SimTime>,
}

/// The ALF transport endpoint (symmetric: both ends run the same code).
#[derive(Debug)]
pub struct AduTransport {
    cfg: AlfConfig,
    next_adu_id: u64,
    /// Unacknowledged ADUs (sender side), sorted by id: ids are assigned
    /// here and monotone, so admission appends, the oldest — the one ACKs
    /// and timeouts usually name — is the front, and anything else is a
    /// binary search over at most `window_adus` live entries.
    unacked: IdRing<SentAdu>,
    /// Hashed timer wheel shadowing `unacked`'s retransmission deadlines:
    /// one entry per ADU with a live clock, reconciled by `sync_timer`
    /// after every state change and cancelled eagerly on ACK. This is what
    /// makes `poll` and [`AduTransport::next_timeout`] independent of the
    /// number of ADUs in flight.
    wheel: TimerWheel<u64>,
    /// Reusable scratch for draining the wheel (no per-poll allocation).
    wheel_scratch: Vec<(SimTime, u64)>,
    /// ADUs queued for first transmission: `(id, name, payload)`.
    queue: VecDeque<(u64, AduName, WireBuf)>,
    /// ADUs to (re)transmit this poll: `(id, full)` — `full` resends the
    /// whole ADU, otherwise only a first-TU probe goes out and the
    /// receiver's selective NACKs fetch the rest.
    retransmit_now: Vec<(u64, bool)>,
    /// Pending outbound ACK ids.
    ack_queue: Vec<u64>,
    /// Pending outbound NACK ids.
    nack_queue: Vec<u64>,
    /// Pending outbound selective NACKs: `(adu_id, missing ranges)`.
    nack_frag_out: Vec<(u64, Vec<(u32, u32)>)>,
    /// Recompute requests awaiting `take_recompute_requests`.
    recompute_out: Vec<LossReport>,
    /// Losses to report to the local application.
    loss_reports: Vec<LossReport>,
    /// Encoded data TUs awaiting a transmit slot (pacing queue), tagged
    /// with their ADU id so the retransmission deadline can be refreshed
    /// when the TU actually leaves.
    txq: VecDeque<(u64, AduName, Vec<u8>)>,
    /// Earliest instant the pacer will release the next TU.
    next_tx_at: SimTime,
    /// Receive stage 1.
    assembler: Assembler,
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
    /// Effective inter-TU pace: `cfg.pace_per_tu` until adaptive control
    /// derives one from the delivery rate.
    pace_now: SimDuration,
    /// Delivery-rate window: bytes ACKed since `rate_epoch`.
    rate_bytes: u64,
    /// Start of the current delivery-rate window.
    rate_epoch: Option<SimTime>,
    /// Smoothed delivery rate, bits per second (0 = no sample yet).
    rate_bps: f64,
    /// Completed ADUs awaiting the application: `(id, adu, latency)`.
    deliver: VecDeque<(u64, Adu, SimDuration)>,
    highest_delivered: Option<u64>,
    /// Latest receiver window advertised by the peer's ACKs, bytes.
    peer_rwnd: u32,
    /// First transmissions are currently stalled on `peer_rwnd`.
    rwnd_blocked: bool,
    /// Next zero-window probe instant, with its backoff exponent.
    next_probe_at: Option<SimTime>,
    probe_backoff: u32,
    /// Karn-style global backoff exponent added to every per-ADU RTO while
    /// timeouts fire without ACK progress; reset when new data is ACKed.
    timeout_backoff: u32,
    /// Last instant any valid peer message arrived (dead-peer clock).
    last_peer_activity: Option<SimTime>,
    /// The peer was declared unreachable (cleared if it is heard again).
    peer_dead: bool,
    /// The receiver owes the peer a window update: emit an ACK next poll
    /// even if no ADU ids are pending (probe answers, post-shed updates).
    window_ack_due: bool,
    /// Attached observability handle plus the endpoint's role label
    /// (`"sender"` / `"receiver"` — the flight recorder's `layer` field).
    telemetry: Option<(Telemetry, &'static str)>,
    /// Counters.
    pub stats: AlfStats,
}

impl AduTransport {
    /// Create an endpoint.
    pub fn new(cfg: AlfConfig) -> Self {
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
            cfg,
            next_adu_id: 0,
            unacked: IdRing::default(),
            wheel: TimerWheel::new(RETX_WHEEL_SLOTS, RETX_WHEEL_GRANULARITY),
            wheel_scratch: Vec::new(),
            queue: VecDeque::new(),
            retransmit_now: Vec::new(),
            ack_queue: Vec::new(),
            nack_queue: Vec::new(),
            nack_frag_out: Vec::new(),
            recompute_out: Vec::new(),
            loss_reports: Vec::new(),
            txq: VecDeque::new(),
            next_tx_at: SimTime::ZERO,
            assembler,
            parities: BTreeMap::new(),
            prev_timing: None,
            echo_pending: None,
            rtt: RttEstimator::default(),
            cwnd: CWND_INIT_ADUS,
            ssthresh: f64::INFINITY,
            last_cwnd_cut: None,
            pace_now: cfg.pace_per_tu,
            rate_bytes: 0,
            rate_epoch: None,
            rate_bps: 0.0,
            deliver: VecDeque::new(),
            highest_delivered: None,
            peer_rwnd: RWND_UNLIMITED,
            rwnd_blocked: false,
            next_probe_at: None,
            probe_backoff: 0,
            timeout_backoff: 0,
            last_peer_activity: None,
            peer_dead: false,
            window_ack_due: false,
            telemetry: None,
            stats: AlfStats {
                cwnd_adus: CWND_INIT_ADUS,
                cwnd_peak_adus: CWND_INIT_ADUS,
                ..AlfStats::default()
            },
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AlfConfig {
        &self.cfg
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
                    if !tel.span_sampled_key(u32::from(self.cfg.assoc), n.span_key()) {
                        return;
                    }
                }
                tel.record(ct_telemetry::Event {
                    at_nanos: at.as_nanos(),
                    layer: role,
                    kind,
                    assoc: u32::from(self.cfg.assoc),
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
        if self.cfg.recovery != RecoveryMode::NoRetransmit
            && self.unacked.len() + self.queue.len() >= self.cfg.window_adus
        {
            if self.rwnd_blocked {
                self.stats.send_backpressured += 1;
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
        self.queue.push_back((id, name, payload));
        Ok(id)
    }

    /// Losses the transport has given up on, in application terms (name,
    /// not byte range). Draining.
    pub fn take_loss_reports(&mut self) -> Vec<LossReport> {
        std::mem::take(&mut self.loss_reports)
    }

    /// Recompute requests for the sending application
    /// ([`RecoveryMode::AppRecompute`] only). Draining. The application
    /// answers each via [`AduTransport::provide_recomputed`].
    pub fn take_recompute_requests(&mut self) -> Vec<LossReport> {
        std::mem::take(&mut self.recompute_out)
    }

    /// Recompute requests waiting to be taken (drivers use this to avoid
    /// declaring the sender stuck while a question to the application is
    /// outstanding).
    pub fn pending_recompute_requests(&self) -> usize {
        self.recompute_out.len()
    }

    /// Deliver a recomputed payload for a previously requested ADU. The
    /// payload is retransmitted as the same ADU id. Returns false if the
    /// request is no longer live (e.g. ACKed in the meantime).
    pub fn provide_recomputed(&mut self, adu_id: u64, payload: impl Into<WireBuf>) -> bool {
        match self.unacked.get_mut(adu_id) {
            Some(sent) if sent.awaiting_recompute => {
                sent.payload = Some(payload.into());
                sent.awaiting_recompute = false;
                self.retransmit_now.push((adu_id, true));
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
        self.queue.is_empty()
            && self.txq.is_empty()
            && self.unacked.is_empty()
            && self.retransmit_now.is_empty()
    }

    /// Sender memory held for retransmission (X4's buffering cost).
    pub fn retransmit_buffer_bytes(&self) -> usize {
        self.unacked
            .values()
            .map(|s| s.payload.as_ref().map_or(0, WireBuf::len))
            .sum()
    }

    // ------------------------------------------------------------------
    // Receiving application interface
    // ------------------------------------------------------------------

    /// Pop the next complete ADU, with its delivery latency (first TU
    /// arrival → completion). Delivery order is completion order, NOT name
    /// or id order — out-of-order by design.
    pub fn recv_adu(&mut self) -> Option<(Adu, SimDuration)> {
        let (id, adu, latency) = self.deliver.pop_front()?;
        if let Some(hi) = self.highest_delivered {
            if id < hi {
                self.stats.adus_delivered_out_of_order += 1;
            }
        }
        self.highest_delivered = Some(self.highest_delivered.map_or(id, |h| h.max(id)));
        Some((adu, latency))
    }

    /// Complete ADUs waiting for the application.
    pub fn recv_available(&self) -> usize {
        self.deliver.len()
    }

    // ------------------------------------------------------------------
    // Wire interface
    // ------------------------------------------------------------------

    /// Advance the machine: expire assemblies, fire retransmission timers,
    /// emit data and control messages.
    ///
    /// Each section is a no-op on its own emptiness test, so a poll with
    /// nothing to do is a handful of compares, and a working one allocates
    /// only the frames it returns.
    pub fn poll(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        let mut out = Vec::new();

        // Sender: dead-peer clock. While work is outstanding and the peer
        // is silent past `peer_timeout`, give up *once*: flush everything
        // to loss reports instead of retrying forever.
        self.check_peer_silence(now);

        if self.assembler.needs_sweep() {
            // Receiver: overdue assemblies get selective-fragment NACKs for
            // a few rounds, then a whole-ADU NACK and abandonment.
            let actions = self.assembler.expire_policy(now, self.cfg.nack_frag_rounds);
            for (id, ranges) in actions.request_frags {
                self.nack_frag_out.push((id, ranges));
            }
            let mut budget_freed = !actions.abandoned.is_empty();
            for (id, _name) in actions.abandoned {
                self.nack_queue.push(id);
            }
            // Receiver: assemblies shed to honor the byte budget
            // (drop-oldest policy). NACK them so a retransmitting sender
            // stops resending.
            for (id, _name) in self.assembler.take_shed() {
                self.nack_queue.push(id);
                budget_freed = true;
            }
            self.stats.adus_shed = self.assembler.stats.adus_shed;
            self.stats.quota_evictions = self.assembler.stats.quota_evictions;
            if budget_freed && self.assembler.budget_bytes() > 0 {
                // Freed budget is a window update the (possibly stalled)
                // sender needs to hear about even if no ACK ids are pending.
                self.window_ack_due = true;
            }
        }

        // Sender: retransmission deadlines, via the hashed timer wheel —
        // only expired slots are touched, never the whole in-flight set.
        // A fired entry is authoritative only if it still matches the
        // ADU's current deadline (lazy cancellation) and the ADU is
        // neither awaiting a recompute nor still draining through the
        // pacer — every path out of those states rewrites the deadline
        // and re-arms the wheel, so dropping a gated entry loses nothing.
        let mut due = std::mem::take(&mut self.wheel_scratch);
        self.wheel.advance(now, &mut due);
        let mut overdue: Vec<u64> = Vec::with_capacity(due.len());
        for &(deadline, id) in &due {
            if let Some(sent) = self.unacked.get_mut(id) {
                if sent.armed == Some(deadline) {
                    // The wheel consumed this entry; it is no longer armed.
                    sent.armed = None;
                }
                if sent.deadline == deadline && !sent.awaiting_recompute && sent.tus_unreleased == 0
                {
                    overdue.push(id);
                }
            }
        }
        due.clear();
        self.wheel_scratch = due;
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
            self.stats.rto_backoff_events += 1;
        }

        // Sender: explicit retransmissions (timeout-, NACK- or recompute-
        // triggered).
        let base = self.rto_base();
        let retx = std::mem::take(&mut self.retransmit_now);
        for (id, full) in retx {
            if let Some(sent) = self.unacked.get_mut(id) {
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
                    sent.deadline = now + rto_for(base, sent.retries + self.timeout_backoff);
                    let name = sent.name;
                    let queued = if full || payload.len() <= self.cfg.mtu_payload {
                        self.stats.adus_retransmitted += 1;
                        self.trace(now, "adu_retx", Some(name), id, 0, payload.len() as u64);
                        self.emit_adu(now, id, name, &payload)
                    } else {
                        // Probe: resend only the first TU; the receiver's
                        // missing-range NACKs drive the rest of the repair.
                        self.stats.probe_tus += 1;
                        self.trace(now, "probe", Some(name), id, 0, self.cfg.mtu_payload as u64);
                        let mut tu = Tu {
                            flags: 0,
                            assoc: self.cfg.assoc,
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
                        self.txq.push_back((id, name, tu.encode()));
                        1
                    };
                    if let Some(sent) = self.unacked.get_mut(id) {
                        sent.tus_unreleased += queued;
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
        if !self.queue.is_empty() || self.rwnd_blocked {
            let cwnd_slots = if self.cfg.adaptive && self.cfg.recovery != RecoveryMode::NoRetransmit
            {
                (self.cwnd as usize).saturating_sub(self.unacked.len())
            } else {
                usize::MAX
            };
            let mut rwnd_free = if self.cfg.recovery == RecoveryMode::NoRetransmit
                || self.peer_rwnd == RWND_UNLIMITED
            {
                None
            } else {
                let inflight: u64 = self.unacked.values().map(|s| u64::from(s.total_len)).sum();
                Some(u64::from(self.peer_rwnd).saturating_sub(inflight))
            };
            let mut admit = 0usize;
            let was_blocked = self.rwnd_blocked;
            self.rwnd_blocked = false;
            for (i, (_, _, payload)) in self.queue.iter().enumerate() {
                if i >= cwnd_slots {
                    break;
                }
                if let Some(free) = rwnd_free {
                    let need = payload.len() as u64;
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
                self.next_probe_at = None;
                self.probe_backoff = 0;
            }
            let keep_payload = self.cfg.recovery == RecoveryMode::TransportBuffer;
            for _ in 0..admit {
                let (id, name, payload) = self.queue.pop_front().expect("admit <= queue length");
                if self.cfg.recovery != RecoveryMode::NoRetransmit {
                    self.unacked.insert(
                        id,
                        SentAdu {
                            name,
                            payload: keep_payload.then(|| payload.clone()),
                            total_len: payload.len() as u32,
                            deadline: now + base,
                            retries: 0,
                            awaiting_recompute: false,
                            tus_unreleased: 0,
                            armed: None,
                        },
                    );
                }
                self.trace(now, "adu_send", Some(name), id, 0, payload.len() as u64);
                let queued = self.emit_adu(now, id, name, &payload);
                if let Some(sent) = self.unacked.get_mut(id) {
                    sent.tus_unreleased += queued;
                }
                self.sync_timer(id);
            }
        }

        // Release paced data TUs up to the burst budget and the token
        // pacer. The owning ADU's retransmission clock starts from the
        // moment its TUs actually leave, not from when they were queued
        // behind the pacer.
        let pace = self.pace_now;
        for _ in 0..self.cfg.burst_tus {
            if pace > SimDuration::ZERO && now < self.next_tx_at {
                break;
            }
            let Some((id, name, mut frame)) = self.txq.pop_front() else {
                break;
            };
            if pace > SimDuration::ZERO {
                self.next_tx_at = self.next_tx_at.max(now) + pace;
            }
            if self.cfg.adaptive {
                // Stamp at actual release, not at queueing: the echo then
                // measures the true network round trip, excluding time
                // spent behind the pacer — and a retransmitted TU carries
                // a fresh stamp, making Karn's filter unnecessary.
                restamp_tu(&mut frame, micros_wrapping(now));
            }
            if let Some(sent) = self.unacked.get_mut(id) {
                let retries = sent.retries;
                sent.tus_unreleased = sent.tus_unreleased.saturating_sub(1);
                sent.deadline = now + rto_for(base, retries + self.timeout_backoff);
                self.sync_timer(id);
            }
            self.stats.tus_sent += 1;
            self.trace(now, "tu_send", Some(name), id, 0, frame.len() as u64);
            out.push(frame);
        }

        // Sender: zero-window probing. When the peer's window has us fully
        // stalled (nothing in flight whose ACKs could carry an update),
        // probe with exponential backoff so a window reopening is noticed
        // without retransmitting data into a full receiver.
        if self.rwnd_blocked && self.unacked.is_empty() && self.txq.is_empty() && !self.peer_dead {
            let due = self.next_probe_at.is_none_or(|t| now >= t);
            if due {
                out.push(
                    Message::WindowProbe {
                        assoc: self.cfg.assoc,
                    }
                    .encode(),
                );
                self.stats.zero_window_probes += 1;
                self.stats.control_sent += 1;
                self.trace(now, "win_probe", None, u64::from(self.probe_backoff), 0, 0);
                let wait = rto_for(self.rto_base(), self.probe_backoff);
                self.probe_backoff = (self.probe_backoff + 1).min(6);
                self.next_probe_at = Some(now + wait);
            }
        }

        // Control: coalesced ACKs / NACKs. The ACK echoes the most recent
        // stamped TU's timestamp plus how long we held it, so the sender
        // can recover a round-trip sample — and always advertises the
        // receiver window (free reassembly budget). A pending window
        // update (probe answer, freed budget) forces an ACK out even with
        // no ids to acknowledge. The id queue is encoded in place and
        // keeps its allocation.
        if !self.ack_queue.is_empty() || self.window_ack_due {
            self.window_ack_due = false;
            let echo = self
                .echo_pending
                .take()
                .map(|(ts, arrival)| (ts, micros_wrapping(now).wrapping_sub(arrival)));
            out.push(encode_ack(
                self.cfg.assoc,
                &self.ack_queue,
                echo,
                self.advertised_rwnd(),
            ));
            self.ack_queue.clear();
            self.stats.control_sent += 1;
        }
        if !self.nack_queue.is_empty() {
            let ids = std::mem::take(&mut self.nack_queue);
            out.push(
                Message::Nack {
                    assoc: self.cfg.assoc,
                    ids,
                }
                .encode(),
            );
            self.stats.control_sent += 1;
        }
        for (adu_id, ranges) in std::mem::take(&mut self.nack_frag_out) {
            out.push(
                Message::NackFrags {
                    assoc: self.cfg.assoc,
                    adu_id,
                    ranges,
                }
                .encode(),
            );
            self.stats.control_sent += 1;
        }
        out
    }

    /// Ingest one wire message from a borrowed buffer. A data TU's payload
    /// is copied out of the borrow; callers that own the frame should
    /// prefer [`AduTransport::on_frame`], which reassembles from views.
    pub fn on_message(&mut self, now: SimTime, buf: &[u8]) {
        let msg = match Message::decode(buf) {
            Ok(m) => m,
            Err(e) => {
                self.stats.bad_messages += 1;
                self.count_rejected(e.reason());
                self.trace(now, "bad_msg", None, 0, 0, buf.len() as u64);
                return;
            }
        };
        if let Message::Tu(tu) = &msg {
            // The borrowed-buffer path had to copy the payload out of the
            // caller's frame — book the pass the zero-copy path eliminates.
            let len = tu.payload.len() as u64;
            self.ledger_touch("alf/decode_copy", len, len);
        }
        self.on_decoded(now, msg);
    }

    /// Ingest one owned frame, zero-copy: a data TU's payload stays an
    /// O(1) view into `frame` through reassembly, so a single-fragment (or
    /// single-chunk) ADU is released without ever copying its bytes.
    pub fn on_frame(&mut self, now: SimTime, frame: WireBuf) {
        let msg = match Message::decode_frame(&frame) {
            Ok(m) => m,
            Err(e) => {
                self.stats.bad_messages += 1;
                self.count_rejected(e.reason());
                self.trace(now, "bad_msg", None, 0, 0, frame.len() as u64);
                return;
            }
        };
        self.on_decoded(now, msg);
    }

    /// Shared handler behind [`AduTransport::on_message`] /
    /// [`AduTransport::on_frame`]: the message is already verified.
    fn on_decoded(&mut self, now: SimTime, msg: Message) {
        // Any intact message restarts the dead-peer clock — and revives a
        // peer previously declared unreachable (its lost ADUs stay lost;
        // new sends flow again).
        self.last_peer_activity = Some(now);
        self.peer_dead = false;
        match msg {
            Message::Tu(tu) => {
                if tu.assoc != self.cfg.assoc {
                    self.stats.bad_messages += 1;
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
                    // [`crate::assembler::Assembler`]).
                    self.stats.tus_replayed += 1;
                    self.count_rejected("replayed");
                    self.ack_queue.push(tu.adu_id);
                    return;
                }
                // Checksum verification read every payload byte once,
                // inside decode (the whole sealed frame folds to zero; the
                // header's share is O(1) control cost, excluded by policy).
                self.ledger_touch("alf/verify", tu.payload.len() as u64, 0);
                if tu.flags & TU_FLAG_TIMESTAMP != 0 {
                    self.update_jitter(now, tu.timestamp_us);
                    self.echo_pending = Some((tu.timestamp_us, micros_wrapping(now)));
                }
                let gathered_before = self.assembler.stats.gathered_bytes;
                if tu.flags & TU_FLAG_PARITY != 0 {
                    if let Some(p) = fec::parse_parity(&tu) {
                        self.parities.entry(tu.adu_id).or_default().push(p);
                    } else {
                        self.stats.bad_messages += 1;
                        self.count_rejected("bad_parity");
                    }
                } else if !self.assembler.on_tu(now, &tu) {
                    // Byte budget full, backpressure policy: the TU is
                    // refused (not silently lost — the sender still holds
                    // the ADU). Owe the peer a window update so it stops
                    // pushing until budget frees.
                    self.stats.tus_backpressured += 1;
                    self.window_ack_due = true;
                    return;
                } else {
                    // Fragment accepted into reassembly: the arrival edge
                    // of the ADU's lifecycle span.
                    self.trace(
                        now,
                        "tu_recv",
                        Some(tu.name),
                        tu.adu_id,
                        u64::from(tu.frag_off),
                        tu.payload.len() as u64,
                    );
                }
                self.try_fec_reconstruct(now, tu.adu_id, tu.name);
                while let Some((id, adu, first_at)) = self.assembler.pop_ready() {
                    self.parities.remove(&id);
                    #[cfg(feature = "debug-loss")]
                    eprintln!("adu {id} complete at {now}");
                    let latency = now.saturating_since(first_at);
                    self.stats.adus_delivered += 1;
                    self.stats.delivery_latency_total += latency;
                    self.stats.delivery_latency_max = self.stats.delivery_latency_max.max(latency);
                    self.trace(
                        now,
                        "adu_deliver",
                        Some(adu.name),
                        id,
                        latency.as_nanos() / 1_000,
                        adu.payload.len() as u64,
                    );
                    self.ack_queue.push(id);
                    self.deliver.push_back((id, adu, latency));
                }
                // A multi-fragment release gathered: one read of each
                // stored view, one write into the contiguous payload. A
                // single-chunk release books nothing — the views ARE the
                // payload.
                let gathered = self.assembler.stats.gathered_bytes - gathered_before;
                if gathered > 0 {
                    self.ledger_touch("alf/gather", gathered, gathered);
                }
            }
            Message::Ack {
                assoc,
                ids,
                echo,
                rwnd,
            } => {
                if assoc != self.cfg.assoc {
                    return;
                }
                self.peer_rwnd = rwnd;
                #[cfg(feature = "debug-loss")]
                eprintln!("ack in: {ids:?} at {now}");
                if let Some((ts, hold)) = echo {
                    // rtt = now − stamp − receiver hold, all wrapping on
                    // the 32-bit µs clock. A garbled/ancient echo shows up
                    // as an implausibly huge delta; discard it.
                    let rtt = micros_wrapping(now).wrapping_sub(ts).wrapping_sub(hold);
                    if rtt < 1 << 31 {
                        self.rtt.on_sample(rtt as f64);
                        self.stats.srtt_us = self.rtt.srtt_us;
                        self.stats.rttvar_us = self.rtt.rttvar_us;
                        self.stats.rtt_samples = self.rtt.samples;
                        if let Some(rto) = self.rtt.rto(self.cfg.rto_min, self.cfg.rto_max) {
                            self.stats.rto_us = rto.as_nanos() as f64 / 1_000.0;
                        }
                    }
                }
                let mut newly_acked = 0u64;
                let mut acked_bytes = 0u64;
                for id in ids {
                    if let Some(sent) = self.unacked.remove(id) {
                        if let Some(d) = sent.armed {
                            self.wheel.remove(d, id);
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
            Message::Nack { assoc, ids } => {
                if assoc != self.cfg.assoc {
                    return;
                }
                for id in ids {
                    if self.unacked.contains_key(id) {
                        self.handle_loss_event(id, now);
                    }
                }
            }
            Message::NackFrags {
                assoc,
                adu_id,
                ranges,
            } => {
                if assoc != self.cfg.assoc {
                    return;
                }
                self.retransmit_fragments(now, adu_id, &ranges);
            }
            Message::WindowProbe { assoc } => {
                if assoc != self.cfg.assoc {
                    return;
                }
                // Answer with a (possibly id-less) ACK carrying the
                // current receiver window.
                self.window_ack_due = true;
            }
        }
    }

    /// The earliest pending sender timer (retransmission deadline, pacing
    /// wake-up, zero-window probe, or dead-peer declaration).
    pub fn next_timeout(&self) -> Option<SimTime> {
        // O(wheel slots), never O(ADUs in flight). `sync_timer` keeps the
        // wheel holding exactly the live retransmission deadlines, so this
        // minimum is the same value the old full min-scan produced.
        let retx = self.wheel.next_deadline();
        let pace =
            (!self.txq.is_empty() && self.pace_now > SimDuration::ZERO).then_some(self.next_tx_at);
        let probe = if self.rwnd_blocked && !self.peer_dead {
            self.next_probe_at
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
        [retx, pace, probe, dead].into_iter().flatten().min()
    }

    /// Receiver memory currently invested in partial ADUs.
    pub fn reassembly_bytes(&self) -> usize {
        self.assembler.pending_bytes()
    }

    /// Timer-wheel instrumentation. The regression tests use this to prove
    /// that `poll` / [`AduTransport::next_timeout`] timer cost does not
    /// scale with the number of in-flight ADUs.
    pub fn timer_stats(&self) -> crate::timer::WheelStats {
        self.wheel.stats()
    }

    /// Approximate memory footprint of this endpoint, in bytes: the struct
    /// itself plus the sender window's slots and buffered retransmission
    /// payloads, queued ADUs, reassembly and replay-window state, delivery
    /// queue, and the timer wheel. Deterministic
    /// (derived from lengths and capacities, never allocator internals) —
    /// X13 uses it for the bytes-per-association bound.
    pub fn approx_mem_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.unacked.capacity() * size_of::<(u64, SentAdu)>()
            + self.retransmit_buffer_bytes()
            + self.queue.capacity() * size_of::<(u64, AduName, WireBuf)>()
            + self.txq.capacity() * size_of::<(u64, AduName, Vec<u8>)>()
            + self.deliver.capacity() * size_of::<(u64, Adu, SimDuration)>()
            + self.assembler.approx_mem_bytes()
            + self.wheel.approx_mem_bytes()
            + self.wheel_scratch.capacity() * size_of::<(SimTime, u64)>()
    }

    /// Stage-1 statistics.
    pub fn assembler_stats(&self) -> crate::assembler::AssemblerStats {
        self.assembler.stats
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Sender work that expects the peer to eventually answer.
    fn work_outstanding(&self) -> bool {
        !self.unacked.is_empty()
            || !self.queue.is_empty()
            || !self.txq.is_empty()
            || !self.retransmit_now.is_empty()
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
        self.stats.peer_unreachable_events += 1;
        self.trace(
            now,
            "peer_dead",
            None,
            self.unacked.len() as u64,
            self.queue.len() as u64,
            0,
        );
        for (id, sent) in self.unacked.drain() {
            if let Some(d) = sent.armed {
                self.wheel.remove(d, id);
            }
            self.stats.adus_given_up += 1;
            self.stats.losses_reported += 1;
            self.loss_reports.push(LossReport {
                adu_id: id,
                name: sent.name,
            });
        }
        for (id, name, _) in self.queue.drain(..) {
            self.stats.adus_given_up += 1;
            self.stats.losses_reported += 1;
            self.loss_reports.push(LossReport { adu_id: id, name });
        }
        self.txq.clear();
        self.retransmit_now.clear();
        self.recompute_out.clear();
        self.next_probe_at = None;
        self.probe_backoff = 0;
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

    /// Fragment and queue an ADU's TUs (plus FEC parity when configured);
    /// returns how many were queued.
    ///
    /// Fragmentation slices the payload (O(1) views, no copy) and each TU
    /// is encoded as it is cut — no list of them is built unless FEC needs
    /// the group to compute parity over.
    fn emit_adu(&mut self, now: SimTime, id: u64, name: AduName, payload: &WireBuf) -> usize {
        let stamp = self.cfg.timestamps.then(|| micros_wrapping(now));
        let fec_group = self.cfg.fec_group;
        let mut protected = Vec::new();
        let mut n = 0usize;
        for mut tu in fragments(self.cfg.assoc, id, name, payload, self.cfg.mtu_payload) {
            if let Some(stamp) = stamp {
                tu.timestamp_us = stamp;
                tu.flags |= TU_FLAG_TIMESTAMP;
            }
            self.queue_tu(&tu);
            n += 1;
            if fec_group > 0 {
                protected.push(tu);
            }
        }
        // Parity follows the data it protects: by the time a parity TU
        // arrives, its group's data TUs have either arrived or been lost,
        // so reconstruction fires only for real erasures.
        if fec_group > 0 {
            for parity in fec::build_parity(&protected, fec_group) {
                self.queue_tu(&parity);
                self.stats.fec_parity_sent += 1;
                n += 1;
            }
        }
        n
    }

    /// Encode one TU into the pacing queue. This is the send side's single
    /// data pass: [`Tu::encode`] copies the payload into the frame and
    /// checksums it in the same sweep — one read and one write per payload
    /// byte, booked as `alf/tu_encode`.
    fn queue_tu(&mut self, tu: &Tu) {
        let len = tu.payload.len() as u64;
        self.txq.push_back((tu.adu_id, tu.name, tu.encode()));
        self.ledger_touch("alf/tu_encode", len, len);
    }

    /// RFC 3550 §6.4.1 interarrival jitter: `J += (|D| - J) / 16` where
    /// `D` is the difference in relative transit time between consecutive
    /// stamped TUs (all arithmetic wrapping, µs).
    fn update_jitter(&mut self, now: SimTime, ts_us: u32) {
        let arrival = micros_wrapping(now);
        self.stats.timestamped_tus += 1;
        if let Some((prev_arrival, prev_ts)) = self.prev_timing {
            let d = (arrival.wrapping_sub(prev_arrival) as i32)
                .wrapping_sub(ts_us.wrapping_sub(prev_ts) as i32);
            let d = (d as f64).abs();
            self.stats.jitter_us += (d - self.stats.jitter_us) / 16.0;
        }
        self.prev_timing = Some((arrival, ts_us));
    }

    /// Try to rebuild missing fragments of `adu_id` from held parity TUs,
    /// feeding reconstructions back into stage 1 (which may complete the
    /// ADU and let `pop_ready` release it).
    fn try_fec_reconstruct(&mut self, now: SimTime, adu_id: u64, name: AduName) {
        let Some(plist) = self.parities.get(&adu_id) else {
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
        for (frag_off, payload) in rebuilt {
            self.stats.fec_reconstructions += 1;
            let tu = Tu {
                flags: 0,
                assoc: self.cfg.assoc,
                timestamp_us: 0,
                adu_id,
                adu_len,
                frag_off,
                name,
                payload: payload.into(),
            };
            self.assembler.on_tu(now, &tu);
        }
    }

    /// Selective retransmission: resend just the NACKed byte ranges of one
    /// ADU (requires the payload at hand — buffer mode, or a still-cached
    /// recomputed payload). Falls back to the whole-ADU loss path when the
    /// payload is gone.
    fn retransmit_fragments(&mut self, now: SimTime, adu_id: u64, ranges: &[(u32, u32)]) {
        let base = self.rto_base();
        let stamp = self.cfg.timestamps.then(|| micros_wrapping(now));
        let Some(sent) = self.unacked.get(adu_id) else {
            return; // already ACKed — the NACK raced the final TU
        };
        if sent.tus_unreleased > 0 {
            // Repairs (or the original transmission) are still draining
            // through the pacer; answering this NACK round would only queue
            // duplicates behind them.
            return;
        }
        if sent.retries >= self.cfg.max_retries {
            // Selective recovery is still bounded by the give-up budget.
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
        // Each repair TU is encoded into the pacing queue as it is cut.
        let mut queued = 0usize;
        let mut retx_bytes = 0usize;
        for &(off, len) in ranges {
            if len == 0 || off as u64 + u64::from(len) > u64::from(total) {
                // A repair request outside the ADU we declared is a
                // protocol error (corrupted or forged NACK) — reject the
                // range and say so, rather than clamping it into a
                // plausible-looking repair that masks the bug.
                self.stats.nack_range_errors += 1;
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
                    assoc: self.cfg.assoc,
                    timestamp_us: stamp.unwrap_or(0),
                    adu_id,
                    adu_len: total,
                    frag_off: cursor,
                    name,
                    payload: payload.slice(cursor as usize..cursor as usize + take),
                };
                self.txq.push_back((adu_id, name, tu.encode()));
                queued += 1;
                retx_bytes += take;
                cursor += take as u32;
            }
        }
        if queued == 0 {
            return;
        }
        let sent = self
            .unacked
            .get_mut(adu_id)
            .expect("checked live above; no removal since");
        sent.retries += 1;
        sent.deadline = now + rto_for(base, sent.retries + self.timeout_backoff);
        sent.tus_unreleased += queued;
        self.stats.tus_retransmitted_selective += queued as u64;
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
        if !self.unacked.contains_key(id) {
            return;
        }
        self.cwnd_on_loss(now);
        let base = self.rto_base();
        let Some(sent) = self.unacked.get_mut(id) else {
            return;
        };
        #[cfg(feature = "debug-loss")]
        eprintln!(
            "loss event: adu {id} now {now} deadline {} retries {}",
            sent.deadline, sent.retries
        );
        if sent.retries >= self.cfg.max_retries {
            let name = sent.name;
            let armed = sent.armed;
            self.unacked.remove(id);
            if let Some(d) = armed {
                self.wheel.remove(d, id);
            }
            self.stats.adus_given_up += 1;
            self.stats.losses_reported += 1;
            self.trace(now, "adu_lost", Some(name), id, 0, 0);
            self.loss_reports.push(LossReport { adu_id: id, name });
            return;
        }
        sent.retries += 1;
        let deadline = now + rto_for(base, sent.retries + self.timeout_backoff);
        sent.deadline = deadline;
        match self.cfg.recovery {
            RecoveryMode::TransportBuffer => {
                self.retransmit_now.push((id, false));
            }
            RecoveryMode::AppRecompute => {
                if !sent.awaiting_recompute && sent.payload.is_none() {
                    sent.awaiting_recompute = true;
                    let name = sent.name;
                    self.stats.recompute_requests += 1;
                    self.recompute_out.push(LossReport { adu_id: id, name });
                } else if sent.payload.is_some() {
                    // A recomputed payload is still cached from a previous
                    // round: reuse it.
                    self.retransmit_now.push((id, true));
                }
            }
            RecoveryMode::NoRetransmit => unreachable!("no unacked in NoRetransmit"),
        }
        self.sync_timer(id);
    }

    /// Reconcile the timer wheel with an ADU's state: arm its deadline iff
    /// its retransmission clock is live (`!awaiting_recompute` and nothing
    /// of it queued behind the pacer), disarm otherwise. Every state change
    /// funnels through here, so the wheel holds exactly one entry per live
    /// clock and [`AduTransport::next_timeout`] reproduces the old O(n)
    /// min-scan bit-for-bit. O(1) expected (slot-addressed removal).
    fn sync_timer(&mut self, id: u64) {
        let Some(sent) = self.unacked.get_mut(id) else {
            return;
        };
        let desired =
            (!sent.awaiting_recompute && sent.tus_unreleased == 0).then_some(sent.deadline);
        if desired == sent.armed {
            return;
        }
        if let Some(old) = sent.armed {
            self.wheel.remove(old, id);
        }
        if let Some(d) = desired {
            self.wheel.insert(d, id);
        }
        sent.armed = desired;
    }

    /// Base retransmission timeout: the RTT-derived RTO under adaptive
    /// control (once a sample exists), the fixed config value otherwise.
    fn rto_base(&self) -> SimDuration {
        if self.cfg.adaptive {
            if let Some(rto) = self.rtt.rto(self.cfg.rto_min, self.cfg.rto_max) {
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
        for _ in 0..newly_acked {
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd;
            }
        }
        self.cwnd = self.cwnd.min(self.cfg.window_adus as f64);
        self.stats.cwnd_adus = self.cwnd;
        self.stats.cwnd_peak_adus = self.stats.cwnd_peak_adus.max(self.cwnd);
    }

    /// AIMD multiplicative decrease, at most once per round trip — the
    /// TUs already in flight when congestion struck will all signal the
    /// same event, and it must be charged only once.
    fn cwnd_on_loss(&mut self, now: SimTime) {
        if !self.cfg.adaptive {
            return;
        }
        let guard = self.rtt.srtt().unwrap_or(self.cfg.retransmit_timeout);
        if let Some(last) = self.last_cwnd_cut {
            if now.saturating_since(last) < guard {
                return;
            }
        }
        self.last_cwnd_cut = Some(now);
        self.ssthresh = (self.cwnd / 2.0).max(1.0);
        self.cwnd = self.ssthresh;
        self.stats.cwnd_adus = self.cwnd;
        self.stats.loss_events += 1;
    }

    /// Fold newly ACKed bytes into the delivery-rate estimate and re-derive
    /// the TU pace from it: the sender transmits at slightly above the
    /// rate the receiver demonstrably absorbed (§3's rate-based transfer
    /// control, computed out of band from the data path).
    fn note_delivery(&mut self, now: SimTime, bytes: u64) {
        if !self.cfg.adaptive {
            return;
        }
        self.rate_bytes += bytes;
        let epoch = *self.rate_epoch.get_or_insert(now);
        let dt = now.saturating_since(epoch);
        if dt < MIN_RATE_WINDOW {
            return;
        }
        let sample_bps = self.rate_bytes as f64 * 8.0 / (dt.as_nanos() as f64 / 1e9);
        self.rate_bps = if self.rate_bps == 0.0 {
            sample_bps
        } else {
            self.rate_bps + (sample_bps - self.rate_bps) / 4.0
        };
        self.rate_bytes = 0;
        self.rate_epoch = Some(now);
        self.stats.delivery_rate_mbps = self.rate_bps / 1e6;
        let wire_bits = (self.cfg.mtu_payload + crate::wire::TU_HEADER_BYTES) as f64 * 8.0;
        let pace_ns = wire_bits / (self.rate_bps * PACING_GAIN) * 1e9;
        self.pace_now = SimDuration::from_nanos(pace_ns as u64).min(MAX_PACE);
    }
}
