//! The byte-stream transport endpoint.
//!
//! [`StreamTransport`] is a symmetric (both ends run the same code),
//! poll-driven endpoint implementing the in-band control functions the
//! paper catalogs in §3 — demultiplexing is the caller's job (ports are
//! carried but a single association is assumed), and this module does the
//! rest: error detection, acknowledgement, flow/congestion control,
//! retransmission, and strict in-order delivery.
//!
//! **In-order delivery is the load-bearing property.** When a segment is
//! lost, everything behind it sits in the out-of-order store until the
//! retransmission arrives; the time data spends there is recorded in
//! [`StreamStats::hol_delay_total`] / [`StreamStats::hol_delay_max`]. That
//! is the head-of-line blocking that experiment X1 compares against the ALF
//! transport's out-of-order ADU delivery.
//!
//! Mechanisms (deliberately classic, BSD-style):
//! * cumulative ACKs, immediate (no delayed-ACK timer — keeps runs
//!   deterministic and favours the baseline);
//! * RTT-estimated RTO (RFC 6298 smoothing) with exponential backoff and
//!   Karn's rule (no samples from retransmitted segments);
//! * triple-duplicate-ACK fast retransmit;
//! * AIMD congestion control: slow start, congestion avoidance, multiplicative
//!   decrease on loss;
//! * sliding-window flow control from the peer's advertised window.

use crate::buf::ByteFifo;
use crate::segment::{self, Segment, FLAG_ACK, FLAG_FIN};
use ct_netsim::time::{SimDuration, SimTime};
use ct_wire::WireBuf;
use std::collections::{BTreeMap, VecDeque};

/// Static configuration of a [`StreamTransport`].
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Maximum segment payload size; [`StreamTransport::new`] clamps it to
    /// `1..=65_535`, what the segment header's 16-bit length field can say.
    pub mss: usize,
    /// Send buffer capacity (unsent + in-flight bytes).
    pub send_buffer: usize,
    /// Receive buffer capacity (delivered-but-unread + out-of-order bytes);
    /// also the advertised window ceiling.
    pub recv_buffer: usize,
    /// Initial retransmission timeout.
    pub rto_initial: SimDuration,
    /// RTO lower bound.
    pub rto_min: SimDuration,
    /// RTO upper bound.
    pub rto_max: SimDuration,
    /// Initial congestion window in segments (RFC 5681-style IW).
    pub initial_cwnd_segments: usize,
    /// Initial slow-start threshold in bytes.
    pub initial_ssthresh: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            mss: 1400,
            send_buffer: 256 * 1024,
            recv_buffer: 256 * 1024,
            rto_initial: SimDuration::from_millis(200),
            rto_min: SimDuration::from_millis(10),
            rto_max: SimDuration::from_secs(5),
            initial_cwnd_segments: 4,
            initial_ssthresh: 64 * 1024,
        }
    }
}

/// Counters maintained by the transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Segments transmitted (including retransmissions and pure ACKs).
    pub segments_out: u64,
    /// Segments accepted after checksum verification.
    pub segments_in: u64,
    /// Payload bytes handed to the application via `recv`.
    pub bytes_delivered: u64,
    /// Retransmissions triggered by timeout.
    pub rto_retransmits: u64,
    /// Retransmissions triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Segments dropped on arrival for checksum failure.
    pub checksum_drops: u64,
    /// Arrived segments wholly below `rcv_nxt` (duplicates).
    pub old_segments: u64,
    /// Segments dropped on arrival because they acknowledge bytes never
    /// sent (`ack > snd_nxt`; RFC 793 drops these too).
    pub bad_acks: u64,
    /// Segments that arrived out of order and were buffered.
    pub ooo_segments: u64,
    /// Peak bytes held in the out-of-order store.
    pub ooo_bytes_peak: usize,
    /// Total time in-order delivery was delayed by gaps: the sum over all
    /// out-of-order bytes of (delivery time − arrival time). **This is the
    /// head-of-line blocking cost.**
    pub hol_delay_total: SimDuration,
    /// Largest single hold-up suffered by any buffered segment.
    pub hol_delay_max: SimDuration,
    /// Bytes that experienced a non-zero hold-up.
    pub hol_delayed_bytes: u64,
}

impl StreamStats {
    /// Publish every counter into a metrics registry under `prefix` (e.g.
    /// `stream.a.segments_out`). End-of-run publication: allocates one name
    /// string per metric, so keep it off per-segment paths.
    pub fn publish(&self, reg: &mut ct_telemetry::MetricsRegistry, prefix: &str) {
        let counters: [(&str, u64); 12] = [
            ("segments_out", self.segments_out),
            ("segments_in", self.segments_in),
            ("bytes_delivered", self.bytes_delivered),
            ("rto_retransmits", self.rto_retransmits),
            ("fast_retransmits", self.fast_retransmits),
            ("checksum_drops", self.checksum_drops),
            ("old_segments", self.old_segments),
            ("bad_acks", self.bad_acks),
            ("ooo_segments", self.ooo_segments),
            ("ooo_bytes_peak", self.ooo_bytes_peak as u64),
            (
                "hol_delay_total_us",
                self.hol_delay_total.as_nanos() / 1_000,
            ),
            ("hol_delayed_bytes", self.hol_delayed_bytes),
        ];
        for (name, v) in counters {
            reg.counter_set(&format!("{prefix}.{name}"), v);
        }
        reg.counter_set(
            &format!("{prefix}.hol_delay_max_us"),
            self.hol_delay_max.as_nanos() / 1_000,
        );
    }
}

/// A segment in flight awaiting acknowledgement. Its payload is not held
/// here: it stays in the send buffer until the segment is acknowledged, at
/// the offset the lengths of the older in-flight segments add up to.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    seq: u64,
    len: usize,
    fin: bool,
    sent_at: SimTime,
    retransmitted: bool,
}

/// A buffered out-of-order arrival (a view into the received frame).
#[derive(Debug)]
struct OooSeg {
    payload: WireBuf,
    arrived_at: SimTime,
}

/// A byte-stream transport endpoint (one side of an association).
#[derive(Debug)]
pub struct StreamTransport {
    cfg: StreamConfig,
    local_port: u16,
    remote_port: u16,

    // --- send side ---
    /// Send buffer and retransmission buffer in one, as BSD's `so_snd`: the
    /// first `inflight_bytes` bytes belong to the segments in `inflight`
    /// (oldest first) and leave only when those are acknowledged; the rest
    /// is data not yet cut into segments.
    send_buf: ByteFifo,
    inflight_bytes: usize,
    snd_una: u64,
    snd_nxt: u64,
    /// In sequence order: segments are cut in order and cumulatively
    /// acknowledged from the front.
    inflight: VecDeque<Inflight>,
    cwnd: usize,
    ssthresh: usize,
    peer_window: usize,
    dup_acks: u32,
    fast_retx_pending: bool,
    /// Loss-recovery episode state (NewReno-style): while `snd_una` has not
    /// passed `recover_point`, each partial ACK retransmits the next hole.
    in_recovery: bool,
    recover_point: u64,
    rto: SimDuration,
    rto_deadline: Option<SimTime>,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    fin_pending: bool,
    fin_sent: bool,
    fin_acked: bool,

    // --- receive side ---
    rcv_nxt: u64,
    ooo: BTreeMap<u64, OooSeg>,
    ooo_bytes: usize,
    recv_ready: ByteFifo,
    ack_pending: bool,
    fin_seq: Option<u64>,
    peer_finished: bool,

    /// Counters.
    pub stats: StreamStats,

    /// Observability sink + the layer label to record under.
    telemetry: Option<(ct_telemetry::Telemetry, &'static str)>,
}

impl StreamTransport {
    /// Create an endpoint with the given ports.
    pub fn new(mut cfg: StreamConfig, local_port: u16, remote_port: u16) -> Self {
        cfg.mss = cfg.mss.clamp(1, usize::from(u16::MAX));
        Self {
            cfg,
            local_port,
            remote_port,
            send_buf: ByteFifo::new(),
            inflight_bytes: 0,
            snd_una: 0,
            snd_nxt: 0,
            inflight: VecDeque::new(),
            cwnd: cfg.initial_cwnd_segments * cfg.mss,
            ssthresh: cfg.initial_ssthresh,
            peer_window: cfg.recv_buffer, // optimistic until first segment
            dup_acks: 0,
            fast_retx_pending: false,
            in_recovery: false,
            recover_point: 0,
            rto: cfg.rto_initial,
            rto_deadline: None,
            srtt: None,
            rttvar: SimDuration::ZERO,
            fin_pending: false,
            fin_sent: false,
            fin_acked: false,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            recv_ready: ByteFifo::new(),
            ack_pending: false,
            fin_seq: None,
            peer_finished: false,
            stats: StreamStats::default(),
            telemetry: None,
        }
    }

    /// Attach an observability sink; `role` labels this endpoint's flight-
    /// recorder events (`"sender"` / `"receiver"`). With tracing armed,
    /// the endpoint records `seg_recv` (a retained data segment: `a` =
    /// stream offset, `len` = bytes kept) and `stream_adv` (`a` = the new
    /// in-order delivery point, `len` = bytes it advanced) — the two
    /// events the HOL profiler needs to measure how long arrived bytes
    /// waited behind a gap.
    pub fn attach_telemetry(&mut self, telemetry: ct_telemetry::Telemetry, role: &'static str) {
        self.telemetry = Some((telemetry, role));
    }

    /// Record one flight-recorder event — a no-op unless telemetry is
    /// attached with tracing armed (one branch, no allocation).
    fn trace(&self, at: SimTime, kind: &'static str, a: u64, len: u64) {
        if let Some((tel, role)) = &self.telemetry {
            if tel.tracing_enabled() {
                tel.record(ct_telemetry::Event {
                    at_nanos: at.as_nanos(),
                    layer: role,
                    kind,
                    assoc: u32::from(self.local_port),
                    adu: None,
                    a,
                    b: 0,
                    len,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Queue bytes for transmission; returns how many were accepted
    /// (bounded by send-buffer space).
    pub fn send(&mut self, data: &[u8]) -> usize {
        let used = self.unsent_bytes() + self.flight_bytes();
        let room = self.cfg.send_buffer.saturating_sub(used);
        let take = room.min(data.len());
        self.send_buf.push(&data[..take]);
        take
    }

    /// Signal that no more data will be sent (queues a FIN after pending data).
    pub fn finish(&mut self) {
        self.fin_pending = true;
    }

    /// Read delivered in-order bytes into `out`; returns the count.
    pub fn recv(&mut self, out: &mut [u8]) -> usize {
        // "Open" is room for a full segment, or the whole buffer where that
        // is smaller: a buffer under one MSS can never offer a full segment.
        let open = self.cfg.mss.min(self.cfg.recv_buffer) as u32;
        let was_closed = self.advertised_window() < open;
        let n = self.recv_ready.pop_into(out);
        self.stats.bytes_delivered += n as u64;
        // Window-update ACK: if the advertised window was effectively
        // closed and the application just opened it, tell the peer —
        // otherwise the sender sits on a zero window until its
        // retransmission timer limps in (TCP's persist-timer problem).
        if n > 0 && was_closed && self.advertised_window() >= open {
            self.ack_pending = true;
        }
        n
    }

    /// Bytes available to `recv` right now.
    pub fn recv_available(&self) -> usize {
        self.recv_ready.len()
    }

    /// True once the peer's FIN has been delivered in order (end of stream).
    pub fn peer_finished(&self) -> bool {
        self.peer_finished
    }

    /// True when everything we queued (including FIN) has been acknowledged.
    pub fn send_complete(&self) -> bool {
        self.send_buf.is_empty()
            && self.inflight.is_empty()
            && (!self.fin_pending || self.fin_acked)
    }

    /// Bytes the sender is holding for possible retransmission — the memory
    /// cost of transport-level recovery (experiment X4): the part of the
    /// send buffer that belongs to segments still in flight.
    pub fn retransmit_buffer_bytes(&self) -> usize {
        self.inflight_bytes
    }

    /// The earliest pending timer, for event-loop integration.
    pub fn next_timeout(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Current congestion window in bytes (diagnostics).
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    // ------------------------------------------------------------------
    // Wire interface
    // ------------------------------------------------------------------

    /// Advance the protocol machine: fire timers, emit due segments.
    /// Returns encoded segments ready for the network.
    pub fn poll(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        let mut out = Vec::new();

        // 1. Retransmission timeout.
        if let Some(deadline) = self.rto_deadline {
            if now >= deadline && !self.inflight.is_empty() {
                self.on_rto(now, &mut out);
            } else if self.inflight.is_empty() {
                self.rto_deadline = None;
            }
        }

        // 2. Fast retransmit requested by the ACK processor.
        if self.fast_retx_pending {
            self.fast_retx_pending = false;
            self.retransmit_first(now, &mut out);
        }

        // 3. New data within min(cwnd, peer window).
        loop {
            let window = self.cwnd.min(self.peer_window);
            let flight = self.flight_bytes();
            let avail = window.saturating_sub(flight);
            let unsent = self.unsent_bytes();
            let take = self.cfg.mss.min(unsent).min(avail);
            if take == 0 {
                break;
            }
            // Sender-side silly-window avoidance (RFC 1122 §4.2.3.4): a
            // window-limited sliver waits for the ACK that widens the
            // window. Something is in flight, so an ACK or the RTO re-polls.
            if take < self.cfg.mss && take < unsent && flight > 0 {
                break;
            }
            let seg = Inflight {
                seq: self.snd_nxt,
                len: take,
                fin: false,
                sent_at: now,
                retransmitted: false,
            };
            out.push(self.make_segment(seg.seq, self.inflight_bytes, take, false));
            self.snd_nxt += take as u64;
            self.inflight_bytes += take;
            self.inflight.push_back(seg);
            if self.rto_deadline.is_none() {
                self.rto_deadline = Some(now + self.rto);
            }
        }

        // 4. FIN once the send buffer has drained.
        if self.fin_pending && !self.fin_sent && self.unsent_bytes() == 0 {
            let window = self.cwnd.min(self.peer_window);
            if window > self.flight_bytes() {
                let seq = self.snd_nxt;
                self.snd_nxt += 1;
                self.fin_sent = true;
                self.inflight.push_back(Inflight {
                    seq,
                    len: 0,
                    fin: true,
                    sent_at: now,
                    retransmitted: false,
                });
                out.push(self.make_segment(seq, 0, 0, true));
                if self.rto_deadline.is_none() {
                    self.rto_deadline = Some(now + self.rto);
                }
            }
        }

        // 5. Pure ACK if nothing else carried it.
        if self.ack_pending && out.is_empty() {
            let seq = self.snd_nxt;
            out.push(self.make_segment(seq, 0, 0, false));
        }

        self.stats.segments_out += out.len() as u64;
        out
    }

    /// Ingest one owned wire frame, zero-copy: out-of-order payloads are
    /// buffered as views into the frame instead of copies.
    pub fn on_frame(&mut self, now: SimTime, frame: WireBuf) {
        let seg = match Segment::decode_frame(&frame) {
            Ok(s) => s,
            Err(_) => {
                self.stats.checksum_drops += 1;
                return;
            }
        };
        self.on_parsed(now, seg);
    }

    fn on_parsed(&mut self, now: SimTime, seg: Segment) {
        if seg.dst_port != self.local_port {
            // Mis-delivery; a full implementation would demultiplex.
            return;
        }
        if seg.flags & FLAG_ACK != 0 && seg.ack > self.snd_nxt {
            // An ACK for bytes never sent: forged or from another
            // connection's past. RFC 793 drops the whole segment.
            self.stats.bad_acks += 1;
            return;
        }
        self.stats.segments_in += 1;

        // --- ACK processing (the sender half of the control path) ---
        if seg.flags & FLAG_ACK != 0 {
            self.process_ack(now, &seg);
        }
        self.peer_window = seg.window as usize;

        // --- data processing (the receiver half) ---
        if !seg.payload.is_empty() || seg.is_fin() {
            self.process_data(now, seg);
            self.ack_pending = true;
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn flight_bytes(&self) -> usize {
        (self.snd_nxt - self.snd_una) as usize
    }

    /// Queued bytes not yet cut into a segment.
    fn unsent_bytes(&self) -> usize {
        self.send_buf.len() - self.inflight_bytes
    }

    fn advertised_window(&self) -> u32 {
        self.cfg
            .recv_buffer
            .saturating_sub(self.recv_ready.len() + self.ooo_bytes) as u32
    }

    /// Encode a segment carrying the `len` send-buffer bytes at `offset`
    /// (first transmission and retransmission alike), piggybacking the
    /// current ACK and window.
    fn make_segment(&mut self, seq: u64, offset: usize, len: usize, fin: bool) -> Vec<u8> {
        self.ack_pending = false;
        segment::encode(
            (self.local_port, self.remote_port),
            seq,
            self.rcv_nxt,
            FLAG_ACK | if fin { FLAG_FIN } else { 0 },
            self.advertised_window(),
            self.send_buf.slice(offset, len),
        )
    }

    fn process_ack(&mut self, now: SimTime, seg: &Segment) {
        if seg.ack > self.snd_una {
            let acked = seg.ack - self.snd_una;
            self.snd_una = seg.ack;
            self.dup_acks = 0;
            // Drop fully covered in-flight segments, releasing their bytes
            // from the send buffer; RTT-sample fresh ones. A segment the ACK
            // lands inside stays whole, to be retransmitted whole.
            while let Some(&s) = self.inflight.front() {
                if s.seq + s.len as u64 + u64::from(s.fin) > seg.ack {
                    break;
                }
                self.inflight.pop_front();
                self.send_buf.release(s.len);
                self.inflight_bytes -= s.len;
                if !s.retransmitted {
                    self.rtt_sample(now.saturating_since(s.sent_at));
                }
                if s.fin {
                    self.fin_acked = true;
                }
            }
            // Loss-recovery bookkeeping (NewReno partial ACKs): while still
            // short of the recovery point, every cumulative advance means
            // the next hole is also missing — retransmit it immediately
            // instead of waiting a full RTO per hole.
            if self.in_recovery {
                if self.snd_una >= self.recover_point {
                    self.in_recovery = false;
                } else if !self.inflight.is_empty() {
                    self.fast_retx_pending = true;
                }
            }
            // Congestion window growth (suspended during recovery).
            if !self.in_recovery {
                if self.cwnd < self.ssthresh {
                    self.cwnd += acked as usize; // slow start: +1 MSS per MSS acked
                } else {
                    // Congestion avoidance: ~ +MSS per RTT.
                    let inc = (self.cfg.mss * self.cfg.mss / self.cwnd.max(1)).max(1);
                    self.cwnd += inc;
                }
            }
            // Re-arm or disarm the timer.
            self.rto_deadline = if self.inflight.is_empty() {
                None
            } else {
                Some(now + self.rto)
            };
        } else if seg.ack == self.snd_una
            && !self.inflight.is_empty()
            && seg.payload.is_empty()
            && !seg.is_fin()
        {
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery {
                // Fast retransmit + multiplicative decrease, entering a
                // recovery episode that lasts until `recover_point` is acked.
                let flight = self.flight_bytes();
                self.ssthresh = (flight / 2).max(2 * self.cfg.mss);
                self.cwnd = self.ssthresh;
                self.in_recovery = true;
                self.recover_point = self.snd_nxt;
                self.fast_retx_pending = true;
                self.stats.fast_retransmits += 1;
            }
        }
    }

    fn process_data(&mut self, now: SimTime, seg: Segment) {
        let seg_end = seg.seq + seg.payload.len() as u64;
        if seg.is_fin() {
            self.fin_seq = Some(seg_end);
        }
        if seg_end + u64::from(seg.is_fin()) <= self.rcv_nxt {
            // Entirely old: duplicate delivery or a retransmission racing
            // our ACK. Re-acknowledge.
            self.stats.old_segments += 1;
            return;
        }
        let mut payload = seg.payload;
        let mut seq = seg.seq;
        if seq < self.rcv_nxt {
            // Partial overlap: trim the stale prefix (an O(1) re-view, not
            // a shift of the remaining bytes).
            let skip = (self.rcv_nxt - seq) as usize;
            payload = payload.slice(skip.min(payload.len())..);
            seq = self.rcv_nxt;
        }
        let rcv_before = self.rcv_nxt;
        if seq == self.rcv_nxt {
            // In order: deliver immediately (zero hold-up) — but never
            // beyond the receive buffer. A sender that overruns the
            // advertised window has its excess dropped and retransmitted,
            // which is how the window stays authoritative.
            let room = self
                .cfg
                .recv_buffer
                .saturating_sub(self.recv_ready.len() + self.ooo_bytes);
            let accept = payload.len().min(room);
            payload = payload.slice(..accept);
            if accept > 0 {
                self.trace(now, "seg_recv", seq, accept as u64);
            }
            self.rcv_nxt += accept as u64;
            self.recv_ready.push(&payload);
            self.drain_ooo(now);
        } else {
            // Out of order: hold until the gap fills. Respect the window.
            if payload.len() + self.ooo_bytes + self.recv_ready.len() <= self.cfg.recv_buffer
                && !self.ooo.contains_key(&seq)
            {
                self.trace(now, "seg_recv", seq, payload.len() as u64);
                self.ooo_bytes += payload.len();
                self.stats.ooo_segments += 1;
                self.stats.ooo_bytes_peak = self.stats.ooo_bytes_peak.max(self.ooo_bytes);
                self.ooo.insert(
                    seq,
                    OooSeg {
                        payload,
                        arrived_at: now,
                    },
                );
            }
            // else: window overflow or duplicate — silently dropped, the
            // sender will retransmit.
        }
        // In-order delivery advanced (this segment and/or drained ooo
        // holdings): record the new frontier before check_fin so the FIN's
        // +1 sequence slot never counts as delivered payload.
        let advanced = self.rcv_nxt - rcv_before;
        if advanced > 0 {
            self.trace(now, "stream_adv", self.rcv_nxt, advanced);
        }
        self.check_fin();
    }

    /// Pull newly contiguous segments out of the out-of-order store,
    /// charging their wait time to the head-of-line blocking accounts.
    fn drain_ooo(&mut self, now: SimTime) {
        while let Some((&seq, _)) = self.ooo.first_key_value() {
            if seq > self.rcv_nxt {
                break;
            }
            let (_, mut entry) = self.ooo.pop_first().expect("checked");
            self.ooo_bytes -= entry.payload.len();
            if seq < self.rcv_nxt {
                let skip = (self.rcv_nxt - seq) as usize;
                if skip >= entry.payload.len() {
                    continue; // fully stale
                }
                entry.payload = entry.payload.slice(skip..);
            }
            let waited = now.saturating_since(entry.arrived_at);
            if waited > SimDuration::ZERO {
                self.stats.hol_delay_total += waited;
                self.stats.hol_delay_max = self.stats.hol_delay_max.max(waited);
                self.stats.hol_delayed_bytes += entry.payload.len() as u64;
            }
            self.rcv_nxt += entry.payload.len() as u64;
            self.recv_ready.push(&entry.payload);
        }
    }

    fn check_fin(&mut self) {
        if let Some(fs) = self.fin_seq {
            if self.rcv_nxt == fs && !self.peer_finished {
                self.rcv_nxt += 1;
                self.peer_finished = true;
            }
        }
    }

    fn on_rto(&mut self, now: SimTime, out: &mut Vec<Vec<u8>>) {
        self.stats.rto_retransmits += 1;
        // Multiplicative decrease + collapse to one segment, back off timer.
        let flight = self.flight_bytes();
        self.ssthresh = (flight / 2).max(2 * self.cfg.mss);
        self.cwnd = self.cfg.mss;
        self.in_recovery = true;
        self.recover_point = self.snd_nxt;
        self.rto = clamp(
            self.rto.saturating_mul(2),
            self.cfg.rto_min,
            self.cfg.rto_max,
        );
        self.dup_acks = 0;
        self.retransmit_first(now, out);
        self.rto_deadline = Some(now + self.rto);
    }

    fn retransmit_first(&mut self, now: SimTime, out: &mut Vec<Vec<u8>>) {
        let Some(s) = self.inflight.front_mut() else {
            return;
        };
        s.retransmitted = true;
        s.sent_at = now;
        let (seq, len, fin) = (s.seq, s.len, s.fin);
        out.push(self.make_segment(seq, 0, len, fin));
    }

    /// RFC 6298 smoothing.
    fn rtt_sample(&mut self, r: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = SimDuration::from_nanos(r.as_nanos() / 2);
            }
            Some(srtt) => {
                let diff = if srtt > r {
                    srtt.as_nanos() - r.as_nanos()
                } else {
                    r.as_nanos() - srtt.as_nanos()
                };
                self.rttvar = SimDuration::from_nanos((3 * self.rttvar.as_nanos() + diff) / 4);
                self.srtt = Some(SimDuration::from_nanos(
                    (7 * srtt.as_nanos() + r.as_nanos()) / 8,
                ));
            }
        }
        let rto = SimDuration::from_nanos(
            self.srtt.expect("set").as_nanos() + 4 * self.rttvar.as_nanos().max(1_000_000),
        );
        self.rto = clamp(rto, self.cfg.rto_min, self.cfg.rto_max);
    }
}

fn clamp(v: SimDuration, lo: SimDuration, hi: SimDuration) -> SimDuration {
    if v < lo {
        lo
    } else if v > hi {
        hi
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(frame: &[u8]) -> Result<Segment, segment::SegmentError> {
        Segment::decode_frame(&frame.into())
    }

    fn pair() -> (StreamTransport, StreamTransport) {
        let cfg = StreamConfig::default();
        (
            StreamTransport::new(cfg, 1, 2),
            StreamTransport::new(cfg, 2, 1),
        )
    }

    /// Shuttle frames between two endpoints over a perfect in-memory wire
    /// until both are quiescent. Returns rounds taken.
    fn pump(a: &mut StreamTransport, b: &mut StreamTransport, mut now: SimTime) -> SimTime {
        for _ in 0..10_000 {
            now += SimDuration::from_micros(100);
            let fa = a.poll(now);
            let fb = b.poll(now);
            if fa.is_empty() && fb.is_empty() {
                return now;
            }
            for f in fa {
                b.on_frame(now, f.into());
            }
            for f in fb {
                a.on_frame(now, f.into());
            }
        }
        panic!("did not quiesce");
    }

    #[test]
    fn simple_transfer() {
        let (mut a, mut b) = pair();
        let msg = b"hello stream transport".to_vec();
        assert_eq!(a.send(&msg), msg.len());
        pump(&mut a, &mut b, SimTime::ZERO);
        let mut out = vec![0u8; 100];
        let n = b.recv(&mut out);
        assert_eq!(&out[..n], &msg[..]);
        assert!(a.send_complete());
    }

    #[test]
    fn large_transfer_multiple_segments() {
        let (mut a, mut b) = pair();
        let msg: Vec<u8> = (0..100_000).map(|i| (i * 7) as u8).collect();
        let mut offset = 0;
        let mut now = SimTime::ZERO;
        let mut got = Vec::new();
        for _ in 0..10_000 {
            offset += a.send(&msg[offset..]);
            now += SimDuration::from_micros(100);
            let fa = a.poll(now);
            let fb = b.poll(now);
            let idle = fa.is_empty() && fb.is_empty();
            for f in fa {
                b.on_frame(now, f.into());
            }
            for f in fb {
                a.on_frame(now, f.into());
            }
            let mut buf = [0u8; 4096];
            loop {
                let n = b.recv(&mut buf);
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            if idle && offset == msg.len() && got.len() == msg.len() {
                break;
            }
        }
        assert_eq!(got, msg);
        assert!(b.stats.segments_in > 10, "multiple segments used");
    }

    #[test]
    fn fin_handshake() {
        let (mut a, mut b) = pair();
        a.send(b"last words");
        a.finish();
        pump(&mut a, &mut b, SimTime::ZERO);
        let mut out = [0u8; 32];
        let n = b.recv(&mut out);
        assert_eq!(&out[..n], b"last words");
        assert!(b.peer_finished());
        assert!(a.send_complete());
    }

    #[test]
    fn lost_segment_retransmitted_on_timeout() {
        let (mut a, mut b) = pair();
        a.send(b"data that will be lost");
        let mut now = SimTime::ZERO;
        let frames = a.poll(now);
        assert_eq!(frames.len(), 1);
        // Drop it. Advance past the RTO.
        now += SimDuration::from_millis(500);
        let retx = a.poll(now);
        assert_eq!(retx.len(), 1, "RTO retransmission expected");
        assert_eq!(a.stats.rto_retransmits, 1);
        b.on_frame(now, retx[0].as_slice().into());
        let mut out = [0u8; 64];
        let n = b.recv(&mut out);
        assert_eq!(&out[..n], b"data that will be lost");
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let (mut a, _b) = pair();
        a.send(b"x");
        let mut now = SimTime::ZERO;
        a.poll(now);
        let mut deadlines = Vec::new();
        for _ in 0..3 {
            now = a.next_timeout().unwrap();
            let out = a.poll(now);
            assert_eq!(out.len(), 1);
            deadlines.push(a.next_timeout().unwrap().saturating_since(now));
        }
        assert!(deadlines[1] > deadlines[0]);
        assert!(deadlines[2] > deadlines[1]);
    }

    #[test]
    fn out_of_order_data_held_and_hol_counted() {
        let (mut a, mut b) = pair();
        // Craft two segments by polling, then deliver in reverse order.
        a.send(&[1u8; 1400]);
        a.send(&[2u8; 1400]);
        let t0 = SimTime::ZERO;
        let frames = a.poll(t0);
        assert_eq!(frames.len(), 2);
        let t1 = SimTime::from_millis(1);
        b.on_frame(t1, frames[1].as_slice().into()); // second segment first
        assert_eq!(b.recv_available(), 0, "gap blocks delivery");
        assert_eq!(b.stats.ooo_segments, 1);
        let t2 = SimTime::from_millis(5);
        b.on_frame(t2, frames[0].as_slice().into()); // gap fills
        assert_eq!(b.recv_available(), 2800);
        assert_eq!(b.stats.hol_delayed_bytes, 1400);
        assert_eq!(b.stats.hol_delay_max, SimDuration::from_millis(4));
    }

    #[test]
    fn duplicate_segments_ignored() {
        let (mut a, mut b) = pair();
        a.send(b"once only");
        let frames = a.poll(SimTime::ZERO);
        b.on_frame(SimTime::ZERO, frames[0].as_slice().into());
        b.on_frame(SimTime::ZERO, frames[0].as_slice().into());
        b.on_frame(SimTime::ZERO, frames[0].as_slice().into());
        let mut out = [0u8; 64];
        let n = b.recv(&mut out);
        assert_eq!(&out[..n], b"once only");
        assert_eq!(b.recv(&mut out), 0);
        assert_eq!(b.stats.old_segments, 2);
    }

    #[test]
    fn corrupted_segment_dropped() {
        let (mut a, mut b) = pair();
        a.send(b"integrity matters");
        let mut frames = a.poll(SimTime::ZERO);
        frames[0][35] ^= 0xFF;
        b.on_frame(SimTime::ZERO, frames[0].as_slice().into());
        assert_eq!(b.recv_available(), 0);
        assert_eq!(b.stats.checksum_drops, 1);
    }

    #[test]
    fn triple_dup_ack_triggers_fast_retransmit() {
        let (mut a, mut b) = pair();
        let data = vec![7u8; 1400 * 5];
        a.send(&data);
        let t = SimTime::ZERO;
        let frames = a.poll(t);
        assert!(frames.len() >= 4);
        // Lose frames[0]; deliver 1..4 -> three dup ACKs.
        for f in &frames[1..] {
            b.on_frame(t, f.as_slice().into());
        }
        let acks = b.poll(t);
        assert!(!acks.is_empty());
        for ack in &acks {
            a.on_frame(t, ack.as_slice().into());
        }
        // b sends one cumulative ack per poll; we need three dup acks, so
        // deliver the segments one at a time instead.
        let (mut a, mut b) = pair();
        a.send(&data);
        let frames = a.poll(t);
        for f in &frames[1..4] {
            b.on_frame(t, f.as_slice().into());
            for ack in b.poll(t) {
                a.on_frame(t, ack.into());
            }
        }
        assert_eq!(a.stats.fast_retransmits, 1);
        let retx = a.poll(t);
        assert!(!retx.is_empty(), "fast retransmission sent");
        b.on_frame(t, retx[0].as_slice().into());
        assert_eq!(b.recv_available(), 1400 * 4);
    }

    #[test]
    fn flow_control_respects_peer_window() {
        let cfg = StreamConfig {
            recv_buffer: 4096,
            ..StreamConfig::default()
        };
        let mut a = StreamTransport::new(StreamConfig::default(), 1, 2);
        let mut b = StreamTransport::new(cfg, 2, 1);
        let big = vec![0xEE; 100_000];
        let mut sent = a.send(&big);
        let mut now = SimTime::ZERO;
        // b never reads: a must stall at ~4096 bytes in flight+delivered.
        for _ in 0..200 {
            now += SimDuration::from_micros(200);
            sent += a.send(&big[sent..]);
            for f in a.poll(now) {
                b.on_frame(now, f.into());
            }
            for f in b.poll(now) {
                a.on_frame(now, f.into());
            }
        }
        assert!(
            b.recv_available() <= 4096,
            "receiver buffered {} > window",
            b.recv_available()
        );
        // Now the app reads, the window reopens, and the rest flows.
        let mut got = 0usize;
        let mut buf = [0u8; 4096];
        for _ in 0..2000 {
            now += SimDuration::from_micros(200);
            loop {
                let n = b.recv(&mut buf);
                if n == 0 {
                    break;
                }
                got += n;
            }
            sent += a.send(&big[sent..]);
            for f in a.poll(now) {
                b.on_frame(now, f.into());
            }
            for f in b.poll(now) {
                a.on_frame(now, f.into());
            }
            if got == big.len() {
                break;
            }
        }
        assert_eq!(got, big.len());
    }

    #[test]
    fn window_update_sent_when_app_reopens_zero_window() {
        let cfg = StreamConfig {
            recv_buffer: 2800, // two segments
            ..StreamConfig::default()
        };
        let mut a = StreamTransport::new(StreamConfig::default(), 1, 2);
        let mut b = StreamTransport::new(cfg, 2, 1);
        a.send(&vec![7u8; 2800]);
        let t = SimTime::ZERO;
        for f in a.poll(t) {
            b.on_frame(t, f.into());
        }
        for f in b.poll(t) {
            a.on_frame(t, f.into());
        }
        // b's window is now closed; a cannot send more.
        a.send(&vec![8u8; 1400]);
        assert!(a.poll(t).is_empty(), "zero window must block the sender");
        // The application reads: a window-update ACK must be produced
        // without waiting for any timer.
        let mut buf = vec![0u8; 2800];
        assert_eq!(b.recv(&mut buf), 2800);
        let updates = b.poll(t);
        assert_eq!(updates.len(), 1, "window update expected");
        a.on_frame(t, updates[0].as_slice().into());
        assert_eq!(a.poll(t).len(), 1, "sender resumes immediately");
    }

    /// A bare ACK from the peer (port 2 → 1) with the given window.
    fn ack(ack: u64, window: u32) -> WireBuf {
        Segment {
            src_port: 2,
            dst_port: 1,
            seq: 0,
            ack,
            flags: FLAG_ACK,
            window,
            payload: WireBuf::empty(),
        }
        .encode()
        .into()
    }

    #[test]
    fn window_limited_sliver_waits_for_an_empty_flight() {
        let (mut a, _) = pair();
        let t = SimTime::ZERO;
        a.send(&[3u8; 4200]);
        assert_eq!(a.poll(t).len(), 3);
        // The first segment is acknowledged and the peer offers 3 400 bytes:
        // 2 800 are in flight, so 600 are usable and 5 000 are waiting.
        a.on_frame(t, ack(1400, 3400));
        a.send(&[4u8; 5000]);
        assert!(a.poll(t).is_empty(), "a 600-byte sliver must not be cut");
        assert_eq!(a.retransmit_buffer_bytes(), 2800);
        // A wider window releases full segments, and only full segments.
        a.on_frame(t, ack(1400, 2800 + 1400 + 1399));
        let out = a.poll(t);
        assert_eq!(out.len(), 1);
        assert_eq!(decode(&out[0]).unwrap().payload.len(), 1400);
        // Everything is acknowledged; the peer has 600 bytes of room. With
        // nothing in flight the sliver goes, or nothing ever would.
        a.on_frame(t, ack(5600, 600));
        let out = a.poll(t);
        assert_eq!(out.len(), 1);
        let seg = decode(&out[0]).unwrap();
        assert_eq!((seg.seq, seg.payload.len()), (5600, 600));
        assert!(a.poll(t).is_empty(), "window used up");
    }

    #[test]
    fn sub_mss_write_goes_out_at_once() {
        // Holding a sliver is about the window, not about small writes:
        // what carries everything unsent is sent, in flight or not.
        let (mut a, _) = pair();
        let t = SimTime::ZERO;
        a.send(&[1u8; 100]);
        let out = a.poll(t);
        assert_eq!(out.len(), 1);
        assert_eq!(decode(&out[0]).unwrap().payload.len(), 100);
        a.send(&[2u8; 50]);
        let out = a.poll(t);
        assert_eq!(out.len(), 1, "no waiting for the first to be acknowledged");
        assert_eq!(decode(&out[0]).unwrap().payload.len(), 50);
        // And a write that ends in a short tail: full segments, then the tail.
        a.send(&[3u8; 1400 + 7]);
        let lens: Vec<usize> = a
            .poll(t)
            .iter()
            .map(|f| decode(f).unwrap().payload.len())
            .collect();
        assert_eq!(lens, [1400, 7]);
    }

    #[test]
    fn window_update_sent_when_buffer_is_under_one_mss() {
        // Regression: "reopened" meant room for a full MSS, which a smaller
        // buffer never has — no update was ever sent and, with nothing in
        // flight to time out, the sender sat on the zero window for good.
        let cfg = StreamConfig {
            recv_buffer: 500,
            ..StreamConfig::default()
        };
        let mut a = StreamTransport::new(StreamConfig::default(), 1, 2);
        let mut b = StreamTransport::new(cfg, 2, 1);
        a.send(&[7u8; 1000]);
        let t = SimTime::ZERO;
        a.on_frame(t, ack(0, 500)); // the peer's real window
        for f in a.poll(t) {
            b.on_frame(t, f.into());
        }
        for f in b.poll(t) {
            a.on_frame(t, f.into());
        }
        assert!(a.poll(t).is_empty(), "zero window");
        assert_eq!(a.next_timeout(), None, "and no timer to end it");
        let mut buf = [0u8; 500];
        assert_eq!(b.recv(&mut buf), 500);
        let updates = b.poll(t);
        assert_eq!(updates.len(), 1, "window update expected");
        a.on_frame(t, updates[0].as_slice().into());
        assert_eq!(a.poll(t).len(), 1, "sender resumes");
    }

    #[test]
    fn cwnd_grows_on_acks() {
        let (mut a, mut b) = pair();
        let initial = a.cwnd();
        a.send(&vec![1u8; 20_000]);
        pump(&mut a, &mut b, SimTime::ZERO);
        assert!(a.cwnd() > initial, "{} !> {initial}", a.cwnd());
    }

    #[test]
    fn cwnd_collapses_on_rto() {
        let (mut a, _) = pair();
        a.send(&vec![1u8; 20_000]);
        let mut now = SimTime::ZERO;
        a.poll(now);
        let before = a.cwnd();
        now = a.next_timeout().unwrap();
        a.poll(now);
        assert!(a.cwnd() < before);
        assert_eq!(a.cwnd(), StreamConfig::default().mss);
    }

    #[test]
    fn send_buffer_bounded() {
        let cfg = StreamConfig {
            send_buffer: 1000,
            ..StreamConfig::default()
        };
        let mut a = StreamTransport::new(cfg, 1, 2);
        assert_eq!(a.send(&vec![0u8; 5000]), 1000);
        assert_eq!(a.send(&[1, 2, 3]), 0);
    }

    #[test]
    fn retransmit_buffer_reports_inflight() {
        let (mut a, _) = pair();
        a.send(&vec![0u8; 3000]);
        a.poll(SimTime::ZERO);
        assert_eq!(a.retransmit_buffer_bytes(), 3000);
    }

    #[test]
    fn partially_acked_segment_is_retransmitted_whole() {
        let (mut a, _) = pair();
        a.send(&[5u8; 2800]);
        let t = SimTime::ZERO;
        let first = a.poll(t);
        assert_eq!(first.len(), 2);
        // The peer kept 600 bytes of the second segment (its window closed).
        a.on_frame(t, ack(2000, 0));
        assert_eq!(
            a.retransmit_buffer_bytes(),
            1400,
            "second segment held whole"
        );
        assert_eq!(a.send(&[6u8; 300_000]), 256 * 1024 - 800);
        let retx = a.poll(a.next_timeout().unwrap());
        assert_eq!(retx.len(), 1);
        assert_eq!(
            decode(&retx[0]).unwrap().payload,
            decode(&first[1]).unwrap().payload
        );
        assert_eq!(decode(&retx[0]).unwrap().seq, 1400);
    }

    #[test]
    fn ack_beyond_snd_nxt_is_dropped() {
        // Regression: `snd_una` jumped past `snd_nxt` and the next
        // `flight_bytes()` aborted with "attempt to subtract with overflow".
        let (mut a, mut b) = pair();
        a.send(&[9u8; 3000]);
        let t = SimTime::ZERO;
        let frames = a.poll(t);
        a.on_frame(t, ack(1_000_000, 0)); // forged
        assert_eq!(a.stats.bad_acks, 1);
        assert_eq!(
            a.stats.segments_in, 0,
            "dropped whole: window untouched too"
        );
        assert!(a.poll(t).is_empty());
        assert_eq!(a.retransmit_buffer_bytes(), 3000);
        // The genuine ACKs still complete the transfer.
        for f in frames {
            b.on_frame(t, f.into());
        }
        pump(&mut a, &mut b, t);
        assert!(a.send_complete());
        assert_eq!(b.recv_available(), 3000);
    }

    #[test]
    fn mss_beyond_length_field_is_clamped() {
        // Regression: `paylen` is 16 bits, so an unclamped 70 000-byte MSS cut
        // segments every receiver rejected with `LengthMismatch`, forever.
        let cfg = StreamConfig {
            mss: 70_000,
            ..StreamConfig::default()
        };
        let mut a = StreamTransport::new(cfg, 1, 2);
        let mut b = StreamTransport::new(cfg, 2, 1);
        let msg: Vec<u8> = (0..200_000).map(|i| (i % 253) as u8).collect();
        assert_eq!(a.send(&msg), msg.len());
        let first = a.poll(SimTime::ZERO);
        assert_eq!(first[0].len(), crate::segment::HEADER_BYTES + 65_535);
        for f in first {
            b.on_frame(SimTime::ZERO, f.into());
        }
        pump(&mut a, &mut b, SimTime::ZERO);
        assert_eq!(b.stats.checksum_drops, 0);
        let mut got = vec![0u8; msg.len()];
        assert_eq!(b.recv(&mut got), msg.len());
        assert_eq!(got, msg);
        assert!(a.send_complete());
    }

    #[test]
    fn mis_addressed_segment_ignored() {
        let (a, _) = pair();
        let mut other = StreamTransport::new(StreamConfig::default(), 9, 1);
        other.send(b"to port 1... but b is port 2");
        let frames = other.poll(SimTime::ZERO);
        let mut b = StreamTransport::new(StreamConfig::default(), 2, 1);
        b.on_frame(SimTime::ZERO, frames[0].as_slice().into());
        assert_eq!(b.stats.segments_in, 0);
        assert_eq!(b.recv_available(), 0);
        let _ = a;
    }

    #[test]
    fn bidirectional_simultaneous_transfer() {
        // Both endpoints stream to each other at once: piggybacked ACKs,
        // independent sequence spaces, no interference.
        let (mut a, mut b) = pair();
        let to_b: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
        let to_a: Vec<u8> = (0..25_000).map(|i| (i % 127) as u8).collect();
        let mut sent_ab = 0usize;
        let mut sent_ba = 0usize;
        let mut got_b = Vec::new();
        let mut got_a = Vec::new();
        let mut now = SimTime::ZERO;
        let mut buf = [0u8; 4096];
        for _ in 0..20_000 {
            sent_ab += a.send(&to_b[sent_ab..]);
            sent_ba += b.send(&to_a[sent_ba..]);
            now += SimDuration::from_micros(100);
            let fa = a.poll(now);
            let fb = b.poll(now);
            let idle = fa.is_empty() && fb.is_empty();
            for f in fa {
                b.on_frame(now, f.into());
            }
            for f in fb {
                a.on_frame(now, f.into());
            }
            loop {
                let n = b.recv(&mut buf);
                if n == 0 {
                    break;
                }
                got_b.extend_from_slice(&buf[..n]);
            }
            loop {
                let n = a.recv(&mut buf);
                if n == 0 {
                    break;
                }
                got_a.extend_from_slice(&buf[..n]);
            }
            if idle && got_b.len() == to_b.len() && got_a.len() == to_a.len() {
                break;
            }
        }
        assert_eq!(got_b, to_b);
        assert_eq!(got_a, to_a);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        /// Whatever the application's write sizes, the reader's pace and the
        /// two buffers (either may be smaller than one segment), the
        /// transfer completes with the same bytes, and every first
        /// transmission of data is a full segment, the tail of everything
        /// written so far, or was cut with nothing in flight.
        #[test]
        fn prop_no_silly_segments_and_no_deadlock(
            writes in proptest::collection::vec(1usize..3000, 1..12),
            send_buffer in 64usize..6000,
            recv_buffer in 64usize..6000,
            read_every in 1usize..4,
            read_chunk in 1usize..4000,
        ) {
            let cfg = StreamConfig::default();
            let mss = cfg.mss;
            let mut a = StreamTransport::new(StreamConfig { send_buffer, ..cfg }, 1, 2);
            let mut b = StreamTransport::new(StreamConfig { recv_buffer, ..cfg }, 2, 1);
            let data: Vec<u8> = (0..20_000usize).map(|i| ((i * 31) >> 2) as u8).collect();
            let mut written = 0;
            let mut got = Vec::new();
            let mut buf = vec![0u8; read_chunk];
            let mut now = SimTime::ZERO;
            let mut done = false;
            for round in 0..200_000 {
                let want = writes[round % writes.len()].min(data.len() - written);
                let accepted = a.send(&data[written..written + want]);
                written += accepted;
                now += SimDuration::from_micros(100);
                let una = a.snd_una;
                let mut nxt = a.snd_nxt;
                let fa = a.poll(now);
                for f in &fa {
                    let seg = decode(f).unwrap();
                    let len = seg.payload.len();
                    if len == 0 || seg.seq < nxt {
                        continue; // bare ACK or retransmission
                    }
                    proptest::prop_assert!(
                        len == mss || seg.seq_end() == written as u64 || nxt == una,
                        "silly segment: {len} bytes at {} with {} in flight, {written} written",
                        seg.seq, nxt - una
                    );
                    nxt = seg.seq_end();
                }
                let mut moved = accepted > 0 || !fa.is_empty();
                for f in fa {
                    b.on_frame(now, f.into());
                }
                if round % read_every == 0 {
                    let n = b.recv(&mut buf);
                    got.extend_from_slice(&buf[..n]);
                    moved |= n > 0;
                }
                for f in b.poll(now) {
                    moved = true;
                    a.on_frame(now, f.into());
                }
                if got.len() == data.len() && a.send_complete() {
                    done = true;
                    break;
                }
                if !moved && b.recv_available() == 0 {
                    // Quiet: only a timer can move things now.
                    let t = a.next_timeout().or(b.next_timeout());
                    proptest::prop_assert!(t.is_some(), "deadlock at {} bytes", got.len());
                    now = now.max(t.unwrap());
                }
            }
            proptest::prop_assert!(done, "did not finish: {} of {}", got.len(), data.len());
            proptest::prop_assert_eq!(got, data);
        }
    }

    #[test]
    fn pure_ack_emitted_when_idle() {
        let (mut a, mut b) = pair();
        a.send(b"ping");
        let frames = a.poll(SimTime::ZERO);
        b.on_frame(SimTime::ZERO, frames[0].as_slice().into());
        let acks = b.poll(SimTime::ZERO);
        assert_eq!(acks.len(), 1);
        let seg = decode(&acks[0]).unwrap();
        assert!(seg.payload.is_empty());
        assert_eq!(seg.ack, 4);
    }
}
