//! Counters and estimator read-outs of an ALF endpoint.

use ct_netsim::time::SimDuration;

/// The counters an [`AduTransport`](super::AduTransport) holds: the six the
/// fault-free TU/ACK path bumps, inline, and every other counter and
/// estimator read-out in one block, allocated by the first write that moves
/// one of them. An association that never leaves its fast path — the common
/// one in a many-association server — carries a null pointer instead of
/// 232 bytes of zeros.
///
/// [`AlfStats`] is the full snapshot: `AlfStats::from(&ep.stats)` (or
/// [`AduTransport::stats`](super::AduTransport::stats)) builds one, and
/// [`AlfStats::merge`] takes either.
#[derive(Debug, Default)]
pub struct EndpointStats {
    /// ADUs accepted from the sending application.
    pub adus_sent: u64,
    /// TUs transmitted (data only; control excluded).
    pub tus_sent: u64,
    /// Control messages (ACK/NACK) transmitted.
    pub control_sent: u64,
    /// ADUs delivered complete to the receiving application.
    pub adus_delivered: u64,
    /// Sum of per-ADU delivery latency (first TU arrival → release).
    pub delivery_latency_total: SimDuration,
    /// Maximum per-ADU delivery latency.
    pub delivery_latency_max: SimDuration,
    /// Everything else, once first written. Its six leading fields are
    /// never written: the inline ones above stand for them.
    rare: Option<Box<AlfStats>>,
}

impl EndpointStats {
    /// The rare counters, allocating their block on first use.
    pub(super) fn rare_mut(&mut self) -> &mut AlfStats {
        self.rare
            .get_or_insert_with(|| Box::new(AlfStats::untouched()))
    }

    /// Whether any rare counter was ever written.
    pub(super) fn rare_allocated(&self) -> bool {
        self.rare.is_some()
    }

    /// Heap bytes held: the rare block, once it exists.
    pub(super) fn heap_bytes(&self) -> usize {
        self.rare
            .as_ref()
            .map_or(0, |_| std::mem::size_of::<AlfStats>())
    }
}

impl From<&EndpointStats> for AlfStats {
    fn from(s: &EndpointStats) -> Self {
        AlfStats {
            adus_sent: s.adus_sent,
            tus_sent: s.tus_sent,
            control_sent: s.control_sent,
            adus_delivered: s.adus_delivered,
            delivery_latency_total: s.delivery_latency_total,
            delivery_latency_max: s.delivery_latency_max,
            ..s.rare
                .as_deref()
                .copied()
                .unwrap_or_else(AlfStats::untouched)
        }
    }
}

impl From<&AlfStats> for AlfStats {
    fn from(s: &AlfStats) -> Self {
        *s
    }
}

/// Counters for an [`AduTransport`](super::AduTransport): the snapshot
/// [`AduTransport::stats`](super::AduTransport::stats) returns, and what a
/// many-association server sums its endpoints into. The endpoint itself
/// holds an [`EndpointStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AlfStats {
    /// ADUs accepted from the sending application.
    pub adus_sent: u64,
    /// TUs transmitted (data only; control excluded).
    pub tus_sent: u64,
    /// Control messages (ACK/NACK) transmitted.
    pub control_sent: u64,
    /// ADUs delivered complete to the receiving application.
    pub adus_delivered: u64,
    /// Sum of per-ADU delivery latency (first TU arrival → release).
    pub delivery_latency_total: SimDuration,
    /// Maximum per-ADU delivery latency.
    pub delivery_latency_max: SimDuration,
    /// ADUs delivered whose id is lower than an already-delivered id —
    /// i.e. delivered out of order (the ALF win: these would have stalled a
    /// byte stream).
    pub adus_delivered_out_of_order: u64,
    /// Whole-ADU retransmissions performed.
    pub adus_retransmitted: u64,
    /// TUs retransmitted selectively in response to fragment NACKs.
    pub tus_retransmitted_selective: u64,
    /// First-TU probes sent by the timeout fallback for multi-TU ADUs.
    pub probe_tus: u64,
    /// Data TUs that carried a sender timestamp.
    pub timestamped_tus: u64,
    /// RTP-style (RFC 3550 §6.4.1) smoothed interarrival jitter estimate in
    /// microseconds, maintained from TU timestamps.
    pub jitter_us: f64,
    /// Parity TUs transmitted (FEC).
    pub fec_parity_sent: u64,
    /// Fragments rebuilt from parity without retransmission (FEC).
    pub fec_reconstructions: u64,
    /// Recompute requests issued to the sending application.
    pub recompute_requests: u64,
    /// ADUs the *sender* gave up on (max retries / no-retransmit loss).
    pub adus_given_up: u64,
    /// Sender-side losses reported to the application by name.
    pub losses_reported: u64,
    /// Arriving messages dropped for checksum/parse failure.
    pub bad_messages: u64,
    /// Smoothed round-trip time from ACK timestamp echoes, µs (sender).
    pub srtt_us: f64,
    /// RTT mean-deviation estimate, µs (sender).
    pub rttvar_us: f64,
    /// Current adaptive retransmission timeout, µs; zero before the first
    /// RTT sample (the fixed `retransmit_timeout` applies until then).
    pub rto_us: f64,
    /// RTT samples accepted by the estimator.
    pub rtt_samples: u64,
    /// Current congestion window, in ADUs (adaptive mode).
    pub cwnd_adus: f64,
    /// Peak congestion window reached, in ADUs.
    pub cwnd_peak_adus: f64,
    /// Multiplicative-decrease events: timeout or NACK loss signals,
    /// counted at most once per round trip.
    pub loss_events: u64,
    /// Smoothed delivery rate measured from ACKed bytes, Mb/s.
    pub delivery_rate_mbps: f64,
    /// Incomplete ADUs the receiver shed (evicted) to honor its byte
    /// budget (drop-oldest policy).
    pub adus_shed: u64,
    /// TUs the receiver refused under backpressure (byte budget full; the
    /// sender still holds the ADU and retransmits once the window reopens).
    pub tus_backpressured: u64,
    /// Zero-window probes sent while the peer advertised no free budget.
    pub zero_window_probes: u64,
    /// `send_adu` refusals attributed to receiver pushback
    /// ([`SendRefused::Backpressured`](super::SendRefused::Backpressured)).
    pub send_backpressured: u64,
    /// Karn-style global RTO backoff escalations (consecutive timeout
    /// sweeps with no intervening ACK progress).
    pub rto_backoff_events: u64,
    /// Times the peer was declared unreachable after `peer_timeout` of
    /// silence with outstanding work.
    pub peer_unreachable_events: u64,
    /// Selective-NACK repair ranges rejected as protocol errors (offset or
    /// end past the ADU's declared total, or empty) — a malformed or
    /// malicious repair request, never silently answered with nothing.
    pub nack_range_errors: u64,
    /// Data TUs suppressed by the replay window: their ADU was already
    /// released (duplicate retransmission or adversarial replay). Re-ACKed
    /// but never re-charged against the reassembly budget.
    pub tus_replayed: u64,
    /// Partial assemblies evicted by the per-association occupancy quota
    /// (fragment-view cap), deterministically oldest-first.
    pub quota_evictions: u64,
    /// Retransmission deadlines that came due — what
    /// [`AduTransport::timer_stats`](super::AduTransport::timer_stats)
    /// reports as `fired` (and `entries_examined`). Read there, not
    /// published: the `alf-core.timer.*` counts are the timer's.
    pub timers_fired: u64,
}

impl AlfStats {
    /// What an endpoint reports before anything happened: all zeros but
    /// the congestion window, which starts at its initial size.
    fn untouched() -> Self {
        AlfStats {
            cwnd_adus: super::CWND_INIT_ADUS,
            cwnd_peak_adus: super::CWND_INIT_ADUS,
            ..AlfStats::default()
        }
    }

    /// Fold another endpoint's stats into this one — how a many-association
    /// server aggregates per-shard totals. Counters add; latency and peak
    /// fields take the maximum; estimator gauges (jitter, SRTT, rate) also
    /// take the maximum, read as "worst/peak observed across the shard"
    /// rather than a population mean (the per-association values remain
    /// available on each endpoint). Takes an `&AlfStats` or an endpoint's
    /// `&EndpointStats`.
    pub fn merge(&mut self, o: impl Into<AlfStats>) {
        let o = o.into();
        self.adus_sent += o.adus_sent;
        self.tus_sent += o.tus_sent;
        self.control_sent += o.control_sent;
        self.adus_delivered += o.adus_delivered;
        self.adus_delivered_out_of_order += o.adus_delivered_out_of_order;
        self.adus_retransmitted += o.adus_retransmitted;
        self.tus_retransmitted_selective += o.tus_retransmitted_selective;
        self.probe_tus += o.probe_tus;
        self.timestamped_tus += o.timestamped_tus;
        self.fec_parity_sent += o.fec_parity_sent;
        self.fec_reconstructions += o.fec_reconstructions;
        self.recompute_requests += o.recompute_requests;
        self.adus_given_up += o.adus_given_up;
        self.losses_reported += o.losses_reported;
        self.bad_messages += o.bad_messages;
        self.rtt_samples += o.rtt_samples;
        self.loss_events += o.loss_events;
        self.adus_shed += o.adus_shed;
        self.tus_backpressured += o.tus_backpressured;
        self.zero_window_probes += o.zero_window_probes;
        self.send_backpressured += o.send_backpressured;
        self.rto_backoff_events += o.rto_backoff_events;
        self.peer_unreachable_events += o.peer_unreachable_events;
        self.nack_range_errors += o.nack_range_errors;
        self.tus_replayed += o.tus_replayed;
        self.quota_evictions += o.quota_evictions;
        self.timers_fired += o.timers_fired;
        self.delivery_latency_total += o.delivery_latency_total;
        self.delivery_latency_max = self.delivery_latency_max.max(o.delivery_latency_max);
        self.jitter_us = self.jitter_us.max(o.jitter_us);
        self.srtt_us = self.srtt_us.max(o.srtt_us);
        self.rttvar_us = self.rttvar_us.max(o.rttvar_us);
        self.rto_us = self.rto_us.max(o.rto_us);
        self.cwnd_adus = self.cwnd_adus.max(o.cwnd_adus);
        self.cwnd_peak_adus = self.cwnd_peak_adus.max(o.cwnd_peak_adus);
        self.delivery_rate_mbps = self.delivery_rate_mbps.max(o.delivery_rate_mbps);
    }

    /// Publish every counter and estimator into a metrics registry under
    /// `prefix` (e.g. `alf.a.adus_sent`). Intended for end-of-run
    /// publication, not the per-frame hot path: it allocates one name
    /// string per metric.
    pub fn publish(&self, reg: &mut ct_telemetry::MetricsRegistry, prefix: &str) {
        let counters: [(&str, u64); 27] = [
            ("adus_sent", self.adus_sent),
            ("tus_sent", self.tus_sent),
            ("control_sent", self.control_sent),
            ("adus_delivered", self.adus_delivered),
            (
                "adus_delivered_out_of_order",
                self.adus_delivered_out_of_order,
            ),
            ("adus_retransmitted", self.adus_retransmitted),
            (
                "tus_retransmitted_selective",
                self.tus_retransmitted_selective,
            ),
            ("probe_tus", self.probe_tus),
            ("timestamped_tus", self.timestamped_tus),
            ("fec_parity_sent", self.fec_parity_sent),
            ("fec_reconstructions", self.fec_reconstructions),
            ("recompute_requests", self.recompute_requests),
            ("adus_given_up", self.adus_given_up),
            ("losses_reported", self.losses_reported),
            ("bad_messages", self.bad_messages),
            ("rtt_samples", self.rtt_samples),
            ("loss_events", self.loss_events),
            ("adus_shed", self.adus_shed),
            ("tus_backpressured", self.tus_backpressured),
            ("zero_window_probes", self.zero_window_probes),
            ("send_backpressured", self.send_backpressured),
            ("rto_backoff_events", self.rto_backoff_events),
            ("peer_unreachable_events", self.peer_unreachable_events),
            ("nack_range_errors", self.nack_range_errors),
            ("tus_replayed", self.tus_replayed),
            ("quota_evictions", self.quota_evictions),
            (
                "delivery_latency_total_us",
                self.delivery_latency_total.as_nanos() / 1_000,
            ),
        ];
        for (name, v) in counters {
            reg.counter_set(&format!("{prefix}.{name}"), v);
        }
        reg.counter_set(
            &format!("{prefix}.delivery_latency_max_us"),
            self.delivery_latency_max.as_nanos() / 1_000,
        );
        let gauges: [(&str, f64); 7] = [
            ("jitter_us", self.jitter_us),
            ("srtt_us", self.srtt_us),
            ("rttvar_us", self.rttvar_us),
            ("rto_us", self.rto_us),
            ("cwnd_adus", self.cwnd_adus),
            ("cwnd_peak_adus", self.cwnd_peak_adus),
            ("delivery_rate_mbps", self.delivery_rate_mbps),
        ];
        for (name, v) in gauges {
            reg.gauge_set(&format!("{prefix}.{name}"), v);
        }
    }
}
