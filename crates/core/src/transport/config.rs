//! Configuration and application-facing types of the ALF endpoint:
//! recovery policy, static tuning knobs, send errors, loss reports.

use crate::adu::AduName;
use ct_netsim::time::SimDuration;

/// §5's three options for dealing with a lost ADU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryMode {
    /// "buffering by the sender transport": the transport keeps a copy of
    /// every unacknowledged ADU and retransmits the whole ADU on timeout or
    /// NACK. Costs sender memory proportional to the window.
    TransportBuffer,
    /// "recomputation by the sending application": the transport keeps only
    /// the ADU's name; on loss it asks the application to regenerate the
    /// payload (via [`AduTransport::take_recompute_requests`](super::AduTransport::take_recompute_requests) /
    /// [`AduTransport::provide_recomputed`](super::AduTransport::provide_recomputed)).
    AppRecompute,
    /// "proceeding without retransmission": real-time traffic; losses are
    /// reported to the receiving application by name and never repaired.
    NoRetransmit,
}

/// Static configuration of an [`AduTransport`](super::AduTransport).
///
/// An endpoint holds it behind a shared pointer, so every association of a
/// server built from the same configuration reads one copy (see
/// [`AduTransport::with_template`](super::AduTransport::with_template)).
/// `repr(C)`, with the fields every `send_adu` / `poll` / `on_frame`
/// branches on declared first: they are the first 64 of its 120 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct AlfConfig {
    /// Association identifier carried in every message. An endpoint made
    /// from a shared template carries its own id instead
    /// ([`AduTransport::assoc`](super::AduTransport::assoc)).
    pub assoc: u16,
    /// Loss-recovery policy.
    pub recovery: RecoveryMode,
    /// Stamp each outgoing TU with a sender timestamp (µs, wrapping) so the
    /// receiver can regenerate inter-packet timing — §3's *timestamping*
    /// transfer control. The receiver then maintains an RTP-style
    /// interarrival jitter estimate in [`AlfStats::jitter_us`](super::AlfStats::jitter_us).
    pub timestamps: bool,
    /// Adaptive transfer control — the out-of-band "smart" control of §3:
    /// (1) every released TU is stamped and the receiver echoes the stamp
    /// in its ACKs, feeding a Jacobson/Karels SRTT/RTTVAR estimator that
    /// replaces `retransmit_timeout` as the RTO base; (2) an AIMD
    /// congestion window in ADU units gates first transmissions in
    /// `poll()` (the static `window_adus` remains only as the application
    /// backpressure bound); (3) `pace_per_tu` is re-derived from the
    /// measured delivery rate. Off by default — the fixed timers then
    /// apply unchanged.
    pub adaptive: bool,
    /// Maximum unacknowledged ADUs before `send_adu` refuses
    /// (ignored — effectively unlimited — under [`RecoveryMode::NoRetransmit`]).
    pub window_adus: usize,
    /// Maximum TU payload (fragment) size.
    pub mtu_payload: usize,
    /// Maximum data TUs released per `poll` — a burst cap on top of
    /// `pace_per_tu`.
    pub burst_tus: usize,
    /// Forward error correction: group size `k` for single-erasure XOR
    /// parity across an ADU's TUs (one parity TU per `k` data TUs).
    /// 0 disables FEC. See [`crate::fec`].
    pub fec_group: usize,
    /// Declare the peer unreachable after this long with outstanding work
    /// and no inbound traffic (`ZERO` = never give up). On expiry every
    /// in-flight and queued ADU is reported lost by name,
    /// [`AduTransport::peer_unreachable`](super::AduTransport::peer_unreachable) turns true, and `send_adu`
    /// refuses with [`SendRefused::PeerUnreachable`] until the peer is
    /// heard from again.
    pub peer_timeout: SimDuration,
    /// Sender retransmission deadline per ADU.
    pub retransmit_timeout: SimDuration,
    /// Minimum spacing between consecutive TU releases (token pacing).
    /// `ZERO` disables pacing. The paper puts transfer-rate computation
    /// out of band (§3); the driver plays that role by deriving the pace
    /// from the link's serialization time, and adaptive mode re-derives
    /// it continuously from the measured delivery rate.
    pub pace_per_tu: SimDuration,
    // ---- consulted off the fault-free path only ----
    /// Give up after this many whole-ADU loss events (timeouts, whole-ADU
    /// NACKs) and declare the ADU lost (sender side). Answering a
    /// selective NACK is not one — up to `max_retries x nack_frag_rounds`
    /// of them, the most an honest receiver asks for. Each count is held
    /// in 16 bits, so either bound beyond 65 535 acts as 65 535.
    pub max_retries: u32,
    /// Selective-recovery rounds: how many times the receiver NACKs an
    /// overdue ADU's *missing fragments* (deadline restarting each round)
    /// before declaring the whole ADU lost. 0 disables sub-ADU recovery.
    pub nack_frag_rounds: u32,
    /// Receiver reassembly deadline: an incomplete ADU older than this is
    /// abandoned and NACKed.
    pub assembly_timeout: SimDuration,
    /// Receiver reassembly budget (concurrent partial ADUs).
    pub max_partial_adus: usize,
    /// Lower clamp on the adaptive RTO (guards against spurious
    /// retransmission when the RTT variance collapses).
    pub rto_min: SimDuration,
    /// Upper clamp on the adaptive RTO.
    pub rto_max: SimDuration,
    /// Receiver reassembly budget in **bytes** (0 = unlimited). When set,
    /// every ACK advertises the free budget as the receiver window, the
    /// sender holds first transmissions to `min(cwnd, rwnd)`, and overload
    /// sheds per the recovery mode: drop-oldest for
    /// [`RecoveryMode::NoRetransmit`], backpressure (refuse, sender
    /// retransmits) for the buffered modes — never silent loss.
    pub reassembly_budget_bytes: usize,
    /// Receiver occupancy quota: maximum fragment views a partial ADU may
    /// hold (0 = unlimited). In-order bytes are copied into the ADU's
    /// buffer as they arrive; only a fragment ahead of a hole is held, as
    /// a view of the frame that carried it, so legitimate traffic holds at
    /// most one view per reordered TU. A hostile peer shredding one ADU
    /// into thousands of tiny disjoint fragments (each pinning its whole
    /// arrival frame) trips the quota and the assembly is evicted and
    /// NACKed. The quota also caps an assembly's up-front buffer
    /// reservation at `max_frag_views` × its first fragment's length —
    /// the largest ADU a fragmentation within the quota could carry — so
    /// a forged `adu_len` reserves no more than that (beyond it the buffer
    /// grows by doubling, and never past the bytes actually received).
    /// Combined with `max_partial_adus` this bounds total reassembly
    /// occupancy per association.
    pub max_frag_views: usize,
}

impl Default for AlfConfig {
    fn default() -> Self {
        Self {
            assoc: 1,
            mtu_payload: 1400,
            recovery: RecoveryMode::TransportBuffer,
            window_adus: 64,
            retransmit_timeout: SimDuration::from_millis(50),
            max_retries: 10,
            assembly_timeout: SimDuration::from_millis(30),
            max_partial_adus: 256,
            timestamps: false,
            fec_group: 0,
            nack_frag_rounds: 3,
            burst_tus: 12,
            pace_per_tu: SimDuration::ZERO,
            adaptive: false,
            rto_min: SimDuration::from_micros(500),
            rto_max: SimDuration::from_secs(2),
            reassembly_budget_bytes: 0,
            peer_timeout: SimDuration::ZERO,
            max_frag_views: 4096,
        }
    }
}

/// A loss the sender reports to its application, in application terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossReport {
    /// The lost ADU's id.
    pub adu_id: u64,
    /// The lost ADU's application-level name.
    pub name: AduName,
}

/// Error from [`AduTransport::send_adu`](super::AduTransport::send_adu).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendRefused {
    /// The unacknowledged-ADU window is full; poll and retry.
    WindowFull,
    /// The *receiver* is pushing back: its advertised reassembly window has
    /// no room, so the local window filled while waiting on the peer.
    /// Distinct from [`SendRefused::WindowFull`] so applications can tell
    /// receiver overload from their own window sizing.
    Backpressured,
    /// ADU larger than the u32 length field permits.
    TooBig,
    /// The peer has been silent past `peer_timeout`; see
    /// [`AduTransport::peer_unreachable`](super::AduTransport::peer_unreachable).
    PeerUnreachable,
}

impl std::fmt::Display for SendRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendRefused::WindowFull => write!(f, "ADU window full"),
            SendRefused::Backpressured => write!(f, "receiver window exhausted (backpressure)"),
            SendRefused::TooBig => write!(f, "ADU exceeds 4 GiB limit"),
            SendRefused::PeerUnreachable => write!(f, "peer unreachable"),
        }
    }
}

impl std::error::Error for SendRefused {}
