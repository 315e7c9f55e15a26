//! Network statistics.
//!
//! [`NetStats`] is the always-on counter block. Per-frame events go to the
//! `ct_telemetry::Telemetry` handle attached with
//! `crate::net::Network::attach_telemetry` — its counters (`net.frame_*`)
//! and, when tracing is armed, its flight recorder — so net events sit
//! beside transport and pipeline events in one ring.

use std::fmt;

/// What happened to a frame at a trace point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameEvent {
    /// Injected by a sender.
    Sent,
    /// Delivered to the destination inbox.
    Delivered,
    /// Forwarded at an intermediate hop.
    Forwarded,
    /// Dropped by fault injection.
    FaultDropped,
    /// Dropped by a full transmit queue.
    CongestionDropped,
    /// Payload corrupted in transit.
    Corrupted,
}

/// Cumulative counters maintained by [`crate::net::Network`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames injected by senders.
    pub frames_sent: u64,
    /// Frames that reached their destination inbox (duplicates count).
    pub frames_delivered: u64,
    /// Payload bytes injected.
    pub bytes_sent: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Frames silently dropped by fault injection.
    pub fault_drops: u64,
    /// Frames dropped by full transmit queues (congestion).
    pub congestion_drops: u64,
    /// Frames that had a bit flipped in transit.
    pub corrupted: u64,
    /// Extra copies delivered by duplication faults.
    pub duplicates: u64,
    /// Store-and-forward operations at intermediate nodes.
    pub hops_forwarded: u64,
    /// Frames mutated in place by an adversarial [`crate::fault::Mutator`]
    /// (truncated, extended, or header-flipped).
    pub mutated: u64,
    /// Adversarial frames injected (replays and forgeries).
    pub injected: u64,
}

impl NetStats {
    /// Fraction of sent frames lost to any cause, in `[0, 1]`.
    pub fn loss_rate(&self) -> f64 {
        if self.frames_sent == 0 {
            return 0.0;
        }
        let lost = self.fault_drops + self.congestion_drops;
        lost as f64 / self.frames_sent as f64
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent {} ({} B), delivered {} ({} B), drops {} fault / {} congestion, \
             corrupted {}, dup {}, forwarded {}, mutated {}, injected {}",
            self.frames_sent,
            self.bytes_sent,
            self.frames_delivered,
            self.bytes_delivered,
            self.fault_drops,
            self.congestion_drops,
            self.corrupted,
            self.duplicates,
            self.hops_forwarded,
            self.mutated,
            self.injected,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_rate_computation() {
        let s = NetStats {
            frames_sent: 100,
            fault_drops: 15,
            congestion_drops: 5,
            ..NetStats::default()
        };
        assert!((s.loss_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn loss_rate_no_traffic() {
        assert_eq!(NetStats::default().loss_rate(), 0.0);
    }

    #[test]
    fn display_contains_counts() {
        let s = NetStats {
            frames_sent: 3,
            frames_delivered: 2,
            ..NetStats::default()
        };
        let out = s.to_string();
        assert!(out.contains("sent 3"));
        assert!(out.contains("delivered 2"));
    }
}
