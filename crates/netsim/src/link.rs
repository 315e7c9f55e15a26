//! Link model: capacity, propagation delay and a bounded transmit queue.
//!
//! A link transmits one frame at a time. A frame arriving while the
//! transmitter is busy waits in a bounded drop-tail queue — the "congestion
//! overflow" loss source of §3. Delivery time for a frame accepted at `t` is
//!
//! ```text
//! start  = max(t, transmitter_free_at)
//! finish = start + serialization(len, bandwidth)
//! arrive = finish + propagation
//! ```
//!
//! The queue is the set of accepted frames whose `finish` is still ahead of
//! the clock: it drains frame by frame as those instants pass, so a link
//! kept busy forever by a sender that never has more than `queue_frames`
//! outstanding refuses nothing.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Static configuration of one unidirectional link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Capacity in bits per second. `0` means infinite (no serialization
    /// delay) — useful for pure-loss experiments.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Maximum frames that may be queued awaiting the transmitter
    /// (excluding the frame in flight). Beyond this, drop-tail.
    pub queue_frames: usize,
    /// Frames longer than this are rejected outright (the physical MTU).
    pub mtu: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self {
            bandwidth_bps: 100_000_000, // 100 Mb/s, the paper's era of "fast"
            propagation: SimDuration::from_micros(50),
            queue_frames: 64,
            mtu: 9000,
        }
    }
}

impl LinkConfig {
    /// A LAN-ish profile: 100 Mb/s, 50 µs, deep queue.
    pub fn lan() -> Self {
        Self::default()
    }

    /// A gigabit profile (the paper's "coming networks").
    pub fn gigabit() -> Self {
        Self {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::from_micros(20),
            queue_frames: 256,
            mtu: 9000,
        }
    }

    /// A WAN profile: 10 Mb/s, 10 ms, shallow queue — congests easily.
    pub fn wan() -> Self {
        Self {
            bandwidth_bps: 10_000_000,
            propagation: SimDuration::from_millis(10),
            queue_frames: 16,
            mtu: 1500,
        }
    }

    /// An idealized link with no serialization delay and a huge queue, for
    /// experiments that want loss/reordering semantics without queueing
    /// artifacts.
    pub fn ideal() -> Self {
        Self {
            bandwidth_bps: 0,
            propagation: SimDuration::from_micros(10),
            queue_frames: usize::MAX,
            mtu: usize::MAX,
        }
    }
}

/// Why a link refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkRefusal {
    /// Frame exceeds the MTU.
    TooBig {
        /// Frame length.
        len: usize,
        /// Link MTU.
        mtu: usize,
    },
    /// Transmit queue full (congestion drop).
    QueueFull,
}

/// Dynamic state of one unidirectional link direction: when the
/// transmitter frees up and which frames are still ahead of it.
#[derive(Debug, Clone)]
pub struct LinkState {
    config: LinkConfig,
    /// Simulated instant at which the transmitter finishes everything
    /// currently accepted.
    free_at: SimTime,
    /// Transmit-finish times of the accepted frames not yet fully on the
    /// wire, oldest first (the frame in transmission, then those waiting).
    /// Its length is the occupancy `queue_frames` bounds.
    unfinished: VecDeque<SimTime>,
    /// Cumulative accepted frames.
    pub accepted: u64,
    /// Cumulative congestion drops.
    pub congestion_drops: u64,
}

impl LinkState {
    /// Fresh link state.
    pub fn new(config: LinkConfig) -> Self {
        Self {
            config,
            free_at: SimTime::ZERO,
            unfinished: VecDeque::new(),
            accepted: 0,
            congestion_drops: 0,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Offer a frame of `len` bytes at time `now`. On acceptance returns
    /// the arrival time at the far end.
    pub fn offer(&mut self, now: SimTime, len: usize) -> Result<SimTime, LinkRefusal> {
        if len > self.config.mtu {
            return Err(LinkRefusal::TooBig {
                len,
                mtu: self.config.mtu,
            });
        }
        // The queue drains frame by frame: everything the transmitter has
        // finished by `now` is gone. What remains is one frame on the wire
        // plus those waiting behind it.
        while self.unfinished.front().is_some_and(|&t| t <= now) {
            self.unfinished.pop_front();
        }
        if self.unfinished.len() > self.config.queue_frames {
            self.congestion_drops += 1;
            return Err(LinkRefusal::QueueFull);
        }
        let start = self.free_at.max(now);
        let ser = SimDuration::serialization(len, self.config.bandwidth_bps);
        let finish = start + ser;
        self.free_at = finish;
        if finish > now {
            self.unfinished.push_back(finish);
        }
        self.accepted += 1;
        Ok(finish + self.config.propagation)
    }

    /// Instant the transmitter becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_plus_propagation() {
        // 8 Mb/s, 1 ms propagation: 1000 bytes serialize in 1 ms, arrive at 2 ms.
        let cfg = LinkConfig {
            bandwidth_bps: 8_000_000,
            propagation: SimDuration::from_millis(1),
            queue_frames: 4,
            mtu: 1500,
        };
        let mut link = LinkState::new(cfg);
        let arrive = link.offer(SimTime::ZERO, 1000).unwrap();
        assert_eq!(arrive, SimTime::from_millis(2));
    }

    #[test]
    fn back_to_back_frames_queue_behind_transmitter() {
        let cfg = LinkConfig {
            bandwidth_bps: 8_000_000,
            propagation: SimDuration::ZERO,
            queue_frames: 10,
            mtu: 1500,
        };
        let mut link = LinkState::new(cfg);
        let a = link.offer(SimTime::ZERO, 1000).unwrap(); // 0..1ms
        let b = link.offer(SimTime::ZERO, 1000).unwrap(); // 1..2ms
        assert_eq!(a, SimTime::from_millis(1));
        assert_eq!(b, SimTime::from_millis(2));
    }

    #[test]
    fn transmitter_idles_between_spaced_frames() {
        let cfg = LinkConfig {
            bandwidth_bps: 8_000_000,
            propagation: SimDuration::ZERO,
            queue_frames: 10,
            mtu: 1500,
        };
        let mut link = LinkState::new(cfg);
        link.offer(SimTime::ZERO, 1000).unwrap();
        // Second frame offered well after the first finished.
        let b = link.offer(SimTime::from_millis(5), 1000).unwrap();
        assert_eq!(b, SimTime::from_millis(6));
    }

    #[test]
    fn mtu_enforced() {
        let mut link = LinkState::new(LinkConfig {
            mtu: 100,
            ..LinkConfig::default()
        });
        assert_eq!(
            link.offer(SimTime::ZERO, 101),
            Err(LinkRefusal::TooBig { len: 101, mtu: 100 })
        );
        assert!(link.offer(SimTime::ZERO, 100).is_ok());
    }

    #[test]
    fn queue_overflow_drops() {
        let cfg = LinkConfig {
            bandwidth_bps: 8_000_000, // 1000B = 1ms each
            propagation: SimDuration::ZERO,
            queue_frames: 2,
            mtu: 1500,
        };
        let mut link = LinkState::new(cfg);
        // Offer many frames at t=0; after (1 in flight + 2 queued) the rest drop.
        let mut ok = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match link.offer(SimTime::ZERO, 1000) {
                Ok(_) => ok += 1,
                Err(LinkRefusal::QueueFull) => dropped += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(ok, 3);
        assert_eq!(dropped, 7);
        assert_eq!(link.congestion_drops, 7);
        // After the queue drains, frames are accepted again.
        assert!(link.offer(SimTime::from_millis(10), 1000).is_ok());
    }

    /// 1000-byte frames on an 8 Mb/s link: 1 ms each.
    fn ms_per_frame(queue_frames: usize) -> LinkState {
        LinkState::new(LinkConfig {
            bandwidth_bps: 8_000_000,
            propagation: SimDuration::ZERO,
            queue_frames,
            mtu: 1500,
        })
    }

    #[test]
    fn busy_link_with_bounded_backlog_refuses_nothing() {
        // A paced sender tops the link back up to `queue_frames`
        // outstanding every millisecond, so the transmitter never idles.
        // Counting frames accepted since it was last idle (the old model)
        // refuses everything after the first `queue_frames + 1`.
        let mut link = ms_per_frame(4);
        for _ in 0..4 {
            link.offer(SimTime::ZERO, 1000).unwrap();
        }
        for ms in 1..10_000 {
            let now = SimTime::from_millis(ms);
            assert!(link.free_at() > now, "transmitter went idle at {now}");
            link.offer(now, 1000).unwrap();
        }
        assert_eq!(link.congestion_drops, 0);
        assert_eq!(link.accepted, 4 + 9_999);
    }

    #[test]
    fn burst_one_past_the_queue_refuses_exactly_one() {
        // One frame on the wire + `queue_frames` waiting fit; the next does not.
        let mut link = ms_per_frame(5);
        let refused = (0..5 + 2)
            .filter(|_| link.offer(SimTime::ZERO, 1000) == Err(LinkRefusal::QueueFull))
            .count();
        assert_eq!(refused, 1);
        assert_eq!(link.congestion_drops, 1);
        assert_eq!(link.accepted, 6);
    }

    #[test]
    fn occupancy_decays_frame_by_frame() {
        let mut link = ms_per_frame(3);
        for _ in 0..4 {
            link.offer(SimTime::ZERO, 1000).unwrap(); // finish at 1, 2, 3, 4 ms
        }
        assert_eq!(
            link.offer(SimTime::from_micros(999), 1000),
            Err(LinkRefusal::QueueFull),
            "nothing has finished yet"
        );
        // Each finish time that passes makes room for exactly one frame.
        for ms in 1..=4 {
            let now = SimTime::from_millis(ms);
            assert!(link.offer(now, 1000).is_ok(), "one slot at {now}");
            assert_eq!(link.offer(now, 1000), Err(LinkRefusal::QueueFull));
        }
        assert_eq!(link.congestion_drops, 5);
    }

    #[test]
    fn ideal_link_never_queues() {
        let mut link = LinkState::new(LinkConfig::ideal());
        for _ in 0..100_000 {
            link.offer(SimTime::ZERO, 9000).unwrap();
        }
        assert_eq!(link.congestion_drops, 0);
        assert!(link.unfinished.is_empty(), "nothing ever waits");
        // Not even with no queue at all: a frame that takes no time to send
        // is never in the transmitter's way.
        let mut link = LinkState::new(LinkConfig {
            queue_frames: 0,
            ..LinkConfig::ideal()
        });
        for _ in 0..1000 {
            link.offer(SimTime::ZERO, 9000).unwrap();
        }
    }

    #[test]
    fn infinite_bandwidth_has_no_serialization() {
        let mut link = LinkState::new(LinkConfig::ideal());
        let arrive = link.offer(SimTime::from_millis(3), 1_000_000).unwrap();
        assert_eq!(
            arrive,
            SimTime::from_millis(3) + SimDuration::from_micros(10)
        );
    }

    #[test]
    fn profiles_sane() {
        assert!(LinkConfig::gigabit().bandwidth_bps > LinkConfig::lan().bandwidth_bps);
        assert!(LinkConfig::wan().propagation > LinkConfig::lan().propagation);
    }
}
