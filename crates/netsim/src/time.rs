//! Virtual time for the simulator.
//!
//! [`SimTime`] is a monotone nanosecond count from simulation start. The
//! simulator, not the OS, owns time: protocols running over `ct-netsim`
//! observe only `SimTime`, which is what makes every experiment replayable.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds from simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant (used as an "infinite" timeout).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference (`self - earlier`), zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating multiply by an integer factor.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// The time it takes to serialize `bytes` onto a link of
    /// `bits_per_second` capacity, rounded up to the next nanosecond.
    pub fn serialization(bytes: usize, bits_per_second: u64) -> SimDuration {
        if bits_per_second == 0 {
            return SimDuration::ZERO; // "infinite" capacity link
        }
        // Every frame on a paced link comes through here, and a 128-bit
        // divide is a library call: stay in `u64` whenever the numerator
        // fits (frames up to 2.3 GB do). No measured gain is claimed for
        // it: the paced workloads read within noise either way.
        if let Some(bit_ns) = (bytes as u64).checked_mul(8 * 1_000_000_000) {
            return SimDuration(bit_ns.div_ceil(bits_per_second));
        }
        let bit_ns = bytes as u128 * (8 * 1_000_000_000);
        let ns = bit_ns.div_ceil(bits_per_second as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_nanos(self.0, f)
    }
}

/// Shared Display logic: pick the most readable unit.
fn fmt_nanos(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_millis(5));
        let mut t2 = SimTime::ZERO;
        t2 += SimDuration::from_nanos(7);
        assert_eq!(t2.as_nanos(), 7);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(9);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(4));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn serialization_delay() {
        // 1000 bytes at 8 Mb/s = 8000 bits / 8e6 bps = 1 ms.
        assert_eq!(
            SimDuration::serialization(1000, 8_000_000),
            SimDuration::from_millis(1)
        );
        // Zero-rate means "no serialization delay" (infinite-capacity model).
        assert_eq!(SimDuration::serialization(1000, 0), SimDuration::ZERO);
        // Rounds up: 1 byte at 1 Tb/s is 8 bits / 1e12 bps = 0.008 ns -> 1 ns.
        assert_eq!(
            SimDuration::serialization(1, 1_000_000_000_000).as_nanos(),
            1
        );
    }

    #[test]
    fn serialization_u64_and_u128_paths_agree() {
        // What the function computed before it had a fast path.
        fn wide(bytes: usize, bps: u64) -> u64 {
            let ns = (bytes as u128 * 8 * 1_000_000_000).div_ceil(bps as u128);
            ns.min(u64::MAX as u128) as u64
        }
        // The largest frame whose bit-nanoseconds fit in a u64, and around it.
        let edge = (u64::MAX / 8_000_000_000) as usize;
        assert!((edge as u64).checked_mul(8_000_000_000).is_some());
        assert!((edge as u64 + 1).checked_mul(8_000_000_000).is_none());
        let sizes = [
            0,
            1,
            64,
            1430,
            9000,
            65_535,
            edge - 1,
            edge,
            edge + 1,
            edge + 2,
            usize::MAX,
        ];
        let rates = [
            1,
            3,
            7,
            10_000_000,
            100_000_000,
            1_000_000_000,
            999_999_937,
            u64::MAX - 1,
            u64::MAX,
        ];
        for bytes in sizes {
            for bps in rates {
                assert_eq!(
                    SimDuration::serialization(bytes, bps).as_nanos(),
                    wide(bytes, bps),
                    "{bytes} B at {bps} b/s"
                );
            }
        }
        // At the top rate anything non-empty rounds up to one nanosecond,
        // and the slowest link saturates rather than wrapping.
        assert_eq!(SimDuration::serialization(1430, u64::MAX).as_nanos(), 1);
        assert_eq!(
            SimDuration::serialization(usize::MAX, 1).as_nanos(),
            u64::MAX
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_nanos(500).to_string(), "500ns");
        assert_eq!(SimTime::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimTime::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert!(SimTime::from_nanos(1) < SimTime::MAX);
    }

    #[test]
    fn checked_add_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_nanos(1)),
            Some(SimTime::from_nanos(1))
        );
    }
}
