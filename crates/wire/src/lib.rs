//! # ct-wire — byte-level data-manipulation substrate
//!
//! This crate implements the *data manipulation* functions that Clark and
//! Tennenhouse (SIGCOMM 1990) identify as the dominant cost of protocol
//! processing: moving data, error-detection codes, byte-order / format
//! conversion, and — centrally for the paper's Integrated Layer Processing
//! (ILP) argument — **fused** kernels that perform several manipulations in a
//! single pass over memory.
//!
//! The design deliberately exposes each memory pass to the caller. Nothing in
//! this crate hides a copy: if a function touches every byte, its name and
//! documentation say so. This makes the crate usable both as a production
//! building block and as an honest measurement substrate for the paper's
//! Table 1 and the §4 fusion experiments.
//!
//! ## Module map
//!
//! * [`copy`] — data-movement kernels: byte-wise, word-wise, and unrolled.
//! * [`checksum`] — error-detection codes: Internet (RFC 1071) one's
//!   complement, Fletcher-16/32, Adler-32, CRC-32 — rolled and unrolled.
//! * [`swap`] — byte-order (presentation-adjacent) conversion kernels.
//! * [`fused`] — the ILP kernel: copy+checksum in one pass.
//! * [`header`] — safe, explicit header field encode/decode helpers used by
//!   the protocol crates above this one.
//! * [`wirebuf`] — reference-counted sliceable buffer views ([`WireBuf`]),
//!   the zero-copy datapath's unit of ownership: fragmentation is slicing,
//!   reassembly is holding views, retransmission is re-cloning.
//!
//! ## Determinism and portability
//!
//! All kernels are portable safe Rust (no SIMD intrinsics, no `unsafe`): the
//! paper's point is architectural — fewer memory passes win — and holds for
//! any load/store machine. Unrolled variants mirror the paper's hand-unrolled
//! assembly loops.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod checksum;
pub mod copy;
pub mod fused;
pub mod header;
pub mod swap;
pub mod wirebuf;

pub use checksum::{crc32, fletcher32, internet_checksum, InternetChecksum};
pub use copy::{copy_bytes, copy_words_unrolled};
pub use fused::copy_and_checksum;
pub use wirebuf::WireBuf;

/// Number of bits per byte; used in throughput arithmetic (`Mb/s` figures).
pub const BITS_PER_BYTE: u64 = 8;

/// Convert a `(bytes, seconds)` measurement into megabits per second, the
/// unit the paper reports ("the normal rating for protocols, if not hosts").
///
/// Returns 0.0 for a zero or negative duration so harness code never panics
/// on a degenerate timer reading.
pub fn mbps(bytes: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    (bytes as f64 * BITS_PER_BYTE as f64) / (seconds * 1_000_000.0)
}

/// The *serial-effective* throughput of running two manipulation passes one
/// after the other, each at its own rate: `1 / (1/a + 1/b)`.
///
/// This is the arithmetic the paper applies to its 130 Mb/s copy and
/// 115 Mb/s checksum to conclude that a layered implementation achieves
/// "about 60 Mb/s", which the 90 Mb/s fused loop then beats.
pub fn serial_effective_mbps(a: f64, b: f64) -> f64 {
    if a <= 0.0 || b <= 0.0 {
        return 0.0;
    }
    1.0 / (1.0 / a + 1.0 / b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_basic() {
        // 1_000_000 bytes in 1 second = 8 Mb/s.
        assert!((mbps(1_000_000, 1.0) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn mbps_zero_duration_is_zero() {
        assert_eq!(mbps(1024, 0.0), 0.0);
        assert_eq!(mbps(1024, -1.0), 0.0);
    }

    #[test]
    fn serial_effective_matches_paper_example() {
        // Paper: copy 130, checksum 115 => "about 60 Mb/s".
        let eff = serial_effective_mbps(130.0, 115.0);
        assert!(eff > 59.0 && eff < 62.0, "got {eff}");
    }

    #[test]
    fn serial_effective_degenerate() {
        assert_eq!(serial_effective_mbps(0.0, 100.0), 0.0);
        assert_eq!(serial_effective_mbps(100.0, 0.0), 0.0);
    }

    #[test]
    fn serial_effective_symmetric() {
        let a = serial_effective_mbps(10.0, 40.0);
        let b = serial_effective_mbps(40.0, 10.0);
        assert!((a - b).abs() < 1e-12);
        assert!((a - 8.0).abs() < 1e-9);
    }
}
