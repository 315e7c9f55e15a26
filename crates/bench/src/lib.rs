//! Shared measurement utilities for the benchmark harness and the
//! Criterion benches.
//!
//! The paper reports manipulation costs in **Mb/s** ("the normal rating for
//! protocols, if not hosts"); [`time_mbps`] produces that number for any
//! closure that touches a known number of bytes per call. Wall-clock
//! (monotonic) time measures CPU cost; simulated time (from `ct-netsim`)
//! measures protocol dynamics — the two are never mixed in one number.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Minimum measurement window. Long enough to amortise timer noise, short
/// enough that the full harness stays interactive.
pub const MEASURE_WINDOW: Duration = Duration::from_millis(200);

/// Measure the throughput of `f` in megabits per second, where each call
/// processes `bytes_per_iter` bytes. Runs a warm-up call, then iterates
/// for at least [`MEASURE_WINDOW`].
pub fn time_mbps<F: FnMut()>(bytes_per_iter: usize, mut f: F) -> f64 {
    f(); // warm-up (page in buffers, build tables)
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        // Check the clock in batches to keep timer overhead negligible.
        if iters.is_multiple_of(8) && start.elapsed() >= MEASURE_WINDOW {
            break;
        }
        if iters >= 1 << 30 {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    ct_wire::mbps(bytes_per_iter as u64 * iters, secs)
}

/// Measure the mean wall-clock nanoseconds per call of `f`.
pub fn time_ns_per_call<F: FnMut()>(mut f: F) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        if iters.is_multiple_of(64) && start.elapsed() >= MEASURE_WINDOW {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Wall-clock nanoseconds of two alternatives, for a bound on their
/// *difference*: `side(false)` and `side(true)` alternate rep by rep, so a
/// drift in machine speed hits both alike, and each keeps its minimum (noise
/// only ever adds time, so the least-disturbed rep is closest to the code's
/// cost). Returns `(min of side(false), min of side(true))`.
pub fn interleaved_min_ns(reps: usize, mut side: impl FnMut(bool) -> f64) -> (f64, f64) {
    let mut min = [f64::INFINITY; 2];
    for _ in 0..reps {
        for second in [false, true] {
            let m = &mut min[usize::from(second)];
            *m = m.min(side(second));
        }
    }
    (min[0], min[1])
}

/// Whether nanosecond bounds are enforced (`WALLCLOCK=1`). On a shared
/// machine a wall-clock gate fails first-attempt for reasons that are not in
/// the code, so by default such a bound is printed as an observation and
/// what it protects is asserted by a count instead.
pub fn wallclock_enforced() -> bool {
    std::env::var_os("WALLCLOCK").is_some_and(|v| v == "1")
}

/// The per-frame control steps of the ALF transport that T2 times, each with
/// the heap allocations it makes once the endpoints are warm. The counts are
/// measured — `tests/alloc_budget.rs` asserts them under a counting global
/// allocator — and `harness t2` prints them beside the nanoseconds.
pub const ALF_CONTROL_STEPS: [(&str, u64); 4] = [
    // The frame's `WireBuf` chunk header; the ADU is released as a view.
    ("ALF: ingest one single-TU frame", 1),
    // The chunk header; the ids are read off the frame in place.
    ("ALF: ingest one ACK", 1),
    // The result `Vec` and the encoded frame.
    ("ALF: emitting poll (one TU)", 2),
    ("ALF: idle poll", 0),
];

/// The paper's standard workload: an array of `n` 32-bit integers with
/// deterministic, varied values (so BER integer bodies take 1–5 bytes the
/// way real data does).
pub fn u32_workload(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761).rotate_left(i % 13))
        .collect()
}

/// A deterministic byte buffer of `n` bytes.
pub fn byte_workload(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| (i.wrapping_mul(131) ^ (i >> 5)) as u8)
        .collect()
}

/// Pretty table printer: fixed-width columns, left-aligned first column.
pub struct Table {
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table from a header row.
    pub fn new(header: &[&str]) -> Self {
        let mut t = Table {
            widths: header.iter().map(|h| h.len()).collect(),
            rows: Vec::new(),
        };
        t.row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        t
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        for (i, c) in cells.iter().enumerate() {
            if i >= self.widths.len() {
                self.widths.push(c.len());
            } else {
                self.widths[i] = self.widths[i].max(c.len());
            }
        }
        self.rows.push(cells.to_vec());
    }

    /// Render to a string with a separator under the header.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (ri, row) in self.rows.iter().enumerate() {
            for (i, c) in row.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("{:<width$}", c, width = self.widths[0] + 2));
                } else {
                    out.push_str(&format!("{:>width$}", c, width = self.widths[i] + 2));
                }
            }
            out.push('\n');
            if ri == 0 {
                let total: usize = self.widths.iter().map(|w| w + 2).sum();
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        out
    }
}

/// Format a float with sensible precision for table cells.
pub fn fmt_f(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_mbps_positive_and_sane() {
        let buf = byte_workload(64 * 1024);
        let mut dst = vec![0u8; buf.len()];
        let rate = time_mbps(buf.len(), || dst.copy_from_slice(&buf));
        assert!(rate > 100.0, "memcpy should exceed 100 Mb/s, got {rate}");
    }

    #[test]
    fn ns_per_call_positive() {
        let ns = time_ns_per_call(|| {
            std::hint::black_box(1 + 1);
        });
        assert!(ns > 0.0 && ns < 1e6);
    }

    #[test]
    fn workloads_deterministic() {
        assert_eq!(u32_workload(100), u32_workload(100));
        assert_eq!(byte_workload(100), byte_workload(100));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "Mb/s"]);
        t.row(&["copy".into(), "130".into()]);
        t.row(&["checksum".into(), "115".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("----"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn fmt_f_precision() {
        assert_eq!(fmt_f(1234.5), "1234");
        assert_eq!(fmt_f(12.34), "12.3");
        assert_eq!(fmt_f(1.234), "1.23");
    }
}
