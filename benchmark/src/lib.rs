//! The alfnet benchmark: five workloads over the repository's protocol
//! stack, end-to-end metrics measured with tracing off, and per-layer spans
//! timed from outside the stack. See `README.md` beside this package.
//!
//! Traffic never crosses a real link or the loopback interface: `ct-netsim`
//! carries every frame in-process. Wall-clock metrics are therefore the host
//! CPU cost of stack + simulator, simulated-time metrics are protocol
//! behaviour, and the two are never mixed in one number.

pub mod alloc;
pub mod gen;
pub mod probes;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
