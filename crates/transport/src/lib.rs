//! # ct-transport — the layered byte-stream baseline
//!
//! A from-scratch TCP-like transport and the *layered* protocol stack built
//! on it. This crate is the paper's straw man, implemented faithfully and
//! competently: the architecture the paper critiques has to be real for the
//! critique to be measurable.
//!
//! Per §3, only the **data-transfer phase** is modelled — connection setup,
//! service location etc. "do not occur at the same time as data transfer"
//! and are out of scope. What is here:
//!
//! * [`segment`] — the wire format: sequence/ack numbers, window, flags and
//!   an Internet checksum over the whole segment.
//! * [`stream`] — [`stream::StreamTransport`]: a symmetric, poll-driven
//!   endpoint with cumulative ACKs, RTT-estimated retransmission timeout
//!   with exponential backoff, triple-duplicate-ACK fast retransmit,
//!   AIMD congestion control (slow start + congestion avoidance), sliding-
//!   window flow control, and **strict in-order delivery** — the property
//!   that creates head-of-line blocking when the network loses or reorders
//!   (§5: "a lost packet stops the application from performing presentation
//!   conversion").
//! * [`driver`] — glue that runs a pair of transports over a
//!   [`ct_netsim::Network`], with timer integration.
//! * [`stack`] — the **layered stack** (experiment E4): presentation,
//!   encryption, integrity and the app copy executed as separate passes
//!   with intermediate buffers, each pass timed so the harness can report
//!   how much of the stack's overhead each layer accounts for.
//!
//! The transport instruments exactly the quantities the paper argues about:
//! in-band control cost per segment (T2), retransmissions, and the
//! out-of-order hold-up delay that ALF eliminates (X1).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod buf;
pub mod driver;
pub mod segment;
pub mod stack;
pub mod stream;

pub use driver::{run_transfer, run_transfer_telemetry, TransferReport, TransportPair};
pub use segment::{Segment, SegmentError, HEADER_BYTES};
pub use stream::{StreamConfig, StreamStats, StreamTransport};
