//! # alf-core — Application Level Framing and Integrated Layer Processing
//!
//! The primary contribution of Clark & Tennenhouse, *Architectural
//! Considerations for a New Generation of Protocols* (SIGCOMM 1990), as a
//! library:
//!
//! * **ALF** — "the application should break the data into suitable
//!   aggregates, and the lower levels should preserve these frame boundaries
//!   as they process the data" (§5). The aggregate is the **Application
//!   Data Unit** ([`adu::Adu`]): the unit of manipulation, of error
//!   recovery, and of out-of-order processing. Every ADU carries a **name**
//!   ([`adu::AduName`]) in an application-level name-space, so the receiver
//!   can compute each unit's disposition (file offset, video frame/slot,
//!   RPC argument, processor shard) without waiting for anything else.
//! * **ILP** — "perform all the manipulation steps in one or two integrated
//!   processing loops, instead of performing them serially" (§6). The
//!   [`pipeline::Pipeline`] expresses a chain of data manipulations that can
//!   be executed either **layered** (one memory pass per stage, intermediate
//!   buffers — the conventional engineering) or **integrated** (one fused
//!   traversal) with bit-identical results, plus an ordering-constraint
//!   checker that refuses integration when a stage's semantics (e.g. a
//!   cipher chained across units) make it incorrect.
//!
//! ## Module map
//!
//! * [`adu`] — ADU and ADU-name model, wire encoding of names.
//! * [`pipeline`] — manipulation stages, layered vs integrated execution,
//!   ordering-constraint analysis.
//! * [`wire`] — the transmission-unit (TU) wire format: fragmentation of
//!   ADUs into network-sized units, per-TU integrity, control messages
//!   (ACK/NACK), and the association id every message leads with (the
//!   demultiplexing key of §3; the association table is `ct-server`'s).
//! * [`assembler`] — receive stage 1: TU → ADU reassembly with per-ADU
//!   completion detection, loss detection, and out-of-order ADU release.
//! * [`transport`] — [`transport::AduTransport`]: the full ALF transport
//!   endpoint with the three recovery modes of §5 (sender-transport
//!   buffering, sending-application recomputation, no retransmission).
//! * [`fec`] — ADU-level forward error correction (§5 footnote 10):
//!   single-erasure XOR parity across an ADU's TUs, repairing one lost
//!   fragment per group without a retransmission round trip.
//! * [`timer`] — hashed timer wheel: O(1) deadline scheduling with lazy
//!   cancellation, so timer cost never scales with in-flight count.
//! * [`driver`] — glue running ADU workloads over `ct-netsim` (packet or
//!   ATM), producing the reports the X-series experiments consume.
//!
//! ## The two-stage receive architecture (§6)
//!
//! Stage 1 (in [`assembler`]) is pure transfer control: demultiplex each
//! arriving transmission unit to its ADU and position, with no data
//! manipulation beyond the integrity check. Stage 2 runs **per complete
//! ADU**, out of order, and is where all manipulation happens — ideally as
//! one integrated loop ([`pipeline::Pipeline::run_integrated`]). "In the
//! normal case where all transmission units arrive in order, the two stages
//! may be fully integrated."

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adu;
pub mod assembler;
pub mod driver;
pub mod fec;
mod ids;
pub mod pipeline;
pub mod timer;
pub mod transport;
pub mod wire;

pub use adu::{Adu, AduName};
pub use assembler::ShedPolicy;
pub use pipeline::{Manipulation, Pipeline, PipelineError};
pub use transport::{AduTransport, AlfConfig, AlfStats, RecoveryMode, SendRefused};
