//! # ct-netsim — deterministic discrete-event network simulator
//!
//! The network substrate every protocol experiment in this workspace runs
//! over. The paper's architectural arguments are about what loss, reordering,
//! duplication and unit-of-transfer mismatch *do to the protocol pipeline*;
//! a deterministic simulator reproduces those semantics exactly, repeatably,
//! and on a laptop — see DESIGN.md §2 for the substitution rationale.
//!
//! ## Structure
//!
//! * [`time`] — virtual clock ([`SimTime`], nanosecond resolution).
//! * [`rng`] — seeded SplitMix64/xorshift RNG; every random decision in the
//!   simulator flows from one seed.
//! * [`event`] — the event queue (time-ordered, FIFO-stable at equal times).
//! * [`link`] — link model: bandwidth (serialization delay), propagation
//!   delay, bounded drop-tail transmit queue.
//! * [`fault`] — fault injection: drop / corrupt / duplicate / reorder with
//!   independent probabilities, in the style of smoltcp's `--drop-chance`
//!   example flags.
//! * [`net`] — the [`net::Network`]: nodes, duplex links, static shortest-
//!   path routing through store-and-forward hops, per-node inboxes, stats.
//! * [`atm`] — ATM cell transport: 53-byte cells (48-byte payload, 44 after
//!   the adaptation sublayer), segmentation and reassembly with cell-loss
//!   detection; lost cell ⇒ whole PDU discarded, as the paper's §5
//!   footnote 9 describes.
//! * [`trace`] — the always-on counter block ([`trace::NetStats`]).
//!
//! ## Determinism
//!
//! Identical seeds and identical call sequences produce identical delivery
//! orders, corruption patterns and statistics. All tests rely on this.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod atm;
pub mod event;
pub mod fault;
pub mod link;
pub mod net;
pub mod rng;
pub mod time;
pub mod trace;

pub use atm::{AtmConfig, AtmEndpoint, CELL_HEADER_BYTES, CELL_PAYLOAD_BYTES, CELL_SIZE_BYTES};
pub use fault::{FaultConfig, GilbertElliott};
pub use link::LinkConfig;
pub use net::{Frame, Network, NodeId};
pub use rng::SimRng;
pub use time::SimTime;
