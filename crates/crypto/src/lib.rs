//! # ct-crypto — toy ciphers for protocol-architecture experiments
//!
//! **Not cryptography.** Nothing in this crate is secure; the ciphers exist
//! because the paper lists encryption among the six data-manipulation
//! functions and uses it to illustrate two architectural points:
//!
//! 1. **ILP fusion** — encryption touches every byte, so it wants to share a
//!    memory pass with the checksum and the copy (§4, and the Autonet
//!    example in §6 where session encryption is entwined with link-level
//!    processing).
//! 2. **Ordering constraints** — "many encryption schemes" can only run on
//!    in-order data because of chaining (§5/§6). A *seekable* cipher can
//!    process ADUs out of order; a *chained* cipher re-imposes the serial
//!    bottleneck ALF removes. The [`OrderingConstraint`] type makes that
//!    property explicit so `alf-core`'s pipeline checker can reject fusions
//!    that would be incorrect.
//!
//! | Cipher | Constraint | ALF-compatible? |
//! |--------|------------|-----------------|
//! | [`stream::XorStream`] | [`OrderingConstraint::Seekable`] | yes — any unit, any order |
//! | [`stream::Rc4Like`] | [`OrderingConstraint::Stream`] | only with per-ADU rekeying |
//! | [`block::ChainedBlock`] | [`OrderingConstraint::ChainedWithinUnit`] | yes, if the IV is per-unit |
//! | [`block::ChainedBlock`] (carried IV) | [`OrderingConstraint::ChainedAcrossUnits`] | no |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod stream;

/// How a manipulation constrains the order in which data units may be
/// processed — the property §6 calls an "ordering constraint".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingConstraint {
    /// Any byte range can be processed independently (keystream is a pure
    /// function of position). Out-of-order ADU processing is safe.
    Seekable,
    /// The transformation is a running stream: byte `i` depends on having
    /// processed bytes `0..i`. Units must be processed in order unless each
    /// unit restarts the state.
    Stream,
    /// Blocks chain *within* a unit but each unit starts fresh (explicit
    /// per-unit IV). Units may be processed out of order; bytes within a
    /// unit may not.
    ChainedWithinUnit,
    /// State carries across units (IV chained from the previous unit's last
    /// block). Strictly in-order; incompatible with ALF out-of-order
    /// delivery.
    ChainedAcrossUnits,
}

impl OrderingConstraint {
    /// Whether data units under this constraint can be processed out of
    /// order with respect to each other — the ADU-processability test.
    pub fn allows_out_of_order_units(self) -> bool {
        matches!(
            self,
            OrderingConstraint::Seekable | OrderingConstraint::ChainedWithinUnit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_classification() {
        assert!(OrderingConstraint::Seekable.allows_out_of_order_units());
        assert!(OrderingConstraint::ChainedWithinUnit.allows_out_of_order_units());
        assert!(!OrderingConstraint::Stream.allows_out_of_order_units());
        assert!(!OrderingConstraint::ChainedAcrossUnits.allows_out_of_order_units());
    }
}
