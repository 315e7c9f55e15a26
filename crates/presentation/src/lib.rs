//! # ct-presentation — the presentation layer
//!
//! "One manipulation step has a key impact on performance — presentation
//! conversion. This is because it is often so very costly." (§4)
//!
//! This crate implements the presentation conversions the paper measures and
//! argues about:
//!
//! * [`value`] — the abstract-syntax value model ([`value::PValue`]): what
//!   peers agree an ADU *means*, independent of any transfer encoding.
//! * [`ber`] — a from-scratch subset of ASN.1 Basic Encoding Rules: the
//!   heavyweight, branchy, byte-at-a-time transfer syntax whose integer-array
//!   conversion the paper clocks at 4–5× slower than a copy (and ~30× slower
//!   end-to-end in the untuned ISODE stack).
//! * [`xdr`] — Sun XDR: fixed 4-byte alignment, the middle of the cost
//!   spectrum.
//! * [`lwts`] — a light-weight transfer syntax in the spirit of Huitema &
//!   Doghri's "high speed approach" (the paper's reference 8): flat, word-aligned,
//!   one-pass.
//! * [`negotiate`] — presentation-context negotiation (§5's alternative:
//!   "the sender and receiver can negotiate to translate in one step from
//!   the sender to the receiver's format"), with executable plans.
//! * [`stream`] — push-based incremental decoders, so conversion runs "as
//!   the data arrives" instead of after the last byte.
//! * [`fused`] — conversion fused with checksumming in a single data pass —
//!   the paper's "converted and checksummed in one step" experiment (28 →
//!   24 Mb/s, i.e. integrity nearly free once you are already touching the
//!   bytes).
//!
//! ## The conversion cost spectrum
//!
//! | Syntax | Shape | Cost driver |
//! |--------|-------|-------------|
//! | raw/image | none | pure copy |
//! | LWTS | fixed words | byte-swap per word |
//! | XDR | fixed words + padding | byte-swap + padding logic |
//! | BER | TLV, variable length | per-value branching, length computation, byte-at-a-time emit |
//!
//! The benches in `ct-bench` sweep exactly this spectrum (experiments E3–E5).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ber;
pub mod fused;
pub mod lwts;
pub mod negotiate;
pub mod stream;
pub mod value;
pub mod xdr;

pub use value::PValue;

/// The transfer syntaxes a protocol association can negotiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferSyntax {
    /// No conversion: bytes cross the network in the sender's layout
    /// ("image" or "raw" mode — what high-performance applications of the
    /// paper's era did to *avoid* the presentation layer).
    Raw,
    /// Light-weight transfer syntax (flat, word-aligned).
    Lwts,
    /// Sun XDR.
    Xdr,
    /// ASN.1 Basic Encoding Rules subset.
    Ber,
}

impl TransferSyntax {
    /// Encode an array of `u32` (the paper's benchmark workload) into this
    /// syntax. One data pass over the values.
    pub fn encode_u32s(self, values: &[u32]) -> Vec<u8> {
        match self {
            TransferSyntax::Raw => {
                // Sender's native layout: little-endian on every platform we
                // target is irrelevant — "raw" is defined as memcpy semantics.
                let mut out = Vec::with_capacity(values.len() * 4);
                for v in values {
                    out.extend_from_slice(&v.to_ne_bytes());
                }
                out
            }
            TransferSyntax::Lwts => lwts::encode_u32_array(values),
            TransferSyntax::Xdr => xdr::encode_u32_array(values),
            TransferSyntax::Ber => ber::encode_u32_array(values),
        }
    }

    /// Decode an array of `u32` from this syntax.
    ///
    /// # Errors
    /// [`CodecError`] on malformed input.
    pub fn decode_u32s(self, bytes: &[u8]) -> Result<Vec<u32>, CodecError> {
        match self {
            TransferSyntax::Raw => {
                if !bytes.len().is_multiple_of(4) {
                    return Err(CodecError::Truncated {
                        context: "raw u32 array",
                    });
                }
                Ok(bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_ne_bytes([c[0], c[1], c[2], c[3]]))
                    .collect())
            }
            TransferSyntax::Lwts => lwts::decode_u32_array(bytes),
            TransferSyntax::Xdr => xdr::decode_u32_array(bytes),
            TransferSyntax::Ber => ber::decode_u32_array(bytes),
        }
    }

    /// Name used in bench output rows.
    pub fn name(self) -> &'static str {
        match self {
            TransferSyntax::Raw => "raw",
            TransferSyntax::Lwts => "lwts",
            TransferSyntax::Xdr => "xdr",
            TransferSyntax::Ber => "ber",
        }
    }
}

/// Errors shared by all codecs in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before a complete value was decoded.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// A tag byte did not match the expected type.
    UnexpectedTag {
        /// Tag found.
        found: u8,
        /// Tag required.
        expected: u8,
    },
    /// A length field was malformed or unsupported.
    BadLength {
        /// What was being decoded.
        context: &'static str,
    },
    /// An integer value does not fit the requested Rust type.
    IntegerOverflow,
    /// Trailing bytes after the outermost value.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A string was not valid UTF-8.
    BadUtf8,
    /// Nesting deeper than the decoder permits.
    TooDeep,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { context } => {
                write!(f, "truncated input while decoding {context}")
            }
            CodecError::UnexpectedTag { found, expected } => {
                write!(f, "unexpected tag {found:#04x}, expected {expected:#04x}")
            }
            CodecError::BadLength { context } => write!(f, "bad length field in {context}"),
            CodecError::IntegerOverflow => write!(f, "integer does not fit target type"),
            CodecError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes after value"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string value"),
            CodecError::TooDeep => write!(f, "nesting exceeds decoder limit"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    const SYNTAXES: [TransferSyntax; 4] = [
        TransferSyntax::Raw,
        TransferSyntax::Lwts,
        TransferSyntax::Xdr,
        TransferSyntax::Ber,
    ];

    #[test]
    fn u32_array_roundtrip_all_syntaxes() {
        let values: Vec<u32> = vec![0, 1, 127, 128, 255, 256, 65535, 1 << 20, u32::MAX];
        for syn in SYNTAXES {
            let wire = syn.encode_u32s(&values);
            let back = syn
                .decode_u32s(&wire)
                .unwrap_or_else(|e| panic!("{}: {e}", syn.name()));
            assert_eq!(back, values, "{}", syn.name());
        }
    }

    #[test]
    fn empty_array_all_syntaxes() {
        for syn in SYNTAXES {
            let wire = syn.encode_u32s(&[]);
            assert_eq!(
                syn.decode_u32s(&wire).unwrap(),
                Vec::<u32>::new(),
                "{}",
                syn.name()
            );
        }
    }

    #[test]
    fn raw_is_memcpy_sized() {
        let values = vec![1u32, 2, 3];
        assert_eq!(TransferSyntax::Raw.encode_u32s(&values).len(), 12);
    }

    #[test]
    fn ber_is_bigger_than_raw() {
        // TLV overhead: BER must cost more bytes than image mode.
        let values: Vec<u32> = (0..100).map(|i| i * 7919).collect();
        let raw = TransferSyntax::Raw.encode_u32s(&values).len();
        let ber = TransferSyntax::Ber.encode_u32s(&values).len();
        assert!(ber > raw, "ber {ber} raw {raw}");
    }

    #[test]
    fn raw_rejects_ragged_input() {
        assert!(matches!(
            TransferSyntax::Raw.decode_u32s(&[1, 2, 3]),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn names_distinct() {
        let mut names: Vec<_> = SYNTAXES.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn error_display_messages() {
        assert!(CodecError::Truncated { context: "x" }
            .to_string()
            .contains('x'));
        assert!(CodecError::UnexpectedTag {
            found: 4,
            expected: 2
        }
        .to_string()
        .contains("0x04"));
        assert!(CodecError::TrailingBytes { extra: 3 }
            .to_string()
            .contains('3'));
    }
}
