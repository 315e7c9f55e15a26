//! The transport segment wire format.
//!
//! ```text
//! 0        2        4            12           20    21   22       26        28        30
//! +--------+--------+------------+------------+-----+----+--------+---------+---------+
//! | src    | dst    | seq (u64)  | ack (u64)  |flags|rsvd| window | checksum| paylen  |
//! | port   | port   |            |            |     |    | (u32)  | (u16)   | (u16)   |
//! +--------+--------+------------+------------+-----+----+--------+---------+---------+
//! | payload ...                                                                       |
//! ```
//!
//! The checksum is the Internet checksum over the entire segment with the
//! checksum field zeroed — computing it is the transport's per-segment data
//! manipulation (Table 1's "Checksum" row in situ).

use ct_wire::checksum::{internet_checksum, InternetChecksum};
use ct_wire::header::{HeaderReader, HeaderWriter};
use ct_wire::WireBuf;

/// Fixed header length in bytes.
pub const HEADER_BYTES: usize = 30;

// The fused encode and the copy-free verify both rely on the payload
// starting on a 16-bit word boundary and the checksum field (offset 26)
// occupying exactly one aligned word.
const _: () = assert!(HEADER_BYTES.is_multiple_of(2));

/// Flag bit: the ack field is valid (set on every segment in practice).
pub const FLAG_ACK: u8 = 0x01;
/// Flag bit: sender has no more data; `seq + payload.len()` is the FIN
/// sequence number (occupies one number, as in TCP).
pub const FLAG_FIN: u8 = 0x02;

/// A parsed (or to-be-encoded) transport segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u64,
    /// Cumulative acknowledgement: next byte expected from the peer.
    pub ack: u64,
    /// Flag bits (`FLAG_*`).
    pub flags: u8,
    /// Advertised receive window in bytes.
    pub window: u32,
    /// Payload bytes — a [`WireBuf`] view, so a decoded segment's payload is
    /// an O(1) slice of the frame it arrived in.
    pub payload: WireBuf,
}

/// Errors from [`Segment::decode_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// Payload length field disagrees with the buffer length.
    LengthMismatch {
        /// Payload length claimed by the header.
        claimed: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// Checksum verification failed (corrupted in transit).
    BadChecksum,
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Truncated => write!(f, "segment shorter than header"),
            SegmentError::LengthMismatch { claimed, actual } => {
                write!(
                    f,
                    "payload length mismatch: header says {claimed}, have {actual}"
                )
            }
            SegmentError::BadChecksum => write!(f, "segment checksum failed"),
        }
    }
}

impl SegmentError {
    /// Stable short label for per-reason rejection counters.
    pub fn reason(&self) -> &'static str {
        match self {
            SegmentError::Truncated => "truncated",
            SegmentError::LengthMismatch { .. } => "length_mismatch",
            SegmentError::BadChecksum => "bad_checksum",
        }
    }
}

impl std::error::Error for SegmentError {}

/// Encode one segment to wire bytes: the payload is copied into the frame
/// and checksummed in the same sweep (ILP-fused — one read and one write per
/// payload byte, the transport's whole per-segment data cost). The one
/// encoder: [`Segment::encode`] and the stream endpoint, which passes a
/// borrowed slice of its send buffer, both come through here.
///
/// # Panics
/// If `payload` is longer than the 16-bit length field can say.
pub fn encode(
    (src_port, dst_port): (u16, u16),
    seq: u64,
    ack: u64,
    flags: u8,
    window: u32,
    payload: &[u8],
) -> Vec<u8> {
    let paylen = u16::try_from(payload.len()).expect("payload fits the 16-bit length field");
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    let mut w = HeaderWriter::new(&mut out);
    w.put_u16(src_port)
        .put_u16(dst_port)
        .put_u64(seq)
        .put_u64(ack)
        .put_u8(flags)
        .put_u8(0)
        .put_u32(window)
        .put_u16(0) // checksum placeholder
        .put_u16(paylen);
    out.resize(HEADER_BYTES + payload.len(), 0);
    let pck = ct_wire::fused::copy_and_checksum(payload, &mut out[HEADER_BYTES..]);
    // Combine the header sum (checksum field still zero) with the
    // payload sum recovered from the fused kernel's complement; the
    // even header length keeps both on the same 16-bit word grid.
    let mut c = InternetChecksum::new();
    c.update(&out[..HEADER_BYTES]);
    c.update_u16(!pck);
    let ck = c.finish();
    out[26] = (ck >> 8) as u8;
    out[27] = (ck & 0xFF) as u8;
    out
}

impl Segment {
    /// True if the FIN flag is set.
    pub fn is_fin(&self) -> bool {
        self.flags & FLAG_FIN != 0
    }

    /// The sequence number *after* this segment's payload (and FIN, if any):
    /// what a cumulative ACK for everything here would carry.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.payload.len() as u64 + u64::from(self.is_fin())
    }

    /// Encode to wire bytes (see [`encode`]).
    ///
    /// # Panics
    /// If the payload is longer than the 16-bit length field can say.
    pub fn encode(&self) -> Vec<u8> {
        encode(
            (self.src_port, self.dst_port),
            self.seq,
            self.ack,
            self.flags,
            self.window,
            &self.payload,
        )
    }

    /// Decode and verify a segment from an owned frame, zero-copy: the
    /// payload is an O(1) [`WireBuf`] slice of `frame`.
    ///
    /// # Errors
    /// [`SegmentError`] for truncation, length mismatch, or checksum failure.
    pub fn decode_frame(frame: &WireBuf) -> Result<Segment, SegmentError> {
        let buf = frame.as_slice();
        if buf.len() < HEADER_BYTES {
            return Err(SegmentError::Truncated);
        }
        // The checksum was sealed at a 16-bit-aligned offset, so an intact
        // frame's one's-complement sum folds to 0xFFFF and the whole-frame
        // checksum is zero — verification reads the frame once, with no
        // zeroed-field scratch copy.
        if internet_checksum(buf) != 0 {
            return Err(SegmentError::BadChecksum);
        }
        let mut r = HeaderReader::new(buf);
        // The header-length guard above makes these reads infallible, but
        // the decode path stays total anyway: network bytes must never be
        // able to reach a panic, whatever the guards upstream look like.
        let src_port = r.get_u16().map_err(|_| SegmentError::Truncated)?;
        let dst_port = r.get_u16().map_err(|_| SegmentError::Truncated)?;
        let seq = r.get_u64().map_err(|_| SegmentError::Truncated)?;
        let ack = r.get_u64().map_err(|_| SegmentError::Truncated)?;
        let flags = r.get_u8().map_err(|_| SegmentError::Truncated)?;
        let _rsvd = r.get_u8().map_err(|_| SegmentError::Truncated)?;
        let window = r.get_u32().map_err(|_| SegmentError::Truncated)?;
        let _ck = r.get_u16().map_err(|_| SegmentError::Truncated)?;
        let paylen = r.get_u16().map_err(|_| SegmentError::Truncated)? as usize;
        if r.remaining() != paylen {
            return Err(SegmentError::LengthMismatch {
                claimed: paylen,
                actual: r.remaining(),
            });
        }
        Ok(Segment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            // Zero-copy: the payload is the frame's tail, viewed.
            payload: frame.slice(HEADER_BYTES..),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(wire: &[u8]) -> Result<Segment, SegmentError> {
        Segment::decode_frame(&wire.into())
    }

    fn sample() -> Segment {
        Segment {
            src_port: 1000,
            dst_port: 2000,
            seq: 0x1122334455667788,
            ack: 42,
            flags: FLAG_ACK,
            window: 65535,
            payload: b"hello transport".to_vec().into(),
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let wire = s.encode();
        assert_eq!(wire.len(), HEADER_BYTES + 15);
        assert_eq!(decode(&wire).unwrap(), s);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let s = Segment {
            payload: vec![].into(),
            ..sample()
        };
        assert_eq!(decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn corruption_caught_anywhere() {
        let wire = sample().encode();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x10;
            assert!(
                matches!(
                    decode(&bad),
                    Err(SegmentError::BadChecksum) | Err(SegmentError::LengthMismatch { .. })
                ),
                "flip at byte {i} must be caught"
            );
        }
    }

    #[test]
    fn truncation_caught() {
        let wire = sample().encode();
        assert_eq!(decode(&wire[..10]), Err(SegmentError::Truncated));
        // Header intact but payload cut: checksum fails first (it covers payload).
        assert!(decode(&wire[..HEADER_BYTES + 3]).is_err());
    }

    #[test]
    fn seq_end_accounts_for_fin() {
        let mut s = sample();
        assert_eq!(s.seq_end(), s.seq + 15);
        s.flags |= FLAG_FIN;
        assert_eq!(s.seq_end(), s.seq + 16);
        assert!(s.is_fin());
    }

    #[test]
    fn max_payload_length_field() {
        let s = Segment {
            payload: vec![7u8; u16::MAX as usize].into(),
            ..sample()
        };
        let wire = s.encode();
        assert_eq!(decode(&wire).unwrap().payload.len(), 65535);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_roundtrip(
            src_port in any::<u16>(),
            dst_port in any::<u16>(),
            seq in any::<u64>(),
            ack in any::<u64>(),
            flags in 0u8..4,
            window in any::<u32>(),
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let s = Segment { src_port, dst_port, seq, ack, flags, window, payload: payload.into() };
            prop_assert_eq!(Segment::decode_frame(&s.encode().into()).unwrap(), s);
        }

        #[test]
        fn prop_decode_frame_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Total: every input returns Ok or a typed SegmentError.
            let _ = Segment::decode_frame(&bytes.into());
        }
    }
}
