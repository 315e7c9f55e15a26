//! The ALF transport wire format: transmission units and control messages.
//!
//! "We assume that ADUs may be broken into smaller units suitable for
//! transmission across physical links" (§5, footnote 10). A **transmission
//! unit (TU)** carries one fragment of one ADU, and is *self-describing*:
//! every TU carries the ADU's id, total length, the fragment's offset, and
//! the full application-level name — §7's "each ADU will contain enough
//! information to control its own delivery", pushed down to each TU so even
//! a single surviving fragment identifies what it belongs to.
//!
//! Control traffic is per-ADU, never per-byte: ACKs and NACKs carry ADU
//! ids, because the ADU is the unit of error recovery.

use crate::adu::{AduName, NameError, NAME_WIRE_BYTES};
use ct_wire::checksum::{internet_checksum, InternetChecksum};
use ct_wire::header::{HeaderReader, HeaderWriter};
use ct_wire::WireBuf;

/// Fixed TU header length (type, flags, checksum, assoc, adu id, adu len,
/// frag offset, frag length, timestamp, name).
pub const TU_HEADER_BYTES: usize = 1 + 1 + 2 + 2 + 8 + 4 + 4 + 2 + 4 + NAME_WIRE_BYTES;

// The fused encode and the copy-free verify both rely on the payload
// starting on a 16-bit checksum-word boundary.
const _: () = assert!(TU_HEADER_BYTES.is_multiple_of(2));

/// Message type codes.
const T_TU: u8 = 1;
const T_ACK: u8 = 2;
const T_NACK: u8 = 3;
const T_NACK_FRAGS: u8 = 4;
const T_WINDOW_PROBE: u8 = 5;

/// Receiver-window value meaning "no limit advertised" (the receiver runs
/// without a byte-denominated reassembly budget).
pub const RWND_UNLIMITED: u32 = u32::MAX;

/// TU flag bit: this TU carries FEC parity, not data. Its payload is
/// `[k: u8][xor bytes]` covering the `k` data fragments starting at
/// `frag_off` (see [`crate::fec`]).
pub const TU_FLAG_PARITY: u8 = 0x01;

/// TU flag bit: `timestamp_us` carries a valid sender timestamp.
pub const TU_FLAG_TIMESTAMP: u8 = 0x02;

/// TU flag bit: one ACK, sealed on its own, follows the payload in the same
/// frame (see [`Message::decode_frame`]). The TU's checksum covers the flag
/// and the TU's own bytes only, so a damaged ACK never costs the data it
/// rode on, and a damaged length field cannot make a TU look bundled.
pub const TU_FLAG_ACK_FOLLOWS: u8 = 0x04;

/// ACK flag bit: the ACK carries a timestamp echo (`echo` is `Some`).
const ACK_FLAG_ECHO: u8 = 0x01;

/// An ACK's fixed part: type, flags, checksum, assoc, id count, rwnd.
const ACK_FIXED_BYTES: usize = 1 + 1 + 2 + 2 + 2 + 4;

/// An ACK's optional timestamp echo.
const ACK_ECHO_BYTES: usize = 4 + 4;

/// Spare capacity [`Tu::encode`] leaves behind the payload, the mirror of
/// the header's headroom: an ACK with its echo and four ids fits without
/// reallocating the frame.
const TU_TAILROOM: usize = ACK_FIXED_BYTES + ACK_ECHO_BYTES + 4 * 8;

/// Byte offset of `timestamp_us` within an encoded TU frame.
const TU_TIMESTAMP_OFFSET: usize = 1 + 1 + 2 + 2 + 8 + 4 + 4 + 2;

/// Byte offset of `assoc` within every encoded message: type, flags,
/// checksum, then the association id — in the fixed prefix, where stage-1
/// control can demultiplex without touching the payload (§6: "at least some
/// part of the data must be extracted from the network before it can be
/// demultiplexed").
const ASSOC_OFFSET: usize = 4;

/// The most ids (ACK, NACK) or ranges (selective NACK) one control frame
/// carries: its count field is 16 bits. Senders of longer queues emit
/// several frames.
pub(crate) const MAX_FRAME_ENTRIES: usize = u16::MAX as usize;

/// Read the association id out of a wire message without decoding it.
/// Returns `None` for messages too short to carry one.
pub fn peek_assoc(buf: &[u8]) -> Option<u16> {
    let field = buf.get(ASSOC_OFFSET..ASSOC_OFFSET + 2)?;
    Some(u16::from_be_bytes([field[0], field[1]]))
}

/// One transmission unit: a fragment of an ADU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tu {
    /// Flag bits (`TU_FLAG_*`).
    pub flags: u8,
    /// Association identifier (demultiplexing key).
    pub assoc: u16,
    /// Sender timestamp in microseconds (wrapping) — §3's *timestamping*
    /// transfer control: "some real-time protocols rely on packet
    /// timestamps to support the regeneration of inter-packet timing."
    /// Zero when the sender does not stamp.
    pub timestamp_us: u32,
    /// The ADU this fragment belongs to (sender-assigned, monotone).
    pub adu_id: u64,
    /// Total ADU payload length (same in every TU of the ADU).
    pub adu_len: u32,
    /// This fragment's byte offset within the ADU payload.
    pub frag_off: u32,
    /// The ADU's application-level name (repeated in every TU).
    pub name: AduName,
    /// Fragment payload: a [`WireBuf`] view, so fragmenting an ADU or
    /// decoding a frame shares bytes instead of copying them.
    pub payload: WireBuf,
}

/// A parsed ALF wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A data fragment.
    Tu(Tu),
    /// Positive acknowledgement of complete ADUs.
    Ack {
        /// Association identifier.
        assoc: u16,
        /// Acknowledged ADU ids.
        ids: Vec<u64>,
        /// Timestamp echo for the sender's RTT estimator: the most recent
        /// stamped TU's `timestamp_us`, plus how long (µs) the receiver
        /// held it before this ACK left. The sender recovers
        /// `rtt = now - echoed - hold`, all wrapping 32-bit µs arithmetic —
        /// the out-of-band transfer-control measurement of §3.
        echo: Option<(u32, u32)>,
        /// Receiver window: bytes of reassembly budget still free. The
        /// sender holds new ADUs whose bytes would not fit —
        /// receiver-driven flow control at ADU granularity.
        /// [`RWND_UNLIMITED`] when the receiver enforces no budget.
        rwnd: u32,
    },
    /// Negative acknowledgement: the receiver declared these ADUs lost
    /// (incomplete past its reassembly deadline).
    Nack {
        /// Association identifier.
        assoc: u16,
        /// Lost ADU ids.
        ids: Vec<u64>,
    },
    /// Selective negative acknowledgement: the receiver holds part of the
    /// ADU and asks for just the missing byte ranges — §5's "artificial set
    /// of subunits into which an ADU is broken for error recovery".
    NackFrags {
        /// Association identifier.
        assoc: u16,
        /// The incomplete ADU.
        adu_id: u64,
        /// Missing `(offset, len)` byte ranges within the ADU.
        ranges: Vec<(u32, u32)>,
    },
    /// Zero-window probe: the sender is blocked on a closed receiver
    /// window and asks for a fresh advertisement. The receiver answers
    /// with an (possibly id-less) ACK carrying its current `rwnd`.
    WindowProbe {
        /// Association identifier.
        assoc: u16,
    },
}

/// Errors from [`Message::decode_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Shorter than any valid message.
    Truncated,
    /// Unknown message type byte.
    UnknownType(u8),
    /// Checksum failed (corrupted in transit).
    BadChecksum,
    /// Fragment length disagrees with buffer size.
    LengthMismatch,
    /// The message behind a TU flagged [`TU_FLAG_ACK_FOLLOWS`] is a
    /// well-formed message, but not an ACK.
    NotAnAck,
    /// Bad ADU name field.
    Name(NameError),
    /// A fragment that would extend past the declared ADU length.
    FragmentOutOfRange,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::BadChecksum => write!(f, "message checksum failed"),
            WireError::LengthMismatch => write!(f, "fragment length mismatch"),
            WireError::NotAnAck => write!(f, "bundled message is not an ACK"),
            WireError::Name(e) => write!(f, "bad ADU name: {e}"),
            WireError::FragmentOutOfRange => write!(f, "fragment exceeds ADU length"),
        }
    }
}

impl WireError {
    /// Stable short label for per-reason rejection counters
    /// (`alf.rx_rejected.{reason}` in ct-telemetry).
    pub fn reason(&self) -> &'static str {
        match self {
            WireError::Truncated => "truncated",
            WireError::UnknownType(_) => "unknown_type",
            WireError::BadChecksum => "bad_checksum",
            WireError::LengthMismatch => "length_mismatch",
            WireError::NotAnAck => "not_an_ack",
            WireError::Name(_) => "bad_name",
            WireError::FragmentOutOfRange => "frag_out_of_range",
        }
    }
}

impl std::error::Error for WireError {}

fn seal_checksum(buf: &mut [u8]) {
    let ck = internet_checksum(buf);
    buf[2] = (ck >> 8) as u8;
    buf[3] = (ck & 0xFF) as u8;
}

/// RFC 1071 receiver check, copy-free: with the checksum sealed in place at
/// a 16-bit-aligned offset, the one's-complement sum of the *whole* frame
/// folds to 0xFFFF exactly when the frame is intact — so
/// [`internet_checksum`] (the complement) is zero. One read pass, no
/// scratch buffer, regardless of where in the frame the field lives. A
/// frame shorter than any message passes, for [`parse`] to call truncated.
pub(crate) fn checksum_ok(buf: &[u8]) -> bool {
    buf.len() < 8 || internet_checksum(buf) == 0
}

/// The bytes a parsed message's checksum covers: a TU's header and
/// payload, without an ACK bundled behind them; the whole frame for
/// anything else — a frame that did not parse included, so a bad checksum
/// is reported before any field error.
pub(crate) fn covered<'a>(frame: &'a [u8], parsed: &Result<Frame<'_>, WireError>) -> &'a [u8] {
    match parsed {
        Ok(Frame::Tu(tu)) => &frame[..TU_HEADER_BYTES + tu.payload.len()],
        _ => frame,
    }
}

/// Verify and parse the bytes behind a TU flagged [`TU_FLAG_ACK_FOLLOWS`]
/// on their own: they must be exactly one well-formed, intact ACK.
/// Anything else is refused with its reason — truncated, bad checksum,
/// trailing bytes, or [`WireError::NotAnAck`].
pub(crate) fn carried_ack(ack: &WireBuf) -> Result<AckView<'_>, WireError> {
    let parsed = parse(ack);
    if !checksum_ok(covered(ack, &parsed)) {
        return Err(WireError::BadChecksum);
    }
    match parsed? {
        Frame::Ack(ack) => Ok(ack),
        _ => Err(WireError::NotAnAck),
    }
}

impl Tu {
    /// Encode to wire bytes (checksum sealed) — the one TU encoder; the
    /// transport calls it per fragment, [`Message::encode`] for its TU arm.
    pub fn encode(&self) -> Vec<u8> {
        // One allocation: the header region is reserved up front
        // (headroom), then the payload is copied in behind it *fused with
        // its checksum pass* — the frame's data bytes are touched exactly
        // once on the way out — and room for an ACK is left behind it
        // (tailroom; see `bundle_ack`).
        let mut out = Vec::with_capacity(TU_HEADER_BYTES + self.payload.len() + TU_TAILROOM);
        let mut w = HeaderWriter::new(&mut out);
        w.put_u8(T_TU)
            .put_u8(self.flags)
            .put_u16(0) // checksum placeholder
            .put_u16(self.assoc)
            .put_u64(self.adu_id)
            .put_u32(self.adu_len)
            .put_u32(self.frag_off)
            .put_u16(self.payload.len() as u16)
            .put_u32(self.timestamp_us);
        self.name.encode(&mut out);
        debug_assert_eq!(out.len(), TU_HEADER_BYTES);
        out.resize(TU_HEADER_BYTES + self.payload.len(), 0);
        let pck = ct_wire::fused::copy_and_checksum(&self.payload, &mut out[TU_HEADER_BYTES..]);
        // Combine: header sum (checksum field still zero) plus the payload
        // sum recovered from the fused kernel's complement.
        // TU_HEADER_BYTES is even, so the payload's 16-bit word alignment
        // within the frame matches the kernel's.
        let mut c = InternetChecksum::new();
        c.update(&out[..TU_HEADER_BYTES]);
        c.update_u16(!pck);
        let ck = c.finish();
        out[2] = (ck >> 8) as u8;
        out[3] = (ck & 0xFF) as u8;
        out
    }
}

/// A control frame's 16-bit entry count. A cast here would wrap a longer
/// list to a count that disagrees with the entries behind it — a frame
/// every receiver rejects — so the bound is checked, and the transport
/// chunks its queues to [`MAX_FRAME_ENTRIES`] before encoding.
fn entry_count(n: usize) -> u16 {
    u16::try_from(n).expect("a control frame carries at most u16::MAX entries")
}

/// Encode an ACK to wire bytes (checksum sealed) from borrowed fields — the
/// one ACK encoder: the transport passes its pending-id queue as a slice
/// (and keeps the queue's allocation), [`Message::encode`] its `ids`.
///
/// # Panics
/// If `ids` is longer than the 16-bit count field can state.
pub fn encode_ack(assoc: u16, ids: &[u64], echo: Option<(u32, u32)>, rwnd: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(ACK_FIXED_BYTES + ACK_ECHO_BYTES + ids.len() * 8);
    put_ack(&mut out, assoc, ids, echo, rwnd);
    out
}

/// Append one ACK to `out` and seal it over its own bytes.
fn put_ack(out: &mut Vec<u8>, assoc: u16, ids: &[u64], echo: Option<(u32, u32)>, rwnd: u32) {
    let start = out.len();
    let mut w = HeaderWriter::new(out);
    let flags = if echo.is_some() { ACK_FLAG_ECHO } else { 0 };
    w.put_u8(T_ACK)
        .put_u8(flags)
        .put_u16(0)
        .put_u16(assoc)
        .put_u16(entry_count(ids.len()))
        .put_u32(rwnd);
    if let Some((ts, hold)) = echo {
        out.extend_from_slice(&ts.to_be_bytes());
        out.extend_from_slice(&hold.to_be_bytes());
    }
    for id in ids {
        out.extend_from_slice(&id.to_be_bytes());
    }
    seal_checksum(&mut out[start..]);
}

/// Bundle an ACK behind an encoded, sealed data TU: set the TU's
/// [`TU_FLAG_ACK_FOLLOWS`], updating its checksum incrementally (RFC 1624
/// eqn. 3 — O(1), the frame is not summed again), and append the ACK,
/// sealed on its own. Refused — `false`, `frame` untouched — unless `frame`
/// is a data TU that carries no ACK yet and the ACK fits both the frame's
/// spare capacity (so it never reallocates) and `max_len`.
pub(crate) fn bundle_ack(
    frame: &mut Vec<u8>,
    max_len: usize,
    assoc: u16,
    ids: &[u64],
    echo: Option<(u32, u32)>,
    rwnd: u32,
) -> bool {
    let ack_len = ACK_FIXED_BYTES + if echo.is_some() { ACK_ECHO_BYTES } else { 0 } + ids.len() * 8;
    let fits = frame.len() + ack_len <= max_len.min(frame.capacity());
    if !fits
        || frame.len() < TU_HEADER_BYTES
        || frame[0] != T_TU
        || frame[1] & (TU_FLAG_PARITY | TU_FLAG_ACK_FOLLOWS) != 0
    {
        return false;
    }
    // The flags byte is the low half of the first 16-bit word, `m`:
    // HC' = ~(~HC + ~m + m'), with end-around carries.
    let old = u16::from_be_bytes([frame[0], frame[1]]);
    frame[1] |= TU_FLAG_ACK_FOLLOWS;
    let new = u16::from_be_bytes([frame[0], frame[1]]);
    let hc = u16::from_be_bytes([frame[2], frame[3]]);
    let sum = u32::from(!hc) + u32::from(!old) + u32::from(new);
    let sum = (sum & 0xFFFF) + (sum >> 16);
    let sum = (sum & 0xFFFF) + (sum >> 16);
    frame[2..4].copy_from_slice(&(!(sum as u16)).to_be_bytes());
    put_ack(frame, assoc, ids, echo, rwnd);
    true
}

/// Encode a whole-ADU NACK from a borrowed id list (see [`encode_ack`]).
pub(crate) fn encode_nack(assoc: u16, ids: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + ids.len() * 8);
    let mut w = HeaderWriter::new(&mut out);
    w.put_u8(T_NACK)
        .put_u8(0)
        .put_u16(0)
        .put_u16(assoc)
        .put_u16(entry_count(ids.len()));
    for id in ids {
        out.extend_from_slice(&id.to_be_bytes());
    }
    seal_checksum(&mut out);
    out
}

/// Encode a selective NACK from a borrowed range list (see [`encode_ack`]).
pub(crate) fn encode_nack_frags(assoc: u16, adu_id: u64, ranges: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + ranges.len() * 8);
    let mut w = HeaderWriter::new(&mut out);
    w.put_u8(T_NACK_FRAGS)
        .put_u8(0)
        .put_u16(0)
        .put_u16(assoc)
        .put_u64(adu_id)
        .put_u16(entry_count(ranges.len()));
    for (off, len) in ranges {
        out.extend_from_slice(&off.to_be_bytes());
        out.extend_from_slice(&len.to_be_bytes());
    }
    seal_checksum(&mut out);
    out
}

impl Message {
    /// Encode to wire bytes (checksum sealed).
    ///
    /// # Panics
    /// If an id or range list is longer than the frame's 16-bit count
    /// field can state.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Message::Tu(tu) => tu.encode(),
            Message::NackFrags {
                assoc,
                adu_id,
                ranges,
            } => encode_nack_frags(*assoc, *adu_id, ranges),
            Message::Ack {
                assoc,
                ids,
                echo,
                rwnd,
            } => encode_ack(*assoc, ids, *echo, *rwnd),
            Message::WindowProbe { assoc } => {
                let mut out = Vec::with_capacity(8);
                let mut w = HeaderWriter::new(&mut out);
                w.put_u8(T_WINDOW_PROBE)
                    .put_u8(0)
                    .put_u16(0)
                    .put_u16(*assoc)
                    .put_u16(0); // pad to the 8-byte minimum
                seal_checksum(&mut out);
                out
            }
            Message::Nack { assoc, ids } => encode_nack(*assoc, ids),
        }
    }

    /// Decode and verify a wire message from an owned frame, zero-copy: a
    /// TU's payload is an O(1) [`WireBuf`] slice of `frame`. The transport
    /// ingests through the same parser (`wire::parse`) without building a
    /// `Message`.
    ///
    /// A frame is one message, or a TU with [`TU_FLAG_ACK_FOLLOWS`] set and
    /// one ACK behind its payload. This returns the first message — for a
    /// bundle, the TU, verified over its own bytes; the transport's
    /// `on_frame` reads and checks the ACK too.
    ///
    /// # Errors
    /// [`WireError`] on truncation, corruption, or malformed fields.
    pub fn decode_frame(frame: &WireBuf) -> Result<Message, WireError> {
        let parsed = parse(frame);
        if !checksum_ok(covered(frame, &parsed)) {
            return Err(WireError::BadChecksum);
        }
        Ok(match parsed? {
            Frame::Tu(tu) => Message::Tu(tu),
            Frame::Ack(AckView {
                assoc,
                ids,
                echo,
                rwnd,
            }) => Message::Ack {
                assoc,
                ids: ids.collect(),
                echo,
                rwnd,
            },
            Frame::Nack { assoc, ids } => Message::Nack {
                assoc,
                ids: ids.collect(),
            },
            Frame::NackFrags {
                assoc,
                adu_id,
                ranges,
            } => Message::NackFrags {
                assoc,
                adu_id,
                ranges: ranges.map(split_range).collect(),
            },
            Frame::WindowProbe { assoc } => Message::WindowProbe { assoc },
        })
    }
}

/// A control frame's 8-byte entries (ids, or `(offset, len)` ranges as
/// `offset << 32 | len`), read in place: iterating one allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Entries<'a>(std::slice::ChunksExact<'a, u8>);

impl Iterator for Entries<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let e = self.0.next()?;
        Some(u64::from_be_bytes(e.try_into().ok()?))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Entries<'_> {}

/// A selective-NACK entry as its `(offset, len)` range.
pub(crate) fn split_range(entry: u64) -> (u32, u32) {
    ((entry >> 32) as u32, entry as u32)
}

/// A wire message parsed in place: nothing copied, nothing collected (a
/// TU's payload is a view of the frame's tail).
#[derive(Debug, Clone)]
pub(crate) enum Frame<'a> {
    Tu(Tu),
    Ack(AckView<'a>),
    Nack {
        assoc: u16,
        ids: Entries<'a>,
    },
    NackFrags {
        assoc: u16,
        adu_id: u64,
        ranges: Entries<'a>,
    },
    WindowProbe {
        assoc: u16,
    },
}

/// An ACK read in place: the fields of [`Message::Ack`], its ids not
/// collected.
#[derive(Debug, Clone)]
pub(crate) struct AckView<'a> {
    pub(crate) assoc: u16,
    pub(crate) ids: Entries<'a>,
    pub(crate) echo: Option<(u32, u32)>,
    pub(crate) rwnd: u32,
}

/// The one frame parser: every field check [`Message::decode_frame`]
/// makes except the checksum, which the caller runs over the bytes it
/// covers ([`covered`]) — whole, or fused into the copy that places a TU's
/// payload ([`copy_verified`]). A frame's verdict is the same either way:
/// a bad checksum is reported before any field error. A TU is followed by
/// nothing, or — with [`TU_FLAG_ACK_FOLLOWS`] set — by bytes the caller
/// checks apart ([`carried_ack`]).
pub(crate) fn parse(frame: &WireBuf) -> Result<Frame<'_>, WireError> {
    let buf = frame.as_slice();
    if buf.len() < 8 {
        return Err(WireError::Truncated);
    }
    let mut r = HeaderReader::new(buf);
    // The 8-byte minimum guard above makes these reads infallible, but
    // the decode path stays total anyway: hostile bytes must never be
    // able to reach a panic, whatever the guards upstream look like.
    let ty = r.get_u8().map_err(|_| WireError::Truncated)?;
    let flags = r.get_u8().map_err(|_| WireError::Truncated)?;
    let _ck = r.get_u16().map_err(|_| WireError::Truncated)?;
    let assoc = r.get_u16().map_err(|_| WireError::Truncated)?;
    match ty {
        T_TU => {
            if buf.len() < TU_HEADER_BYTES {
                return Err(WireError::Truncated);
            }
            let adu_id = r.get_u64().map_err(|_| WireError::Truncated)?;
            let adu_len = r.get_u32().map_err(|_| WireError::Truncated)?;
            let frag_off = r.get_u32().map_err(|_| WireError::Truncated)?;
            let frag_len = r.get_u16().map_err(|_| WireError::Truncated)? as usize;
            let timestamp_us = r.get_u32().map_err(|_| WireError::Truncated)?;
            let name = AduName::decode(&mut r).map_err(WireError::Name)?;
            match r.remaining().checked_sub(frag_len) {
                Some(0) => {}
                Some(_) if flags & TU_FLAG_ACK_FOLLOWS != 0 => {}
                _ => return Err(WireError::LengthMismatch),
            }
            // Data fragments must fit inside the ADU; parity TUs cover
            // positions, not content, and may extend past a short tail.
            if flags & TU_FLAG_PARITY == 0 && frag_off as u64 + frag_len as u64 > adu_len as u64 {
                return Err(WireError::FragmentOutOfRange);
            }
            Ok(Frame::Tu(Tu {
                flags,
                assoc,
                timestamp_us,
                adu_id,
                adu_len,
                frag_off,
                name,
                // Zero-copy: the payload is a view of the frame.
                payload: frame.slice(TU_HEADER_BYTES..TU_HEADER_BYTES + frag_len),
            }))
        }
        T_NACK_FRAGS => {
            let adu_id = r.get_u64().map_err(|_| WireError::Truncated)?;
            let count = r.get_u16().map_err(|_| WireError::Truncated)?;
            Ok(Frame::NackFrags {
                assoc,
                adu_id,
                ranges: entries(&mut r, count)?,
            })
        }
        T_ACK => {
            let count = r.get_u16().map_err(|_| WireError::Truncated)?;
            let rwnd = r.get_u32().map_err(|_| WireError::Truncated)?;
            let echo = if flags & ACK_FLAG_ECHO != 0 {
                let ts = r.get_u32().map_err(|_| WireError::Truncated)?;
                let hold = r.get_u32().map_err(|_| WireError::Truncated)?;
                Some((ts, hold))
            } else {
                None
            };
            Ok(Frame::Ack(AckView {
                assoc,
                ids: entries(&mut r, count)?,
                echo,
                rwnd,
            }))
        }
        T_NACK => {
            let count = r.get_u16().map_err(|_| WireError::Truncated)?;
            Ok(Frame::Nack {
                assoc,
                ids: entries(&mut r, count)?,
            })
        }
        T_WINDOW_PROBE => {
            let _pad = r.get_u16().map_err(|_| WireError::Truncated)?;
            if r.remaining() != 0 {
                return Err(WireError::LengthMismatch);
            }
            Ok(Frame::WindowProbe { assoc })
        }
        other => Err(WireError::UnknownType(other)),
    }
}

/// A control frame's `count` 8-byte entries, and nothing after them.
fn entries<'a>(r: &mut HeaderReader<'a>, count: u16) -> Result<Entries<'a>, WireError> {
    let bytes = r
        .get_slice(usize::from(count) * 8)
        .map_err(|_| WireError::Truncated)?;
    if r.remaining() != 0 {
        return Err(WireError::LengthMismatch);
    }
    Ok(Entries(bytes.chunks_exact(8)))
}

/// Copy a parsed TU's payload into `dst` and verify the TU in the same
/// pass: [`ct_wire::fused::copy_and_checksum`] sums the payload as it moves
/// it, and the header's sum is folded in after — the receive mirror of
/// [`Tu::encode`]. `tu` is the TU's own bytes ([`covered`]). True when
/// they are intact; `dst` holds the payload either way, so a caller
/// discards it on `false`.
pub(crate) fn copy_verified(tu: &[u8], dst: &mut [u8]) -> bool {
    let (header, payload) = tu.split_at(TU_HEADER_BYTES);
    let pck = ct_wire::fused::copy_and_checksum(payload, dst);
    let mut c = InternetChecksum::new();
    c.update(header);
    c.update_u16(!pck);
    c.finish() == 0
}

/// Patch the sender timestamp of an already-encoded TU frame in place,
/// setting the timestamp flag and resealing the checksum. Stamping at the
/// instant a TU clears the pacer (rather than when it was fragmented and
/// queued) keeps RTT samples free of the sender's own queueing delay, and
/// gives retransmitted TUs fresh stamps — which is what makes the ACK echo
/// unambiguous without Karn-style sample filtering. Non-TU frames are left
/// untouched.
pub fn restamp_tu(frame: &mut [u8], ts_us: u32) {
    if frame.len() < TU_HEADER_BYTES || frame[0] != T_TU {
        return;
    }
    frame[1] |= TU_FLAG_TIMESTAMP;
    frame[TU_TIMESTAMP_OFFSET..TU_TIMESTAMP_OFFSET + 4].copy_from_slice(&ts_us.to_be_bytes());
    frame[2] = 0;
    frame[3] = 0;
    seal_checksum(frame);
}

/// Split an ADU payload into TUs of at most `mtu_payload` fragment bytes,
/// zero-copy: every fragment is an O(1) view into `payload`'s chunk.
/// Zero-length ADUs produce a single empty TU (the name still travels).
///
/// This is the crate's lazy fragmenter, collected. The transport encodes
/// each TU as it is cut and never calls this; it is `pub`, with this
/// signature, because `benchmark/src/probes.rs` imports it.
pub fn fragment_adu_buf(
    assoc: u16,
    adu_id: u64,
    name: AduName,
    payload: &WireBuf,
    mtu_payload: usize,
) -> Vec<Tu> {
    fragments(assoc, adu_id, name, payload, mtu_payload).collect()
}

/// The fragmenter: the send path encodes each TU as it is cut and never
/// holds the list.
pub(crate) fn fragments(
    assoc: u16,
    adu_id: u64,
    name: AduName,
    payload: &WireBuf,
    mtu_payload: usize,
) -> impl Iterator<Item = Tu> + '_ {
    assert!(mtu_payload > 0, "mtu_payload must be positive");
    let len = payload.len();
    (0..len.max(1)).step_by(mtu_payload).map(move |off| Tu {
        flags: 0,
        assoc,
        timestamp_us: 0,
        adu_id,
        adu_len: len as u32,
        frag_off: off as u32,
        name,
        payload: payload.slice(off..len.min(off + mtu_payload)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(wire: &[u8]) -> Result<Message, WireError> {
        Message::decode_frame(&wire.into())
    }

    fn sample_tu() -> Tu {
        Tu {
            flags: 0,
            assoc: 7,
            timestamp_us: 123_456,
            adu_id: 42,
            adu_len: 1000,
            frag_off: 500,
            name: AduName::FileRange { offset: 123_456 },
            payload: vec![0xAB; 250].into(),
        }
    }

    #[test]
    fn tu_roundtrip() {
        let m = Message::Tu(sample_tu());
        let wire = m.encode();
        assert_eq!(wire.len(), TU_HEADER_BYTES + 250);
        assert_eq!(decode(&wire).unwrap(), m);
    }

    #[test]
    fn ack_nack_roundtrip() {
        for m in [
            Message::Ack {
                assoc: 1,
                ids: vec![],
                echo: None,
                rwnd: RWND_UNLIMITED,
            },
            Message::Ack {
                assoc: 1,
                ids: vec![5, 6, 7],
                echo: None,
                rwnd: 0,
            },
            Message::Ack {
                assoc: 1,
                ids: vec![9],
                echo: Some((123_456, 78)),
                rwnd: 65_536,
            },
            Message::Ack {
                assoc: 4,
                ids: vec![],
                echo: Some((u32::MAX, 0)),
                rwnd: 1,
            },
            Message::WindowProbe { assoc: 9 },
            Message::Nack {
                assoc: 2,
                ids: vec![u64::MAX],
            },
            Message::NackFrags {
                assoc: 3,
                adu_id: 9,
                ranges: vec![],
            },
            Message::NackFrags {
                assoc: 3,
                adu_id: 9,
                ranges: vec![(0, 100), (1400, 2800), (u32::MAX - 8, 8)],
            },
        ] {
            assert_eq!(decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn corruption_caught() {
        let wire = Message::Tu(sample_tu()).encode();
        for i in (0..wire.len()).step_by(7) {
            let mut bad = wire.clone();
            bad[i] ^= 0x08;
            assert!(decode(&bad).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn truncation_caught() {
        let wire = Message::Tu(sample_tu()).encode();
        assert_eq!(decode(&wire[..4]), Err(WireError::Truncated));
        assert!(decode(&wire[..TU_HEADER_BYTES - 1]).is_err());
    }

    #[test]
    fn fragment_out_of_range_rejected() {
        let tu = Tu {
            frag_off: 900,
            payload: vec![0; 250].into(), // 900+250 > 1000
            ..sample_tu()
        };
        let wire = Message::Tu(tu).encode();
        assert_eq!(decode(&wire), Err(WireError::FragmentOutOfRange));
    }

    #[test]
    fn fragmentation_covers_exactly() {
        let payload: Vec<u8> = (0..2500u32).map(|i| i as u8).collect();
        let tus = fragment_adu_buf(
            1,
            9,
            AduName::Seq { index: 9 },
            &payload.clone().into(),
            1000,
        );
        assert_eq!(tus.len(), 3);
        assert_eq!(tus[0].payload.len(), 1000);
        assert_eq!(tus[2].payload.len(), 500);
        let mut rebuilt = vec![0u8; 2500];
        for tu in &tus {
            assert_eq!(tu.adu_len, 2500);
            assert_eq!(tu.name, AduName::Seq { index: 9 });
            rebuilt[tu.frag_off as usize..tu.frag_off as usize + tu.payload.len()]
                .copy_from_slice(&tu.payload);
        }
        assert_eq!(rebuilt, payload);
    }

    #[test]
    fn empty_adu_single_tu() {
        let tus = fragment_adu_buf(1, 2, AduName::Seq { index: 2 }, &WireBuf::empty(), 1000);
        assert_eq!(tus.len(), 1);
        assert!(tus[0].payload.is_empty());
        assert_eq!(tus[0].adu_len, 0);
        // And it survives the wire.
        let wire = Message::Tu(tus[0].clone()).encode();
        assert!(decode(&wire).is_ok());
    }

    #[test]
    fn every_tu_self_describes() {
        // §7: any single TU identifies its ADU, name, and placement.
        let payload = vec![1u8; 5000];
        let name = AduName::Media { frame: 30, slot: 2 };
        for tu in fragment_adu_buf(3, 77, name, &payload.into(), 1400) {
            let wire = Message::Tu(tu.clone()).encode();
            match decode(&wire).unwrap() {
                Message::Tu(got) => {
                    assert_eq!(got.adu_id, 77);
                    assert_eq!(got.name, name);
                    assert_eq!(got.adu_len, 5000);
                }
                _ => panic!("wrong type"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "mtu_payload must be positive")]
    fn zero_mtu_panics() {
        fragment_adu_buf(1, 1, AduName::Seq { index: 1 }, &[1u8].into(), 0);
    }

    #[test]
    fn restamp_patches_timestamp_and_reseals() {
        let mut wire = Message::Tu(sample_tu()).encode();
        restamp_tu(&mut wire, 0xDEAD_BEEF);
        match decode(&wire).expect("checksum must be resealed") {
            Message::Tu(tu) => {
                assert_eq!(tu.timestamp_us, 0xDEAD_BEEF);
                assert_ne!(tu.flags & TU_FLAG_TIMESTAMP, 0);
                // Everything else untouched.
                let orig = sample_tu();
                assert_eq!(tu.payload, orig.payload);
                assert_eq!(tu.adu_id, orig.adu_id);
                assert_eq!(tu.frag_off, orig.frag_off);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fragment_adu_buf_is_zero_copy() {
        let payload = WireBuf::from_vec((0..2500u32).map(|i| i as u8).collect());
        let tus = fragment_adu_buf(1, 9, AduName::Seq { index: 9 }, &payload, 1000);
        assert_eq!(tus.len(), 3);
        for tu in &tus {
            assert!(tu.payload.same_chunk(&payload), "fragment copied");
        }
        let mut rebuilt = vec![0u8; 2500];
        for tu in &tus {
            rebuilt[tu.frag_off as usize..tu.frag_off as usize + tu.payload.len()]
                .copy_from_slice(&tu.payload);
        }
        assert_eq!(rebuilt, payload.as_slice());
    }

    #[test]
    fn decode_frame_payload_views_frame() {
        let frame = WireBuf::from_vec(Message::Tu(sample_tu()).encode());
        match Message::decode_frame(&frame).unwrap() {
            Message::Tu(tu) => {
                assert!(tu.payload.same_chunk(&frame), "decode copied the payload");
                assert_eq!(tu.payload, sample_tu().payload);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn peek_assoc_reads_header() {
        let tu = Tu {
            assoc: 0xBEEF,
            ..sample_tu()
        };
        assert_eq!(peek_assoc(&tu.encode()), Some(0xBEEF));
        let ack = encode_ack(0x0102, &[], None, RWND_UNLIMITED);
        assert_eq!(peek_assoc(&ack), Some(0x0102));
        assert_eq!(peek_assoc(&[1, 2, 3]), None);
    }

    #[test]
    fn sealed_frame_folds_to_zero() {
        // The copy-free verify property: an intact sealed frame's whole-
        // buffer Internet checksum is 0; any flip breaks it.
        let wire = Message::Tu(sample_tu()).encode();
        assert_eq!(internet_checksum(&wire), 0);
    }

    #[test]
    fn restamp_leaves_control_frames_alone() {
        let mut ack = Message::Ack {
            assoc: 1,
            ids: vec![3],
            echo: None,
            rwnd: RWND_UNLIMITED,
        }
        .encode();
        let before = ack.clone();
        restamp_tu(&mut ack, 99);
        assert_eq!(ack, before);
    }

    const ACK_IDS: [u64; 2] = [5, 9];
    const ECHO: Option<(u32, u32)> = Some((1234, 56));

    /// `sample_tu` with one ACK bundled behind it.
    fn bundle() -> Vec<u8> {
        let mut frame = sample_tu().encode();
        assert!(bundle_ack(&mut frame, usize::MAX, 7, &ACK_IDS, ECHO, 4096));
        frame
    }

    /// What [`carried_ack`] makes of the bytes behind a bundle's TU.
    fn carried(frame: Vec<u8>) -> Result<Message, WireError> {
        let frame = WireBuf::from_vec(frame);
        let parsed = parse(&frame);
        let own = covered(&frame, &parsed).len();
        assert!(checksum_ok(&frame[..own]), "the TU must verify on its own");
        let Ok(Frame::Tu(tu)) = parsed else {
            panic!("a TU");
        };
        assert_ne!(tu.flags & TU_FLAG_ACK_FOLLOWS, 0);
        let tail = frame.slice(own..);
        let ack = carried_ack(&tail)?;
        Ok(Message::Ack {
            assoc: ack.assoc,
            ids: ack.ids.collect(),
            echo: ack.echo,
            rwnd: ack.rwnd,
        })
    }

    #[test]
    fn bundled_ack_rides_the_tailroom_and_each_message_verifies_alone() {
        let plain = sample_tu().encode();
        let frame = bundle();
        // The TU's bytes are what encoding it with the flag set gives: the
        // O(1) checksum update agrees with a full seal.
        let flagged = Tu {
            flags: TU_FLAG_ACK_FOLLOWS,
            ..sample_tu()
        }
        .encode();
        assert_eq!(frame[..plain.len()], flagged[..]);
        let ack = encode_ack(7, &ACK_IDS, ECHO, 4096);
        assert_eq!(frame[plain.len()..], ack[..]);
        // decode_frame returns the TU; the trailer is the ACK.
        assert_eq!(
            decode(&frame),
            Ok(Message::Tu(Tu {
                flags: TU_FLAG_ACK_FOLLOWS,
                ..sample_tu()
            }))
        );
        assert_eq!(carried(frame.clone()), Message::decode_frame(&ack.into()));
        assert_eq!(peek_assoc(&frame), Some(7));
    }

    #[test]
    fn bundling_never_reallocates_or_grows_past_the_bound() {
        let mut frame = sample_tu().encode();
        let (ptr, cap) = (frame.as_ptr(), frame.capacity());
        assert!(cap >= frame.len() + TU_TAILROOM);
        assert!(bundle_ack(
            &mut frame,
            usize::MAX,
            7,
            &[1, 2, 3, 4],
            ECHO,
            0
        ));
        assert_eq!((frame.as_ptr(), frame.capacity()), (ptr, cap));
        // A fifth id beside the echo does not fit the tailroom; a bound one
        // byte short of the bundle refuses it; either way the frame is
        // untouched.
        let bound = TU_HEADER_BYTES + 250 + ACK_FIXED_BYTES + 8;
        for (ids, echo, max_len) in [
            (&[1, 2, 3, 4, 5][..], ECHO, usize::MAX),
            (&[1][..], None, bound - 1),
        ] {
            let mut frame = sample_tu().encode();
            let before = frame.clone();
            assert!(!bundle_ack(&mut frame, max_len, 7, ids, echo, 0));
            assert_eq!(frame, before);
        }
        let mut frame = sample_tu().encode();
        assert!(bundle_ack(&mut frame, bound, 7, &[1], None, 0));
        assert_eq!(frame.len(), bound);
    }

    #[test]
    fn only_a_data_tu_without_an_ack_carries_one() {
        let parity = Tu {
            flags: TU_FLAG_PARITY,
            ..sample_tu()
        }
        .encode();
        let ack = encode_ack(7, &[1], None, 0);
        let mut nack = encode_nack(7, &[1]);
        nack.reserve(64);
        for mut frame in [parity, bundle(), ack, nack, vec![T_TU; 8]] {
            let before = frame.clone();
            assert!(!bundle_ack(&mut frame, usize::MAX, 7, &[1], None, 0));
            assert_eq!(frame, before);
        }
    }

    #[test]
    fn hostile_bundles_reject_the_trailer_and_keep_the_tu() {
        let tu_len = TU_HEADER_BYTES + 250;
        let ack = encode_ack(7, &ACK_IDS, ECHO, 4096);
        let with = |tail: &[u8]| [&bundle()[..tu_len], tail].concat();
        let mut flipped = bundle();
        flipped[tu_len + ACK_FIXED_BYTES + 3] ^= 0x20;
        let second_tu = sample_tu().encode();
        for (frame, want) in [
            (with(&[0xA5; 23]), WireError::BadChecksum),
            (with(&[]), WireError::Truncated),
            (with(&ack[..5]), WireError::Truncated),
            (with(&ack[..ack.len() - 8]), WireError::BadChecksum),
            (with(&second_tu), WireError::NotAnAck),
            (with(&encode_nack(7, &[1])), WireError::NotAnAck),
            (
                with(&[&ack[..], &[0, 0]].concat()),
                WireError::LengthMismatch,
            ),
            (flipped, WireError::BadChecksum),
        ] {
            assert!(matches!(decode(&frame), Ok(Message::Tu(_))));
            assert_eq!(carried(frame), Err(want));
        }
    }

    #[test]
    fn without_the_flag_a_trailer_is_a_length_mismatch_and_a_tu_flip_a_bad_checksum() {
        let plain = sample_tu().encode();
        let ack = encode_ack(7, &ACK_IDS, ECHO, 4096);
        let unflagged = [&plain[..], &ack[..]].concat();
        assert_eq!(decode(&unflagged), Err(WireError::LengthMismatch));
        // Any one flipped bit of a bundle's TU — the flag, the length field
        // or the payload included — is a bad checksum, as an unbundled
        // TU's is.
        let tu_len = plain.len();
        for bit in 0..tu_len * 8 {
            if (16..32).contains(&bit) {
                continue; // the checksum field itself
            }
            let mut frame = bundle();
            frame[bit / 8] ^= 0x80 >> (bit % 8);
            assert_eq!(decode(&frame), Err(WireError::BadChecksum), "bit {bit}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_decode_frame_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            // Total: every input returns Ok or a typed WireError.
            let _ = Message::decode_frame(&bytes.into());
        }

        /// The transport's fused check (payload summed as it is copied,
        /// header folded in after) gives every TU frame the whole-frame
        /// verdict, intact or with random bits flipped anywhere, and copies
        /// the payload exactly either way.
        #[test]
        fn prop_copy_verified_agrees_with_whole_frame(
            payload in proptest::collection::vec(any::<u8>(), 0..1500),
            flips in proptest::collection::vec(any::<u32>(), 0..3),
        ) {
            let tu = Tu {
                flags: 0,
                assoc: 7,
                timestamp_us: 123_456,
                adu_id: 42,
                adu_len: payload.len() as u32 + 500,
                frag_off: 500,
                name: AduName::Seq { index: 42 },
                payload: payload.into(),
            };
            let mut wire = tu.encode();
            for f in flips {
                let bit = f as usize % (wire.len() * 8);
                wire[bit / 8] ^= 1 << (bit % 8);
            }
            let frame = WireBuf::from(wire.clone());
            let parsed = parse(&frame);
            if let Ok(Frame::Tu(tu)) = &parsed {
                let own = covered(&wire, &parsed);
                let mut dst = vec![0u8; tu.payload.len()];
                prop_assert_eq!(copy_verified(own, &mut dst), checksum_ok(own));
                prop_assert_eq!(&dst[..], &own[TU_HEADER_BYTES..]);
            }
        }

        #[test]
        fn prop_fragment_reassembles(
            payload in proptest::collection::vec(any::<u8>(), 0..5000),
            mtu in 1usize..2000,
        ) {
            let tus = fragment_adu_buf(1, 1, AduName::Seq { index: 1 }, &payload.clone().into(), mtu);
            let mut rebuilt = vec![0u8; payload.len()];
            let mut covered = 0usize;
            for tu in &tus {
                let off = tu.frag_off as usize;
                rebuilt[off..off + tu.payload.len()].copy_from_slice(&tu.payload);
                covered += tu.payload.len();
            }
            prop_assert_eq!(covered, payload.len());
            prop_assert_eq!(rebuilt, payload);
        }
    }
}
