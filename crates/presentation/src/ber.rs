//! ASN.1 Basic Encoding Rules — the subset the experiments need.
//!
//! BER is the paper's heavyweight presentation syntax: the ISODE stack's
//! conversion of an integer array through BER is the operation measured at
//! 28 Mb/s against a 130 Mb/s copy (§4), and the source of the 97 %-of-stack
//! overhead result. This implementation is deliberately *honest*, not
//! deliberately slow: definite-length TLV with minimal-octet integer bodies,
//! written the way a careful C implementation of the era would be. The cost
//! relative to a copy comes from what BER inherently requires — per-value
//! tag/length branching and variable-width integer re-coding — which is
//! exactly the paper's point.
//!
//! Supported universal types: BOOLEAN (0x01), INTEGER (0x02), OCTET STRING
//! (0x04), NULL (0x05), UTF8String (0x0C), SEQUENCE (0x30). Definite-length
//! only; long-form lengths up to 4 length octets; nesting bounded by
//! [`MAX_DEPTH`].

use crate::value::PValue;
use crate::CodecError;

/// BER universal tag numbers used by this subset.
pub mod tag {
    /// BOOLEAN.
    pub const BOOLEAN: u8 = 0x01;
    /// INTEGER.
    pub const INTEGER: u8 = 0x02;
    /// OCTET STRING.
    pub const OCTET_STRING: u8 = 0x04;
    /// NULL.
    pub const NULL: u8 = 0x05;
    /// UTF8String.
    pub const UTF8_STRING: u8 = 0x0C;
    /// SEQUENCE (constructed).
    pub const SEQUENCE: u8 = 0x30;
}

/// Maximum nesting the decoder accepts before failing with
/// [`CodecError::TooDeep`].
pub const MAX_DEPTH: usize = 32;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Append a BER length field (short or long form) to `out`.
fn put_length(out: &mut Vec<u8>, len: usize) {
    if len < 128 {
        out.push(len as u8);
    } else {
        let bytes = (usize::BITS / 8 - len.leading_zeros() / 8) as usize;
        debug_assert!(bytes <= 4, "length beyond 32-bit not produced");
        out.push(0x80 | bytes as u8);
        for i in (0..bytes).rev() {
            out.push((len >> (8 * i)) as u8);
        }
    }
}

/// How many bytes the minimal two's-complement body of `v` takes.
fn int_body_len(v: i64) -> usize {
    // Strip redundant leading 0x00 (positive) / 0xFF (negative) octets.
    let bytes = v.to_be_bytes();
    let mut start = 0;
    while start < 7 {
        let cur = bytes[start];
        let next_msb = bytes[start + 1] & 0x80;
        if (cur == 0x00 && next_msb == 0) || (cur == 0xFF && next_msb != 0) {
            start += 1;
        } else {
            break;
        }
    }
    8 - start
}

/// Append `INTEGER v` (tag + length + minimal body).
pub fn put_integer(out: &mut Vec<u8>, v: i64) {
    let body = int_body_len(v);
    out.push(tag::INTEGER);
    out.push(body as u8); // body ≤ 8 < 128: always short form
    let bytes = v.to_be_bytes();
    out.extend_from_slice(&bytes[8 - body..]);
}

/// Encode one [`PValue`] to a fresh buffer.
pub fn encode(value: &PValue) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(value, &mut out);
    out
}

/// Append the encoding of `value` to `out`.
pub fn encode_into(value: &PValue, out: &mut Vec<u8>) {
    match value {
        PValue::Boolean(b) => {
            out.push(tag::BOOLEAN);
            out.push(1);
            out.push(if *b { 0xFF } else { 0x00 });
        }
        PValue::Integer(v) => put_integer(out, *v),
        PValue::OctetString(bytes) => {
            out.push(tag::OCTET_STRING);
            put_length(out, bytes.len());
            out.extend_from_slice(bytes);
        }
        PValue::Utf8String(s) => {
            out.push(tag::UTF8_STRING);
            put_length(out, s.len());
            out.extend_from_slice(s.as_bytes());
        }
        PValue::Null => {
            out.push(tag::NULL);
            out.push(0);
        }
        PValue::Sequence(items) => {
            // Encode the body first to learn its length — the classic BER
            // definite-length two-step that contributes to its cost.
            let mut body = Vec::new();
            for item in items {
                encode_into(item, &mut body);
            }
            out.push(tag::SEQUENCE);
            put_length(out, body.len());
            out.extend_from_slice(&body);
        }
    }
}

/// Octets in the minimal body of the non-negative INTEGER `v`: its
/// significant bits plus a zero sign bit, rounded up — one more octet per
/// threshold crossed, 1 (`0..=0x7F`) to 5 (`0x8000_0000..`). Compares and
/// adds, no branch: the sizing pass below vectorises over it.
fn u32_body_octets(v: u32) -> u32 {
    1 + u32::from(v > 0x7F)
        + u32::from(v > 0x7FFF)
        + u32::from(v > 0x7F_FFFF)
        + u32::from(v > 0x7FFF_FFFF)
}

/// Encode a `u32` array as `SEQUENCE OF INTEGER` — the paper's benchmark
/// workload, hand-coded the way §4's "hand-coded" conversion was: no value
/// tree, one output allocation, and the per-value "how many octets" decision
/// turned from a byte-stripping loop into arithmetic. Byte-identical to
/// [`encode`] of the same values.
pub fn encode_u32_array(values: &[u32]) -> Vec<u8> {
    // First pass: body length, so the definite length can go first and the
    // output is sized once.
    let mut body_len = 0usize;
    for block in values.chunks(1 << 16) {
        // ≤ 5 per value × 65 536 values: the `u32` lanes cannot wrap.
        let octets = block
            .iter()
            .fold(0u32, |acc, &v| acc.wrapping_add(u32_body_octets(v)));
        body_len += 2 * block.len() + octets as usize;
    }
    // Each value is written as one 8-byte store of which 3..=7 bytes are
    // kept; the slack lets the last store run past the end.
    const SLACK: usize = 8;
    let mut out = Vec::with_capacity(6 + body_len + SLACK);
    out.push(tag::SEQUENCE);
    put_length(&mut out, body_len);
    let header = out.len();
    out.resize(header + body_len + SLACK, 0);

    let body = &mut out[header..];
    let mut pos = 0;
    for &v in values {
        let n = u32_body_octets(v);
        // tag | length | body, left-aligned in a big-endian word: `n` ≤ 5, so
        // the body's top octet sits at bit 40 at the highest.
        let word =
            u64::from(tag::INTEGER) << 56 | u64::from(n) << 48 | u64::from(v) << (48 - 8 * n);
        body[pos..pos + 8].copy_from_slice(&word.to_be_bytes());
        pos += 2 + n as usize;
    }
    debug_assert_eq!(pos, body_len);
    out.truncate(header + body_len);
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A decode cursor over a BER buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(CodecError::Truncated { context })?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take a short-form INTEGER of 1..=5 body octets whose value fits a
    /// `u32` as one big-endian load of tag, length and body, if 8 bytes are
    /// readable here. It only ever *accepts*: on anything else — another
    /// tag, a long-form or longer length, a negative or over-range value,
    /// the last few bytes of the buffer — the cursor stays where it is and
    /// the byte-wise path decides the value or the error.
    fn short_u32(&mut self) -> Option<u32> {
        let window = self.buf.get(self.pos..self.pos + 8)?;
        // The length octet is loaded on its own: it alone feeds the next
        // call's position, so the word's byte swap and shifts stay off the
        // caller's loop-carried path.
        let n = u64::from(window[1]);
        if window[0] != tag::INTEGER || !(1..=5).contains(&n) {
            return None;
        }
        let word = u64::from_be_bytes(window.try_into().expect("8 bytes"));
        // Sign-extend the body; a negative value becomes a huge `u64`, so
        // one conversion is both the sign and the range test.
        let v = ((word << 16) as i64 >> (64 - 8 * n)) as u64;
        let v = u32::try_from(v).ok()?;
        self.pos += 2 + n as usize;
        Some(v)
    }

    /// Read a definite length field.
    fn length(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let first = self.u8(context)?;
        if first < 128 {
            return Ok(first as usize);
        }
        let n = (first & 0x7F) as usize;
        if n == 0 || n > 4 {
            // Indefinite form (0x80) and absurd lengths are out of scope.
            return Err(CodecError::BadLength { context });
        }
        let mut len = 0usize;
        for _ in 0..n {
            len = (len << 8) | self.u8(context)? as usize;
        }
        Ok(len)
    }

    fn value(&mut self, depth: usize) -> Result<PValue, CodecError> {
        if depth > MAX_DEPTH {
            return Err(CodecError::TooDeep);
        }
        let t = self.u8("tag")?;
        match t {
            tag::BOOLEAN => {
                let len = self.length("BOOLEAN")?;
                if len != 1 {
                    return Err(CodecError::BadLength { context: "BOOLEAN" });
                }
                Ok(PValue::Boolean(self.u8("BOOLEAN")? != 0))
            }
            tag::INTEGER => {
                let len = self.length("INTEGER")?;
                Ok(PValue::Integer(decode_int_body(
                    self.bytes(len, "INTEGER")?,
                )?))
            }
            tag::OCTET_STRING => {
                let len = self.length("OCTET STRING")?;
                Ok(PValue::OctetString(
                    self.bytes(len, "OCTET STRING")?.to_vec(),
                ))
            }
            tag::UTF8_STRING => {
                let len = self.length("UTF8String")?;
                let bytes = self.bytes(len, "UTF8String")?;
                let s = std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?;
                Ok(PValue::Utf8String(s.to_owned()))
            }
            tag::NULL => {
                let len = self.length("NULL")?;
                if len != 0 {
                    return Err(CodecError::BadLength { context: "NULL" });
                }
                Ok(PValue::Null)
            }
            tag::SEQUENCE => {
                let len = self.length("SEQUENCE")?;
                let end = self.pos + len;
                if end > self.buf.len() {
                    return Err(CodecError::Truncated {
                        context: "SEQUENCE",
                    });
                }
                let mut items = Vec::new();
                while self.pos < end {
                    items.push(self.value(depth + 1)?);
                }
                if self.pos != end {
                    return Err(CodecError::BadLength {
                        context: "SEQUENCE",
                    });
                }
                Ok(PValue::Sequence(items))
            }
            other => Err(CodecError::UnexpectedTag {
                found: other,
                expected: tag::SEQUENCE,
            }),
        }
    }
}

/// Decode the minimal two's-complement body of an INTEGER.
fn decode_int_body(body: &[u8]) -> Result<i64, CodecError> {
    if body.is_empty() || body.len() > 8 {
        return Err(if body.is_empty() {
            CodecError::BadLength { context: "INTEGER" }
        } else {
            CodecError::IntegerOverflow
        });
    }
    let mut v: i64 = if body[0] & 0x80 != 0 { -1 } else { 0 };
    for &b in body {
        v = (v << 8) | i64::from(b);
    }
    Ok(v)
}

/// Decode a single [`PValue`], requiring the buffer be fully consumed.
///
/// # Errors
/// Any [`CodecError`]; [`CodecError::TrailingBytes`] if bytes remain.
pub fn decode(buf: &[u8]) -> Result<PValue, CodecError> {
    let mut c = Cursor { buf, pos: 0 };
    let v = c.value(1)?;
    if c.pos != buf.len() {
        return Err(CodecError::TrailingBytes {
            extra: buf.len() - c.pos,
        });
    }
    Ok(v)
}

/// Decode `SEQUENCE OF INTEGER` directly into a `u32` vector (the
/// receive-side specialisation of [`encode_u32_array`]).
///
/// # Errors
/// Any [`CodecError`]; integers outside `u32` range yield
/// [`CodecError::IntegerOverflow`].
pub fn decode_u32_array(buf: &[u8]) -> Result<Vec<u32>, CodecError> {
    decode_u32_array_with(buf, |c| c.short_u32())
}

/// [`decode_u32_array`] with the one-load fast path as a parameter, so the
/// tests can run the byte-wise cursor alone as the reference.
fn decode_u32_array_with(
    buf: &[u8],
    fast: impl Fn(&mut Cursor) -> Option<u32>,
) -> Result<Vec<u32>, CodecError> {
    let mut c = Cursor { buf, pos: 0 };
    let t = c.u8("tag")?;
    if t != tag::SEQUENCE {
        return Err(CodecError::UnexpectedTag {
            found: t,
            expected: tag::SEQUENCE,
        });
    }
    let len = c.length("SEQUENCE")?;
    let end = c.pos + len;
    if end > buf.len() {
        return Err(CodecError::Truncated {
            context: "SEQUENCE",
        });
    }
    // Every INTEGER the loop accepts is at least 3 bytes (tag, length, one
    // body octet), so `len / 3` bounds the count — and `len` is bounded by
    // the input just checked, so a hostile length cannot size this.
    let mut out = Vec::with_capacity(len / 3);
    while c.pos < end {
        if let Some(v) = fast(&mut c) {
            out.push(v);
            continue;
        }
        let t = c.u8("tag")?;
        if t != tag::INTEGER {
            return Err(CodecError::UnexpectedTag {
                found: t,
                expected: tag::INTEGER,
            });
        }
        let ilen = c.length("INTEGER")?;
        let v = decode_int_body(c.bytes(ilen, "INTEGER")?)?;
        let v = u32::try_from(v).map_err(|_| CodecError::IntegerOverflow)?;
        out.push(v);
    }
    if c.pos != end {
        return Err(CodecError::BadLength {
            context: "SEQUENCE",
        });
    }
    if c.pos != buf.len() {
        return Err(CodecError::TrailingBytes {
            extra: buf.len() - c.pos,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_minimal_encoding() {
        // Known BER encodings.
        assert_eq!(encode(&PValue::Integer(0)), vec![0x02, 0x01, 0x00]);
        assert_eq!(encode(&PValue::Integer(127)), vec![0x02, 0x01, 0x7F]);
        assert_eq!(encode(&PValue::Integer(128)), vec![0x02, 0x02, 0x00, 0x80]);
        assert_eq!(encode(&PValue::Integer(256)), vec![0x02, 0x02, 0x01, 0x00]);
        assert_eq!(encode(&PValue::Integer(-1)), vec![0x02, 0x01, 0xFF]);
        assert_eq!(encode(&PValue::Integer(-128)), vec![0x02, 0x01, 0x80]);
        assert_eq!(encode(&PValue::Integer(-129)), vec![0x02, 0x02, 0xFF, 0x7F]);
    }

    #[test]
    fn integer_roundtrip_extremes() {
        for v in [i64::MIN, i64::MAX, 0, 1, -1, 255, -255, 1 << 32, -(1 << 32)] {
            let wire = encode(&PValue::Integer(v));
            assert_eq!(decode(&wire).unwrap(), PValue::Integer(v), "{v}");
        }
    }

    #[test]
    fn long_form_length() {
        let bytes = vec![0xABu8; 300];
        let wire = encode(&PValue::OctetString(bytes.clone()));
        // 0x04, 0x82, 0x01, 0x2C, then body.
        assert_eq!(&wire[..4], &[0x04, 0x82, 0x01, 0x2C]);
        assert_eq!(decode(&wire).unwrap(), PValue::OctetString(bytes));
    }

    #[test]
    fn all_types_roundtrip() {
        let v = PValue::Sequence(vec![
            PValue::Boolean(true),
            PValue::Boolean(false),
            PValue::Integer(-42),
            PValue::OctetString(vec![1, 2, 3]),
            PValue::Utf8String("héllo".into()),
            PValue::Null,
            PValue::Sequence(vec![PValue::Integer(7)]),
        ]);
        assert_eq!(decode(&encode(&v)).unwrap(), v);
    }

    #[test]
    fn u32_array_specialised_matches_generic() {
        let values: Vec<u32> = (0..1000u32)
            .map(|i| i.wrapping_mul(2654435761) ^ i)
            .collect();
        let fast = encode_u32_array(&values);
        let generic = encode(&PValue::u32_array(&values));
        assert_eq!(fast, generic);
        assert_eq!(decode_u32_array(&fast).unwrap(), values);
        assert_eq!(decode(&generic).unwrap().as_u32_array().unwrap(), values);
    }

    // -- the hand-coded u32-array kernels against the generic codec ---------

    /// Every value at which the minimal INTEGER body gains an octet, and its
    /// neighbour below.
    const BODY_EDGES: [u32; 10] = [
        0,
        0x7F,
        0x80,
        0x7FFF,
        0x8000,
        0x7F_FFFF,
        0x80_0000,
        0x7FFF_FFFF,
        0x8000_0000,
        u32::MAX,
    ];

    /// What `decode_u32_array` must answer, derived from the generic codec:
    /// the decoded tree, then a per-item `u32` conversion.
    fn oracle_u32_array(buf: &[u8]) -> Result<Vec<u32>, CodecError> {
        let wrong = |found| CodecError::UnexpectedTag {
            found,
            expected: tag::INTEGER,
        };
        match decode(buf)? {
            PValue::Sequence(items) => items
                .iter()
                .map(|item| match item {
                    PValue::Integer(v) => {
                        u32::try_from(*v).map_err(|_| CodecError::IntegerOverflow)
                    }
                    other => Err(wrong(encode(other)[0])),
                })
                .collect(),
            other => Err(wrong(encode(&other)[0])),
        }
    }

    /// The kernel and the oracle agree on the `Ok` value or the error variant.
    fn assert_decodes_like_oracle(buf: &[u8], what: &str) {
        let (got, want) = (decode_u32_array(buf), oracle_u32_array(buf));
        match (&got, &want) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: {buf:02x?}"),
            (Err(a), Err(b)) => assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{what}: kernel {a:?}, oracle {b:?}: {buf:02x?}"
            ),
            _ => panic!("{what}: kernel {got:?}, oracle {want:?}: {buf:02x?}"),
        }
    }

    /// A SEQUENCE of pre-encoded items.
    fn sequence_of(items: &[Vec<u8>]) -> Vec<u8> {
        let body = items.concat();
        let mut out = vec![tag::SEQUENCE];
        put_length(&mut out, body.len());
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn u32_array_encode_matches_generic_on_every_body_length_edge() {
        let mut length_forms = std::collections::BTreeSet::new();
        for len in (0..=70).chain([16_384]) {
            // Each edge in each position (rotations), and arrays of one edge
            // alone (3..=7 bytes a value: every SEQUENCE length form).
            let rotations = (0..BODY_EDGES.len()).map(|r| {
                (0..len)
                    .map(|i| BODY_EDGES[(i + r) % 10])
                    .collect::<Vec<_>>()
            });
            let uniform = BODY_EDGES.iter().map(|&e| vec![e; len]);
            for values in rotations.chain(uniform) {
                let wire = encode_u32_array(&values);
                assert_eq!(wire, encode(&PValue::u32_array(&values)), "{len} values");
                assert_eq!(decode_u32_array(&wire).as_deref(), Ok(&values[..]));
                length_forms.insert(wire[1].max(0x7F));
            }
        }
        // Short form and 1-, 2- and 3-byte long forms were all produced.
        assert_eq!(
            length_forms.into_iter().collect::<Vec<_>>(),
            [0x7F, 0x81, 0x82, 0x83]
        );
    }

    #[test]
    fn u32_array_decode_matches_generic_on_mutated_encodings() {
        let base: Vec<Vec<u8>> = BODY_EDGES
            .iter()
            .chain(&[5, 70_000])
            .map(|&v| encode(&PValue::Integer(i64::from(v))))
            .collect();

        // Well-formed input: every prefix, trailing bytes, and a declared
        // SEQUENCE end that falls inside (or just before) the last INTEGERs.
        let good = sequence_of(&base);
        assert_decodes_like_oracle(&good, "unmodified");
        for cut in 0..good.len() {
            assert_decodes_like_oracle(&good[..cut], "prefix");
        }
        for extra in 1..=9 {
            let mut wire = good.clone();
            wire.resize(good.len() + extra, 0x02);
            assert_decodes_like_oracle(&wire, "trailing bytes");
        }
        for short in 1..=12 {
            let mut wire = good.clone();
            wire[1] -= short;
            assert_decodes_like_oracle(&wire, "INTEGER straddles the SEQUENCE end");
        }

        // One odd item among good ones, at every position — first, between
        // fast-path values, and last, where fewer than 8 bytes remain.
        let odd_items: [(&str, &[u8]); 22] = [
            ("non-minimal 3", &[0x02, 0x03, 0x00, 0x00, 0x05]),
            ("non-minimal 5", &[0x02, 0x05, 0x00, 0x00, 0x00, 0x00, 0x07]),
            (
                "6 bytes in range",
                &[0x02, 0x06, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF],
            ),
            ("6 bytes over", &[0x02, 0x06, 0, 1, 0, 0, 0, 0]),
            ("7 bytes in range", &[0x02, 0x07, 0, 0, 0, 1, 2, 3, 4]),
            ("8 bytes in range", &[0x02, 0x08, 0, 0, 0, 0, 9, 8, 7, 6]),
            ("8 bytes negative", &[0x02, 0x08, 0x80, 0, 0, 0, 0, 0, 0, 0]),
            ("9 bytes", &[0x02, 0x09, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
            (
                "long-form length 4",
                &[0x02, 0x81, 0x04, 0x12, 0x34, 0x56, 0x78],
            ),
            ("long-form length 1", &[0x02, 0x81, 0x01, 0x05]),
            ("two-octet long form", &[0x02, 0x82, 0x00, 0x01, 0x05]),
            ("indefinite length", &[0x02, 0x80, 0x05]),
            ("empty body", &[0x02, 0x00]),
            ("-1", &[0x02, 0x01, 0xFF]),
            ("-128", &[0x02, 0x01, 0x80]),
            ("negative 4", &[0x02, 0x04, 0x80, 0x00, 0x00, 0x00]),
            ("negative 5", &[0x02, 0x05, 0xFF, 0x00, 0x00, 0x00, 0x00]),
            ("2^32", &[0x02, 0x05, 0x01, 0x00, 0x00, 0x00, 0x00]),
            ("OCTET STRING", &[0x04, 0x01, 0x05]),
            ("BOOLEAN", &[0x01, 0x01, 0xFF]),
            ("nested SEQUENCE", &[0x30, 0x03, 0x02, 0x01, 0x05]),
            ("unknown tag", &[0x13, 0x01, 0x05]),
        ];
        for (what, odd) in odd_items {
            for at in 0..=base.len() {
                let mut items = base.clone();
                items.insert(at, odd.to_vec());
                let wire = sequence_of(&items);
                assert_decodes_like_oracle(&wire, what);
                for cut in 0..wire.len() {
                    assert_decodes_like_oracle(&wire[..cut], what);
                }
            }
        }

        // A top level that is not a SEQUENCE at all.
        assert_decodes_like_oracle(&base[3], "bare INTEGER");
        assert_decodes_like_oracle(&[0x13, 0x00], "unknown outer tag");
    }

    #[test]
    fn truncation_detected_everywhere() {
        let wire = encode_u32_array(&[1, 2, 3, 400, 500000]);
        for cut in 1..wire.len() {
            let err = decode_u32_array(&wire[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut wire = encode(&PValue::Null);
        wire.push(0x00);
        assert_eq!(decode(&wire), Err(CodecError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn bad_boolean_length() {
        assert!(matches!(
            decode(&[0x01, 0x02, 0x00, 0x00]),
            Err(CodecError::BadLength { context: "BOOLEAN" })
        ));
    }

    #[test]
    fn bad_null_length() {
        assert!(matches!(
            decode(&[0x05, 0x01, 0x00]),
            Err(CodecError::BadLength { context: "NULL" })
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            decode(&[0x13, 0x00]),
            Err(CodecError::UnexpectedTag { found: 0x13, .. })
        ));
    }

    #[test]
    fn indefinite_length_rejected() {
        assert!(matches!(
            decode(&[0x30, 0x80, 0x00, 0x00]),
            Err(CodecError::BadLength {
                context: "SEQUENCE"
            })
        ));
    }

    #[test]
    fn oversized_integer_rejected() {
        // 9-byte INTEGER body cannot fit i64.
        let wire = [0x02, 0x09, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(decode(&wire), Err(CodecError::IntegerOverflow));
    }

    #[test]
    fn negative_rejected_in_u32_array() {
        let wire = encode(&PValue::Sequence(vec![PValue::Integer(-5)]));
        assert_eq!(decode_u32_array(&wire), Err(CodecError::IntegerOverflow));
    }

    #[test]
    fn depth_bomb_rejected() {
        // MAX_DEPTH+2 nested SEQUENCEs.
        let mut wire = Vec::new();
        for _ in 0..(MAX_DEPTH + 2) {
            wire.push(tag::SEQUENCE);
            wire.push(2);
        }
        wire.truncate(wire.len() - 1);
        *wire.last_mut().unwrap() = 0; // innermost empty
                                       // Fix lengths: simpler to build inside-out.
        let mut inner = vec![tag::SEQUENCE, 0x00];
        for _ in 0..(MAX_DEPTH + 2) {
            let mut outer = vec![tag::SEQUENCE];
            put_length(&mut outer, inner.len());
            outer.extend_from_slice(&inner);
            inner = outer;
        }
        assert_eq!(decode(&inner), Err(CodecError::TooDeep));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let wire = [tag::UTF8_STRING, 2, 0xFF, 0xFE];
        assert_eq!(decode(&wire), Err(CodecError::BadUtf8));
    }

    #[test]
    fn octet_string_passthrough_is_cheap_shape() {
        // Sanity: encoding an OCTET STRING adds only constant-ish framing.
        let data = vec![0u8; 10_000];
        let wire = encode(&PValue::OctetString(data));
        assert_eq!(wire.len(), 10_000 + 2 + 2); // tag + 0x82 + 2 length bytes
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy producing arbitrary PValues of bounded depth/size.
    fn arb_pvalue() -> impl Strategy<Value = PValue> {
        let leaf = prop_oneof![
            any::<bool>().prop_map(PValue::Boolean),
            any::<i64>().prop_map(PValue::Integer),
            proptest::collection::vec(any::<u8>(), 0..64).prop_map(PValue::OctetString),
            "[a-zA-Z0-9 ]{0,32}".prop_map(PValue::Utf8String),
            Just(PValue::Null),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            proptest::collection::vec(inner, 0..8).prop_map(PValue::Sequence)
        })
    }

    /// `u32`s biased towards the values where the body length changes.
    fn arb_u32_near_edges() -> impl Strategy<Value = u32> {
        prop_oneof![
            any::<u32>(),
            (0u32..5, 0u32..3).prop_map(|(octets, d)| ((0x80u64 << (8 * octets) >> 8) as u32)
                .wrapping_sub(1)
                .wrapping_add(d)),
        ]
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in arb_pvalue()) {
            let wire = encode(&v);
            prop_assert_eq!(decode(&wire).unwrap(), v);
        }

        #[test]
        fn prop_u32_array_roundtrip(values in proptest::collection::vec(any::<u32>(), 0..256)) {
            let wire = encode_u32_array(&values);
            prop_assert_eq!(decode_u32_array(&wire).unwrap(), values);
        }

        #[test]
        fn prop_u32_array_encode_matches_generic(values in proptest::collection::vec(arb_u32_near_edges(), 0..300)) {
            let wire = encode_u32_array(&values);
            prop_assert_eq!(&wire, &encode(&PValue::u32_array(&values)));
            prop_assert_eq!(decode_u32_array(&wire).unwrap(), values);
        }

        #[test]
        fn prop_u32_array_decode_matches_cursor_only_reference(
            values in proptest::collection::vec(arb_u32_near_edges(), 0..40),
            edits in proptest::collection::vec((any::<proptest::sample::Index>(), any::<u8>()), 0..4),
            cut in any::<proptest::sample::Index>(),
        ) {
            // Arbitrary damage: overwrite a few bytes, then maybe truncate.
            let mut wire = encode_u32_array(&values);
            for (at, byte) in edits {
                let at = at.index(wire.len());
                wire[at] = byte;
            }
            let cut = cut.index(18);
            let keep = wire.len().saturating_sub(if cut > 8 { 0 } else { cut });
            // Exact `Result` equality, error payloads included, with the
            // byte-wise cursor alone — where the generic codec would report
            // multiple faults in a different order.
            let cursor_only = decode_u32_array_with(&wire[..keep], |_| None);
            prop_assert_eq!(decode_u32_array(&wire[..keep]), cursor_only);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode(&bytes);
            let _ = decode_u32_array(&bytes);
        }
    }
}
