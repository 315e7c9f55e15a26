//! Sun XDR (RFC 1014) — External Data Representation.
//!
//! XDR is the paper's second worked example of a transfer syntax (its
//! reference 16).
//! All items are multiples of 4 bytes, big-endian; opaque data is padded to
//! a 4-byte boundary. Cheaper than BER (no per-value tags or variable
//! lengths) but still a conversion pass on little-endian hosts.

use crate::value::PValue;
use crate::CodecError;

/// Append a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `i64` as an XDR hyper.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append variable-length opaque data: length word + bytes + padding.
pub fn put_opaque(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
    let pad = (4 - bytes.len() % 4) % 4;
    out.extend_from_slice(&[0u8; 3][..pad]);
}

/// Bounds-checked XDR reader.
#[derive(Debug)]
pub struct XdrReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> XdrReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4, "xdr u32")?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read an XDR hyper as `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        let s = self.take(8, "xdr hyper")?;
        Ok(i64::from_be_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Read variable-length opaque data (length word, bytes, padding).
    pub fn opaque(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        let data = self.take(len, "xdr opaque")?;
        let pad = (4 - len % 4) % 4;
        let padding = self.take(pad, "xdr padding")?;
        if padding.iter().any(|&b| b != 0) {
            return Err(CodecError::BadLength {
                context: "xdr padding",
            });
        }
        Ok(data)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Encode a `u32` array: count word followed by each element — the XDR
/// `array<u32>` form and the paper's benchmark workload.
pub fn encode_u32_array(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + values.len() * 4);
    put_u32_array(&mut out, values);
    out
}

/// Append a `u32` array in the [`encode_u32_array`] form to a buffer the
/// caller is already building.
pub fn put_u32_array(out: &mut Vec<u8>, values: &[u32]) {
    put_u32(out, values.len() as u32);
    for &v in values {
        put_u32(out, v);
    }
}

/// Decode a `u32` array produced by [`encode_u32_array`].
///
/// # Errors
/// [`CodecError::Truncated`] on short input, [`CodecError::TrailingBytes`]
/// on excess, [`CodecError::BadLength`] if the count word is implausible.
pub fn decode_u32_array(buf: &[u8]) -> Result<Vec<u32>, CodecError> {
    let mut r = XdrReader::new(buf);
    let n = r.u32()? as usize;
    // Defend against absurd counts before allocating.
    if n > buf.len() / 4 {
        return Err(CodecError::BadLength {
            context: "xdr array count",
        });
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()?);
    }
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok(out)
}

/// Encode a [`PValue`] in a simple XDR mapping: each value is preceded by a
/// discriminant word (XDR union style).
pub fn encode(value: &PValue) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(value, &mut out);
    out
}

const D_BOOL: u32 = 0;
const D_INT: u32 = 1;
const D_OPAQUE: u32 = 2;
const D_STRING: u32 = 3;
const D_NULL: u32 = 4;
const D_SEQ: u32 = 5;

/// Append the XDR-union encoding of `value` to `out`.
pub fn encode_into(value: &PValue, out: &mut Vec<u8>) {
    match value {
        PValue::Boolean(b) => {
            put_u32(out, D_BOOL);
            put_u32(out, u32::from(*b));
        }
        PValue::Integer(v) => {
            put_u32(out, D_INT);
            put_i64(out, *v);
        }
        PValue::OctetString(bytes) => {
            put_u32(out, D_OPAQUE);
            put_opaque(out, bytes);
        }
        PValue::Utf8String(s) => {
            put_u32(out, D_STRING);
            put_opaque(out, s.as_bytes());
        }
        PValue::Null => put_u32(out, D_NULL),
        PValue::Sequence(items) => {
            put_u32(out, D_SEQ);
            put_u32(out, items.len() as u32);
            for item in items {
                encode_into(item, out);
            }
        }
    }
}

/// Decode a [`PValue`] from the union mapping, consuming the whole buffer.
///
/// # Errors
/// Any [`CodecError`].
pub fn decode(buf: &[u8]) -> Result<PValue, CodecError> {
    let mut r = XdrReader::new(buf);
    let v = decode_value(&mut r, 1)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok(v)
}

fn decode_value(r: &mut XdrReader<'_>, depth: usize) -> Result<PValue, CodecError> {
    if depth > crate::ber::MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    match r.u32()? {
        D_BOOL => Ok(PValue::Boolean(r.u32()? != 0)),
        D_INT => Ok(PValue::Integer(r.i64()?)),
        D_OPAQUE => Ok(PValue::OctetString(r.opaque()?.to_vec())),
        D_STRING => {
            let bytes = r.opaque()?;
            let s = std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?;
            Ok(PValue::Utf8String(s.to_owned()))
        }
        D_NULL => Ok(PValue::Null),
        D_SEQ => {
            let n = r.u32()? as usize;
            if n > r.remaining() / 4 {
                return Err(CodecError::BadLength {
                    context: "xdr sequence count",
                });
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(r, depth + 1)?);
            }
            Ok(PValue::Sequence(items))
        }
        other => Err(CodecError::UnexpectedTag {
            found: other as u8,
            expected: D_SEQ as u8,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_array_layout() {
        let wire = encode_u32_array(&[0x01020304, 5]);
        assert_eq!(wire, vec![0, 0, 0, 2, 0x01, 0x02, 0x03, 0x04, 0, 0, 0, 5]);
    }

    #[test]
    fn u32_array_roundtrip() {
        let values: Vec<u32> = (0..777).map(|i| i * 104729).collect();
        assert_eq!(
            decode_u32_array(&encode_u32_array(&values)).unwrap(),
            values
        );
    }

    #[test]
    fn u32_array_trailing_bytes() {
        let mut wire = encode_u32_array(&[1]);
        wire.extend_from_slice(&[0, 0, 0, 9]);
        assert!(matches!(
            decode_u32_array(&wire),
            Err(CodecError::TrailingBytes { extra: 4 })
        ));
    }

    #[test]
    fn u32_array_absurd_count_rejected() {
        // Count claims 2^30 elements but only 4 bytes follow.
        let wire = [0x40, 0, 0, 0, 0, 0, 0, 1];
        assert!(matches!(
            decode_u32_array(&wire),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn opaque_padding() {
        let mut out = Vec::new();
        put_opaque(&mut out, b"abcde");
        assert_eq!(out.len(), 4 + 5 + 3);
        let mut r = XdrReader::new(&out);
        assert_eq!(r.opaque().unwrap(), b"abcde");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn nonzero_padding_rejected() {
        let mut out = Vec::new();
        put_opaque(&mut out, b"a");
        out[6] = 1; // poke a padding byte
        let mut r = XdrReader::new(&out);
        assert!(matches!(r.opaque(), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn pvalue_roundtrip() {
        let v = PValue::Sequence(vec![
            PValue::Boolean(true),
            PValue::Integer(-99),
            PValue::OctetString(vec![9; 7]),
            PValue::Utf8String("xdr".into()),
            PValue::Null,
            PValue::Sequence(vec![]),
        ]);
        assert_eq!(decode(&encode(&v)).unwrap(), v);
    }

    #[test]
    fn truncated_inputs_error() {
        let wire = encode(&PValue::Integer(5));
        for cut in 1..wire.len() {
            assert!(decode(&wire[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_discriminant_rejected() {
        let mut out = Vec::new();
        put_u32(&mut out, 99);
        assert!(matches!(
            decode(&out),
            Err(CodecError::UnexpectedTag { .. })
        ));
    }

    #[test]
    fn everything_word_aligned() {
        for v in [
            PValue::Boolean(false),
            PValue::Integer(1),
            PValue::OctetString(vec![1, 2, 3]),
            PValue::Utf8String("ab".into()),
            PValue::Null,
        ] {
            assert_eq!(encode(&v).len() % 4, 0, "{v:?}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_u32_array_roundtrip(values in proptest::collection::vec(any::<u32>(), 0..512)) {
            prop_assert_eq!(decode_u32_array(&encode_u32_array(&values)).unwrap(), values);
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode(&bytes);
            let _ = decode_u32_array(&bytes);
        }
    }
}
