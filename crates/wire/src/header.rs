//! Explicit header field encode/decode helpers.
//!
//! Protocol headers in this workspace are built with these helpers rather
//! than `#[repr(C)]` casts: every field write is visible, bounds-checked and
//! endian-explicit (network byte order throughout), in the smoltcp style of
//! "simplicity and robustness over type tricks".

use std::fmt;

/// Error returned when a header read/write would fall outside the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// Bytes required to complete the access.
    pub need: usize,
    /// Bytes available.
    pub have: usize,
}

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buffer truncated: need {} bytes, have {}",
            self.need, self.have
        )
    }
}

impl std::error::Error for Truncated {}

/// A cursor for writing header fields in network byte order.
#[derive(Debug)]
pub struct HeaderWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> HeaderWriter<'a> {
    /// Start writing at the current end of `buf`.
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Self { buf }
    }

    /// Write a `u8`.
    #[inline]
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Write a `u16` big-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Write a `u32` big-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Write a `u64` big-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append raw bytes (a data copy of `bytes`).
    #[inline]
    pub fn put_slice(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Bytes written so far into the underlying buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written to the underlying buffer.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A bounds-checked cursor for reading header fields in network byte order.
#[derive(Debug, Clone)]
pub struct HeaderReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> HeaderReader<'a> {
    /// Read from the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        // `pos <= len` always holds, so `len - pos` cannot underflow; the
        // obvious `pos + n > len` form would overflow (and with
        // overflow-checks, panic) on a hostile length, and a reader fed
        // network bytes must be total.
        if n > self.buf.len() - self.pos {
            return Err(Truncated {
                need: self.pos.saturating_add(n),
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, Truncated> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    /// Read a big-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, Truncated> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a big-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, Truncated> {
        let s = self.take(8)?;
        Ok(u64::from_be_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Borrow the next `n` bytes without copying.
    #[inline]
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        self.take(n)
    }

    /// Borrow everything remaining without copying.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut buf = Vec::new();
        HeaderWriter::new(&mut buf)
            .put_u8(0xAB)
            .put_u16(0x1234)
            .put_u32(0xDEADBEEF)
            .put_u64(0x0102030405060708)
            .put_slice(b"tail");
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 4);

        let mut r = HeaderReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0102030405060708);
        assert_eq!(r.rest(), b"tail");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn network_byte_order_on_wire() {
        let mut buf = Vec::new();
        HeaderWriter::new(&mut buf)
            .put_u16(0x0102)
            .put_u32(0x03040506);
        assert_eq!(buf, [0x01, 0x02, 0x03, 0x04, 0x05, 0x06]);
    }

    #[test]
    fn truncated_reads_error_without_advancing_past_end() {
        let buf = [0x01u8, 0x02, 0x03];
        let mut r = HeaderReader::new(&buf);
        assert_eq!(r.get_u16().unwrap(), 0x0102);
        let err = r.get_u32().unwrap_err();
        assert_eq!(err, Truncated { need: 6, have: 3 });
        // Failed read does not consume.
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.get_u8().unwrap(), 0x03);
    }

    #[test]
    fn get_slice_borrow_is_zero_copy() {
        let buf = b"abcdef";
        let mut r = HeaderReader::new(buf);
        let s = r.get_slice(3).unwrap();
        assert_eq!(s, b"abc");
        // The returned slice points into the original buffer.
        assert!(std::ptr::eq(s.as_ptr(), buf.as_ptr()));
    }

    #[test]
    fn truncated_display() {
        let t = Truncated { need: 10, have: 4 };
        assert_eq!(t.to_string(), "buffer truncated: need 10 bytes, have 4");
    }

    #[test]
    fn position_tracks() {
        let buf = [0u8; 8];
        let mut r = HeaderReader::new(&buf);
        assert_eq!(r.position(), 0);
        r.get_u32().unwrap();
        assert_eq!(r.position(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Reader totality: any sequence of reads over arbitrary bytes —
        /// including `get_slice` with hostile lengths up to `usize::MAX` —
        /// returns Ok or a typed `Truncated`, never panics, and a failed
        /// read never consumes.
        #[test]
        fn prop_reader_total_over_arbitrary_ops(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            ops in proptest::collection::vec((0u8..6, any::<usize>()), 0..32),
        ) {
            let mut r = HeaderReader::new(&bytes);
            for (op, n) in ops {
                let before = r.position();
                let ok = match op {
                    0 => r.get_u8().is_ok(),
                    1 => r.get_u16().is_ok(),
                    2 => r.get_u32().is_ok(),
                    3 => r.get_u64().is_ok(),
                    4 => r.get_slice(n).is_ok(),
                    _ => {
                        r.rest();
                        true
                    }
                };
                if !ok {
                    prop_assert_eq!(r.position(), before);
                }
                prop_assert!(r.position() <= bytes.len());
                prop_assert_eq!(r.remaining(), bytes.len() - r.position());
            }
        }
    }
}
