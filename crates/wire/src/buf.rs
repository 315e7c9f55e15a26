//! Buffer types: owned buffers, and scatter/gather descriptors.
//!
//! The paper's sixth manipulation function is "moving to/from application
//! address space": in the general case (RPC arguments, structured records)
//! the destination is *not* a linear region but a set of scattered
//! language-level variables. [`Scatter`] and [`Gather`] model exactly that —
//! a list of (offset, length) extents over a backing region — so that the
//! cost of scattered placement is explicit and measurable.

use std::fmt;

/// An owned, heap-allocated byte buffer with explicit length tracking.
///
/// `OwnedBuf` is a thin, intention-revealing wrapper over `Vec<u8>`: protocol
/// code that accepts an `OwnedBuf` is taking *ownership of a data copy*, and
/// code that borrows `&[u8]` is promising a zero-copy pass. Keeping the two
/// visually distinct keeps every memory pass auditable, which the benchmark
/// harness relies on.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct OwnedBuf {
    data: Vec<u8>,
}

impl OwnedBuf {
    /// Create an empty buffer.
    pub fn new() -> Self {
        Self { data: Vec::new() }
    }

    /// Create a zero-filled buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        Self {
            data: vec![0u8; len],
        }
    }

    /// Create a buffer with capacity reserved but zero length.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Create a buffer filled with a deterministic byte pattern, used by
    /// tests and workload generators. Byte `i` is `(seed ^ i as u8).wrapping_mul(31).wrapping_add(7)`.
    pub fn patterned(len: usize, seed: u8) -> Self {
        let mut data = Vec::with_capacity(len);
        for i in 0..len {
            data.push((seed ^ (i as u8)).wrapping_mul(31).wrapping_add(7));
        }
        Self { data }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Mutably borrow the contents.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Append bytes (a data copy).
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Truncate to `len` bytes (no data movement).
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    /// Consume into the backing `Vec<u8>` (no data movement).
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }
}

impl From<Vec<u8>> for OwnedBuf {
    fn from(data: Vec<u8>) -> Self {
        Self { data }
    }
}

impl From<&[u8]> for OwnedBuf {
    fn from(bytes: &[u8]) -> Self {
        Self {
            data: bytes.to_vec(),
        }
    }
}

impl AsRef<[u8]> for OwnedBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for OwnedBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OwnedBuf({} bytes", self.data.len())?;
        let head = &self.data[..self.data.len().min(8)];
        if !head.is_empty() {
            write!(f, ": {head:02x?}")?;
            if self.data.len() > 8 {
                write!(f, "…")?;
            }
        }
        write!(f, ")")
    }
}

/// One extent of a scatter/gather list: `len` bytes at `offset` within the
/// application region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset within the application region.
    pub offset: usize,
    /// Extent length in bytes.
    pub len: usize,
}

impl Extent {
    /// Construct an extent.
    pub fn new(offset: usize, len: usize) -> Self {
        Self { offset, len }
    }

    /// Exclusive end offset.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }
}

/// A scatter descriptor: where incoming contiguous data lands inside a
/// (possibly non-contiguous) application address-space region.
///
/// The i-th extent receives the next `extent.len` source bytes. This models
/// the paper's "data in the ADU be separated into different values which are
/// stored in different variables of some program" (§6, the RPC paradigm).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scatter {
    extents: Vec<Extent>,
}

impl Scatter {
    /// An empty scatter list.
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-extent (linear) scatter: the simple file-transfer case.
    pub fn linear(offset: usize, len: usize) -> Self {
        Self {
            extents: vec![Extent::new(offset, len)],
        }
    }

    /// Build from extents.
    pub fn from_extents(extents: Vec<Extent>) -> Self {
        Self { extents }
    }

    /// Append an extent.
    pub fn push(&mut self, e: Extent) {
        self.extents.push(e);
    }

    /// The extents, in placement order.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Total bytes described.
    pub fn total_len(&self) -> usize {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Smallest region length that can hold every extent.
    pub fn required_region_len(&self) -> usize {
        self.extents.iter().map(|e| e.end()).max().unwrap_or(0)
    }

    /// Scatter `src` into `region` according to this descriptor.
    ///
    /// This is a data-manipulation pass: every source byte is written once.
    /// Returns the number of bytes placed.
    ///
    /// # Errors
    /// [`ScatterError::SourceTooShort`] if `src` has fewer bytes than the
    /// descriptor requires; [`ScatterError::RegionTooShort`] if any extent
    /// falls outside `region`.
    pub fn scatter(&self, src: &[u8], region: &mut [u8]) -> Result<usize, ScatterError> {
        if src.len() < self.total_len() {
            return Err(ScatterError::SourceTooShort {
                need: self.total_len(),
                have: src.len(),
            });
        }
        if self.required_region_len() > region.len() {
            return Err(ScatterError::RegionTooShort {
                need: self.required_region_len(),
                have: region.len(),
            });
        }
        let mut cursor = 0usize;
        for e in &self.extents {
            region[e.offset..e.end()].copy_from_slice(&src[cursor..cursor + e.len]);
            cursor += e.len;
        }
        Ok(cursor)
    }
}

/// A gather descriptor: the transmit-side dual of [`Scatter`] — collect
/// scattered application variables into one contiguous wire buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Gather {
    extents: Vec<Extent>,
}

impl Gather {
    /// An empty gather list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from extents.
    pub fn from_extents(extents: Vec<Extent>) -> Self {
        Self { extents }
    }

    /// Append an extent.
    pub fn push(&mut self, e: Extent) {
        self.extents.push(e);
    }

    /// The extents, in collection order.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Total bytes described.
    pub fn total_len(&self) -> usize {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Gather from `region` into a fresh contiguous buffer (one data pass).
    ///
    /// # Errors
    /// [`ScatterError::RegionTooShort`] if any extent falls outside `region`.
    pub fn gather(&self, region: &[u8]) -> Result<OwnedBuf, ScatterError> {
        let need = self.extents.iter().map(|e| e.end()).max().unwrap_or(0);
        if need > region.len() {
            return Err(ScatterError::RegionTooShort {
                need,
                have: region.len(),
            });
        }
        let mut out = Vec::with_capacity(self.total_len());
        for e in &self.extents {
            out.extend_from_slice(&region[e.offset..e.end()]);
        }
        Ok(OwnedBuf::from(out))
    }
}

/// Errors from scatter/gather placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterError {
    /// The contiguous source held fewer bytes than the descriptor places.
    SourceTooShort {
        /// Bytes the descriptor requires.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// An extent falls outside the application region.
    RegionTooShort {
        /// Minimum region length required.
        need: usize,
        /// Region length provided.
        have: usize,
    },
}

impl fmt::Display for ScatterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScatterError::SourceTooShort { need, have } => {
                write!(
                    f,
                    "scatter source too short: need {need} bytes, have {have}"
                )
            }
            ScatterError::RegionTooShort { need, have } => {
                write!(
                    f,
                    "application region too short: need {need} bytes, have {have}"
                )
            }
        }
    }
}

impl std::error::Error for ScatterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_buf_basics() {
        let mut b = OwnedBuf::new();
        assert!(b.is_empty());
        b.extend_from_slice(b"hello");
        assert_eq!(b.len(), 5);
        assert_eq!(b.as_slice(), b"hello");
        b.truncate(2);
        assert_eq!(b.as_slice(), b"he");
    }

    #[test]
    fn owned_buf_patterned_is_deterministic() {
        let a = OwnedBuf::patterned(64, 3);
        let b = OwnedBuf::patterned(64, 3);
        let c = OwnedBuf::patterned(64, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn owned_buf_debug_truncates() {
        let b = OwnedBuf::patterned(100, 0);
        let s = format!("{b:?}");
        assert!(s.contains("100 bytes"));
        assert!(s.contains('…'));
    }

    #[test]
    fn scatter_linear_roundtrip() {
        let s = Scatter::linear(4, 8);
        let src: Vec<u8> = (0..8).collect();
        let mut region = vec![0xAAu8; 16];
        let placed = s.scatter(&src, &mut region).unwrap();
        assert_eq!(placed, 8);
        assert_eq!(&region[4..12], &src[..]);
        assert_eq!(region[0], 0xAA);
        assert_eq!(region[12], 0xAA);
    }

    #[test]
    fn scatter_multi_extent() {
        // RPC-style: two arguments living at scattered offsets.
        let s = Scatter::from_extents(vec![Extent::new(10, 3), Extent::new(0, 2)]);
        let mut region = vec![0u8; 13];
        s.scatter(b"ABCde", &mut region).unwrap();
        assert_eq!(&region[10..13], b"ABC");
        assert_eq!(&region[0..2], b"de");
    }

    #[test]
    fn scatter_errors() {
        let s = Scatter::linear(0, 8);
        let mut region = vec![0u8; 16];
        assert_eq!(
            s.scatter(b"abc", &mut region),
            Err(ScatterError::SourceTooShort { need: 8, have: 3 })
        );
        let s2 = Scatter::linear(12, 8);
        assert_eq!(
            s2.scatter(&[0u8; 8], &mut region),
            Err(ScatterError::RegionTooShort { need: 20, have: 16 })
        );
    }

    #[test]
    fn gather_inverts_scatter() {
        let extents = vec![Extent::new(5, 4), Extent::new(0, 3), Extent::new(20, 2)];
        let s = Scatter::from_extents(extents.clone());
        let g = Gather::from_extents(extents);
        let src = OwnedBuf::patterned(9, 42);
        let mut region = vec![0u8; 32];
        s.scatter(src.as_slice(), &mut region).unwrap();
        let back = g.gather(&region).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn gather_region_too_short() {
        let g = Gather::from_extents(vec![Extent::new(30, 4)]);
        let region = vec![0u8; 16];
        assert!(matches!(
            g.gather(&region),
            Err(ScatterError::RegionTooShort { need: 34, have: 16 })
        ));
    }

    #[test]
    fn empty_descriptors() {
        let s = Scatter::new();
        let g = Gather::new();
        let mut region = vec![0u8; 4];
        assert_eq!(s.scatter(&[], &mut region).unwrap(), 0);
        assert!(g.gather(&region).unwrap().is_empty());
        assert_eq!(s.total_len(), 0);
        assert_eq!(s.required_region_len(), 0);
    }

    #[test]
    fn error_display() {
        let e = ScatterError::SourceTooShort { need: 8, have: 3 };
        assert!(e.to_string().contains("need 8"));
        let e = ScatterError::RegionTooShort { need: 20, have: 16 };
        assert!(e.to_string().contains("region too short"));
    }
}
