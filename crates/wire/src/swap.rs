//! Byte-order conversion kernels.
//!
//! Byte-swapping an integer array is the cheapest non-trivial *presentation
//! conversion*: the canonical "host representation differs from transfer
//! representation" case (XDR mandates big-endian). It sits between a pure
//! copy and a full BER re-encode on the cost spectrum, and is the conversion
//! stage used by the X2 ILP-stage-count sweep.

/// Swap the byte order of each aligned 32-bit word while copying `src` to
/// `dst` (one data pass). The byte tail (len % 4) is copied unswapped.
pub fn swap32_copy(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "swap length mismatch");
    let mut s = src.chunks_exact(4);
    let mut d = dst.chunks_exact_mut(4);
    // Word load -> swap_bytes -> word store: the shape that vectorises.
    for (sw, dw) in (&mut s).zip(&mut d) {
        let w = u32::from_ne_bytes([sw[0], sw[1], sw[2], sw[3]]);
        dw.copy_from_slice(&w.swap_bytes().to_ne_bytes());
    }
    d.into_remainder().copy_from_slice(s.remainder());
}

/// Swap the byte order of each aligned 32-bit word in place (one data pass).
pub fn swap32_in_place(data: &mut [u8]) {
    for c in data.chunks_exact_mut(4) {
        let w = u32::from_ne_bytes([c[0], c[1], c[2], c[3]]);
        c.copy_from_slice(&w.swap_bytes().to_ne_bytes());
    }
}

/// Swap the byte order of each aligned 16-bit word while copying.
pub fn swap16_copy(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "swap length mismatch");
    let mut s = src.chunks_exact(2);
    let mut d = dst.chunks_exact_mut(2);
    for (sw, dw) in (&mut s).zip(&mut d) {
        dw.copy_from_slice(&[sw[1], sw[0]]);
    }
    d.into_remainder().copy_from_slice(s.remainder());
}

/// Encode a `u32` slice to big-endian bytes (XDR-style array body).
///
/// Allocates and fills the output in one pass.
pub fn u32s_to_be_bytes(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_be_bytes());
    }
    out
}

/// Decode big-endian bytes back to a `u32` vector (one pass).
///
/// # Errors
/// Returns `Err(len)` with the offending byte length if `bytes.len()` is not
/// a multiple of 4.
pub fn u32s_from_be_bytes(bytes: &[u8]) -> Result<Vec<u32>, usize> {
    if !bytes.len().is_multiple_of(4) {
        return Err(bytes.len());
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap32_copy_roundtrip() {
        let src: Vec<u8> = (0..32).collect();
        let mut mid = vec![0u8; 32];
        let mut back = vec![0u8; 32];
        swap32_copy(&src, &mut mid);
        swap32_copy(&mid, &mut back);
        assert_eq!(src, back);
        assert_eq!(&mid[..4], &[3, 2, 1, 0]);
    }

    #[test]
    fn swap32_tail_unswapped() {
        let src = [1u8, 2, 3, 4, 5, 6];
        let mut dst = [0u8; 6];
        swap32_copy(&src, &mut dst);
        assert_eq!(dst, [4, 3, 2, 1, 5, 6]);
    }

    #[test]
    fn swap32_in_place_matches_copy() {
        let src: Vec<u8> = (0..20).map(|i| i * 3).collect();
        let mut a = src.clone();
        swap32_in_place(&mut a);
        let mut b = vec![0u8; src.len()];
        swap32_copy(&src, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn swap16_copy_works() {
        let src = [0xAAu8, 0xBB, 0xCC, 0xDD, 0xEE];
        let mut dst = [0u8; 5];
        swap16_copy(&src, &mut dst);
        assert_eq!(dst, [0xBB, 0xAA, 0xDD, 0xCC, 0xEE]);
    }

    #[test]
    fn u32_vec_roundtrip() {
        let vals = vec![0u32, 1, 0xDEADBEEF, u32::MAX, 42];
        let bytes = u32s_to_be_bytes(&vals);
        assert_eq!(bytes.len(), 20);
        assert_eq!(&bytes[8..12], &[0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(u32s_from_be_bytes(&bytes).unwrap(), vals);
    }

    #[test]
    fn u32_from_bytes_rejects_ragged() {
        assert_eq!(u32s_from_be_bytes(&[1, 2, 3]), Err(3));
        assert!(u32s_from_be_bytes(&[]).unwrap().is_empty());
    }
}
