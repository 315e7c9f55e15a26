//! The Integrated Layer Processing kernel of this crate: copy and checksum
//! in one memory pass, where the layered execution the tests compare it
//! with makes two. §4 of the paper: "it is more efficient to read the data
//! once and perform as many manipulations as possible while holding the data
//! in cache or registers." Chains that involve the cipher fuse around its
//! keystream pass instead (`XorStream::apply_hosting` in `ct-crypto`).

use crate::checksum::{fold16, sum_tail, Lanes, LANE_BLOCK};

/// Copy `src` to `dst` while computing the Internet checksum of the data —
/// the paper's flagship fused loop (its hand-coded version ran at 90 Mb/s
/// where serial copy-then-checksum achieved ~60).
///
/// One pass: each 8-byte word is loaded once, stored once, and its halves
/// added into the checksum accumulators (the same core as
/// [`internet_checksum`](crate::checksum::internet_checksum)) while still in
/// registers.
pub fn copy_and_checksum(src: &[u8], dst: &mut [u8]) -> u16 {
    assert_eq!(src.len(), dst.len(), "copy length mismatch");
    let mut s = src.chunks_exact(LANE_BLOCK);
    let mut d = dst.chunks_exact_mut(LANE_BLOCK);
    let mut lanes = Lanes::default();
    for (sb, db) in (&mut s).zip(&mut d) {
        let sb: &[u8; LANE_BLOCK] = sb.try_into().expect("chunks_exact(LANE_BLOCK)");
        lanes.add(sb);
        db.copy_from_slice(sb);
    }
    let tail = s.remainder();
    d.into_remainder().copy_from_slice(tail);
    !fold16(lanes.sum() + sum_tail(tail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::internet_checksum;
    use crate::checksum::tests::{length_grid, pattern};
    use crate::copy::copy_bytes;

    #[test]
    fn copy_and_checksum_equals_layered() {
        for len in length_grid() {
            let src = pattern(len);
            // Layered: copy pass, then checksum pass.
            let mut dst_layered = vec![0u8; len];
            copy_bytes(&src, &mut dst_layered);
            let ck_layered = internet_checksum(&dst_layered);
            // Fused.
            let mut dst_fused = vec![0u8; len];
            let ck_fused = copy_and_checksum(&src, &mut dst_fused);
            assert_eq!(dst_fused, dst_layered, "len {len}");
            assert_eq!(ck_fused, ck_layered, "len {len}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::checksum::internet_checksum;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_copy_and_checksum_equiv(src in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let mut layered = vec![0u8; src.len()];
            layered.copy_from_slice(&src);
            let ck_layered = internet_checksum(&layered);
            let mut fused = vec![0u8; src.len()];
            let ck_fused = copy_and_checksum(&src, &mut fused);
            prop_assert_eq!(fused, layered);
            prop_assert_eq!(ck_fused, ck_layered);
        }
    }
}
