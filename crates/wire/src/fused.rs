//! Integrated Layer Processing kernels: several manipulations, one memory pass.
//!
//! §4 of the paper: "it is more efficient to read the data once and perform
//! as many manipulations as possible while holding the data in cache or
//! registers." Each function here is a single traversal that performs two or
//! three of the classic manipulation functions at once. The corresponding
//! *layered* execution (one function per pass) is what `Pipeline::run_layered`
//! in `alf-core` measures against.
//!
//! All fused kernels produce **bit-identical results** to their layered
//! counterparts; the unit tests below verify that equivalence exhaustively,
//! and `alf-core` has property tests over the generic pipeline.

use crate::checksum::{fold16, sum_tail, InternetChecksum, Lanes, LANE_BLOCK};

/// Copy `src` to `dst` while computing the Internet checksum of the data —
/// the paper's flagship fused loop (its hand-coded version ran at 90 Mb/s
/// where serial copy-then-checksum achieved ~60).
///
/// One pass: each lane block is loaded once, stored once, and added into
/// the checksum lanes (the same core as
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

/// XOR `src` with a repeating `keystream` into `dst` while checksumming the
/// **ciphertext** (encrypt-then-sum, the order a receiver can verify before
/// decrypting). One pass.
///
/// The keystream is indexed from `key_offset`, so an ADU can be encrypted
/// independently of its neighbours — the ALF-friendly "seekable" cipher.
pub fn xor_and_checksum(src: &[u8], dst: &mut [u8], keystream: &[u8], key_offset: usize) -> u16 {
    assert_eq!(src.len(), dst.len(), "copy length mismatch");
    assert!(!keystream.is_empty(), "empty keystream");
    let mut ck = InternetChecksum::new();
    let klen = keystream.len();
    for (i, (sb, db)) in src.iter().zip(dst.iter_mut()).enumerate() {
        let c = sb ^ keystream[(key_offset + i) % klen];
        *db = c;
        // Byte-at-a-time absorb: pair bytes into 16-bit words.
        ck.update(std::slice::from_ref(&c));
    }
    ck.finish()
}

/// Fused three-stage kernel: XOR-decrypt, byte-swap each 32-bit word, and
/// checksum the **plaintext** — one pass where a layered stack would make
/// three. Used by the X2 stage-count sweep at N = 3.
///
/// Tail bytes (len % 4) are decrypted and checksummed but not swapped,
/// matching the layered [`crate::swap::swap32_copy`] semantics.
pub fn xor_swap_checksum(src: &[u8], dst: &mut [u8], keystream: &[u8], key_offset: usize) -> u16 {
    assert_eq!(src.len(), dst.len(), "copy length mismatch");
    assert!(!keystream.is_empty(), "empty keystream");
    let klen = keystream.len();
    let mut sum: u64 = 0;
    let full = src.len() / 4 * 4;
    let mut i = 0usize;
    while i < full {
        // Decrypt four bytes.
        let p0 = src[i] ^ keystream[(key_offset + i) % klen];
        let p1 = src[i + 1] ^ keystream[(key_offset + i + 1) % klen];
        let p2 = src[i + 2] ^ keystream[(key_offset + i + 2) % klen];
        let p3 = src[i + 3] ^ keystream[(key_offset + i + 3) % klen];
        // Checksum plaintext in wire order.
        sum += u64::from(u16::from_be_bytes([p0, p1]));
        sum += u64::from(u16::from_be_bytes([p2, p3]));
        // Store swapped.
        dst[i] = p3;
        dst[i + 1] = p2;
        dst[i + 2] = p1;
        dst[i + 3] = p0;
        i += 4;
    }
    // Tail: decrypt + checksum, no swap.
    let mut tail = InternetChecksum::new();
    let mut tail_bytes = [0u8; 3];
    let tail_len = src.len() - full;
    for t in 0..tail_len {
        let p = src[full + t] ^ keystream[(key_offset + full + t) % klen];
        dst[full + t] = p;
        tail_bytes[t] = p;
    }
    tail.update(&tail_bytes[..tail_len]);
    sum += u64::from(!tail.finish());
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Copy while XOR-applying a keystream (encrypt/decrypt without integrity).
/// One pass.
pub fn copy_and_xor(src: &[u8], dst: &mut [u8], keystream: &[u8], key_offset: usize) {
    assert_eq!(src.len(), dst.len(), "copy length mismatch");
    assert!(!keystream.is_empty(), "empty keystream");
    let klen = keystream.len();
    for (i, (sb, db)) in src.iter().zip(dst.iter_mut()).enumerate() {
        *db = sb ^ keystream[(key_offset + i) % klen];
    }
}

/// Byte-swap each 32-bit word while checksumming the *source* (wire-order)
/// bytes — conversion fused with integrity, the shape of the paper's
/// "converted and checksummed in one step" ASN.1 experiment. One pass.
pub fn swap32_and_checksum(src: &[u8], dst: &mut [u8]) -> u16 {
    assert_eq!(src.len(), dst.len(), "copy length mismatch");
    let mut sum: u64 = 0;
    let mut s = src.chunks_exact(4);
    let mut d = dst.chunks_exact_mut(4);
    for (sw, dw) in (&mut s).zip(&mut d) {
        let w = u32::from_be_bytes([sw[0], sw[1], sw[2], sw[3]]);
        sum += (w >> 16) as u64 + (w & 0xFFFF) as u64;
        dw.copy_from_slice(&[sw[3], sw[2], sw[1], sw[0]]);
    }
    let st = s.remainder();
    d.into_remainder().copy_from_slice(st);
    let mut tail = InternetChecksum::new();
    tail.update(st);
    sum += u64::from(!tail.finish());
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::internet_checksum;
    use crate::checksum::tests::{length_grid, pattern};
    use crate::copy::copy_bytes;
    use crate::swap::swap32_copy;

    const LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 15, 16, 17, 31, 33, 100, 4000, 4001];

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

    #[test]
    fn xor_and_checksum_equals_layered() {
        let key = pattern(13);
        for &len in LENS {
            let src = pattern(len);
            for off in [0usize, 1, 12, 100] {
                // Layered: xor pass, then checksum pass.
                let mut ct = vec![0u8; len];
                copy_and_xor(&src, &mut ct, &key, off);
                let ck_layered = internet_checksum(&ct);
                // Fused.
                let mut ct_fused = vec![0u8; len];
                let ck_fused = xor_and_checksum(&src, &mut ct_fused, &key, off);
                assert_eq!(ct_fused, ct, "len {len} off {off}");
                assert_eq!(ck_fused, ck_layered, "len {len} off {off}");
            }
        }
    }

    #[test]
    fn xor_is_involution() {
        let key = pattern(7);
        let src = pattern(100);
        let mut ct = vec![0u8; 100];
        let mut back = vec![0u8; 100];
        copy_and_xor(&src, &mut ct, &key, 3);
        copy_and_xor(&ct, &mut back, &key, 3);
        assert_eq!(back, src);
    }

    #[test]
    fn xor_swap_checksum_equals_layered() {
        let key = pattern(31);
        for &len in LENS {
            let src = pattern(len);
            // Layered: decrypt pass, checksum-plaintext pass, swap pass.
            let mut pt = vec![0u8; len];
            copy_and_xor(&src, &mut pt, &key, 5);
            let ck_layered = internet_checksum(&pt);
            let mut swapped = vec![0u8; len];
            swap32_copy(&pt, &mut swapped);
            // Fused.
            let mut out = vec![0u8; len];
            let ck_fused = xor_swap_checksum(&src, &mut out, &key, 5);
            assert_eq!(out, swapped, "len {len}");
            assert_eq!(ck_fused, ck_layered, "len {len}");
        }
    }

    #[test]
    fn swap32_and_checksum_equals_layered() {
        for &len in LENS {
            let src = pattern(len);
            let ck_layered = internet_checksum(&src);
            let mut swapped = vec![0u8; len];
            swap32_copy(&src, &mut swapped);
            let mut out = vec![0u8; len];
            let ck_fused = swap32_and_checksum(&src, &mut out);
            assert_eq!(out, swapped, "len {len}");
            assert_eq!(ck_fused, ck_layered, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "empty keystream")]
    fn empty_keystream_panics() {
        let mut dst = [0u8; 4];
        copy_and_xor(&[1, 2, 3, 4], &mut dst, &[], 0);
    }

    #[test]
    fn key_offset_changes_ciphertext() {
        let key = pattern(16);
        let src = pattern(64);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        copy_and_xor(&src, &mut a, &key, 0);
        copy_and_xor(&src, &mut b, &key, 1);
        assert_ne!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::checksum::internet_checksum;
    use crate::swap::swap32_copy;
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

        #[test]
        fn prop_xor_swap_checksum_equiv(
            src in proptest::collection::vec(any::<u8>(), 0..1024),
            key in proptest::collection::vec(any::<u8>(), 1..64),
            off in 0usize..256,
        ) {
            let mut pt = vec![0u8; src.len()];
            copy_and_xor(&src, &mut pt, &key, off);
            let ck_layered = internet_checksum(&pt);
            let mut swapped = vec![0u8; src.len()];
            swap32_copy(&pt, &mut swapped);
            let mut out = vec![0u8; src.len()];
            let ck_fused = xor_swap_checksum(&src, &mut out, &key, off);
            prop_assert_eq!(out, swapped);
            prop_assert_eq!(ck_fused, ck_layered);
        }
    }
}
