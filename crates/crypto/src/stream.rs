//! Stream ciphers: seekable (ALF-friendly) and stateful (order-dependent).

use crate::OrderingConstraint;
use ct_wire::checksum::WordSum;

/// A position-seekable XOR keystream cipher.
///
/// The keystream at byte position `i` is a pure function of `(key, i)`
/// (SplitMix64 over the block index), so any ADU can be encrypted or
/// decrypted knowing only its byte offset in the association — no shared
/// running state, hence [`OrderingConstraint::Seekable`]. This is the shape
/// of a modern counter-mode cipher, which is precisely what makes CTR modes
/// the ALF-compatible choice.
///
/// Stream positions are taken **mod 2⁶⁴**: the byte after position
/// `u64::MAX` is position 0, so every `(offset, len)` is valid.
#[derive(Debug, Clone)]
pub struct XorStream {
    key: u64,
}

/// SplitMix64's increment: block `b` is `mix(key ^ b·GOLDEN)`.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Bytes per keystream block.
const BLOCK: usize = 8;
/// Bytes per iteration of the block loop: two keystream blocks.
const PAIR: usize = 2 * BLOCK;
/// Bytes [`XorStream::apply`] moves at a time: comfortably L1-resident.
const PIECE: usize = 4096;

impl XorStream {
    /// Create from a key.
    pub fn new(key: u64) -> Self {
        Self { key }
    }

    /// This cipher's ordering constraint.
    pub fn constraint(&self) -> OrderingConstraint {
        OrderingConstraint::Seekable
    }

    /// Keystream byte at absolute position `pos` — the definition every
    /// faster path is tested against.
    #[inline]
    pub fn keystream_byte(&self, pos: u64) -> u8 {
        // Little-endian lane order: lane i of block b is byte b*8 + i.
        let block = mix(self.key ^ (pos / 8).wrapping_mul(GOLDEN));
        (block >> (8 * (pos % 8))) as u8
    }

    /// Encrypt/decrypt (XOR is an involution) `data` in place, where
    /// `data[0]` sits at absolute position `offset` in the stream. One
    /// pass, one `mix` per 8 bytes.
    pub fn apply_in_place(&self, offset: u64, data: &mut [u8]) {
        let (run, wrapped) = data.split_at_mut(before_wrap(offset, data.len()));
        for (offset, data) in [(offset, run), (0, wrapped)] {
            // Byte-step to the next keystream block, run the block loop
            // with no rider, byte-step what it left.
            let (head, body) = data.split_at_mut(head_len(offset, data.len()));
            let body_pos = self.xor_bytes(offset, head);
            let (done, _) = self.apply_hosting(body_pos, [false; 4], None, body);
            self.xor_bytes(body_pos.wrapping_add(done as u64), &mut body[done..]);
        }
    }

    /// [`XorStream::apply_in_place`] with the keystream pass *hosting* its
    /// cheap neighbours, `riders` = `[sum in, swap in, swap out, sum out]`:
    /// each 8-byte word is loaded once and, in a register, summed for the
    /// Internet checksum, `Swap32`-ed, XORed with its keystream block,
    /// swapped and summed again — each only if it rides — then stored once.
    /// The pass is bound by `mix`'s multiplies and leaves the load/store
    /// ports idle, which is where the riders fit.
    ///
    /// A building block for `alf_core::pipeline`, not a whole pass: it hosts
    /// the leading whole 16-byte pairs of `data` before the 2^64 wrap — none
    /// at all unless `offset % 8 == 0` — and returns how many bytes that was
    /// and the two sums over them; `data[done..]` is the caller's to finish.
    /// With `src` (as long as `data`), all of `src` is moved into `data`, the
    /// hosted part hosted and the rest as it is.
    #[doc(hidden)]
    pub fn apply_hosting(
        &self,
        offset: u64,
        riders: [bool; 4],
        src: Option<&[u8]>,
        data: &mut [u8],
    ) -> (usize, [WordSum; 2]) {
        assert!(src.is_none_or(|s| s.len() == data.len()), "length mismatch");
        // One instantiation of the block loop per rider combination, picked
        // once a call: no stage dispatch per word.
        macro_rules! instantiate {
            ($($mask:literal)*) => {
                match riders.iter().rev().fold(0, |mask, &rides| mask << 1 | u8::from(rides)) {
                    $($mask => self.blocks::<$mask>(offset, src, data),)*
                    _ => unreachable!("four riders"),
                }
            };
        }
        instantiate!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
    }

    #[inline(always)]
    fn blocks<const RIDERS: u8>(
        &self,
        offset: u64,
        src: Option<&[u8]>,
        data: &mut [u8],
    ) -> (usize, [WordSum; 2]) {
        let [sum_in, swap_in, swap_out, sum_out] = [1, 2, 4, 8].map(|bit| RIDERS & bit != 0);
        let done = match offset % BLOCK as u64 {
            0 => before_wrap(offset, data.len()) / PAIR * PAIR,
            _ => 0,
        };
        let mut sums = [WordSum::default(); 2];
        // The counter is carried by addition instead of a multiply per block.
        let mut ctr = (offset / BLOCK as u64).wrapping_mul(GOLDEN);
        // `Swap32` on both halves of a little-endian-loaded word.
        let swap = |w: u64| w.swap_bytes().rotate_left(32);
        // Two blocks travel as one `u128`: a type with no vector form, so
        // the multiplies stay `imul r64`. Left to vectorise they become
        // SSE2 `pmuludq` triples at 0.6x the speed (DESIGN.md section 7).
        let mut pair = |p: &[u8]| {
            let p = u128::from_le_bytes(p.try_into().expect("chunks_exact(PAIR)"));
            let mut out = 0;
            for half in [0, 64] {
                let w = (p >> half) as u64;
                // A sum that does not ride adds a constant 0 and folds away.
                sums[0].add(if sum_in { w } else { 0 });
                let w = if swap_in { swap(w) } else { w } ^ mix(self.key ^ ctr);
                ctr = ctr.wrapping_add(GOLDEN);
                let w = if swap_out { swap(w) } else { w };
                sums[1].add(if sum_out { w } else { 0 });
                out |= u128::from(w) << half;
            }
            out.to_le_bytes()
        };
        let (hosted, rest) = data.split_at_mut(done);
        // Two loops: one loop over an optional read side ran the keystream
        // at 0.45x (3.9 against 8.8 GB/s in place).
        match src {
            Some(src) => {
                for (s, d) in src.chunks_exact(PAIR).zip(hosted.chunks_exact_mut(PAIR)) {
                    d.copy_from_slice(&pair(s));
                }
                rest.copy_from_slice(&src[done..]);
            }
            None => hosted
                .chunks_exact_mut(PAIR)
                .for_each(|d| d.copy_from_slice(&pair(d))),
        }
        (done, sums)
    }

    /// XOR `bytes` with the keystream from `pos`, a byte at a time; returns
    /// the position after them.
    fn xor_bytes(&self, mut pos: u64, bytes: &mut [u8]) -> u64 {
        for b in bytes {
            *b ^= self.keystream_byte(pos);
            pos = pos.wrapping_add(1);
        }
        pos
    }

    /// Encrypt/decrypt from `src` into `dst`: each L1-sized piece is moved
    /// and then run through [`XorStream::apply_in_place`] while it is
    /// cache-resident, so memory is still traversed once.
    pub fn apply(&self, offset: u64, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "length mismatch");
        let mut pos = offset;
        for (s, d) in src.chunks(PIECE).zip(dst.chunks_mut(PIECE)) {
            d.copy_from_slice(s);
            self.apply_in_place(pos, d);
            pos = pos.wrapping_add(d.len() as u64);
        }
    }
}

/// How many of `len` bytes starting at `offset` lie before the stream
/// position wraps past `u64::MAX` to 0. The running block counter is only
/// valid on a run of consecutive block indices, so the kernels restart it
/// at the wrap.
fn before_wrap(offset: u64, len: usize) -> usize {
    usize::try_from(u64::MAX - offset).map_or(len, |n| n.saturating_add(1).min(len))
}

/// How many of `len` bytes starting at `offset` precede the next keystream
/// block boundary.
fn head_len(offset: u64, len: usize) -> usize {
    (offset.wrapping_neg() % BLOCK as u64).min(len as u64) as usize
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An RC4-shaped stateful stream cipher: a byte-permutation state evolves as
/// bytes are produced, so byte `i`'s key depends on the entire prefix —
/// [`OrderingConstraint::Stream`]. Processing units out of order with a
/// shared instance produces garbage (the property the tests demonstrate);
/// ALF deployments must rekey per ADU.
#[derive(Debug, Clone)]
pub struct Rc4Like {
    s: [u8; 256],
    i: u8,
    j: u8,
}

impl Rc4Like {
    /// Key-schedule from arbitrary key bytes (empty key treated as `[0]`).
    pub fn new(key: &[u8]) -> Self {
        let key: &[u8] = if key.is_empty() { &[0] } else { key };
        let mut s = [0u8; 256];
        for (idx, v) in s.iter_mut().enumerate() {
            *v = idx as u8;
        }
        let mut j: u8 = 0;
        for i in 0..256 {
            j = j.wrapping_add(s[i]).wrapping_add(key[i % key.len()]);
            s.swap(i, j as usize);
        }
        Self { s, i: 0, j: 0 }
    }

    /// This cipher's ordering constraint.
    pub fn constraint(&self) -> OrderingConstraint {
        OrderingConstraint::Stream
    }

    /// Next keystream byte (advances state).
    #[inline]
    pub fn next_byte(&mut self) -> u8 {
        self.i = self.i.wrapping_add(1);
        self.j = self.j.wrapping_add(self.s[self.i as usize]);
        self.s.swap(self.i as usize, self.j as usize);
        let idx = self.s[self.i as usize].wrapping_add(self.s[self.j as usize]);
        self.s[idx as usize]
    }

    /// Encrypt/decrypt `data` in place, consuming keystream.
    pub fn apply_in_place(&mut self, data: &mut [u8]) {
        for b in data.iter_mut() {
            *b ^= self.next_byte();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_stream_roundtrip() {
        let c = XorStream::new(0xDEADBEEF);
        let msg = b"application level framing".to_vec();
        let mut buf = msg.clone();
        c.apply_in_place(100, &mut buf);
        assert_ne!(buf, msg);
        c.apply_in_place(100, &mut buf);
        assert_eq!(buf, msg);
    }

    #[test]
    fn xor_stream_is_seekable() {
        // Encrypting two ADUs out of order gives the same ciphertext as in
        // order — the defining ALF-compatibility property.
        let c = XorStream::new(7);
        let adu_a = vec![0x11u8; 50]; // positions 0..50
        let adu_b = vec![0x22u8; 50]; // positions 50..100
        let mut in_order = [adu_a.clone(), adu_b.clone()];
        c.apply_in_place(0, &mut in_order[0]);
        c.apply_in_place(50, &mut in_order[1]);
        let mut out_of_order = [adu_b.clone(), adu_a.clone()];
        c.apply_in_place(50, &mut out_of_order[0]); // b first
        c.apply_in_place(0, &mut out_of_order[1]);
        assert_eq!(in_order[0], out_of_order[1]);
        assert_eq!(in_order[1], out_of_order[0]);
    }

    /// Both kernels against the byte oracle, for every alignment of the
    /// start and of the end with the 8-byte keystream block.
    fn assert_matches_oracle(c: &XorStream, offset: u64, len: usize) {
        let src: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        let want: Vec<u8> = (src.iter().zip(0u64..))
            .map(|(b, i)| b ^ c.keystream_byte(offset.wrapping_add(i)))
            .collect();
        let mut in_place = src.clone();
        c.apply_in_place(offset, &mut in_place);
        assert_eq!(in_place, want, "in place, offset {offset} len {len}");
        let mut copied = vec![0u8; len];
        c.apply(offset, &src, &mut copied);
        assert_eq!(copied, want, "apply, offset {offset} len {len}");
    }

    #[test]
    fn block_kernels_match_keystream_byte() {
        let c = XorStream::new(99);
        for offset in (0..8).chain(1_000_003..1_000_011) {
            for len in 0..=40 {
                assert_matches_oracle(&c, offset, len);
            }
        }
    }

    /// `apply_hosting` against its definition — the riders as passes of
    /// their own, in stage order, over the bytes it reports done — moving
    /// from `src` and in place, for all 16 rider combinations.
    #[test]
    fn hosted_riders_equal_separate_passes() {
        use ct_wire::checksum::InternetChecksum;
        use ct_wire::swap::swap32_in_place;
        let c = XorStream::new(0xFEED);
        let sum_if = |riding: bool, data: &[u8]| {
            let mut ck = InternetChecksum::new();
            ck.update(if riding { data } else { &[] });
            ck.finish()
        };
        let offsets = [
            0,
            8,
            1 << 40,
            3,
            u64::MAX - 7,
            u64::MAX - 31,
            u64::MAX - 4095,
        ];
        for (offset, len) in offsets
            .into_iter()
            .flat_map(|o| (0..=50).chain(4095..=4097).map(move |l| (o, l)))
        {
            let src: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let hostable = match offset % 8 {
                0 => before_wrap(offset, len) / 16 * 16,
                _ => 0,
            };
            for riders in (0..16).map(|bits| [1, 2, 4, 8].map(|bit| bits & bit != 0)) {
                let mut moved = vec![0u8; len];
                let (done, sums) = c.apply_hosting(offset, riders, Some(&src), &mut moved);
                assert_eq!(done, hostable, "offset {offset} len {len}");
                assert_eq!(&moved[done..], &src[done..], "the rest is moved as it is");
                let mut in_place = src.clone();
                let (again, _) = c.apply_hosting(offset, riders, None, &mut in_place);
                assert_eq!(again, done);
                assert_eq!(&in_place[..done], &moved[..done]);
                assert_eq!(&in_place[done..], &src[done..], "the rest is untouched");

                let mut want = src[..done].to_vec();
                let sum_in = sum_if(riders[0], &want);
                if riders[1] {
                    swap32_in_place(&mut want);
                }
                c.apply_in_place(offset, &mut want);
                if riders[2] {
                    swap32_in_place(&mut want);
                }
                let sum_out = sum_if(riders[3], &want);
                assert_eq!(
                    &moved[..done],
                    &want[..],
                    "{riders:?} offset {offset} len {len}"
                );
                for (got, want) in sums.into_iter().zip([sum_in, sum_out]) {
                    let mut ck = InternetChecksum::new();
                    ck.update_u16(got.sum());
                    assert_eq!(ck.finish(), want, "{riders:?} offset {offset} len {len}");
                }
            }
        }
    }

    /// Positions are mod 2^64: a record may straddle `u64::MAX`. (The
    /// word-granular kernels panicked on `pos += 4` here.)
    #[test]
    fn stream_position_wraps() {
        let c = XorStream::new(0xDEADBEEF);
        for back in [1u64, 7, 8, 9, 20, 39] {
            let offset = u64::MAX - back + 1; // `back` bytes before the wrap
            for len in [0, 1, 8, 39, 40, 41, 100] {
                assert_matches_oracle(&c, offset, len);
            }
        }
        let msg = b"application level framing, across the wrap".to_vec();
        let mut buf = msg.clone();
        c.apply_in_place(u64::MAX - 10, &mut buf);
        assert_ne!(buf, msg);
        c.apply_in_place(u64::MAX - 10, &mut buf);
        assert_eq!(buf, msg);
    }

    #[test]
    fn xor_different_keys_differ() {
        // XOR over zeros is the keystream itself.
        let keystream = |key| {
            let mut zeros = [0u8; 64];
            XorStream::new(key).apply_in_place(0, &mut zeros);
            zeros
        };
        assert_ne!(keystream(1), keystream(2));
    }

    #[test]
    fn rc4like_roundtrip_with_fresh_state() {
        let msg = b"integrated layer processing".to_vec();
        let mut enc = Rc4Like::new(b"key");
        let mut buf = msg.clone();
        enc.apply_in_place(&mut buf);
        assert_ne!(buf, msg);
        let mut dec = Rc4Like::new(b"key");
        dec.apply_in_place(&mut buf);
        assert_eq!(buf, msg);
    }

    #[test]
    fn rc4like_is_order_dependent() {
        // Decrypting unit B before unit A with a shared instance corrupts B:
        // the Stream constraint in action.
        let mut enc = Rc4Like::new(b"key");
        let mut unit_a = vec![0xAA; 32];
        let mut unit_b = vec![0xBB; 32];
        enc.apply_in_place(&mut unit_a);
        enc.apply_in_place(&mut unit_b);
        // Receiver processes B first (out of order).
        let mut dec = Rc4Like::new(b"key");
        let mut got_b = unit_b.clone();
        dec.apply_in_place(&mut got_b);
        assert_ne!(got_b, vec![0xBB; 32], "out-of-order decrypt must fail");
        // In-order works.
        let mut dec2 = Rc4Like::new(b"key");
        let mut got_a = unit_a.clone();
        let mut got_b2 = unit_b.clone();
        dec2.apply_in_place(&mut got_a);
        dec2.apply_in_place(&mut got_b2);
        assert_eq!(got_a, vec![0xAA; 32]);
        assert_eq!(got_b2, vec![0xBB; 32]);
    }

    #[test]
    fn rc4like_empty_key_ok() {
        let mut c = Rc4Like::new(&[]);
        let mut buf = vec![1, 2, 3];
        c.apply_in_place(&mut buf);
        let mut d = Rc4Like::new(&[]);
        d.apply_in_place(&mut buf);
        assert_eq!(buf, vec![1, 2, 3]);
    }

    #[test]
    fn rc4like_matches_reference_vector() {
        // RFC 6229 test vector: key "Key" is not in the RFC; use the classic
        // "Key"/"Plaintext" pair from the original RC4 description:
        // RC4("Key", "Plaintext") = BBF316E8D940AF0AD3.
        let mut c = Rc4Like::new(b"Key");
        let mut buf = b"Plaintext".to_vec();
        c.apply_in_place(&mut buf);
        assert_eq!(
            buf,
            vec![0xBB, 0xF3, 0x16, 0xE8, 0xD9, 0x40, 0xAF, 0x0A, 0xD3]
        );
    }

    #[test]
    fn constraints_reported() {
        assert_eq!(XorStream::new(0).constraint(), OrderingConstraint::Seekable);
        assert_eq!(Rc4Like::new(b"k").constraint(), OrderingConstraint::Stream);
    }
}
