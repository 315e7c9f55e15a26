//! Error-detection codes, rolled and unrolled.
//!
//! The paper's Table 1 measures the Internet (one's-complement) checksum as
//! one of the two "fundamental manipulation operations" of TCP; this module
//! provides that code plus Fletcher, Adler-32 and CRC-32 so the per-byte
//! cost spread across codes can be benchmarked (DESIGN.md §5, ablation).
//!
//! Every code has an incremental form (`*Checksum` state structs) so the ILP
//! pipeline in `alf-core` can interleave checksumming with other
//! manipulations in one traversal, and a one-shot convenience function.

/// Bytes per step of the wide summation core: one 64-bit word.
pub(crate) const LANE_BLOCK: usize = 8;

/// The wide core's two accumulators: each 8-byte word is loaded
/// **native-endian** (RFC 1071 §2(B): the one's-complement sum is byte-order
/// independent, so the swap happens once, on the folded result, in
/// [`Lanes::sum`]) and its low and high 32-bit halves are added apart with
/// `wrapping_add`. An accumulator gains less than 2^32 per word, so it
/// cannot wrap before 2^32 words — 32 GiB in one call, where an ADU is at
/// most `u32::MAX` bytes. No carried dependency but the two adds and no
/// overflow branch, so LLVM turns the word loop into SSE2 `pand`, `psrlq`
/// and `paddq` under `overflow-checks = true` (`scripts/verify.sh` checks
/// the `paddq`).
#[derive(Default)]
pub(crate) struct Lanes {
    lo: u64,
    hi: u64,
}

impl Lanes {
    /// Absorb one word.
    #[inline(always)]
    pub(crate) fn add(&mut self, word: &[u8; LANE_BLOCK]) {
        let w = u64::from_ne_bytes(*word);
        self.lo = self.lo.wrapping_add(w & 0xFFFF_FFFF);
        self.hi = self.hi.wrapping_add(w >> 32);
    }

    /// The words' total as a sum of **big-endian** 16-bit words, folded
    /// to 16 bits.
    #[inline]
    pub(crate) fn sum(self) -> u64 {
        // Each accumulator folds below 2^33 first, so the two add without
        // wrapping.
        let native = fold16(
            (self.lo & 0xFFFF_FFFF) + (self.lo >> 32) + (self.hi & 0xFFFF_FFFF) + (self.hi >> 32),
        );
        // The native sum's bytes in memory order are the big-endian sum's.
        u64::from(u16::from_be_bytes(native.to_ne_bytes()))
    }
}

/// End-around-carry fold of a partial sum to 16 bits.
#[inline]
pub(crate) fn fold16(mut s: u64) -> u16 {
    s = (s & 0xFFFF_FFFF) + (s >> 32); // < 2^33
    s = (s & 0xFFFF) + (s >> 16); // < 2^16 + 2^17
    s = (s & 0xFFFF) + (s >> 16); // <= 0xFFFF + 2
    s = (s & 0xFFFF) + (s >> 16);
    s as u16
}

/// Sum of fewer than [`LANE_BLOCK`] bytes as big-endian 16-bit words, an odd
/// final byte zero-padded in the low-order position: every kernel's tail.
#[inline]
pub(crate) fn sum_tail(tail: &[u8]) -> u64 {
    debug_assert!(tail.len() < LANE_BLOCK);
    let mut pairs = tail.chunks_exact(2);
    let mut sum = 0u64;
    for p in &mut pairs {
        sum += u64::from(u16::from_be_bytes([p[0], p[1]]));
    }
    if let [last] = pairs.remainder() {
        sum += u64::from(*last) << 8;
    }
    sum
}

/// The one summation core: `data` as big-endian 16-bit words (odd final
/// byte zero-padded), reduced below 2^32 but neither folded to 16 bits nor
/// complemented.
#[inline]
pub(crate) fn sum_words(data: &[u8]) -> u64 {
    let mut words = data.chunks_exact(LANE_BLOCK);
    let mut lanes = Lanes::default();
    for w in &mut words {
        lanes.add(w.try_into().expect("chunks_exact(LANE_BLOCK)"));
    }
    lanes.sum() + sum_tail(words.remainder())
}

/// The summation core one register at a time, for a loop that already holds
/// each 8-byte word of the data for another manipulation (the hosted
/// keystream pass in `ct-crypto`) and so pays no load of its own.
///
/// The accumulator is the one's-complement sum of the words mod 2^64 - 1 —
/// add, then add the carry back in — which 0xFFFF divides, so it folds to
/// the 16-bit sum; no number of words can overflow it.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordSum(u64);

impl WordSum {
    /// Absorb the eight data bytes `word.to_le_bytes()`.
    #[inline(always)]
    pub fn add(&mut self, word: u64) {
        let (sum, carry) = self.0.overflowing_add(word);
        // A carry leaves `sum <= 2^64 - 2`: the end-around add cannot wrap.
        self.0 = sum.wrapping_add(u64::from(carry));
    }

    /// The absorbed bytes as a sum of **big-endian** 16-bit words folded to
    /// 16 bits: what [`InternetChecksum::update_u16`] takes.
    pub fn sum(self) -> u16 {
        // The words were little-endian; swapping the folded sum's bytes
        // swaps every word's (RFC 1071 §2(B)).
        fold16(self.0).swap_bytes()
    }
}

/// Incremental Internet checksum (RFC 1071 one's-complement sum).
///
/// Feeding data in multiple chunks yields the same result as one shot,
/// provided chunks (other than the last) have even length — odd-length
/// intermediate chunks are handled by carrying the trailing byte.
#[derive(Debug, Clone, Default)]
pub struct InternetChecksum {
    /// Sum of big-endian 16-bit words so far; below 2^33 between calls.
    sum: u64,
    /// A dangling odd byte from the previous update, if any.
    pending: Option<u8>,
}

impl InternetChecksum {
    /// Fresh state (sum = 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a partial sum below 2^33 and fold back below 2^33, so no number
    /// of calls can overflow the state.
    #[inline]
    fn add(&mut self, partial: u64) {
        let s = self.sum.wrapping_add(partial); // < 2^34
        self.sum = (s & 0xFFFF_FFFF) + (s >> 32);
    }

    /// Absorb `data` into the running sum.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        if let Some(hi) = self.pending.take() {
            let Some((&lo, rest)) = data.split_first() else {
                self.pending = Some(hi);
                return;
            };
            self.add(u64::from(u16::from_be_bytes([hi, lo])));
            data = rest;
        }
        if data.len() % 2 == 1 {
            let (even, last) = data.split_at(data.len() - 1);
            self.pending = Some(last[0]);
            data = even;
        }
        self.add(sum_words(data));
    }

    /// Absorb a single 16-bit word (used by fused kernels).
    #[inline]
    pub fn update_u16(&mut self, word: u16) {
        debug_assert!(self.pending.is_none(), "update_u16 with pending odd byte");
        self.add(u64::from(word));
    }

    /// Absorb a 32-bit word as two 16-bit big-endian halves (fused kernels).
    #[inline]
    pub fn update_u32(&mut self, word: u32) {
        debug_assert!(self.pending.is_none(), "update_u32 with pending odd byte");
        // 2^16 = 1 (mod 0xFFFF): the word is congruent to the sum of its halves.
        self.add(u64::from(word));
    }

    /// Finish: fold carries, pad a dangling byte with zero, complement.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.add(u64::from(hi) << 8);
        }
        !fold16(self.sum)
    }
}

/// One-shot Internet checksum of `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold16(sum_words(data))
}

/// Internet checksum with a 4-way unrolled inner loop over 32-bit loads,
/// mirroring the paper's "hand-coded unrolled loops". Produces the same
/// value as [`internet_checksum`].
pub fn internet_checksum_unrolled(data: &[u8]) -> u16 {
    let mut sum: u64 = 0;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        // Four 32-bit big-endian loads per iteration.
        let a = u32::from_be_bytes([c[0], c[1], c[2], c[3]]) as u64;
        let b = u32::from_be_bytes([c[4], c[5], c[6], c[7]]) as u64;
        let d = u32::from_be_bytes([c[8], c[9], c[10], c[11]]) as u64;
        let e = u32::from_be_bytes([c[12], c[13], c[14], c[15]]) as u64;
        sum += a + b + d + e;
    }
    let rest = chunks.remainder();
    let mut it = rest.chunks_exact(2);
    for pair in &mut it {
        sum += u64::from(u16::from_be_bytes([pair[0], pair[1]]));
    }
    if let [last] = it.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    // Fold 64 -> 16 bits: the 32-bit loads contributed both halves already
    // aligned on 16-bit boundaries, so folding preserves the 1's-complement sum.
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Verify data against an expected Internet checksum.
///
/// Checking "sum including the transmitted checksum is 0xFFFF-folded-zero"
/// is the classic trick; here we keep it simple and recompute.
pub fn internet_checksum_ok(data: &[u8], expected: u16) -> bool {
    internet_checksum(data) == expected
}

/// Fletcher-16 checksum (two running sums mod 255). Cheap, order-sensitive.
pub fn fletcher16(data: &[u8]) -> u16 {
    let mut a: u32 = 0;
    let mut b: u32 = 0;
    // Process in blocks small enough that the u32 accumulators cannot
    // overflow before a reduction (classic 5802-byte bound shrunk for margin).
    for block in data.chunks(4096) {
        for &byte in block {
            a += u32::from(byte);
            b += a;
        }
        a %= 255;
        b %= 255;
    }
    ((b as u16) << 8) | (a as u16)
}

/// Fletcher-32 checksum over 16-bit little-endian words (odd tail padded).
pub fn fletcher32(data: &[u8]) -> u32 {
    let mut a: u64 = 0;
    let mut b: u64 = 0;
    let mut words_in_block = 0u32;
    let mut it = data.chunks_exact(2);
    for pair in &mut it {
        a += u64::from(u16::from_le_bytes([pair[0], pair[1]]));
        b += a;
        words_in_block += 1;
        if words_in_block == 359 {
            a %= 65535;
            b %= 65535;
            words_in_block = 0;
        }
    }
    if let [last] = it.remainder() {
        a += u64::from(u16::from_le_bytes([*last, 0]));
        b += a;
    }
    a %= 65535;
    b %= 65535;
    ((b as u32) << 16) | (a as u32)
}

/// Adler-32 checksum (zlib's code): like Fletcher but mod 65521.
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for block in data.chunks(5552) {
        for &byte in block {
            a += u32::from(byte);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
///
/// The per-byte table lookup makes CRC markedly more expensive than the
/// add-based codes above — exactly the per-byte cost spread the T1 ablation
/// bench reports.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental CRC-32: feed `state` from a previous call (start with
/// `0xFFFF_FFFF`, finish by XOR with `0xFFFF_FFFF`).
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = state;
    for &byte in data {
        let idx = ((crc ^ u32::from(byte)) & 0xFF) as usize;
        crc = (crc >> 8) ^ table[idx];
    }
    crc
}

/// Lazily-built 256-entry CRC-32 table.
fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    })
}

/// The error-detection codes available to protocol configurations, used by
/// the stack crates to parameterise integrity checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChecksumKind {
    /// No integrity check (e.g. when an outer layer already covers the data).
    None,
    /// RFC 1071 Internet one's-complement checksum (16-bit).
    Internet,
    /// Fletcher-32 (32-bit).
    Fletcher,
    /// Adler-32 (32-bit).
    Adler,
    /// CRC-32 IEEE (32-bit).
    Crc32,
}

impl ChecksumKind {
    /// Compute the selected code over `data`, widened to u32.
    pub fn compute(self, data: &[u8]) -> u32 {
        match self {
            ChecksumKind::None => 0,
            ChecksumKind::Internet => u32::from(internet_checksum(data)),
            ChecksumKind::Fletcher => fletcher32(data),
            ChecksumKind::Adler => adler32(data),
            ChecksumKind::Crc32 => crc32(data),
        }
    }

    /// Verify `data` against a previously computed value.
    pub fn verify(self, data: &[u8], expected: u32) -> bool {
        self.compute(data) == expected
    }

    /// Human-readable name used in bench output rows.
    pub fn name(self) -> &'static str {
        match self {
            ChecksumKind::None => "none",
            ChecksumKind::Internet => "internet",
            ChecksumKind::Fletcher => "fletcher32",
            ChecksumKind::Adler => "adler32",
            ChecksumKind::Crc32 => "crc32",
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Naive byte-wise RFC 1071 reference: pair bytes big-endian, zero-pad
    /// an odd tail in the low (second) byte, one's-complement fold.
    pub(crate) fn naive_internet_checksum(data: &[u8]) -> u16 {
        let mut sum: u64 = 0;
        let mut i = 0;
        while i < data.len() {
            let hi = data[i];
            let lo = if i + 1 < data.len() { data[i + 1] } else { 0 };
            sum += u64::from(hi) << 8 | u64::from(lo);
            i += 2;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Every length through several lane blocks, then each cache-size
    /// boundary ± 1: the grid the wide kernels are checked on.
    pub(crate) fn length_grid() -> impl Iterator<Item = usize> {
        (0..=300).chain([1024, 4096, 65536].into_iter().flat_map(|n| n - 1..=n + 1))
    }

    pub(crate) fn pattern(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i.wrapping_mul(113) ^ (i >> 5)) as u8)
            .collect()
    }

    #[test]
    fn wide_core_matches_naive_reference_on_grid() {
        for len in length_grid() {
            for data in [pattern(len), vec![0xFF; len]] {
                let want = naive_internet_checksum(&data);
                assert_eq!(internet_checksum(&data), want, "oneshot len {len}");
                // Odd split points leave a pending byte and start the wide
                // core on an odd address.
                for split in [1, 3, 31, 33, (len / 2) | 1] {
                    let mid = split.min(len);
                    let mut c = InternetChecksum::new();
                    c.update(&data[..mid]);
                    c.update(&data[mid..]);
                    assert_eq!(c.finish(), want, "len {len} split {mid}");
                }
            }
        }
    }

    /// Word-wise absorption joins the byte-wise state through `update_u16`,
    /// carries and the all-ones sum included.
    #[test]
    fn word_sum_matches_naive_reference() {
        for words in [0, 1, 2, 3, 64, 8192] {
            for data in [pattern(words * 8), vec![0xFF; words * 8]] {
                let mut sum = WordSum::default();
                for w in data.chunks_exact(8) {
                    sum.add(u64::from_le_bytes(w.try_into().unwrap()));
                }
                let mut c = InternetChecksum::new();
                c.update(&[0x12, 0x34]);
                c.update_u16(sum.sum());
                c.update(&[0x56]);
                let whole = [&[0x12, 0x34][..], &data, &[0x56]].concat();
                assert_eq!(c.finish(), naive_internet_checksum(&whole), "{words} words");
            }
        }
    }

    /// The state used to be a `u32` that folded only after a whole
    /// `update`: 200 000 bytes of `0xFF` overflowed it.
    #[test]
    fn large_inputs_do_not_overflow() {
        let ones = vec![0xFFu8; 1 << 20];
        assert_eq!(internet_checksum(&ones), 0x0000);
        let big = pattern(8 << 20);
        assert_eq!(internet_checksum(&big), naive_internet_checksum(&big));
        let mut c = InternetChecksum::new();
        c.update(&big);
        assert_eq!(c.finish(), naive_internet_checksum(&big));
    }

    /// `update_u16` / `update_u32` used never to fold at all.
    #[test]
    fn word_updates_do_not_overflow() {
        let mut c = InternetChecksum::new();
        for _ in 0..100_000 {
            c.update_u32(0xFFFF_FFFF);
        }
        assert_eq!(c.finish(), 0x0000);
        let mut c = InternetChecksum::new();
        for _ in 0..100_000 {
            c.update_u16(0xFFFF);
            c.update_u16(0x0001);
        }
        // 100 000 x (0xFFFF + 1) = 100 000 (mod 0xFFFF) = 0x86A1 (34 465).
        assert_eq!(c.finish(), !0x86A1);
    }

    #[test]
    fn internet_checksum_rfc1071_example() {
        // RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2,
        // checksum (complement) 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2u16);
    }

    #[test]
    fn internet_checksum_empty() {
        assert_eq!(internet_checksum(&[]), 0xFFFF);
    }

    #[test]
    fn internet_checksum_odd_length() {
        // Odd tail is padded with a zero byte.
        assert_eq!(internet_checksum(&[0xAB]), !0xAB00u16);
        assert_eq!(
            internet_checksum(&[0x12, 0x34, 0x56]),
            !(0x1234u16 + 0x5600)
        );
    }

    #[test]
    fn internet_checksum_carry_fold() {
        // 0xFFFF + 0xFFFF = 0x1FFFE -> fold -> 0xFFFF, complement 0x0000.
        assert_eq!(internet_checksum(&[0xFF, 0xFF, 0xFF, 0xFF]), 0x0000);
    }

    #[test]
    fn incremental_matches_oneshot_even_chunks() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut c = InternetChecksum::new();
        c.update(&data[..400]);
        c.update(&data[400..]);
        assert_eq!(c.finish(), internet_checksum(&data));
    }

    #[test]
    fn incremental_matches_oneshot_odd_chunks() {
        let data: Vec<u8> = (1..=77u8).collect();
        let mut c = InternetChecksum::new();
        c.update(&data[..3]);
        c.update(&data[3..10]);
        c.update(&[]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), internet_checksum(&data));
    }

    #[test]
    fn unrolled_matches_rolled() {
        for len in [0usize, 1, 2, 15, 16, 17, 31, 32, 33, 100, 4000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + 17) as u8).collect();
            assert_eq!(
                internet_checksum_unrolled(&data),
                internet_checksum(&data),
                "len {len}"
            );
        }
    }

    #[test]
    fn update_u32_matches_bytes() {
        let data = [0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0];
        let mut a = InternetChecksum::new();
        a.update(&data);
        let mut b = InternetChecksum::new();
        b.update_u32(0x1234_5678);
        b.update_u32(0x9ABC_DEF0);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn checksum_detects_single_bit_flip() {
        let mut data = OwnedData::new(4000);
        let orig = internet_checksum(&data.0);
        data.0[1234] ^= 0x40;
        assert_ne!(internet_checksum(&data.0), orig);
    }

    struct OwnedData(Vec<u8>);
    impl OwnedData {
        fn new(n: usize) -> Self {
            Self((0..n).map(|i| (i * 7 + 3) as u8).collect())
        }
    }

    #[test]
    fn fletcher16_known_values() {
        // Classic worked example: "abcde" -> 0xC8F0.
        assert_eq!(fletcher16(b"abcde"), 0xC8F0);
        assert_eq!(fletcher16(b"abcdef"), 0x2057);
        assert_eq!(fletcher16(b"abcdefgh"), 0x0627);
    }

    #[test]
    fn fletcher32_known_values() {
        // Wikipedia test vectors (16-bit LE words).
        assert_eq!(fletcher32(b"abcde"), 0xF04FC729);
        assert_eq!(fletcher32(b"abcdef"), 0x56502D2A);
        assert_eq!(fletcher32(b"abcdefgh"), 0xEBE19591);
    }

    #[test]
    fn adler32_known_values() {
        // zlib test vector: "Wikipedia" -> 0x11E60398.
        assert_eq!(adler32(b"Wikipedia"), 0x11E60398);
        assert_eq!(adler32(b""), 1);
    }

    #[test]
    fn crc32_known_values() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414FA339
        );
    }

    #[test]
    fn crc32_incremental() {
        let data = b"hello, integrated layer processing";
        let mut st = 0xFFFF_FFFFu32;
        st = crc32_update(st, &data[..10]);
        st = crc32_update(st, &data[10..]);
        assert_eq!(st ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn kind_compute_and_verify() {
        let data = b"some payload bytes";
        for kind in [
            ChecksumKind::None,
            ChecksumKind::Internet,
            ChecksumKind::Fletcher,
            ChecksumKind::Adler,
            ChecksumKind::Crc32,
        ] {
            let v = kind.compute(data);
            assert!(kind.verify(data, v), "{}", kind.name());
            if kind != ChecksumKind::None {
                assert!(!kind.verify(b"other payload bytes!", v), "{}", kind.name());
            }
        }
    }

    #[test]
    fn fletcher_large_input_no_overflow() {
        // Exercise the block-reduction path on inputs far beyond one block.
        let data = vec![0xFFu8; 1 << 20];
        let _ = fletcher16(&data);
        let _ = fletcher32(&data);
        let _ = adler32(&data);
    }

    /// RFC 1071 §1: an odd final byte is the HIGH-order byte of a 16-bit
    /// word padded with zero — a property of the big-endian wire format,
    /// independent of host byte order. A little-endian-host bug would put
    /// it in the low-order position instead; pin both positions apart.
    #[test]
    fn odd_tail_pads_into_high_order_position() {
        let ck = internet_checksum(&[0x12, 0x34, 0xAB]);
        assert_eq!(ck, !(0x1234u16.wrapping_add(0xAB00)));
        assert_ne!(ck, !(0x1234u16.wrapping_add(0x00AB)), "LE-position bug");
        // Same property via the explicit be/le constructions.
        assert_eq!(
            internet_checksum(&[0xCD]),
            !u16::from_be_bytes([0xCD, 0x00])
        );
        assert_ne!(
            internet_checksum(&[0xCD]),
            !u16::from_le_bytes([0xCD, 0x00])
        );
    }

    /// The odd-tail position rule must hold on every absorption path: the
    /// one-shot, the unrolled loop, an odd byte carried across `update`
    /// calls, and an odd byte still pending at `finish`.
    #[test]
    fn odd_tail_position_consistent_across_paths() {
        let data = [0x01, 0x02, 0x03, 0x04, 0x05];
        let expect = !(0x0102u16 + 0x0304 + 0x0500);
        assert_eq!(internet_checksum(&data), expect);
        assert_eq!(internet_checksum_unrolled(&data), expect);
        // Pending byte resolved by the next update: [..3] leaves 0x03
        // dangling; the following chunk's first byte completes the word.
        let mut c = InternetChecksum::new();
        c.update(&data[..3]);
        c.update(&data[3..]);
        assert_eq!(c.finish(), expect);
        // Pending byte resolved at finish.
        let mut c = InternetChecksum::new();
        c.update(&data[..4]);
        c.update(&data[4..]);
        assert_eq!(c.finish(), expect);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::naive_internet_checksum;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every prefix length 0..=64 of arbitrary content matches the
        /// naive reference on all three absorption paths.
        #[test]
        fn prop_matches_naive_reference_all_lengths(
            data in proptest::collection::vec(any::<u8>(), 64..65),
            split in 0usize..65,
        ) {
            for len in 0..=64usize {
                let d = &data[..len];
                let want = naive_internet_checksum(d);
                prop_assert_eq!(internet_checksum(d), want, "oneshot len {}", len);
                prop_assert_eq!(internet_checksum_unrolled(d), want, "unrolled len {}", len);
                let mut c = InternetChecksum::new();
                let mid = split.min(len);
                c.update(&d[..mid]);
                c.update(&d[mid..]);
                prop_assert_eq!(c.finish(), want, "incremental len {} split {}", len, mid);
            }
        }
    }
}
