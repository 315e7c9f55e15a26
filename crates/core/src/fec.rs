//! ADU-level forward error correction.
//!
//! §5, footnote 10: "lower layer recovery schemes, such as forward error
//! correction (FEC), may be applied to these transmission units. Similarly,
//! our general assertion regarding applications is not meant to preclude
//! the use of ADU-level FEC."
//!
//! The scheme is single-erasure XOR parity, the classic building block: the
//! sender groups an ADU's data TUs into runs of `k` consecutive fragments
//! and emits one **parity TU** per group whose payload is the byte-wise XOR
//! of the group's fragments (short tails zero-padded). Any *one* missing
//! fragment in a group can then be rebuilt at the receiver without a
//! retransmission round trip — which matters most in
//! [`RecoveryMode::NoRetransmit`](crate::transport::RecoveryMode) flows
//! (real-time media) and on high-latency paths.
//!
//! Wire form: a TU with [`TU_FLAG_PARITY`] set, `frag_off` = the group's
//! first fragment offset, and payload `[k: u8][xor bytes]` where the xor
//! body is as long as the group's longest fragment. The parity TU is
//! self-describing, like every TU (§7).

use crate::wire::{Tu, TU_FLAG_PARITY};

/// Maximum group size (fits the one-byte `k` prefix with margin; larger
/// groups give weaker protection anyway).
pub const MAX_GROUP: usize = 64;

/// Build parity TUs for `data_tus` (the output of
/// [`crate::wire::fragment_adu_buf`] — uniform `mtu`-sized fragments with a
/// short tail), one parity TU per run of `k` fragments.
///
/// Returns an empty vector when protection is pointless (`k == 0`, a
/// single-fragment ADU, or empty input).
///
/// # Panics
/// If `k > MAX_GROUP`.
pub fn build_parity(data_tus: &[Tu], k: usize) -> Vec<Tu> {
    assert!(k <= MAX_GROUP, "FEC group too large");
    if k == 0 || data_tus.len() <= 1 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for group in data_tus.chunks(k) {
        // Parity over a single fragment is a copy — skip trivial tails.
        if group.len() == 1 {
            continue;
        }
        let max_len = group
            .iter()
            .map(|t| t.payload.len())
            .max()
            .expect("non-empty");
        let mut body = vec![0u8; 1 + max_len];
        body[0] = group.len() as u8;
        for tu in group {
            for (i, &b) in tu.payload.iter().enumerate() {
                body[1 + i] ^= b;
            }
        }
        let first = &group[0];
        out.push(Tu {
            flags: TU_FLAG_PARITY,
            assoc: first.assoc,
            timestamp_us: 0,
            adu_id: first.adu_id,
            adu_len: first.adu_len,
            frag_off: first.frag_off,
            name: first.name,
            payload: body.into(),
        });
    }
    out
}

/// A parsed parity TU, receiver side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parity {
    /// First fragment offset the group covers.
    pub group_off: u32,
    /// Number of data fragments in the group.
    pub k: u8,
    /// XOR body (length = the group's fragment size, i.e. the sender MTU,
    /// except possibly shorter for a final short group).
    pub xor: Vec<u8>,
}

/// Parse a parity TU's payload. Returns `None` for malformed parity
/// (empty payload or zero/oversized `k`).
pub fn parse_parity(tu: &Tu) -> Option<Parity> {
    if tu.flags & TU_FLAG_PARITY == 0 || tu.payload.is_empty() {
        return None;
    }
    let k = tu.payload[0];
    if k == 0 || k as usize > MAX_GROUP {
        return None;
    }
    Some(Parity {
        group_off: tu.frag_off,
        k,
        xor: tu.payload[1..].to_vec(),
    })
}

/// Given the parity for a group, the group's fragment size (`mtu`), the
/// total ADU length, and a lookup for present fragment bytes, attempt to
/// reconstruct the single missing fragment.
///
/// `present(j)` returns the bytes of fragment `j` of the group (`0..k`) if
/// the receiver holds it, with its true (possibly short-tail) length.
///
/// Returns `Some((frag_off, bytes))` when exactly one fragment is missing
/// and was rebuilt; `None` when zero or more than one is missing.
pub fn reconstruct(
    parity: &Parity,
    mtu: usize,
    adu_len: u32,
    mut present: impl FnMut(usize) -> Option<Vec<u8>>,
) -> Option<(u32, Vec<u8>)> {
    let mut missing: Option<usize> = None;
    let mut acc = parity.xor.clone();
    for j in 0..parity.k as usize {
        match present(j) {
            Some(bytes) => {
                for (i, &b) in bytes.iter().enumerate() {
                    if i < acc.len() {
                        acc[i] ^= b;
                    }
                }
            }
            None => {
                if missing.is_some() {
                    return None; // two erasures beat single parity
                }
                missing = Some(j);
            }
        }
    }
    let j = missing?;
    let frag_off = parity.group_off + (j * mtu) as u32;
    // The true fragment length: full mtu except a short ADU tail.
    let remaining = adu_len.saturating_sub(frag_off) as usize;
    let len = remaining.min(mtu);
    if len == 0 || len > acc.len() {
        return None;
    }
    acc.truncate(len);
    Some((frag_off, acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adu::AduName;
    use crate::wire::fragment_adu_buf;

    fn payload(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i.wrapping_mul(73) ^ (i >> 4)) as u8)
            .collect()
    }

    fn tus(len: usize, mtu: usize) -> (Vec<u8>, Vec<Tu>) {
        let data = payload(len);
        let t = fragment_adu_buf(
            1,
            5,
            AduName::Seq { index: 5 },
            &data.as_slice().into(),
            mtu,
        );
        (data, t)
    }

    #[test]
    fn parity_counts() {
        let (_, t) = tus(10_000, 1000); // 10 fragments
        assert_eq!(build_parity(&t, 4).len(), 3); // groups 4+4+2
        assert_eq!(build_parity(&t, 10).len(), 1);
        assert_eq!(build_parity(&t, 0).len(), 0);
        let (_, single) = tus(500, 1000);
        assert_eq!(build_parity(&single, 4).len(), 0, "single TU: no parity");
    }

    #[test]
    fn parity_parses_and_roundtrips_wire() {
        let (_, t) = tus(5000, 1000);
        let parity = build_parity(&t, 5);
        assert_eq!(parity.len(), 1);
        let wire = crate::wire::Message::Tu(parity[0].clone()).encode();
        match crate::wire::Message::decode_frame(&wire.into()).unwrap() {
            crate::wire::Message::Tu(tu) => {
                let p = parse_parity(&tu).expect("valid parity");
                assert_eq!(p.k, 5);
                assert_eq!(p.group_off, 0);
                assert_eq!(p.xor.len(), 1000);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reconstruct_each_possible_erasure() {
        let mtu = 700;
        let (data, t) = tus(3000, mtu); // 5 fragments: 700*4 + 200
        let parity = build_parity(&t, 5);
        let p = parse_parity(&parity[0]).unwrap();
        for lost in 0..t.len() {
            let got = reconstruct(&p, mtu, 3000, |j| {
                if j == lost {
                    None
                } else {
                    t.get(j).map(|tu| tu.payload.to_vec())
                }
            })
            .unwrap_or_else(|| panic!("reconstruction failed for lost={lost}"));
            let (off, bytes) = got;
            assert_eq!(off, t[lost].frag_off);
            assert_eq!(bytes, t[lost].payload, "lost={lost}");
            let off = off as usize;
            assert_eq!(&data[off..off + bytes.len()], &bytes[..]);
        }
    }

    #[test]
    fn two_erasures_not_reconstructible() {
        let (_, t) = tus(4000, 1000);
        let parity = build_parity(&t, 4);
        let p = parse_parity(&parity[0]).unwrap();
        let got = reconstruct(&p, 1000, 4000, |j| {
            if j <= 1 {
                None
            } else {
                t.get(j).map(|tu| tu.payload.to_vec())
            }
        });
        assert!(got.is_none());
    }

    #[test]
    fn zero_erasures_is_noop() {
        let (_, t) = tus(4000, 1000);
        let parity = build_parity(&t, 4);
        let p = parse_parity(&parity[0]).unwrap();
        let got = reconstruct(&p, 1000, 4000, |j| t.get(j).map(|tu| tu.payload.to_vec()));
        assert!(got.is_none());
    }

    #[test]
    fn malformed_parity_rejected() {
        let (_, t) = tus(4000, 1000);
        let mut fake = t[0].clone();
        assert!(parse_parity(&fake).is_none(), "data TU is not parity");
        fake.flags = TU_FLAG_PARITY;
        fake.payload = vec![].into();
        assert!(parse_parity(&fake).is_none());
        fake.payload = vec![0].into();
        assert!(parse_parity(&fake).is_none(), "k=0 invalid");
        fake.payload = vec![200, 1, 2].into();
        assert!(parse_parity(&fake).is_none(), "k>MAX_GROUP invalid");
    }

    #[test]
    #[should_panic(expected = "FEC group too large")]
    fn oversized_group_panics() {
        let (_, t) = tus(4000, 1000);
        build_parity(&t, MAX_GROUP + 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::adu::AduName;
    use crate::wire::fragment_adu_buf;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_any_single_erasure_recovers(
            data in proptest::collection::vec(any::<u8>(), 2..5000),
            mtu in 1usize..800,
            k in 2usize..10,
            lost_sel in any::<prop::sample::Index>(),
        ) {
            let t = fragment_adu_buf(1, 1, AduName::Seq { index: 1 }, &data.as_slice().into(), mtu);
            prop_assume!(t.len() > 1);
            let parities = build_parity(&t, k);
            let lost = lost_sel.index(t.len());
            // Find the parity group covering the lost fragment.
            let group_idx = lost / k;
            let group_start = group_idx * k;
            let group_len = k.min(t.len() - group_start);
            if group_len == 1 {
                // Trivial tail group: unprotected by design.
                return Ok(());
            }
            let parity = parities
                .iter()
                .find(|p| p.frag_off == t[group_start].frag_off)
                .expect("group parity exists");
            let p = parse_parity(parity).unwrap();
            let (off, bytes) = reconstruct(&p, mtu, data.len() as u32, |j| {
                let idx = group_start + j;
                if idx == lost { None } else { t.get(idx).map(|tu| tu.payload.to_vec()) }
            }).expect("single erasure must recover");
            prop_assert_eq!(off, t[lost].frag_off);
            prop_assert_eq!(bytes, t[lost].payload.clone());
        }
    }
}
