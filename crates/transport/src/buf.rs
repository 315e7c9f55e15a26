//! The stream transport's byte FIFO — its send/retransmit buffer and its
//! in-order receive queue.

/// A contiguous byte FIFO with memcpy-grade push/pop and amortised
/// compaction — the buffer discipline a competent byte-stream transport
/// uses (BSD's mbuf chains achieve the same effect; a contiguous ring is
/// the simplest portable equivalent).
///
/// Every operation is slice-wise: pushing N bytes is one `memcpy`, popping
/// N bytes is one `memcpy`, and the head space is reclaimed by an occasional
/// amortised `memmove`. No per-byte loops anywhere.
///
/// Queued bytes can be borrowed in place ([`ByteFifo::slice`]) and dropped
/// from the front without being copied out ([`ByteFifo::release`]): the send
/// side encodes every (re)transmission straight from the queue and releases
/// a segment's bytes only once it is acknowledged, as BSD's `so_snd` does.
#[derive(Debug, Clone, Default)]
pub(crate) struct ByteFifo {
    buf: Vec<u8>,
    head: usize,
}

impl ByteFifo {
    /// An empty FIFO.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Bytes queued.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True if nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Append bytes (one data copy).
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.compact_if_due();
        self.buf.extend_from_slice(bytes);
    }

    /// Copy up to `out.len()` bytes from the front into `out`; returns the
    /// count (one data copy).
    pub(crate) fn pop_into(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.len());
        out[..n].copy_from_slice(self.slice(0, n));
        self.release(n);
        n
    }

    /// Borrow `len` queued bytes starting `offset` bytes behind the front,
    /// without consuming them.
    ///
    /// # Panics
    /// If `offset + len` exceeds the bytes queued.
    pub(crate) fn slice(&self, offset: usize, len: usize) -> &[u8] {
        &self.buf[self.head..][offset..offset + len]
    }

    /// Drop the first `n` queued bytes (no data movement beyond the
    /// amortised compaction).
    ///
    /// # Panics
    /// If fewer than `n` bytes are queued.
    pub(crate) fn release(&mut self, n: usize) {
        assert!(n <= self.len(), "release past end of fifo");
        self.head += n;
        self.compact_if_due();
    }

    fn compact_if_due(&mut self) {
        if self.head >= 4096 && self.head * 2 >= self.buf.len() {
            self.buf.copy_within(self.head.., 0);
            self.buf.truncate(self.buf.len() - self.head);
            self.head = 0;
        }
    }
}

#[cfg(test)]
mod fifo_tests {
    use super::ByteFifo;

    #[test]
    fn push_pop_roundtrip() {
        let mut f = ByteFifo::new();
        assert!(f.is_empty());
        f.push(b"hello ");
        f.push(b"world");
        assert_eq!(f.len(), 11);
        let mut out = [0u8; 6];
        assert_eq!(f.pop_into(&mut out), 6);
        assert_eq!(&out, b"hello ");
        assert_eq!(f.slice(0, 5), b"world");
        f.release(5);
        assert!(f.is_empty());
    }

    #[test]
    fn pop_more_than_available() {
        let mut f = ByteFifo::new();
        f.push(&[1, 2, 3]);
        let mut out = [0u8; 10];
        assert_eq!(f.pop_into(&mut out), 3);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert_eq!(f.pop_into(&mut out), 0);
    }

    #[test]
    #[should_panic(expected = "release past end")]
    fn release_too_much_panics() {
        let mut f = ByteFifo::new();
        f.push(&[1]);
        f.release(2);
    }

    #[test]
    #[should_panic]
    fn slice_past_end_panics() {
        let mut f = ByteFifo::new();
        f.push(&[1, 2, 3]);
        let _ = f.slice(2, 2);
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut f = ByteFifo::new();
        let data: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
        let mut cursor = 0usize;
        let mut out = vec![0u8; 1000];
        let mut pushed = 0usize;
        // Interleave pushes and pops to force many compactions.
        while cursor < data.len() {
            if pushed < data.len() {
                let take = 3000.min(data.len() - pushed);
                f.push(&data[pushed..pushed + take]);
                pushed += take;
            }
            let n = f.pop_into(&mut out);
            assert_eq!(&out[..n], &data[cursor..cursor + n]);
            cursor += n;
        }
        assert!(f.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = ByteFifo::new();
        f.push(b"abcdef");
        assert_eq!(f.slice(0, 6), b"abcdef");
        assert_eq!(f.slice(2, 3), b"cde");
        assert_eq!(f.len(), 6);
    }
}

#[cfg(test)]
mod fifo_proptests {
    use super::ByteFifo;
    use proptest::prelude::*;

    /// Random interleavings of push/pop/borrow/release against a VecDeque
    /// model.
    #[derive(Debug, Clone)]
    enum Op {
        Push(Vec<u8>),
        Pop(usize),
        Slice(usize, usize),
        Release(usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..512).prop_map(Op::Push),
            (0usize..600).prop_map(Op::Pop),
            (0usize..600, 0usize..600).prop_map(|(o, l)| Op::Slice(o, l)),
            (0usize..300).prop_map(Op::Release),
        ]
    }

    proptest! {
        #[test]
        fn prop_fifo_matches_model(ops in proptest::collection::vec(arb_op(), 0..64)) {
            let mut fifo = ByteFifo::new();
            let mut model: std::collections::VecDeque<u8> = Default::default();
            for op in ops {
                match op {
                    Op::Push(bytes) => {
                        fifo.push(&bytes);
                        model.extend(bytes);
                    }
                    Op::Pop(n) => {
                        let mut out = vec![0u8; n];
                        let got = fifo.pop_into(&mut out);
                        let want: Vec<u8> = model.drain(..n.min(model.len())).collect();
                        prop_assert_eq!(got, want.len());
                        prop_assert_eq!(&out[..got], &want[..]);
                    }
                    Op::Slice(offset, len) => {
                        let offset = offset.min(fifo.len());
                        let len = len.min(fifo.len() - offset);
                        let want: Vec<u8> =
                            model.iter().skip(offset).take(len).copied().collect();
                        prop_assert_eq!(fifo.slice(offset, len), &want[..]);
                    }
                    Op::Release(n) => {
                        let n = n.min(fifo.len());
                        fifo.release(n);
                        model.drain(..n);
                    }
                }
                prop_assert_eq!(fifo.len(), model.len());
                prop_assert_eq!(fifo.is_empty(), model.is_empty());
            }
        }
    }
}
