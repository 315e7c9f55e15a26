//! Flat containers keyed by sender-assigned ADU ids.
//!
//! ADU ids are monotone per association, so the two per-frame id structures
//! need no tree: the sender window is a ring sorted by id ([`IdRing`]) and
//! the receiver's replay window a deque of id runs ([`ReplayWindow`]). For
//! in-order traffic both are O(1) and allocate nothing once warm; anything
//! else is a binary search plus a bounded shift.

use std::collections::VecDeque;

/// A map from ADU id to `T`, stored as a ring sorted by id.
///
/// Sorted by id, *not* indexed by `id - oldest`: one stuck ADU at the front
/// would let a dense span grow without bound while newer ADUs are admitted
/// and acknowledged behind it. Here memory is the live entries only.
#[derive(Debug)]
pub(crate) struct IdRing<T> {
    entries: VecDeque<(u64, T)>,
}

impl<T> Default for IdRing<T> {
    fn default() -> Self {
        Self {
            entries: VecDeque::new(),
        }
    }
}

impl<T> IdRing<T> {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Slots allocated (for memory accounting).
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// `Ok(index)` of `id`, or `Err(index)` where it would be inserted. The
    /// oldest entry is tried first: ACKs arrive in send order.
    fn position(&self, id: u64) -> Result<usize, usize> {
        match self.entries.front() {
            Some(&(oldest, _)) if oldest == id => Ok(0),
            _ => self.entries.binary_search_by_key(&id, |&(k, _)| k),
        }
    }

    /// Insert or replace; returns the displaced value. A new highest id —
    /// what a sender produces — is a `push_back`.
    pub(crate) fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.entries.back().is_none_or(|&(newest, _)| newest < id) {
            self.entries.push_back((id, value));
            return None;
        }
        match self.position(id) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (id, value));
                None
            }
        }
    }

    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        self.position(id).ok().map(|i| &self.entries[i].1)
    }

    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.position(id).ok().map(|i| &mut self.entries[i].1)
    }

    pub(crate) fn contains_key(&self, id: u64) -> bool {
        self.position(id).is_ok()
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.position(id).ok()?;
        self.entries.remove(i).map(|(_, v)| v)
    }

    /// Values in id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Remove every entry, in id order; the ring keeps its allocation.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.entries.drain(..)
    }
}

/// Ids a [`ReplayWindow`] holds before the oldest slide under its floor.
const REPLAY_WINDOW_IDS: usize = 4096;

/// The ids of released ADUs, for duplicate and replay suppression: the most
/// recent [`REPLAY_WINDOW_IDS`] as sorted, disjoint, non-adjacent inclusive
/// runs, plus a floor below which every id counts as released. Sender ids
/// are monotone, so trimmed (oldest) ids slide under the floor instead of
/// losing suppression, and in-order traffic is a single run.
#[derive(Debug, Default)]
pub(crate) struct ReplayWindow {
    runs: VecDeque<(u64, u64)>,
    /// Ids held across all runs.
    len: usize,
    floor: u64,
}

impl ReplayWindow {
    /// Record `id` as released, then trim to the cap.
    pub(crate) fn insert(&mut self, id: u64) {
        // The first run reaching `id - 1`: it holds `id`, is extended by
        // it, or lies wholly above it.
        let i = self
            .runs
            .partition_point(|&(_, last)| id > 0 && last < id - 1);
        match self.runs.get(i).copied() {
            Some((first, last)) if first <= id && id <= last => return,
            Some((_, last)) if id > 0 && last == id - 1 => {
                self.runs[i].1 = id;
                // `id` may have closed the gap to the next run.
                if let Some(&(next_first, next_last)) = self.runs.get(i + 1) {
                    if next_first - 1 == id {
                        self.runs[i].1 = next_last;
                        self.runs.remove(i + 1);
                    }
                }
            }
            // Not held and not adjacent below, so `first > id`.
            Some((first, _)) if first - 1 == id => self.runs[i].0 = id,
            _ => {
                // In-order traffic never needs a second run: start with one
                // slot, not the four a first `insert` would reserve (48 B
                // on each of a server's 10^5 endpoints).
                if self.runs.capacity() == 0 {
                    self.runs.reserve_exact(1);
                }
                self.runs.insert(i, (id, id));
            }
        }
        self.len += 1;
        while self.len > REPLAY_WINDOW_IDS {
            let oldest = self.runs.front_mut().expect("len > 0 implies a run");
            let first = oldest.0;
            if oldest.0 == oldest.1 {
                self.runs.pop_front();
            } else {
                oldest.0 += 1;
            }
            self.len -= 1;
            self.floor = self.floor.max(first.saturating_add(1));
        }
    }

    /// Whether `id` was released (held, or below the floor).
    pub(crate) fn contains(&self, id: u64) -> bool {
        if id < self.floor {
            return true;
        }
        let i = self.runs.partition_point(|&(_, last)| last < id);
        self.runs.get(i).is_some_and(|&(first, _)| first <= id)
    }

    /// Ids below this count as released.
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    /// Ids held above the floor's reach (≤ [`REPLAY_WINDOW_IDS`]).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Run slots allocated (for memory accounting).
    pub(crate) fn capacity(&self) -> usize {
        self.runs.capacity()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    proptest! {
        /// The ring against `BTreeMap<u64, _>`: monotone inserts with gaps,
        /// occasional re-inserts and out-of-order inserts, arbitrary
        /// get/get_mut/remove, iteration and drain in id order.
        #[test]
        fn prop_id_ring_matches_btreemap(
            ops in prop::collection::vec((0u8..6, 0u64..48, any::<u32>()), 0..200),
        ) {
            let mut ring: IdRing<u32> = IdRing::default();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut next = 0u64;
            for (op, key, v) in ops {
                match op {
                    0 | 1 => {
                        next += 1 + key % 3; // sender ids: increasing, gaps allowed
                        prop_assert_eq!(ring.insert(next, v), model.insert(next, v));
                    }
                    2 => prop_assert_eq!(ring.insert(key, v), model.insert(key, v)),
                    3 => prop_assert_eq!(ring.remove(key), model.remove(&key)),
                    4 => {
                        if let Some(x) = ring.get_mut(key) {
                            *x = v;
                        }
                        if let Some(x) = model.get_mut(&key) {
                            *x = v;
                        }
                    }
                    _ => {
                        // The oldest entry is the ring's fast path.
                        if let Some((&oldest, _)) = model.iter().next() {
                            prop_assert_eq!(ring.remove(oldest), model.remove(&oldest));
                        }
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.is_empty(), model.is_empty());
                for probe in [key, next, key + 1] {
                    prop_assert_eq!(ring.get(probe), model.get(&probe));
                    prop_assert_eq!(ring.contains_key(probe), model.contains_key(&probe));
                }
            }
            prop_assert!(ring.values().eq(model.values()));
            prop_assert!(ring.drain().eq(model.into_iter()));
            prop_assert!(ring.is_empty());
        }
    }

    /// The parent's replay window, literally: a tree set trimmed from the
    /// front, with the trimmed ids sliding under a floor.
    #[derive(Default)]
    struct ModelWindow {
        released: BTreeSet<u64>,
        floor: u64,
    }

    impl ModelWindow {
        fn insert(&mut self, id: u64) {
            self.released.insert(id);
            while self.released.len() > 4096 {
                let first = *self.released.iter().next().expect("non-empty");
                self.released.remove(&first);
                self.floor = self.floor.max(first + 1);
            }
        }

        fn contains(&self, id: u64) -> bool {
            id < self.floor || self.released.contains(&id)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// In-order, block-reversed, gapped and replayed id streams long
        /// enough to push ids under the floor.
        #[test]
        fn prop_replay_window_matches_tree_model(
            base in 0u64..10,
            n in 1u64..6000,
            step in 1u64..4,
            block in 1u64..40,
            replay_every in 2u64..50,
            replay_back in 0u64..5000,
        ) {
            let mut win = ReplayWindow::default();
            let mut model = ModelWindow::default();
            let check = |win: &ReplayWindow, model: &ModelWindow, hi: u64| {
                assert_eq!(win.floor(), model.floor);
                assert_eq!(win.len(), model.released.len());
                for id in 0..hi + 3 {
                    assert_eq!(win.contains(id), model.contains(id), "id {id}");
                }
            };
            for k in 0..n {
                // Reverse within blocks of `block`; `step` leaves gaps.
                let in_block = k % block;
                let block_len = block.min(n - (k - in_block));
                let id = base + (k - in_block + block_len - 1 - in_block) * step;
                win.insert(id);
                model.insert(id);
                if k % replay_every == 0 {
                    // A replay of an older id — possibly below the floor.
                    let old = id.saturating_sub(replay_back);
                    win.insert(old);
                    model.insert(old);
                }
                if k % 1500 == 0 {
                    check(&win, &model, base + n * step);
                }
            }
            check(&win, &model, base + n * step);
        }
    }

    #[test]
    fn replay_window_survives_extreme_ids() {
        // Forged frames can carry any id: no arithmetic on one may overflow.
        let mut win = ReplayWindow::default();
        for id in [u64::MAX, 0, u64::MAX - 1, 1, u64::MAX - 3] {
            win.insert(id);
            assert!(win.contains(id));
        }
        assert!(!win.contains(u64::MAX - 2));
        assert!(!win.contains(2));
        assert_eq!(win.len(), 5);
        assert_eq!(win.floor(), 0);
    }
}
