//! Flat containers keyed by sender-assigned ADU ids.
//!
//! ADU ids are monotone per association, so the two per-frame id structures
//! need no tree: the sender window is a ring sorted by id ([`IdRing`]) and
//! the receiver's replay window a list of id runs ([`ReplayWindow`]) whose
//! lowest run lives inline. For in-order traffic both are O(1), the replay
//! window never allocates and the ring allocates nothing once warm;
//! anything else is a binary search plus a bounded shift.

use std::collections::VecDeque;

/// A map from ADU id to `T`, stored as a ring sorted by id, with a *parked*
/// tail: entries queued behind the map under ids above every mapped one,
/// invisible to the map operations until [`IdRing::admit`] moves the oldest
/// of them in. One ring is then both the sender's admission queue and its
/// window of unacknowledged ADUs, and admitting an ADU moves no data.
///
/// Sorted by id, *not* indexed by `id - oldest`: one stuck ADU at the front
/// would let a dense span grow without bound while newer ADUs are admitted
/// and acknowledged behind it. Here memory is the live entries only.
#[derive(Debug)]
pub(crate) struct IdRing<T> {
    entries: VecDeque<(u64, T)>,
    /// Entries at the back that are parked, not mapped.
    parked: usize,
}

impl<T> Default for IdRing<T> {
    fn default() -> Self {
        Self {
            entries: VecDeque::new(),
            parked: 0,
        }
    }
}

impl<T> IdRing<T> {
    /// Mapped entries (parked ones excluded).
    pub(crate) fn len(&self) -> usize {
        self.entries.len() - self.parked
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when nothing is mapped or parked.
    pub(crate) fn is_vacant(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parked entries.
    pub(crate) fn parked_len(&self) -> usize {
        self.parked
    }

    /// Slots allocated (for memory accounting).
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Make room for `additional` more entries.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// `Ok(index)` of mapped `id`, or `Err(index)` where it would be
    /// inserted. Ids are distinct and sorted, so between the oldest and the
    /// newest `id` can only sit in `[len − 1 − (newest − id), id − oldest]`,
    /// a range as wide as the ids missing from the ring (acknowledged out
    /// of order, or never sent). Its top, `id − oldest`, is exactly where
    /// `id` sits while the window has no gap — the one slot tried before
    /// the binary search over the rest.
    fn position(&self, id: u64) -> Result<usize, usize> {
        let live = self.len();
        let (Some(&(oldest, _)), Some(&(newest, _))) = (self.entries.front(), self.entries.back())
        else {
            return Err(0);
        };
        if id < oldest {
            return Err(0);
        }
        if id > newest {
            return Err(live);
        }
        let last = self.entries.len() as u64 - 1;
        let hi = (id - oldest).min(last) as usize;
        let found = if self.entries[hi].0 == id {
            Ok(hi)
        } else {
            // `[lo, hi)`: `hi` itself just missed, and the insertion point
            // of an absent id lies in `[lo, hi]` too.
            let mut lo = last.saturating_sub(newest - id) as usize;
            let mut hi = hi;
            loop {
                if lo >= hi {
                    break Err(lo);
                }
                let mid = lo + (hi - lo) / 2;
                match self.entries[mid].0.cmp(&id) {
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                    std::cmp::Ordering::Equal => break Ok(mid),
                }
            }
        };
        // Parked ids lie above every mapped one, so the whole ring is
        // sorted and a hit at or past `live` is a parked entry.
        match found {
            Ok(i) if i < live => Ok(i),
            Ok(_) => Err(live),
            Err(i) => Err(i.min(live)),
        }
    }

    /// Insert or replace a mapped entry; returns the displaced value. Only
    /// the oracle test maps entries directly — the transport parks, then
    /// admits.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, id: u64, value: T) -> Option<T> {
        assert_eq!(
            self.parked, 0,
            "direct inserts and a parked tail do not mix"
        );
        match self.position(id) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (id, value));
                None
            }
        }
    }

    /// Queue `value` behind the map. `id` must exceed every id in the ring
    /// (sender ids are assigned monotonically at submission).
    pub(crate) fn park(&mut self, id: u64, value: T) {
        debug_assert!(self.entries.back().is_none_or(|&(newest, _)| newest < id));
        self.entries.push_back((id, value));
        self.parked += 1;
    }

    /// Parked values, oldest first.
    pub(crate) fn parked(&self) -> impl Iterator<Item = &T> {
        self.entries.range(self.len()..).map(|(_, v)| v)
    }

    /// Map the oldest parked entry in place.
    pub(crate) fn admit(&mut self) -> Option<(u64, &mut T)> {
        let i = self.len();
        let (id, value) = self.entries.get_mut(i)?;
        self.parked -= 1;
        Some((*id, value))
    }

    /// Remove the oldest parked entry without mapping it.
    pub(crate) fn pop_parked(&mut self) -> Option<(u64, T)> {
        let i = self.len();
        let entry = self.entries.remove(i)?;
        self.parked -= 1;
        Some(entry)
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

    /// Mapped values in id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.range(..self.len()).map(|(_, v)| v)
    }

    /// Remove every entry, mapped then parked, in id order; the ring keeps
    /// its allocation.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.parked = 0;
        self.entries.drain(..)
    }
}

/// Ids a [`ReplayWindow`] holds before the oldest slide under its floor.
const REPLAY_WINDOW_IDS: usize = 4096;

/// The ids of released ADUs, for duplicate and replay suppression: the most
/// recent [`REPLAY_WINDOW_IDS`] as sorted, disjoint, non-adjacent inclusive
/// runs, plus a floor below which every id counts as released. Sender ids
/// are monotone, so trimmed (oldest) ids slide under the floor instead of
/// losing suppression.
///
/// The lowest run is held inline and only the runs above it — islands left
/// by out-of-order release — in a deque: in-order traffic is one run from
/// its first id, so its window never owns a heap block.
#[derive(Debug, Default)]
pub(crate) struct ReplayWindow {
    /// The lowest run (valid while `len > 0`).
    first: (u64, u64),
    /// The runs above `first`; allocated by the first island. Boxed on
    /// purpose: an endpoint whose traffic stays in order carries a null
    /// pointer here, not a 32-byte deque header.
    #[allow(clippy::box_collection)]
    islands: Option<Box<VecDeque<(u64, u64)>>>,
    /// Ids held across all runs.
    len: usize,
    floor: u64,
}

impl ReplayWindow {
    /// Runs held: `first`, then the islands.
    #[cfg(test)]
    fn run_count(&self) -> usize {
        match self.len {
            0 => 0,
            _ => 1 + self.islands.as_ref().map_or(0, |d| d.len()),
        }
    }

    fn run(&self, i: usize) -> Option<(u64, u64)> {
        match i {
            0 => (self.len > 0).then_some(self.first),
            _ => self.islands.as_ref()?.get(i - 1).copied(),
        }
    }

    /// Run `i`, which must exist.
    fn run_mut(&mut self, i: usize) -> &mut (u64, u64) {
        match i {
            0 => &mut self.first,
            _ => &mut self.islands.as_mut().expect("run exists")[i - 1],
        }
    }

    fn insert_run(&mut self, i: usize, run: (u64, u64)) {
        if self.len == 0 {
            self.first = run;
            return;
        }
        let islands = self.islands.get_or_insert_with(Box::default);
        match i {
            0 => islands.push_front(std::mem::replace(&mut self.first, run)),
            _ => islands.insert(i - 1, run),
        }
    }

    /// Drop run `i`, which must exist (and, for the lowest run, have a
    /// successor or be the last id leaving the window).
    fn remove_run(&mut self, i: usize) {
        let islands = self.islands.as_mut();
        match i {
            0 => {
                if let Some(next) = islands.and_then(|d| d.pop_front()) {
                    self.first = next;
                }
            }
            _ => {
                islands.expect("run exists").remove(i - 1);
            }
        }
    }

    /// Index of the first run whose `last` fails `below`.
    fn partition_point(&self, below: impl Fn(u64) -> bool) -> usize {
        if self.len == 0 || !below(self.first.1) {
            return 0;
        }
        1 + self
            .islands
            .as_ref()
            .map_or(0, |d| d.partition_point(|&(_, last)| below(last)))
    }

    /// Record `id` as released, then trim to the cap.
    pub(crate) fn insert(&mut self, id: u64) {
        // The first run reaching `id - 1`: it holds `id`, is extended by
        // it, or lies wholly above it.
        let i = self.partition_point(|last| id > 0 && last < id - 1);
        match self.run(i) {
            Some((first, last)) if first <= id && id <= last => return,
            Some((_, last)) if id > 0 && last == id - 1 => {
                self.run_mut(i).1 = id;
                // `id` may have closed the gap to the next run.
                if let Some((next_first, next_last)) = self.run(i + 1) {
                    if next_first - 1 == id {
                        self.run_mut(i).1 = next_last;
                        self.remove_run(i + 1);
                    }
                }
            }
            // Not held and not adjacent below, so `first > id`.
            Some((first, _)) if first - 1 == id => self.run_mut(i).0 = id,
            _ => self.insert_run(i, (id, id)),
        }
        self.len += 1;
        while self.len > REPLAY_WINDOW_IDS {
            let oldest = self.first.0;
            if self.first.0 == self.first.1 {
                self.remove_run(0);
            } else {
                self.first.0 += 1;
            }
            self.len -= 1;
            self.floor = self.floor.max(oldest.saturating_add(1));
        }
    }

    /// Whether `id` was released (held, or below the floor).
    pub(crate) fn contains(&self, id: u64) -> bool {
        if id < self.floor {
            return true;
        }
        let i = self.partition_point(|last| last < id);
        self.run(i).is_some_and(|(first, _)| first <= id)
    }

    /// Ids below this count as released.
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    /// Ids held above the floor's reach (≤ [`REPLAY_WINDOW_IDS`]).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes held: nothing until an out-of-order release leaves an
    /// island (for memory accounting; capacity-derived).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.islands.as_ref().map_or(0, |d| {
            std::mem::size_of::<VecDeque<(u64, u64)>>()
                + d.capacity() * std::mem::size_of::<(u64, u64)>()
        })
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    proptest! {
        /// The ring against `BTreeMap<u64, _>`: monotone inserts with gaps
        /// of one or two ids and with gaps of thousands, occasional
        /// re-inserts and out-of-order inserts, arbitrary get/get_mut/remove
        /// — probed inside the gaps as well as at the ids — iteration and
        /// drain in id order.
        #[test]
        fn prop_id_ring_matches_btreemap(
            ops in prop::collection::vec((0u8..7, 0u64..48, any::<u32>()), 0..200),
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
                    6 => {
                        next += 1 + u64::from(v % 5_000); // many gaps
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
                let mid = next / 2 + u64::from(v) % (next / 2 + 1);
                for probe in [key, next, key + 1, next.saturating_sub(key), mid] {
                    prop_assert_eq!(ring.get(probe), model.get(&probe));
                    prop_assert_eq!(ring.contains_key(probe), model.contains_key(&probe));
                }
            }
            prop_assert!(ring.values().eq(model.values()));
            prop_assert!(ring.drain().eq(model.into_iter()));
            prop_assert!(ring.is_empty());
        }

        /// A window admitted densely from `base`, thinned by removals
        /// (ACKs out of order) and followed by a parked tail: every id in
        /// and around it is found where the model has it — at `id −
        /// oldest` before the first gap, by the binary search past one —
        /// and removed, parked and out-of-range ids are not.
        #[test]
        fn prop_id_ring_gapped_window_matches_btreemap(
            base in 0u64..1000,
            n in 1u64..64,
            gaps in prop::collection::vec(0u64..64, 0..16),
            parked in 0u64..4,
        ) {
            let mut ring: IdRing<u64> = IdRing::default();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for id in base..base + n {
                ring.park(id, id * 7);
                ring.admit().expect("just parked");
                model.insert(id, id * 7);
            }
            for g in gaps {
                let id = base + g % n;
                prop_assert_eq!(ring.remove(id), model.remove(&id));
            }
            for id in base + n..base + n + parked {
                ring.park(id, 0);
            }
            for id in base.saturating_sub(2)..base + n + parked + 2 {
                prop_assert_eq!(ring.get(id), model.get(&id));
                prop_assert_eq!(ring.contains_key(id), model.contains_key(&id));
            }
            prop_assert!(ring.values().eq(model.values()));
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

    #[test]
    fn in_order_replay_window_owns_no_heap_block() {
        // One run from 0, trimmed at the front once the cap is reached:
        // the deque is never created, and the cap and floor slide are the
        // parent's bit for bit.
        let mut win = ReplayWindow::default();
        for id in 0..100_000u64 {
            win.insert(id);
            assert!(win.islands.is_none(), "island deque allocated at id {id}");
            assert_eq!(win.len(), (id as usize + 1).min(4096));
            assert_eq!(win.floor(), (id + 1).saturating_sub(4096));
        }
        assert_eq!(win.heap_bytes(), 0);
        assert!(win.contains(0) && win.contains(99_999) && !win.contains(100_000));
        // An island above the run is what allocates; filling the gap
        // merges it back into the inline run.
        win.insert(100_001);
        assert!(win.heap_bytes() > 0);
        win.insert(100_000);
        assert_eq!(win.run_count(), 1);
        assert_eq!(win.first.1, 100_001);
    }

    #[test]
    fn parked_tail_is_invisible_until_admitted() {
        let mut ring: IdRing<&str> = IdRing::default();
        ring.park(3, "a");
        ring.park(5, "b");
        ring.park(6, "c");
        assert_eq!((ring.len(), ring.parked_len()), (0, 3));
        assert!(ring.is_empty() && !ring.contains_key(3) && ring.get(5).is_none());
        assert_eq!(ring.remove(3), None);
        assert!(ring.parked().eq(["a", "b", "c"].iter()));
        let (id, v) = ring.admit().expect("parked");
        assert_eq!((id, *v), (3, "a"));
        let (id, _) = ring.admit().expect("parked");
        assert_eq!(id, 5);
        assert_eq!((ring.len(), ring.parked_len()), (2, 1));
        assert!(ring.contains_key(3) && ring.contains_key(5) && !ring.contains_key(6));
        assert!(ring.values().eq(["a", "b"].iter()));
        // Acknowledge out of order, then skip the queue entirely.
        assert_eq!(ring.remove(5), Some("b"));
        assert_eq!(ring.pop_parked(), Some((6, "c")));
        assert_eq!(ring.pop_parked(), None);
        assert!(ring.admit().is_none());
        ring.park(9, "d");
        assert!(ring.drain().eq([(3, "a"), (9, "d")]));
        assert_eq!((ring.len(), ring.parked_len()), (0, 0));
    }
}
