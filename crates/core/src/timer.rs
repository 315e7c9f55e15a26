//! Timers at two scales: a hashed timer wheel (Varghese & Lauck, SOSP '87)
//! for a many-association server's wakeups, and a sorted deadline ring for
//! one endpoint's retransmission deadlines.
//!
//! The ALF transport used to find its next retransmission deadline with a
//! full min-scan over every in-flight ADU — O(n) per `poll` and per
//! `next_timeout`, which is exactly the per-association cost curve a
//! many-association server cannot afford. An endpoint holds at most
//! `window_adus` deadlines, armed as its TUs leave and so mostly in
//! deadline order: a `DeadlineRing` keeps them sorted, so the next one is
//! the front entry and firing pops only what is due. A server shard times
//! one wakeup per association, tens of thousands of them over many RTOs;
//! there the [`TimerWheel`] replaces the scan:
//!
//! * **a slot is a list in (deadline, insertion) order**: a deadline
//!   hashes to slot `(deadline / granularity) % slots`, and
//!   [`TimerWheel::insert`] walks back from the slot's last entry past the
//!   entries due later — none while deadlines arrive in order, as a batch's
//!   `now + RTO` wakeups do — so it is O(1) then and never costs more than
//!   the slot holds;
//! * **cancellation is O(1) in arming order**: [`TimerWheel::remove`]
//!   addresses the entry's slot directly from its deadline, walks from the
//!   slot's first entry to the entry or to the first later deadline, and
//!   unlinks it in O(1). Callers may also cancel lazily — leave the
//!   superseded entry behind and discard it when it fires, by validating
//!   against the authoritative deadline — at the price of
//!   conservatively-early `next_deadline` answers;
//! * **firing touches only expired slots and due entries**:
//!   [`TimerWheel::advance`] scans just the slots whose time window passed
//!   since the previous call (capped at one full rotation), and in each
//!   stops at the first entry not yet due, so the work is proportional to
//!   elapsed ticks plus entries actually due — never to the number of
//!   timers pending;
//! * **`next_deadline` is O(slots)**: the minimum over the slots' first
//!   deadlines, cached in their headers, touching no entries at all.
//!
//! Two properties keep the wheel drift-free with respect to the exact
//! min-scan it replaces:
//!
//! 1. **Never late.** Entries record their *exact* deadline; `advance`
//!    returns every entry with `deadline <= now`, so nothing is quantized
//!    to a slot boundary.
//! 2. **Conservatively early.** [`TimerWheel::next_deadline`] may report a
//!    superseded (lazily cancelled) entry's deadline. A driver waking at
//!    such an instant finds nothing due — the stale entry is dropped
//!    during `advance`, guaranteeing progress — and the endpoint emits
//!    nothing, because every real action is gated on an exact comparison
//!    against authoritative state.

use ct_netsim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Instrumentation counters for a [`TimerWheel`] — the regression tests
/// use these to prove timer cost does not scale with the number of
/// pending entries. An endpoint's deadline ring reports the same four
/// (`AduTransport::timer_stats`): it scans no slots, and examines only the
/// entries it fires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
pub struct WheelStats {
    /// Entries inserted over the wheel's lifetime.
    pub inserts: u64,
    /// Entries returned as due by [`TimerWheel::advance`] (the caller
    /// still validates them; stale entries are counted here too).
    pub fired: u64,
    /// Entries looked at while scanning expired slots.
    pub entries_examined: u64,
    /// Slots scanned by [`TimerWheel::advance`].
    pub slots_scanned: u64,
}

/// The armed retransmission deadlines of one endpoint, as `(deadline, id)`
/// entries sorted by deadline and, among equal deadlines, by arrival.
///
/// What each operation touches:
///
/// * `next_deadline` reads the front entry;
/// * `advance` pops the due entries off the front, and reads one more;
/// * `insert` appends when the deadline is not earlier than the back
///   entry's — a TU's clock starts when it leaves, so deadlines arrive in
///   order unless the RTO base shrank or a retry backed off — and otherwise
///   binary-searches its place and shifts the shorter side over;
/// * `remove` pops the front when it is the entry asked for — the oldest
///   ADU, acknowledged in order — and otherwise binary-searches to the
///   first entry of that deadline, walks the entries sharing it, and
///   shifts the shorter side over.
///
/// The ring holds at most one entry per unacknowledged ADU, so every walk
/// and shift is bounded by the endpoint's `window_adus` — and the peer,
/// which picks the order ACKs arrive in, can make it pay that bound, never
/// more. Deadlines are exact and cancellation is the caller's, eagerly: an
/// entry leaves when its ADU's deadline moves or its ADU leaves.
///
/// It keeps none of the wheel's counters: the ring lives in an endpoint's
/// send block, which moves between endpoints, so its owner counts the
/// inserts beside its other counters (`AduTransport::timer_stats`).
#[derive(Debug, Default)]
pub(crate) struct DeadlineRing {
    entries: VecDeque<(SimTime, u64)>,
}

impl DeadlineRing {
    /// Reserve exactly `additional` more entries — for an owner that wants
    /// the ring's block allocated beside its others.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// Armed entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Heap bytes held: the entry block, by capacity.
    pub(crate) fn approx_mem_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(SimTime, u64)>()
    }

    /// Arm `id` at the exact `deadline`, behind every entry due no later.
    pub(crate) fn insert(&mut self, deadline: SimTime, id: u64) {
        if self
            .entries
            .back()
            .is_none_or(|&(last, _)| last <= deadline)
        {
            self.entries.push_back((deadline, id));
            return;
        }
        let at = self.entries.partition_point(|&(d, _)| {
            meter::probe();
            d <= deadline
        });
        meter::shift(at.min(self.entries.len() - at));
        self.entries.insert(at, (deadline, id));
    }

    /// Cancel the entry armed as `(deadline, id)` — the earliest armed, if
    /// there are several. Returns false when there is none.
    pub(crate) fn remove(&mut self, deadline: SimTime, id: u64) -> bool {
        if self.entries.front() == Some(&(deadline, id)) {
            self.entries.pop_front();
            return true;
        }
        let from = self.entries.partition_point(|&(d, _)| {
            meter::probe();
            d < deadline
        });
        let found = self
            .entries
            .range(from..)
            .take_while(|&&(d, _)| {
                meter::probe();
                d == deadline
            })
            .position(|&(_, k)| k == id);
        let Some(at) = found.map(|i| from + i) else {
            return false;
        };
        meter::shift(at.min(self.entries.len() - 1 - at));
        self.entries.remove(at);
        true
    }

    /// The earliest armed deadline, or `None` when nothing is armed.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.entries.front().map(|&(d, _)| d)
    }

    /// Move every entry with `deadline <= now` to `due`, in (deadline,
    /// arrival) order.
    pub(crate) fn advance(&mut self, now: SimTime, due: &mut Vec<(SimTime, u64)>) {
        while let Some(&entry) = self.entries.front() {
            if entry.0 > now {
                break;
            }
            self.entries.pop_front();
            due.push(entry);
        }
    }
}

/// What a [`DeadlineRing`] operation off its O(1) paths, or a
/// [`TimerWheel`] slot walk, costs, counted in test builds only: entries a
/// search or walk compared, and entries a shift moved. A release build
/// compiles both calls to nothing.
mod meter {
    #[cfg(test)]
    thread_local! {
        pub(super) static COST: std::cell::Cell<(u64, u64)> =
            const { std::cell::Cell::new((0, 0)) };
    }

    #[inline(always)]
    pub(super) fn probe() {
        #[cfg(test)]
        COST.with(|c| c.set((c.get().0 + 1, c.get().1)));
    }

    #[inline(always)]
    pub(super) fn shift(_moved: usize) {
        #[cfg(test)]
        COST.with(|c| c.set((c.get().0, c.get().1 + _moved as u64)));
    }
}

/// "No cell": the end of the free list.
const NIL: u32 = u32::MAX;

/// One cell of the wheel's single storage block. The first `slots + 1`
/// cells are list headers — one per slot, then the overdue pocket — and
/// every other cell is a pending entry or a link of the free list, so a
/// wheel is one heap block however many slots have held entries. A list is
/// a ring through its header, in (deadline, insertion) order: the header
/// links to its first and last entries, they link back to it, and an empty
/// list's header links to itself.
#[derive(Debug, Clone, Copy)]
struct Node<K> {
    /// Entry: its exact deadline. Header: its first entry's, the list's
    /// minimum — `SimTime::MAX` while the list is empty.
    at: SimTime,
    /// Entry: its key. Header: filler (the first key ever inserted).
    key: K,
    /// The next cell of its list (a header's: the first entry). A free
    /// cell's: the next free cell, or [`NIL`].
    next: u32,
    /// The previous cell of its list (a header's: the last entry).
    back: u32,
}

/// A hashed timer wheel over copyable keys.
///
/// The wheel stores `(deadline, key)` pairs and hands them back, exact,
/// once `advance` passes the deadline. It knows nothing about what a key
/// means: the caller owns the authoritative deadline per key and treats
/// any fired entry that no longer matches it as a lazy cancellation.
///
/// Storage is allocated by the first [`TimerWheel::insert`]: a wheel that
/// never held an entry owns no heap block, and an empty one answers
/// [`TimerWheel::next_deadline`] and [`TimerWheel::advance`] from its
/// inline fields.
///
/// `repr(C)`: what an empty wheel's `advance` and every insert read comes
/// first, the lifetime counters last.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct TimerWheel<K> {
    len: usize,
    /// Every entry with `deadline <= cursor` has been drained.
    cursor: SimTime,
    granularity: SimDuration,
    /// Headers then entries; empty until the first insert.
    nodes: Vec<Node<K>>,
    /// Slot count; the overdue pocket's header sits at this index. The
    /// pocket holds entries inserted at or before the cursor (they would
    /// otherwise wait a full rotation) and is drained first on `advance`.
    slots: u32,
    /// Head of the free-cell list.
    free: u32,
    stats: WheelStats,
}

/// Entry cells reserved beyond the headers by the first insert.
const FIRST_ENTRIES: usize = 4;

impl<K: Copy> TimerWheel<K> {
    /// A wheel of `slots` buckets, each `granularity` wide (one rotation
    /// covers `slots * granularity`). Entries beyond one rotation are
    /// simply rescanned each time their slot comes around.
    ///
    /// # Panics
    /// When `slots` is zero (or does not fit the 32-bit cell index) or
    /// `granularity` is zero.
    pub fn new(slots: usize, granularity: SimDuration) -> Self {
        assert!(slots > 0, "timer wheel needs at least one slot");
        assert!(
            granularity > SimDuration::ZERO,
            "timer wheel granularity must be positive"
        );
        let slots = u32::try_from(slots)
            .ok()
            .filter(|&n| n < NIL - 1)
            .expect("timer wheel slot count fits the 32-bit cell index");
        Self {
            len: 0,
            cursor: SimTime::ZERO,
            granularity,
            nodes: Vec::new(),
            slots,
            free: NIL,
            stats: WheelStats::default(),
        }
    }

    /// Pending entries (live and lazily cancelled alike).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime instrumentation counters.
    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Approximate heap bytes held by the wheel: its one storage block
    /// (nothing before the first insert). Deterministic: derived from the
    /// capacity only.
    pub fn approx_mem_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node<K>>()
    }

    fn node(&self, i: u32) -> Node<K> {
        self.nodes[i as usize]
    }

    fn node_mut(&mut self, i: u32) -> &mut Node<K> {
        &mut self.nodes[i as usize]
    }

    /// The header cell of the list `deadline` belongs to: the overdue
    /// pocket at or before the cursor, otherwise its hashed slot.
    fn list_of(&self, deadline: SimTime) -> u32 {
        if deadline <= self.cursor {
            self.slots
        } else {
            (deadline.as_nanos() / self.granularity.as_nanos() % u64::from(self.slots)) as u32
        }
    }

    /// Return cell `i` to the free list.
    fn release(&mut self, i: u32) {
        self.node_mut(i).next = self.free;
        self.free = i;
    }

    /// Cache the minimum of the list headed by `head` — its first entry's
    /// deadline — in the header.
    fn refresh_min(&mut self, head: u32) {
        let first = self.node(head).next;
        self.node_mut(head).at = if first == head {
            SimTime::MAX
        } else {
            self.node(first).at
        };
    }

    /// Cancel a previously inserted `(deadline, key)` entry — the earliest
    /// inserted, if there are several. The deadline addresses its slot
    /// directly; the walk from the slot's first entry stops at the entry or
    /// at the first later deadline, and the entry unlinks in O(1). Cancels
    /// in the order the entries were armed compare one entry each. Returns
    /// false when no such entry is pending (already fired, or never
    /// inserted) — callers treat that as a no-op.
    pub fn remove(&mut self, deadline: SimTime, key: K) -> bool
    where
        K: PartialEq,
    {
        if self.len == 0 {
            return false;
        }
        // Slotted entries at or before the cursor have been drained; only
        // the overdue pocket can still hold such a deadline.
        let head = self.list_of(deadline);
        let mut cur = self.node(head).next;
        while cur != head {
            meter::probe();
            let n = self.node(cur);
            if n.at > deadline {
                break;
            }
            if n.at == deadline && n.key == key {
                self.node_mut(n.back).next = n.next;
                self.node_mut(n.next).back = n.back;
                self.release(cur);
                self.len -= 1;
                if n.back == head {
                    self.refresh_min(head);
                }
                return true;
            }
            cur = n.next;
        }
        false
    }

    /// Schedule `key` at the exact `deadline`, behind every entry of its
    /// slot due no later. The walk back from the slot's last entry passes
    /// only entries due later — none while deadlines arrive in order, as
    /// `now + RTO` wakeups do — so it never costs more than the slot holds.
    pub fn insert(&mut self, deadline: SimTime, key: K) {
        self.stats.inserts += 1;
        self.len += 1;
        if self.nodes.is_empty() {
            self.nodes
                .reserve_exact(self.slots as usize + 1 + FIRST_ENTRIES);
            self.nodes.extend((0..=self.slots).map(|h| Node {
                at: SimTime::MAX,
                key,
                next: h,
                back: h,
            }));
        }
        // A deadline at or before the cursor is already due (the caller
        // scheduled into the past): the overdue pocket keeps it out of the
        // rotation so the very next `advance` returns it.
        let head = self.list_of(deadline);
        let mut prev = self.node(head).back;
        while prev != head {
            meter::probe();
            if self.node(prev).at <= deadline {
                break;
            }
            prev = self.node(prev).back;
        }
        let next = self.node(prev).next;
        let entry = Node {
            at: deadline,
            key,
            next,
            back: prev,
        };
        let i = if self.free == NIL {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i < NIL)
                .expect("timer wheel holds fewer than 2^32 entries");
            self.nodes.push(entry);
            i
        } else {
            let i = self.free;
            self.free = self.node(i).next;
            *self.node_mut(i) = entry;
            i
        };
        self.node_mut(prev).next = i;
        self.node_mut(next).back = i;
        if prev == head {
            self.node_mut(head).at = deadline;
        }
    }

    /// Earliest pending deadline, or `None` when the wheel is empty.
    /// O(slots); touches no entries. May be conservatively early: a
    /// lazily-cancelled entry's deadline counts until its slot is next
    /// scanned — but it is never later than the true earliest deadline.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        self.nodes[..=self.slots as usize]
            .iter()
            .map(|h| h.at)
            .min()
    }

    /// Unlink the entries of the list headed by `head` that are due at
    /// `now` — a prefix, the list being sorted — appending them to `due` in
    /// list order. Returns `(entries looked at, entries drained)`: the
    /// prefix, and the first entry not due if there is one.
    fn drain_due(&mut self, head: u32, now: SimTime, due: &mut Vec<(SimTime, K)>) -> (u64, u64) {
        let mut drained = 0u64;
        let mut cur = self.node(head).next;
        while cur != head && self.node(cur).at <= now {
            let n = self.node(cur);
            due.push((n.at, n.key));
            drained += 1;
            self.release(cur);
            cur = n.next;
        }
        self.node_mut(head).next = cur;
        self.node_mut(cur).back = head;
        self.refresh_min(head);
        (drained + u64::from(cur != head), drained)
    }

    /// Move the cursor to `now`, appending every entry with
    /// `deadline <= now` to `due`. Scans only the slots whose window
    /// elapsed since the previous call (at most one full rotation), and in
    /// each only its due entries and the first one not due. Time never
    /// moves backwards: a `now` before the cursor is a no-op.
    pub fn advance(&mut self, now: SimTime, due: &mut Vec<(SimTime, K)>) {
        if self.len == 0 {
            self.cursor = self.cursor.max(now);
            return;
        }
        let pocket = self.slots;
        if self.node(pocket).next != pocket {
            // Everything in the pocket was due when it was inserted.
            let (examined, drained) = self.drain_due(pocket, SimTime::MAX, due);
            self.stats.entries_examined += examined;
            self.stats.fired += drained;
            self.len -= drained as usize;
        }
        if now <= self.cursor {
            return;
        }
        if self.len == 0 {
            self.cursor = now;
            return;
        }
        let g = self.granularity.as_nanos();
        let n = u64::from(self.slots);
        let start = self.cursor.as_nanos() / g;
        let end = now.as_nanos() / g;
        // The cursor's own slot is rescanned every time: a partial tick
        // may hold entries that only now came due.
        let span = (end - start).min(n - 1);
        for tick in start..=start + span {
            let head = (tick % n) as u32;
            self.stats.slots_scanned += 1;
            if self.node(head).next == head {
                continue;
            }
            let (examined, drained) = self.drain_due(head, now, due);
            self.stats.entries_examined += examined;
            self.stats.fired += drained;
            self.len -= drained as usize;
        }
        self.cursor = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel() -> TimerWheel<u64> {
        TimerWheel::new(8, SimDuration::from_millis(1))
    }

    fn at(ms: u64, extra_ns: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000 + extra_ns)
    }

    #[test]
    fn fires_exactly_at_deadline_not_slot_boundary() {
        let mut w = wheel();
        let d = at(2, 500);
        w.insert(d, 7);
        let mut due = Vec::new();
        // A wake just before the deadline, in the same slot, yields nothing.
        w.advance(at(2, 499), &mut due);
        assert!(due.is_empty());
        assert_eq!(w.next_deadline(), Some(d));
        // The exact instant fires it, with the exact recorded deadline.
        w.advance(d, &mut due);
        assert_eq!(due, vec![(d, 7)]);
        assert!(w.is_empty());
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn lazy_cancellation_leaves_only_stale_entries() {
        let mut w = wheel();
        w.insert(at(1, 0), 1);
        w.insert(at(3, 0), 1); // reschedule: the 1ms entry is now stale
        assert_eq!(w.next_deadline(), Some(at(1, 0)), "conservatively early");
        let mut due = Vec::new();
        w.advance(at(2, 0), &mut due);
        assert_eq!(due, vec![(at(1, 0), 1)], "stale entry handed back once");
        assert_eq!(w.next_deadline(), Some(at(3, 0)), "live entry remains");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn deadlines_beyond_one_rotation_survive() {
        let mut w = wheel(); // rotation = 8ms
        let far = at(100, 3);
        w.insert(far, 42);
        let mut due = Vec::new();
        for ms in 1..100 {
            w.advance(at(ms, 0), &mut due);
            assert!(due.is_empty(), "nothing due at {ms}ms");
        }
        w.advance(at(100, 3), &mut due);
        assert_eq!(due, vec![(far, 42)]);
    }

    #[test]
    fn big_jump_scans_at_most_one_rotation() {
        let mut w = wheel();
        for i in 0..16u64 {
            w.insert(at(i + 1, 0), i);
        }
        let mut due = Vec::new();
        let scanned_before = w.stats().slots_scanned;
        w.advance(at(1_000_000, 0), &mut due);
        assert_eq!(due.len(), 16, "everything due after the jump");
        assert!(
            w.stats().slots_scanned - scanned_before <= 8,
            "one rotation max"
        );
    }

    #[test]
    fn insert_at_or_before_cursor_fires_next_advance() {
        let mut w = wheel();
        let mut due = Vec::new();
        w.advance(at(5, 0), &mut due);
        w.insert(at(3, 0), 9); // scheduled into the past
        assert_eq!(w.next_deadline(), Some(at(3, 0)));
        w.advance(at(5, 1), &mut due);
        assert_eq!(due, vec![(at(3, 0), 9)]);
    }

    #[test]
    fn time_never_moves_backwards() {
        let mut w = wheel();
        w.insert(at(4, 0), 1);
        let mut due = Vec::new();
        w.advance(at(6, 0), &mut due);
        assert_eq!(due.len(), 1);
        due.clear();
        w.insert(at(7, 0), 2);
        w.advance(at(2, 0), &mut due); // regression: must not re-open old slots
        assert!(due.is_empty());
        w.advance(at(7, 0), &mut due);
        assert_eq!(due, vec![(at(7, 0), 2)]);
    }

    #[test]
    fn next_deadline_touches_no_entries() {
        let mut w = wheel();
        for i in 0..10_000u64 {
            w.insert(at(1 + i % 50, i), i);
        }
        let examined = w.stats().entries_examined;
        for _ in 0..1_000 {
            let _ = w.next_deadline();
        }
        assert_eq!(
            w.stats().entries_examined,
            examined,
            "next_deadline must not scan entries regardless of load"
        );
    }

    #[test]
    fn duplicate_entries_fire_once_each() {
        let mut w = wheel();
        w.insert(at(1, 0), 5);
        w.insert(at(1, 0), 5);
        let mut due = Vec::new();
        w.advance(at(1, 0), &mut due);
        assert_eq!(due.len(), 2, "wheel is honest; the caller dedups");
        assert!(w.is_empty());
    }

    #[test]
    fn never_inserted_wheel_answers_from_inline_fields() {
        let mut w = wheel();
        assert_eq!(w.next_deadline(), None);
        assert_eq!(w.approx_mem_bytes(), 0, "no slot table before an insert");
        let mut due = Vec::new();
        w.advance(at(5, 0), &mut due);
        assert!(due.is_empty());
        assert!(!w.remove(at(6, 0), 1));
        assert_eq!(w.approx_mem_bytes(), 0);
        assert_eq!(w.stats(), WheelStats::default());
        // The cursor did move: a deadline behind it is already overdue.
        w.insert(at(3, 0), 9);
        w.advance(at(5, 0), &mut due);
        assert_eq!(due, vec![(at(3, 0), 9)]);
        // Emptied again: storage stays, the answers are still inline.
        assert_eq!(w.next_deadline(), None);
        let examined = w.stats().entries_examined;
        w.advance(at(50, 0), &mut due);
        assert_eq!(w.stats().entries_examined, examined);
    }

    /// The wheel's specification, written the plain way: a vector of
    /// buckets, each a vector of entries in (deadline, insertion) order,
    /// plus an overdue pocket kept the same way. The oracle for fire order,
    /// minima and every instrumentation count. (Until the wheel's slot
    /// lists were sorted, its buckets were unordered and removal was a
    /// `swap_remove`, whose fire order the sorted lists cannot reproduce.)
    struct BucketWheel {
        slots: Vec<Vec<(SimTime, u64)>>,
        granularity: SimDuration,
        cursor: SimTime,
        overdue: Vec<(SimTime, u64)>,
        len: usize,
        stats: WheelStats,
    }

    impl BucketWheel {
        fn new(slots: usize, granularity: SimDuration) -> Self {
            Self {
                slots: vec![Vec::new(); slots],
                granularity,
                cursor: SimTime::ZERO,
                overdue: Vec::new(),
                len: 0,
                stats: WheelStats::default(),
            }
        }

        fn bucket(&mut self, deadline: SimTime) -> &mut Vec<(SimTime, u64)> {
            if deadline <= self.cursor {
                return &mut self.overdue;
            }
            let n = self.slots.len();
            &mut self.slots[(deadline.as_nanos() / self.granularity.as_nanos()) as usize % n]
        }

        fn insert(&mut self, deadline: SimTime, key: u64) {
            self.stats.inserts += 1;
            self.len += 1;
            let entries = self.bucket(deadline);
            let at = entries.partition_point(|&(d, _)| d <= deadline);
            entries.insert(at, (deadline, key));
        }

        fn remove(&mut self, deadline: SimTime, key: u64) -> bool {
            let entries = self.bucket(deadline);
            let Some(pos) = entries.iter().position(|&e| e == (deadline, key)) else {
                return false;
            };
            entries.remove(pos);
            self.len -= 1;
            true
        }

        fn next_deadline(&self) -> Option<SimTime> {
            let firsts = self.slots.iter().chain([&self.overdue]);
            firsts.filter_map(|b| b.first().map(|&(d, _)| d)).min()
        }

        /// Move `entries`' due prefix to `due`: examined, the prefix and
        /// the first entry not due.
        fn drain(
            entries: &mut Vec<(SimTime, u64)>,
            now: SimTime,
            due: &mut Vec<(SimTime, u64)>,
            stats: &mut WheelStats,
        ) -> usize {
            let k = entries.partition_point(|&(d, _)| d <= now);
            stats.entries_examined += (k + usize::from(k < entries.len())) as u64;
            stats.fired += k as u64;
            due.extend(entries.drain(..k));
            k
        }

        fn advance(&mut self, now: SimTime, due: &mut Vec<(SimTime, u64)>) {
            self.len -= Self::drain(&mut self.overdue, SimTime::MAX, due, &mut self.stats);
            if now <= self.cursor {
                return;
            }
            if self.len > 0 {
                let g = self.granularity.as_nanos();
                let n = self.slots.len() as u64;
                let start = self.cursor.as_nanos() / g;
                let span = (now.as_nanos() / g - start).min(n - 1);
                for tick in start..=start + span {
                    self.stats.slots_scanned += 1;
                    let entries = &mut self.slots[(tick % n) as usize];
                    self.len -= Self::drain(entries, now, due, &mut self.stats);
                }
            }
            self.cursor = now;
        }
    }

    /// Clustered deadlines — a thousand entries in one slot, as when many
    /// associations arm the same RTO — cancelled from the back (the re-arm
    /// pattern), the front and the middle: every removal agrees with the
    /// bucket wheel, and so does the order the survivors fire in.
    #[test]
    fn clustered_slot_removals_match_bucket_wheel() {
        let g = SimDuration::from_millis(1);
        let mut wheel: TimerWheel<u64> = TimerWheel::new(8, g);
        let mut model = BucketWheel::new(8, g);
        // One slot: deadlines 3 ms + k ns, all distinct, newest = largest.
        let d = |k: u64| at(3, k);
        for k in 0..1024 {
            wheel.insert(d(k), k);
            model.insert(d(k), k);
        }
        let back = (900..1024).rev();
        let front = 0..100;
        let middle = (100..900).filter(|k| k % 7 == 3);
        for k in back.chain(front).chain(middle) {
            assert_eq!(wheel.remove(d(k), k), model.remove(d(k), k));
            assert!(!wheel.remove(d(k), k), "gone after one removal");
            assert_eq!(wheel.len(), model.len);
            assert_eq!(wheel.next_deadline(), model.next_deadline());
        }
        // Re-arm into the thinned slot, then fire everything.
        for k in 2000..2010 {
            wheel.insert(d(k), k);
            model.insert(d(k), k);
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        wheel.advance(at(4, 0), &mut a);
        model.advance(at(4, 0), &mut b);
        assert_eq!(a, b, "fire order");
        assert!(wheel.is_empty());
        assert_eq!(wheel.stats(), model.stats);
    }

    /// Cost, counted: 4 096 wakeups armed in arrival order into one 2 ms
    /// slot, in runs sharing a deadline — a batch's `now + RTO` wakeups —
    /// and cancelled oldest first, as their ACKs arrive. Each insert
    /// compares the slot's last entry and stops; each cancel compares its
    /// target and nothing beyond, and no slot is rescanned. Armed in
    /// reverse, each insert walks past exactly the entries due later than
    /// its own: never more than the slot holds.
    #[test]
    fn wheel_slot_walks_cost_what_arming_order_predicts() {
        const N: u64 = 4096;
        let probes = || meter::COST.with(|c| c.get().0);
        let mut w: TimerWheel<u64> = TimerWheel::new(64, SimDuration::from_millis(2));
        let d = |k: u64| at(50, k / 64);
        for k in 0..N {
            let before = probes();
            w.insert(d(k), k);
            assert_eq!(probes() - before, k.min(1), "insert {k} compares the tail");
        }
        assert_eq!(w.next_deadline(), Some(d(0)));
        for k in 0..N {
            let before = probes();
            assert!(w.remove(d(k), k));
            assert_eq!(probes() - before, 1, "cancel {k} compares its target only");
            assert_eq!(w.next_deadline(), (k + 1 < N).then(|| d(k + 1)));
        }
        assert!(w.is_empty());

        for k in (0..N).rev() {
            let before = probes();
            w.insert(at(50, k), k);
            let later = N - 1 - k;
            assert_eq!(
                probes() - before,
                later,
                "walks past the later entries only"
            );
            assert_eq!(w.len() as u64, later + 1);
        }
        let mut due = Vec::new();
        w.advance(at(52, 0), &mut due);
        assert!(
            due.iter().copied().eq((0..N).map(|k| (at(50, k), k))),
            "deadline order"
        );
        assert_eq!(
            w.stats().entries_examined,
            N,
            "the drain stops at the slot's end"
        );
    }

    use proptest::prelude::*;

    proptest! {
        /// Arbitrary insert / remove / advance sequences, including
        /// re-arms, duplicates, inserts into the past and jumps past a
        /// rotation: same due list in the same order, same minimum, same
        /// counts as the bucket wheel.
        #[test]
        fn prop_wheel_matches_bucket_wheel(
            slots in 1usize..10,
            ops in prop::collection::vec((0u8..8, 0u64..12, 0u64..40_000), 0..300),
        ) {
            let g = SimDuration::from_micros(1_000);
            let mut wheel: TimerWheel<u64> = TimerWheel::new(slots, g);
            let mut model = BucketWheel::new(slots, g);
            let mut now = SimTime::ZERO;
            let mut armed: Vec<(SimTime, u64)> = Vec::new();
            for (op, key, us) in ops {
                match op {
                    0..=3 => {
                        // Mostly ahead of the clock, sometimes behind it.
                        let d = SimTime::from_micros((now.as_nanos() / 1_000 + us).saturating_sub(2_000));
                        wheel.insert(d, key);
                        model.insert(d, key);
                        armed.push((d, key));
                    }
                    4 | 5 => {
                        // Cancel something armed earlier (or nothing).
                        let (d, k) = if armed.is_empty() {
                            (SimTime::from_micros(us), key)
                        } else {
                            armed.swap_remove(us as usize % armed.len())
                        };
                        prop_assert_eq!(wheel.remove(d, k), model.remove(d, k));
                    }
                    _ => {
                        now += SimDuration::from_micros(us % 15_000);
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        wheel.advance(now, &mut a);
                        model.advance(now, &mut b);
                        prop_assert_eq!(a, b, "fire order");
                    }
                }
                prop_assert_eq!(wheel.len(), model.len);
                prop_assert_eq!(wheel.next_deadline(), model.next_deadline());
                prop_assert_eq!(wheel.stats(), model.stats);
            }
        }

        /// The deadline ring against the wheel it replaced in the endpoint,
        /// and against a literal (deadline, arrival)-ordered list, over
        /// arbitrary insert / remove / advance runs with a clock that only
        /// moves forward — re-arms, duplicate entries, equal deadlines and
        /// deadlines already past included: every `advance` returns the
        /// wheel's due set in the list's order, `remove` finds what the
        /// wheel finds, and `next_deadline` agrees with both.
        #[test]
        fn prop_deadline_ring_matches_wheel_in_deadline_then_arrival_order(
            ops in prop::collection::vec((0u8..8, 0u64..12, 0u64..40_000), 0..300),
        ) {
            let mut ring = DeadlineRing::default();
            let mut wheel: TimerWheel<u64> = TimerWheel::new(8, SimDuration::from_millis(4));
            // (deadline, arrival, key), in arrival order.
            let mut model: Vec<(SimTime, u64, u64)> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut armed: Vec<(SimTime, u64)> = Vec::new();
            for (arrival, (op, key, us)) in (0u64..).zip(ops) {
                match op {
                    0..=3 => {
                        // Coarse deadlines, so that several share one.
                        let at = (now.as_nanos() / 1_000 + us).saturating_sub(2_000);
                        let d = SimTime::from_micros(at - at % 500);
                        ring.insert(d, key);
                        wheel.insert(d, key);
                        model.push((d, arrival, key));
                        armed.push((d, key));
                    }
                    4 | 5 => {
                        let (d, k) = if armed.is_empty() {
                            (SimTime::from_micros(us), key)
                        } else {
                            armed.swap_remove(us as usize % armed.len())
                        };
                        let removed = ring.remove(d, k);
                        prop_assert_eq!(removed, wheel.remove(d, k));
                        // The earliest arrival of that entry leaves.
                        let first = model.iter().position(|&(md, _, mk)| (md, mk) == (d, k));
                        prop_assert_eq!(removed, first.is_some());
                        if let Some(i) = first {
                            model.remove(i);
                        }
                    }
                    _ => {
                        now += SimDuration::from_micros(us % 15_000);
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        ring.advance(now, &mut got);
                        wheel.advance(now, &mut want);
                        let mut due: Vec<_> = model.iter().copied().filter(|e| e.0 <= now).collect();
                        due.sort_by_key(|&(d, arrival, _)| (d, arrival));
                        model.retain(|e| e.0 > now);
                        let order: Vec<_> = due.iter().map(|&(d, _, k)| (d, k)).collect();
                        prop_assert_eq!(&got, &order, "(deadline, arrival) order");
                        got.sort_unstable();
                        want.sort_unstable();
                        prop_assert_eq!(got, want, "due set");
                    }
                }
                prop_assert_eq!(ring.len(), wheel.len());
                prop_assert_eq!(ring.next_deadline(), wheel.next_deadline());
                prop_assert_eq!(ring.next_deadline(), model.iter().map(|e| e.0).min());
            }
        }
    }

    /// Cost, counted: 1 024 armed entries, each cancelled and re-armed out
    /// of order. Every remove and every insert that cannot append is a
    /// binary search — at most ⌈log₂ 1 025⌉ + 1 entries compared, plus the
    /// entry of the same deadline the walk stops at — and a shift of the
    /// shorter side, at most half the ring; the ring never reallocates.
    /// (The wheel this replaced walked a slot's list: with all 1 024 in one
    /// slot, a cancel at the back walked the lot.)
    #[test]
    fn deadline_ring_out_of_order_rearm_is_a_search_and_a_bounded_shift() {
        const N: u64 = 1024;
        let d = |k: u64, late: u64| at(3, 2 * k + late);
        let mut ring = DeadlineRing::default();
        for k in 0..N {
            ring.insert(d(k, 0), k);
        }
        let cap = ring.entries.capacity();
        let cost = || meter::COST.with(|c| c.get());
        assert_eq!(cost(), (0, 0), "in-order inserts append");
        let (mut probes, mut shifted) = (0, 0);
        // A stride coprime with N visits every entry, far from its
        // neighbour in time.
        for k in (0..N).map(|i| i * 389 % N) {
            let before = cost();
            assert!(ring.remove(d(k, 0), k));
            // Re-armed 1 ns later: in its old place, behind the back.
            ring.insert(d(k, 1), k);
            let (p, s) = (cost().0 - before.0, cost().1 - before.1);
            assert!(p <= 2 * (11 + 1), "{p} entries compared for entry {k}");
            assert!(s <= N, "{s} entries shifted for entry {k}");
            (probes, shifted) = (probes + p, shifted + s);
        }
        assert_eq!(ring.entries.capacity(), cap, "no reallocation");
        assert!(
            ring.entries
                .iter()
                .copied()
                .eq((0..N).map(|k| (d(k, 1), k))),
            "sorted, every entry re-armed once"
        );
        // A quarter of the ring per shift on average, two shifts per entry:
        // twice the sum of min(k, N − 1 − k).
        assert_eq!(shifted, 523_264, "entries shifted in all");
        assert!(probes <= N * 2 * 12, "{probes} entries compared in all");
        // In-order ACKs pop the front and compare nothing.
        let before = cost();
        for k in 0..N {
            assert!(ring.remove(d(k, 1), k));
        }
        assert_eq!(cost(), before, "in-order removes pop the front");
        assert_eq!(ring.next_deadline(), None);
    }

    #[test]
    fn deadline_ring_fires_exactly_at_deadline_in_arrival_order() {
        let mut ring = DeadlineRing::default();
        assert_eq!(ring.approx_mem_bytes(), 0, "no block before an insert");
        let d = at(2, 500);
        ring.insert(d, 7);
        ring.insert(at(1, 0), 8);
        ring.insert(d, 9);
        ring.insert(d, 7); // a duplicate is honest: it fires twice
        let mut due = Vec::new();
        ring.advance(at(2, 499), &mut due);
        assert_eq!(due, vec![(at(1, 0), 8)]);
        assert_eq!(ring.next_deadline(), Some(d));
        assert!(ring.remove(d, 9));
        assert!(!ring.remove(d, 9), "gone after one removal");
        ring.advance(d, &mut due);
        assert_eq!(due, vec![(at(1, 0), 8), (d, 7), (d, 7)]);
        assert_eq!(ring.next_deadline(), None);
    }
}
