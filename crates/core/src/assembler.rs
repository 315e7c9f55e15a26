//! Receive stage 1: transmission units → complete ADUs.
//!
//! §6's first manipulation stage: arriving TUs "are then examined to
//! determine which ADU they belong to (the demultiplexing control
//! operation) and where in the ADU they go (the re-ordering control
//! operation)". No data manipulation happens here beyond placement — the
//! integrated stage-2 pipeline runs once the ADU is whole.
//!
//! Placement is the one data pass: a self-describing TU knows where in its
//! ADU it goes, so its bytes are written there as it arrives. A TU that
//! extends an assembly's verified prefix is checked *as it is copied*
//! (`Assembler::extend_prefix`, the transport's fast path); any other TU
//! arrives verified, and is copied behind the prefix or, ahead of a hole,
//! held as a view of its frame until the hole fills. A completed ADU is
//! handed over as its buffer, gathered from nothing.
//!
//! A complete ADU is released **immediately**, regardless of the state of
//! other ADUs: this is the out-of-order release that removes head-of-line
//! blocking. Incomplete ADUs are abandoned after a deadline (or when the
//! reassembly budget overflows) and reported lost — per §5, "it will almost
//! certainly need to assume the whole ADU is lost, even if parts exist."

use crate::adu::{Adu, AduName};
use crate::ids::ReplayWindow;
use crate::wire::Tu;
use ct_netsim::time::{SimDuration, SimTime};
use ct_wire::WireBuf;
use std::collections::VecDeque;

/// One ADU under reassembly.
///
/// The bytes from offset 0 up to the first hole are **placed**: written,
/// verified, into the buffer that becomes the released payload. Bytes
/// beyond a hole are **held** as views into the frames that carried them,
/// trimmed to what they newly covered, and copied into place when the hole
/// before them fills. Either way stored bytes equal covered bytes: a
/// retransmit-heavy peer re-sending ranges we already hold costs no
/// reassembly memory, and the buffer's length never runs ahead of what
/// arrived.
#[derive(Debug)]
struct Assembly {
    name: AduName,
    /// The placed prefix `[0, placed.len())`: every byte of it covered.
    placed: Vec<u8>,
    /// Held views beyond the prefix, disjoint and sorted by offset; each
    /// `(offset, view)` covers exactly bytes no earlier arrival covered.
    /// The first starts past `placed.len()` — a view the prefix reaches is
    /// drained into it — except a lone view of the whole ADU, which is
    /// released as it is.
    held: Vec<(u32, WireBuf)>,
    bytes_received: u32,
    total: u32,
    first_tu_at: SimTime,
    /// Last instant a TU contributed new bytes — the progress clock the
    /// expiry deadline runs against (a large ADU still streaming in is not
    /// "overdue" just because it is large).
    last_progress_at: SimTime,
    /// Selective-NACK rounds already spent on this assembly.
    nack_rounds: u32,
}

impl Assembly {
    /// An empty assembly whose buffer reserves `reserve` bytes up front.
    fn new(name: AduName, total: u32, now: SimTime, reserve: usize) -> Self {
        Self {
            name,
            placed: Vec::with_capacity(reserve),
            held: Vec::new(),
            bytes_received: 0,
            total,
            first_tu_at: now,
            last_progress_at: now,
            nack_rounds: 0,
        }
    }

    /// Insert a fragment; returns bytes newly covered (0 for duplicates).
    /// Only the newly covered sub-ranges are kept: the one that starts at
    /// the prefix's end is copied into place, the others held as O(1)
    /// sub-views of `data` — duplicates and overlaps store nothing. A
    /// fragment that alone covers the whole ADU is held, so it can be
    /// released as the view it is.
    fn insert(&mut self, off: u32, data: &WireBuf) -> u32 {
        let len = data.len() as u32;
        if len == 0 || off as u64 + len as u64 > self.total as u64 {
            return 0;
        }
        let end = off + len;
        let whole = len == self.total && self.bytes_received == 0;
        let prefix = self.placed.len() as u32;
        let in_order = self.held.last().is_none_or(|&(o, _)| o < off);
        // Walk the held views overlapping the fragment past the prefix,
        // keeping the gaps between them; the loop reads only the views
        // that were there before it (`existing`), not the gaps it pushes.
        let existing = self.held.len();
        let mut i = self
            .held
            .partition_point(|(o, v)| o + v.len() as u32 <= off);
        let mut cursor = off.max(prefix);
        let mut newly = 0u32;
        while cursor < end {
            let next = self.held[..existing]
                .get(i)
                .map(|(o, v)| (*o, o + v.len() as u32))
                .filter(|&(o, _)| o < end);
            let gap_end = next.map_or(end, |(o, _)| o.max(cursor));
            if gap_end > cursor {
                let gap = data.slice((cursor - off) as usize..(gap_end - off) as usize);
                if cursor == prefix && !whole {
                    self.placed.extend_from_slice(&gap);
                } else {
                    self.held.push((cursor, gap));
                }
                newly += gap_end - cursor;
            }
            let Some((_, view_end)) = next else { break };
            cursor = cursor.max(view_end);
            i += 1;
        }
        if !in_order && self.held.len() > existing {
            self.held.sort_unstable_by_key(|&(o, _)| o);
        }
        self.bytes_received += newly;
        newly
    }

    /// Copy the held views the prefix has reached into place; returns the
    /// bytes moved. A lone view of the whole ADU stays a view.
    fn drain(&mut self) -> usize {
        if self.whole_view().is_some() {
            return 0;
        }
        let mut moved = 0;
        let mut n = 0;
        while let Some((o, v)) = self.held.get(n) {
            if *o as usize != self.placed.len() {
                break;
            }
            self.placed.extend_from_slice(v);
            moved += v.len();
            n += 1;
        }
        self.held.drain(..n);
        moved
    }

    /// The held view covering the whole ADU, if one does.
    fn whole_view(&self) -> Option<&WireBuf> {
        match &self.held[..] {
            [(0, only)] if only.len() == self.total as usize => Some(only),
            _ => None,
        }
    }

    fn is_complete(&self) -> bool {
        self.bytes_received == self.total
    }

    /// Bytes this assembly stores: its placed prefix plus its held views.
    fn stored_bytes(&self) -> usize {
        self.placed.len() + self.held_bytes()
    }

    fn held_bytes(&self) -> usize {
        self.held.iter().map(|(_, v)| v.len()).sum()
    }

    /// Heap bytes behind this assembly: the placed buffer's capacity, the
    /// held-view list's slots and the views' bytes — what it holds, never
    /// what its first TU declared.
    fn heap_bytes(&self) -> usize {
        self.placed.capacity()
            + self.held.capacity() * std::mem::size_of::<(u32, WireBuf)>()
            + self.held_bytes()
    }

    /// Consume a complete, drained assembly into the released payload and
    /// whether that is zero-copy: the whole ADU's one view (or nothing,
    /// for an empty ADU), else the placed buffer itself — no gather.
    fn into_payload(self) -> (WireBuf, bool) {
        if self.total == 0 {
            return (WireBuf::empty(), true);
        }
        if let Some(view) = self.whole_view() {
            return (view.clone(), true);
        }
        debug_assert!(self.held.is_empty() && self.placed.len() == self.total as usize);
        (WireBuf::from_vec(self.placed), false)
    }

    /// The byte ranges still missing, as `(offset, len)`.
    fn missing_ranges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut cursor = self.placed.len() as u32;
        for (o, v) in &self.held {
            if *o > cursor {
                out.push((cursor, o - cursor));
            }
            cursor = o + v.len() as u32;
        }
        if cursor < self.total {
            out.push((cursor, self.total - cursor));
        }
        out
    }
}

/// What [`Assembler::extend_prefix`] did with a TU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Extend {
    /// The TU does not continue an open assembly's prefix: verify it whole
    /// and offer it to [`Assembler::accept`].
    NotNext,
    /// The frame failed its checksum; the prefix is as it was.
    Corrupt,
    /// Placed; the bytes copied into assembly buffers (the TU's, plus any
    /// held views it let drain).
    Placed(usize),
}

/// A count limit, narrowed to the `u32` the assembler stores (beyond it
/// the limit is unreachable anyway).
fn saturate(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// What the deadline sweep decided for overdue assemblies.
#[derive(Debug, Default)]
pub struct ExpiryActions {
    /// Assemblies worth another selective-recovery round: the missing
    /// `(offset, len)` ranges to NACK, per ADU.
    pub request_frags: Vec<(u64, Vec<(u32, u32)>)>,
    /// Assemblies abandoned for good (whole-ADU loss).
    pub abandoned: Vec<(u64, AduName)>,
}

/// Statistics for stage-1 reassembly: the snapshot
/// [`Assembler::stats`] returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssemblerStats {
    /// TUs accepted.
    pub tus_in: u64,
    /// ADUs completed and released.
    pub adus_completed: u64,
    /// ADUs released as a view: one TU carried the whole payload, so the
    /// application got its frame's bytes, not a copy.
    pub zero_copy_releases: u64,
    /// Bytes copied into place from held views — out-of-order arrivals
    /// moved behind the prefix once the hole before them filled. In-order
    /// bytes are placed as they arrive and never counted here; nothing is
    /// gathered at release.
    pub gathered_bytes: u64,
    /// TUs that contributed no new bytes (duplicates/overlaps).
    pub duplicate_tus: u64,
    /// ADUs abandoned (deadline or budget) — §5's whole-ADU loss.
    pub adus_abandoned: u64,
    /// Incomplete ADUs evicted to fit the byte budget (DropOldest policy).
    pub adus_shed: u64,
    /// TUs refused because the byte budget left no room (Backpressure
    /// policy, or an ADU larger than the whole budget).
    pub tus_refused: u64,
    /// Assemblies evicted because their held fragment-view count
    /// exceeded the per-ADU quota — the signature of a hostile peer
    /// shredding one ADU into pathologically many tiny fragments.
    pub quota_evictions: u64,
}

/// The counters an [`Assembler`] holds: the three a fault-free TU moves,
/// inline, and the other six in one block, allocated by the first of them
/// to move.
#[derive(Debug, Default)]
struct Counters {
    tus_in: u64,
    adus_completed: u64,
    zero_copy_releases: u64,
    /// The rest, once first moved. Its three leading fields are never
    /// written: the inline ones above stand for them.
    rare: Option<Box<AssemblerStats>>,
}

impl Counters {
    /// The rare counters, allocating their block on first use.
    fn rare(&mut self) -> &mut AssemblerStats {
        self.rare.get_or_insert_with(Box::default)
    }

    /// Count bytes gathered from held views; in-order traffic gathers
    /// none, and adding none allocates nothing.
    fn gathered(&mut self, bytes: usize) {
        if bytes > 0 {
            self.rare().gathered_bytes += bytes as u64;
        }
    }
}

/// What to do when admitting a new assembly would exceed the byte budget.
///
/// The choice follows the recovery mode: media streams (`NoRetransmit`)
/// prefer fresh data over stale — evict the oldest incomplete ADU. Buffered
/// and recompute modes must never lose data silently — refuse the TU and let
/// the advertised window push back on the sender, which still holds the ADU
/// and will retransmit once the window reopens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Evict oldest incomplete assemblies until the newcomer fits.
    DropOldest,
    /// Refuse the newcomer's TUs; the sender retransmits later.
    #[default]
    Backpressure,
}

/// Stage-1 reassembler: turns TUs into complete ADUs, out of order.
///
/// `repr(C)`, grouped by the question asked: is anything under reassembly
/// or over budget (what every poll asks); was this id released already;
/// what completed.
#[derive(Debug)]
#[repr(C)]
pub struct Assembler {
    // ---- open assemblies and the budget they charge ----
    /// Open assemblies, sorted by id: the send ring's shape without the
    /// wrap. In-order traffic holds one at a time, opened at the back and
    /// completed there; an ADU waiting for a repair stays put while newer
    /// ones open and complete behind it. A lookup is a binary search, and
    /// opening or closing one out of order shifts at most `max_pending`
    /// entries.
    pending: Vec<(u64, Assembly)>,
    /// Sum of the declared totals of `pending` — what the byte budget
    /// charges — kept running so admission and the advertised window are
    /// O(1) however many assemblies are open.
    reserved: usize,
    /// Byte ceiling across all incomplete assemblies (0 = unlimited).
    budget_bytes: usize,
    /// ADUs evicted by [`ShedPolicy::DropOldest`], for the transport to
    /// report as lost.
    shed_notices: Vec<(u64, AduName)>,
    /// A lower bound on the earliest instant an open assembly can be
    /// overdue (`last_progress_at + deadline`, minimised): lowered when an
    /// assembly opens, recomputed by every sweep, never raised in between
    /// — progress only moves a deadline later. Until `now` passes it the
    /// sweep has nothing to find, so [`Assembler::needs_sweep`] says no.
    sweep_after: SimTime,

    // ---- replay suppression, and the limits only a fragment consults ----
    /// ADU ids already released — suppresses late duplicate TUs. Ids
    /// trimmed from the window slide under its floor instead of losing
    /// suppression: a replayed ancient TU can neither re-charge the
    /// reassembly budget nor resurrect a consumed ADU, however old its id.
    released: ReplayWindow,
    deadline: SimDuration,
    max_pending: u32,
    /// Maximum held fragment views per assembly (0 = unlimited). Held
    /// views are trimmed to newly covered bytes and in-order bytes are
    /// placed, not held, so legitimate traffic holds at most one view per
    /// TU it reordered — but a hostile peer can shred an ADU into
    /// thousands of tiny disjoint views, each pinning its whole arrival
    /// frame's chunk. Crossing the quota evicts the offending assembly
    /// (deterministically: it alone misbehaved). It also caps the buffer
    /// an assembly reserves when it opens, at `frag_quota` times its first
    /// TU's length — the largest ADU a fragmentation within the quota
    /// could carry.
    frag_quota: u32,

    // ---- completions ----
    /// Completed ADUs awaiting the application, in completion order, each
    /// with its delivery latency (first TU arrival → completion). The one
    /// queue between reassembly and the application: the transport reads
    /// what a frame completed off its back and pops the front on
    /// `recv_adu`.
    ready: VecDeque<(u64, Adu, SimDuration)>,
    /// Counters ([`Assembler::stats`] reads them).
    counters: Counters,
    shed: ShedPolicy,
}

impl Assembler {
    /// Create with an abandonment `deadline` (time an incomplete ADU may
    /// wait for its missing fragments) and a budget of concurrent
    /// assemblies.
    pub fn new(deadline: SimDuration, max_pending: usize) -> Self {
        Self {
            pending: Vec::new(),
            reserved: 0,
            ready: VecDeque::new(),
            released: ReplayWindow::default(),
            deadline,
            max_pending: saturate(max_pending),
            frag_quota: 0,
            budget_bytes: 0,
            shed: ShedPolicy::default(),
            shed_notices: Vec::new(),
            sweep_after: SimTime::MAX,
            counters: Counters::default(),
        }
    }

    /// Whether any rare counter was ever moved.
    pub(crate) fn rare_counters_allocated(&self) -> bool {
        self.counters.rare.is_some()
    }

    /// Every counter, inline and rare alike.
    pub fn stats(&self) -> AssemblerStats {
        let c = &self.counters;
        AssemblerStats {
            tus_in: c.tus_in,
            adus_completed: c.adus_completed,
            zero_copy_releases: c.zero_copy_releases,
            ..c.rare.as_deref().copied().unwrap_or_default()
        }
    }

    /// Install a per-assembly held fragment-view quota (0 = unlimited).
    /// Combined with `max_pending` this bounds total reassembly occupancy:
    /// at most `max_pending * views` fragment views, whatever a hostile
    /// peer sends.
    pub fn set_frag_quota(&mut self, views: usize) {
        self.frag_quota = saturate(views);
    }

    /// Total held fragment views across all pending assemblies.
    pub fn frag_views(&self) -> usize {
        self.pending.iter().map(|(_, a)| a.held.len()).sum()
    }

    /// Install a reassembly byte budget (0 = unlimited) and the policy to
    /// apply when a new assembly would exceed it.
    pub fn set_budget(&mut self, bytes: usize, shed: ShedPolicy) {
        self.budget_bytes = bytes;
        self.shed = shed;
    }

    /// The installed byte budget (0 = unlimited).
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes of budget currently free — what the ACK advertises as the
    /// receiver window. `None` when no budget is installed.
    pub fn budget_free(&self) -> Option<usize> {
        if self.budget_bytes == 0 {
            None
        } else {
            Some(self.budget_bytes.saturating_sub(self.pending_bytes()))
        }
    }

    /// Drain the `(adu_id, name)` of assemblies evicted by
    /// [`ShedPolicy::DropOldest`] since the last call.
    pub fn take_shed(&mut self) -> Vec<(u64, AduName)> {
        std::mem::take(&mut self.shed_notices)
    }

    /// Decide whether a first TU of a new ADU may allocate its assembly
    /// buffer under the byte budget, shedding per policy if needed.
    fn admit(&mut self, total: u32) -> bool {
        if self.budget_bytes == 0 {
            return true;
        }
        let need = total as usize;
        if need > self.budget_bytes {
            // Can never fit, regardless of policy.
            self.counters.rare().tus_refused += 1;
            return false;
        }
        match self.shed {
            ShedPolicy::Backpressure => {
                if self.pending_bytes() + need > self.budget_bytes {
                    self.counters.rare().tus_refused += 1;
                    return false;
                }
                true
            }
            ShedPolicy::DropOldest => {
                while self.pending_bytes() + need > self.budget_bytes {
                    let oldest = self
                        .pending
                        .iter()
                        .min_by_key(|(_, a)| a.first_tu_at)
                        .map(|&(id, _)| id);
                    match oldest {
                        Some(id) => {
                            let a = self.remove_pending(id).expect("listed");
                            self.counters.rare().adus_shed += 1;
                            self.shed_notices.push((id, a.name));
                        }
                        None => break,
                    }
                }
                true
            }
        }
    }

    /// Offer one verified TU. Completed ADUs become available via
    /// [`Assembler::pop_ready`]. Returns `false` when the TU was refused
    /// under a [`ShedPolicy::Backpressure`] byte budget (the caller should
    /// signal the sender rather than treat the TU as consumed).
    pub fn on_tu(&mut self, now: SimTime, tu: &Tu) -> bool {
        if self.was_released(tu.adu_id) {
            self.counters.rare().duplicate_tus += 1;
            return true;
        }
        self.accept(now, tu).is_some()
    }

    /// [`Assembler::on_tu`] for a TU whose id the caller has already
    /// checked against the replay window — the transport, which answers a
    /// replay itself, so a TU costs one lookup. `None` when refused under a
    /// backpressure budget; otherwise the bytes copied into assembly
    /// buffers, for the caller's data-touch ledger.
    pub(crate) fn accept(&mut self, now: SimTime, tu: &Tu) -> Option<usize> {
        let known = self.screen(tu)?;
        if !known && tu.frag_off == 0 && tu.payload.len() == tu.adu_len as usize {
            // The ADU arrived whole in one TU with nothing pending for its
            // id: the TU's view already is the payload, so there is no
            // assembly to build.
            self.release(
                tu.adu_id,
                tu.name,
                tu.payload.clone(),
                true,
                SimDuration::ZERO,
            );
            return Some(0);
        }
        Some(self.assemble(now, tu, known))
    }

    /// Admission, for a TU past the replay window: an ADU not yet pending
    /// must fit the byte budget. `Some(known)` says whether an assembly is
    /// already open for the ADU; `None` that the TU was refused.
    fn screen(&mut self, tu: &Tu) -> Option<bool> {
        let known = self.find(tu.adu_id).is_ok();
        if !known && !self.admit(tu.adu_len) {
            return None;
        }
        self.counters.tus_in += 1;
        Some(known)
    }

    /// The earliest instant an assembly that progressed at `at` is overdue
    /// *after*.
    fn due(&self, at: SimTime) -> SimTime {
        at.checked_add(self.deadline).unwrap_or(SimTime::MAX)
    }

    /// Place a screened TU into its (possibly new) assembly and release
    /// the ADU if that completes it; returns the bytes copied into place.
    fn assemble(&mut self, now: SimTime, tu: &Tu, known: bool) -> usize {
        if !known {
            self.reserved += tu.adu_len as usize;
            let due = self.due(now);
            self.sweep_after = if self.pending.is_empty() {
                due
            } else {
                self.sweep_after.min(due)
            };
        }
        // The buffer is reserved once, at the size the view quota lets an
        // honest ADU reach from this fragment length (or the declared
        // length, if smaller) — so a forged `adu_len` reserves no more than
        // that, and never writes past what arrived. Beyond it, or without
        // a quota, the buffer grows by doubling.
        let reserve = (self.frag_quota as usize)
            .saturating_mul(tu.payload.len())
            .min(tu.adu_len as usize);
        let i = self.find(tu.adu_id).unwrap_or_else(|i| {
            let fresh = Assembly::new(tu.name, tu.adu_len, now, reserve);
            self.pending.insert(i, (tu.adu_id, fresh));
            i
        });
        let assembly = &mut self.pending[i].1;
        // A TU whose metadata disagrees with the first-seen TU of this ADU
        // is either corruption that survived the checksum (vanishingly rare)
        // or a protocol error: ignore it rather than corrupt the buffer.
        if assembly.total != tu.adu_len || assembly.name != tu.name {
            self.counters.rare().duplicate_tus += 1;
            return 0;
        }
        let before = assembly.placed.len();
        let newly = assembly.insert(tu.frag_off, &tu.payload);
        if newly > 0 {
            assembly.last_progress_at = now;
            // Recovery rounds measure *stalls*, not total repairs: as long
            // as each round brings new bytes, keep going.
            assembly.nack_rounds = 0;
        } else if tu.adu_len != 0 {
            self.counters.rare().duplicate_tus += 1;
        }
        let drained = assembly.drain();
        self.counters.gathered(drained);
        let placed = assembly.placed.len() - before;
        if self.frag_quota > 0 && assembly.held.len() > self.frag_quota as usize {
            // Fragment-view occupancy quota: this assembly has been
            // shredded into more held views than any legitimate
            // fragmentation could produce. Evict it (and NACK it via the
            // shed notice) rather than let its views pin unbounded frame
            // memory.
            let a = self.remove_pending(tu.adu_id).expect("present");
            self.counters.rare().quota_evictions += 1;
            self.shed_notices.push((tu.adu_id, a.name));
        } else if assembly.is_complete() {
            self.complete(now, tu.adu_id);
        } else if self.pending.len() > self.max_pending as usize {
            // Budget overflow: abandon the oldest assembly.
            let oldest = self
                .pending
                .iter()
                .min_by_key(|(_, a)| a.first_tu_at)
                .map(|&(id, _)| id)
                .expect("non-empty");
            self.remove_pending(oldest);
            self.counters.rare().adus_abandoned += 1;
        }
        placed
    }

    /// The fast path, for a TU not yet verified: place it if it continues
    /// an open assembly's prefix — same length and name, `frag_off` at the
    /// prefix's end, no held view in the way — by running `copy`, which
    /// moves the payload into the slot it is given and says whether the
    /// frame verified, so the frame is read once. A corrupt frame leaves
    /// the prefix as it was. Any other TU is [`Extend::NotNext`], for the
    /// caller to verify whole and [`Assembler::accept`]. That includes ids
    /// under the replay window's floor, the one way an open assembly's id
    /// can count as released, so this path needs no replay lookup.
    pub(crate) fn extend_prefix(
        &mut self,
        now: SimTime,
        tu: &Tu,
        copy: impl FnOnce(&mut [u8]) -> bool,
    ) -> Extend {
        let len = tu.payload.len();
        if len == 0 || tu.adu_id < self.released.floor() {
            return Extend::NotNext;
        }
        let Ok(i) = self.find(tu.adu_id) else {
            return Extend::NotNext;
        };
        let a = &mut self.pending[i].1;
        let at = a.placed.len();
        let end = at + len;
        if a.bytes_received == 0
            || tu.frag_off as usize != at
            || a.total != tu.adu_len
            || a.name != tu.name
            || a.held.first().is_some_and(|&(o, _)| (o as usize) < end)
        {
            return Extend::NotNext;
        }
        a.placed.resize(end, 0);
        if !copy(&mut a.placed[at..]) {
            a.placed.truncate(at);
            return Extend::Corrupt;
        }
        self.counters.tus_in += 1;
        a.bytes_received += len as u32;
        a.last_progress_at = now;
        a.nack_rounds = 0;
        let drained = a.drain();
        self.counters.gathered(drained);
        if a.is_complete() {
            self.complete(now, tu.adu_id);
        }
        Extend::Placed(len + drained)
    }

    /// Release the complete assembly for `adu_id`.
    fn complete(&mut self, now: SimTime, adu_id: u64) {
        let done = self.remove_pending(adu_id).expect("present");
        let (name, latency) = (done.name, now.saturating_since(done.first_tu_at));
        let (payload, zero_copy) = done.into_payload();
        self.release(adu_id, name, payload, zero_copy, latency);
    }

    /// `Ok(index)` of the open assembly for `adu_id`, or `Err(index)` where
    /// it would open.
    fn find(&self, adu_id: u64) -> Result<usize, usize> {
        self.pending.binary_search_by_key(&adu_id, |&(id, _)| id)
    }

    fn get(&self, adu_id: u64) -> Option<&Assembly> {
        self.find(adu_id).ok().map(|i| &self.pending[i].1)
    }

    fn get_mut(&mut self, adu_id: u64) -> Option<&mut Assembly> {
        self.find(adu_id).ok().map(|i| &mut self.pending[i].1)
    }

    /// Close an assembly: drop it from `pending` and return its reservation.
    fn remove_pending(&mut self, adu_id: u64) -> Option<Assembly> {
        let (_, a) = self.pending.remove(self.find(adu_id).ok()?);
        self.reserved -= a.total as usize;
        Some(a)
    }

    /// Hand a complete ADU to the ready queue and remember its id.
    /// `zero_copy` says the payload is a view of the one frame that
    /// carried the whole ADU, rather than an assembly's buffer.
    fn release(
        &mut self,
        adu_id: u64,
        name: AduName,
        payload: WireBuf,
        zero_copy: bool,
        latency: SimDuration,
    ) {
        self.counters.adus_completed += 1;
        self.released.insert(adu_id);
        if zero_copy {
            self.counters.zero_copy_releases += 1;
        }
        if self.ready.capacity() == 0 {
            // A frame completes at most one ADU, and a server takes it
            // before the next frame arrives: one slot, not the four a first
            // push reserves. A queue that needs more grows as usual.
            self.ready.reserve_exact(1);
        }
        self.ready
            .push_back((adu_id, Adu::new(name, payload), latency));
    }

    /// Abandon assemblies whose deadline has passed; returns the
    /// `(adu_id, name)` of each so the transport can NACK them.
    pub fn expire(&mut self, now: SimTime) -> Vec<(u64, AduName)> {
        self.expire_policy(now, 0).abandoned
    }

    /// Deadline sweep with selective recovery: an overdue assembly gets up
    /// to `max_nack_rounds` rounds of missing-range NACKs (its deadline
    /// restarting each round) before being abandoned — §5's "artificial set
    /// of subunits ... for error recovery", as an independent module. The
    /// sweep also re-arms [`Assembler::needs_sweep`] at the earliest
    /// deadline it leaves behind.
    pub fn expire_policy(&mut self, now: SimTime, max_nack_rounds: u32) -> ExpiryActions {
        let deadline = self.deadline;
        let mut overdue = Vec::new();
        let mut next = SimTime::MAX;
        for &(id, ref a) in &self.pending {
            if now.saturating_since(a.last_progress_at) > deadline {
                overdue.push(id);
            } else {
                next = next.min(self.due(a.last_progress_at));
            }
        }
        let mut actions = ExpiryActions::default();
        for id in overdue {
            let a = self.get_mut(id).expect("listed");
            if a.nack_rounds < max_nack_rounds {
                a.nack_rounds += 1;
                a.last_progress_at = now; // restart the deadline for this round
                actions.request_frags.push((id, a.missing_ranges()));
                next = next.min(self.due(now));
            } else {
                let a = self.remove_pending(id).expect("listed");
                self.counters.rare().adus_abandoned += 1;
                actions.abandoned.push((id, a.name));
            }
        }
        self.sweep_after = next;
        actions
    }

    /// Whether `adu_id` was already completed and released (duplicate TUs
    /// for it mean the peer missed our ACK and needs another). Ids below
    /// the replay-window floor count as released: sender ids are monotone,
    /// so anything that old is a retransmission of consumed data or an
    /// adversarial replay — either way it must not re-enter reassembly.
    pub fn was_released(&self, adu_id: u64) -> bool {
        self.released.contains(adu_id)
    }

    /// The current replay-window floor (ids below it are suppressed).
    pub fn released_floor(&self) -> u64 {
        self.released.floor()
    }

    /// The declared total length of a pending ADU, if under reassembly.
    pub fn declared_len(&self, adu_id: u64) -> Option<u32> {
        self.get(adu_id).map(|a| a.total)
    }

    /// Bytes of a pending ADU covered so far, if under reassembly.
    pub fn bytes_covered(&self, adu_id: u64) -> Option<u32> {
        self.get(adu_id).map(|a| a.bytes_received)
    }

    /// A pending ADU's placed prefix: the buffer itself, so a test can
    /// read its bytes, length and reservation.
    #[cfg(test)]
    pub(crate) fn placed(&self, adu_id: u64) -> Option<&Vec<u8>> {
        self.get(adu_id).map(|a| &a.placed)
    }

    /// The bytes of `[off, off+len)` of a pending ADU, if that range is
    /// fully covered — the lookup FEC reconstruction uses. The range may
    /// span the placed prefix and several held views; they are gathered
    /// into the returned vec.
    pub fn fragment_if_present(&self, adu_id: u64, off: u32, len: usize) -> Option<Vec<u8>> {
        let a = self.get(adu_id)?;
        let end = off as u64 + len as u64;
        if end > a.total as u64 {
            return None;
        }
        let end = end as usize;
        let mut cursor = off as usize;
        let mut out = Vec::with_capacity(len);
        let pieces = std::iter::once((0, &a.placed[..]))
            .chain(a.held.iter().map(|(o, v)| (*o as usize, &v[..])));
        for (o, bytes) in pieces {
            if cursor >= end || o > cursor {
                break;
            }
            let e = end.min(o + bytes.len());
            if e > cursor {
                out.extend_from_slice(&bytes[cursor - o..e - o]);
                cursor = e;
            }
        }
        (cursor >= end).then_some(out)
    }

    /// Pop the next completed ADU: `(adu_id, adu, delivery latency)` — the
    /// latency runs from the ADU's first TU arrival to its completion.
    ///
    /// API break (ISSUE 18): the third element used to be that first
    /// arrival as a `SimTime`, for the transport to turn into a latency as
    /// it moved the ADU to a second queue. This queue is now the only one,
    /// so the latency is taken at completion and travels with the ADU; a
    /// caller that wants the arrival instant subtracts it from the `now`
    /// it passed to the completing [`Assembler::on_tu`].
    pub fn pop_ready(&mut self) -> Option<(u64, Adu, SimDuration)> {
        self.ready.pop_front()
    }

    /// Completed ADUs waiting in the ready queue.
    pub(crate) fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The ready queue from position `from` on, in completion order — what
    /// completed since a caller last read [`Assembler::ready_len`].
    pub(crate) fn ready_from(&self, from: usize) -> impl Iterator<Item = &(u64, Adu, SimDuration)> {
        self.ready.range(from..)
    }

    /// Number of ADUs currently under reassembly.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Bytes *reserved* by incomplete assemblies: the sum of declared ADU
    /// totals. This is what the budget charges at admission (the sender
    /// will eventually send the rest), and what the advertised receiver
    /// window subtracts — deliberately independent of how many duplicate
    /// bytes a retransmit-heavy peer pushes at us.
    pub fn pending_bytes(&self) -> usize {
        debug_assert_eq!(
            self.reserved,
            self.pending
                .iter()
                .map(|(_, a)| a.total as usize)
                .sum::<usize>()
        );
        self.reserved
    }

    /// Bytes actually stored for partial ADUs — placed prefixes plus held
    /// views — always equal to the covered bytes, never inflated by
    /// duplicates, overlaps or a declared length.
    pub fn stored_bytes(&self) -> usize {
        self.pending.iter().map(|(_, a)| a.stored_bytes()).sum()
    }

    /// Number of released-ADU ids retained for duplicate suppression.
    pub fn released_count(&self) -> usize {
        self.released.len()
    }

    /// Whether a poll at `now` has anything to do here: an assembly that
    /// may be overdue, or a shed notice to collect. False on an
    /// association whose ADUs all arrive whole, and until the earliest
    /// deadline of those that don't — its polls skip the receive sweep.
    pub fn needs_sweep(&self, now: SimTime) -> bool {
        !self.shed_notices.is_empty() || (!self.pending.is_empty() && now > self.sweep_after)
    }

    /// The first instant at which [`Assembler::needs_sweep`] turns true for
    /// an open assembly: one tick past `sweep_after`, since a poll *at* it
    /// finds nothing overdue. `None` with no assembly open.
    pub fn next_sweep(&self) -> Option<SimTime> {
        if self.pending.is_empty() {
            return None;
        }
        self.sweep_after.checked_add(SimDuration::from_nanos(1))
    }

    /// Approximate heap bytes held: the open-assemblies array's slots and
    /// each open assembly's buffer capacity, held-view slots and views'
    /// bytes, the ready queue's slots, the replay window's islands and the
    /// rare counters' block (neither for in-order traffic). Deterministic
    /// (lengths and capacities, never allocator internals). Not the
    /// declared lengths [`Assembler::pending_bytes`] charges: a peer that
    /// declares 4 GiB ADUs holds what it sent and what its first fragment
    /// reserved, and that is what this counts.
    pub fn approx_mem_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pending.capacity() * size_of::<(u64, Assembly)>()
            + self
                .pending
                .iter()
                .map(|(_, a)| a.heap_bytes())
                .sum::<usize>()
            + self.ready.capacity() * size_of::<(u64, Adu, SimDuration)>()
            + self.released.heap_bytes()
            + self
                .counters
                .rare
                .as_ref()
                .map_or(0, |_| size_of::<AssemblerStats>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::fragment_adu_buf;

    fn asm() -> Assembler {
        Assembler::new(SimDuration::from_millis(100), 64)
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(31) ^ 5) as u8).collect()
    }

    #[test]
    fn in_order_reassembly() {
        let mut a = asm();
        let data = payload(3000);
        let name = AduName::Seq { index: 0 };
        for tu in fragment_adu_buf(1, 0, name, &data.as_slice().into(), 1000) {
            a.on_tu(SimTime::ZERO, &tu);
        }
        let (id, adu, _) = a.pop_ready().unwrap();
        assert_eq!(id, 0);
        assert_eq!(adu.payload, data);
        assert_eq!(adu.name, name);
        assert_eq!(a.stats().adus_completed, 1);
    }

    #[test]
    fn reversed_fragments_reassemble() {
        let mut a = asm();
        let data = payload(5000);
        let mut tus = fragment_adu_buf(
            1,
            3,
            AduName::Seq { index: 3 },
            &data.as_slice().into(),
            700,
        );
        tus.reverse();
        for tu in &tus {
            a.on_tu(SimTime::ZERO, tu);
        }
        let (_, adu, _) = a.pop_ready().unwrap();
        assert_eq!(adu.payload, data);
    }

    #[test]
    fn interleaved_adus_release_out_of_order() {
        let mut a = asm();
        let d0 = payload(2000);
        let d1 = payload(900);
        let tus0 = fragment_adu_buf(1, 0, AduName::Seq { index: 0 }, &d0.as_slice().into(), 1000);
        let tus1 = fragment_adu_buf(1, 1, AduName::Seq { index: 1 }, &d1.as_slice().into(), 1000);
        // ADU 0 is missing its first fragment; ADU 1 completes: ADU 1 must
        // be released immediately — no head-of-line blocking.
        a.on_tu(SimTime::ZERO, &tus0[1]);
        a.on_tu(SimTime::ZERO, &tus1[0]);
        let (id, adu, _) = a.pop_ready().unwrap();
        assert_eq!(id, 1);
        assert_eq!(adu.payload, d1);
        assert!(a.pop_ready().is_none());
        // ADU 0's missing fragment arrives later.
        a.on_tu(SimTime::from_millis(1), &tus0[0]);
        let (id, adu, _) = a.pop_ready().unwrap();
        assert_eq!(id, 0);
        assert_eq!(adu.payload, d0);
    }

    #[test]
    fn duplicates_counted_not_corrupting() {
        let mut a = asm();
        let data = payload(1500);
        let tus = fragment_adu_buf(
            1,
            5,
            AduName::Seq { index: 5 },
            &data.as_slice().into(),
            1000,
        );
        a.on_tu(SimTime::ZERO, &tus[0]);
        a.on_tu(SimTime::ZERO, &tus[0]);
        a.on_tu(SimTime::ZERO, &tus[1]);
        let (_, adu, _) = a.pop_ready().unwrap();
        assert_eq!(adu.payload, data);
        assert_eq!(a.stats().duplicate_tus, 1);
    }

    #[test]
    fn late_tu_after_release_suppressed() {
        let mut a = asm();
        let data = payload(500);
        let tus = fragment_adu_buf(
            1,
            9,
            AduName::Seq { index: 9 },
            &data.as_slice().into(),
            1000,
        );
        a.on_tu(SimTime::ZERO, &tus[0]);
        assert!(a.pop_ready().is_some());
        a.on_tu(SimTime::ZERO, &tus[0]);
        assert!(a.pop_ready().is_none());
        assert_eq!(a.stats().duplicate_tus, 1);
    }

    #[test]
    fn overlapping_fragments_reassemble() {
        // Overlaps happen when a whole-ADU retransmission races surviving
        // originals; coverage must stay exact.
        let mut a = asm();
        let data = payload(1000);
        let name = AduName::Seq { index: 1 };
        let t1 = Tu {
            flags: 0,
            assoc: 1,
            timestamp_us: 0,
            adu_id: 1,
            adu_len: 1000,
            frag_off: 0,
            name,
            payload: data[0..600].to_vec().into(),
        };
        let t2 = Tu {
            flags: 0,
            assoc: 1,
            timestamp_us: 0,
            adu_id: 1,
            adu_len: 1000,
            frag_off: 400,
            name,
            payload: data[400..1000].to_vec().into(),
        };
        a.on_tu(SimTime::ZERO, &t1);
        a.on_tu(SimTime::ZERO, &t2);
        let (_, adu, _) = a.pop_ready().unwrap();
        assert_eq!(adu.payload, data);
    }

    use crate::wire::Tu;

    #[test]
    fn expiry_reports_lost_adus() {
        let mut a = asm();
        let data = payload(2000);
        let tus = fragment_adu_buf(
            1,
            4,
            AduName::Media { frame: 1, slot: 0 },
            &data.as_slice().into(),
            1000,
        );
        a.on_tu(SimTime::ZERO, &tus[0]); // second fragment never arrives
        assert!(a.expire(SimTime::from_millis(50)).is_empty());
        let lost = a.expire(SimTime::from_millis(200));
        assert_eq!(lost, vec![(4, AduName::Media { frame: 1, slot: 0 })]);
        assert_eq!(a.stats().adus_abandoned, 1);
        assert_eq!(a.pending_count(), 0);
    }

    #[test]
    fn budget_overflow_abandons_oldest() {
        let mut a = Assembler::new(SimDuration::from_secs(10), 2);
        for id in 0..4u64 {
            let data = payload(2000);
            let tus = fragment_adu_buf(
                1,
                id,
                AduName::Seq { index: id },
                &data.as_slice().into(),
                1000,
            );
            a.on_tu(SimTime::from_millis(id), &tus[0]); // all incomplete
        }
        assert!(a.pending_count() <= 3);
        assert!(a.stats().adus_abandoned >= 1);
    }

    #[test]
    fn max_pending_eviction_drops_oldest_keeps_newest() {
        // Pin down *which* assembly the max_pending overflow path evicts:
        // the one whose first TU arrived earliest.
        let mut a = Assembler::new(SimDuration::from_secs(10), 2);
        for id in 0..3u64 {
            let data = payload(2000);
            let tus = fragment_adu_buf(
                1,
                id,
                AduName::Seq { index: id },
                &data.as_slice().into(),
                1000,
            );
            a.on_tu(SimTime::from_millis(id), &tus[0]); // all incomplete
        }
        // Inserting id=2 pushed pending to 3 > 2, evicting id=0 (oldest).
        assert_eq!(a.pending_count(), 2);
        assert_eq!(a.stats().adus_abandoned, 1);
        assert!(a.declared_len(0).is_none());
        assert!(a.declared_len(1).is_some());
        assert!(a.declared_len(2).is_some());
        // The survivor still completes normally.
        let data = payload(2000);
        let tus = fragment_adu_buf(
            1,
            1,
            AduName::Seq { index: 1 },
            &data.as_slice().into(),
            1000,
        );
        a.on_tu(SimTime::from_millis(5), &tus[1]);
        let (id, adu, _) = a.pop_ready().unwrap();
        assert_eq!(id, 1);
        assert_eq!(adu.payload, data);
    }

    #[test]
    fn released_memory_is_bounded() {
        // Duplicate-suppression memory must not grow without bound: after
        // many completions the released map is trimmed to its cap, while
        // the trimmed (oldest) ids slide under the replay-window floor and
        // *keep* their suppression in O(1) state.
        let mut a = asm();
        let data = payload(100);
        for id in 0..5000u64 {
            let tus = fragment_adu_buf(
                1,
                id,
                AduName::Seq { index: id },
                &data.as_slice().into(),
                1000,
            );
            a.on_tu(SimTime::ZERO, &tus[0]);
        }
        assert_eq!(a.stats().adus_completed, 5000);
        assert_eq!(a.released_count(), 4096);
        assert_eq!(a.released_floor(), 5000 - 4096);
        assert!(a.was_released(0)); // trimmed out, suppressed by the floor
        assert!(a.was_released(4999)); // still in the map
    }

    /// Regression (replay window): a replayed TU for an id trimmed out of
    /// the released map must neither re-admit the ADU (re-charging the
    /// budget) nor resurrect it as a fresh delivery.
    #[test]
    fn replayed_ancient_tu_charges_nothing() {
        let mut a = asm();
        a.set_budget(8000, ShedPolicy::Backpressure);
        let data = payload(100);
        let captured = fragment_adu_buf(
            1,
            0,
            AduName::Seq { index: 0 },
            &data.as_slice().into(),
            1000,
        );
        for id in 0..5000u64 {
            let tus = fragment_adu_buf(
                1,
                id,
                AduName::Seq { index: id },
                &data.as_slice().into(),
                1000,
            );
            a.on_tu(SimTime::ZERO, &tus[0]);
        }
        while a.pop_ready().is_some() {}
        assert!(a.released_floor() > 0);
        let free = a.budget_free();
        // Replay the very first TU, captured before the floor moved.
        assert!(a.on_tu(SimTime::from_millis(1), &captured[0]));
        assert_eq!(a.pending_count(), 0, "replay re-admitted an ancient ADU");
        assert_eq!(a.budget_free(), free, "replay re-charged the budget");
        assert!(a.pop_ready().is_none(), "replay resurrected a consumed ADU");
    }

    /// A hostile peer shredding one ADU into pathologically many tiny
    /// disjoint fragments trips the fragment-view quota: the assembly is
    /// evicted (with a shed notice, so the transport NACKs it) instead of
    /// pinning unbounded frame memory.
    #[test]
    fn frag_quota_evicts_shredded_assembly() {
        let mut a = asm();
        a.set_frag_quota(16);
        let name = AduName::Seq { index: 0 };
        // 1-byte fragments at even offsets: every one disjoint.
        for i in 0..32u32 {
            let tu = Tu {
                flags: 0,
                assoc: 1,
                timestamp_us: 0,
                adu_id: 0,
                adu_len: 100_000,
                frag_off: i * 2,
                name,
                payload: vec![0xAB].into(),
            };
            assert!(a.on_tu(SimTime::ZERO, &tu));
            assert!(a.frag_views() <= 17, "quota not enforced");
        }
        assert_eq!(a.stats().quota_evictions, 1);
        assert_eq!(a.take_shed(), vec![(0, name)]);
        // Normal fragmentation stays far under the quota and completes.
        let data = payload(4000);
        for tu in fragment_adu_buf(
            1,
            1,
            AduName::Seq { index: 1 },
            &data.as_slice().into(),
            1000,
        ) {
            assert!(a.on_tu(SimTime::ZERO, &tu));
        }
        let (_, adu, _) = a.pop_ready().unwrap();
        assert_eq!(adu.payload, data);
    }

    #[test]
    fn backpressure_budget_refuses_new_assembly() {
        let mut a = asm();
        a.set_budget(3000, ShedPolicy::Backpressure);
        let d0 = payload(2000);
        let tus0 = fragment_adu_buf(1, 0, AduName::Seq { index: 0 }, &d0.as_slice().into(), 1000);
        assert!(a.on_tu(SimTime::ZERO, &tus0[0])); // 2000 bytes allocated
                                                   // A second 2000-byte ADU would exceed the 3000-byte budget: refused.
        let tus1 = fragment_adu_buf(1, 1, AduName::Seq { index: 1 }, &payload(2000).into(), 1000);
        assert!(!a.on_tu(SimTime::ZERO, &tus1[0]));
        assert_eq!(a.stats().tus_refused, 1);
        assert_eq!(a.pending_count(), 1);
        assert!(a.pending_bytes() <= 3000);
        // TUs for the already-admitted assembly still land.
        assert!(a.on_tu(SimTime::ZERO, &tus0[1]));
        let (id, adu, _) = a.pop_ready().unwrap();
        assert_eq!(id, 0);
        assert_eq!(adu.payload, d0);
        // Budget freed: the refused ADU is admitted on retransmit.
        assert!(a.on_tu(SimTime::from_millis(1), &tus1[0]));
        assert_eq!(a.pending_count(), 1);
    }

    #[test]
    fn drop_oldest_budget_evicts_until_fit() {
        let mut a = asm();
        a.set_budget(3000, ShedPolicy::DropOldest);
        for id in 0..2u64 {
            let tus = fragment_adu_buf(
                1,
                id,
                AduName::Seq { index: id },
                &payload(1400).into(),
                1000,
            );
            a.on_tu(SimTime::from_millis(id), &tus[0]); // incomplete
        }
        assert_eq!(a.pending_bytes(), 2800);
        // A third 1400-byte ADU needs room: the oldest (id 0) is shed.
        let tus = fragment_adu_buf(1, 2, AduName::Seq { index: 2 }, &payload(1400).into(), 1000);
        assert!(a.on_tu(SimTime::from_millis(2), &tus[0]));
        assert_eq!(a.stats().adus_shed, 1);
        assert!(a.pending_bytes() <= 3000);
        assert_eq!(a.take_shed(), vec![(0, AduName::Seq { index: 0 })]);
        assert!(a.take_shed().is_empty());
    }

    #[test]
    fn oversize_adu_refused_under_any_policy() {
        for policy in [ShedPolicy::DropOldest, ShedPolicy::Backpressure] {
            let mut a = asm();
            a.set_budget(1000, policy);
            let tus =
                fragment_adu_buf(1, 0, AduName::Seq { index: 0 }, &payload(4000).into(), 1000);
            assert!(!a.on_tu(SimTime::ZERO, &tus[0]));
            assert_eq!(a.stats().tus_refused, 1);
            assert_eq!(a.pending_count(), 0);
        }
    }

    #[test]
    fn budget_free_tracks_pending() {
        let mut a = asm();
        assert_eq!(a.budget_free(), None);
        a.set_budget(8000, ShedPolicy::Backpressure);
        assert_eq!(a.budget_free(), Some(8000));
        let tus = fragment_adu_buf(1, 0, AduName::Seq { index: 0 }, &payload(5000).into(), 1000);
        a.on_tu(SimTime::ZERO, &tus[0]);
        assert_eq!(a.budget_free(), Some(3000));
    }

    #[test]
    fn zero_length_adu_completes() {
        let mut a = asm();
        let tus = fragment_adu_buf(
            1,
            8,
            AduName::Rpc { call: 1, part: 0 },
            &WireBuf::empty(),
            1000,
        );
        a.on_tu(SimTime::ZERO, &tus[0]);
        let (id, adu, _) = a.pop_ready().unwrap();
        assert_eq!(id, 8);
        assert!(adu.payload.is_empty());
    }

    #[test]
    fn metadata_conflict_ignored() {
        let mut a = asm();
        let name = AduName::Seq { index: 0 };
        let t1 = Tu {
            flags: 0,
            assoc: 1,
            timestamp_us: 0,
            adu_id: 1,
            adu_len: 1000,
            frag_off: 0,
            name,
            payload: vec![1; 500].into(),
        };
        let t2 = Tu {
            adu_len: 800, // disagrees
            frag_off: 500,
            payload: vec![2; 300].into(),
            ..t1.clone()
        };
        a.on_tu(SimTime::ZERO, &t1);
        a.on_tu(SimTime::ZERO, &t2);
        assert_eq!(a.pending_count(), 1);
        assert!(a.pop_ready().is_none());
    }

    #[test]
    fn pending_bytes_tracks() {
        let mut a = asm();
        let tus = fragment_adu_buf(1, 2, AduName::Seq { index: 2 }, &payload(5000).into(), 1000);
        a.on_tu(SimTime::ZERO, &tus[0]);
        assert_eq!(a.pending_bytes(), 5000); // reservation covers the whole ADU
        assert_eq!(a.stored_bytes(), 1000); // but only received bytes are held
    }

    /// Regression (byte-budget accounting): a retransmit-heavy peer that
    /// re-sends ranges we already hold must not inflate reassembly memory
    /// or move the advertised window — only *newly covered* bytes count.
    #[test]
    fn duplicate_fragments_charge_nothing() {
        let mut a = asm();
        a.set_budget(5000, ShedPolicy::Backpressure);
        let data = payload(4000);
        let tus = fragment_adu_buf(
            1,
            0,
            AduName::Seq { index: 0 },
            &data.as_slice().into(),
            1000,
        );
        // First three fragments land; the last is "lost".
        for tu in &tus[..3] {
            assert!(a.on_tu(SimTime::ZERO, tu));
        }
        let free = a.budget_free();
        let stored = a.stored_bytes();
        assert_eq!(stored, 3000);
        // The peer retransmits everything it already sent, several times.
        for _ in 0..5 {
            for tu in &tus[..3] {
                assert!(a.on_tu(SimTime::from_millis(1), tu), "duplicate refused");
            }
        }
        // Nothing changed: no stored growth, no window movement, no trip
        // into zero-window backpressure with a half-empty buffer.
        assert_eq!(a.stored_bytes(), stored);
        assert_eq!(a.budget_free(), free);
        assert_eq!(a.bytes_covered(0), Some(3000));
        // The missing fragment still completes the ADU.
        assert!(a.on_tu(SimTime::from_millis(2), &tus[3]));
        let (_, adu, _) = a.pop_ready().unwrap();
        assert_eq!(adu.payload, data);
        assert_eq!(a.stored_bytes(), 0);
        assert_eq!(a.budget_free(), Some(5000));
    }

    /// Overlapping retransmissions (partial overlap, not exact duplicates)
    /// likewise store only the newly covered subranges.
    #[test]
    fn overlap_stores_only_new_bytes() {
        let mut a = asm();
        let data = payload(1000);
        let name = AduName::Seq { index: 7 };
        let mk = |off: usize, end: usize| Tu {
            flags: 0,
            assoc: 1,
            timestamp_us: 0,
            adu_id: 7,
            adu_len: 1000,
            frag_off: off as u32,
            name,
            payload: data[off..end].to_vec().into(),
        };
        a.on_tu(SimTime::ZERO, &mk(0, 600));
        assert_eq!(a.stored_bytes(), 600);
        a.on_tu(SimTime::ZERO, &mk(400, 900)); // 200 bytes overlap
        assert_eq!(a.stored_bytes(), 900, "overlap double-stored");
        assert_eq!(a.bytes_covered(7), Some(900));
        a.on_tu(SimTime::ZERO, &mk(300, 1000)); // overlaps both sides
        let (_, adu, _) = a.pop_ready().unwrap();
        assert_eq!(adu.payload, data);
    }

    #[test]
    fn single_chunk_release_is_zero_copy() {
        // An ADU whose fragments all view one received chunk (here: one
        // fragment covering everything) is released without a gather pass.
        let mut a = asm();
        let data = payload(900);
        let tus = fragment_adu_buf(
            1,
            0,
            AduName::Seq { index: 0 },
            &data.as_slice().into(),
            1000,
        );
        assert_eq!(tus.len(), 1);
        a.on_tu(SimTime::ZERO, &tus[0]);
        let (_, adu, _) = a.pop_ready().unwrap();
        assert_eq!(adu.payload, data);
        assert!(adu.payload.same_chunk(&tus[0].payload), "release copied");
        assert_eq!(a.stats().zero_copy_releases, 1);
        assert_eq!(a.stats().gathered_bytes, 0);
    }

    #[test]
    fn multi_fragment_release_is_placed_not_gathered() {
        // In order, every fragment is copied into place as it arrives and
        // the buffer is the payload: nothing gathered. Reversed, the two
        // fragments ahead of the hole are held and drained when it fills.
        for (reversed, gathered) in [(false, 0), (true, 1500)] {
            let mut a = asm();
            let data = payload(2500);
            let mut tus = fragment_adu_buf(
                1,
                0,
                AduName::Seq { index: 0 },
                &data.as_slice().into(),
                1000,
            );
            if reversed {
                tus.reverse();
            }
            for tu in &tus {
                a.on_tu(SimTime::ZERO, tu);
            }
            let (_, adu, _) = a.pop_ready().unwrap();
            assert_eq!(adu.payload, data);
            assert!(!adu.payload.same_chunk(&tus[0].payload));
            assert_eq!(a.stats().zero_copy_releases, 0);
            assert_eq!(a.stats().gathered_bytes, gathered, "reversed: {reversed}");
        }
    }

    #[test]
    fn fragment_if_present_spans_stored_views() {
        // FEC reconstruction asks for ranges that may straddle the placed
        // prefix and several held views.
        let mut a = asm();
        let data = payload(4000);
        let tus = fragment_adu_buf(
            1,
            0,
            AduName::Seq { index: 0 },
            &data.as_slice().into(),
            1000,
        );
        // Fragment 1 is missing: [0, 1000) is placed, the last two held.
        for tu in [&tus[0], &tus[2], &tus[3]] {
            a.on_tu(SimTime::ZERO, tu);
        }
        assert_eq!(a.frag_views(), 2);
        assert_eq!(
            a.fragment_if_present(0, 200, 700).as_deref(),
            Some(&data[200..900])
        );
        assert_eq!(
            a.fragment_if_present(0, 2500, 1000).as_deref(),
            Some(&data[2500..3500])
        );
        assert_eq!(a.fragment_if_present(0, 500, 1000), None); // spans the hole
        assert_eq!(a.fragment_if_present(0, 1500, 1000), None); // not covered
        assert_eq!(a.fragment_if_present(0, 3900, 200), None); // past total
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-placement reassembly model (ISSUE 15's), as the oracle:
    /// every newly covered sub-range kept as a view, the covered intervals
    /// merged beside them.
    #[derive(Default)]
    struct Reference {
        frags: Vec<(u32, WireBuf)>,
        intervals: Vec<(u32, u32)>,
        bytes_received: u32,
    }

    impl Reference {
        /// Scan every interval for the gaps, push, sort both lists, rebuild
        /// the merged interval list.
        fn insert(&mut self, off: u32, data: &WireBuf) -> u32 {
            let len = data.len() as u32;
            if len == 0 || off as u64 + len as u64 > TOTAL as u64 {
                return 0;
            }
            let mut newly = 0u32;
            let mut cursor = off;
            let end = off + len;
            for &(io, il) in &self.intervals {
                let iend = io + il;
                if iend <= cursor {
                    continue;
                }
                if io >= end {
                    break;
                }
                if io > cursor {
                    let (s, e) = ((cursor - off) as usize, (io - off) as usize);
                    self.frags.push((cursor, data.slice(s..e)));
                    newly += io - cursor;
                }
                cursor = cursor.max(iend);
                if cursor >= end {
                    break;
                }
            }
            if cursor < end {
                self.frags
                    .push((cursor, data.slice((cursor - off) as usize..)));
                newly += end - cursor;
            }
            if newly > 0 {
                self.frags.sort_unstable_by_key(|&(o, _)| o);
                self.intervals.push((off, len));
                self.intervals.sort_unstable();
                let mut merged: Vec<(u32, u32)> = Vec::with_capacity(self.intervals.len());
                for &(o, l) in &self.intervals {
                    if let Some(last) = merged.last_mut() {
                        if o <= last.0 + last.1 {
                            last.1 = (o + l).max(last.0 + last.1) - last.0;
                            continue;
                        }
                    }
                    merged.push((o, l));
                }
                self.intervals = merged;
                self.bytes_received += newly;
            }
            newly
        }

        fn missing_ranges(&self) -> Vec<(u32, u32)> {
            let mut out = Vec::new();
            let mut cursor = 0u32;
            for &(o, l) in &self.intervals {
                if o > cursor {
                    out.push((cursor, o - cursor));
                }
                cursor = o + l;
            }
            if cursor < TOTAL {
                out.push((cursor, TOTAL - cursor));
            }
            out
        }

        /// Every stored byte at its ADU offset, 0 where nothing is held.
        fn image(&self) -> Vec<u8> {
            let mut buf = vec![0u8; TOTAL as usize];
            for (o, f) in &self.frags {
                buf[*o as usize..*o as usize + f.len()].copy_from_slice(f);
            }
            buf
        }
    }

    const TOTAL: u32 = 300;

    fn pattern(off: u32, len: u32) -> WireBuf {
        salted(off, len, 0)
    }

    /// [`pattern`] with every byte offset by `salt`: fragments of different
    /// arrivals disagree where they overlap, so the bytes kept show which
    /// arrival won.
    fn salted(off: u32, len: u32, salt: u32) -> WireBuf {
        (off..off + len)
            .map(|i| (i * 7 + 3 + salt) as u8)
            .collect::<Vec<_>>()
            .into()
    }

    /// The intervals an assembly covers: its prefix, then its held views,
    /// touching ones merged.
    fn coverage(a: &Assembly) -> Vec<(u32, u32)> {
        let prefix = (!a.placed.is_empty()).then_some((0, a.placed.len() as u32));
        let held = a.held.iter().map(|(o, v)| (*o, v.len() as u32));
        let mut out: Vec<(u32, u32)> = Vec::new();
        for (o, l) in prefix.into_iter().chain(held) {
            match out.last_mut() {
                Some(last) if last.0 + last.1 == o => last.1 += l,
                _ => out.push((o, l)),
            }
        }
        out
    }

    /// Every stored byte at its ADU offset, 0 where nothing is stored.
    fn image(a: &Assembly) -> Vec<u8> {
        let mut buf = vec![0u8; a.total as usize];
        buf[..a.placed.len()].copy_from_slice(&a.placed);
        for (o, v) in &a.held {
            buf[*o as usize..*o as usize + v.len()].copy_from_slice(v);
        }
        buf
    }

    proptest! {
        /// Placement against the view-per-fragment model it replaced:
        /// random, overlapping, duplicate, touching, out-of-order and
        /// out-of-range fragments, each arrival's bytes distinct. Coverage,
        /// missing ranges and the bytes kept (the first arrival's, at
        /// every offset) are the model's; nothing is stored twice; held
        /// views stay sorted, disjoint and past the prefix.
        #[test]
        fn prop_insert_matches_push_sort_merge(
            frags in prop::collection::vec((0u32..TOTAL + 8, 0u32..90, any::<bool>()), 1..40),
        ) {
            let name = AduName::Seq { index: 0 };
            let mut fast = Assembly::new(name, TOTAL, SimTime::ZERO, 0);
            let mut slow = Reference::default();
            let mut prev = (0u32, 1u32);
            for (k, (off, len, repeat)) in frags.into_iter().enumerate() {
                // A repeat re-sends the previous fragment: an exact duplicate.
                let (off, len) = if repeat { prev } else { (off, len) };
                prev = (off, len);
                let data = salted(off, len, k as u32);
                prop_assert_eq!(fast.insert(off, &data), slow.insert(off, &data));
                fast.drain();
                prop_assert_eq!(coverage(&fast), slow.intervals.clone());
                prop_assert_eq!(fast.bytes_received, slow.bytes_received);
                prop_assert_eq!(fast.missing_ranges(), slow.missing_ranges());
                prop_assert_eq!(image(&fast), slow.image());
                prop_assert_eq!(fast.stored_bytes(), fast.bytes_received as usize);
                prop_assert!(fast.held.first().is_none_or(|&(o, _)| o as usize > fast.placed.len()));
                prop_assert!(fast.held.windows(2).all(|w| w[0].0 + w[0].1.len() as u32 <= w[1].0));
            }
            if fast.is_complete() {
                prop_assert_eq!(fast.into_payload().0, slow.image());
            }
        }
    }

    /// [`Assembler::on_tu`] without its whole-ADU branch: every TU takes
    /// the general path.
    fn on_tu_general(a: &mut Assembler, now: SimTime, tu: &Tu) -> bool {
        if a.was_released(tu.adu_id) {
            a.counters.rare().duplicate_tus += 1;
            return true;
        }
        match a.screen(tu) {
            Some(known) => {
                a.assemble(now, tu, known);
                true
            }
            None => false,
        }
    }

    /// ADU `id`'s length: zero-length, tiny and multi-hundred-byte ADUs.
    fn len_of(id: u64) -> u32 {
        [0, 1, 40, 300, 900][id as usize % 5]
    }

    fn tu(id: u64, adu_len: u32, name: AduName, off: u32, len: u32) -> Tu {
        Tu {
            flags: 0,
            assoc: 1,
            timestamp_us: 0,
            adu_id: id,
            adu_len,
            frag_off: off,
            name,
            payload: pattern(off + id as u32, len),
        }
    }

    proptest! {
        /// Releasing a whole-ADU TU as the view it is changes nothing
        /// observable: over scripts mixing whole ADUs, ADUs split in two,
        /// duplicates, late replays, zero-length ADUs, metadata conflicts,
        /// expiry sweeps and both byte-budget policies, every return value,
        /// delivery, counter, shed notice and replay verdict equals the
        /// general path's.
        #[test]
        fn prop_whole_adu_release_equals_general_path(
            budget in 0usize..3,
            script in prop::collection::vec((0u8..9, 0u64..12), 1..60),
        ) {
            let mk = || {
                let mut a = Assembler::new(SimDuration::from_millis(5), 3);
                match budget {
                    1 => a.set_budget(1200, ShedPolicy::Backpressure),
                    2 => a.set_budget(1200, ShedPolicy::DropOldest),
                    _ => {}
                }
                a
            };
            let (mut fast, mut slow) = (mk(), mk());
            let mut now = SimTime::ZERO;
            for (kind, id) in script {
                now += SimDuration::from_millis(1);
                let (len, name) = (len_of(id), AduName::Seq { index: id });
                let half = len / 2;
                let t = match kind {
                    // Whole ADUs: first arrivals, duplicates and late
                    // replays alike, depending on what came before.
                    0..=3 => tu(id, len, name, 0, len),
                    4 => tu(id, len, name, 0, half),
                    5 => tu(id, len, name, half, len - half),
                    // Metadata conflicts, themselves shaped as whole ADUs.
                    6 => tu(id, len + 8, name, 0, len + 8),
                    7 => tu(id, len, AduName::Rpc { call: 9, part: 0 }, 0, len),
                    _ => {
                        let (f, s) = (fast.expire_policy(now, 1), slow.expire_policy(now, 1));
                        prop_assert_eq!(f.request_frags, s.request_frags);
                        prop_assert_eq!(f.abandoned, s.abandoned);
                        now += SimDuration::from_millis(4);
                        continue;
                    }
                };
                prop_assert_eq!(fast.on_tu(now, &t), on_tu_general(&mut slow, now, &t));
                loop {
                    let (f, s) = (fast.pop_ready(), slow.pop_ready());
                    prop_assert_eq!(&f, &s);
                    if f.is_none() {
                        break;
                    }
                }
                prop_assert_eq!(fast.stats(), slow.stats());
                prop_assert_eq!(fast.take_shed(), slow.take_shed());
                prop_assert_eq!(fast.pending_count(), slow.pending_count());
                prop_assert_eq!(fast.pending_bytes(), slow.pending_bytes());
                prop_assert_eq!(fast.budget_free(), slow.budget_free());
                prop_assert_eq!(fast.released_count(), slow.released_count());
                for probe in 0..13 {
                    prop_assert_eq!(fast.was_released(probe), slow.was_released(probe));
                }
            }
        }
    }

    proptest! {
        /// The lazily armed sweep against the sweep on every poll it
        /// replaced, polled as the transport polls (sweep, then collect
        /// shed notices): random arrivals of in-order, out-of-order and
        /// duplicate fragments for a handful of ADUs, polls at random
        /// instants straddling the deadline, NACK rounds, abandonment,
        /// `max_pending` overflow and drop-oldest shedding. Every poll's
        /// NACK requests, abandonments and shed notices, and every counter
        /// after every step, are the per-poll sweep's: skipping a sweep
        /// never moves a NACK or an abandonment.
        #[test]
        fn prop_lazy_sweep_fires_at_the_per_poll_instants(
            rounds in 0u32..4,
            shed in any::<bool>(),
            script in prop::collection::vec((0u8..3, 0u64..10, 0u32..4, 0u64..3_000), 1..120),
        ) {
            let mk = || {
                let mut a = Assembler::new(SimDuration::from_micros(2_000), 4);
                if shed {
                    a.set_budget(1_600, ShedPolicy::DropOldest);
                }
                a
            };
            let (mut lazy, mut every) = (mk(), mk());
            let mut now = SimTime::ZERO;
            for (kind, id, frag, step_us) in script {
                now += SimDuration::from_micros(step_us);
                if kind == 0 {
                    let (l, l_shed) = if lazy.needs_sweep(now) {
                        (lazy.expire_policy(now, rounds), lazy.take_shed())
                    } else {
                        (ExpiryActions::default(), Vec::new())
                    };
                    let e = every.expire_policy(now, rounds);
                    prop_assert_eq!(l.request_frags, e.request_frags);
                    prop_assert_eq!(l.abandoned, e.abandoned);
                    prop_assert_eq!(l_shed, every.take_shed());
                } else {
                    let t = tu(id, 400, AduName::Seq { index: id }, frag * 100, 100);
                    prop_assert_eq!(lazy.on_tu(now, &t), every.on_tu(now, &t));
                    prop_assert_eq!(lazy.pop_ready(), every.pop_ready());
                }
                prop_assert_eq!(lazy.stats(), every.stats());
                prop_assert_eq!(lazy.pending_count(), every.pending_count());
            }
        }
    }
}
