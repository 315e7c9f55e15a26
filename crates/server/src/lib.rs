//! The many-association ALF server.
//!
//! The paper's ALF/ILP argument is ultimately about how a *server* should
//! be organized: the ADU is the unit the application names, so a server
//! terminating many clients should pay a flat, small cost per ADU no
//! matter how many associations it holds. [`AlfServer`] owns N
//! [`AduTransport`] endpoints behind three structures chosen for exactly
//! that property:
//!
//! * a **sharded association table** — [`AssocKey`] (peer, association id)
//!   hashes by FNV-1a to a shard, so frames of one association always land
//!   on the same shard and reassembly state is never shared across shards
//!   (lock-free by construction; the sharding also fixes the layout a
//!   multi-core deployment would pin threads to);
//! * a per-shard **hashed timer wheel** ([`alf_core::timer::TimerWheel`])
//!   holding at most one wakeup per association — the association's own
//!   `next_timeout()` — so finding expired work is O(slots + expired),
//!   never a scan of all N associations;
//! * a **batched event loop** — [`AlfServer::poll_batch`] drains up to a
//!   configured number of ingress frames per tick with one caller-supplied
//!   clock read and one telemetry flush per batch, and only polls the
//!   associations actually touched by a frame or an expired timer (the
//!   *dirty list*), never all N.
//!
//! Send-side state follows activity: an association the batch loop finds
//! send-idle hands its send block (send ring, pacing queue, deadlines) to
//! the server's spare list, and [`AlfServer::send_adu`] gives one back to
//! an endpoint that has none, so the send blocks a server holds scale with
//! the associations sending, not with every association. One that only
//! receives never holds one.
//!
//! The driver in [`cluster`] wires a server node to many client nodes in
//! `ct-netsim` through the one hub-and-spoke loop in [`star`], and is what
//! experiment X13 measures: per-ADU cost flat from 1 to 100 000 concurrent
//! associations, memory bounded per association.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod star;

use alf_core::adu::Adu;
use alf_core::timer::TimerWheel;
use alf_core::transport::{
    config_block_bytes, AduTransport, AlfConfig, AlfStats, LossReport, SendRefused, SendRings,
};
use alf_core::wire::peek_assoc;
use ct_netsim::time::{SimDuration, SimTime};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;
use std::sync::Arc;

/// Identity of one association terminated by the server: the originating
/// peer (an opaque 64-bit id the caller derives from its addressing —
/// a node id, a socket, a flow hash) plus the 16-bit association id
/// carried in every wire message. Two peers may reuse the same wire
/// association id without colliding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AssocKey {
    /// Opaque peer identity (who the frame came from / goes to).
    pub peer: u64,
    /// Wire association id within that peer.
    pub assoc: u16,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, the server's one hash: shard placement and, finalized, the
/// tables' keys. Deliberately *not* `std`'s `RandomState`: placement must be
/// deterministic across runs so two runs of the same seed produce
/// byte-identical telemetry, and on a 10-byte key SipHash costs several
/// times as much.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// One FNV-1a round over a whole word.
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    // The tables' keys hash an integer field at a time, one round per
    // field rather than one per byte: the 120-byte configuration a
    // template set hashes per `add_association` costs 19 rounds, not 120.
    // Only [`shard_hash`] must stay byte-wise (it places keys), and it
    // calls `write` itself.
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    /// Mixed by MurmurHash3's 64-bit finalizer. A table takes its bucket
    /// from the low bits and its tag from the top seven, but an FNV
    /// state's low bits depend only on the input's low bits (and within
    /// one shard share [`shard_hash`]'s): unmixed, a shard of sequential
    /// `assoc`s landed on 1 in 64 of its buckets under 11 distinct tags,
    /// and a lookup walked a cluster comparing keys.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

type FnvBuild = BuildHasherDefault<Fnv>;

/// FNV-1a over the key's little-endian bytes: the shard a key lives on.
fn shard_hash(key: AssocKey) -> u64 {
    let mut h = Fnv::default();
    h.write(&key.peer.to_le_bytes());
    h.write(&key.assoc.to_le_bytes());
    h.0
}

/// Heap bytes of a `std` hash table of `capacity` entries of type `T`:
/// its buckets (the power of two that holds `capacity` at a load of 7/8),
/// one control byte per bucket and a trailing group of control bytes,
/// in one block. Zero before the first insert.
fn table_bytes<T>(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    // SSE2 probes 16 control bytes at a time; the portable code a word.
    const GROUP: usize = if cfg!(all(target_arch = "x86_64", target_feature = "sse2")) {
        16
    } else {
        size_of::<usize>()
    };
    let buckets = if capacity < 8 {
        capacity + 1
    } else {
        capacity / 7 * 8
    };
    let align = std::mem::align_of::<T>().max(GROUP);
    (buckets * size_of::<T>()).next_multiple_of(align) + buckets + GROUP
}

/// Static configuration of an [`AlfServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of shards the association table is split into. Same-key
    /// frames always land on the same shard.
    pub shards: usize,
    /// Slots per shard wakeup wheel.
    pub wheel_slots: usize,
    /// Tick width of the shard wakeup wheels. Deadlines stay exact; the
    /// granularity only bounds how many slots an advance scans.
    pub wheel_granularity: SimDuration,
    /// Maximum ingress frames drained per [`AlfServer::poll_batch`] call —
    /// the amortization unit: one clock read and one telemetry flush cover
    /// up to this many frames.
    pub batch_frames: usize,
    /// Stuck-association watchdog deadline: an association that has held
    /// outstanding work for this long in simulated time without delivering
    /// an ADU is flagged (counter + flight-recorder event — observation
    /// only, no behavior change). Checked only when the association is
    /// polled, so the watchdog is O(dirty), and a genuinely stuck
    /// association is still seen because its retransmission timer keeps
    /// firing it dirty. The default is far beyond any healthy recovery
    /// cycle so clean runs never flag.
    pub stuck_deadline: SimDuration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            wheel_slots: 64,
            wheel_granularity: SimDuration::from_millis(2),
            batch_frames: 1024,
            stuck_deadline: SimDuration::from_millis(30_000),
        }
    }
}

/// Error from [`AlfServer::add_association`]: the key is already bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssocExists(pub AssocKey);

impl std::fmt::Display for AssocExists {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "association (peer {}, assoc {}) already exists",
            self.0.peer, self.0.assoc
        )
    }
}

impl std::error::Error for AssocExists {}

/// What one [`AlfServer::poll_batch`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Ingress frames dispatched to associations.
    pub frames_ingested: usize,
    /// Association wakeups fired from the shard wheels.
    pub timers_fired: usize,
    /// Associations polled (the dirty list — not N).
    pub assocs_polled: usize,
    /// Egress frames produced.
    pub egress_frames: usize,
    /// ADUs that completed reassembly this batch.
    pub adus_delivered: usize,
}

impl BatchReport {
    /// Nothing happened: no frames, no timers, no polls.
    pub fn idle(&self) -> bool {
        *self == BatchReport::default()
    }
}

/// The batch loop's work over a server's lifetime, summed over shards:
/// exact counts of what a cost growing with the association count would
/// move — an association polled that nothing happened to, a wheel walk past
/// dead entries — read off the structures, never timed.
/// See [`AlfServer::loop_work`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopWork {
    /// Associations polled (dirty-list visits).
    pub polls: u64,
    /// Shard-wheel entries looked at while scanning expired slots.
    pub wheel_entries_examined: u64,
    /// Shard-wheel slots scanned.
    pub wheel_slots_scanned: u64,
}

impl std::ops::Sub for LoopWork {
    type Output = LoopWork;

    fn sub(self, earlier: LoopWork) -> LoopWork {
        LoopWork {
            polls: self.polls - earlier.polls,
            wheel_entries_examined: self.wheel_entries_examined - earlier.wheel_entries_examined,
            wheel_slots_scanned: self.wheel_slots_scanned - earlier.wheel_slots_scanned,
        }
    }
}

/// Server-level counters, aggregated over all shards by
/// [`AlfServer::publish_stats`].
#[derive(Debug, Clone, Copy, Default)]
struct ShardCounters {
    frames_in: u64,
    frames_out: u64,
    timer_fires: u64,
    polls: u64,
    /// Frames for unknown associations — dropped, never delivered to a
    /// wrong endpoint (the §3 mis-delivery security property).
    misdelivered: u64,
    /// Frames too short to carry an association id.
    malformed: u64,
    /// Watchdog episodes: associations flagged for holding outstanding
    /// work past [`ServerConfig::stuck_deadline`] without delivering.
    /// One count per episode (the flag clears on delivery progress).
    stuck_assocs: u64,
}

/// One association's dense slot record: everything the batch loop decides
/// on before (and after) it touches the endpoint — is this wakeup or dirty
/// mark still the tenant's, is it already listed, does its armed deadline
/// need to move. Sixteen of these fit where one endpoint does, so timer-fire
/// validation, dirty marking and the re-arm comparison stay in a handful of
/// cache lines per batch.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: AssocKey,
    /// The wakeup deadline currently armed in the shard wheel for this
    /// association (strict one-entry-per-association protocol: re-arming
    /// removes the old entry first, so the wheel's minimum is exact).
    armed: Option<SimTime>,
    /// Watchdog epoch: when outstanding work was first seen with no
    /// delivery progress since. [`NOT_STALLED`] while idle or progressing.
    stalled_since: SimTime,
    /// Bumped every time the slot is vacated. Dirty-list and wheel entries
    /// carry the generation they were made under ([`SlotRef`]); one that no
    /// longer matches belongs to a previous tenant and is skipped.
    generation: u32,
    /// ADUs taken from the endpoint at ingest since its last poll — the
    /// delivery progress that poll reports.
    delivered: u32,
    /// Occupied (vacant slots wait on [`Shard::free`]).
    live: bool,
    /// Already on the shard's dirty list this batch.
    dirty: bool,
    /// Already flagged for the current stall episode (flag once, clear on
    /// progress).
    stuck: bool,
}

// The next field added to the slot record fails the build with the number
// in view: one record must stay within a cache line.
const _: () = assert!(std::mem::size_of::<Slot>() <= 56);

/// [`Slot::stalled_since`] of an association that is not stalled (an
/// instant no poll happens at).
const NOT_STALLED: SimTime = SimTime::MAX;

/// A slot index plus the generation of the tenant it was taken for — the
/// key of every dirty-list and shard-wheel entry. Ordered by index first,
/// so a sorted dirty list is still slab (= memory) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SlotRef {
    idx: u32,
    generation: u32,
}

/// Endpoints per storage chunk.
const EP_CHUNK: usize = 64;

/// Chunked endpoint storage: entry `i` is `chunks[i / EP_CHUNK][i % EP_CHUNK]`,
/// `Some` exactly while slot `i` is live. Chunks are allocated full-size and
/// never reallocated.
type Endpoints = Vec<Vec<Option<AduTransport>>>;

fn entry(chunks: &Endpoints, idx: u32) -> &Option<AduTransport> {
    let i = idx as usize;
    &chunks[i / EP_CHUNK][i % EP_CHUNK]
}

fn entry_mut(chunks: &mut Endpoints, idx: u32) -> &mut Option<AduTransport> {
    let i = idx as usize;
    &mut chunks[i / EP_CHUNK][i % EP_CHUNK]
}

/// A shard is a *slab* in two parallel parts, both addressed by the 32-bit
/// slot index: the dense [`Slot`] records, and the endpoints in fixed-size
/// chunks that are never reallocated — growing a shard allocates the next
/// chunk and copies no endpoint. Every hot structure (wheel, dirty list) is
/// keyed by [`SlotRef`], so the frame/timer/poll paths never walk a tree —
/// one hash lookup on ingress, direct indexing everywhere after. The dirty
/// drain sorts its refs first, which on a slab is address order: polling
/// 10 000 touched associations walks their endpoints forward through
/// memory instead of hopping the heap.
#[derive(Debug)]
struct Shard {
    /// Key → slot index, hashed by FNV-1a. Lookups only — never iterated.
    index: HashMap<AssocKey, u32, FnvBuild>,
    /// Slot records; vacated ones are recycled LIFO via [`Shard::free`].
    slots: Vec<Slot>,
    endpoints: Endpoints,
    free: Vec<u32>,
    wheel: TimerWheel<SlotRef>,
    wheel_scratch: Vec<(SimTime, SlotRef)>,
    /// Slots needing a poll: touched by ingress, a fired timer, or an
    /// application send since the last drain. Deduplicated by
    /// [`Slot::dirty`], sorted (→ memory order) at drain time —
    /// deterministic. Refs of since-removed tenants stay until the drain
    /// skips them.
    dirty: Vec<SlotRef>,
    /// The list a drain is working through — swapped with `dirty` so that
    /// marks made during the drain land on the next list and neither
    /// allocation is ever dropped.
    draining: Vec<SlotRef>,
    counters: ShardCounters,
}

impl Shard {
    fn new(cfg: &ServerConfig) -> Self {
        Self {
            index: HashMap::default(),
            slots: Vec::new(),
            endpoints: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(cfg.wheel_slots, cfg.wheel_granularity),
            wheel_scratch: Vec::new(),
            dirty: Vec::new(),
            draining: Vec::new(),
            counters: ShardCounters::default(),
        }
    }

    /// Live endpoints, in slot (= memory) order.
    fn endpoints(&self) -> impl Iterator<Item = &AduTransport> {
        self.endpoints.iter().flatten().flatten()
    }

    /// The endpoint of live slot `idx`.
    fn endpoint_mut(&mut self, idx: u32) -> &mut AduTransport {
        entry_mut(&mut self.endpoints, idx)
            .as_mut()
            .expect("indexed slot holds an endpoint")
    }

    /// Put slot `idx` on the dirty list unless it is already there.
    fn mark_dirty(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        if !slot.dirty {
            slot.dirty = true;
            self.dirty.push(SlotRef {
                idx,
                generation: slot.generation,
            });
        }
    }

    /// Install the endpoint `make` builds under `key`, in a recycled or
    /// fresh slot — unless `key` is bound already. One index probe.
    fn insert(
        &mut self,
        key: AssocKey,
        make: impl FnOnce() -> AduTransport,
    ) -> Result<(), AssocExists> {
        let Entry::Vacant(vacant) = self.index.entry(key) else {
            return Err(AssocExists(key));
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                // `remove` left everything but the key and `live` reset.
                let slot = &mut self.slots[idx as usize];
                slot.key = key;
                slot.live = true;
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("fewer than 2^32 slots per shard");
                self.slots.push(Slot {
                    key,
                    armed: None,
                    stalled_since: NOT_STALLED,
                    generation: 0,
                    delivered: 0,
                    live: true,
                    dirty: false,
                    stuck: false,
                });
                if self.endpoints.last().is_none_or(|c| c.len() == EP_CHUNK) {
                    self.endpoints.push(Vec::with_capacity(EP_CHUNK));
                }
                self.endpoints.last_mut().expect("just ensured").push(None);
                idx
            }
        };
        *entry_mut(&mut self.endpoints, idx) = Some(make());
        vacant.insert(idx);
        Ok(())
    }

    /// Vacate `key`'s slot: cancel its wakeup, bump the generation so
    /// every ref the old tenant left behind goes stale, recycle the index.
    fn remove(&mut self, key: AssocKey) -> Option<AduTransport> {
        let idx = self.index.remove(&key)?;
        let slot = &mut self.slots[idx as usize];
        if let Some(d) = slot.armed.take() {
            let armed_as = SlotRef {
                idx,
                generation: slot.generation,
            };
            self.wheel.remove(d, armed_as);
        }
        slot.generation = slot.generation.wrapping_add(1);
        slot.live = false;
        slot.dirty = false;
        slot.stuck = false;
        slot.stalled_since = NOT_STALLED;
        slot.delivered = 0;
        self.free.push(idx);
        entry_mut(&mut self.endpoints, idx).take()
    }
}

/// Ground-truth occupancy of one shard, read straight off the structures
/// (not from telemetry) — what the rollup gauges must agree with. See
/// [`AlfServer::shard_occupancy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Occupied slab slots (= live associations in this shard).
    pub occupied: usize,
    /// Total slab slots (occupied + free).
    pub slots: usize,
    /// Entries pending in the shard's wakeup wheel.
    pub wheel_pending: usize,
    /// Associations holding an armed wakeup deadline. The strict
    /// one-entry-per-association wheel protocol makes this equal to
    /// `wheel_pending` at all times — the invariant the chaos soak checks.
    pub armed: usize,
    /// Dirty-list length (slots awaiting a poll).
    pub dirty: usize,
}

/// Metric names the per-batch telemetry flush writes, built **once** at
/// [`AlfServer::attach_telemetry_as`] so the hot loop never formats a
/// string — five `format!` calls per batch were measurable at X13 scale.
#[derive(Debug)]
struct BatchMetricNames {
    batches: String,
    frames_in: String,
    frames_out: String,
    timer_fires: String,
    assocs: String,
    stuck_assocs: String,
    phase_ingest: String,
    phase_timers: String,
    phase_dirty: String,
    phase_flush: String,
    slowest_assoc: String,
}

impl BatchMetricNames {
    /// Bytes of the eleven names' buffers.
    fn heap_bytes(&self) -> usize {
        [
            &self.batches,
            &self.frames_in,
            &self.frames_out,
            &self.timer_fires,
            &self.assocs,
            &self.stuck_assocs,
            &self.phase_ingest,
            &self.phase_timers,
            &self.phase_dirty,
            &self.phase_flush,
            &self.slowest_assoc,
        ]
        .iter()
        .map(|s| s.capacity())
        .sum()
    }

    fn new(role: &str) -> Self {
        Self {
            batches: format!("{role}.batches"),
            frames_in: format!("{role}.frames_in"),
            frames_out: format!("{role}.frames_out"),
            timer_fires: format!("{role}.timer_fires"),
            assocs: format!("{role}.assocs"),
            stuck_assocs: format!("{role}.stuck_assocs"),
            phase_ingest: format!("{role}.phase.ingest_frames"),
            phase_timers: format!("{role}.phase.timer_fires"),
            phase_dirty: format!("{role}.phase.dirty_polls"),
            phase_flush: format!("{role}.phase.flush_egress"),
            slowest_assoc: format!("{role}.batch.slowest_assoc_work"),
        }
    }
}

/// A server terminating many ALF associations — see the module docs for
/// the three structures (sharded table, wakeup wheels, batched loop) that
/// keep its per-ADU cost flat in the association count.
#[derive(Debug)]
pub struct AlfServer {
    cfg: ServerConfig,
    shards: Vec<Shard>,
    /// One shared block per distinct endpoint configuration, with its
    /// `assoc` zeroed: every association made from it points here instead
    /// of holding a copy. Dropped when its last association is removed.
    templates: HashSet<Arc<AlfConfig>, FnvBuild>,
    /// Ingress frames queued by [`AlfServer::ingest`], drained (up to
    /// `batch_frames` at a time) by [`AlfServer::poll_batch`].
    ingress: VecDeque<(u64, Vec<u8>)>,
    /// Completed ADUs awaiting [`AlfServer::take_delivered`].
    delivered: Vec<(AssocKey, Adu, SimDuration)>,
    /// Loss reports awaiting [`AlfServer::take_losses`].
    losses: Vec<(AssocKey, LossReport)>,
    /// Recompute requests awaiting [`AlfServer::take_recompute_requests`].
    recompute: Vec<(AssocKey, LossReport)>,
    /// Empty send blocks that send-idle associations handed back
    /// ([`AduTransport::take_send_rings`]), for the next association that
    /// starts sending without one of its own. Boxed because an endpoint
    /// holds its block behind a pointer: the list moves that pointer, so
    /// passing a block on allocates nothing.
    #[allow(clippy::vec_box)]
    spare_rings: Vec<Box<SendRings>>,
    /// The list every poll in [`AlfServer::poll_batch`] appends its frames
    /// to ([`AduTransport::poll_into`]); emptied into the egress each time,
    /// so it keeps its block and a poll allocates only its frames.
    frames: Vec<Vec<u8>>,
    assoc_count: usize,
    batches: u64,
    telemetry: Option<ct_telemetry::Telemetry>,
    /// Prebuilt names for the per-batch flush (set with the telemetry
    /// handle; `None` exactly when `telemetry` is).
    batch_names: Option<BatchMetricNames>,
    /// Layer label for flight-recorder events and the metric prefix of the
    /// per-batch flush. `"server"` unless this instance is reused as a
    /// client-side stack (the cluster driver does exactly that).
    role: &'static str,
}

impl AlfServer {
    /// A server with `cfg.shards` empty shards.
    ///
    /// # Panics
    /// If `shards`, `wheel_slots` or `batch_frames` is zero, or the wheel
    /// granularity is zero.
    pub fn new(cfg: ServerConfig) -> Self {
        assert!(cfg.shards > 0, "server needs at least one shard");
        assert!(cfg.batch_frames > 0, "batch size must be positive");
        let shards = (0..cfg.shards).map(|_| Shard::new(&cfg)).collect();
        Self {
            cfg,
            shards,
            templates: HashSet::default(),
            ingress: VecDeque::new(),
            delivered: Vec::new(),
            losses: Vec::new(),
            recompute: Vec::new(),
            spare_rings: Vec::new(),
            frames: Vec::new(),
            assoc_count: 0,
            batches: 0,
            telemetry: None,
            batch_names: None,
            role: "server",
        }
    }

    /// Observability: the batch counters flush into `tel`'s metrics
    /// registry once per [`AlfServer::poll_batch`], and endpoints created
    /// *after* this call record flight-recorder events under layer
    /// `"server"` (if tracing is armed).
    pub fn attach_telemetry(&mut self, tel: ct_telemetry::Telemetry) {
        self.attach_telemetry_as(tel, "server");
    }

    /// [`AlfServer::attach_telemetry`] under a different layer label —
    /// for reusing this stack on the *client* side of a simulation, where
    /// its events and batch counters should not masquerade as the server's.
    pub fn attach_telemetry_as(&mut self, tel: ct_telemetry::Telemetry, role: &'static str) {
        self.telemetry = Some(tel);
        self.batch_names = Some(BatchMetricNames::new(role));
        self.role = role;
    }

    fn shard_of(&self, key: AssocKey) -> usize {
        (shard_hash(key) % self.cfg.shards as u64) as usize
    }

    /// Associations currently terminated.
    pub fn assoc_count(&self) -> usize {
        self.assoc_count
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Ingress frames queued but not yet dispatched.
    pub fn ingress_backlog(&self) -> usize {
        self.ingress.len()
    }

    /// Batches executed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// The batch loop's work so far. O(shards).
    pub fn loop_work(&self) -> LoopWork {
        let mut work = LoopWork::default();
        for shard in &self.shards {
            let wheel = shard.wheel.stats();
            work.polls += shard.counters.polls;
            work.wheel_entries_examined += wheel.entries_examined;
            work.wheel_slots_scanned += wheel.slots_scanned;
        }
        work
    }

    /// True while another [`AlfServer::poll_batch`] call would do work at
    /// the *current* instant: queued ingress or dirty associations. Timer
    /// wakeups are reported by [`AlfServer::next_wakeup`] instead.
    pub fn pending_work(&self) -> bool {
        !self.ingress.is_empty() || self.shards.iter().any(|s| !s.dirty.is_empty())
    }

    /// Create an endpoint for `key`. The endpoint runs under the key's
    /// association id, whatever the config's `assoc` says, and shares one
    /// copy of the rest with every association made from an equal config
    /// (its [`AduTransport::config`] shows `assoc` 0; its
    /// [`AduTransport::assoc`] is the key's).
    ///
    /// # Errors
    /// [`AssocExists`] if the key is already bound.
    pub fn add_association(&mut self, key: AssocKey, cfg: AlfConfig) -> Result<(), AssocExists> {
        let si = self.shard_of(key);
        self.shards[si].insert(key, || {
            let cfg = AlfConfig { assoc: 0, ..cfg };
            let template = match self.templates.get(&cfg) {
                Some(t) => Arc::clone(t),
                None => {
                    let t = Arc::new(cfg);
                    self.templates.insert(Arc::clone(&t));
                    t
                }
            };
            let mut ep = AduTransport::with_template(template, key.assoc);
            if let Some(tel) = &self.telemetry {
                ep.attach_telemetry(tel.clone(), self.role);
            }
            ep
        })?;
        self.assoc_count += 1;
        Ok(())
    }

    /// Tear an association down, returning its endpoint (e.g. to drain
    /// final deliveries). Its armed wakeup, if any, is cancelled, and the
    /// slot's generation moves on: a dirty mark the association left behind
    /// is skipped by the next drain, even if the slot has a new tenant by
    /// then — the newcomer is polled for its own events only.
    pub fn remove_association(&mut self, key: AssocKey) -> Option<AduTransport> {
        let si = self.shard_of(key);
        let ep = self.shards[si].remove(key)?;
        self.assoc_count -= 1;
        // Held by the set and by `ep` alone: no association uses it now.
        if let Some(t) = self.templates.get(ep.config()) {
            if Arc::strong_count(t) == 2 {
                self.templates.remove(ep.config());
            }
        }
        Some(ep)
    }

    /// Borrow one association's endpoint.
    pub fn endpoint(&self, key: AssocKey) -> Option<&AduTransport> {
        let shard = &self.shards[self.shard_of(key)];
        entry(&shard.endpoints, *shard.index.get(&key)?).as_ref()
    }

    /// Mutably borrow one association's endpoint. The association is
    /// marked dirty — whatever the caller does to it (answer a recompute
    /// request, reconfigure), the next batch polls it and re-arms its
    /// wakeup.
    pub fn endpoint_mut(&mut self, key: AssocKey) -> Option<&mut AduTransport> {
        let si = self.shard_of(key);
        let shard = &mut self.shards[si];
        let idx = *shard.index.get(&key)?;
        shard.mark_dirty(idx);
        Some(shard.endpoint_mut(idx))
    }

    /// Submit an ADU for transmission on `key`'s association. The frames
    /// leave on the next [`AlfServer::poll_batch`]. An endpoint that holds
    /// no send block gets a spare one first, if the server has one.
    ///
    /// # Errors
    /// [`SendRefused::WindowFull`] (and friends) exactly as
    /// [`AduTransport::send_adu`]; an unknown key refuses as
    /// [`SendRefused::PeerUnreachable`].
    pub fn send_adu(
        &mut self,
        key: AssocKey,
        name: alf_core::adu::AduName,
        payload: impl Into<ct_wire::WireBuf>,
    ) -> Result<u64, SendRefused> {
        let si = self.shard_of(key);
        let shard = &mut self.shards[si];
        let Some(&idx) = shard.index.get(&key) else {
            return Err(SendRefused::PeerUnreachable);
        };
        let ep = shard.endpoint_mut(idx);
        if !ep.holds_send_block() {
            if let Some(rings) = self.spare_rings.pop() {
                ep.give_send_rings(rings)
                    .expect("a spare send block is empty and the endpoint holds none");
            }
        }
        let id = match ep.send_adu(name, payload) {
            Ok(id) => id,
            Err(refused) => {
                // Nothing was submitted: the block goes back rather than
                // sit on an idle endpoint no poll is due to visit.
                self.spare_rings.extend(ep.take_send_rings());
                return Err(refused);
            }
        };
        shard.mark_dirty(idx);
        Ok(id)
    }

    /// Queue one arriving frame from `peer`. No parsing, no clock read —
    /// dispatch happens in [`AlfServer::poll_batch`], amortized over the
    /// whole batch.
    pub fn ingest(&mut self, peer: u64, frame: Vec<u8>) {
        self.ingress.push_back((peer, frame));
    }

    /// The earliest armed association wakeup across all shards —
    /// O(shards × wheel slots), never O(associations). Returns `None` when
    /// no association has pending timed work.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.shards
            .iter()
            .filter_map(|s| s.wheel.next_deadline())
            .min()
    }

    /// Run one batch at instant `now` (the batch's single clock read):
    ///
    /// 1. dispatch up to `batch_frames` queued ingress frames to their
    ///    associations (peek the key, shard-route, ingest);
    /// 2. advance each shard's wakeup wheel to `now` and collect the
    ///    associations whose timers expired;
    /// 3. poll exactly the dirty associations, pushing their egress frames
    ///    into `egress` as `(peer, frame)`, their completed ADUs, loss
    ///    reports and recompute requests into the server's queues; move a
    ///    send-idle association's send block to the spare list; re-arm
    ///    each polled association's wakeup from its `next_timeout()`;
    /// 4. flush the batch counters to telemetry — once.
    ///
    /// Work an association holds for this same instant (TUs a burst cap
    /// held back) is a wakeup at `now`, so [`AlfServer::next_wakeup`]
    /// reports it and the next batch polls it; drive the loop with
    /// [`AlfServer::pending_work`] and `next_wakeup`.
    pub fn poll_batch(&mut self, now: SimTime, egress: &mut Vec<(u64, Vec<u8>)>) -> BatchReport {
        let mut report = BatchReport::default();

        // 1. Ingress dispatch, capped at the batch size.
        for _ in 0..self.cfg.batch_frames {
            let Some((peer, frame)) = self.ingress.pop_front() else {
                break;
            };
            report.frames_ingested += 1;
            let Some(assoc) = peek_assoc(&frame) else {
                // Too short to route: count it on the shard the bare peer
                // hashes to, so the drop is visible *somewhere* stable.
                let si =
                    (shard_hash(AssocKey { peer, assoc: 0 }) % self.cfg.shards as u64) as usize;
                self.shards[si].counters.malformed += 1;
                continue;
            };
            let key = AssocKey { peer, assoc };
            let si = self.shard_of(key);
            let shard = &mut self.shards[si];
            match shard.index.get(&key) {
                Some(&idx) => {
                    shard.counters.frames_in += 1;
                    let ep = shard.endpoint_mut(idx);
                    ep.on_frame(now, frame.into());
                    // What the frame completed is taken now, while the
                    // endpoint is in cache: its ready queue never holds
                    // more than the one ADU a frame can complete.
                    let mut delivered = 0;
                    while let Some((adu, latency)) = ep.recv_adu() {
                        delivered += 1;
                        self.delivered.push((key, adu, latency));
                    }
                    report.adus_delivered += delivered as usize;
                    shard.slots[idx as usize].delivered += delivered;
                    shard.mark_dirty(idx);
                }
                None => shard.counters.misdelivered += 1,
            }
        }

        // 2. Fire expired wakeups — only expired slots are scanned.
        for shard in &mut self.shards {
            let mut due = std::mem::take(&mut shard.wheel_scratch);
            shard.wheel.advance(now, &mut due);
            for &(deadline, at) in &due {
                // Validated on the slot record alone: the wakeup must be
                // the current tenant's, and still its armed deadline.
                let slot = &mut shard.slots[at.idx as usize];
                if slot.live && slot.generation == at.generation && slot.armed == Some(deadline) {
                    slot.armed = None;
                    shard.counters.timer_fires += 1;
                    report.timers_fired += 1;
                    shard.mark_dirty(at.idx);
                }
            }
            due.clear();
            shard.wheel_scratch = due;
        }

        // 3. Poll the dirty list — the associations something happened to.
        // Sorted first: slot order is memory order on a slab, so a big
        // drain walks the endpoints forward through the heap.
        //
        // Tail attribution rides along at O(dirty): each polled
        // association's work this batch (egress frames + deliveries) feeds
        // a running max, and the stuck watchdog checks delivery progress
        // against the deadline. Ties keep the first association in shard/
        // slot order — deterministic.
        let mut slowest: Option<(AssocKey, u64)> = None;
        for shard in &mut self.shards {
            std::mem::swap(&mut shard.dirty, &mut shard.draining);
            shard.draining.sort_unstable();
            for n in 0..shard.draining.len() {
                let at = shard.draining[n];
                let slot = &mut shard.slots[at.idx as usize];
                if !slot.live || slot.generation != at.generation {
                    continue; // marked by a tenant removed since
                }
                slot.dirty = false;
                let key = slot.key;
                report.assocs_polled += 1;
                shard.counters.polls += 1;

                // The endpoint's one visit: poll it, drain what it
                // produced, and read off what the slot record needs.
                let ep = entry_mut(&mut shard.endpoints, at.idx)
                    .as_mut()
                    .expect("live slot holds an endpoint");
                ep.poll_into(now, &mut self.frames);
                let mut work = u64::from(slot.delivered);
                let mut delivered_now = slot.delivered > 0;
                slot.delivered = 0;
                for f in self.frames.drain(..) {
                    report.egress_frames += 1;
                    shard.counters.frames_out += 1;
                    work += 1;
                    egress.push((key.peer, f));
                }
                while let Some((adu, latency)) = ep.recv_adu() {
                    report.adus_delivered += 1;
                    work += 1;
                    delivered_now = true;
                    self.delivered.push((key, adu, latency));
                }
                for loss in ep.take_loss_reports() {
                    self.losses.push((key, loss));
                }
                for req in ep.take_recompute_requests() {
                    self.recompute.push((key, req));
                }
                let send_idle = ep.send_complete();
                if send_idle {
                    self.spare_rings.extend(ep.take_send_rings());
                }
                let outstanding = !send_idle || ep.reassembly_bytes() > 0;
                let desired = ep.next_timeout();

                if work > 0 && slowest.is_none_or(|(_, w)| work > w) {
                    slowest = Some((key, work));
                }
                // Watchdog: outstanding work with no delivery progress
                // past the deadline flags the association — once per
                // episode, cleared by progress. Pure observation: nothing
                // about the poll, re-arm, or dirty protocol changes.
                if delivered_now || !outstanding {
                    slot.stalled_since = NOT_STALLED;
                    slot.stuck = false;
                } else {
                    match slot.stalled_since {
                        NOT_STALLED => slot.stalled_since = now,
                        since => {
                            if !slot.stuck && now.saturating_since(since) >= self.cfg.stuck_deadline
                            {
                                slot.stuck = true;
                                shard.counters.stuck_assocs += 1;
                                if let Some(tel) = &self.telemetry {
                                    if tel.tracing_enabled() {
                                        tel.record(ct_telemetry::Event {
                                            at_nanos: now.as_nanos(),
                                            layer: self.role,
                                            kind: "assoc_stuck",
                                            assoc: u32::from(key.assoc),
                                            adu: None,
                                            a: key.peer,
                                            b: now.saturating_since(since).as_nanos(),
                                            len: 0,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
                // Re-arm: strict one-entry protocol against the shard wheel.
                if desired != slot.armed {
                    if let Some(old) = slot.armed {
                        shard.wheel.remove(old, at);
                    }
                    if let Some(d) = desired {
                        shard.wheel.insert(d, at);
                    }
                    slot.armed = desired;
                }
            }
            shard.draining.clear();
        }

        // 4. One telemetry flush for the whole batch — prebuilt names (no
        // per-batch formatting), O(shards) counter sums, and the batch's
        // phase-attribution samples: deterministic work units per phase
        // (frames dispatched / wakeups fired / associations polled /
        // egress frames flushed) into log2 histograms. Work units, not
        // wall time: every phase of a batch runs at one simulated instant,
        // and rollup snapshots must stay byte-identical across same-seed
        // runs, which host-clock durations would break.
        self.batches += 1;
        if let (Some(tel), Some(names)) = (&self.telemetry, &self.batch_names) {
            let mut reg = tel.metrics_mut();
            reg.counter_set(&names.batches, self.batches);
            reg.counter_set(
                &names.frames_in,
                self.shards.iter().map(|s| s.counters.frames_in).sum(),
            );
            reg.counter_set(
                &names.frames_out,
                self.shards.iter().map(|s| s.counters.frames_out).sum(),
            );
            reg.counter_set(
                &names.timer_fires,
                self.shards.iter().map(|s| s.counters.timer_fires).sum(),
            );
            reg.counter_set(&names.assocs, self.assoc_count as u64);
            reg.counter_set(
                &names.stuck_assocs,
                self.shards.iter().map(|s| s.counters.stuck_assocs).sum(),
            );
            reg.observe(&names.phase_ingest, report.frames_ingested as u64);
            reg.observe(&names.phase_timers, report.timers_fired as u64);
            reg.observe(&names.phase_dirty, report.assocs_polled as u64);
            reg.observe(&names.phase_flush, report.egress_frames as u64);
            if let Some((key, work)) = slowest {
                reg.observe(&names.slowest_assoc, work);
                drop(reg);
                if tel.tracing_enabled() {
                    tel.record(ct_telemetry::Event {
                        at_nanos: now.as_nanos(),
                        layer: self.role,
                        kind: "batch_slowest_assoc",
                        assoc: u32::from(key.assoc),
                        adu: None,
                        a: key.peer,
                        b: work,
                        len: 0,
                    });
                }
            }
        }
        report
    }

    /// Every association has fully drained (nothing queued, paced or
    /// unacknowledged anywhere) and no work is pending. O(associations) —
    /// an end-of-run check, not a hot-path one; gate it behind cheap
    /// counters as the cluster driver does.
    pub fn drained(&self) -> bool {
        !self.pending_work()
            && self
                .shards
                .iter()
                .all(|s| s.endpoints().all(AduTransport::send_complete))
    }

    /// Completed ADUs since the last call: `(key, adu, delivery latency)`.
    pub fn take_delivered(&mut self) -> Vec<(AssocKey, Adu, SimDuration)> {
        std::mem::take(&mut self.delivered)
    }

    /// Loss reports since the last call, in application terms per §5.
    pub fn take_losses(&mut self) -> Vec<(AssocKey, LossReport)> {
        std::mem::take(&mut self.losses)
    }

    /// Recompute requests since the last call, taken off each endpoint by
    /// the poll that raised them (DESIGN §3 "Who reports a deadline").
    /// Answer through [`AlfServer::endpoint_mut`], or let the ADU time out.
    pub fn take_recompute_requests(&mut self) -> Vec<(AssocKey, LossReport)> {
        std::mem::take(&mut self.recompute)
    }

    /// Aggregate transport stats of every association in shard `i`.
    pub fn shard_stats(&self, i: usize) -> AlfStats {
        let mut total = AlfStats::default();
        for ep in self.shards[i].endpoints() {
            total.merge(&ep.stats);
        }
        total
    }

    /// Publish per-shard aggregates under `prefix.shard<i>.*` (via
    /// [`AlfStats::publish`]) plus the shard's own dispatch counters, and
    /// server totals under `prefix.*`. End-of-run publication — it walks
    /// every association.
    pub fn publish_stats(&self, reg: &mut ct_telemetry::MetricsRegistry, prefix: &str) {
        for (i, shard) in self.shards.iter().enumerate() {
            let agg = self.shard_stats(i);
            let shard_prefix = format!("{prefix}.shard{i}");
            agg.publish(reg, &shard_prefix);
            reg.counter_set(&format!("{shard_prefix}.assocs"), shard.index.len() as u64);
            reg.counter_set(
                &format!("{shard_prefix}.frames_in"),
                shard.counters.frames_in,
            );
            reg.counter_set(
                &format!("{shard_prefix}.frames_out"),
                shard.counters.frames_out,
            );
            reg.counter_set(
                &format!("{shard_prefix}.timer_fires"),
                shard.counters.timer_fires,
            );
            reg.counter_set(&format!("{shard_prefix}.polls"), shard.counters.polls);
            reg.counter_set(
                &format!("{shard_prefix}.misdelivered"),
                shard.counters.misdelivered,
            );
            reg.counter_set(
                &format!("{shard_prefix}.malformed"),
                shard.counters.malformed,
            );
        }
        reg.counter_set(&format!("{prefix}.assocs"), self.assoc_count as u64);
        reg.counter_set(&format!("{prefix}.batches"), self.batches);
    }

    /// Check that shard `i`'s five structures — key index, slot records,
    /// endpoint storage, wakeup wheel and dirty list — describe the same
    /// set of associations, that every clean slot's wakeup is what its
    /// endpoint's `next_timeout()` reports, that no clean send-idle endpoint
    /// still holds a send block, and that every spare block is empty; the
    /// error names the first disagreement. The chaos soak calls this every
    /// iteration while associations are created and destroyed under fire.
    /// O(slots + wheel entries + spare blocks).
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn check_shard_layout(&self, i: usize) -> Result<(), String> {
        let shard = &self.shards[i];
        let live = shard.slots.iter().filter(|s| s.live).count();
        if live != shard.index.len() {
            return Err(format!(
                "{live} live slot records but {} indexed keys",
                shard.index.len()
            ));
        }
        let stored: usize = shard.endpoints.iter().map(Vec::len).sum();
        if stored != shard.slots.len() {
            return Err(format!(
                "{} slot records but endpoint storage for {stored}",
                shard.slots.len()
            ));
        }
        // Free list and live set are disjoint and cover every slot.
        let mut free = vec![false; shard.slots.len()];
        for &idx in &shard.free {
            if std::mem::replace(&mut free[idx as usize], true) {
                return Err(format!("slot {idx} is on the free list twice"));
            }
        }
        let mut armed = HashMap::new();
        for (idx, slot) in shard.slots.iter().enumerate() {
            let held = entry(&shard.endpoints, idx as u32).is_some();
            if slot.live == free[idx] || slot.live != held {
                return Err(format!(
                    "slot {idx}: live {}, on free list {}, endpoint stored {held}",
                    slot.live, free[idx]
                ));
            }
            if slot.live && shard.index.get(&slot.key) != Some(&(idx as u32)) {
                return Err(format!(
                    "slot {idx}: index does not map {:?} here",
                    slot.key
                ));
            }
            if !slot.live && (slot.dirty || slot.armed.is_some()) {
                return Err(format!("vacant slot {idx} is dirty or armed"));
            }
            if let Some(d) = slot.armed {
                armed.insert((idx as u32, slot.generation), d);
            }
            // A clean slot's wakeup is the endpoint's own, and held work
            // has one (DESIGN §3 "Who reports a deadline").
            if let Some(ep) = entry(&shard.endpoints, idx as u32)
                .as_ref()
                .filter(|_| !slot.dirty)
            {
                if slot.armed != ep.next_timeout() {
                    return Err(format!(
                        "clean slot {idx}: wakeup {:?} but the endpoint reports {:?}",
                        slot.armed,
                        ep.next_timeout()
                    ));
                }
                let holds = !ep.send_complete() || ep.reassembly_bytes() > 0;
                if holds && slot.armed.is_none() {
                    return Err(format!("clean slot {idx} holds work with no wakeup armed"));
                }
                // The poll that found it send-idle took its send block.
                if ep.send_complete() && ep.holds_send_block() {
                    return Err(format!(
                        "clean slot {idx} is send-idle but holds a send block"
                    ));
                }
            }
        }
        if let Some(n) = self.spare_rings.iter().position(|r| !r.is_empty()) {
            return Err(format!("spare send block {n} holds entries"));
        }
        // Every armed record has exactly one wheel entry, under its own
        // generation, and the wheel holds nothing else.
        if shard.wheel.len() != armed.len() {
            return Err(format!(
                "{} armed records but {} wheel entries",
                armed.len(),
                shard.wheel.len()
            ));
        }
        let mut wheel = shard.wheel.clone();
        let mut entries = Vec::new();
        wheel.advance(SimTime::MAX, &mut entries);
        for (d, at) in entries {
            if armed.remove(&(at.idx, at.generation)) != Some(d) {
                return Err(format!("wheel entry {at:?} at {d} matches no armed record"));
            }
        }
        // Every current dirty ref names a live record whose flag is set,
        // once; refs of removed tenants are stale and skipped by the drain.
        let mut listed = 0;
        for at in &shard.dirty {
            let slot = &shard.slots[at.idx as usize];
            if slot.generation == at.generation {
                if !(slot.live && slot.dirty) {
                    return Err(format!("dirty ref {at:?} names a clean or vacant slot"));
                }
                listed += 1;
            }
        }
        let flagged = shard.slots.iter().filter(|s| s.dirty).count();
        if listed != flagged {
            return Err(format!(
                "{flagged} records flagged dirty but {listed} current dirty refs"
            ));
        }
        Ok(())
    }

    /// Ground-truth occupancy of shard `i`, read straight off the slab,
    /// wheel and dirty list. The rollup gauges must agree with this — the
    /// occupancy tests and the chaos soak's in-loop invariants compare
    /// them after churn.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn shard_occupancy(&self, i: usize) -> ShardOccupancy {
        let shard = &self.shards[i];
        ShardOccupancy {
            occupied: shard.index.len(),
            slots: shard.slots.len(),
            wheel_pending: shard.wheel.len(),
            armed: shard.slots.iter().filter(|s| s.armed.is_some()).count(),
            dirty: shard.dirty.len(),
        }
    }

    /// One shard's dispatch counters and occupancy gauges as a standalone
    /// registry under **unprefixed** names (`frames_in`, `wheel_pending`,
    /// …), so [`ct_telemetry::MetricsRegistry::merge`] rolls any set of shards up into
    /// one aggregate: counters add, gauges keep the worst-observed
    /// (maximum) shard.
    pub fn shard_registry(&self, i: usize) -> ct_telemetry::MetricsRegistry {
        let shard = &self.shards[i];
        let mut reg = ct_telemetry::MetricsRegistry::new();
        reg.counter_set("assocs", shard.index.len() as u64);
        reg.counter_set("frames_in", shard.counters.frames_in);
        reg.counter_set("frames_out", shard.counters.frames_out);
        reg.counter_set("timer_fires", shard.counters.timer_fires);
        reg.counter_set("polls", shard.counters.polls);
        reg.counter_set("misdelivered", shard.counters.misdelivered);
        reg.counter_set("malformed", shard.counters.malformed);
        reg.counter_set("stuck_assocs", shard.counters.stuck_assocs);
        reg.gauge_set("slab_slots", shard.slots.len() as f64);
        reg.gauge_set("slab_occupied", shard.index.len() as f64);
        reg.gauge_set("wheel_pending", shard.wheel.len() as f64);
        reg.gauge_set("dirty_len", shard.dirty.len() as f64);
        reg
    }

    /// The server-wide rollup: every shard's registry merged
    /// ([`ct_telemetry::MetricsRegistry::merge`] — counters add, gauges max) plus the
    /// cross-shard derived gauges: `imbalance.assocs` and
    /// `imbalance.frames_in` (max shard / mean shard; 1.0 is perfectly
    /// balanced), `slab.occupancy` (occupied / total slots),
    /// `wheel.pending_total` and `dirty.total` (sums — the merged
    /// `wheel_pending`/`dirty_len` gauges keep the max shard), and
    /// `batch.mean_frames` (ingress frames per batch).
    pub fn rollup(&self) -> ct_telemetry::MetricsRegistry {
        let mut total = ct_telemetry::MetricsRegistry::new();
        for i in 0..self.shards.len() {
            total.merge(&self.shard_registry(i));
        }
        total.counter_set("batches", self.batches);
        let n = self.shards.len() as f64;
        let imbalance = |max: f64, sum: f64| if sum > 0.0 { max / (sum / n) } else { 1.0 };
        let assoc_max = self.shards.iter().map(|s| s.index.len()).max().unwrap_or(0);
        let frames_max = self
            .shards
            .iter()
            .map(|s| s.counters.frames_in)
            .max()
            .unwrap_or(0);
        let frames_sum: u64 = self.shards.iter().map(|s| s.counters.frames_in).sum();
        let slots_sum: usize = self.shards.iter().map(|s| s.slots.len()).sum();
        total.gauge_set(
            "imbalance.assocs",
            imbalance(assoc_max as f64, self.assoc_count as f64),
        );
        total.gauge_set(
            "imbalance.frames_in",
            imbalance(frames_max as f64, frames_sum as f64),
        );
        total.gauge_set(
            "slab.occupancy",
            if slots_sum > 0 {
                self.assoc_count as f64 / slots_sum as f64
            } else {
                0.0
            },
        );
        total.gauge_set(
            "wheel.pending_total",
            self.shards.iter().map(|s| s.wheel.len()).sum::<usize>() as f64,
        );
        total.gauge_set(
            "dirty.total",
            self.shards.iter().map(|s| s.dirty.len()).sum::<usize>() as f64,
        );
        total.gauge_set(
            "batch.mean_frames",
            if self.batches > 0 {
                frames_sum as f64 / self.batches as f64
            } else {
                0.0
            },
        );
        total
    }

    /// Publish the observability-plane rollup into `reg`: each shard's
    /// registry under `prefix.shard<i>.*` (the ct-top per-shard table) and
    /// the [`AlfServer::rollup`] aggregate under `prefix.*`. End-of-run
    /// publication, like [`AlfServer::publish_stats`].
    pub fn publish_rollup(&self, reg: &mut ct_telemetry::MetricsRegistry, prefix: &str) {
        for i in 0..self.shards.len() {
            let sreg = self.shard_registry(i);
            let sp = format!("{prefix}.shard{i}");
            for (name, v) in sreg.counters() {
                reg.counter_set(&format!("{sp}.{name}"), v);
            }
            for (name, v) in sreg.gauges() {
                reg.gauge_set(&format!("{sp}.{name}"), v);
            }
        }
        let total = self.rollup();
        for (name, v) in total.counters() {
            reg.counter_set(&format!("{prefix}.{name}"), v);
        }
        for (name, v) in total.gauges() {
            reg.gauge_set(&format!("{prefix}.{name}"), v);
        }
    }

    /// Associations holding a send block now: the ones with something
    /// submitted, queued or unacknowledged, plus any not polled since they
    /// went send-idle. O(associations).
    pub fn send_blocks(&self) -> usize {
        self.shards
            .iter()
            .flat_map(Shard::endpoints)
            .filter(|ep| ep.holds_send_block())
            .count()
    }

    /// Heap bytes of every send block this server holds
    /// ([`SendRings::heap_bytes`]): its endpoints' and its spare list's.
    /// O(associations).
    pub fn send_ring_bytes(&self) -> usize {
        let endpoints: usize = self
            .shards
            .iter()
            .flat_map(Shard::endpoints)
            .map(AduTransport::send_ring_bytes)
            .sum();
        endpoints
            + self
                .spare_rings
                .iter()
                .map(|r| r.heap_bytes())
                .sum::<usize>()
    }

    /// Memory footprint in bytes: the server and every heap block it
    /// holds — per shard the slot records, the endpoint chunks (an
    /// endpoint's inline part lives there), each live endpoint's own heap
    /// blocks (the rest of [`AduTransport::approx_mem_bytes`]), the key
    /// index, wheel, dirty and free lists; the shared configuration
    /// templates; the spare send blocks; the poll frame list; the ingress
    /// queue and its frames, and the delivery, loss and recompute queues.
    /// Deterministic (derived from lengths and capacities, never allocator
    /// internals) so X13 can commit it to a gated baseline;
    /// `tests/alloc_budget.rs` checks it against what a warm server really
    /// holds. The payloads of undelivered ADUs and of retransmission
    /// buffers are views of chunks shared with the application, counted by
    /// their length.
    pub fn approx_mem_bytes(&self) -> usize {
        let mut total = size_of::<Self>() + self.shards.capacity() * size_of::<Shard>();
        for shard in &self.shards {
            total += shard.wheel.approx_mem_bytes();
            total += shard.wheel_scratch.capacity() * size_of::<(SimTime, SlotRef)>();
            total += (shard.dirty.capacity() + shard.draining.capacity()) * size_of::<SlotRef>();
            total += shard.free.capacity() * size_of::<u32>();
            total += shard.slots.capacity() * size_of::<Slot>();
            total += shard.endpoints.capacity() * size_of::<Vec<Option<AduTransport>>>();
            total += shard
                .endpoints
                .iter()
                .map(|c| c.capacity() * size_of::<Option<AduTransport>>())
                .sum::<usize>();
            total += table_bytes::<(AssocKey, u32)>(shard.index.capacity());
            for ep in shard.endpoints() {
                total += ep.approx_mem_bytes() - size_of::<AduTransport>();
            }
        }
        total += table_bytes::<Arc<AlfConfig>>(self.templates.capacity())
            + self.templates.len() * config_block_bytes();
        total += self.spare_rings.capacity() * size_of::<Box<SendRings>>()
            + self
                .spare_rings
                .iter()
                .map(|r| r.heap_bytes())
                .sum::<usize>();
        total += self.frames.capacity() * size_of::<Vec<u8>>();
        total += self.ingress.capacity() * size_of::<(u64, Vec<u8>)>()
            + self
                .ingress
                .iter()
                .map(|(_, f)| f.capacity())
                .sum::<usize>();
        total += self.delivered.capacity() * size_of::<(AssocKey, Adu, SimDuration)>()
            + self
                .delivered
                .iter()
                .map(|(_, a, _)| a.len())
                .sum::<usize>();
        total += (self.losses.capacity() + self.recompute.capacity())
            * size_of::<(AssocKey, LossReport)>();
        if let Some(names) = &self.batch_names {
            total += names.heap_bytes();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_core::adu::AduName;
    use alf_core::wire::Message;

    fn key(peer: u64, assoc: u16) -> AssocKey {
        AssocKey { peer, assoc }
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// Drive `server` and one client endpoint until both go quiet.
    fn pump(server: &mut AlfServer, client: &mut AduTransport, peer: u64) {
        let mut now = SimTime::ZERO;
        let mut egress = Vec::new();
        for _ in 0..10_000 {
            now += SimDuration::from_micros(50);
            let mut moved = false;
            for f in client.poll(now) {
                moved = true;
                server.ingest(peer, f);
            }
            while server.pending_work() {
                let r = server.poll_batch(now, &mut egress);
                if r.idle() {
                    break;
                }
                moved = true;
            }
            for (p, f) in egress.drain(..) {
                assert_eq!(p, peer);
                client.on_frame(now, f.into());
            }
            if !moved && server.next_wakeup().is_none() && client.next_timeout().is_none() {
                return;
            }
        }
        panic!("did not quiesce");
    }

    #[test]
    fn same_key_routes_to_same_shard() {
        let server = AlfServer::new(ServerConfig::default());
        let k = key(7, 42);
        assert_eq!(server.shard_of(k), server.shard_of(k));
        // Distinct peers with the same wire assoc id are distinct keys.
        assert_ne!(shard_hash(key(1, 5)), shard_hash(key(2, 5)));
    }

    #[test]
    fn table_hash_spreads_one_shards_sequential_keys() {
        // One of eight shards' share of 4 peers x 25 000 sequential assoc
        // ids: about 12 500 keys in a 16 384-bucket table. Thrown at random
        // they would fill about 8 740 buckets and use all 128 tags.
        use std::hash::BuildHasher;
        let hashes: Vec<u64> = (0..4)
            .flat_map(|peer| (1..=25_000).map(move |assoc| key(peer, assoc)))
            .filter(|&k| shard_hash(k).is_multiple_of(8))
            .map(|k| FnvBuild::default().hash_one(k))
            .collect();
        let buckets: HashSet<u64> = hashes.iter().map(|h| h & 16_383).collect();
        let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(buckets.len() > 8_000, "{} buckets", buckets.len());
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn delivers_across_associations_without_bleed() {
        let mut server = AlfServer::new(ServerConfig {
            shards: 4,
            ..ServerConfig::default()
        });
        let cfg = AlfConfig::default();
        let mut clients: Vec<(u64, u16, AduTransport)> = Vec::new();
        for peer in 0..3u64 {
            for assoc in 1..=4u16 {
                server.add_association(key(peer, assoc), cfg).unwrap();
                clients.push((peer, assoc, AduTransport::new(AlfConfig { assoc, ..cfg })));
            }
        }
        // Each association sends one ADU whose bytes encode its identity.
        for (peer, assoc, client) in &mut clients {
            let mut body = payload(600);
            body[0] = *peer as u8;
            body[1] = *assoc as u8;
            client.send_adu(AduName::Seq { index: 0 }, body).unwrap();
        }
        let mut now = SimTime::ZERO;
        let mut egress = Vec::new();
        for _ in 0..1000 {
            now += SimDuration::from_micros(50);
            let mut moved = false;
            for (peer, _, client) in &mut clients {
                for f in client.poll(now) {
                    moved = true;
                    server.ingest(*peer, f);
                }
            }
            while server.pending_work() {
                if server.poll_batch(now, &mut egress).idle() {
                    break;
                }
                moved = true;
            }
            for (p, f) in egress.drain(..) {
                for (peer, _, client) in &mut clients {
                    if *peer == p {
                        // The wire assoc id demultiplexes within the peer.
                        if peek_assoc(&f) == Some(client.assoc()) {
                            client.on_frame(now, f.clone().into());
                        }
                    }
                }
            }
            if !moved {
                break;
            }
        }
        let delivered = server.take_delivered();
        assert_eq!(delivered.len(), 12);
        for (k, adu, _) in &delivered {
            assert_eq!(adu.payload.as_slice()[0], k.peer as u8, "payload bleed");
            assert_eq!(adu.payload.as_slice()[1], k.assoc as u8, "payload bleed");
        }
        assert!(server.shard_count() == 4);
    }

    #[test]
    fn unknown_and_malformed_frames_are_counted_not_delivered() {
        let mut server = AlfServer::new(ServerConfig::default());
        server
            .add_association(key(1, 1), AlfConfig::default())
            .unwrap();
        let mut client = AduTransport::new(AlfConfig::default());
        client
            .send_adu(AduName::Seq { index: 0 }, payload(100))
            .unwrap();
        let frames = client.poll(SimTime::ZERO);
        let mut egress = Vec::new();
        // Wrong peer: same wire assoc id, unknown key.
        server.ingest(99, frames[0].clone());
        // Truncated garbage.
        server.ingest(1, vec![1, 2, 3]);
        server.poll_batch(SimTime::ZERO, &mut egress);
        let mis: u64 = (0..server.shard_count())
            .map(|i| server.shards[i].counters.misdelivered)
            .sum();
        let mal: u64 = (0..server.shard_count())
            .map(|i| server.shards[i].counters.malformed)
            .sum();
        assert_eq!(mis, 1);
        assert_eq!(mal, 1);
        assert!(server.take_delivered().is_empty());
    }

    #[test]
    fn batch_cap_defers_excess_frames() {
        let mut server = AlfServer::new(ServerConfig {
            batch_frames: 2,
            ..ServerConfig::default()
        });
        server
            .add_association(key(1, 1), AlfConfig::default())
            .unwrap();
        for _ in 0..5 {
            server.ingest(1, vec![0; 3]);
        }
        let mut egress = Vec::new();
        let r = server.poll_batch(SimTime::ZERO, &mut egress);
        assert_eq!(r.frames_ingested, 2);
        assert_eq!(server.ingress_backlog(), 3);
        assert!(server.pending_work());
    }

    #[test]
    fn round_trip_with_acks_quiesces_and_rearms_nothing() {
        let mut server = AlfServer::new(ServerConfig::default());
        let cfg = AlfConfig::default();
        server.add_association(key(5, 9), cfg).unwrap();
        let mut client = AduTransport::new(AlfConfig { assoc: 9, ..cfg });
        for i in 0..20u64 {
            client
                .send_adu(AduName::Seq { index: i }, payload(3000))
                .unwrap();
        }
        pump(&mut server, &mut client, 5);
        assert_eq!(server.take_delivered().len(), 20);
        assert!(client.send_complete(), "ACKs must reach the client back");
        assert_eq!(
            server.next_wakeup(),
            None,
            "a drained server must hold no armed wakeups"
        );
    }

    #[test]
    fn remove_association_cancels_its_wakeup() {
        let mut server = AlfServer::new(ServerConfig::default());
        let k = key(2, 3);
        server.add_association(k, AlfConfig::default()).unwrap();
        // Server-side send leaves an un-ACKed ADU → armed retransmit wakeup.
        server
            .send_adu(k, AduName::Seq { index: 0 }, payload(100))
            .unwrap();
        let mut egress = Vec::new();
        while server.pending_work() {
            if server.poll_batch(SimTime::ZERO, &mut egress).idle() {
                break;
            }
        }
        assert!(server.next_wakeup().is_some());
        let ep = server.remove_association(k).expect("was added");
        assert!(!ep.send_complete());
        assert_eq!(server.next_wakeup(), None);
        assert_eq!(server.assoc_count(), 0);
        assert!(server.endpoint(k).is_none());
        assert!(server.remove_association(k).is_none(), "removed once");
    }

    #[test]
    fn send_rings_go_to_the_spare_list_and_back() {
        // An association found send-idle hands its send block to the
        // spare list, and the next one to send takes it instead of
        // allocating; a send refused after it was given hands it straight
        // back.
        let cfg = AlfConfig {
            peer_timeout: SimDuration::from_millis(5),
            ..AlfConfig::default()
        };
        let mut server = AlfServer::new(ServerConfig::default());
        let (a, b) = (key(1, 1), key(1, 2));
        server.add_association(a, cfg).unwrap();
        server.add_association(b, cfg).unwrap();
        server
            .send_adu(a, AduName::Seq { index: 0 }, payload(100))
            .unwrap();
        let mut egress = Vec::new();
        let mut now = SimTime::ZERO;
        // Nothing answers `a`: serve its deadlines until it gives up.
        loop {
            while server.pending_work() || server.next_wakeup().is_some_and(|t| t <= now) {
                server.poll_batch(now, &mut egress);
            }
            if server.endpoint(a).unwrap().peer_unreachable() {
                break;
            }
            now = server.next_wakeup().expect("a waits on its peer");
        }
        let pair = server.send_ring_bytes();
        assert!(pair > 0);
        assert_eq!(server.endpoint(a).unwrap().send_ring_bytes(), 0);
        let refused = server.send_adu(a, AduName::Seq { index: 1 }, payload(100));
        assert!(matches!(refused, Err(SendRefused::PeerUnreachable)));
        assert_eq!(server.endpoint(a).unwrap().send_ring_bytes(), 0);
        server
            .send_adu(b, AduName::Seq { index: 0 }, payload(100))
            .unwrap();
        assert_eq!(server.endpoint(b).unwrap().send_ring_bytes(), pair);
        assert_eq!(server.send_ring_bytes(), pair, "recycled, not reserved");
        for i in 0..server.shard_count() {
            server.check_shard_layout(i).unwrap();
        }
    }

    #[test]
    fn config_assoc_overridden() {
        // The key names the association; a disagreeing config is corrected,
        // so the endpoint stamps (and accepts) the id frames demultiplex on.
        let mut server = AlfServer::new(ServerConfig::default());
        let cfg = AlfConfig {
            assoc: 999,
            ..AlfConfig::default()
        };
        server.add_association(key(1, 7), cfg).unwrap();
        let ep = server.endpoint(key(1, 7)).unwrap();
        assert_eq!(ep.assoc(), 7);
        // The rest comes from the shared template, not from the key.
        assert_eq!(ep.config().assoc, 0);
    }

    #[test]
    fn equal_configs_share_one_template_until_their_last_association_goes() {
        let mut server = AlfServer::new(ServerConfig::default());
        for assoc in 1..=3u16 {
            // Configs that differ only by `assoc` are one configuration.
            let cfg = AlfConfig {
                assoc,
                ..AlfConfig::default()
            };
            server.add_association(key(1, assoc), cfg).unwrap();
        }
        let other = AlfConfig {
            window_adus: 8,
            ..AlfConfig::default()
        };
        server.add_association(key(2, 1), other).unwrap();
        assert_eq!(server.templates.len(), 2);
        let config = |k| server.endpoint(k).unwrap().config();
        assert!(std::ptr::eq(config(key(1, 1)), config(key(1, 3))));
        assert!(!std::ptr::eq(config(key(1, 1)), config(key(2, 1))));
        assert_eq!(config(key(2, 1)).window_adus, 8);

        server.remove_association(key(2, 1)).unwrap();
        assert_eq!(server.templates.len(), 1);
        for assoc in 1..=3u16 {
            server.remove_association(key(1, assoc)).unwrap();
        }
        assert!(server.templates.is_empty());
    }

    #[test]
    fn next_wakeup_spans_associations() {
        let mut server = AlfServer::new(ServerConfig {
            shards: 4,
            ..ServerConfig::default()
        });
        for assoc in 1..=8u16 {
            server
                .add_association(key(1, assoc), AlfConfig::default())
                .unwrap();
        }
        assert_eq!(server.next_wakeup(), None);
        // A partial ADU is timed work: an association holding the first TU
        // of a 4 000-byte ADU wakes the server for each NACK round, then
        // abandons the ADU and stops asking for the clock.
        let held = key(1, 3);
        let mut client = AduTransport::new(AlfConfig {
            assoc: held.assoc,
            ..AlfConfig::default()
        });
        client
            .send_adu(AduName::Seq { index: 0 }, payload(4000))
            .unwrap();
        server.ingest(held.peer, client.poll(SimTime::ZERO).swap_remove(0));
        let mut egress = Vec::new();
        let mut now = SimTime::ZERO;
        server.poll_batch(now, &mut egress);
        assert!(egress.is_empty());
        let rounds = AlfConfig::default().nack_frag_rounds;
        for round in 0..=rounds {
            let ep = server.endpoint(held).unwrap();
            assert!(ep.reassembly_bytes() > 0, "round {round}");
            now = server.next_wakeup().expect("the sweep is a wakeup");
            assert_eq!(Some(now), ep.next_timeout());
            server.poll_batch(now, &mut egress);
            let (peer, frame) = egress.pop().expect("the wakeup's batch acts");
            assert!(egress.is_empty());
            assert_eq!(peer, held.peer);
            match Message::decode_frame(&frame.into()).unwrap() {
                Message::NackFrags { ranges, .. } if round < rounds => {
                    assert_eq!(ranges, vec![(1400, 2600)]);
                }
                Message::Nack { ids, .. } if round == rounds => {
                    assert_eq!(ids, vec![0]);
                }
                other => panic!("round {round}: unexpected {other:?}"),
            }
        }
        assert_eq!(server.endpoint(held).unwrap().reassembly_bytes(), 0);
        assert_eq!(server.next_wakeup(), None);
        // Whichever shard holds the one association with a live timer, the
        // server's earliest wakeup is that timer.
        let k = key(1, 8);
        server
            .send_adu(k, AduName::Seq { index: 0 }, payload(10))
            .unwrap();
        while server.pending_work() {
            if server.poll_batch(now, &mut egress).idle() {
                break;
            }
        }
        assert_eq!(
            server.next_wakeup(),
            server.endpoint(k).unwrap().next_timeout()
        );
        assert!(server.next_wakeup().is_some());
    }

    #[test]
    fn burst_capped_remainder_leaves_at_the_same_instant() {
        // One unpaced association cuts an ADU into more TUs than one poll
        // may release. What the burst cap holds back is a wakeup at the
        // same instant, so the next batch sends it: every TU leaves at
        // `now`, as the frames a bare endpoint polled until empty at that
        // instant sends.
        let cfg = AlfConfig::default();
        let tus = cfg.burst_tus + 8;
        let body = payload(tus * cfg.mtu_payload);
        let (k, quiet) = (key(1, 1), key(1, 2));
        let mut server = AlfServer::new(ServerConfig::default());
        server.add_association(k, cfg).unwrap();
        server.add_association(quiet, cfg).unwrap();
        let now = SimTime::from_millis(3);
        let serve = |server: &mut AlfServer, egress: &mut Vec<(u64, Vec<u8>)>| {
            while server.pending_work() || server.next_wakeup().is_some_and(|w| w <= now) {
                if server.poll_batch(now, egress).idle() {
                    break;
                }
            }
        };
        let layout_agrees = |server: &AlfServer| {
            for i in 0..server.shard_count() {
                server.check_shard_layout(i).expect("layout agrees");
            }
        };
        let mut egress = Vec::new();
        server
            .send_adu(k, AduName::Seq { index: 0 }, body.clone())
            .unwrap();
        server.poll_batch(now, &mut egress);
        assert_eq!(egress.len(), cfg.burst_tus);
        assert!(!server.pending_work());
        layout_agrees(&server);
        assert_eq!(server.next_wakeup(), Some(now), "the held TUs are due now");
        serve(&mut server, &mut egress);
        assert_eq!(egress.len(), tus, "every TU left at {now}");
        assert!(server.next_wakeup().is_some_and(|w| w > now));
        layout_agrees(&server);

        let mut bare = AduTransport::new(AlfConfig {
            assoc: k.assoc,
            ..cfg
        });
        bare.send_adu(AduName::Seq { index: 0 }, body).unwrap();
        let mut alone = Vec::new();
        while alone.len() < tus {
            let frames = bare.poll(now);
            assert!(!frames.is_empty(), "the bare endpoint stalled");
            alone.extend(frames);
        }
        let frames: Vec<Vec<u8>> = egress.drain(..).map(|(_, f)| f).collect();
        assert_eq!(frames, alone);
        // And pinned, as FNV-1a 64: what the burst puts on the wire does
        // not depend on which loop lets the remainder out.
        let digest = frames
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(digest, 0x25a3_a4a8_cf8b_d3d3, "the burst's frames moved");

        // An association that emits with nothing held back is polled once
        // per event: a submission, then a peer's TU that it ACKs.
        let polls = server.loop_work().polls;
        server
            .send_adu(quiet, AduName::Seq { index: 0 }, payload(100))
            .unwrap();
        serve(&mut server, &mut egress);
        assert_eq!(egress.len(), 1);
        assert_eq!(server.loop_work().polls, polls + 1);
        let mut client = AduTransport::new(AlfConfig {
            assoc: quiet.assoc,
            ..cfg
        });
        client
            .send_adu(AduName::Seq { index: 0 }, payload(100))
            .unwrap();
        for f in client.poll(now) {
            server.ingest(quiet.peer, f);
        }
        serve(&mut server, &mut egress);
        assert_eq!(server.take_delivered().len(), 1);
        assert_eq!(egress.len(), 2, "the ACK left");
        assert_eq!(server.loop_work().polls, polls + 2);
        layout_agrees(&server);
    }

    #[test]
    fn recycled_slot_does_not_inherit_its_previous_tenants_marks() {
        // One shard, so the second association provably lands on the slot
        // the first one vacates (LIFO recycling).
        let mut server = AlfServer::new(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        });
        let (old, new) = (key(1, 1), key(2, 1));
        let mut egress = Vec::new();
        let now = SimTime::from_millis(1);
        server.add_association(old, AlfConfig::default()).unwrap();
        // Armed: an un-ACKed ADU leaves a retransmission wakeup behind.
        server
            .send_adu(old, AduName::Seq { index: 0 }, payload(100))
            .unwrap();
        while server.pending_work() {
            if server.poll_batch(now, &mut egress).idle() {
                break;
            }
        }
        let old_wakeup = server.next_wakeup().expect("armed");
        // Dirty: a second submission, not yet polled.
        server
            .send_adu(old, AduName::Seq { index: 1 }, payload(100))
            .unwrap();
        assert_eq!(server.shard_occupancy(0).dirty, 1);

        // Within the same tick: the tenant leaves, a new one takes the slot
        // and is marked dirty on its own account.
        server.remove_association(old).expect("was added");
        server.add_association(new, AlfConfig::default()).unwrap();
        assert_eq!(server.shard_occupancy(0).slots, 1, "slot was recycled");
        server
            .send_adu(new, AduName::Seq { index: 0 }, payload(100))
            .unwrap();
        server.check_shard_layout(0).expect("stale mark tolerated");

        // The old tenant's mark is skipped: exactly one poll, for `new`.
        let polls_before = server.shard_registry(0).counter("polls");
        let later = now + SimDuration::from_micros(500);
        egress.clear();
        let report = server.poll_batch(later, &mut egress);
        assert_eq!(report.assocs_polled, 1, "the stale dirty ref was polled");
        assert_eq!(server.shard_registry(0).counter("polls"), polls_before + 1);
        assert_eq!(egress.len(), 1);
        assert_eq!(egress[0].0, new.peer, "the frame is the new tenant's");
        while server.pending_work() {
            if server.poll_batch(later, &mut egress).idle() {
                break;
            }
        }

        // The old tenant's wakeup died with it: at its deadline nothing
        // fires; the new tenant's own, armed half a millisecond later, does.
        let new_wakeup = server.next_wakeup().expect("new tenant armed");
        assert!(new_wakeup > old_wakeup);
        let occ = server.shard_occupancy(0);
        assert_eq!((occ.armed, occ.wheel_pending), (1, 1));
        let fired = server.poll_batch(old_wakeup, &mut egress).timers_fired;
        assert_eq!(fired, 0, "the old tenant's wakeup reached the new one");
        assert_eq!(server.poll_batch(new_wakeup, &mut egress).timers_fired, 1);
        let occ = server.shard_occupancy(0);
        assert_eq!(occ.armed, occ.wheel_pending);
        server.check_shard_layout(0).expect("layout agrees");
    }

    #[test]
    fn duplicate_key_refused() {
        let mut server = AlfServer::new(ServerConfig::default());
        let k = key(1, 1);
        server.add_association(k, AlfConfig::default()).unwrap();
        assert_eq!(
            server.add_association(k, AlfConfig::default()),
            Err(AssocExists(k))
        );
        assert_eq!(server.assoc_count(), 1);
    }

    #[test]
    fn rollup_merges_shard_registries_to_ground_truth() {
        let mut server = AlfServer::new(ServerConfig {
            shards: 4,
            ..ServerConfig::default()
        });
        for peer in 0..6u64 {
            for assoc in 1..=3u16 {
                server
                    .add_association(key(peer, assoc), AlfConfig::default())
                    .unwrap();
            }
        }
        // Arm some wakeups so the wheel gauges are non-trivial.
        for peer in 0..3u64 {
            server
                .send_adu(key(peer, 1), AduName::Seq { index: 0 }, payload(64))
                .unwrap();
        }
        let mut egress = Vec::new();
        while server.pending_work() {
            if server.poll_batch(SimTime::ZERO, &mut egress).idle() {
                break;
            }
        }

        let rollup = server.rollup();
        // Counters are shard sums; cross-check against ground truth.
        assert_eq!(rollup.counter("assocs"), 18);
        let polls: u64 = (0..4).map(|i| server.shards[i].counters.polls).sum();
        assert_eq!(rollup.counter("polls"), polls);
        assert_eq!(rollup.counter("batches"), server.batches());
        // Occupancy gauges agree with the structures, per shard and rolled.
        let mut wheel_total = 0usize;
        for i in 0..4 {
            let occ = server.shard_occupancy(i);
            assert_eq!(occ.wheel_pending, occ.armed, "one-entry wheel protocol");
            wheel_total += occ.wheel_pending;
            let sreg = server.shard_registry(i);
            assert_eq!(sreg.gauge("wheel_pending"), Some(occ.wheel_pending as f64));
            assert_eq!(sreg.gauge("slab_occupied"), Some(occ.occupied as f64));
            assert_eq!(sreg.gauge("slab_slots"), Some(occ.slots as f64));
            assert_eq!(sreg.gauge("dirty_len"), Some(occ.dirty as f64));
        }
        assert!(wheel_total > 0, "un-ACKed sends must arm wakeups");
        assert_eq!(
            rollup.gauge("wheel.pending_total"),
            Some(wheel_total as f64)
        );
        assert_eq!(rollup.gauge("slab.occupancy"), Some(1.0), "no freed slots");
        assert!(rollup.gauge("imbalance.assocs").unwrap() >= 1.0);

        // publish_rollup writes the same values under the prefix.
        let mut reg = ct_telemetry::MetricsRegistry::new();
        server.publish_rollup(&mut reg, "srv");
        assert_eq!(reg.counter("srv.assocs"), 18);
        assert_eq!(
            reg.gauge("srv.wheel.pending_total"),
            Some(wheel_total as f64)
        );
        let shard0 = server.shard_registry(0);
        assert_eq!(
            reg.counter("srv.shard0.polls"),
            shard0.counter("polls"),
            "per-shard table entries match the shard registry"
        );
    }

    #[test]
    fn batch_flush_writes_phase_histograms_and_attribution() {
        let tel = ct_telemetry::Telemetry::new();
        let mut server = AlfServer::new(ServerConfig::default());
        server.attach_telemetry(tel.clone());
        let k = key(3, 1);
        server.add_association(k, AlfConfig::default()).unwrap();
        server
            .send_adu(k, AduName::Seq { index: 0 }, payload(2000))
            .unwrap();
        let mut egress = Vec::new();
        while server.pending_work() {
            if server.poll_batch(SimTime::ZERO, &mut egress).idle() {
                break;
            }
        }
        assert!(!egress.is_empty());
        let reg = tel.metrics();
        for phase in [
            "server.phase.ingest_frames",
            "server.phase.timer_fires",
            "server.phase.dirty_polls",
            "server.phase.flush_egress",
        ] {
            let h = reg.histogram(phase).unwrap_or_else(|| panic!("{phase}"));
            assert_eq!(h.count(), server.batches(), "one sample per batch");
        }
        let slow = reg.histogram("server.batch.slowest_assoc_work").unwrap();
        assert!(slow.count() > 0 && slow.max() > 0);
        assert_eq!(reg.counter("server.stuck_assocs"), 0);
    }

    #[test]
    fn watchdog_flags_stalled_association_once_per_episode() {
        let tel = ct_telemetry::Telemetry::with_tracing(256);
        let mut server = AlfServer::new(ServerConfig {
            stuck_deadline: SimDuration::from_millis(100),
            ..ServerConfig::default()
        });
        server.attach_telemetry(tel.clone());
        let k = key(9, 2);
        server.add_association(k, AlfConfig::default()).unwrap();
        // An un-ACKed send with no peer: retransmission timers keep firing
        // the association dirty, but delivery never progresses.
        server
            .send_adu(k, AduName::Seq { index: 0 }, payload(500))
            .unwrap();
        let mut egress = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            while server.pending_work() || server.next_wakeup().is_some_and(|w| w <= now) {
                if server.poll_batch(now, &mut egress).idle() {
                    break;
                }
            }
            egress.clear();
            match server.next_wakeup() {
                Some(w) => now = now.max(w),
                None => break,
            }
            if now.as_nanos() > 2_000_000_000 {
                break;
            }
        }
        let stuck = tel.metrics().counter("server.stuck_assocs");
        assert_eq!(stuck, 1, "flag once per episode, not once per poll");
        assert!(
            tel.trace_events().iter().any(|e| e.kind == "assoc_stuck"),
            "watchdog must leave a flight-recorder event"
        );
    }

    #[test]
    fn mem_accounting_scales_with_associations() {
        let mut server = AlfServer::new(ServerConfig::default());
        let empty = server.approx_mem_bytes();
        for i in 0..100u64 {
            server
                .add_association(key(i, 1), AlfConfig::default())
                .unwrap();
        }
        let loaded = server.approx_mem_bytes();
        assert!(loaded > empty);
        let per_assoc = (loaded - empty) / 100;
        assert!(
            per_assoc < 64 * 1024,
            "idle association should cost well under 64 KiB, got {per_assoc}"
        );
    }
}
