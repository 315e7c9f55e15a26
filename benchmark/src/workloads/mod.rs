//! The five workloads. Each is one function that sets a world up, warms it,
//! and drives a fixed, seeded number of ops through it in a closed loop —
//! the stack's own windows are the clients. A run repeats that *round* until
//! the measured phases add up to `--seconds`.
//!
//! The drive loops here are modelled on `alf_core::driver`,
//! `ct_server::cluster` and `ct_transport::stack`, but call none of them:
//! every call into a layer's public API has to be a boundary this package
//! can time from outside.

pub mod bulk_pair;
pub mod layered_bulk;
pub mod lossy_pair;
pub mod pair;
pub mod rpc_pair;
pub mod server_fanin;

use crate::trace::{Span, Tracer};
use ct_netsim::time::SimTime;
use std::time::Instant;

/// What a round is given.
#[derive(Debug, Clone)]
pub struct Params {
    /// Generates every input.
    pub seed: u64,
    /// Multiplies every op count (1.0 in real runs; tests use 0.01).
    pub scale: f64,
    /// Attached to the network and endpoints in traced runs only.
    pub telemetry: Option<ct_telemetry::Telemetry>,
}

impl Params {
    /// `count` scaled, never below `floor`.
    pub fn scaled(&self, count: u64, floor: u64) -> u64 {
        ((count as f64 * self.scale).round() as u64).max(floor)
    }
}

/// Named counts read from the layers' public stats.
pub type Counts = Vec<(&'static str, f64)>;

/// `end - start`, name by name. High-water marks (`*peak*`, `*_max`) do not
/// subtract: the end value stands.
pub fn counts_delta(start: &Counts, end: &Counts) -> Counts {
    start
        .iter()
        .zip(end)
        .map(|(&(name, s), &(n2, e))| {
            assert_eq!(name, n2, "count lists differ");
            let high_water = name.contains("peak") || name.ends_with("_max");
            (name, if high_water { e } else { e - s })
        })
        .collect()
}

/// The value of `name` in `counts` (0 when the workload has no such layer).
pub fn count(counts: &Counts, name: &str) -> f64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// Add `alf-core.retx_ratio`: the share of released TUs that were not a
/// first transmission (`first_tus` is what the ops needed had nothing been
/// lost) — the transport's ratio of attempts to useful outcomes.
pub fn push_retx_ratio(round: &mut Round, first_tus: u64) {
    let sent = count(&round.counts, "alf-core.tus_sent");
    let ratio = if sent > 0.0 {
        (sent - first_tus as f64).max(0.0) / sent
    } else {
        0.0
    };
    round.counts.push(("alf-core.retx_ratio", ratio));
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall time to build the world and run the untimed warm-up.
    pub setup_s: f64,
    /// Wall time of the measured phase.
    pub wall_s: f64,
    /// Ops offered in the measured phase.
    pub offered: u64,
    /// Ops delivered and byte-verified.
    pub verified: u64,
    /// Verified application bytes.
    pub app_bytes: u64,
    /// Simulated time the measured phase took.
    pub sim_elapsed_ns: u64,
    /// `NetStats::bytes_sent`, both directions, measured phase.
    pub wire_bytes: u64,
    /// Per-op simulated latency, submit → consumed.
    pub sim_latency_ns: Vec<u64>,
    /// Per-op wall latency, submit → consumed.
    pub wall_latency_ns: Vec<u32>,
    /// Layer counts over the measured phase.
    pub counts: Counts,
    /// Allocator calls / bytes over the measured phase.
    pub allocs: u64,
    /// See `allocs`.
    pub alloc_bytes: u64,
}

/// A workload: its name, why it exists, and its round function.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Runs one round.
    pub round: fn(&Params, &mut Tracer) -> Round,
    /// Whether the link is paced below its capacity, so that any
    /// `congestion_drops` would mean the benchmark measures the wrong thing.
    pub paced: bool,
}

/// The workloads, in reporting order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "bulk_pair",
        round: bulk_pair::round,
        paced: true,
    },
    Workload {
        name: "rpc_pair",
        round: rpc_pair::round,
        paced: false,
    },
    Workload {
        name: "server_fanin",
        round: server_fanin::round,
        paced: false,
    },
    Workload {
        name: "lossy_pair",
        round: lossy_pair::round,
        paced: true,
    },
    Workload {
        name: "layered_bulk",
        round: layered_bulk::round,
        paced: false,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Tracks ops in flight and collects what their completion shows.
///
/// Op ids are consecutive, and at most `capacity` are in flight at once, so
/// a ring indexed by `op % capacity` holds every live submit stamp.
#[derive(Debug)]
pub struct Meter {
    ring: Vec<(Instant, SimTime)>,
    /// Ops consumed with the right bytes.
    pub verified: u64,
    /// Ops consumed with wrong bytes (or an unknown name).
    pub corrupt: u64,
    /// Bytes of the verified ops.
    pub app_bytes: u64,
    /// Per-op simulated latency.
    pub sim_latency_ns: Vec<u64>,
    /// Per-op wall latency.
    pub wall_latency_ns: Vec<u32>,
}

impl Meter {
    /// A meter for `ops` ops with at most `capacity` in flight.
    pub fn new(capacity: usize, ops: u64) -> Self {
        // Sample buffers are written once here so that their page faults are
        // paid in set-up, not one per 512 ops inside the measured phase.
        fn touched<T: Clone + Default>(n: usize) -> Vec<T> {
            let mut v = vec![T::default(); n];
            v.clear();
            v
        }
        Meter {
            ring: vec![(Instant::now(), SimTime::ZERO); capacity.next_power_of_two()],
            verified: 0,
            corrupt: 0,
            app_bytes: 0,
            sim_latency_ns: touched(ops as usize),
            wall_latency_ns: touched(ops as usize),
        }
    }

    /// The stack accepted op `op`.
    #[inline]
    pub fn submitted(&mut self, op: u64, sim_now: SimTime) {
        let slot = op as usize & (self.ring.len() - 1);
        self.ring[slot] = (Instant::now(), sim_now);
    }

    /// Op `op` reached the receiving application: the latency clocks stop.
    #[inline]
    pub fn arrived(&mut self, op: u64, sim_now: SimTime) {
        let (wall, sim) = self.ring[op as usize & (self.ring.len() - 1)];
        self.wall_latency_ns
            .push(wall.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        self.sim_latency_ns
            .push(sim_now.saturating_since(sim).as_nanos());
    }

    /// The byte check of an arrived op: `bytes` application bytes, right
    /// (`ok`) or wrong.
    #[inline]
    pub fn checked(&mut self, ok: bool, bytes: usize) {
        if ok {
            self.verified += 1;
            self.app_bytes += bytes as u64;
        } else {
            self.corrupt += 1;
        }
    }

    /// Ops consumed, right or wrong.
    pub fn consumed_count(&self) -> u64 {
        self.verified + self.corrupt
    }
}

/// Stamps taken when the measured phase starts, turned into a [`Round`] when
/// it ends.
pub struct Phase {
    wall: Instant,
    sim: SimTime,
    net: ct_netsim::trace::NetStats,
    counts: Counts,
    allocs: u64,
    alloc_bytes: u64,
}

impl Phase {
    /// Start the measured phase: opens the root span and reads the clock
    /// last, so nothing done here is inside the measurement.
    pub fn start(net: &ct_netsim::net::Network, counts: Counts, tr: &mut Tracer) -> Self {
        let phase = Phase {
            sim: net.now(),
            net: *net.stats(),
            counts,
            allocs: crate::alloc::allocs(),
            alloc_bytes: crate::alloc::alloc_bytes(),
            wall: Instant::now(),
        };
        tr.enter(Span::Run, None);
        phase
    }

    /// End it. `counts` is only called once the clock has been read.
    pub fn finish(
        self,
        net: &ct_netsim::net::Network,
        counts: impl FnOnce() -> Counts,
        setup_s: f64,
        offered: u64,
        meter: Meter,
        tr: &mut Tracer,
    ) -> Round {
        tr.exit(Span::Run);
        let wall_s = self.wall.elapsed().as_secs_f64();
        let (allocs, alloc_bytes) = (crate::alloc::allocs(), crate::alloc::alloc_bytes());
        let mut counts = counts_delta(&self.counts, &counts());
        let stats = net.stats();
        counts.push((
            "ct-netsim.frames_sent",
            (stats.frames_sent - self.net.frames_sent) as f64,
        ));
        counts.push((
            "ct-netsim.fault_drops",
            (stats.fault_drops - self.net.fault_drops) as f64,
        ));
        counts.push((
            "ct-netsim.congestion_drops",
            (stats.congestion_drops - self.net.congestion_drops) as f64,
        ));
        Round {
            setup_s,
            wall_s,
            offered,
            verified: meter.verified,
            app_bytes: meter.app_bytes,
            sim_elapsed_ns: net.now().saturating_since(self.sim).as_nanos(),
            wire_bytes: stats.bytes_sent - self.net.bytes_sent,
            sim_latency_ns: meter.sim_latency_ns,
            wall_latency_ns: meter.wall_latency_ns,
            counts,
            allocs: allocs - self.allocs,
            alloc_bytes: alloc_bytes - self.alloc_bytes,
        }
    }
}
