//! `lossy_pair` — the pair loop again, used differently: opaque 16 KiB ADUs
//! (12 TUs each, zero-copy views, no application pipeline) over a paced
//! gigabit link that drops 2 % and reorders 1 % of frames in both directions.
//!
//! Why: the same `alf-core` transport leaves its fast path — out-of-order
//! assembler inserts, fragment NACKs, selective retransmission, timers that
//! actually fire — so a fast-path gain bought at the recovery path's expense
//! shows here, and the simulated latency tail, goodput and wire overhead pin
//! protocol behaviour exactly.

use super::pair::{paced, transfer_round, Pair, TransferApp};
use super::{Params, Round};
use crate::gen;
use crate::trace::{Span, Tracer};
use alf_core::transport::AlfConfig;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::time::SimDuration;
use ct_wire::WireBuf;

/// ADUs per measured round at scale 1 (≈ 1 s here).
pub const OPS_PER_ROUND: u64 = 60_000;
/// Bytes per ADU.
pub const ADU_BYTES: usize = 16 * 1024;
/// The seeded pool every payload is a view into (larger than L2).
pub const POOL_BYTES: usize = 4 << 20;

/// Where in the pool op `op`'s payload starts.
fn offset(seed: u64, op: u64) -> usize {
    (gen::mix(seed ^ gen::mix(op)) % (POOL_BYTES - ADU_BYTES) as u64) as usize
}

struct App {
    seed: u64,
    pool: WireBuf,
}

impl TransferApp for App {
    fn produce(&mut self, op: u64, tr: &mut Tracer) -> WireBuf {
        tr.span(Span::Gen, Some(op), || {
            let off = offset(self.seed, op);
            self.pool.slice(off..off + ADU_BYTES)
        })
    }

    fn consume(&mut self, op: u64, payload: &WireBuf, tr: &mut Tracer) -> bool {
        tr.span(Span::Verify, Some(op), || {
            let off = offset(self.seed, op);
            payload.as_slice() == &self.pool.as_slice()[off..off + ADU_BYTES]
        })
    }
}

/// One round.
pub fn round(p: &Params, tr: &mut Tracer) -> Round {
    let setup = std::time::Instant::now();
    let link = LinkConfig::gigabit();
    let faults = FaultConfig {
        drop: 0.02,
        reorder: 0.01,
        reorder_delay: SimDuration::from_micros(200),
        ..FaultConfig::none()
    };
    // A full window queued behind the pacer (8 ADUs x 12 TUs x 12 us = 1.2 ms)
    // must drain within `assembly_timeout`: a retransmitted fragment joins
    // the back of that queue, and if it arrives after the round that asked
    // for it has expired, the receiver asks again and the retries run out
    // (at window 24, 10 % of TUs were retransmissions and ADUs were lost).
    let cfg = paced(
        AlfConfig {
            mtu_payload: 1400,
            window_adus: 8,
            retransmit_timeout: SimDuration::from_millis(5),
            assembly_timeout: SimDuration::from_millis(2),
            nack_frag_rounds: 3,
            max_retries: 10,
            ..AlfConfig::default()
        },
        &link,
    );
    let mut app = App {
        seed: p.seed,
        pool: WireBuf::from_vec(gen::bytes(p.seed, 2, POOL_BYTES)),
    };
    let pair = Pair::new(p.seed, link, faults, cfg, p.telemetry.as_ref());
    let ops = p.scaled(OPS_PER_ROUND, 128);
    transfer_round(pair, &mut app, ops, ADU_BYTES, setup, tr)
}
