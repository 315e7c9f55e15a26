//! `bulk_pair` — one association moving 64 KiB `u32` records through the
//! fused send and receive pipelines over a clean, paced gigabit link.
//!
//! Why: the byte-touching kernels (`ct-wire` fused encode/verify/gather,
//! `ct-crypto`, the ILP loop) do most of the work and per-frame control
//! little — the paper's "manipulation dominates" regime, and where kernel
//! work must show.

use super::pair::{paced, transfer_round, Pair, TransferApp};
use super::{Params, Round};
use crate::gen;
use crate::trace::{Span, Tracer};
use alf_core::pipeline::{Manipulation, Pipeline};
use alf_core::transport::AlfConfig;
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_wire::WireBuf;

/// ADUs per measured round at scale 1 (≈ 1 s here).
pub const OPS_PER_ROUND: u64 = 8_000;
/// Seeded source arrays; 64 × 64 KiB = 4 MiB, larger than L2.
pub const SOURCES: usize = 64;
/// `u32`s per record.
pub const RECORD_WORDS: usize = 16_384;
/// Bytes per record.
pub const RECORD_BYTES: usize = RECORD_WORDS * 4;
/// Both ends hold the cipher key out of band.
pub const KEY: u64 = 0x0C1A_12C3;

/// The 64 source records as host (little-endian) byte images.
pub fn sources(seed: u64) -> Vec<Vec<u8>> {
    gen::u32_arrays(seed, 1, SOURCES, RECORD_WORDS)
        .iter()
        .map(|w| gen::le_bytes(w))
        .collect()
}

struct App {
    sources: Vec<Vec<u8>>,
}

impl TransferApp for App {
    fn produce(&mut self, op: u64, tr: &mut Tracer) -> WireBuf {
        let src = &self.sources[op as usize % SOURCES];
        // Host order → network order → ciphertext, checksummed: one pass.
        let chain = tr.span(Span::Gen, Some(op), || {
            Pipeline::new()
                .stage(Manipulation::Swap32)
                .stage(Manipulation::Xor {
                    key: KEY,
                    offset: op * RECORD_BYTES as u64,
                })
                .stage(Manipulation::Checksum)
        });
        let out = tr.span(Span::PipelineTx, Some(op), || chain.run_integrated(src));
        WireBuf::from_vec(out.data)
    }

    fn consume(&mut self, op: u64, payload: &WireBuf, tr: &mut Tracer) -> bool {
        let chain = tr.span(Span::Gen, Some(op), || {
            Pipeline::new()
                .stage(Manipulation::Checksum)
                .stage(Manipulation::Xor {
                    key: KEY,
                    offset: op * RECORD_BYTES as u64,
                })
                .stage(Manipulation::Swap32)
                .stage(Manipulation::Copy)
        });
        let out = tr.span(Span::PipelineRx, Some(op), || {
            chain.run_integrated(payload.as_slice())
        });
        tr.span(Span::Verify, Some(op), || {
            out.data == self.sources[op as usize % SOURCES]
        })
    }
}

/// One round.
pub fn round(p: &Params, tr: &mut Tracer) -> Round {
    let setup = std::time::Instant::now();
    let link = LinkConfig::gigabit();
    let cfg = paced(
        AlfConfig {
            mtu_payload: 8192,
            window_adus: 16,
            ..AlfConfig::default()
        },
        &link,
    );
    let mut app = App {
        sources: sources(p.seed),
    };
    let pair = Pair::new(p.seed, link, FaultConfig::none(), cfg, p.telemetry.as_ref());
    let ops = p.scaled(OPS_PER_ROUND, 32);
    transfer_round(pair, &mut app, ops, RECORD_BYTES, setup, tr)
}
