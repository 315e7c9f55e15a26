//! The ILP pipeline: manipulation chains with layered or integrated execution.
//!
//! A [`Pipeline`] is an ordered chain of [`Manipulation`] stages applied to
//! one data unit (an ADU in stage-2 receive processing). It can execute two
//! ways:
//!
//! * [`Pipeline::run_layered`] — the conventional engineering: one full
//!   memory pass per stage, materialising an intermediate buffer between
//!   stages. N stages ⇒ N traversals (reads *and* writes).
//! * [`Pipeline::run_integrated`] — the ILP engineering: a single traversal
//!   of memory in which each L1-sized tile passes through the whole chain
//!   while it is cache-resident. N stages ⇒ 1 traversal.
//!
//! The two are **bit-identical by construction and by property test**: the
//! integrated loop is an implementation option, exactly as §6 frames it
//! ("ILP is just an engineering principle, to be applied only when useful").
//!
//! Stage semantics are order-sensitive — a `Checksum` stage observes the
//! data *as transformed by the stages before it* — which is how the
//! pipeline expresses both "checksum the ciphertext" (checksum before
//! decrypt) and "checksum the plaintext" (checksum after decrypt).
//!
//! [`Pipeline::check_alf_compatible`] is the ordering-constraint analysis of
//! §6: a chain containing a stage whose [`OrderingConstraint`] forbids
//! out-of-order units (e.g. a cipher chained across units) cannot be used as
//! an ALF stage-2 processor, and the library says so at configuration time
//! rather than corrupting data at run time.

use ct_crypto::stream::XorStream;
use ct_crypto::OrderingConstraint;
use ct_wire::checksum::InternetChecksum;

/// One data-manipulation stage.
#[derive(Debug, Clone)]
pub enum Manipulation {
    /// Fold the Internet checksum of the data *at this point in the chain*
    /// into the output checksum list. Reads every byte, writes none.
    Checksum,
    /// XOR with a seekable keystream ([`XorStream`]) starting at stream
    /// position `offset` (typically the unit's byte offset in the
    /// association). Reads and writes every byte.
    Xor {
        /// Cipher key.
        key: u64,
        /// Keystream position of this unit's first byte.
        offset: u64,
    },
    /// Byte-swap each aligned 32-bit word (the minimal presentation
    /// conversion). The tail (len % 4) passes through unswapped.
    Swap32,
    /// An explicit copy (models "moving to/from application address space"
    /// when run layered; free when integrated, which is the point).
    Copy,
}

impl Manipulation {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Manipulation::Checksum => "checksum",
            Manipulation::Xor { .. } => "xor",
            Manipulation::Swap32 => "swap32",
            Manipulation::Copy => "copy",
        }
    }

    /// The ordering constraint this stage imposes across data units.
    pub fn constraint(&self) -> OrderingConstraint {
        match self {
            // All four are position-pure: unit processing order is free.
            Manipulation::Checksum
            | Manipulation::Xor { .. }
            | Manipulation::Swap32
            | Manipulation::Copy => OrderingConstraint::Seekable,
        }
    }
}

/// The result of running a pipeline over one unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineOutput {
    /// The transformed data.
    pub data: Vec<u8>,
    /// One checksum per `Checksum` stage, in chain order.
    pub checksums: Vec<u16>,
}

/// Errors from pipeline construction / compatibility checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A stage's ordering constraint forbids out-of-order unit processing,
    /// so the pipeline cannot serve as an ALF stage-2 processor.
    OrderConflict {
        /// Index of the offending stage.
        stage: usize,
        /// The stage's constraint.
        constraint: OrderingConstraint,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::OrderConflict { stage, constraint } => write!(
                f,
                "stage {stage} imposes {constraint:?}, which forbids out-of-order ADU processing"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// An ordered chain of manipulations over one data unit.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    stages: Vec<Manipulation>,
}

impl Pipeline {
    /// An empty pipeline (identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a stage (builder style).
    pub fn stage(mut self, m: Manipulation) -> Self {
        self.stages.push(m);
        self
    }

    /// The stages in order.
    pub fn stages(&self) -> &[Manipulation] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the pipeline is the identity.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Verify every stage permits out-of-order unit processing — required
    /// before installing this pipeline as an ALF stage-2 processor. Also
    /// verify constraints from externally supplied stages (e.g. a chained
    /// cipher wrapper) passed in `extra`.
    ///
    /// # Errors
    /// [`PipelineError::OrderConflict`] naming the first offending stage.
    pub fn check_alf_compatible(&self, extra: &[OrderingConstraint]) -> Result<(), PipelineError> {
        for (i, s) in self.stages.iter().enumerate() {
            if !s.constraint().allows_out_of_order_units() {
                return Err(PipelineError::OrderConflict {
                    stage: i,
                    constraint: s.constraint(),
                });
            }
        }
        for (i, c) in extra.iter().enumerate() {
            if !c.allows_out_of_order_units() {
                return Err(PipelineError::OrderConflict {
                    stage: self.stages.len() + i,
                    constraint: *c,
                });
            }
        }
        Ok(())
    }

    /// Execute conventionally: one full memory pass per stage, with an
    /// intermediate buffer materialised between stages.
    pub fn run_layered(&self, input: &[u8]) -> PipelineOutput {
        self.layered(input, None)
    }

    /// [`Pipeline::run_layered`] with every memory pass reported to the
    /// data-touch ledger: the initial move as stage `pipeline/move`, then
    /// one entry per manipulation (`wire/checksum`, `crypto/xor`,
    /// `wire/swap32`, `wire/copy`). For the canonical N-stage receive chain
    /// this books `1 + N` traversals — the number
    /// [`Pipeline::layered_passes`] predicts and experiment X9 tabulates.
    pub fn run_layered_ledgered(
        &self,
        input: &[u8],
        ledger: &ct_telemetry::TouchLedger,
    ) -> PipelineOutput {
        self.layered(input, Some(ledger))
    }

    /// The layered stage loop. Every pass traverses all `input.len()`
    /// bytes, so each ledger entry is that many reads and (but for the
    /// read-only checksum) that many writes.
    fn layered(&self, input: &[u8], ledger: Option<&ct_telemetry::TouchLedger>) -> PipelineOutput {
        let len = input.len() as u64;
        let touch = |stage, writes| {
            if let Some(l) = ledger {
                l.touch(stage, len, writes);
            }
        };
        let mut data = input.to_vec(); // the unavoidable first move
        touch("pipeline/move", len);
        let mut checksums = Vec::new();
        for s in &self.stages {
            match s {
                Manipulation::Checksum => {
                    // A dedicated read-only pass (the production kernel — the
                    // layered baseline is competently implemented).
                    checksums.push(ct_wire::checksum::internet_checksum(&data));
                    touch("wire/checksum", 0);
                }
                Manipulation::Xor { key, offset } => {
                    // A dedicated read-write pass into a fresh buffer
                    // (layered implementations move between layer buffers).
                    let cipher = XorStream::new(*key);
                    let mut out = vec![0u8; data.len()];
                    cipher.apply(*offset, &data, &mut out);
                    data = out;
                    touch("crypto/xor", len);
                }
                Manipulation::Swap32 => {
                    let mut out = vec![0u8; data.len()];
                    ct_wire::swap::swap32_copy(&data, &mut out);
                    data = out;
                    touch("wire/swap32", len);
                }
                Manipulation::Copy => {
                    let mut out = vec![0u8; data.len()];
                    ct_wire::copy::copy_bytes(&data, &mut out);
                    data = out;
                    touch("wire/copy", len);
                }
            }
        }
        PipelineOutput { data, checksums }
    }

    /// Execute integrated: one traversal of memory, whatever the chain.
    /// Bit-identical to [`Pipeline::run_layered`].
    ///
    /// The input is walked in 4 KiB tiles. Stages that only read a tile do
    /// so in `input`; the first that writes moves it into the output as it
    /// goes, and the rest run over it in place while it sits in L1. An `Xor`
    /// goes further and carries the `Checksum` and `Swap32` stages next to
    /// it through its own registers (`hosted_run` below): the paper's "holding
    /// the data in cache or registers". Whatever the chain depth that is
    /// `len` reads + `len` writes — what a caller books in the data-touch
    /// ledger as `pipeline/integrated`, and that constancy is the ILP claim.
    pub fn run_integrated(&self, input: &[u8]) -> PipelineOutput {
        let n_checksums = self
            .stages
            .iter()
            .filter(|s| matches!(s, Manipulation::Checksum))
            .count();
        // Each entry is the checksum of the tiles so far (0xFFFF: of none).
        let mut checksums = vec![0xFFFFu16; n_checksums];
        let mut data = Vec::with_capacity(input.len());
        for src in input.chunks(TILE) {
            // TILE is a multiple of 16, so every tile but the last is whole
            // hosted pairs and starts on a Swap32 and a checksum word.
            let start = data.len();
            // The first stage that writes moves the tile, into a place
            // zeroed as late as possible: an L1 pass here, a pass over the
            // whole output if done up front.
            data.resize(start + src.len(), 0);
            let (pos, tile) = (start as u64, &mut data[start..]);
            let (mut src, mut at, mut ck_at) = (Some(src), 0, 0);
            while at < self.stages.len() {
                // An `Xor` takes its riders along over the `done` bytes its
                // pass can host; anything else is one stage, hosting none.
                let (n, host) = hosted_run(&self.stages[at..]);
                let (done, sums) =
                    host.map_or_else(Default::default, |(riders, cipher, offset)| {
                        cipher.apply_hosting(offset.wrapping_add(pos), riders, src.take(), tile)
                    });
                // Then each stage as a pass of its own over the rest: a
                // run's ragged end, or all of it off the keystream block.
                let rest = &mut tile[done..];
                let mut side = 0; // of the run's `Xor`: sums[0] before, sums[1] after
                for stage in &self.stages[at..at + n] {
                    match stage {
                        Manipulation::Checksum => {
                            // Resume from the running checksum's complement.
                            let mut sum = InternetChecksum::new();
                            sum.update_u16(!checksums[ck_at]);
                            sum.update_u16(sums[side].sum());
                            sum.update(src.unwrap_or(rest));
                            checksums[ck_at] = sum.finish();
                            ck_at += 1;
                        }
                        Manipulation::Xor { key, offset } => {
                            let offset = offset.wrapping_add(pos + done as u64);
                            XorStream::new(*key).apply_in_place(offset, rest);
                            side = 1;
                        }
                        Manipulation::Swap32 => match src.take() {
                            Some(src) => ct_wire::swap::swap32_copy(src, rest),
                            None => ct_wire::swap::swap32_in_place(rest),
                        },
                        // Moving the tile is some other stage's by-product.
                        Manipulation::Copy => {}
                    }
                }
                at += n;
            }
            // No stage wrote: the tile is still to be moved.
            if let Some(src) = src {
                tile.copy_from_slice(src);
            }
        }
        PipelineOutput { data, checksums }
    }

    /// Number of memory passes the layered execution makes (for reports):
    /// the initial move plus one per stage.
    pub fn layered_passes(&self) -> usize {
        1 + self.stages.len()
    }
}

/// An `Xor` stage and the neighbours its keystream pass hosts: the maximal
/// run `[Checksum]? [Swap32]? Xor [Swap32]? [Checksum]?` at the head of
/// `stages`, with `Copy` free anywhere — stage adjacency, not a list of
/// known chains. Returns how many stages the run spans (one if no `Xor`
/// hosts it) and, if hosted, its riders in chain order, cipher and offset.
fn hosted_run(stages: &[Manipulation]) -> (usize, Option<([bool; 4], XorStream, u64)>) {
    use Manipulation::{Checksum, Copy, Swap32, Xor};
    let mut it = stages.iter().enumerate().peekable();
    let mut n = 1;
    // Step over the next stage if it is the one the run may hold here.
    let mut take = |fits: fn(&Manipulation) -> bool| {
        while it.next_if(|(_, s)| matches!(s, Copy)).is_some() {}
        let (i, stage) = it.next_if(|(_, s)| fits(s))?;
        n = i + 1;
        Some(stage)
    };
    let sum_in = take(|s| matches!(s, Checksum)).is_some();
    let swap_in = take(|s| matches!(s, Swap32)).is_some();
    let Some(&Xor { key, offset }) = take(|s| matches!(s, Xor { .. })) else {
        return (1, None);
    };
    let swap_out = take(|s| matches!(s, Swap32)).is_some();
    let sum_out = take(|s| matches!(s, Checksum)).is_some();
    let riders = [sum_in, swap_in, swap_out, sum_out];
    (n, Some((riders, XorStream::new(key), offset)))
}

/// Bytes per tile of [`Pipeline::run_integrated`]: small enough that a tile
/// and the kernels' working state stay in L1 across every stage, large
/// enough that per-tile dispatch is noise.
const TILE: usize = 4096;

/// Convenience: the canonical receive chain the X2 experiment sweeps —
/// `checksum → xor-decrypt → swap32 → copy`, truncated to `n` stages.
pub fn canonical_receive_chain(n: usize, key: u64) -> Pipeline {
    let all = [
        Manipulation::Checksum,
        Manipulation::Xor { key, offset: 0 },
        Manipulation::Swap32,
        Manipulation::Copy,
    ];
    let mut p = Pipeline::new();
    for m in all.into_iter().take(n) {
        p = p.stage(m);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i.wrapping_mul(197) ^ (i >> 2)) as u8)
            .collect()
    }

    const LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 4000, 4001, 4002, 4003];

    #[test]
    fn empty_pipeline_is_identity() {
        let p = Pipeline::new();
        let input = pattern(100);
        let lay = p.run_layered(&input);
        let int = p.run_integrated(&input);
        assert_eq!(lay.data, input);
        assert_eq!(int.data, input);
        assert!(lay.checksums.is_empty());
    }

    #[test]
    fn integrated_equals_layered_canonical_chains() {
        for n in 0..=4 {
            let p = canonical_receive_chain(n, 0xFEED);
            for &len in LENS {
                let input = pattern(len);
                let lay = p.run_layered(&input);
                let int = p.run_integrated(&input);
                assert_eq!(int, lay, "n={n} len={len}");
            }
        }
    }

    #[test]
    fn checksum_position_matters() {
        // checksum-then-xor observes ciphertext; xor-then-checksum observes
        // plaintext. They must differ (and each must match layered).
        let input = pattern(256);
        let pre = Pipeline::new()
            .stage(Manipulation::Checksum)
            .stage(Manipulation::Xor { key: 9, offset: 0 });
        let post = Pipeline::new()
            .stage(Manipulation::Xor { key: 9, offset: 0 })
            .stage(Manipulation::Checksum);
        let a = pre.run_integrated(&input);
        let b = post.run_integrated(&input);
        assert_eq!(a.data, b.data, "same transformation either way");
        assert_ne!(a.checksums[0], b.checksums[0]);
        assert_eq!(a, pre.run_layered(&input));
        assert_eq!(b, post.run_layered(&input));
    }

    #[test]
    fn double_checksum_chain() {
        // Ciphertext checksum AND plaintext checksum in one pipeline.
        let p = Pipeline::new()
            .stage(Manipulation::Checksum)
            .stage(Manipulation::Xor { key: 4, offset: 16 })
            .stage(Manipulation::Checksum);
        let input = pattern(1000);
        let lay = p.run_layered(&input);
        let int = p.run_integrated(&input);
        assert_eq!(lay, int);
        assert_eq!(lay.checksums.len(), 2);
        assert_ne!(lay.checksums[0], lay.checksums[1]);
    }

    #[test]
    fn double_swap_is_identity_on_aligned() {
        let p = Pipeline::new()
            .stage(Manipulation::Swap32)
            .stage(Manipulation::Swap32);
        let input = pattern(64);
        assert_eq!(p.run_integrated(&input).data, input);
    }

    #[test]
    fn xor_offset_respected() {
        let input = pattern(128);
        let p0 = Pipeline::new().stage(Manipulation::Xor { key: 1, offset: 0 });
        let p9 = Pipeline::new().stage(Manipulation::Xor { key: 1, offset: 9 });
        assert_ne!(
            p0.run_integrated(&input).data,
            p9.run_integrated(&input).data
        );
        assert_eq!(p9.run_integrated(&input), p9.run_layered(&input));
    }

    /// `Xor { offset }` is application-supplied and the stream position is
    /// mod 2^64: a record straddling `u64::MAX` (here, across a tile seam
    /// too) must neither panic nor diverge.
    #[test]
    fn xor_offset_wraps_at_u64_max() {
        let input = pattern(2 * TILE + 5);
        for offset in [u64::MAX, u64::MAX - 3, u64::MAX - TILE as u64 - 2] {
            let p = Pipeline::new()
                .stage(Manipulation::Swap32)
                .stage(Manipulation::Xor { key: 3, offset })
                .stage(Manipulation::Checksum);
            let enc = p.run_integrated(&input);
            assert_eq!(enc, p.run_layered(&input), "offset {offset}");
            let back = Pipeline::new()
                .stage(Manipulation::Xor { key: 3, offset })
                .stage(Manipulation::Swap32)
                .run_integrated(&enc.data);
            assert_eq!(back.data, input, "offset {offset}");
        }
    }

    /// `[Checksum]? [Swap32]? Xor [Swap32]? [Checksum]?` for one of the 16
    /// rider combinations (bit 0: the leading checksum ... bit 3: the
    /// trailing one).
    fn hosted_chain(riders: u8, offset: u64) -> Pipeline {
        let stages = [
            (riders & 1 != 0, Manipulation::Checksum),
            (riders & 2 != 0, Manipulation::Swap32),
            (
                true,
                Manipulation::Xor {
                    key: 0xFEED,
                    offset,
                },
            ),
            (riders & 4 != 0, Manipulation::Swap32),
            (riders & 8 != 0, Manipulation::Checksum),
        ];
        stages
            .into_iter()
            .filter(|(riding, _)| *riding)
            .fold(Pipeline::new(), |p, (_, stage)| p.stage(stage))
    }

    /// Every instantiation of the hosted kernel against the layered passes:
    /// all 16 rider combinations, at every alignment of the cipher offset
    /// with the keystream block (only `% 8 == 0` is hosted) and of the
    /// length with the 16-byte pair, across tile seams, and with the 2^64
    /// wrap at, inside and just past the unit.
    #[test]
    fn every_rider_combination_equals_layered() {
        let lens = (0..=100).chain(4095..=4097).chain([65_536]);
        let input = pattern(65_536);
        let near_wrap = [0u64, 7, 8, 15, 16, 100, 4096, 65_535].map(|back| u64::MAX - back);
        let offsets: Vec<u64> = (0..8).chain(near_wrap).collect();
        for len in lens {
            for &offset in &offsets {
                for riders in 0..16 {
                    let p = hosted_chain(riders, offset);
                    assert_eq!(
                        p.run_integrated(&input[..len]),
                        p.run_layered(&input[..len]),
                        "riders {riders:#06b} len {len} offset {offset}"
                    );
                }
            }
        }
    }

    /// The grouping is stage adjacency: riders attach to the nearest `Xor`,
    /// a chain may hold several runs, and what is not next to an `Xor`
    /// stays a pass of its own.
    #[test]
    fn hosted_runs_are_found_by_adjacency() {
        use Manipulation::{Checksum, Copy, Swap32};
        let xor = Manipulation::Xor { key: 1, offset: 8 };
        let spans = |stages: &[Manipulation]| {
            let (mut at, mut spans) = (0, Vec::new());
            while at < stages.len() {
                let (n, _) = hosted_run(&stages[at..]);
                spans.push(n);
                at += n;
            }
            spans
        };
        assert_eq!(spans(&[Swap32, xor.clone(), Checksum]), [3]);
        assert_eq!(spans(&[Checksum, xor.clone(), Swap32, Copy]), [3, 1]);
        assert_eq!(spans(&[Checksum, Copy, Swap32, Copy, xor.clone()]), [5]);
        // Swap-then-sum is not a hosted order: the swap stands alone.
        assert_eq!(spans(&[Swap32, Checksum, xor.clone()]), [1, 2]);
        // Two runs; the stage between two `Xor`s rides with the first.
        assert_eq!(
            spans(&[xor.clone(), Checksum, Swap32, xor.clone(), Swap32]),
            [2, 3]
        );
        assert_eq!(spans(&[xor.clone(), Swap32, xor.clone()]), [2, 1]);
        assert_eq!(spans(&[Checksum, Swap32, Checksum, Copy]), [1, 1, 1, 1]);
    }

    /// The two chains `benchmark/`'s `bulk_pair` runs, on its 64 KiB
    /// record: the receive chain undoes the send chain, and both checksums
    /// are the ciphertext's.
    #[test]
    fn bulk_pair_chains_round_trip() {
        let record = pattern(65_536);
        let (key, offset) = (0x5EED, 3 * 65_536);
        let tx = Pipeline::new()
            .stage(Manipulation::Swap32)
            .stage(Manipulation::Xor { key, offset })
            .stage(Manipulation::Checksum);
        let rx = Pipeline::new()
            .stage(Manipulation::Checksum)
            .stage(Manipulation::Xor { key, offset })
            .stage(Manipulation::Swap32)
            .stage(Manipulation::Copy);
        let sent = tx.run_integrated(&record);
        assert_eq!(sent, tx.run_layered(&record));
        let received = rx.run_integrated(&sent.data);
        assert_eq!(received, rx.run_layered(&sent.data));
        assert_eq!(received.data, record);
        assert_eq!(received.checksums, sent.checksums);
    }

    #[test]
    fn alf_compat_accepts_seekable_chain() {
        let p = canonical_receive_chain(4, 1);
        assert!(p.check_alf_compatible(&[]).is_ok());
        assert!(p
            .check_alf_compatible(&[OrderingConstraint::ChainedWithinUnit])
            .is_ok());
    }

    #[test]
    fn alf_compat_rejects_cross_unit_chaining() {
        let p = canonical_receive_chain(2, 1);
        let err = p
            .check_alf_compatible(&[OrderingConstraint::ChainedAcrossUnits])
            .unwrap_err();
        assert_eq!(
            err,
            PipelineError::OrderConflict {
                stage: 2,
                constraint: OrderingConstraint::ChainedAcrossUnits
            }
        );
        assert!(err.to_string().contains("out-of-order"));
        let err2 = p
            .check_alf_compatible(&[OrderingConstraint::Stream])
            .unwrap_err();
        assert!(matches!(err2, PipelineError::OrderConflict { .. }));
    }

    #[test]
    fn layered_pass_count() {
        assert_eq!(Pipeline::new().layered_passes(), 1);
        assert_eq!(canonical_receive_chain(4, 0).layered_passes(), 5);
    }

    #[test]
    fn ledgered_runs_match_plain_and_account_passes() {
        let input = pattern(1024);
        for n in 1..=4 {
            let p = canonical_receive_chain(n, 0xFEED);
            let lay_ledger = ct_telemetry::TouchLedger::new();
            let int_ledger = ct_telemetry::TouchLedger::new();
            let lay = p.run_layered_ledgered(&input, &lay_ledger);
            let int = p.run_integrated(&input);
            int_ledger.touch(
                "pipeline/integrated",
                input.len() as u64,
                int.data.len() as u64,
            );
            assert_eq!(lay, p.run_layered(&input), "n={n}");
            assert_eq!(int, p.run_integrated(&input), "n={n}");
            lay_ledger.deliver(input.len() as u64);
            int_ledger.deliver(input.len() as u64);
            // Layered: initial move (r+w) + checksum (r) + (n-1) r+w stages.
            let expect_lay = 2.0 + 1.0 + (n as f64 - 1.0) * 2.0;
            assert!(
                (lay_ledger.passes_per_delivered_byte() - expect_lay).abs() < 1e-9,
                "n={n} layered {}",
                lay_ledger.passes_per_delivered_byte()
            );
            // Integrated: always exactly one read + one write pass.
            assert!(
                (int_ledger.passes_per_delivered_byte() - 2.0).abs() < 1e-9,
                "n={n} integrated {}",
                int_ledger.passes_per_delivered_byte()
            );
            assert!(
                int_ledger.passes_per_delivered_byte() < lay_ledger.passes_per_delivered_byte(),
                "integrated strictly fewer at n={n}"
            );
        }
    }

    #[test]
    fn stage_names() {
        let p = canonical_receive_chain(4, 0);
        let names: Vec<_> = p.stages().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["checksum", "xor", "swap32", "copy"]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_stage() -> impl Strategy<Value = Manipulation> {
        prop_oneof![
            Just(Manipulation::Checksum),
            (any::<u64>(), arb_offset())
                .prop_map(|(key, offset)| Manipulation::Xor { key, offset }),
            Just(Manipulation::Swap32),
            Just(Manipulation::Copy),
        ]
    }

    /// Cipher offsets: any at all (7 in 8 are off the keystream block, so
    /// the run takes the separate passes), block-aligned ones (hosted), and
    /// ones that put the 2^64 wrap inside the unit.
    fn arb_offset() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            any::<u64>().prop_map(|o| o & !7),
            (0u64..3 * TILE as u64).prop_map(|back| u64::MAX - back),
            (0u64..3 * TILE as u64).prop_map(|back| (u64::MAX - back) & !7),
        ]
    }

    /// An `Xor` flanked by at least one `Swap32`/`Checksum` rider.
    fn arb_hosted_run() -> impl Strategy<Value = Vec<Manipulation>> {
        (1u8..16, any::<u64>(), arb_offset()).prop_map(|(riders, key, offset)| {
            let stages = [
                (riders & 1 != 0, Manipulation::Checksum),
                (riders & 2 != 0, Manipulation::Swap32),
                (true, Manipulation::Xor { key, offset }),
                (riders & 4 != 0, Manipulation::Swap32),
                (riders & 8 != 0, Manipulation::Checksum),
            ];
            let run = stages.into_iter().filter(|(riding, _)| *riding);
            run.map(|(_, stage)| stage).collect()
        })
    }

    /// Chains: a third anything, a third around one hosted run, a third
    /// around two.
    fn arb_chain() -> impl Strategy<Value = Vec<Manipulation>> {
        let filler = || proptest::collection::vec(arb_stage(), 0..3);
        prop_oneof![
            proptest::collection::vec(arb_stage(), 0..6),
            (filler(), arb_hosted_run(), filler()).prop_map(|(a, run, b)| [a, run, b].concat()),
            (arb_hosted_run(), filler(), arb_hosted_run())
                .prop_map(|(run, a, other)| [run, a, other].concat()),
        ]
    }

    proptest! {
        /// Inputs span zero to three tiles and a ragged end, so tile seams,
        /// an odd final tile and the `len % 4` unswapped tail are crossed;
        /// two chains in three hold an `Xor` with riders (see `arb_chain`,
        /// `arb_offset`).
        #[test]
        fn prop_integrated_equals_layered(
            stages in arb_chain(),
            input in proptest::collection::vec(any::<u8>(), 0..3 * TILE + 8),
        ) {
            let mut p = Pipeline::new();
            for s in stages {
                p = p.stage(s);
            }
            prop_assert_eq!(p.run_integrated(&input), p.run_layered(&input));
        }
    }
}
