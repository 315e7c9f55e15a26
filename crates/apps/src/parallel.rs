//! The §7 parallel-processor example: ADUs self-route to processor shards.
//!
//! "The solution seems to be to separate the network into several parts,
//! each of which delivers part of the data to part of the processor. But
//! how is the data to be dispatched to the correct part? If the data is
//! sent to the parallel processor using a traditional protocol such as TCP,
//! there is no way the transport can understand the structure of the
//! incoming data. However, if the data is organized into ADUs, each ADU
//! will contain enough information to control its own delivery."
//!
//! Two ingest paths over the same workload:
//!
//! * [`ShardedSink::ingest_adu`] — the ALF path: the [`AduName::Shard`]
//!   name routes each unit straight to its shard; no shared hot spot.
//! * [`StreamResplitter`] — the byte-stream baseline: everything funnels
//!   through one serial parser which must read each record header to learn
//!   its destination, then copy the body onward — the "one hot spot which
//!   must run at the aggregate speed of the total processor".
//!
//! Experiment X5 measures the aggregate ingest rate of both as the shard
//! count grows.

use alf_core::adu::{Adu, AduName};
use ct_wire::checksum::InternetChecksum;

/// Errors from shard ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// The ADU's name is not in the shard name-space.
    WrongNameSpace,
    /// The named shard does not exist.
    NoSuchShard {
        /// Shard named by the ADU.
        shard: u16,
        /// Shards available.
        have: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::WrongNameSpace => write!(f, "ADU name is not a shard address"),
            ShardError::NoSuchShard { shard, have } => {
                write!(f, "shard {shard} does not exist ({have} shards)")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// One processor shard: consumes its units independently. "Consuming" here
/// is a checksum fold over the data — a stand-in for per-shard compute that
/// forces a real read of every byte.
#[derive(Debug, Default)]
pub struct Shard {
    /// Units ingested.
    pub units: u64,
    /// Bytes ingested.
    pub bytes: u64,
    /// Folded checksum of everything ingested (order-insensitive check
    /// value so out-of-order ingest still verifies).
    pub digest: u64,
}

impl Shard {
    /// Ingest one unit into this shard (reads every byte).
    pub fn consume(&mut self, index: u32, data: &[u8]) {
        self.units += 1;
        self.bytes += data.len() as u64;
        let mut ck = InternetChecksum::new();
        ck.update(data);
        // Mix the unit index in so placement errors change the digest.
        self.digest = self
            .digest
            .wrapping_add(u64::from(ck.finish()).wrapping_mul(u64::from(index) + 1));
    }
}

/// A bank of shards fed directly by self-routing ADUs.
#[derive(Debug)]
pub struct ShardedSink {
    shards: Vec<Shard>,
}

impl ShardedSink {
    /// Create `n` shards.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "at least one shard");
        Self {
            shards: (0..n).map(|_| Shard::default()).collect(),
        }
    }

    /// Ingest one ADU: the name alone routes it.
    ///
    /// # Errors
    /// [`ShardError`] for foreign names or out-of-range shards.
    pub fn ingest_adu(&mut self, adu: &Adu) -> Result<(), ShardError> {
        let AduName::Shard { shard, index } = adu.name else {
            return Err(ShardError::WrongNameSpace);
        };
        let n = self.shards.len();
        let slot = self
            .shards
            .get_mut(shard as usize)
            .ok_or(ShardError::NoSuchShard { shard, have: n })?;
        slot.consume(index, &adu.payload);
        Ok(())
    }

    /// The shards.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Total bytes ingested across shards.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes).sum()
    }

    /// Combined digest (order-insensitive).
    pub fn combined_digest(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |a, s| a.wrapping_add(s.digest))
    }
}

/// The byte-stream baseline: records serialized into one stream
/// (`[shard u16][index u32][len u32][body]`), re-split serially.
#[derive(Debug)]
pub struct StreamResplitter {
    sink: ShardedSink,
    /// Unconsumed stream bytes (partial record tail).
    carry: Vec<u8>,
    /// Records whose header was unparsable.
    pub framing_errors: u64,
}

/// Serialize a shard workload into the byte-stream form the resplitter
/// consumes. This is what "sending to a parallel processor over TCP"
/// looks like: structure erased into a byte sequence.
pub fn serialize_stream(adus: &[Adu]) -> Vec<u8> {
    let mut out = Vec::new();
    for adu in adus {
        if let AduName::Shard { shard, index } = adu.name {
            out.extend_from_slice(&shard.to_be_bytes());
            out.extend_from_slice(&index.to_be_bytes());
            out.extend_from_slice(&(adu.payload.len() as u32).to_be_bytes());
            out.extend_from_slice(&adu.payload);
        }
    }
    out
}

impl StreamResplitter {
    /// Create a resplitter feeding `n` shards.
    pub fn new(n: usize) -> Self {
        Self {
            sink: ShardedSink::new(n),
            carry: Vec::new(),
            framing_errors: 0,
        }
    }

    /// Feed stream bytes; parses complete records serially and forwards
    /// each body to its shard (an extra copy through the splitter — the
    /// hot spot).
    pub fn ingest_stream(&mut self, bytes: &[u8]) {
        // The splitter must accumulate (copy #1) because records straddle
        // reads...
        self.carry.extend_from_slice(bytes);
        let mut cursor = 0usize;
        while self.carry.len() - cursor >= 10 {
            let shard = u16::from_be_bytes([self.carry[cursor], self.carry[cursor + 1]]);
            let index = u32::from_be_bytes([
                self.carry[cursor + 2],
                self.carry[cursor + 3],
                self.carry[cursor + 4],
                self.carry[cursor + 5],
            ]);
            let len = u32::from_be_bytes([
                self.carry[cursor + 6],
                self.carry[cursor + 7],
                self.carry[cursor + 8],
                self.carry[cursor + 9],
            ]) as usize;
            if self.carry.len() - cursor - 10 < len {
                break;
            }
            let body = &self.carry[cursor + 10..cursor + 10 + len];
            cursor += 10 + len;
            // ...and forwards the body onward (copy #2 is inside consume's
            // read; the dispatch itself is the serial bottleneck).
            match self.sink.shards.get_mut(shard as usize) {
                Some(s) => s.consume(index, body),
                None => self.framing_errors += 1,
            }
        }
        self.carry.drain(..cursor);
    }

    /// The shard bank.
    pub fn sink(&self) -> &ShardedSink {
        &self.sink
    }
}

/// Build a shard workload: `units_per_shard` units of `unit_bytes` for each
/// of `shards` shards, with deterministic contents.
pub fn shard_workload(shards: u16, units_per_shard: u32, unit_bytes: usize) -> Vec<Adu> {
    let mut adus = Vec::with_capacity(shards as usize * units_per_shard as usize);
    for index in 0..units_per_shard {
        for shard in 0..shards {
            adus.push(Adu::new(
                AduName::Shard { shard, index },
                (0..unit_bytes)
                    .map(|i| (shard as usize * 131 + index as usize * 31 + i) as u8)
                    .collect::<Vec<u8>>(),
            ));
        }
    }
    adus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adus_route_to_named_shards() {
        let adus = shard_workload(4, 10, 100);
        let mut sink = ShardedSink::new(4);
        for adu in &adus {
            sink.ingest_adu(adu).unwrap();
        }
        for shard in sink.shards() {
            assert_eq!(shard.units, 10);
            assert_eq!(shard.bytes, 1000);
        }
        assert_eq!(sink.total_bytes(), 4000);
    }

    #[test]
    fn out_of_order_ingest_same_digest() {
        let adus = shard_workload(3, 20, 64);
        let mut in_order = ShardedSink::new(3);
        for adu in &adus {
            in_order.ingest_adu(adu).unwrap();
        }
        let mut reversed = ShardedSink::new(3);
        for adu in adus.iter().rev() {
            reversed.ingest_adu(adu).unwrap();
        }
        assert_eq!(in_order.combined_digest(), reversed.combined_digest());
    }

    #[test]
    fn stream_resplit_matches_direct_routing() {
        let adus = shard_workload(4, 15, 200);
        let mut direct = ShardedSink::new(4);
        for adu in &adus {
            direct.ingest_adu(adu).unwrap();
        }
        let stream = serialize_stream(&adus);
        let mut splitter = StreamResplitter::new(4);
        // Feed in awkward chunk sizes to exercise the carry buffer.
        for chunk in stream.chunks(777) {
            splitter.ingest_stream(chunk);
        }
        assert_eq!(splitter.framing_errors, 0);
        assert_eq!(splitter.sink().total_bytes(), direct.total_bytes());
        assert_eq!(splitter.sink().combined_digest(), direct.combined_digest());
    }

    #[test]
    fn wrong_namespace_rejected() {
        let mut sink = ShardedSink::new(2);
        let adu = Adu::new(AduName::Seq { index: 0 }, vec![1]);
        assert_eq!(sink.ingest_adu(&adu), Err(ShardError::WrongNameSpace));
    }

    #[test]
    fn out_of_range_shard_rejected() {
        let mut sink = ShardedSink::new(2);
        let adu = Adu::new(AduName::Shard { shard: 5, index: 0 }, vec![1]);
        assert_eq!(
            sink.ingest_adu(&adu),
            Err(ShardError::NoSuchShard { shard: 5, have: 2 })
        );
    }

    #[test]
    fn resplitter_counts_bad_shard_as_framing_error() {
        let adus = vec![Adu::new(AduName::Shard { shard: 9, index: 0 }, vec![1, 2])];
        let stream = serialize_stream(&adus);
        let mut splitter = StreamResplitter::new(2);
        splitter.ingest_stream(&stream);
        assert_eq!(splitter.framing_errors, 1);
    }

    #[test]
    fn partial_records_carry_across_reads() {
        let adus = shard_workload(1, 1, 50);
        let stream = serialize_stream(&adus);
        let mut splitter = StreamResplitter::new(1);
        splitter.ingest_stream(&stream[..5]); // header cut mid-way
        assert_eq!(splitter.sink().total_bytes(), 0);
        splitter.ingest_stream(&stream[5..]);
        assert_eq!(splitter.sink().total_bytes(), 50);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardedSink::new(0);
    }

    #[test]
    fn shard_ingest_over_adaptive_transport() {
        // The §7 pipeline end-to-end under adaptive transfer control: shard
        // ADUs cross a real AduTransport pair (RTT-driven RTO, congestion
        // window, rate pacing all live) and self-route into the sink as
        // they complete — out of order is fine, the digest is
        // order-insensitive.
        use alf_core::transport::{AduTransport, AlfConfig, RecoveryMode, SendRefused};
        use ct_netsim::time::{SimDuration, SimTime};

        let adus = shard_workload(4, 25, 600);
        let mut expect = ShardedSink::new(4);
        for adu in &adus {
            expect.ingest_adu(adu).unwrap();
        }

        let cfg = AlfConfig {
            adaptive: true,
            recovery: RecoveryMode::TransportBuffer,
            ..AlfConfig::default()
        };
        let mut tx = AduTransport::new(cfg);
        let mut rx = AduTransport::new(cfg);
        let mut sink = ShardedSink::new(4);
        let mut offered = 0usize;
        let mut now = SimTime::ZERO;
        for _ in 0..100_000 {
            while offered < adus.len() {
                match tx.send_adu(adus[offered].name, adus[offered].payload.clone()) {
                    Ok(_) => offered += 1,
                    // Transient: the window (ours or the receiver's) will
                    // reopen as ACKs arrive — retry on the next tick.
                    Err(SendRefused::WindowFull | SendRefused::Backpressured) => break,
                    Err(e) => panic!("shard ingest refused fatally: {e}"),
                }
            }
            now += SimDuration::from_micros(50);
            for f in tx.poll(now) {
                rx.on_frame(now, f.into());
            }
            for f in rx.poll(now) {
                tx.on_frame(now, f.into());
            }
            while let Some((adu, _latency)) = rx.recv_adu() {
                sink.ingest_adu(&adu).unwrap();
            }
            if offered == adus.len() && tx.send_complete() && rx.recv_available() == 0 {
                break;
            }
        }
        assert_eq!(sink.total_bytes(), expect.total_bytes());
        assert_eq!(sink.combined_digest(), expect.combined_digest());
        assert!(tx.stats().rtt_samples > 0, "adaptive control was live");
        assert!(
            tx.stats().cwnd_adus >= 4.0,
            "clean transfer never shrinks the window"
        );
    }
}

/// Walk the serialized stream form record by record, calling
/// `f(shard, index, body)` for each complete record. Returns the number of
/// records visited. The walk itself is zero-copy; what the callback does
/// with `body` is the dispatch policy under test.
pub fn for_each_record<'a>(stream: &'a [u8], mut f: impl FnMut(u16, u32, &'a [u8])) -> usize {
    let mut cursor = 0usize;
    let mut n = 0usize;
    while stream.len() - cursor >= 10 {
        let shard = u16::from_be_bytes([stream[cursor], stream[cursor + 1]]);
        let index = u32::from_be_bytes([
            stream[cursor + 2],
            stream[cursor + 3],
            stream[cursor + 4],
            stream[cursor + 5],
        ]);
        let len = u32::from_be_bytes([
            stream[cursor + 6],
            stream[cursor + 7],
            stream[cursor + 8],
            stream[cursor + 9],
        ]) as usize;
        if stream.len() - cursor - 10 < len {
            break;
        }
        f(shard, index, &stream[cursor + 10..cursor + 10 + len]);
        cursor += 10 + len;
        n += 1;
    }
    n
}

/// Consume a batch of `(index, body)` units into one [`Shard`] — the
/// per-processor-part work loop used by the X5 experiment's parallel paths.
pub fn consume_batch<'a>(units: impl IntoIterator<Item = (u32, &'a [u8])>) -> Shard {
    let mut shard = Shard::default();
    for (index, body) in units {
        shard.consume(index, body);
    }
    shard
}

#[cfg(test)]
mod record_tests {
    use super::*;

    #[test]
    fn for_each_record_visits_all() {
        let adus = shard_workload(3, 5, 64);
        let stream = serialize_stream(&adus);
        let mut seen = 0usize;
        let n = for_each_record(&stream, |shard, _idx, body| {
            assert!(shard < 3);
            assert_eq!(body.len(), 64);
            seen += 1;
        });
        assert_eq!(n, 15);
        assert_eq!(seen, 15);
    }

    #[test]
    fn consume_batch_matches_sink() {
        let adus = shard_workload(1, 10, 100);
        let mut sink = ShardedSink::new(1);
        for adu in &adus {
            sink.ingest_adu(adu).unwrap();
        }
        let batch = consume_batch(adus.iter().map(|a| {
            let AduName::Shard { index, .. } = a.name else {
                unreachable!()
            };
            (index, a.payload.as_slice())
        }));
        assert_eq!(batch.digest, sink.shards()[0].digest);
        assert_eq!(batch.bytes, sink.shards()[0].bytes);
    }

    #[test]
    fn truncated_stream_stops_cleanly() {
        let adus = shard_workload(1, 2, 50);
        let stream = serialize_stream(&adus);
        let n = for_each_record(&stream[..stream.len() - 1], |_, _, _| {});
        assert_eq!(n, 1);
    }
}
