//! Spans recorded from the benchmark's own files, around the calls into each
//! layer's public API. Nothing inside the crates is instrumented.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`. The root of a run is
//! [`Span::Run`] (the measured phase); every boundary call is its child, and
//! the root's *self* time — its duration minus what its children cover — is
//! the drive loop. Aggregates are kept per span name for every span; full
//! records are kept only for a seeded 1-in-1024 sample of ops, in memory,
//! and written out when the run ends.
//!
//! With tracing off every entry point is one predictable branch, so the same
//! drive loops serve the untraced (end-to-end) and the traced runs.

use crate::alloc;
use crate::gen::mix;
use std::fmt::Write as _;
use std::time::Instant;

macro_rules! spans {
    ($($variant:ident => $name:literal,)*) => {
        /// Every span the benchmark records, named `<layer>.<boundary>`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum Span { $($variant,)* }

        impl Span {
            /// All spans, in declaration order.
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            /// The span's reported name.
            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name,)* }
            }
        }
    };
}

spans! {
    Run => "run",
    Gen => "bench.gen",
    Verify => "bench.verify",
    PipelineTx => "alf-core.pipeline.tx",
    PipelineRx => "alf-core.pipeline.rx",
    SendAdu => "alf-core.transport.send_adu",
    PollTx => "alf-core.transport.poll_tx",
    PollRx => "alf-core.transport.poll_rx",
    OnFrameRx => "alf-core.transport.on_frame_rx",
    OnFrameTx => "alf-core.transport.on_frame_tx",
    RecvAdu => "alf-core.transport.recv_adu",
    NetSend => "ct-netsim.send",
    NetStep => "ct-netsim.step",
    NetRecv => "ct-netsim.recv",
    AddAssociation => "ct-server.add_association",
    Ingest => "ct-server.ingest",
    PollBatch => "ct-server.poll_batch",
    PollBatchClients => "ct-server.poll_batch_clients",
    TakeDelivered => "ct-server.take_delivered",
    RpcClient => "ct-apps.rpc.client",
    RpcServer => "ct-apps.rpc.server",
    BerEncode => "ct-presentation.ber.encode",
    BerDecode => "ct-presentation.ber.decode",
    Xor => "ct-crypto.xor",
    StreamSend => "ct-transport.stream.send",
    StreamPoll => "ct-transport.stream.poll",
    StreamOnFrame => "ct-transport.stream.on_frame",
    StreamRecv => "ct-transport.stream.recv",
}

impl Span {
    /// Frame-path spans: called once per frame or per loop turn, so their
    /// allocation count is reported too.
    pub fn on_frame_path(self) -> bool {
        matches!(
            self,
            Span::SendAdu
                | Span::PollTx
                | Span::PollRx
                | Span::OnFrameRx
                | Span::OnFrameTx
                | Span::RecvAdu
                | Span::NetSend
                | Span::NetStep
                | Span::NetRecv
                | Span::Ingest
                | Span::PollBatch
                | Span::PollBatchClients
                | Span::StreamPoll
                | Span::StreamOnFrame
        )
    }
}

/// One op in 1024 keeps its full span records.
const SAMPLE_ONE_IN: u64 = 1024;
/// Hard cap on kept records (a run that somehow samples more stops keeping).
const MAX_RECORDS: usize = 1 << 18;
/// Buckets of the per-span log2 duration histogram (bucket *i* holds
/// durations in `[2^i, 2^(i+1))` ns; the last bucket is open-ended).
pub const HIST_BUCKETS: usize = 40;
/// Empty leaf spans timed before each root span to price the recorder.
const CALIBRATION_SPANS: u64 = 50_000;

/// Per-name aggregate, as recorded (durations in ns).
#[derive(Debug, Clone, Copy)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Sum of durations (children included).
    pub busy: u64,
    /// Sum of durations minus the part covered by child spans.
    pub own: u64,
    /// Allocator calls between span start and end.
    pub allocs: u64,
    /// log2 histogram of durations.
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for Agg {
    fn default() -> Self {
        Agg {
            calls: 0,
            busy: 0,
            own: 0,
            allocs: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

/// A kept span record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Sequence number of this span among all spans of the run.
    pub id: u64,
    /// The span that was open when this one started (`None` for a root).
    pub parent: Option<u64>,
    /// Which span.
    pub span: Span,
    /// Start, ns since the tracer was created.
    pub start: u64,
    /// End, ns since the tracer was created.
    pub end: u64,
    /// The op (ADU index, call id) this span worked for, when the benchmark
    /// knows it; frame-level spans carry none.
    pub op: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    span: Span,
    id: u64,
    start: u64,
    allocs: u64,
    children: u64,
    op: Option<u64>,
}

/// The recorder's own cost, ns, as priced by timing empty spans.
#[derive(Debug, Clone, Default)]
struct Overhead {
    /// Per span name: recorder cost inside those spans' intervals.
    inside: Vec<f64>,
    /// Recorder cost inside the intervals of the root's descendants.
    inside_nested: f64,
    /// Recorder cost that fell into the root's self time.
    in_root: f64,
    /// Per-span price of the latest calibration: `(inside, in parent)`.
    price: (f64, f64),
    /// Calls per span name, and descendants, already priced.
    priced_calls: Vec<u64>,
    priced_nested: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    aggs: Vec<Agg>,
    records: Vec<Record>,
    next_id: u64,
    sample_seed: u64,
    /// Spans closed while another span was open (the root's descendants).
    nested: u64,
    overhead: Overhead,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::build(false, 0)
    }

    /// A recording tracer; `seed` picks which ops keep full records.
    pub fn on(seed: u64) -> Self {
        Self::build(true, seed)
    }

    fn build(on: bool, seed: u64) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            aggs: vec![Agg::default(); Span::ALL.len()],
            records: Vec::new(),
            next_id: 0,
            sample_seed: mix(seed ^ 0x7ace),
            nested: 0,
            overhead: Overhead {
                inside: vec![0.0; Span::ALL.len()],
                priced_calls: vec![0; Span::ALL.len()],
                ..Overhead::default()
            },
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of whatever span is open.
    ///
    /// Opening the root also prices the recorder: two clock reads and the
    /// bookkeeping between them cost about as much as the cheapest calls
    /// being timed, and the host's speed drifts, so before every root span
    /// the recorder times empty spans of its own. The `*_ns` accessors take
    /// that cost out; the raw sums stay in [`Tracer::agg`].
    #[inline]
    pub fn enter(&mut self, span: Span, op: Option<u64>) {
        if !self.on {
            return;
        }
        if span == Span::Run {
            self.calibrate();
        }
        let id = self.next_id;
        self.next_id += 1;
        let allocs = alloc::allocs();
        // Clock read last, so the bookkeeping above is not inside the span.
        let start = self.now();
        self.stack.push(Open {
            span,
            id,
            start,
            allocs,
            children: 0,
            op,
        });
    }

    /// Close the innermost open span, which must be `span`.
    #[inline]
    pub fn exit(&mut self, span: Span) {
        if !self.on {
            return;
        }
        // Clock read first, for the same reason.
        let end = self.now();
        let open = self.stack.pop().expect("exit without enter");
        assert_eq!(open.span, span, "spans must nest");
        self.close(open, end);
        if span == Span::Run {
            self.price_new_spans();
        }
    }

    /// Time `f` as a leaf span (no span may open inside `f`).
    #[inline]
    pub fn span<R>(&mut self, span: Span, op: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next_id;
        self.next_id += 1;
        let allocs = alloc::allocs();
        let start = self.now();
        let r = f();
        let end = self.now();
        self.close(
            Open {
                span,
                id,
                start,
                allocs,
                children: 0,
                op,
            },
            end,
        );
        r
    }

    fn close(&mut self, open: Open, end: u64) {
        let dur = end.saturating_sub(open.start);
        let agg = &mut self.aggs[open.span as usize];
        agg.calls += 1;
        agg.busy += dur;
        agg.own += dur.saturating_sub(open.children);
        agg.allocs += alloc::allocs() - open.allocs;
        let bucket = (63 - (dur | 1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        agg.hist[bucket] += 1;
        let parent = self.stack.last_mut().map(|p| {
            p.children += dur;
            p.id
        });
        self.nested += u64::from(parent.is_some());
        // The root is always kept; an op's spans are kept or dropped together;
        // frame-level spans are sampled by their own sequence number.
        let keep = open.span == Span::Run
            || mix(self.sample_seed ^ open.op.unwrap_or(open.id)).is_multiple_of(SAMPLE_ONE_IN);
        if keep && self.records.len() < MAX_RECORDS {
            self.records.push(Record {
                id: open.id,
                parent,
                span: open.span,
                start: open.start,
                end,
                op: open.op,
            });
        }
    }

    /// Price one leaf span by timing empty ones on a scratch recorder.
    fn calibrate(&mut self) {
        let mut scratch = Self::build(true, 0);
        scratch.stack.push(Open {
            span: Span::Run,
            id: 0,
            start: scratch.now(),
            allocs: 0,
            children: 0,
            op: None,
        });
        for op in 0..CALIBRATION_SPANS {
            scratch.span(Span::Gen, Some(op), || ());
        }
        let end = scratch.now();
        let root = scratch.stack.pop().expect("pushed above");
        let inside = root.children as f64;
        let outside = (end - root.start) as f64 - inside;
        let n = CALIBRATION_SPANS as f64;
        self.overhead.price = (inside / n, outside / n);
    }

    /// Charge the spans closed since the last pricing at the latest price.
    fn price_new_spans(&mut self) {
        let o = &mut self.overhead;
        for (i, agg) in self.aggs.iter().enumerate() {
            o.inside[i] += (agg.calls - o.priced_calls[i]) as f64 * o.price.0;
            o.priced_calls[i] = agg.calls;
        }
        let new = (self.nested - o.priced_nested) as f64;
        o.inside_nested += new * o.price.0;
        o.in_root += new * o.price.1;
        o.priced_nested = self.nested;
    }

    /// The aggregate for one span name, as recorded.
    pub fn agg(&self, span: Span) -> &Agg {
        &self.aggs[span as usize]
    }

    /// A span's summed duration with the recorder's own cost taken out, ns.
    pub fn busy_ns(&self, span: Span) -> f64 {
        (self.agg(span).busy as f64 - self.overhead.inside[span as usize]).max(0.0)
    }

    /// An upper bound on the `p`-th percentile of a span's durations, ns, read
    /// off its log2 histogram (so a power of two; recorder cost included).
    pub fn duration_bound_ns(&self, span: Span, p: f64) -> u64 {
        let agg = self.agg(span);
        let need = (p / 100.0 * agg.calls as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in agg.hist.iter().enumerate() {
            seen += n;
            if seen >= need {
                return 1 << (i + 1);
            }
        }
        u64::MAX
    }

    /// What recording one leaf span cost at the latest calibration, ns:
    /// `(inside the span, in its parent's self time)`.
    pub fn span_cost_ns(&self) -> (f64, f64) {
        self.overhead.price
    }

    /// The root span with the recorder's own cost taken out, ns:
    /// `(time covered by child spans, the root's self time)`. Their sum is
    /// the run as it would have been untraced.
    pub fn breakdown_ns(&self) -> (f64, f64) {
        let run = self.agg(Span::Run);
        let children = (run.busy - run.own) as f64 - self.overhead.inside_nested;
        let own = run.own as f64 - self.overhead.in_root;
        (children.max(0.0), own.max(0.0))
    }

    /// Kept records, in closing order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Kept records as JSON lines.
    pub fn records_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}}}",
                r.id,
                r.parent.map_or("null".to_string(), |p| p.to_string()),
                r.span.name(),
                r.start,
                r.end,
                r.op.map_or("null".to_string(), |o| o.to_string()),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let mut tr = Tracer::on(1);
        tr.enter(Span::Run, None);
        spin(200_000); // root self
        tr.enter(Span::PollBatch, None); // child with a child of its own
        spin(100_000);
        tr.span(Span::OnFrameRx, Some(3), || spin(300_000));
        tr.exit(Span::PollBatch);
        tr.span(Span::NetStep, None, || spin(150_000)); // adjacent sibling
        tr.span(Span::NetStep, None, || spin(150_000));
        tr.exit(Span::Run);

        let run = tr.agg(Span::Run);
        let batch = tr.agg(Span::PollBatch);
        let frame = tr.agg(Span::OnFrameRx);
        let step = tr.agg(Span::NetStep);
        assert_eq!(
            (run.calls, batch.calls, frame.calls, step.calls),
            (1, 1, 1, 2)
        );
        // Leaves: self == busy.
        assert_eq!(frame.own, frame.busy);
        assert_eq!(step.own, step.busy);
        // A parent's self time excludes exactly its direct children.
        assert_eq!(batch.own, batch.busy - frame.busy);
        assert_eq!(run.own, run.busy - batch.busy - step.busy);
        // In nanoseconds, the spins are what was spun.
        let ns = |s| tr.agg(s).busy as f64;
        assert!(ns(Span::OnFrameRx) >= 300_000.0 && ns(Span::NetStep) >= 300_000.0);
        let batch_own = ns(Span::PollBatch) - ns(Span::OnFrameRx);
        assert!((100_000.0..300_000.0).contains(&batch_own), "{batch_own}");
        let run_own = ns(Span::Run) - ns(Span::PollBatch) - ns(Span::NetStep);
        assert!((200_000.0..500_000.0).contains(&run_own), "{run_own}");
        // Root record is kept and is nobody's child.
        let root = tr.records().last().expect("root kept");
        assert_eq!((root.span, root.parent), (Span::Run, None));
        assert!(tr.records_jsonl().ends_with("\"op\":null}\n"));
    }

    #[test]
    fn the_recorders_own_cost_is_taken_out() {
        let mut tr = Tracer::on(1);
        tr.enter(Span::Run, None);
        for op in 0..100_000u64 {
            tr.span(Span::Gen, Some(op), || ());
        }
        tr.exit(Span::Run);
        // A run of empty spans is all recorder: what is left after pricing
        // must be a small part of what was recorded.
        let raw = tr.agg(Span::Run).busy as f64;
        let (children, own) = tr.breakdown_ns();
        assert!(
            raw > 0.0 && children + own < 0.5 * raw,
            "{children} + {own} of {raw}"
        );
        assert!(tr.busy_ns(Span::Gen) < 0.5 * tr.agg(Span::Gen).busy as f64);
        let (inside, outside) = tr.span_cost_ns();
        assert!(inside > 0.0 && outside > 0.0 && inside + outside < 2_000.0);
    }

    #[test]
    fn off_tracer_records_nothing_and_still_runs_the_body() {
        let mut tr = Tracer::off();
        tr.enter(Span::Run, None);
        assert_eq!(tr.span(Span::Gen, Some(1), || 41 + 1), 42);
        tr.exit(Span::Run);
        assert_eq!(tr.agg(Span::Gen).calls, 0);
        assert!(tr.records().is_empty());
    }

    #[test]
    fn an_ops_spans_are_kept_or_dropped_together() {
        let mut tr = Tracer::on(9);
        tr.enter(Span::Run, None);
        for op in 0..20_000u64 {
            tr.span(Span::SendAdu, Some(op), || ());
            tr.span(Span::RecvAdu, Some(op), || ());
        }
        tr.exit(Span::Run);
        let kept: Vec<_> = tr.records().iter().filter(|r| r.op.is_some()).collect();
        assert!(!kept.is_empty() && kept.len() < 200, "{} kept", kept.len());
        for pair in kept.chunks(2) {
            assert_eq!(pair[0].op, pair[1].op);
            assert_eq!(pair[0].parent, Some(0));
        }
        assert_eq!(tr.agg(Span::SendAdu).calls, 20_000);
    }

    #[test]
    fn span_names_are_unique() {
        let mut names: Vec<_> = Span::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Span::ALL.len());
    }
}
