#!/usr/bin/env sh
# Tier-1 verification plus lint gates. Run from the workspace root.
#
# SOAK=1 additionally runs the extended chaos sweep (32 extra seeds of
# fault churn against the flow-controlled transport; see tests/chaos.rs).
# WALLCLOCK=1 additionally enforces the wall-clock bounds (X13's and X14's
# ns/ADU growth, tests/telemetry.rs's ledger ns, and the traced benchmark
# rounds' span-share guards); without it they are printed, not asserted.
# HOSTILE=1 additionally runs the bounded hostile soak (extra seeds with
# the adversarial frame mutator armed for the whole run).
set -eux

cargo build --release --workspace
cargo test --release -q --workspace
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
# The debug-loss eprintln!s sit inside the ACK, release and loss handlers
# and no other build compiles them.
cargo check -q -p alf-core --features debug-loss

# The deterministic examples, once each: every one asserts its own outcome
# (ilp_pipeline prints wall-clock figures, so it is built but not run).
for example in quickstart file_transfer pipelined_receiver rpc_demo video_stream; do
    cargo run --release -q -p ct-apps --example "$example" > /dev/null
done

# The benchmark is its own package (benchmark/, outside the workspace): its
# unit tests, and a --scale 0.01 smoke of all five workloads in which every
# delivered op is byte-verified through the production kernels.
( cd benchmark && cargo test --offline -q )
if [ "${WALLCLOCK:-0}" = "1" ]; then
    # One full-scale traced round of the layered straw man: the benchmark's
    # `accounted >= 0.85` and generator-share <= 0.15 guards only run at
    # scale 1 (the smoke above skips them), and a faster stack is what
    # pushes on them. They are ratios of wall-clock spans, so a host
    # disturbance can trip them: like every ns bound, WALLCLOCK=1 only.
    benchmark/run.sh --workload layered_bulk --seed 1990 --seconds 1 --trace 1 > /dev/null
    # And of the many-association server, for the same reason: a faster
    # ct-server shrinks the spans the guards divide by.
    benchmark/run.sh --workload server_fanin --seed 1990 --seconds 1 --trace 1 > /dev/null
    # And of the fused pair: its pipeline spans are what a faster kernel
    # shrinks.
    benchmark/run.sh --workload bulk_pair --seed 1990 --seconds 1 --trace 1 > /dev/null
fi

# Two kernel rules and one size, read off the machine code. DESIGN.md
# section 7: every instantiation of the keystream block loop lives in the one
# symbol `XorStream::apply_hosting`, whose multiplies must be scalar `imul`
# (left to LLVM's vectorisers they become SSE2 `pmuludq` triples at 0.6x the
# speed). The fused copy-and-checksum's word loop must stay vectorised: its
# accumulators are added with SSE2 `paddq`. And `AduTransport::next_timeout`,
# which every poll of every association runs, must stay straight-line code
# within 1 KiB (its six terms in an array through `flatten().min()` compiled
# to 15 KB). x86-64 mnemonics, so other hosts skip all three. On x86-64 a
# build that lacks any of the symbols (inlined away, or mangled otherwise)
# fails: a kernel the check cannot find is a gate that switched itself off.
if [ "$(uname -m)" = x86_64 ] && command -v objdump > /dev/null; then
    objdump -d --no-show-raw-insn target/release/harness | awk '
        function hex(s,    i, n) {
            n = 0
            for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
            return n
        }
        /^[0-9a-f]+ <.*>:$/ {
            xor = /XorStream13apply_hosting/; xor_found += xor
            sum = /ct_wire5fused17copy_and_checksum/; sum_found += sum
            nt = /9transport12AduTransport12next_timeout17h/; nt_found += nt
            if (nt) nt_start = hex($1)
        }
        xor && /imul/ { scalar++ }
        xor && /pmuludq/ { vector++ }
        sum && /paddq/ { paddq++ }
        nt && /^ *[0-9a-f]+:/ { sub(":", "", $1); nt_bytes = hex($1) - nt_start + 1 }
        END {
            if (!xor_found) { print "scalar-multiply check: no apply_hosting symbol"; exit 1 }
            if (!scalar || vector) { print "apply_hosting: imul " scalar+0 ", pmuludq " vector+0; exit 1 }
            if (!sum_found) { print "vectorised-checksum check: no copy_and_checksum symbol"; exit 1 }
            if (!paddq) { print "copy_and_checksum: no paddq"; exit 1 }
            if (!nt_found) { print "code-size check: no AduTransport::next_timeout symbol"; exit 1 }
            if (nt_bytes > 1024) { print "AduTransport::next_timeout: " nt_bytes " B > 1024"; exit 1 }
            print "apply_hosting: imul " scalar ", pmuludq 0; copy_and_checksum: paddq " paddq \
                "; next_timeout: " nt_bytes " B"
        }'
else
    echo "machine-code checks skipped: need x86_64 and objdump"
fi

# The alf_core::driver experiments nothing below runs, once each: every one
# asserts its own invariants (X4 that each recovery mode completes and
# verifies), and together they take under a second in release.
for experiment in x1 x3 x4 x6 x7 x8; do
    cargo run --release -q -p ct-bench --bin harness "$experiment" > /dev/null
done

# Observability smoke: the X9 experiment asserts integrated < layered
# passes-per-byte at every chain depth and exercises a telemetry-enabled
# transfer end to end.
cargo run --release -q -p ct-bench --bin harness x9 > /dev/null

# Zero-copy datapath smoke: X10 asserts the fused send path stays at
# <= 2 memory passes per byte and single-frame ADUs release as views,
# without a placement copy; it also refreshes BENCH_x10.json.
#
# Bench-regression gate: the harness runs on a deterministic simulator,
# so the committed BENCH_*.json baselines must reproduce within 5%.
# Snapshot them before the harness overwrites them in place.
BASE_DIR=$(mktemp -d)
trap 'rm -rf "$BASE_DIR"' EXIT
cp BENCH_x10.json BENCH_x11.json BENCH_x12.json BENCH_x13.json BENCH_x14.json "$BASE_DIR"/

cargo run --release -q -p ct-bench --bin harness x10 > /dev/null

# Lifecycle-span smoke: X11 asserts ALF HOL stall stays ~0 while the
# stream substrate stalls under any loss, and that the offline
# stitcher reproduces the in-process reports byte-identically; it
# refreshes BENCH_x11.json and dumps target/x11_*_trace.jsonl.
cargo run --release -q -p ct-bench --bin harness x11 > /dev/null

# ct-trace self-check: the analyzer must attribute X11's own dumps
# (exporter and analyzer still speak the same schema).
cargo run --release -q -p ct-telemetry --bin ct-trace -- \
    --self-check target/x11_alf_trace.jsonl > /dev/null
cargo run --release -q -p ct-telemetry --bin ct-trace -- \
    --self-check --adu-bytes 4000 target/x11_stream_trace.jsonl > /dev/null

# Hostile-wire smoke: X12 drives >= 10^6 mutated/forged/replayed frames
# through the simulator and asserts zero panics, zero corrupted-byte
# deliveries, quota-bounded memory, and graceful goodput degradation;
# it refreshes BENCH_x12.json.
cargo run --release -q -p ct-bench --bin harness x12 > /dev/null

# Many-association server: a quick 512-association smoke (CLI-validated
# args, per-ADU cost printed) and then the full X13 sweep — 1 → 1k → 100k
# associations through one AlfServer — which asserts the batch loop's work
# per association (polls, shard-wheel entries and slots) does not grow with
# the table, bounds per-association memory, prints the per-ADU wall-clock
# growth (bounded only under WALLCLOCK=1), and refreshes BENCH_x13.json.
cargo run --release -q -p ct-bench --bin harness x13 --assoc 512 > /dev/null
cargo run --release -q -p ct-bench --bin harness x13 > /dev/null

# Observability plane: an X14 smoke (small armed point — sampler, rollup
# publisher and ct-top snapshot all exercised), then the full X14 run,
# which asserts the armed plane delivers bit-identically to an unarmed twin
# at 100k associations, prints what it cost (armed - unarmed ns/ADU; a
# bound of 90 only under WALLCLOCK=1, like tests/telemetry.rs's ns bounds),
# and refreshes BENCH_x14.json plus target/x14_rollup.jsonl.
cargo run --release -q -p ct-bench --bin harness x14 --assoc 512 > /dev/null
cargo run --release -q -p ct-bench --bin harness x14 > /dev/null

# ct-top self-check: the offline renderer must find shard tables and
# tail attribution in X14's own rollup snapshot.
cargo run --release -q -p ct-telemetry --bin ct-top -- \
    --self-check target/x14_rollup.jsonl > /dev/null

cargo run --release -q -p ct-bench --bin bench-gate -- \
    "$BASE_DIR"/BENCH_x10.json BENCH_x10.json
cargo run --release -q -p ct-bench --bin bench-gate -- \
    "$BASE_DIR"/BENCH_x11.json BENCH_x11.json
cargo run --release -q -p ct-bench --bin bench-gate -- \
    "$BASE_DIR"/BENCH_x12.json BENCH_x12.json
cargo run --release -q -p ct-bench --bin bench-gate -- \
    "$BASE_DIR"/BENCH_x13.json BENCH_x13.json
cargo run --release -q -p ct-bench --bin bench-gate -- \
    "$BASE_DIR"/BENCH_x14.json BENCH_x14.json

if [ "${SOAK:-0}" = "1" ]; then
    SOAK=1 cargo test -q -p ct-bench --test chaos chaos_soak_extended
    SOAK=1 cargo test -q -p ct-bench --test chaos server_churn_soak_extended
fi

if [ "${HOSTILE:-0}" = "1" ]; then
    HOSTILE=1 cargo test --release -q -p ct-bench --test chaos hostile_soak_extended
fi
