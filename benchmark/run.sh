#!/usr/bin/env bash
# The one command: build the benchmark from source, then
#
#   benchmark/run.sh                       every workload x reps + a traced run each;
#                                          prints every metric, writes benchmark/results/<stamp>.json
#   benchmark/run.sh suite --seed 7 --reps 5
#   benchmark/run.sh compare <a.json> <b.json>
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                          one run; last stdout line is the result as JSON
#
# Cargo's own output goes to stderr, so stdout carries only the benchmark's.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
if [ $# -eq 0 ]; then
    set -- suite
fi
exec "$CARGO_TARGET_DIR/release/alfnet-bench" "$@"
