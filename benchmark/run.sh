#!/usr/bin/env bash
# The benchmark's one command: build (offline, release), then run.
#
#   bash benchmark/run.sh                       the whole suite, all metrics
#   bash benchmark/run.sh --smoke               the same on a seconds-long size
#   bash benchmark/run.sh --repeat 2            A/A self-check of the end-to-end metrics
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                               one run, as BENCHMARK.json drives it
#
# Works from any directory. Build output goes to stderr; the last line of
# standard output of a --workload run is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --offline --release --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
# Scratch warehouses and trace files stay inside the benchmark's directory.
export EVE_BENCH_OUT="${EVE_BENCH_OUT:-$here/out}"
exec "$target/release/eve-benchmark" "$@"
