#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload in one process.
#
#   bench/run.sh <workload> [--seed S] [--seconds T] [--traced] [--smoke]
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Workloads: serve_steady serve_chaos fleet_failover plan_churn sched_offline.
# Prints every metric by name with its unit, then one JSON object on the
# last line; exits non-zero if an output check or shape guard fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# A relative CARGO_TARGET_DIR is relative to the checkout root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench/target}"
export HIOS_BENCH_OUT="bench/out"

# One load-generating thread; the schedulers may fan out to this many.
cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
export RAYON_NUM_THREADS="${RAYON_NUM_THREADS:-$(( cores < 4 ? cores : 4 ))}"

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/stackbench" "$@"
