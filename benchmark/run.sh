#!/usr/bin/env bash
# The one command: build scipbench offline, then run it.
#
#   benchmark/run.sh [--seed S] [--seconds T] [--trace] [--quick]
#       every workload, each in its own child process; prints every metric
#       by name with its unit, checks outputs, writes benchmark/out/results.json
#       (results-trace.json with --trace, plus out/trace-<workload>.jsonl)
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       one workload; last stdout line is the result object (BENCHMARK.json's command)
#   benchmark/run.sh agree A.json B.json
#       compare two result sets against the bounds in BENCHMARK.json
#
# Builds into $CARGO_TARGET_DIR when set, else the repository's target/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# The daemon workloads need one core for the load generator and one for
# the shard worker; on fewer the numbers mean something else.
cores="$(nproc)"
if [ "$cores" -lt 2 ]; then
    echo "benchmark/run.sh: needs at least 2 cores, nproc reports $cores" >&2
    exit 3
fi

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

status=0
"$target/release/scipbench" "$@" || status=$?

# The streamed corpus and snapshot epochs are inputs, not results.
rm -rf "$here"/out/corpus-*.bin "$here"/out/snap-* "$here"/out/probe-snap
exit "$status"
