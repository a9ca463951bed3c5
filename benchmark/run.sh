#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. README.md has the
# workloads, metrics and phases.
#
#   benchmark/run.sh                  every workload, untraced then traced
#   benchmark/run.sh --workload NAME  one workload
#   benchmark/run.sh --smoke          small sizes; checks every metric is emitted
#   benchmark/run.sh --repeat 2       everything twice; checks the bounds hold
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                     one run in one process, ending in the
#                                     JSON line BENCHMARK.json's command prints
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
# Pin glibc's mmap threshold at its initial value. Left to adapt, it rises
# when the harness frees its 8 MB trace, later large buffers come from the
# heap, and whether they are ever returned depends on which arena each new
# thread lands in: peak_rss_mb read 25 MB or 30-37 MB from run to run.
export MALLOC_MMAP_THRESHOLD_=131072
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/sww-benchmark" "$@"
