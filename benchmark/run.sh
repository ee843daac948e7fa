#!/usr/bin/env bash
# The benchmark's single entry point, run from the repository root:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
#   benchmark/run.sh --compare A.json B.json
#
# Builds the benchmark package in release, offline, then runs it with the
# glibc heap kept resident (see README.md, "Noise method"): the variables
# below reach the benchmark process only, not cargo and not this shell.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin="${CARGO_TARGET_DIR:-$here/target}/release/hyperstream-benchmark"

# Freed memory stays in the heap instead of going back to the kernel, so a
# repetition re-uses warm pages instead of faulting in fresh ones: that is
# the state of a long-running ingest process, and it is what makes
# repetitions repeat.
exec env \
    MALLOC_MMAP_MAX_=0 \
    MALLOC_TRIM_THRESHOLD_=1099511627776 \
    MALLOC_TOP_PAD_=67108864 \
    "$bin" --out-dir "$here/out" "$@"
