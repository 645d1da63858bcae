#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                          every workload, untraced then traced; writes out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one run; its last stdout line is the BENCHMARK.json result object
#   benchmark/run.sh --check-repeat           the untraced suite twice, compared within the bounds; writes out/repeat.json
#
# Exits non-zero when the build fails or, for the suite, when a correctness
# check fails. See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Build output goes to stderr: stdout's last line belongs to the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/drs-benchmark" --out "$here/out" "$@"
