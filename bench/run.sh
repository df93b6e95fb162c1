#!/usr/bin/env bash
# The one benchmark command: builds bench/ (release, offline, against the
# vendored third_party/ stubs) and starts its binary with the arguments
# given. `bench/run.sh --help` lists them; README.md explains the output.
set -euo pipefail
cd "$(dirname "$0")/.."

build_start=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
ROSE_BENCH_BUILD_S=$(echo "$(date +%s.%N) $build_start" | awk '{printf "%.3f", $1 - $2}')
export ROSE_BENCH_BUILD_S

# CARGO_TARGET_DIR, when set, is relative to the directory cargo ran in.
exec "${CARGO_TARGET_DIR:-bench/target}/release/rose-benchmark" "$@"
