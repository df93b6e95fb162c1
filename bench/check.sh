#!/usr/bin/env bash
# Health gate of the benchmark package itself: formatting, lints, its tests
# (the mirror-equivalence test needs a release build to finish in seconds),
# and a smoke run of every workload. Does not touch the root workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check (bench)"
cargo fmt --manifest-path bench/Cargo.toml -- --check

echo "== cargo clippy -D warnings (bench)"
cargo clippy --offline --release --manifest-path bench/Cargo.toml --all-targets -- -D warnings

echo "== cargo test --release (bench)"
cargo test --offline --release --quiet --manifest-path bench/Cargo.toml

echo "== bench/run.sh --smoke"
bench/run.sh --smoke --out bench/results/smoke.json
