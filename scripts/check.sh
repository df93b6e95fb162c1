#!/usr/bin/env bash
# Repo health gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh [--release]
set -euo pipefail
cd "$(dirname "$0")/.."

profile=()
if [[ "${1:-}" == "--release" ]]; then
    profile=(--release)
fi

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets "${profile[@]}" -- -D warnings

echo "== cargo test"
cargo test --workspace -q "${profile[@]}"

echo "== no downcast glue, EI switch, JSON trace twin, per-hook descriptor map, sizing by serialising, write-only metric, criterion or ROSE_* twin of a flag; rose-trace does not link rose-store, nor the kernel, the codec or the tracer rose-obs"
# Not the literal `--ei`: the negative CLI cases name it.
if grep -rnE "fn as_any|ROSE_EI|diagnosis\.ei|cfg\.ei|dump\.json|Trace::save|Trace::load" \
    crates examples tests src README.md DESIGN.md \
    || grep -rn "fd_paths" crates/*/src \
    || grep -rnE "\.to_json\(\)\.len\(\)" crates/*/src \
    || grep -rnE "gauge_set|MetricsSnapshot|merge_snapshot|obs\.observe\(|flush_obs" crates/*/src \
    || grep -n "criterion" Cargo.toml Cargo.lock crates/*/Cargo.toml third_party/*/Cargo.toml \
        bench/Cargo.toml bench/Cargo.lock \
    || grep -rnE "ROSE_(JOBS|REPORT|TRACE_DIR|CAUSAL)|env::var" \
        crates/rose-bench/src README.md DESIGN.md .claude/skills/verify/SKILL.md \
    || cargo tree -p rose-trace | grep rose-store \
    || cargo tree -p rose-sim -p rose-store -p rose-trace | grep rose-obs; then
    echo "FAIL: as_any impls are gone (trait upcasting), Level 2.5 is the only search," \
        ".rosetrace the only trace file, descriptor -> path is the kernel's" \
        "(SyscallArgs::fd_path), a dump is sized by Trace::json_len," \
        "a number nobody reads is not published (Obs holds counters only)," \
        "bench/run.sh is the one wall-clock instrument," \
        "a flag is the only spelling of a harness input; the tracer stays free of the store," \
        "and telemetry is the workflow layers' concern (no rose-obs under rose-sim, rose-store, rose-trace)"
    exit 1
fi

echo "== table1 --quick determinism (Level 2.5) + trace-store + causal smoke (jobs=1 vs jobs=4)"
cargo build -p rose-bench --release -q
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
# jobs=4 also persists traces and diagnoses from the reloaded binary files;
# the diffs below then prove the store round trip is byte-identical too.
# Both widths collect causal provenance, so the flow/DOT diff is the
# causal-determinism gate: provenance must be byte-identical at any width.
for jobs in 1 4; do
    tracedir=()
    if [[ "$jobs" == 4 ]]; then
        tracedir=(--trace-dir "$smoke_dir/traces")
    fi
    ./target/release/table1 --quick --jobs "$jobs" "${tracedir[@]}" \
        --causal "$smoke_dir/causal-j$jobs" \
        --report "$smoke_dir/report-j$jobs.jsonl" \
        > "$smoke_dir/stdout-j$jobs.txt" 2> /dev/null
done
diff -u "$smoke_dir/stdout-j1.txt" "$smoke_dir/stdout-j4.txt"
diff -u "$smoke_dir/report-j1.jsonl" "$smoke_dir/report-j4.jsonl"
diff -r "$smoke_dir/causal-j1" "$smoke_dir/causal-j4"

echo "== causal exports exist for every reproduced quick-campaign bug"
flow_count=$(ls "$smoke_dir"/causal-j1/*.flow.json 2> /dev/null | wc -l)
dot_count=$(ls "$smoke_dir"/causal-j1/*.dot 2> /dev/null | wc -l)
if ((flow_count == 0 || dot_count != flow_count)); then
    echo "FAIL: expected matching .flow.json/.dot exports, got $flow_count/$dot_count"
    exit 1
fi
echo "   $flow_count propagation-chain exports checked"

echo "== oracle-only hunt smoke (co-evolving frontier, jobs=1 vs jobs=4)"
# A small fixed-budget hunting campaign must be byte-identical at any
# worker width: the frontier log (every exploration run in order), the
# discovered-schedule summary JSON, and the stdout table.
for jobs in 1 4; do
    ./target/release/hunt RedisRaft-42 --budget 48 \
        --jobs "$jobs" \
        --out "$smoke_dir/hunt-j$jobs.json" \
        --log "$smoke_dir/hunt-log-j$jobs.jsonl" \
        > "$smoke_dir/hunt-stdout-j$jobs.txt" 2> /dev/null
done
diff -u "$smoke_dir/hunt-j1.json" "$smoke_dir/hunt-j4.json"
diff -u "$smoke_dir/hunt-log-j1.jsonl" "$smoke_dir/hunt-log-j4.jsonl"
diff -u "$smoke_dir/hunt-stdout-j1.txt" "$smoke_dir/hunt-stdout-j4.txt"
grep -q '"discovered":true' "$smoke_dir/hunt-j1.json" || {
    echo "FAIL: hunt smoke did not discover RedisRaft-42 within its budget"
    exit 1
}
grep -q '"confirmed":true' "$smoke_dir/hunt-j1.json" || {
    echo "FAIL: hunt discovery was not confirmed by diagnosis"
    exit 1
}
echo "   hunt campaign bit-identical across widths, discovery confirmed"

echo "== --trace-dir writes one .rosetrace per bug, >= 8x smaller than the JSON form"
# Both sizes come from the tracing records of the smoke's JSONL report.
found=0
while read -r json_size bin_size; do
    if ((bin_size * 8 > json_size)); then
        echo "FAIL: a dump is $bin_size B in the store vs $json_size B as JSON (< 8x)"
        exit 1
    fi
    found=$((found + 1))
done < <(sed -n 's/.*"phase":"tracing".*"dump_json_bytes":\([0-9]*\),"dump_store_bytes":\([0-9]*\).*/\1 \2/p' \
    "$smoke_dir/report-j4.jsonl")
files=$(ls "$smoke_dir/traces" | wc -l)
traces=$(ls "$smoke_dir"/traces/*.rosetrace 2> /dev/null | wc -l)
if ((found == 0 || traces == 0 || files != traces)); then
    echo "FAIL: expected tracing records and only .rosetrace files, got $found records, $traces/$files files"
    exit 1
fi
echo "   $found dumps checked, $traces trace files"

echo "== benchmark package builds against these crates"
# bench/ is a workspace of its own: nothing above notices a crates/ change
# that breaks its build or its output checks. Building it rewrites
# bench/Cargo.lock whenever a crate's dependency list has moved since the
# lock was committed; a crates/ change may not edit bench/, so the file is
# put back as it was found, pass or fail.
cp bench/Cargo.lock "$smoke_dir/bench-Cargo.lock"
trap 'cp "$smoke_dir/bench-Cargo.lock" bench/Cargo.lock; rm -rf "$smoke_dir"' EXIT
cargo build --release --offline --manifest-path bench/Cargo.toml

echo "== the benchmark's mirror of run_once / run_workflow still equals them"
# bench/src/mirror.rs re-implements the run loop and the workflow driver to
# put spans between their steps; this test holds its counts and reports
# equal to the crates' own. Without it a crates/ change that drifts from the
# mirror shows up only as a failed traced benchmark pass.
cargo test --release --offline --quiet --manifest-path bench/Cargo.toml --test mirror_equivalence

echo "== benchmark package passes its smoke run"
bench/run.sh --smoke

echo "ok"
