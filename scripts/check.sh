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

echo "== no downcast glue, EI switch, JSON trace twin, per-hook descriptor or pid map, sizing by serialising, write-only metric, criterion, ROSE_* twin of a flag, campaign fork, side channel beside a confirmed schedule, second fault vocabulary or second subject-path rule, unread hook surface or hook name, post-verdict open-interval record, causal recorder outside the kernel, span helper, played-out run the diagnosis charges, second kind of charged run, sweep-redundancy instrument, second integer writer in the target models, forked registry absorbed by a workflow crate, condition or signal address nothing produces, serde edge from a crate that writes no format, workload client beside the one closed loop, key-file list restating the symbol table, scripted-capture twin of capture_trace or tracing record built outside TracingStats' one builder, fat SCF path or IO-content prefix, window snapshot beside drain, (ts, node) sort outside the canonical order, function entry without its scope, background loop beside the one in common.rs, recv-error callback, restart switch or YCSB config struct, scripted capture or SCF literal beside CaptureSpec::scripted and common::scf, second codec index lookup, read path only its tests call, diagnose.rs beside its module split, harness or seed stream outside the replay engine, joined copy of a read list, hand-kept case list in a bench bin, execution-index count kept outside the kernel or count origin in the executor; the nemesis writes no effect itself; rose-trace does not link rose-store, nor the kernel, the codec, the tracer or the profiler rose-obs"
# Not the literal `--ei`: the negative CLI cases name it.
if grep -rnE "fn as_any|ROSE_EI|diagnosis\.ei|cfg\.ei|dump\.json|Trace::save|Trace::load" \
    crates examples tests src README.md DESIGN.md \
    || grep -rnE "diagnose_via_store|reproduce_from_store|persist_trace|chrome_trace_dir|verify_reproduction|export_causal_files|ChromeTrace::from_trace" \
        crates examples tests src README.md DESIGN.md \
    || grep -rn "fd_paths" crates/*/src \
    || grep -rn "last_confirm_causal" crates/*/src \
    || grep -rnE "MenuEntry|menu_fault|whole_node_menu|NemesisOp::ALL|NemesisEvent|fn path_of|fn resolve_path" \
        crates/*/src \
    || grep -rnE "NetCmd|SignalReq|DropRule" crates/rose-jepsen/src \
    || grep -rnE "pid_node|map_pid|AfCounter|fn_entries|NetCmd::ClearAll|ProcEvent::(Spawned|ChildSpawned|PauseStart|PauseEnd)" \
        crates/*/src \
    || grep -rnF "fn name(&self) -> &'static str" crates tests examples \
    || grep -rnE "OpenPs|OpenNd|open_pause|open_silence|EdgeKind::Observe|fn add_span" crates/*/src \
    || grep -rnE "CausalRecorder|attach_causal" crates/rose-inject/src crates/rose-trace/src \
    || awk '/^impl.* RunHarness for SimHarness/,/^}/' crates/rose-core/src/workflow.rs \
        | grep -n "run_once(" \
    || grep -rnE "RunVerdict|run_verdicts|trait Charged|fn discovery\(" crates tests examples \
    || grep -rnE "shared_prefix_events|redundancy_factor|last_prefix|BENCH_redundancy|bin/redundancy" \
        crates tests examples src README.md DESIGN.md \
    || grep -rn "fn push_decimal" crates/*/src \
    || grep -n "Mutex" crates/rose-sim/src/causal.rs \
    || grep -rnE "\.to_json\(\)\.len\(\)" crates/*/src \
    || grep -rnE "gauge_set|MetricsSnapshot|merge_snapshot|obs\.observe\(|flush_obs" crates/*/src \
    || grep -rn "\.absorb(" crates/rose-core/src crates/rose-hunt/src crates/rose-apps/src \
    || grep -n "criterion" Cargo.toml Cargo.lock crates/*/Cargo.toml third_party/*/Cargo.toml \
        bench/Cargo.toml bench/Cargo.lock \
    || grep -rnE "ROSE_(JOBS|REPORT|TRACE_DIR|CAUSAL)|env::var" \
        crates/rose-bench/src README.md DESIGN.md .claude/skills/verify/SKILL.md \
    || grep -rnE "SyscallInvocation|SignalTarget|SysRet::Path" crates examples tests src \
    || grep -rn "outstanding:" crates/rose-apps/src --exclude=common.rs \
    || grep -rn "fn key_files" crates/rose-apps/src examples \
    || grep -rn --exclude-dir=target "capture_trace_with_schedule" \
        crates examples tests src bench README.md DESIGN.md \
    || grep -rnF "TracingStats {" crates examples tests src \
        | grep -vE "^crates/rose-core/src/workflow.rs:|^crates/rose-obs/src/" \
    || grep -nF "path: Option<Box<str>>" crates/rose-events/src/event.rs \
    || grep -nF "content: Option<Box<[u8]>>" crates/rose-events/src/event.rs \
    || grep -n "fn snapshot" crates/rose-events/src/window.rs \
    || grep -rnE "sort[a-z_]*\(\|e\| \(e\.ts, e\.node\)\)" crates/*/src src examples \
        | grep -v "^crates/rose-events/src/trace.rs:" \
    || grep -rnE "(enter|exit)_function\(" crates src tests examples \
    || grep -rn "benign_probes(" crates/rose-apps/src --exclude=common.rs \
    || grep -rnE "on_recv_error|auto_restart|YcsbConfig" crates src tests examples \
    || grep -rnF "CaptureMethod::Scripted(" crates/rose-apps/src --exclude=driver.rs \
    || grep -rnF "FaultAction::Scf {" crates/rose-apps/src --exclude=common.rs \
    || grep -nE "fn (syscall|errno|state)_(from_)?index" crates/rose-store/src/codec.rs \
    || grep -rnE "fn read_range|fn read_node" crates/rose-store \
    || grep -rnF "fn from_json(" crates/rose-events/src crates/rose-obs/src \
    || grep -rnE "impl Deserialize for (Event|ThinStr)\b" crates/*/src \
    || ls -d crates/rose-analyze/src/diagnose.rs 2> /dev/null \
    || grep -rn "dyn RunHarness" crates/rose-analyze/src/diagnose --exclude=mod.rs --exclude=replay.rs \
    || grep -rnE "seed_counter|fn peek_seed|fn charge\(" crates/rose-analyze --exclude=replay.rs \
    || grep -rnE "fn join_values|type Values = Arc<Vec<String>>" crates/*/src \
    || grep -rnE "const [A-Z_]+: \[BugId; *[0-9]+\]" crates/rose-bench/src/bin \
    || grep -rnE "ei_counts|bump_ei|cond_count" crates/rose-{trace,inject,hunt}/src \
    || grep -rnE "rt\.base|base: Option<u32>" crates/rose-inject/src \
    || grep -nE "^serde" crates/rose-{sim,profile,core,jepsen,apps}/Cargo.toml \
    || grep -n "^serde_json" crates/rose-hunt/Cargo.toml \
    || cargo tree -p rose-trace | grep rose-store \
    || cargo tree -p rose-sim -p rose-store -p rose-trace -p rose-profile | grep rose-obs; then
    echo "FAIL: as_any impls are gone (trait upcasting), Level 2.5 is the only search," \
        ".rosetrace the only trace file, descriptor -> path is the kernel's" \
        "(SyscallArgs::fd_path), a dump is sized by Trace::json_len," \
        "a number nobody reads is not published (Obs holds counters only)," \
        "bench/run.sh is the one wall-clock instrument," \
        "a flag is the only spelling of a harness input; the tracer stays free of the store," \
        "telemetry is the workflow layers' concern (no rose-obs under rose-sim, rose-store, rose-trace," \
        "rose-profile) and is counted on the calling thread (workers publish nothing: no workflow" \
        "crate absorbs a forked registry; only bench/'s mirror does)," \
        "a campaign diagnoses the trace it captured: capture_and_diagnose writes every" \
        "campaign file, none is read back, and there is no capture-timeline Chrome export," \
        "a confirmed schedule carries its own causal log (a Guess, no last_confirm_causal)," \
        "every injected fault is a FaultAction and FaultAction::apply alone writes its effects" \
        "(no menu entries, nemesis events or nemesis-built NetCmd/SignalReq/DropRule)," \
        "SyscallArgs::subject_path is the one rule for the path a call is about," \
        "and the hook boundary carries only what hooks read: HookEnv::node names a probe's" \
        "node (no pid map), lifecycle events are crash and restart, no NetCmd::ClearAll," \
        "no SimStats::fn_entries or Table 3 AfCounter (its ProfilingHook counts), no KernelHook::name," \
        "and provenance has one writer: the run's kernel owns the causal recorder (no Mutex), the" \
        "executor notes its injections in HookEffects (no recorder in rose-inject or rose-trace)," \
        "the tracer records no open pause/silence after the verdict (nothing read them), and" \
        "ChromeTrace has no add_span (add_flow_anchor is its one slice)," \
        "and every run the diagnosis charges stops at its verdict (no run_once in SimHarness's" \
        "RunHarness impl: discovery runs and confirmation replays both go through run_to_verdict)" \
        "and comes back as one RunObservation (no RunVerdict, run_verdicts, Charged run kind or" \
        "Rose::discovery view beside it)," \
        "and the sweep-redundancy instrument is gone (no redundancy bin, BENCH_redundancy.json," \
        "shared-prefix count or factor): it measured nothing on its rows, each of its bugs taking" \
        "one discovery run that shows the bug, and the fork-on-snapshot question lives in the hunt," \
        "and the target models have one integer writer (rose_apps::common's write_u64/write_hex;" \
        "RedisRaft's private push_decimal is gone)," \
        "and nothing stays that nothing produces: the nth call is Scf's nth or an ExecutionIndex" \
        "(no SyscallInvocation), a SignalReq names its node (no SignalTarget), readlink returns" \
        "no path (no SysRet::Path), and the kernel, the profiler, the workflow, the Jepsen" \
        "checkers and the target models write no format (no serde under rose-sim, rose-profile," \
        "rose-core, rose-jepsen or rose-apps, no serde_json under rose-hunt)," \
        "and the target models have one closed loop: a workload client's write in flight," \
        "deadline, retries and leader live in rose_apps::common's ClosedLoop (no outstanding:" \
        "field outside common.rs)," \
        "and the tracing phase states each fact once: a system's key files default to the files" \
        "its symbol table names (no fn key_files in a registry system or an example), a scripted" \
        "capture is capture_trace with an Executor among its hooks (no capture_trace_with_schedule)," \
        "and TraceCapture::phase_record is the one builder of a tracing record, sizing the dump it" \
        "reports (no TracingStats literal outside rose-core's workflow.rs and rose-obs)," \
        "and a window slot stays 32 bytes: an SCF path and an IO-content prefix are one thin" \
        "pointer each (ThinStr and ThinBytes, no Option<Box<str>> path or Option<Box<[u8]>>" \
        "content in event.rs), the window hands out its events by drain or iter" \
        "(no SlidingWindow::snapshot copy), and rose_events::sort_canonical is the one" \
        "canonical order (no (e.ts, e.node) sort key in program code outside trace.rs)," \
        "and an instrumented function is a scope: NodeCtx::function returns an FnScope whose" \
        "drop leaves the function, so no entry lacks its exit (no enter_function/exit_function pair)," \
        "and the target models run one background loop: rose_apps::common's background_tick" \
        "probes, keeps alive and re-arms for all nine (no benign_probes call outside common.rs)," \
        "and no hook without an implementor or knob with one value stays (no Application::" \
        "on_recv_error, SimConfig::auto_restart or YcsbConfig: workload A is four consts)," \
        "and each job is written once: a scripted capture is CaptureSpec::scripted over" \
        "rose_apps::common::scf faults (no CaptureMethod::Scripted outside driver.rs, no" \
        "FaultAction::Scf literal outside common.rs), the codec has one index-table lookup" \
        "(from_index; no syscall_/errno_/state_(from_)index pair), and no read path stays that" \
        "only its tests call (no TraceReader::read_range/read_node, no Trace or ChromeTrace" \
        "from_json, no hand-written Deserialize for Event or ThinStr: a JSON dump is an output)," \
        "and the diagnosis is a ladder, confirmBug and a replay engine behind one entry: only" \
        "diagnose/replay.rs holds the harness, the seed stream and the charge (no dyn RunHarness" \
        "under diagnose/ outside mod.rs and replay.rs, no seed_counter, fn peek_seed or fn charge" \
        "in rose-analyze outside replay.rs), and no diagnose.rs sits beside diagnose/," \
        "and a read records a view of its key's list, not a copy: a list store keeps one" \
        "rose_sim::ListView per key and a reply, a snapshot payload and the history share it" \
        "(no fn join_values, no type Values = Arc<Vec<String>>)," \
        "and a bench bin runs the registry, not a copy of part of it: hunt's default is" \
        "BugId::all_with_hunted() and BENCH_hunt.json has a row per case (no const [BugId; N]" \
        "list under crates/rose-bench/src/bin)," \
        "and the kernel owns the execution index: SimCore counts every (node, chain, syscall)" \
        "call at entry and hands hooks SyscallArgs::ei; the tracer stamps it, and an" \
        "ExecutionIndex condition matches a call in its chain whose index is at least its count" \
        "(no ei_counts, bump_ei or cond_count in rose-trace, rose-inject or rose-hunt, and no" \
        "count origin, rt.base or base: Option<u32>, in rose-inject)"
    exit 1
fi

echo "== table1 --quick determinism (Level 2.5) + trace-store + causal smoke (jobs=1 vs jobs=4)"
cargo build -p rose-bench --release -q
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
# jobs=4 also saves traces; the diffs below show --trace-dir changes no
# output (the files are outputs only). That a saved trace loads back equal
# to the dump is tests/trace_pipeline.rs's job, not this step's.
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

echo "== ablations determinism (jobs=1 vs jobs=4)"
# The only bin that reaches the amplification-off search (ablation 2) and an
# EI guess kept beside a confirmed flat result (ablation 5, Zookeeper-2247).
for jobs in 1 4; do
    ./target/release/ablations --jobs "$jobs" \
        --report "$smoke_dir/ablations-j$jobs.jsonl" \
        > "$smoke_dir/ablations-stdout-j$jobs.txt" 2> /dev/null
done
diff -u "$smoke_dir/ablations-stdout-j1.txt" "$smoke_dir/ablations-stdout-j4.txt"
diff -u "$smoke_dir/ablations-j1.jsonl" "$smoke_dir/ablations-j4.jsonl"

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

echo "== benchmark package passes its traced smoke run"
# --trace 1 adds the traced pass, which drives the search through the
# mirror's harness: that harness plays discovery runs and confirmation
# replays out, while run_case stops both at their verdict. The pass fails if
# any count the two compare (runs, events, the report) disagrees — if a run
# stopped at its verdict ever feeds a count the mirror cannot reproduce.
bench/run.sh --smoke --trace 1

echo "ok"
