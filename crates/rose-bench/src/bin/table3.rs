//! Regenerates the paper's **Table 3**: the effectiveness of the function-
//! frequency heuristic. For each bug whose schedule involves application
//! functions, the reproducing schedule runs twice — once tracing *all*
//! functions from the developer-provided files and once tracing only the
//! infrequent ones kept by the heuristic — and the traced-function counts
//! are compared.
//!
//! Usage: `cargo run -p rose-bench --release --bin table3 [-- --jobs N] [-- --report out.jsonl]`
//! (`--jobs N` measures up to `N` bugs concurrently; `--report <path>`
//! appends one JSONL profiling record per bug: all function entries as
//! `candidates`, heuristic-kept entries as `kept`).
//! Flags are parsed strictly ([`rose_bench::args`]): an unknown flag or a bad
//! value prints the usage line to stderr and exits with status 2.

use rose_apps::driver::{capture_spec, visit_case, CaptureSpec, SystemVisitor};
use rose_apps::registry::BugId;
use rose_bench::args::Args;
use rose_bench::report::{self, ReportSink};
use rose_bench::table::render;
use rose_core::{ordered_map, Rose, TargetSystem};
use rose_events::SimDuration;
use rose_obs::{PhaseRecord, ProfilingStats};
use rose_profile::ProfilingHook;
use rose_sim::KernelHook;

/// Runs a system's trigger scenario — the faults of its first capture
/// attempt — for two minutes under a counting profiler and returns (all
/// function entries, entries of the functions the heuristic keeps).
fn measure<S: TargetSystem>(system: S, capture: CaptureSpec) -> (u64, u64) {
    let rose = Rose::new(system);
    let kept = rose.profile().infrequent_functions();
    let mut hooks: Vec<Box<dyn KernelHook>> = vec![Box::new(ProfilingHook::new())];
    hooks.extend(capture.hooks(0));
    let mut sim = rose.deploy(33, hooks);
    sim.start();
    // "These schedules take on average 2 minutes to run" (§6.4).
    sim.run_for(SimDuration::from_secs(120));
    let counts = &sim.hook_ref::<ProfilingHook>().unwrap().function_counts;
    let entries = |f: &String| counts.get(f).copied().unwrap_or(0);
    (counts.values().sum(), kept.iter().map(entries).sum())
}

const USAGE: &str = "usage: table3 [--jobs N] [--report PATH]";

fn main() {
    let mut args = Args::from_env();
    let jobs = args.jobs();
    let report_path = args.report();
    args.finish(USAGE);
    let sink = ReportSink::open(report_path);
    let mut rows = Vec::new();
    struct Measure;
    impl SystemVisitor for Measure {
        type Out = (u64, u64);
        fn visit<S: TargetSystem>(self, id: BugId, system: S) -> (u64, u64) {
            measure(system, capture_spec(id))
        }
    }
    let cases = vec![
        BugId::RedisRaft43,
        BugId::RedisRaft51,
        BugId::RedisRaftNew,
        BugId::Redpanda3003,
        BugId::Redpanda3039,
    ];

    // Each measurement is an isolated two-minute simulation; run up to
    // `jobs` of them concurrently and collect the counts in table order. The
    // section lines are printed here, in table order, before the fan-out.
    for id in &cases {
        report::section(format!("{} …", id.info().name));
    }
    let measured = ordered_map(jobs, cases, |id| (id.info().name, visit_case(id, Measure)));

    for (name, (all, kept)) in measured {
        let reduction = if all > 0 {
            100.0 * (all - kept) as f64 / all as f64
        } else {
            0.0
        };
        sink.write_records(&[PhaseRecord::Profiling(ProfilingStats {
            candidates: all as usize,
            kept: kept as usize,
            dropped: (all - kept) as usize,
            benign: 0,
            duration_secs: 120.0,
            syscalls: 0,
        })]);
        rows.push(vec![
            name.to_string(),
            all.to_string(),
            kept.to_string(),
            format!("{reduction:.1}"),
        ]);
    }

    report::out("\nTable 3: Effectiveness of the function frequency heuristic\n");
    report::out(render(
        &[
            "Bug",
            "All Functions",
            "Only Infrequent Functions",
            "Reduction %",
        ],
        &rows,
    ));
    sink.announce();
}
