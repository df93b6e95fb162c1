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

use std::collections::BTreeSet;

use rose_apps::driver::{capture_spec, visit_case, CaptureMethod, SystemVisitor};
use rose_apps::registry::BugId;
use rose_bench::args::Args;
use rose_bench::report::{self, ReportSink};
use rose_bench::table::render;
use rose_core::{ordered_map, Rose, TargetSystem};
use rose_events::SimDuration;
use rose_obs::{PhaseRecord, ProfilingStats};
use rose_sim::{HookEffects, HookEnv, KernelHook};

/// Counts function entries: all of them, and those in the monitored set.
struct AfCounter {
    monitored: BTreeSet<String>,
    all: u64,
    kept: u64,
}

impl KernelHook for AfCounter {
    fn name(&self) -> &'static str {
        "af-counter"
    }

    fn uprobe(
        &mut self,
        _env: &HookEnv,
        function: &str,
        offset: Option<u32>,
        _fx: &mut HookEffects,
    ) {
        if offset.is_none() {
            self.all += 1;
            if self.monitored.contains(function) {
                self.kept += 1;
            }
        }
    }
}

/// Runs a system's trigger scenario for two minutes and returns
/// (all function entries, entries kept by the heuristic).
fn measure<S: TargetSystem>(system: S, capture: rose_apps::driver::CaptureSpec) -> (u64, u64) {
    let rose = Rose::new(system);
    let profile = rose.profile();
    let counter = AfCounter {
        monitored: profile.infrequent_functions().into_iter().collect(),
        all: 0,
        kept: 0,
    };

    let mut hooks: Vec<Box<dyn KernelHook>> = vec![Box::new(counter)];
    match &capture.method {
        CaptureMethod::Scripted(s) => {
            hooks.push(Box::new(rose_inject::Executor::new(s.clone())));
        }
        CaptureMethod::Nemesis(cfg) | CaptureMethod::NemesisWithPrelude(cfg, _) => {
            hooks.push(Box::new(rose_jepsen::Nemesis::new(cfg.clone())));
        }
    }
    let mut sim = rose.deploy(33, hooks);
    sim.start();
    // "These schedules take on average 2 minutes to run" (§6.4).
    sim.run_for(SimDuration::from_secs(120));
    let c = sim.hook_ref::<AfCounter>().unwrap();
    (c.all, c.kept)
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
    // `jobs` of them concurrently and collect the counts in table order.
    let measured = ordered_map(jobs, cases, |id| {
        let name = id.info().name;
        report::section(format!("{name} …"));
        (name, visit_case(id, Measure))
    });

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
