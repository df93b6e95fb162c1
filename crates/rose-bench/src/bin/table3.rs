//! Regenerates the paper's **Table 3**: the effectiveness of the function-
//! frequency heuristic. For each bug whose schedule involves application
//! functions, the reproducing schedule runs twice — once tracing *all*
//! functions from the developer-provided files and once tracing only the
//! infrequent ones kept by the heuristic — and the traced-function counts
//! are compared.
//!
//! Usage: `cargo run -p rose-bench --release --bin table3 [-- --jobs N] [-- --report out.jsonl] [-- --trace-dir traces/] [-- --causal causal/]`
//! (`--jobs N` / `ROSE_JOBS` measures up to `N` bugs concurrently;
//! `--report <path>` / `ROSE_REPORT` appends one JSONL profiling record per
//! bug: all function entries as `candidates`, heuristic-kept entries as
//! `kept`; `--trace-dir <dir>` / `ROSE_TRACE_DIR` additionally attaches a
//! Rose-mode tracer to each run and persists its dump as
//! `table3-<bug>.rosetrace`; `--causal <dir>` / `ROSE_CAUSAL` records causal provenance during each trigger run and
//! writes the injected faults' chains as `table3-<bug>.flow.json` +
//! `.dot` — these runs have no oracle, so chains are injection-rooted).
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
/// (all function entries, entries kept by the heuristic). When `persist` is
/// set, a Rose-mode tracer rides along and its dump is written to the trace
/// store; the tracer charges probe costs, so it is attached only on request
/// to keep the default counts unperturbed. When `causal` is set, a causal
/// provenance recorder rides along and the run's fault chains are written
/// as `<stem>.flow.json` + `<stem>.dot` (injection-rooted: these runs have
/// no oracle).
fn measure<S: TargetSystem>(
    system: S,
    capture: rose_apps::driver::CaptureSpec,
    persist: Option<(std::path::PathBuf, String)>,
    causal: Option<(std::path::PathBuf, String)>,
) -> (u64, u64) {
    let rose = Rose::new(system);
    let profile = rose.profile();
    let monitored: BTreeSet<String> = profile.infrequent_functions().into_iter().collect();
    let counter = AfCounter {
        monitored: monitored.clone(),
        all: 0,
        kept: 0,
    };

    let mut hooks: Vec<Box<dyn KernelHook>> = vec![Box::new(counter)];
    if persist.is_some() {
        hooks.push(Box::new(rose_trace::Tracer::new(
            rose_trace::TracerConfig::rose(monitored),
        )));
    }
    match &capture.method {
        CaptureMethod::Scripted(s) => {
            hooks.push(Box::new(rose_inject::Executor::new(s.clone())));
        }
        CaptureMethod::Nemesis(cfg) | CaptureMethod::NemesisWithPrelude(cfg, _) => {
            hooks.push(Box::new(rose_jepsen::Nemesis::new(cfg.clone())));
        }
    }
    let mut sim = rose.deploy(33, hooks);
    let recorder = causal.is_some().then(rose_sim::CausalRecorder::new);
    if let Some(rec) = &recorder {
        sim.attach_causal(rec.clone());
        if let Some(executor) = sim.hook_mut::<rose_inject::Executor>() {
            executor.attach_causal(rec.clone());
        }
    }
    sim.start();
    // "These schedules take on average 2 minutes to run" (§6.4).
    sim.run_for(SimDuration::from_secs(120));
    if let Some((dir, stem)) = persist {
        let now = sim.now();
        let trace = sim.hook_mut::<rose_trace::Tracer>().unwrap().dump(now);
        report::persist_trace_files(&dir, &stem, &trace);
    }
    if let (Some(rec), Some((dir, stem))) = (recorder, causal) {
        let chains = rose_obs::causal::propagation_chains(&rec.take_log());
        report::export_causal_files(&dir, &stem, &chains);
    }
    let c = sim.hook_ref::<AfCounter>().unwrap();
    (c.all, c.kept)
}

const USAGE: &str = "usage: table3 [--jobs N] [--report PATH] [--trace-dir DIR] [--causal DIR]";

fn main() {
    let mut args = Args::from_env();
    let jobs = args.jobs();
    let report_path = args.report();
    let trace_dir = args.trace_dir();
    let causal_dir = args.causal_dir();
    args.finish(USAGE);
    let sink = ReportSink::open(report_path);
    let mut rows = Vec::new();
    type Persist = Option<(std::path::PathBuf, String)>;
    struct Measure {
        persist: Persist,
        causal: Persist,
    }
    impl SystemVisitor for Measure {
        type Out = (u64, u64);
        fn visit<S: TargetSystem>(self, id: BugId, system: S) -> (u64, u64) {
            measure(system, capture_spec(id), self.persist, self.causal)
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
        let label = |dir: &std::path::PathBuf| (dir.clone(), format!("table3-{}", id.file_stem()));
        let visitor = Measure {
            persist: trace_dir.as_ref().map(label),
            causal: causal_dir.as_ref().map(label),
        };
        (name, visit_case(id, visitor))
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
