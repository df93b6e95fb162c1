//! Regenerates the paper's **Table 1**: the 20 external-fault-induced bugs
//! reproduced by Rose, with the faults injected, replay rate, schedules
//! generated, runs, total (virtual) time, and the share of potential faults
//! removed by the trace diff — plus the §6.5 discussion summary (bugs per
//! diagnosis level).
//!
//! Usage: `cargo run -p rose-bench --release --bin table1 [-- --quick] [-- --jobs N] [-- --report out.jsonl] [-- --trace-dir traces/] [-- --causal causal/]`
//! (`--quick` runs the five RedisRaft rows only; `--jobs N` runs up to `N`
//! bug campaigns concurrently with bit-identical output; `--report <path>`
//! appends one JSONL phase record per workflow phase plus a campaign
//! summary per bug to `<path>`; `--trace-dir <dir>` persists each captured
//! trace as `<bug>.rosetrace` and diagnoses from the reloaded binary, with
//! byte-identical output; `--causal <dir>` records causal provenance during
//! testing runs and writes each bug's fault-propagation chains as
//! `<bug>.flow.json` + `<bug>.dot`).
//! Flags are parsed strictly ([`rose_bench::args`]): an unknown flag or a bad
//! value prints the usage line to stderr and exits with status 2.

use rose_apps::driver::{run_case, CaseOutcome, DriverOptions};
use rose_apps::registry::BugId;
use rose_bench::args::Args;
use rose_bench::report::{self, ReportSink};
use rose_bench::table::render;
use rose_core::{ordered_map, RoseConfig};

const USAGE: &str =
    "usage: table1 [--quick] [--jobs N] [--report PATH] [--trace-dir DIR] [--causal DIR]";

fn main() {
    let mut args = Args::from_env();
    let quick = args.flag("--quick");
    let jobs = args.jobs();
    let report_path = args.report();
    let trace_dir = args.trace_dir();
    let causal_dir = args.causal_dir();
    args.finish(USAGE);
    let sink = ReportSink::open(report_path);
    let bugs = BugId::campaign(quick);

    let mut rows = Vec::new();
    let mut levels = [0u32; 4];
    let mut reproduced = 0u32;
    let mut full_rate = 0u32;
    let mut first_try = 0u32;

    // Campaign-level pool: each case is an independent sequential workflow
    // (inner jobs stay at 1), so every per-bug report is bit-identical to a
    // lone run; `ordered_map` hands the outcomes back in Table 1 row order.
    let outcomes: Vec<(BugId, CaseOutcome, f64)> = ordered_map(jobs, bugs.to_vec(), |id| {
        let info = id.info();
        report::section(format!("{} ({}) …", info.name, info.system));
        let t0 = std::time::Instant::now();
        let opts = DriverOptions {
            trace_dir: trace_dir.clone(),
            causal_dir: causal_dir.clone(),
            ..DriverOptions::default()
        };
        let out = run_case(id, RoseConfig::default(), &opts);
        (id, out, t0.elapsed().as_secs_f64())
    });

    for (id, out, wall) in outcomes {
        let info = id.info();
        sink.write(&out.obs);
        match (&out.captured, &out.report) {
            (true, Some(rep)) => {
                report::progress(format!(
                    "   {}: captured in {} attempt(s), {} trace events; diagnosed in {wall:.1}s wall",
                    info.name, out.capture_attempts, out.trace_events
                ));
                if rep.reproduced {
                    reproduced += 1;
                    if rep.replay_rate >= 100.0 {
                        full_rate += 1;
                    }
                    if rep.schedules_generated == 1 {
                        first_try += 1;
                    }
                    levels[rep.level.min(3) as usize] += 1;
                }
                rows.push(vec![
                    info.name.to_string(),
                    info.source.tag().to_string(),
                    rep.faults_injected.clone(),
                    format!("{:.0}", rep.replay_rate),
                    rep.schedules_generated.to_string(),
                    rep.runs.to_string(),
                    format!("{:.0}", rep.total_time.as_mins_f64()),
                    format!("{:.0}", rep.extraction.removed_pct()),
                    if rep.reproduced {
                        format!("yes (L{})", rep.level)
                    } else {
                        "no".into()
                    },
                ]);
            }
            _ => {
                rows.push(vec![
                    info.name.to_string(),
                    info.source.tag().to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "no trace".into(),
                ]);
            }
        }
    }

    report::out("\nTable 1: Bugs reproduced by Rose (J=Jepsen, A=Anduril, M=Manual)\n");
    report::out(render(
        &[
            "Bug",
            "Src",
            "Faults Inj",
            "RR(%)",
            "Sched",
            "#R",
            "Time(m)",
            "FR%",
            "Reproduced",
        ],
        &rows,
    ));

    report::out("Summary (§6.5 discussion):");
    report::out(format!("  reproduced: {reproduced}/{}", rows.len()));
    report::out(format!("  100% replay rate: {full_rate}"));
    report::out(format!("  schedule found at first attempt: {first_try}"));
    report::out(format!(
        "  level distribution: L1={} L2={} L3={}",
        levels[1], levels[2], levels[3]
    ));
    sink.announce();
}
