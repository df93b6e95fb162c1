//! Measures **sweep redundancy** on the sweep-heavy bugs: how much
//! simulation work the Level-2/3 schedule sweeps repeat inside shared
//! fault-free prefixes. Consecutive candidates of an invocation sweep
//! differ only in when their faults fire, so everything before the first
//! injection re-simulates the identical prefix — the work a
//! fork-on-snapshot executor (ROADMAP item 1) would reclaim. This bin puts
//! a measured number on that target instead of a guess.
//!
//! For each of HDFS-12070, HDFS-15032, and ZK-4203 (the bugs whose
//! diagnoses lean hardest on invocation sweeps), the full workflow runs
//! with per-run event counting on, and the diagnosis report's
//! [`SweepRedundancy`](rose_analyze::SweepRedundancy) is written to
//! `BENCH_redundancy.json`.
//!
//! Usage: `cargo run -p rose-bench --release --bin redundancy [-- BUG ...] [-- --out BENCH_redundancy.json] [-- --jobs N] [-- --report out.jsonl] [-- --causal causal/]`
//! (positional `BUG` arguments name registry cases — e.g. `HDFS-12070
//! RoseRaft-COMPACT` — and default to the three sweep-heavy bugs above;
//! `--out <path>` — default `BENCH_redundancy.json` — is where the JSON
//! summary goes; `--jobs N` runs the campaigns concurrently with
//! bit-identical results; `--report` and `--causal` behave as in `table1`).
//! Flags are parsed strictly ([`rose_bench::args`]): an unknown flag or a bad
//! value prints the usage line to stderr and exits with status 2.

use rose_apps::driver::{run_case, DriverOptions};
use rose_apps::registry::BugId;
use rose_bench::args::Args;
use rose_bench::report::{self, ReportSink};
use rose_bench::table::render;
use rose_core::{ordered_map, RoseConfig};
use serde::Serialize;

/// One row of `BENCH_redundancy.json`.
#[derive(Serialize)]
struct RedundancyRow {
    bug: String,
    system: String,
    reproduced: bool,
    runs: usize,
    schedules_generated: usize,
    /// Simulation queue items executed across every charged testing run.
    events_total: u64,
    /// Events inside fault-free prefixes shared with the previous run.
    shared_prefix_events: u64,
    /// `events_total / (events_total - shared_prefix_events)`.
    redundancy_factor: f64,
}

#[derive(Serialize)]
struct RedundancyBench {
    bench: String,
    /// What a prefix-sharing executor would reclaim, per the measurement.
    interpretation: String,
    rows: Vec<RedundancyRow>,
}

const USAGE: &str =
    "usage: redundancy [BUG ...] [--out PATH] [--jobs N] [--report PATH] [--causal DIR]";

fn main() {
    let mut args = Args::from_env();
    let out_path: String = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_redundancy.json".into());
    let jobs = args.jobs();
    let report_path = args.report();
    let causal_dir = args.causal_dir();
    // No positionals → the sweep-heavy trio.
    let bugs = args.bugs(
        USAGE,
        &[BugId::Hdfs12070, BugId::Hdfs15032, BugId::Zookeeper4203],
    );
    let sink = ReportSink::open(report_path);

    let outcomes = ordered_map(jobs, bugs, |id| {
        let info = id.info();
        report::section(format!("{} ({}) …", info.name, info.system));
        let cfg = RoseConfig {
            // Event counting rides on the kernel's existing run loop; the
            // causal recorder is only attached when chains were asked for.
            causal: causal_dir.is_some(),
            ..RoseConfig::default()
        };
        let opts = DriverOptions {
            causal_dir: causal_dir.clone(),
            ..DriverOptions::default()
        };
        (id, run_case(id, cfg, &opts))
    });

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (id, out) in outcomes {
        let info = id.info();
        sink.write(&out.obs);
        let Some(rep) = out.report else {
            report::progress(format!("   {}: no trace captured, skipped", info.name));
            continue;
        };
        let r = &rep.redundancy;
        report::progress(format!(
            "   {}: {} events over {} runs, {} shared → factor {:.2}",
            info.name, r.events_total, rep.runs, r.shared_prefix_events, r.redundancy_factor
        ));
        table.push(vec![
            info.name.to_string(),
            rep.runs.to_string(),
            r.events_total.to_string(),
            r.shared_prefix_events.to_string(),
            format!("{:.2}", r.redundancy_factor),
        ]);
        rows.push(RedundancyRow {
            bug: info.name.to_string(),
            system: info.system.to_string(),
            reproduced: rep.reproduced,
            runs: rep.runs,
            schedules_generated: rep.schedules_generated,
            events_total: r.events_total,
            shared_prefix_events: r.shared_prefix_events,
            redundancy_factor: r.redundancy_factor,
        });
    }

    report::out("\nSweep redundancy on the sweep-heavy bugs\n");
    report::out(render(
        &["Bug", "#R", "Events", "Shared prefix", "Redundancy"],
        &table,
    ));

    let bench = RedundancyBench {
        bench: "sweep redundancy: simulated events re-executed inside shared fault-free \
                prefixes of consecutive schedule candidates"
            .into(),
        interpretation: "redundancy_factor = events_total / (events_total - \
                         shared_prefix_events); a fork-on-snapshot executor that resumed \
                         each candidate from the first injection point would simulate \
                         ~1/factor of the events the sweep pays today (ROADMAP item 1)"
            .into(),
        rows,
    };
    report::write_summary(&out_path, "redundancy summary", &bench);
    sink.announce();
}
