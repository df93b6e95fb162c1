//! Flat-counter vs **execution-index** SCF-sweep ablation: every registry
//! bug (the 20 paper cases plus the 3 hunted Raft EFIBs) is diagnosed twice
//! — once with the paper's Level-2 flat invocation sweep, once with Level
//! 2.5 enabled (`DiagnosisConfig::ei`), where SCF injections key on the
//! failing call's recorded calling context and per-context count. The
//! per-bug replay rates and sweep sizes land in `BENCH_ei.json`.
//!
//! The flat counter drifts whenever interleaving changes add or remove
//! unrelated invocations, which is what the sweep's cap of 50 papers over;
//! an execution index pins the injection to its calling context, so the
//! sweep only has to cover the (far fewer) per-context counts.
//!
//! Usage: `cargo run -p rose-bench --release --bin ei [-- BUG ...] [-- --out BENCH_ei.json] [-- --jobs N] [-- --report out.jsonl]`
//! (positional `BUG` arguments name registry cases and default to all 23;
//! `--out <path>` — default `BENCH_ei.json` — is where the JSON summary
//! goes; `--jobs N` / `ROSE_JOBS` runs the campaigns concurrently with
//! bit-identical results; `--report` / `ROSE_REPORT` behaves as in
//! `table1`).
//! Flags are parsed strictly ([`rose_bench::args`]): an unknown flag or a bad
//! value prints the usage line to stderr and exits with status 2.

use rose_apps::driver::{run_case, DriverOptions};
use rose_apps::registry::BugId;
use rose_bench::args::Args;
use rose_bench::report::{self, ReportSink};
use rose_bench::table::render;
use rose_core::{ordered_map, RoseConfig};
use serde::Serialize;

/// One bug's flat-vs-EI comparison in `BENCH_ei.json`.
#[derive(Serialize)]
struct EiRow {
    bug: String,
    system: String,
    flat_reproduced: bool,
    flat_replay_rate_pct: f64,
    flat_schedules: usize,
    flat_runs: usize,
    ei_reproduced: bool,
    ei_replay_rate_pct: f64,
    ei_schedules: usize,
    ei_runs: usize,
    /// SCF faults the EI run swept by recorded execution index.
    ei_sweeps: usize,
    /// Schedules generated inside those EI-keyed sweeps.
    ei_sweep_schedules: usize,
}

#[derive(Serialize)]
struct EiBench {
    bench: String,
    interpretation: String,
    /// Bugs whose EI replay rate is at least the flat rate.
    replay_no_worse: usize,
    /// Bugs whose EI replay rate strictly improved.
    replay_improved: usize,
    /// Candidate schedules across all bugs, flat mode.
    total_flat_schedules: usize,
    /// Candidate schedules across all bugs, EI mode.
    total_ei_schedules: usize,
    rows: Vec<EiRow>,
}

const USAGE: &str = "usage: ei [BUG ...] [--out PATH] [--jobs N] [--report PATH]";

fn main() {
    let mut args = Args::from_env();
    let out_path: String = args
        .value("--out", None)
        .unwrap_or_else(|| "BENCH_ei.json".into());
    let jobs = args.jobs();
    let report_path = args.report();
    // No positionals → all 23 registry cases.
    let bugs = args.bugs(USAGE, &BugId::all_with_hunted());
    let sink = ReportSink::open(report_path);

    // Each worker runs the same bug's flat and EI campaigns back to back,
    // so both modes see identical capture seeds and the comparison isolates
    // the sweep keying.
    let outcomes = ordered_map(jobs, bugs, |id| {
        let info = id.info();
        report::section(format!("{} ({}) flat vs EI …", info.name, info.system));
        let opts = DriverOptions::default();
        let flat = run_case(id, RoseConfig::default(), &opts);
        let mut cfg = RoseConfig::default();
        cfg.diagnosis.ei = true;
        let ei = run_case(id, cfg, &opts);
        (id, flat, ei)
    });

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (id, flat, ei) in outcomes {
        let info = id.info();
        sink.write(&flat.obs);
        sink.write(&ei.obs);
        let (Some(f), Some(e)) = (flat.report, ei.report) else {
            report::progress(format!("   {}: no trace captured, skipped", info.name));
            continue;
        };
        report::progress(format!(
            "   {}: replay {:.0}% → {:.0}%, schedules {} → {} ({} EI sweep(s), {} EI schedule(s))",
            info.name,
            f.replay_rate,
            e.replay_rate,
            f.schedules_generated,
            e.schedules_generated,
            e.ei_sweeps,
            e.ei_schedules,
        ));
        table.push(vec![
            info.name.to_string(),
            format!("{:.0}", f.replay_rate),
            format!("{:.0}", e.replay_rate),
            f.schedules_generated.to_string(),
            e.schedules_generated.to_string(),
            e.ei_sweeps.to_string(),
            e.ei_schedules.to_string(),
        ]);
        rows.push(EiRow {
            bug: info.name.to_string(),
            system: info.system.to_string(),
            flat_reproduced: f.reproduced,
            flat_replay_rate_pct: f.replay_rate,
            flat_schedules: f.schedules_generated,
            flat_runs: f.runs,
            ei_reproduced: e.reproduced,
            ei_replay_rate_pct: e.replay_rate,
            ei_schedules: e.schedules_generated,
            ei_runs: e.runs,
            ei_sweeps: e.ei_sweeps,
            ei_sweep_schedules: e.ei_schedules,
        });
    }

    report::out("\nFlat-counter vs execution-index SCF sweeps\n");
    report::out(render(
        &[
            "Bug",
            "RR flat",
            "RR EI",
            "Sched flat",
            "Sched EI",
            "EI sweeps",
            "EI scheds",
        ],
        &table,
    ));

    let replay_no_worse = rows
        .iter()
        .filter(|r| r.ei_replay_rate_pct >= r.flat_replay_rate_pct)
        .count();
    let replay_improved = rows
        .iter()
        .filter(|r| r.ei_replay_rate_pct > r.flat_replay_rate_pct)
        .count();
    let total_flat_schedules: usize = rows.iter().map(|r| r.flat_schedules).sum();
    let total_ei_schedules: usize = rows.iter().map(|r| r.ei_schedules).sum();
    report::out(format!(
        "replay no worse on {replay_no_worse}/{} (improved on {replay_improved}); \
         schedules {total_flat_schedules} flat vs {total_ei_schedules} EI",
        rows.len()
    ));

    let bench = EiBench {
        bench: "flat-counter vs execution-index SCF sweeps over every registry bug".into(),
        interpretation: "EI keys an injection on (calling context, per-context count) \
                         instead of the nth flat invocation, so the sweep covers the \
                         handful of recorded per-context counts instead of up to 50 flat \
                         indices and stays pinned under interleaving drift; the flat \
                         sweep remains the fallback when the recorded context never \
                         matches in replays"
            .into(),
        replay_no_worse,
        replay_improved,
        total_flat_schedules,
        total_ei_schedules,
        rows,
    };
    report::write_summary(&out_path, "EI ablation", &bench);
    sink.announce();
}
