//! Oracle-only rediscovery: hunting campaigns over registry bugs.
//!
//! Every selected registry case is handed to `rose-hunt` with *only* its
//! target system and invariant oracle — no capture schedule, no nemesis
//! script, no symptom grep. The hunt explores the fault space from a
//! fault-free baseline (whole-node menu + observed injection sites,
//! co-evolving as faults reveal recovery paths) and, on discovery, hands
//! the winning schedule to the Level-2.5 diagnosis for a confirmed report
//! with causal provenance. Per-bug outcomes land in `BENCH_hunt.json`.
//!
//! The entire campaign is deterministic: per-candidate seeds derive from
//! schedule fingerprints and frontier order is a pure function of the
//! candidate set, so `BENCH_hunt.json` and the `--log` frontier JSONL are
//! byte-identical at every `--jobs` width (the `check.sh` hunt gate
//! diffs them at widths 1 and 4).
//!
//! Usage: `cargo run -p rose-bench --release --bin hunt [-- BUG ...]
//! [-- --budget N] [-- --seed N] [-- --jobs N] [-- --out BENCH_hunt.json]
//! [-- --log hunt_frontier.jsonl] [-- --state-dir DIR] [-- --report out.jsonl]`
//!
//! Positional `BUG` arguments name registry cases (default: all of them,
//! hunted ones included, in registry order); `--budget` caps exploration
//! runs per bug (default 192, at least 1); `--state-dir` persists per-bug
//! visited sets (`<bug>.visited`, the rose-store `RVST` format) so later
//! campaigns skip known contexts; `--log` appends one JSONL line per
//! exploration run.
//! Flags are parsed strictly ([`rose_bench::args`]): an unknown flag, a bad
//! value or an unknown bug name prints the usage line to stderr and exits
//! with status 2.

use std::fs::File;
use std::io::{self, Write};
use std::num::NonZeroUsize;
use std::path::PathBuf;

use rose_apps::driver::{visit_case, SystemVisitor};
use rose_apps::registry::{BugId, DiscoveryId};
use rose_bench::args::Args;
use rose_bench::report::{self, ReportSink};
use rose_bench::table::render;
use rose_core::TargetSystem;
use rose_hunt::{hunt, FrontierRecord, HuntConfig, HuntOutcome};
use rose_inject::schedule_fingerprint;
use rose_obs::PhaseRecord;
use serde::Serialize;

/// One bug's hunt outcome in `BENCH_hunt.json`.
#[derive(Serialize)]
struct HuntRow {
    bug: String,
    system: String,
    budget_runs: usize,
    runs: usize,
    candidates: usize,
    contexts_visited: usize,
    max_depth: usize,
    discovered: bool,
    discovery_run: usize,
    /// `Hunt-<bug>-<fingerprint>` id of the discovered schedule.
    discovery_id: Option<String>,
    schedule_faults: usize,
    schedule_summary: String,
    confirmed: bool,
    replay_rate_pct: f64,
    diagnosis_level: u8,
    /// Causal propagation chains the confirming diagnosis recorded.
    propagation_chains: usize,
    virtual_secs: f64,
}

impl HuntRow {
    /// The row of `id`'s campaign outcome.
    fn new(id: BugId, outcome: &HuntOutcome) -> Self {
        let info = id.info();
        let s = &outcome.stats;
        let (discovery_id, schedule_summary, diagnosis_level, propagation_chains) =
            match &outcome.discovery {
                Some(d) => (
                    Some(
                        DiscoveryId {
                            base: id,
                            fingerprint: schedule_fingerprint(&d.schedule),
                        }
                        .to_string(),
                    ),
                    d.schedule.summary(),
                    d.report.level,
                    d.report.propagation.len(),
                ),
                None => (None, String::new(), 0, 0),
            };
        HuntRow {
            bug: info.name.to_string(),
            system: info.system.to_string(),
            budget_runs: s.budget_runs,
            runs: s.runs,
            candidates: s.candidates,
            contexts_visited: s.contexts_visited,
            max_depth: s.max_depth,
            discovered: s.discovered,
            discovery_run: s.discovery_run,
            discovery_id,
            schedule_faults: s.schedule_faults,
            schedule_summary,
            confirmed: s.confirmed,
            replay_rate_pct: s.replay_rate_pct,
            diagnosis_level,
            propagation_chains,
            virtual_secs: s.virtual_secs,
        }
    }

    /// The row's cells in the stdout table: `-` for what only a discovery has.
    fn cells(&self) -> Vec<String> {
        let found = |cell: String| if self.discovered { cell } else { "-".into() };
        vec![
            self.bug.clone(),
            found(self.discovery_run.to_string()),
            self.runs.to_string(),
            self.candidates.to_string(),
            self.contexts_visited.to_string(),
            self.max_depth.to_string(),
            found(self.schedule_summary.clone()),
            if self.confirmed { "yes" } else { "no" }.to_string(),
            format!("{:.0}", self.replay_rate_pct),
        ]
    }
}

#[derive(Serialize)]
struct HuntBench {
    bench: String,
    interpretation: String,
    budget_runs: usize,
    seed: u64,
    bugs: usize,
    discovered: usize,
    confirmed: usize,
    rows: Vec<HuntRow>,
}

struct HuntVisitor {
    cfg: HuntConfig,
}

impl SystemVisitor for HuntVisitor {
    type Out = Result<HuntOutcome, rose_store::StoreError>;
    fn visit<S: TargetSystem>(self, id: BugId, system: S) -> Self::Out {
        hunt(system, id.info().name, &self.cfg)
    }
}

/// Appends one JSONL line per exploration run of `bug` to the frontier log.
fn write_log(file: &mut File, bug: &str, records: &[FrontierRecord]) -> io::Result<()> {
    #[derive(Serialize)]
    struct LogLine {
        bug: String,
        record: FrontierRecord,
    }
    for record in records {
        let line = serde_json::to_string(&LogLine {
            bug: bug.to_string(),
            record: record.clone(),
        })
        .map_err(io::Error::other)?;
        writeln!(file, "{line}")?;
    }
    Ok(())
}

const USAGE: &str = "usage: hunt [BUG ...] [--budget N] [--seed N] [--jobs N] [--out PATH] \
                     [--log PATH] [--state-dir DIR] [--report PATH]";

fn main() {
    let mut args = Args::from_env();
    let out_path: String = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_hunt.json".into());
    let budget = args.value("--budget").map_or(192, NonZeroUsize::get);
    let seed: u64 = args.value("--seed").unwrap_or(42);
    let state_dir: Option<PathBuf> = args.value("--state-dir");
    let log_path: Option<PathBuf> = args.value("--log");
    let jobs = args.jobs();
    let report_path = args.report();
    let bugs = args.bugs(USAGE, &BugId::all_with_hunted());

    // The paths this bin can fail on come first: a bad one exits before
    // the report file gets its header.
    if let Some(dir) = &state_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create state dir {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let mut log = log_path.map(|p| match File::create(&p) {
        Ok(file) => (p, file),
        Err(e) => {
            eprintln!("cannot create log file {}: {e}", p.display());
            std::process::exit(2);
        }
    });
    let sink = ReportSink::open(report_path);

    // Bugs run sequentially; the hunt itself fans its frontier batches
    // (and the hand-off diagnosis) across `--jobs` workers.
    let mut rows = Vec::new();
    for id in bugs {
        let info = id.info();
        report::section(format!("hunting {} ({}) …", info.name, info.system));
        let cfg = HuntConfig {
            budget,
            seed,
            jobs,
            visited_path: state_dir
                .as_ref()
                .map(|d| d.join(format!("{}.visited", id.file_stem()))),
        };
        let outcome = match visit_case(id, HuntVisitor { cfg }) {
            Ok(outcome) => outcome,
            Err(e) => {
                report::progress(format!("   {}: hunt failed: {e}", info.name));
                continue;
            }
        };
        // A log that cannot take a line is reported once and not written
        // again: what follows the lost lines would not be the frontier.
        if let Some((path, file)) = &mut log {
            if let Err(e) = write_log(file, info.name, &outcome.log) {
                report::progress(format!(
                    "warning: could not write frontier log {}: {e}",
                    path.display()
                ));
                log = None;
            }
        }
        sink.write_records(&[PhaseRecord::Hunt(outcome.stats.clone())]);
        let row = HuntRow::new(id, &outcome);
        report::progress(format!(
            "   {}: {} after {}/{} runs{}",
            row.bug,
            if row.discovered {
                "DISCOVERED"
            } else {
                "nothing"
            },
            row.discovery_run.max(row.runs),
            row.budget_runs,
            if row.discovered {
                format!(
                    " — {} ({} fault(s)), confirmed={} at {:.0}%",
                    row.schedule_summary, row.schedule_faults, row.confirmed, row.replay_rate_pct
                )
            } else {
                String::new()
            },
        ));
        rows.push(row);
    }

    report::out("\nOracle-only hunting campaigns (co-evolving frontier search)\n");
    report::out(render(
        &[
            "Bug", "Found@", "Runs", "Cand", "Ctx", "Depth", "Schedule", "Conf", "RR%",
        ],
        &rows.iter().map(HuntRow::cells).collect::<Vec<_>>(),
    ));
    let discovered = rows.iter().filter(|r| r.discovered).count();
    let confirmed = rows.iter().filter(|r| r.confirmed).count();
    report::out(format!(
        "discovered {discovered}/{} within {budget} runs each; {confirmed} confirmed by diagnosis",
        rows.len()
    ));

    let bench = HuntBench {
        bench: "oracle-only EFIB rediscovery via co-evolving fault-space exploration".into(),
        interpretation: "each case is hunted from its invariant oracle alone — no capture \
                         schedule or symptom script; the frontier seeds from a fault-free \
                         run (whole-node menu + observed function/execution-index sites), \
                         children target contexts their parent's faults newly revealed, \
                         errnos come from a per-syscall realism model, and every discovery \
                         is confirmed by the Level-2.5 diagnosis with the winning schedule \
                         as its seed guess; byte-identical at any --jobs width"
            .into(),
        budget_runs: budget,
        seed,
        bugs: rows.len(),
        discovered,
        confirmed,
        rows,
    };
    report::write_summary(&out_path, "hunt summary", &bench);
    sink.announce();
}
