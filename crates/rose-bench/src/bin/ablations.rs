//! Ablations of Rose's design choices (the knobs `DESIGN.md` calls out):
//!
//! 1. **Fault-order enforcement** (§4.6.1): replay RedisRaft-43's winning
//!    schedule with and without `AfterFault` prerequisites.
//! 2. **Amplification** (§4.5.2): diagnose RedisRaft-51 with the heuristic
//!    disabled.
//! 3. **Trace diff** (§4.5.1): diagnose a JVM-noise bug against an empty
//!    benign-fault profile.
//! 4. **Discovery retries** (§8 "False negatives"): a synthetic flaky bug
//!    diagnosed with 1 vs 3 discovery runs per schedule.
//! 5. **Execution indices** (Level 2.5): three SCF bugs diagnosed from the
//!    same extraction with and without its recorded execution indices —
//!    the paper's flat Level-2 invocation sweep against the default search.
//!
//! Usage: `cargo run -p rose-bench --release --bin ablations [-- --jobs N] [-- --report out.jsonl] [-- --trace-dir traces/] [-- --causal causal/]`
//! (`--jobs N` runs independent measurements — the two amplification
//! campaigns, the replay batches, the three flat-vs-EI bugs — across `N`
//! workers with bit-identical results; `--report <path>` appends the JSONL
//! phase records of the workflow-backed ablations to `<path>`;
//! `--trace-dir <dir>` saves the captured traces of the workflow-backed
//! ablations as `ablation-*.rosetrace`; `--causal <dir>` records causal
//! provenance and writes each workflow-backed ablation's propagation chains
//! as `ablation-*.flow.json` and `.dot`).
//! Flags are parsed strictly ([`rose_bench::args`]): an unknown flag or a bad
//! value prints the usage line to stderr and exits with status 2.

use rose_analyze::{Diagnoser, DiagnosisConfig, RunHarness, RunObservation};
use rose_apps::driver::{capture_and_diagnose, capture_buggy_trace, flat_vs_ei, DriverOptions};
use rose_apps::redisraft::{redisraft_capture, RedisRaftBug, RedisRaftCase};
use rose_apps::registry::BugId;
use rose_apps::zookeeper::{zookeeper_capture, ZkBug, ZkCase};
use rose_bench::args::Args;
use rose_bench::report::{self, ReportSink};
use rose_core::{ordered_map, Rose, RoseConfig};
use rose_events::{NodeId, SimDuration, SimTime};
use rose_inject::{Condition, FaultAction, FaultSchedule};
use rose_profile::{Profile, SymbolTable};

const USAGE: &str = "usage: ablations [--jobs N] [--report PATH] [--trace-dir DIR] [--causal DIR]";

fn main() {
    let mut args = Args::from_env();
    let jobs = args.jobs();
    let report_path = args.report();
    let trace_dir = args.trace_dir();
    let causal_dir = args.causal_dir();
    args.finish(USAGE);
    let sink = ReportSink::open(report_path);
    ablate_fault_order(&sink, jobs, trace_dir.clone(), causal_dir.clone());
    ablate_amplification(&sink, jobs, trace_dir, causal_dir);
    ablate_trace_diff(&sink);
    ablate_discovery_runs();
    ablate_execution_indices(jobs);
    sink.announce();
}

/// Ablation 1 — fault order: strip the `AfterFault` prerequisites from the
/// winning RedisRaft-43 schedule and measure both replay rates.
fn ablate_fault_order(
    sink: &ReportSink,
    jobs: usize,
    trace_dir: Option<std::path::PathBuf>,
    causal_dir: Option<std::path::PathBuf>,
) {
    report::out("== ablation 1: fault-order enforcement (RedisRaft-43)");
    let cfg = RoseConfig {
        jobs,
        causal: causal_dir.is_some(),
        ..Default::default()
    };
    let mut rose = Rose::with_config(
        RedisRaftCase {
            bug: RedisRaftBug::Rr43,
        },
        cfg,
    );
    rose.attach_obs(rose_obs::Obs::new());
    let profile = rose.profile();
    let opts = DriverOptions {
        trace_dir,
        trace_label: Some("ablation-fault-order-redisraft-43".into()),
        causal_dir,
        ..DriverOptions::default()
    };
    // Capture + diagnose with re-capture rounds, so a pathological first
    // trace does not leave the ablation without a winning schedule.
    let (_, report, _) = capture_and_diagnose(
        &rose,
        &profile,
        &redisraft_capture(RedisRaftBug::Rr43),
        &opts,
    );
    let report = report.expect("diagnosis ran");
    let ordered = report.schedule.expect("winning schedule");

    let mut unordered = ordered.clone();
    for f in &mut unordered.faults {
        f.conditions
            .retain(|c| !matches!(c, Condition::AfterFault { .. }));
    }

    // Replay each 20 times and measure (a) the replay rate and (b) how
    // often the faults fired in production order. `run_replays` uses the
    // same `base + 31·i` seed ladder the old sequential loop did, so the
    // percentages are identical at any `--jobs`.
    let fidelity = |sched: &FaultSchedule, base: u64| {
        let mut bug = 0u32;
        let mut in_order = 0u32;
        for r in rose.run_replays(&profile, sched, 20, base) {
            if r.bug {
                bug += 1;
            }
            let groups: Vec<usize> = r
                .feedback
                .injected
                .iter()
                .map(|(id, _)| sched.faults[*id].group)
                .collect();
            if groups.windows(2).all(|w| w[0] <= w[1]) {
                in_order += 1;
            }
        }
        (bug * 5, in_order * 5)
    };
    let (with_rate, with_order) = fidelity(&ordered, 21_000);
    let (wo_rate, wo_order) = fidelity(&unordered, 21_000);
    sink.write(rose.obs());
    report::out(format!(
        "   with order enforcement:    {with_rate}% replay, {with_order}% of runs in production order"
    ));
    report::out(format!(
        "   without order enforcement: {wo_rate}% replay, {wo_order}% of runs in production order\n"
    ));
}

/// Ablation 2 — Amplification: RedisRaft-51's context is role-specific;
/// without the heuristic the search cannot pin it to the leader.
fn ablate_amplification(
    sink: &ReportSink,
    jobs: usize,
    trace_dir: Option<std::path::PathBuf>,
    causal_dir: Option<std::path::PathBuf>,
) {
    report::out("== ablation 2: the Amplification heuristic (RedisRaft-51)");
    // The on/off campaigns are independent; run them concurrently and
    // report in the fixed on-then-off order.
    let outcomes = ordered_map(jobs, vec![true, false], |enabled| {
        let mut cfg = RoseConfig::default();
        cfg.diagnosis.enable_amplification = enabled;
        // Distinct labels keep the on/off runs from overwriting each
        // other's persisted traces.
        let opts = DriverOptions {
            trace_dir: trace_dir.clone(),
            causal_dir: causal_dir.clone(),
            trace_label: Some(format!(
                "ablation-amplification-{}-redisraft-51",
                if enabled { "on" } else { "off" }
            )),
            ..DriverOptions::default()
        };
        let out = rose_apps::driver::run_case(BugId::RedisRaft51, cfg, &opts);
        (enabled, out)
    });
    for (enabled, out) in outcomes {
        sink.write(&out.obs);
        let rep = out.report.expect("ran");
        report::out(format!(
            "   amplification {}: reproduced={} rate={:.0}% ({} schedules, {} runs, {} amplified)",
            if enabled { "on " } else { "off" },
            rep.reproduced,
            rep.replay_rate,
            rep.schedules_generated,
            rep.runs,
            rep.amplifications,
        ));
    }
    report::out("");
}

/// Ablation 3 — trace diff: without the benign-fault profile, every
/// recurring probe failure in the JVM-style trace becomes a candidate.
fn ablate_trace_diff(sink: &ReportSink) {
    report::out("== ablation 3: the benign-fault trace diff (Zookeeper-3006)");
    let mut rose = Rose::new(ZkCase { bug: ZkBug::Zk3006 });
    rose.attach_obs(rose_obs::Obs::new());
    let profile = rose.profile();
    let opts = DriverOptions::default();
    let (cap, _) = capture_buggy_trace(&rose, &profile, &zookeeper_capture(ZkBug::Zk3006), &opts);
    let cap = cap.expect("capture");

    let with = rose.extract(&profile, &cap.trace);
    let empty = Profile {
        // Keep the frequency data (the tracer configuration must match the
        // capture) but drop every benign fingerprint.
        benign: Default::default(),
        ..profile.clone()
    };
    let without = rose.extract(&empty, &cap.trace);
    report::out(format!(
        "   with diff:    {} fault events → {} candidate faults ({:.0}% removed)",
        with.stats.total_fault_events,
        with.stats.extracted,
        with.stats.removed_pct()
    ));
    report::out(format!(
        "   without diff: {} fault events → {} candidate faults ({:.0}% removed)",
        without.stats.total_fault_events,
        without.stats.extracted,
        without.stats.removed_pct()
    ));
    let rep_with = rose.reproduce_extracted(&profile, &with);
    let rep_without = rose.reproduce_extracted(&empty, &without);
    sink.write(rose.obs());
    report::out(format!(
        "   search cost: {} schedules with diff, {} without\n",
        rep_with.schedules_generated, rep_without.schedules_generated
    ));
}

/// Ablation 4 — discovery retries: a synthetic bug that fires on 40 % of
/// seeds is usually discarded as a false negative with one discovery run
/// and almost always caught (then confirmed) with three.
fn ablate_discovery_runs() {
    report::out("== ablation 4: discovery retries on a 40%-flaky trigger (§8)");

    struct Flaky {
        counter: u64,
    }
    impl RunHarness for Flaky {
        fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation {
            self.counter += 1;
            let has_context = schedule.faults.iter().any(|f| {
                f.conditions
                    .iter()
                    .any(|c| matches!(c, Condition::FunctionEntered { name } if name == "trigger"))
            });
            RunObservation {
                bug: has_context && seed % 5 < 2, // 40 % of seeds
                af_calls: vec![(NodeId(0), "trigger".into())],
                feedback: rose_inject::ExecutionFeedback {
                    injected: vec![(0, 1)],
                    armed: vec![0],
                },
                wall: SimDuration::from_secs(10),
                ..Default::default()
            }
        }
    }

    let extraction = rose_analyze::Extraction {
        faults: vec![rose_analyze::ExtractedFault {
            node: NodeId(0),
            ts: SimTime::from_secs(10),
            action: FaultAction::Crash,
            preceding: vec!["trigger".into()],
            ei: None,
        }],
        stats: Default::default(),
    };
    let profile = Profile::default();
    let symbols = SymbolTable::new();

    for (label, retries) in [("1 discovery run ", 1u32), ("3 discovery runs", 3)] {
        let mut tallies = (0u32, 0u32);
        for trial in 0..10u64 {
            let cfg = DiagnosisConfig {
                discovery_runs: retries,
                // A 40 % trigger can never clear the default 60 % bar;
                // accept at 35 % and disable the early abort so the
                // confirmation measures the true rate.
                target_replay_rate: 35.0,
                confirm_abort_correct: 9,
                base_seed: 1_000 * trial,
                ..Default::default()
            };
            let mut d = Diagnoser::new(cfg, &profile, &symbols, &extraction);
            let rep = d.diagnose(&mut Flaky { counter: 0 });
            if rep.reproduced {
                tallies.0 += 1;
            }
            tallies.1 += rep.runs as u32;
        }
        report::out(format!(
            "   {label}: reproduced in {}/10 trials (avg {} runs each)",
            tallies.0,
            tallies.1 / 10
        ));
    }
}

/// Ablation 5 — execution indices: the same extraction searched flat (the
/// paper's Level 2: the nth invocation of the failing call, whatever its
/// caller) and with its recorded indices (Level 2.5: the calling context
/// and per-context count). HDFS-12070 and Zookeeper-4203 are where the
/// recorded context replaces a sweep; Zookeeper-2247 is the one known cost,
/// a sub-100 % EI guess that is kept but pays for the flat search too.
fn ablate_execution_indices(jobs: usize) {
    report::out("\n== ablation 5: flat invocation sweep vs recorded execution index");
    let bugs = vec![BugId::Hdfs12070, BugId::Zookeeper4203, BugId::Zookeeper2247];
    let outcomes = ordered_map(jobs, bugs, |id| {
        let both = flat_vs_ei(id, RoseConfig::default(), &DriverOptions::default());
        (id, both.expect("capture"))
    });
    let cell = |rep: &rose_analyze::DiagnosisReport| {
        format!(
            "{:.0}% at L{} ({} schedules, {} runs)",
            rep.replay_rate, rep.level, rep.schedules_generated, rep.runs
        )
    };
    for (id, (flat, ei)) in outcomes {
        report::out(format!(
            "   {:<15} flat {} → EI {}",
            id.info().name,
            cell(&flat),
            cell(&ei)
        ));
    }
}
