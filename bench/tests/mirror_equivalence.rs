//! The traced pass's phase-by-phase driver must do what `run_case` does,
//! and its mirrored testing run what `Rose::run_once` does — otherwise the
//! per-layer numbers would describe code nobody runs. Slow in a debug
//! build; `bench/check.sh` runs it with `--release`.

use rose_apps::driver::{run_case, visit_case, CaptureMethod, SystemVisitor};
use rose_apps::registry::BugId;
use rose_benchmark::cases::capture_spec;
use rose_benchmark::mirror::{self, RunCounters};
use rose_benchmark::spans::Spans;
use rose_benchmark::workloads::{diag_cases, driver_options, Inputs, Workload};
use rose_core::{Rose, RoseConfig, TargetSystem};
use rose_inject::FaultSchedule;

/// Everything a `DiagnosisReport` and its campaign decide, as one string.
fn summary(
    captured: bool,
    attempts: u32,
    report: Option<&rose_analyze::DiagnosisReport>,
    obs: &rose_obs::Obs,
) -> String {
    let r = report.map(|r| {
        (
            r.reproduced,
            r.level,
            r.replay_rate,
            r.runs,
            r.schedules_generated,
            r.redundancy.events_total,
            r.total_time,
            r.faults_injected.clone(),
            r.schedule.as_ref().map(FaultSchedule::to_yaml),
        )
    });
    format!(
        "captured={captured} attempts={attempts} virtual={:?} testing_runs={} report={r:?}",
        obs.campaign_elapsed(),
        obs.counter("workflow.testing_runs"),
    )
}

fn assert_workload_matches(w: Workload) {
    let inputs = Inputs::from_seed(42);
    let opts = driver_options(w, &inputs);
    for id in diag_cases(w, false).expect("a diagnosis workload") {
        let real = run_case(id, RoseConfig::default(), &opts);
        let mut spans = Spans::new();
        let mut counters = RunCounters::default();
        let mirrored =
            mirror::run_case(id, RoseConfig::default(), &opts, &mut spans, &mut counters);
        assert_eq!(
            summary(
                mirrored.captured,
                mirrored.capture_attempts,
                mirrored.report.as_ref(),
                &mirrored.obs
            ),
            summary(
                real.captured,
                real.capture_attempts,
                real.report.as_ref(),
                &real.obs
            ),
            "{} at jobs={}",
            id.info().name,
            opts.jobs
        );
        // The spans must cover what they claim: one run span per executed
        // testing run, and a committed run for every run the report charged.
        let runs = spans.durations("core.run_once").len() as u64;
        assert_eq!(runs, counters.runs, "{}", id.info().name);
        let charged = real.report.as_ref().map_or(0, |r| r.runs as u64);
        assert!(
            runs >= charged,
            "{}: {runs} spans, {charged} runs",
            id.info().name
        );
        if opts.jobs <= 1 {
            assert_eq!(
                runs,
                charged,
                "{}: no speculation at width 1",
                id.info().name
            );
            assert_eq!(counters.spec_handed, 0);
        }
    }
}

#[test]
fn mirrored_driver_matches_run_case_on_the_wide_campaign() {
    assert_workload_matches(Workload::DiagWide);
}

#[test]
fn mirrored_driver_matches_run_case_on_the_heavy_cases() {
    assert_workload_matches(Workload::DiagHeavy);
}

#[test]
fn mirrored_driver_matches_run_case_at_two_jobs() {
    assert_workload_matches(Workload::DiagHeavyJ2);
}

/// `mirror::run_once` against `Rose::run_once` under the case's own trigger
/// schedule (scripted captures) or none (nemesis captures).
struct RunOnceVisitor;

impl SystemVisitor for RunOnceVisitor {
    type Out = ();
    fn visit<S: TargetSystem>(self, id: BugId, system: S) {
        let rose = Rose::new(system);
        let profile = rose.profile();
        let schedule = match capture_spec(id).method {
            CaptureMethod::Scripted(s) => s,
            _ => FaultSchedule::new(),
        };
        for seed in [7, 10_031] {
            let real = rose.run_once(&profile, &schedule, seed);
            let (mirrored, counters) =
                mirror::run_once(&rose, &profile, &schedule, seed, &mut Spans::new());
            let name = id.info().name;
            assert_eq!(mirrored.bug, real.bug, "{name} seed {seed}");
            assert_eq!(mirrored.sim_events, real.sim_events, "{name} seed {seed}");
            assert_eq!(
                mirrored.events_before_injection, real.events_before_injection,
                "{name} seed {seed}"
            );
            assert_eq!(mirrored.af_calls, real.af_calls, "{name} seed {seed}");
            assert_eq!(mirrored.feedback, real.feedback, "{name} seed {seed}");
            assert_eq!(mirrored.wall, real.wall, "{name} seed {seed}");
            assert_eq!(counters.sim_events, real.sim_events);
            assert_eq!(counters.dump_events, real.trace.len() as u64);
        }
    }
}

#[test]
fn mirrored_run_matches_run_once_on_every_system() {
    for (_, id) in rose_benchmark::cases::SYSTEMS {
        visit_case(id, RunOnceVisitor);
    }
    // One scripted multi-fault trigger besides the per-system picks.
    visit_case(BugId::Hdfs15032, RunOnceVisitor);
}
