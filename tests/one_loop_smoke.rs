//! Tier-1 smoke for the two collapsed dispatch points: the diagnosis
//! search is one loop whose batch size is all `speculation` selects, and
//! the registry has one dispatch table behind `run_case`, `visit_case` and
//! `capture_spec`.

use rose::apps::driver::{
    capture_spec, flat_vs_ei, run_case, run_workflow, visit_case, CaseOutcome, DriverOptions,
    SystemVisitor,
};
use rose::apps::registry::BugId;
use rose::core::{RoseConfig, TargetSystem};
use rose::events::SimDuration;

/// Everything a campaign decides, as one string.
fn summary(out: &CaseOutcome) -> String {
    format!(
        "captured={} attempts={} events={} report={}",
        out.captured,
        out.capture_attempts,
        out.trace_events,
        serde_json::to_string(&out.report).expect("report serializes"),
    )
}

#[test]
fn speculation_width_does_not_change_the_report() {
    // HDFS-12070's recorded execution index pins the failing call at the
    // Level-1 guess; through the driver, width 3 must report what width 1
    // does.
    let diagnose = |jobs: usize| {
        let opts = DriverOptions {
            jobs,
            ..DriverOptions::default()
        };
        let out = run_case(BugId::Hdfs12070, RoseConfig::default(), &opts);
        let report = out.report.as_ref().expect("trace captured");
        assert!(report.reproduced && report.level == 1);
        summary(&out)
    };
    assert_eq!(diagnose(3), diagnose(1));

    // Stripped of the index it needs the flat Level-2 invocation sweep (5
    // schedules), so width 3 speculates past the hit and must discard what
    // it over-ran.
    let both = |jobs: usize| {
        let mut cfg = RoseConfig {
            jobs,
            ..RoseConfig::default()
        };
        cfg.diagnosis.speculation = jobs;
        let (flat, ei) =
            flat_vs_ei(BugId::Hdfs12070, cfg, &DriverOptions::default()).expect("trace captured");
        assert!(flat.reproduced && flat.level == 2 && flat.schedules_generated == 5);
        assert!(ei.reproduced && ei.level == 1 && ei.schedules_generated == 1);
        serde_json::to_string(&(flat, ei)).expect("reports serialize")
    };
    assert_eq!(both(3), both(1));
}

/// `run_case` against its public parts composed by hand. The search is cut
/// to the Level-1 guess and one confirmation run, after a short profile:
/// the dispatch is under test, not the diagnosis.
fn assert_composed_matches_run_case(id: BugId) {
    struct Composed<'a> {
        cfg: RoseConfig,
        opts: &'a DriverOptions,
    }
    impl SystemVisitor for Composed<'_> {
        type Out = CaseOutcome;
        fn visit<S: TargetSystem>(self, id: BugId, system: S) -> CaseOutcome {
            run_workflow(id, system, capture_spec(id), self.cfg, self.opts)
        }
    }

    let mut cfg = RoseConfig {
        profiling_duration: SimDuration::from_secs(10),
        ..RoseConfig::default()
    };
    cfg.diagnosis.max_schedules = 1;
    cfg.diagnosis.confirm_runs = 1;
    let opts = DriverOptions {
        // Captures both heavy cases at the first attempt.
        capture_seed: 5,
        max_diagnosis_rounds: 1,
        ..DriverOptions::default()
    };
    let cfg2 = cfg.clone();
    let composed = visit_case(id, Composed { cfg, opts: &opts });
    let direct = run_case(id, cfg2, &opts);
    assert!(direct.captured, "{id}: no trace captured");
    assert_eq!(summary(&composed), summary(&direct), "{id}");
}

// One case per target system, the cheapest of each; the two heavy systems
// get their own test so the harness runs them side by side.

#[test]
fn capture_spec_plus_visit_case_is_run_case_on_the_light_systems() {
    for id in [
        BugId::Redpanda3003,
        BugId::Zookeeper3006,
        BugId::Hdfs4233,
        BugId::Kafka12508,
        BugId::Hbase19608,
        BugId::Mongo243,
        BugId::Tendermint5839,
    ] {
        assert_composed_matches_run_case(id);
    }
}

#[test]
fn capture_spec_plus_visit_case_is_run_case_on_redisraft() {
    assert_composed_matches_run_case(BugId::RedisRaftNew2);
}

#[test]
fn capture_spec_plus_visit_case_is_run_case_on_roseraft() {
    assert_composed_matches_run_case(BugId::RaftCompactionLoss);
}
