//! End-to-end telemetry: one full workflow run with reporting enabled must
//! yield one structured record per phase plus a campaign summary, and a
//! serde-round-trippable JSONL report that is byte-identical across
//! identical-seed reruns; a confirmation replay adds the reproduction
//! record; and the registry counts exactly the testing runs charged.

use std::collections::BTreeMap;

use rose_apps::driver::{run_case, DriverOptions};
use rose_apps::kafka::KafkaCase;
use rose_apps::registry::BugId;
use rose_core::{Rose, RoseConfig};
use rose_obs::{Obs, PhaseRecord, RunReport};

#[test]
fn full_workflow_emits_one_record_per_phase_and_a_campaign_summary() {
    let out = run_case(
        BugId::Kafka12508,
        RoseConfig::default(),
        &DriverOptions::default(),
    );
    assert!(
        out.captured,
        "Kafka-12508 capture is scripted and must succeed"
    );
    let records = out.obs.records();

    let mut by_phase: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &records {
        *by_phase.entry(r.phase()).or_default() += 1;
    }
    assert_eq!(
        by_phase,
        BTreeMap::from([
            ("campaign", 1),
            ("diagnosis", 1),
            ("profiling", 1),
            ("tracing", 1)
        ]),
        "expected exactly one record per phase"
    );
    // The campaign summary is last and counts the phase records before it.
    match records.last().unwrap() {
        PhaseRecord::Campaign(c) => {
            assert!(c.captured);
            assert_eq!(c.phase_records, records.len() - 1);
            assert!(
                c.campaign_virtual_secs > 0.0,
                "campaign clock never advanced"
            );
        }
        other => panic!("last record is {other:?}, not the campaign summary"),
    }

    // Phase spans cover the same campaign clock, in workflow order.
    let spans = out.obs.phases();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["profiling", "tracing", "diagnosis"]);
    for s in &spans {
        assert!(s.end.is_some(), "span {} left open", s.name);
    }

    // The profiling run's kernel totals travel in its phase record; the
    // registry itself counts only what the workflow layers publish.
    let profiled = records.iter().find_map(|r| match r {
        PhaseRecord::Profiling(p) => Some(p.syscalls),
        _ => None,
    });
    assert!(profiled.unwrap() > 0);
    assert!(out.obs.counter("workflow.testing_runs") > 0);
}

#[test]
fn a_confirmation_replay_appends_the_reproduction_record() {
    let out = run_case(
        BugId::Kafka12508,
        RoseConfig::default(),
        &DriverOptions::default(),
    );
    let schedule = out
        .report
        .and_then(|r| r.schedule)
        .expect("Kafka-12508 diagnoses to a schedule");

    let mut rose = Rose::new(KafkaCase);
    let obs = Obs::new();
    rose.attach_obs(obs.clone());
    let profile = rose.profile();
    let run = rose.confirm_reproduction(&profile, &schedule, 1);

    let records = obs.records();
    let [PhaseRecord::Profiling(_), PhaseRecord::Reproduction(repro)] = records.as_slice() else {
        panic!("expected a profiling then a reproduction record, got {records:?}");
    };
    assert_eq!(repro.schedule_faults, schedule.len());
    assert_eq!(repro.injections, run.feedback.injected.len());
    assert_eq!(repro.oracle_bug, run.bug);
    let names: Vec<String> = obs.phases().into_iter().map(|s| s.name).collect();
    assert_eq!(names, ["profiling", "reproduction"]);
}

#[test]
fn the_registry_counts_every_charged_run_at_every_width() {
    // Three discovery runs per schedule make the width-2 search execute
    // runs it never charges: the first one already shows the bug.
    for discovery_runs in [1, 3] {
        for jobs in [1, 2] {
            let mut cfg = RoseConfig::default();
            cfg.diagnosis.discovery_runs = discovery_runs;
            let opts = DriverOptions {
                jobs,
                ..DriverOptions::default()
            };
            let out = run_case(BugId::Kafka12508, cfg, &opts);
            let report = out.report.expect("Kafka-12508 is captured");
            assert_eq!(
                out.obs.counter("workflow.testing_runs"),
                report.runs as u64,
                "discovery_runs={discovery_runs} jobs={jobs}"
            );
        }
    }

    // A replay-rate measurement charges its `n` replays.
    let mut rose = Rose::new(KafkaCase);
    let obs = Obs::new();
    rose.attach_obs(obs.clone());
    let profile = rose.profile();
    let before = obs.counter("workflow.testing_runs");
    rose.replay_rate(&profile, &rose_inject::FaultSchedule::new(), 3, 7);
    assert_eq!(obs.counter("workflow.testing_runs") - before, 3);
}

#[test]
fn jsonl_report_round_trips_and_is_deterministic_across_reruns() {
    let opts = DriverOptions::default();
    let a = run_case(BugId::Kafka12508, RoseConfig::default(), &opts);
    let b = run_case(BugId::Kafka12508, RoseConfig::default(), &opts);

    let jsonl_a = a.obs.report().to_jsonl();
    let jsonl_b = b.obs.report().to_jsonl();
    assert_eq!(
        jsonl_a, jsonl_b,
        "identical seeds must give byte-identical JSONL"
    );

    let parsed = RunReport::from_jsonl(&jsonl_a).unwrap();
    assert_eq!(parsed.records, a.obs.records());
    assert_eq!(parsed.to_jsonl(), jsonl_a);
}
