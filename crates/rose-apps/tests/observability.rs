//! End-to-end telemetry: one full workflow run with reporting enabled must
//! yield one structured record per phase plus a campaign summary, a
//! serde-round-trippable JSONL report that is byte-identical across
//! identical-seed reruns, and a schema-valid Chrome trace export.

use std::collections::BTreeMap;
use std::path::PathBuf;

use rose_apps::driver::{run_case, DriverOptions};
use rose_apps::registry::BugId;
use rose_core::RoseConfig;
use rose_obs::{ChromeTrace, PhaseRecord, RunReport};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rose-obs-it-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(trace_dir: Option<PathBuf>) -> DriverOptions {
    DriverOptions {
        verify_reproduction: true,
        chrome_trace_dir: trace_dir,
        ..DriverOptions::default()
    }
}

#[test]
fn full_workflow_emits_one_record_per_phase_and_a_campaign_summary() {
    let out = run_case(BugId::Kafka12508, RoseConfig::default(), &opts(None));
    assert!(
        out.captured,
        "Kafka-12508 capture is scripted and must succeed"
    );
    let records = out.obs.records();

    let mut by_phase: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &records {
        *by_phase.entry(r.phase()).or_default() += 1;
    }
    for phase in [
        "profiling",
        "tracing",
        "diagnosis",
        "reproduction",
        "campaign",
    ] {
        assert_eq!(
            by_phase.get(phase).copied().unwrap_or(0),
            1,
            "expected exactly one {phase} record, got {by_phase:?}"
        );
    }
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
    assert_eq!(names, ["profiling", "tracing", "diagnosis", "reproduction"]);
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
fn jsonl_report_round_trips_and_is_deterministic_across_reruns() {
    let a = run_case(BugId::Kafka12508, RoseConfig::default(), &opts(None));
    let b = run_case(BugId::Kafka12508, RoseConfig::default(), &opts(None));

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

#[test]
fn chrome_trace_export_is_written_and_schema_valid() {
    let dir = tmpdir("chrome");
    let out = run_case(
        BugId::Kafka12508,
        RoseConfig::default(),
        &opts(Some(dir.clone())),
    );
    assert!(out.captured);

    let path = dir.join("kafka-12508.trace.json");
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
    let chrome = ChromeTrace::from_json(&json).unwrap();
    assert!(!chrome.trace_events.is_empty(), "empty trace export");

    for ev in &chrome.trace_events {
        assert!(!ev.name.is_empty(), "unnamed event");
        assert!(
            ["X", "i", "M"].contains(&ev.ph.as_str()),
            "unknown ph {:?}",
            ev.ph
        );
        match ev.ph.as_str() {
            "X" => assert!(ev.dur.unwrap_or(0) >= 1, "complete event without dur"),
            "i" => assert_eq!(ev.s.as_deref(), Some("t"), "instant without scope"),
            _ => {}
        }
    }
    // The campaign phase track rides on pid 0; per-node tracks on pid ≥ 1.
    assert!(chrome
        .trace_events
        .iter()
        .any(|e| e.pid == 0 && e.ph == "X"));
    assert!(chrome.trace_events.iter().any(|e| e.pid >= 1));

    // With verify_reproduction on, the confirmation replay is exported too,
    // with the injection lane populated from executor feedback.
    let repro = dir.join("kafka-12508.repro.trace.json");
    let repro = std::fs::read_to_string(&repro)
        .unwrap_or_else(|e| panic!("missing {}: {e}", repro.display()));
    let repro = ChromeTrace::from_json(&repro).unwrap();
    assert!(
        repro
            .trace_events
            .iter()
            .any(|e| e.name.starts_with("inject ")),
        "no injection markers in the reproduction export"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
