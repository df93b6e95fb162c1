//! Full Rose workflow for the three hunted (unscripted) Raft EFIBs: each
//! must be captured by its nemesis, diagnosed to a deterministic replay
//! schedule at the target rate, and carry a causal propagation chain.
//!
//! Run with `--release`; these execute many simulated cluster runs.

use std::path::PathBuf;

use rose_apps::driver::{run_case, DriverOptions};
use rose_apps::registry::BugId;
use rose_core::RoseConfig;

fn causal_dir(id: BugId) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rose-raft-hunted")
        .join(format!("{id}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn drive(id: BugId) -> (rose_analyze::DiagnosisReport, PathBuf) {
    let dir = causal_dir(id);
    let opts = DriverOptions {
        causal_dir: Some(dir.clone()),
        ..DriverOptions::default()
    };
    let out = run_case(id, RoseConfig::default(), &opts);
    assert!(
        out.captured,
        "{id}: no invariant violation captured in {} attempts",
        out.capture_attempts
    );
    let rep = out.report.expect("diagnosis ran");
    assert!(
        rep.reproduced,
        "{id}: not reproduced (rate {:.0}%, {} schedules, {} runs)",
        rep.replay_rate, rep.schedules_generated, rep.runs
    );
    assert!(
        rep.replay_rate >= 60.0,
        "{id}: rate {:.0}%",
        rep.replay_rate
    );
    assert!(
        rep.schedule.is_some(),
        "{id}: reproduction must carry a replay schedule"
    );
    assert!(
        !rep.propagation.is_empty(),
        "{id}: causal provenance must record a propagation chain"
    );
    (rep, dir)
}

fn assert_causal_artifacts(id: BugId, dir: &PathBuf) {
    for ext in ["flow.json", "dot"] {
        let path = dir.join(format!("{}.{ext}", id.file_stem()));
        let data = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{id}: missing causal export {path:?}: {e}"));
        assert!(!data.is_empty(), "{id}: empty causal export {path:?}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn raft_snapshot_tear_reproduces_with_causal_chain() {
    let (rep, dir) = drive(BugId::RaftSnapshotTear);
    assert!(
        rep.faults_injected.contains("PS(Crash)"),
        "a crash fault drives the torn install: {}",
        rep.faults_injected
    );
    assert_causal_artifacts(BugId::RaftSnapshotTear, &dir);
}

#[test]
fn raft_compaction_loss_reproduces_with_causal_chain() {
    let (rep, dir) = drive(BugId::RaftCompactionLoss);
    assert!(
        rep.faults_injected.contains("PS(Crash)"),
        "a crash in the compaction window drives the loss: {}",
        rep.faults_injected
    );
    assert_causal_artifacts(BugId::RaftCompactionLoss, &dir);
}

#[test]
fn raft_reconfig_split_reproduces_with_causal_chain() {
    let (rep, dir) = drive(BugId::RaftReconfigSplit);
    assert!(
        rep.faults_injected.contains("ND"),
        "a partition across the joint window drives the split: {}",
        rep.faults_injected
    );
    assert_causal_artifacts(BugId::RaftReconfigSplit, &dir);
}
