//! Full Rose workflow for the three hunted (unscripted) Raft EFIBs: each
//! must be captured by its nemesis, diagnosed to a deterministic replay
//! schedule at the target rate, and carry a causal propagation chain.
//!
//! Every run of these workflows — nemesis captures, schedule candidates,
//! confirmation replays — is polled through [`PollByPoll`]: at each 5 s
//! boundary the run's incremental checker must report exactly what
//! `check_raft` reads from the whole journal so far.
//!
//! Run with `--release`; these execute many simulated cluster runs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use rose_apps::driver::{capture_spec, run_workflow, DriverOptions};
use rose_apps::raft::{RaftScenario, RoseRaft, RoseRaftCase};
use rose_apps::registry::BugId;
use rose_core::{RoseConfig, TargetSystem};
use rose_events::{NodeId, SimDuration};
use rose_jepsen::{check_raft, RaftChecker};
use rose_profile::SymbolTable;
use rose_sim::Sim;

/// Polls that compared equal, and how many of them saw a violation.
static POLLS: AtomicUsize = AtomicUsize::new(0);
static VIOLATING: AtomicUsize = AtomicUsize::new(0);

/// The hunted Raft target with its oracle checked against the from-scratch
/// checker at every poll.
#[derive(Clone)]
struct PollByPoll(RoseRaftCase);

impl TargetSystem for PollByPoll {
    type App = RoseRaft;

    fn name(&self) -> &str {
        self.0.name()
    }
    fn cluster_size(&self) -> u32 {
        self.0.cluster_size()
    }
    fn build_node(&self, node: NodeId) -> RoseRaft {
        self.0.build_node(node)
    }
    fn install(&self, sim: &mut Sim<RoseRaft>) {
        self.0.install(sim)
    }
    fn attach_workload(&self, sim: &mut Sim<RoseRaft>) {
        self.0.attach_workload(sim)
    }
    fn oracle(&self, sim: &Sim<RoseRaft>) -> bool {
        let verdict = self.0.oracle(sim);
        let polled = sim.core().oracle_state(|c: &mut RaftChecker| c.report());
        let whole = check_raft(&sim.core().logs);
        assert_eq!(
            polled.violations,
            whole.violations,
            "{} at {}: the polled checker and the whole-journal check disagree",
            self.name(),
            sim.now()
        );
        let tags = self.0.scenario.violation_tags();
        assert_eq!(verdict, tags.iter().any(|tag| whole.has(tag)));
        POLLS.fetch_add(1, Ordering::Relaxed);
        VIOLATING.fetch_add(usize::from(!whole.ok()), Ordering::Relaxed);
        verdict
    }
    fn symbols(&self) -> SymbolTable {
        self.0.symbols()
    }
    fn run_duration(&self) -> SimDuration {
        self.0.run_duration()
    }
    fn oracle_cost(&self) -> SimDuration {
        self.0.oracle_cost()
    }
    fn oracle_description(&self) -> String {
        self.0.oracle_description()
    }
}

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
    let scenario = match id {
        BugId::RaftSnapshotTear => RaftScenario::SnapshotTear,
        BugId::RaftCompactionLoss => RaftScenario::CompactionLoss,
        BugId::RaftReconfigSplit => RaftScenario::ReconfigSplit,
        other => panic!("{other} is not a hunted Raft bug"),
    };
    let system = PollByPoll(RoseRaftCase { scenario });
    let (polls, violating) = (
        POLLS.load(Ordering::Relaxed),
        VIOLATING.load(Ordering::Relaxed),
    );
    let out = run_workflow(id, system, capture_spec(id), RoseConfig::default(), &opts);
    // The counters are shared by the tests of this binary; they only grow.
    assert!(POLLS.load(Ordering::Relaxed) > polls + 100, "{id}: polls");
    assert!(
        VIOLATING.load(Ordering::Relaxed) > violating,
        "{id}: some poll saw a violation"
    );
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
