//! An in-repo Raft KV store hunted for *unscripted* faults.
//!
//! Every other system in this crate carries seeded, individually-gated
//! defects with scripted symptom oracles: the behaviour model knows its
//! bug and says so in the log. This module is the opposite experiment —
//! a genuine (small) Raft implementation whose oracle is the set of Raft
//! **safety invariants** ([`rose_jepsen::check_raft`]): election safety,
//! leader append-only, log matching / state-machine safety, and snapshot
//! integrity. Rose campaigns against it the way the paper's workflow runs
//! against a production system: randomized Jepsen-style faults until the
//! invariant checker fires, then diagnosis narrows the captured trace to a
//! minimal deterministic schedule.
//!
//! Three externally-triggered failure scenarios are hunted (each is a
//! plausible engineering shortcut in a cold path, not a gated bug switch):
//!
//! * [`RaftScenario::SnapshotTear`] — chunked snapshot installs stream to
//!   the live file after a header rename; a receiver crash mid-stream
//!   leaves a torn image that recovery accepts (snapshot-divergence).
//! * [`RaftScenario::CompactionLoss`] — compaction truncates the log
//!   (stage A) before the deferred snapshot write (stage B); a crash in
//!   the window loses applied state while recovery trusts both files
//!   (chain-divergence).
//! * [`RaftScenario::ReconfigSplit`] — membership entries are adopted on
//!   append rather than joint-committed; a partition laid across a shrink
//!   lets both sides form quorums (conflicting-commit / dual-leaders).

pub mod client;
pub mod kv;
pub mod log;
pub mod node;

use rose_events::{NodeId, SimDuration};
use rose_profile::{site, SymbolTable};

pub use client::{KvClient, ReconfigAdmin};
pub use kv::{KvState, SnapImage};
pub use log::{Cmd, Entry, RaftLog};
pub use node::{RaftMsg, RoseRaft};

/// Which hunted failure scenario a campaign targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaftScenario {
    /// Receiver crash mid snapshot transfer → torn snapshot accepted on
    /// recovery.
    SnapshotTear,
    /// Crash between compaction stage A and stage B → applied state lost
    /// behind a truncated log.
    CompactionLoss,
    /// Group partition across a joint-consensus shrink → disjoint quorums.
    ReconfigSplit,
}

impl RaftScenario {
    /// The invariant-violation tags that count as *this* scenario's
    /// failure (the checker reports all classes; a campaign hunts one).
    pub fn violation_tags(self) -> &'static [&'static str] {
        match self {
            RaftScenario::SnapshotTear => &["snapshot-divergence"],
            RaftScenario::CompactionLoss => &["chain-divergence"],
            RaftScenario::ReconfigSplit => &["conflicting-commit", "dual-leaders"],
        }
    }
}

/// One hunted Raft campaign bound to the Rose workflow.
#[derive(Debug, Clone)]
pub struct RoseRaftCase {
    /// The hunted scenario.
    pub scenario: RaftScenario,
}

impl rose_core::TargetSystem for RoseRaftCase {
    type App = RoseRaft;

    fn name(&self) -> &str {
        match self.scenario {
            RaftScenario::SnapshotTear => "RoseRaft-SNAPXFER",
            RaftScenario::CompactionLoss => "RoseRaft-COMPACT",
            RaftScenario::ReconfigSplit => "RoseRaft-JOINT",
        }
    }

    fn cluster_size(&self) -> u32 {
        5
    }

    fn build_node(&self, _node: NodeId) -> RoseRaft {
        RoseRaft::default()
    }

    fn attach_workload(&self, sim: &mut rose_sim::Sim<RoseRaft>) {
        sim.add_client(Box::new(KvClient::new()));
        sim.add_client(Box::new(KvClient::new()));
        sim.add_client(Box::new(KvClient::new()));
        if self.scenario == RaftScenario::ReconfigSplit {
            sim.add_client(Box::new(ReconfigAdmin::new()));
        }
    }

    fn oracle(&self, sim: &rose_sim::Sim<RoseRaft>) -> bool {
        // This run's checker reads what the journal gained since the last
        // poll; `check_raft` on the whole journal gives the same report.
        let core = sim.core();
        let report = core.oracle_state(|checker: &mut rose_jepsen::RaftChecker| {
            checker.feed(&core.logs);
            checker.report()
        });
        self.scenario
            .violation_tags()
            .iter()
            .any(|tag| report.has(tag))
    }

    /// The binary's symbol table: the recovery/compaction/snapshot/membership
    /// functions a developer would list, plus the hot replication tick that
    /// profiling filters out by call frequency.
    fn symbols(&self) -> SymbolTable {
        use rose_events::SyscallId;
        SymbolTable::new()
            .function(
                "recoverState",
                "raft/consensus.rs",
                vec![site::call(0, "loadSnapshotFile")],
            )
            .function(
                "loadSnapshotFile",
                "raft/snapshot.rs",
                vec![site::sys(0, SyscallId::Openat)],
            )
            .function(
                "compactLog",
                "raft/storage.rs",
                vec![
                    site::sys(0, SyscallId::Openat),
                    site::sys(1, SyscallId::Write),
                    site::sys(2, SyscallId::Fsync),
                    site::sys(3, SyscallId::Rename),
                    site::other(4),
                ],
            )
            .function(
                "writeSnapshotFile",
                "raft/snapshot.rs",
                vec![
                    site::sys(0, SyscallId::Openat),
                    site::sys(1, SyscallId::Write),
                    site::sys(2, SyscallId::Fsync),
                    site::sys(3, SyscallId::Rename),
                    site::other(4),
                ],
            )
            .function(
                "beginSnapshotTransfer",
                "raft/snapshot.rs",
                vec![site::other(0)],
            )
            .function(
                "installSnapshotBegin",
                "raft/snapshot.rs",
                vec![
                    site::sys(0, SyscallId::Openat),
                    site::sys(1, SyscallId::Write),
                    site::sys(2, SyscallId::Rename),
                ],
            )
            .function(
                "installSnapshotChunk",
                "raft/snapshot.rs",
                vec![
                    site::sys(0, SyscallId::Openat),
                    site::sys(1, SyscallId::Write),
                    site::sys(2, SyscallId::Close),
                    site::other(3),
                ],
            )
            .function(
                "applyConfigChange",
                "raft/consensus.rs",
                vec![site::other(0)],
            )
            .function("startElection", "raft/consensus.rs", vec![site::other(0)])
            .function("becomeLeader", "raft/consensus.rs", vec![site::other(0)])
            .function(
                "raftTickReplicate",
                "raft/consensus.rs",
                vec![site::other(0)],
            )
    }

    /// Developer-provided key source files (consensus, storage, snapshots).
    fn key_files(&self) -> Vec<String> {
        vec![
            "raft/consensus.rs".into(),
            "raft/storage.rs".into(),
            "raft/snapshot.rs".into(),
        ]
    }

    fn run_duration(&self) -> SimDuration {
        SimDuration::from_secs(120)
    }

    fn oracle_description(&self) -> String {
        format!(
            "Raft safety-invariant checker (violations: {})",
            self.scenario.violation_tags().join(", ")
        )
    }
}

/// How each hunted scenario's "production" trace is obtained: randomized
/// Jepsen-style nemesis runs (no scripted schedules — these failures were
/// not known in advance) repeated until the invariant checker fires.
pub fn roseraft_capture(scenario: RaftScenario) -> crate::driver::CaptureSpec {
    use crate::driver::{CaptureMethod, CaptureSpec};
    use rose_jepsen::{NemesisConfig, NemesisOp};
    match scenario {
        RaftScenario::SnapshotTear => {
            // Frequent crashes: restarted followers fall behind compaction
            // and are caught up by chunked transfers; the next crash can
            // land mid-stream.
            let cfg = NemesisConfig {
                start_after: SimDuration::from_secs(8),
                interval: (SimDuration::from_secs(1), SimDuration::from_secs(4)),
                ..NemesisConfig::standard(5, 21)
            }
            .with_ops(vec![NemesisOp::Crash]);
            CaptureSpec::from(CaptureMethod::Nemesis(cfg))
        }
        RaftScenario::CompactionLoss => {
            // Crash-only as well, but an independent seed: the hunted
            // window is the stage-A/stage-B gap on whichever node compacts.
            let cfg = NemesisConfig {
                start_after: SimDuration::from_secs(8),
                interval: (SimDuration::from_secs(1), SimDuration::from_secs(4)),
                ..NemesisConfig::standard(5, 22)
            }
            .with_ops(vec![NemesisOp::Crash]);
            CaptureSpec::from(CaptureMethod::Nemesis(cfg))
        }
        RaftScenario::ReconfigSplit => {
            // Group splits (partition-random-halves) long enough to overlap
            // the admin's shrink requests.
            let cfg = NemesisConfig {
                start_after: SimDuration::from_secs(4),
                interval: (SimDuration::from_secs(2), SimDuration::from_secs(5)),
                duration: (SimDuration::from_secs(7), SimDuration::from_secs(11)),
                ..NemesisConfig::standard(5, 23)
            }
            .with_ops(vec![NemesisOp::Split]);
            CaptureSpec::from(CaptureMethod::Nemesis(cfg))
        }
    }
}
