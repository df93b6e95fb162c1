//! Run state shared with oracles and checkers: logs, client-operation
//! history, and statistics.

use std::collections::BTreeMap;

use rose_events::{NodeId, SimTime, SyscallId};
use serde::{Deserialize, Serialize};

/// One application log line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogLine {
    /// When it was written.
    pub ts: SimTime,
    /// Which node wrote it.
    pub node: NodeId,
    /// The text.
    pub line: String,
}

/// The cluster-wide application log, the input of log-grep bug oracles.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Logs {
    lines: Vec<LogLine>,
}

impl Logs {
    /// Appends a line.
    pub fn push(&mut self, ts: SimTime, node: NodeId, line: String) {
        self.lines.push(LogLine { ts, node, line });
    }

    /// All lines in write order.
    pub fn lines(&self) -> &[LogLine] {
        &self.lines
    }

    /// Whether any line contains `needle` (the paper's log-grep oracle).
    pub fn grep(&self, needle: &str) -> bool {
        self.lines.iter().any(|l| l.line.contains(needle))
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no line was written.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// A client identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct ClientId(pub u32);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Outcome of a client operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpOutcome {
    /// Acknowledged with an optional value (reads carry the value read).
    Ok(Option<String>),
    /// Explicit failure.
    Fail(String),
    /// No response within the client timeout — outcome unknown (may or may
    /// not have taken effect; checkers must treat it as indeterminate).
    Timeout,
}

/// One operation in the Jepsen-style history consumed by the Elle-like
/// checker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryOp {
    /// Issuing client.
    pub client: ClientId,
    /// Operation description, e.g. `append k=3 v=17` or `read k=3`.
    pub op: String,
    /// Invocation time.
    pub invoked: SimTime,
    /// Completion time, if completed.
    pub completed: Option<SimTime>,
    /// Result.
    pub outcome: OpOutcome,
}

/// The run history: invoked and completed client operations.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct History {
    ops: Vec<HistoryOp>,
}

impl History {
    /// Records an invocation, returning its index for later completion.
    pub fn invoke(&mut self, client: ClientId, op: String, now: SimTime) -> usize {
        self.ops.push(HistoryOp {
            client,
            op,
            invoked: now,
            completed: None,
            outcome: OpOutcome::Timeout,
        });
        self.ops.len() - 1
    }

    /// Completes a previously invoked operation.
    pub fn complete(&mut self, idx: usize, now: SimTime, outcome: OpOutcome) {
        if let Some(op) = self.ops.get_mut(idx) {
            op.completed = Some(now);
            op.outcome = outcome;
        }
    }

    /// All operations in invocation order.
    pub fn ops(&self) -> &[HistoryOp] {
        &self.ops
    }

    /// Completed, acknowledged-ok operations.
    pub fn acknowledged(&self) -> impl Iterator<Item = &HistoryOp> {
        self.ops
            .iter()
            .filter(|o| matches!(o.outcome, OpOutcome::Ok(_)))
    }

    /// Number of operations invoked.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing was invoked.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Counters collected during a run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Total system calls executed (including overridden ones).
    pub syscalls: u64,
    /// System calls that returned an error.
    pub syscall_failures: u64,
    /// Per-call-id invocation counts, indexed by the id's discriminant.
    per_syscall: [u64; SyscallId::ALL.len()],
    /// Node-to-node packets delivered.
    pub packets: u64,
    /// Process crashes (injected or application panics).
    pub crashes: u64,
    /// Node restarts performed by the supervisor.
    pub restarts: u64,
    /// Uprobe firings (function entries + offsets hit).
    pub uprobes: u64,
    /// Total application function entries, traced or not (the denominator of
    /// the paper's Table 3 function-frequency study).
    pub fn_entries: u64,
}

impl SimStats {
    /// Records one syscall invocation.
    pub fn count_syscall(&mut self, id: SyscallId, failed: bool) {
        self.syscalls += 1;
        self.per_syscall[id as usize] += 1;
        if failed {
            self.syscall_failures += 1;
        }
    }

    /// Invocation counts of the calls that ran at least once.
    pub fn per_syscall(&self) -> BTreeMap<SyscallId, u64> {
        SyscallId::ALL
            .into_iter()
            .map(|id| (id, self.per_syscall[id as usize]))
            .filter(|(_, count)| *count > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grep_finds_substrings() {
        let mut logs = Logs::default();
        logs.push(SimTime::ZERO, NodeId(0), "boot ok".into());
        logs.push(
            SimTime::from_secs(1),
            NodeId(1),
            "PANIC: snapshot index mismatch".into(),
        );
        assert!(logs.grep("snapshot index mismatch"));
        assert!(!logs.grep("unrelated"));
    }

    #[test]
    fn history_invoke_complete_cycle() {
        let mut h = History::default();
        let i = h.invoke(ClientId(0), "append k=1 v=2".into(), SimTime::ZERO);
        assert_eq!(h.acknowledged().count(), 0);
        h.complete(i, SimTime::from_millis(3), OpOutcome::Ok(None));
        assert_eq!(h.acknowledged().count(), 1);
        assert_eq!(h.ops()[i].completed, Some(SimTime::from_millis(3)));
    }

    #[test]
    fn incomplete_ops_are_timeouts() {
        let mut h = History::default();
        h.invoke(ClientId(1), "read k=1".into(), SimTime::ZERO);
        assert_eq!(h.ops()[0].outcome, OpOutcome::Timeout);
    }

    #[test]
    fn stats_count_failures_separately() {
        let mut s = SimStats::default();
        s.count_syscall(SyscallId::Read, false);
        s.count_syscall(SyscallId::Read, true);
        assert_eq!(s.syscalls, 2);
        assert_eq!(s.syscall_failures, 1);
        assert_eq!(s.per_syscall(), BTreeMap::from([(SyscallId::Read, 2)]));
    }
}
