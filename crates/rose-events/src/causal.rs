//! Causal provenance records: happens-before edges emitted by the simulated
//! kernel as it runs.
//!
//! The diagnosis pipeline proves *that* a fault schedule reproduces a bug;
//! the causal layer explains *how* — which injected fault propagated through
//! which syscalls, messages, signals, and restarts until the oracle fired.
//! The kernel emits [`CausalNode`]s at the interesting points (injections,
//! overridden syscalls, tainted message receipts, crash/restart/pause
//! transitions, the oracle) and [`CausalEdge`]s connecting them. Per-node
//! program order is the chain of `Program` edges between consecutive nodes
//! of the same [`NodeId`]; cross-node causality rides on `Message`, `Fork`,
//! and `Signal` edges. `rose-obs::causal` assembles the log into a DAG and
//! extracts per-fault propagation chains.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::NodeId;
use crate::syscall::{Errno, SyscallId};
use crate::time::SimTime;

/// Identifier of a node in a per-run causal log: its index in
/// [`CausalLog::nodes`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct CauseId(pub u64);

impl fmt::Display for CauseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What a causal node records.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CausalKind {
    /// A scheduled fault fired (the executor's `bpf_override_return` /
    /// `bpf_send_signal` / TC-install moment).
    Inject {
        /// Index of the fault within its schedule.
        fault: u64,
        /// Action tag, e.g. `SCF(write)` or `PS(Crash)`.
        tag: String,
    },
    /// A system call returned an injected error.
    Scf {
        /// The overridden call.
        syscall: SyscallId,
        /// The error it returned.
        errno: Errno,
    },
    /// A message causally downstream of an injection was received.
    Recv {
        /// The sending node.
        from: NodeId,
    },
    /// The node's process died.
    Crash {
        /// True for an application abort (the failure manifesting), false
        /// for an external kill.
        aborted: bool,
    },
    /// The supervisor restarted the node's process.
    Restart,
    /// The node's process was stopped (SIGSTOP delivered).
    Pause,
    /// The node's process resumed (SIGCONT).
    Resume,
    /// The bug oracle fired.
    Oracle,
}

impl CausalKind {
    /// Short human-readable label, used for per-hop chain summaries and the
    /// DOT export.
    pub fn label(&self) -> String {
        match self {
            CausalKind::Inject { fault, tag } => format!("inject f{fault} {tag}"),
            CausalKind::Scf { syscall, errno } => format!("{syscall} -> {errno}"),
            CausalKind::Recv { from } => format!("recv from {from}"),
            CausalKind::Crash { aborted: true } => "abort".to_string(),
            CausalKind::Crash { aborted: false } => "crash".to_string(),
            CausalKind::Restart => "restart".to_string(),
            CausalKind::Pause => "pause".to_string(),
            CausalKind::Resume => "resume".to_string(),
            CausalKind::Oracle => "oracle".to_string(),
        }
    }
}

/// The happens-before relation an edge records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Intra-node program order: the previous causal node on the same
    /// simulated node.
    Program,
    /// Message send → receive.
    Message,
    /// Signal delivery: pause/resume/kill reaching the process.
    Signal,
    /// Process lifecycle: crash → supervisor restart.
    Fork,
    /// Injection → the system call it overrode.
    Inject,
    /// Frontier → oracle: the last causal node of each simulated node when
    /// the bug oracle fired.
    Oracle,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeKind::Program => "program",
            EdgeKind::Message => "message",
            EdgeKind::Signal => "signal",
            EdgeKind::Fork => "fork",
            EdgeKind::Inject => "inject",
            EdgeKind::Oracle => "oracle",
        };
        f.write_str(s)
    }
}

/// One node of the per-run causality DAG.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalNode {
    /// Its id (index in [`CausalLog::nodes`]).
    pub id: CauseId,
    /// When it happened.
    pub ts: SimTime,
    /// The simulated node it happened on; `None` for cluster-wide nodes
    /// (the oracle).
    pub node: Option<NodeId>,
    /// What happened.
    pub kind: CausalKind,
}

/// A happens-before edge `from → to` (`from` precedes `to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalEdge {
    /// The earlier node.
    pub from: CauseId,
    /// The later node.
    pub to: CauseId,
    /// Which relation the edge records.
    pub kind: EdgeKind,
}

/// A complete per-run causal log: nodes in emission order (so `CauseId` is
/// an index) plus the edges between them. Edges always point from an
/// earlier-emitted node to a later one, so the log is a DAG by
/// construction.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalLog {
    /// Nodes, in emission order.
    pub nodes: Vec<CausalNode>,
    /// Edges, in emission order.
    pub edges: Vec<CausalEdge>,
}

impl CausalLog {
    /// Appends a node, returning its id.
    pub fn push_node(&mut self, ts: SimTime, node: Option<NodeId>, kind: CausalKind) -> CauseId {
        let id = CauseId(self.nodes.len() as u64);
        self.nodes.push(CausalNode { id, ts, node, kind });
        id
    }

    /// Appends an edge.
    pub fn push_edge(&mut self, from: CauseId, to: CauseId, kind: EdgeKind) {
        debug_assert!(from < to, "causal edges must point forward in time");
        self.edges.push(CausalEdge { from, to, kind });
    }

    /// The node record behind an id.
    pub fn node(&self, id: CauseId) -> &CausalNode {
        &self.nodes[id.0 as usize]
    }

    /// Ids of all injection nodes, in emission (= injection) order.
    pub fn injections(&self) -> impl Iterator<Item = CauseId> + '_ {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, CausalKind::Inject { .. }))
            .map(|n| n.id)
    }

    /// Id of the oracle node, if the oracle fired.
    pub fn oracle(&self) -> Option<CauseId> {
        self.nodes
            .iter()
            .find(|n| matches!(n.kind, CausalKind::Oracle))
            .map(|n| n.id)
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_assigns_sequential_ids() {
        let mut log = CausalLog::default();
        let a = log.push_node(
            SimTime::from_secs(1),
            Some(NodeId(0)),
            CausalKind::Inject {
                fault: 0,
                tag: "PS(Crash)".into(),
            },
        );
        let b = log.push_node(SimTime::from_secs(2), None, CausalKind::Oracle);
        log.push_edge(a, b, EdgeKind::Oracle);
        assert_eq!(a, CauseId(0));
        assert_eq!(b, CauseId(1));
        assert_eq!(log.injections().collect::<Vec<_>>(), vec![a]);
        assert_eq!(log.oracle(), Some(b));
        assert_eq!(log.node(a).node, Some(NodeId(0)));
    }

    #[test]
    fn serde_round_trip() {
        let mut log = CausalLog::default();
        let a = log.push_node(
            SimTime::from_millis(10),
            Some(NodeId(1)),
            CausalKind::Scf {
                syscall: SyscallId::Write,
                errno: Errno::Eio,
            },
        );
        let b = log.push_node(
            SimTime::from_millis(20),
            Some(NodeId(2)),
            CausalKind::Recv { from: NodeId(1) },
        );
        log.push_edge(a, b, EdgeKind::Message);
        let json = serde_json::to_string(&log).unwrap();
        let back: CausalLog = serde_json::from_str(&json).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn labels_are_readable() {
        assert_eq!(
            CausalKind::Inject {
                fault: 2,
                tag: "ND".into()
            }
            .label(),
            "inject f2 ND"
        );
        assert!(CausalKind::Scf {
            syscall: SyscallId::Fsync,
            errno: Errno::Eio
        }
        .label()
        .contains("EIO"));
        assert_eq!(CausalKind::Oracle.label(), "oracle");
    }
}
