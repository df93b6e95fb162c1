//! The causal recorder: the run's happens-before log, written by the kernel
//! while the run executes.
//!
//! A plain value the run's [`crate::SimCore`] owns, disabled (empty) by
//! default so every emission site is one test when no campaign asked for
//! provenance. The kernel records every node: its own transitions, and the
//! injections a hook notes in the [`crate::HookEffects`] it fills. The
//! recorder maintains a per-simulated-node *frontier* — the last causal node
//! emitted on that node — so each new record extends intra-node program
//! order, and tracks taint (reachability from an injection) so message
//! edges are only materialized for traffic that is causally downstream of a
//! fault.

use rose_events::{CausalKind, CausalLog, CauseId, EdgeKind, Errno, NodeId, SimTime, SyscallId};

#[derive(Debug, Default)]
struct RecorderState {
    log: CausalLog,
    /// Last causal node per simulated node (the program-order frontier).
    last: std::collections::BTreeMap<NodeId, CauseId>,
    /// taint[i] — whether node `i` of the log is reachable from an
    /// injection.
    tainted: Vec<bool>,
}

impl RecorderState {
    /// Appends a node with the given parents, propagating taint.
    fn push(
        &mut self,
        ts: SimTime,
        node: Option<NodeId>,
        kind: CausalKind,
        parents: &[(CauseId, EdgeKind)],
    ) -> CauseId {
        let injecting = matches!(kind, CausalKind::Inject { .. });
        let id = self.log.push_node(ts, node, kind);
        let mut taint = injecting;
        for (p, k) in parents {
            self.log.push_edge(*p, id, *k);
            taint |= self.tainted[p.0 as usize];
        }
        self.tainted.push(taint);
        id
    }

    /// Appends a node chained onto `node`'s frontier and advances the
    /// frontier to it.
    fn push_on_frontier(
        &mut self,
        ts: SimTime,
        node: NodeId,
        kind: CausalKind,
        edge: EdgeKind,
    ) -> CauseId {
        let parents: Vec<(CauseId, EdgeKind)> = self
            .last
            .get(&node)
            .map(|p| vec![(*p, edge)])
            .unwrap_or_default();
        let id = self.push(ts, Some(node), kind, &parents);
        self.last.insert(node, id);
        id
    }
}

/// The run's causal provenance recorder: the log and its bookkeeping while
/// recording, nothing otherwise.
#[derive(Debug, Default)]
pub(crate) struct CausalRecorder {
    state: Option<Box<RecorderState>>,
}

impl CausalRecorder {
    /// An active recorder.
    pub fn new() -> Self {
        CausalRecorder {
            state: Some(Box::default()),
        }
    }

    /// A disabled recorder: every emission is a no-op test.
    pub fn disabled() -> Self {
        CausalRecorder::default()
    }

    fn with(&mut self, f: impl FnOnce(&mut RecorderState)) {
        if let Some(st) = &mut self.state {
            f(st);
        }
    }

    /// Records a fault injection on `node` (program-ordered after the
    /// node's previous causal activity).
    pub fn inject(&mut self, node: NodeId, fault: usize, tag: String, now: SimTime) {
        self.with(|st| {
            st.push_on_frontier(
                now,
                node,
                CausalKind::Inject {
                    fault: fault as u64,
                    tag,
                },
                EdgeKind::Program,
            );
        });
    }

    /// Records a system call returning an injected error. The edge from the
    /// injection that claimed the probe is typed [`EdgeKind::Inject`]; any
    /// later failure of the same armed fault chains as program order.
    pub fn scf(&mut self, node: NodeId, syscall: SyscallId, errno: Errno, now: SimTime) {
        self.with(|st| {
            let edge = match st.last.get(&node) {
                Some(p) if matches!(st.log.node(*p).kind, CausalKind::Inject { .. }) => {
                    EdgeKind::Inject
                }
                _ => EdgeKind::Program,
            };
            st.push_on_frontier(now, node, CausalKind::Scf { syscall, errno }, edge);
        });
    }

    /// The cause a message sent by `node` right now should carry: the
    /// node's frontier, but only once it is causally downstream of an
    /// injection (pre-fault traffic carries no provenance, keeping the log
    /// proportional to post-injection activity). A disabled recorder has no
    /// frontier.
    pub fn send_cause(&self, node: NodeId) -> Option<CauseId> {
        let st = self.state.as_ref()?;
        st.last
            .get(&node)
            .copied()
            .filter(|c| st.tainted[c.0 as usize])
    }

    /// Records the receipt of a message carrying `cause` on `to`.
    pub fn recv(&mut self, to: NodeId, from: NodeId, cause: CauseId, now: SimTime) {
        self.with(|st| {
            let mut parents = vec![(cause, EdgeKind::Message)];
            if let Some(p) = st.last.get(&to) {
                if *p != cause {
                    parents.push((*p, EdgeKind::Program));
                }
            }
            let id = st.push(now, Some(to), CausalKind::Recv { from }, &parents);
            st.last.insert(to, id);
        });
    }

    /// Records a SIGSTOP landing on `node`.
    pub fn pause(&mut self, node: NodeId, now: SimTime) {
        self.with(|st| {
            st.push_on_frontier(now, node, CausalKind::Pause, EdgeKind::Signal);
        });
    }

    /// Records a SIGCONT resuming `node`.
    pub fn resume(&mut self, node: NodeId, now: SimTime) {
        self.with(|st| {
            st.push_on_frontier(now, node, CausalKind::Resume, EdgeKind::Signal);
        });
    }

    /// Records `node`'s process dying.
    pub fn crash(&mut self, node: NodeId, aborted: bool, now: SimTime) {
        self.with(|st| {
            st.push_on_frontier(now, node, CausalKind::Crash { aborted }, EdgeKind::Signal);
        });
    }

    /// Records the supervisor restarting `node` (fork edge from the crash).
    pub fn restart(&mut self, node: NodeId, now: SimTime) {
        self.with(|st| {
            st.push_on_frontier(now, node, CausalKind::Restart, EdgeKind::Fork);
        });
    }

    /// Records the bug oracle firing, with edges from every simulated
    /// node's frontier. Idempotent: only the first call creates the node.
    pub fn oracle(&mut self, now: SimTime) {
        self.with(|st| {
            if st.log.oracle().is_some() {
                return;
            }
            let parents: Vec<(CauseId, EdgeKind)> =
                st.last.values().map(|c| (*c, EdgeKind::Oracle)).collect();
            st.push(now, None, CausalKind::Oracle, &parents);
        });
    }

    /// Takes the log, leaving the recorder empty (frontiers reset too).
    pub fn take_log(&mut self) -> CausalLog {
        self.state
            .as_deref_mut()
            .map(std::mem::take)
            .unwrap_or_default()
            .log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_free() {
        let mut r = CausalRecorder::disabled();
        r.inject(NodeId(0), 0, "PS(Crash)".into(), SimTime::ZERO);
        r.oracle(SimTime::from_secs(1));
        assert!(r.state.is_none());
        assert!(r.take_log().is_empty());
        assert_eq!(r.send_cause(NodeId(0)), None);
    }

    #[test]
    fn injection_chains_to_oracle_through_program_order() {
        let mut r = CausalRecorder::new();
        r.inject(NodeId(0), 0, "SCF(write)".into(), SimTime::from_secs(1));
        r.scf(
            NodeId(0),
            SyscallId::Write,
            Errno::Eio,
            SimTime::from_secs(1),
        );
        r.crash(NodeId(0), true, SimTime::from_secs(2));
        r.oracle(SimTime::from_secs(2));
        let log = r.take_log();
        assert_eq!(log.len(), 4);
        // inject --Inject--> scf --Signal--> crash --Oracle--> oracle
        assert_eq!(log.edges[0].kind, EdgeKind::Inject);
        assert_eq!(log.edges[1].kind, EdgeKind::Signal);
        assert_eq!(log.edges[2].kind, EdgeKind::Oracle);
        assert_eq!(log.oracle(), Some(CauseId(3)));
    }

    #[test]
    fn taint_gates_message_capture() {
        let mut r = CausalRecorder::new();
        // No causal activity on node 1: nothing to carry.
        assert_eq!(r.send_cause(NodeId(1)), None);
        r.inject(NodeId(1), 0, "ND".into(), SimTime::from_secs(1));
        let c = r.send_cause(NodeId(1)).expect("tainted frontier");
        r.recv(NodeId(2), NodeId(1), c, SimTime::from_secs(1));
        // Node 2's frontier is now tainted transitively.
        assert!(r.send_cause(NodeId(2)).is_some());
        let log = r.take_log();
        assert!(log
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Message && e.from == c));
    }

    #[test]
    fn oracle_is_idempotent_and_collects_all_frontiers() {
        let mut r = CausalRecorder::new();
        r.inject(NodeId(0), 0, "PS(Crash)".into(), SimTime::from_secs(1));
        r.pause(NodeId(2), SimTime::from_secs(1));
        r.oracle(SimTime::from_secs(3));
        r.oracle(SimTime::from_secs(4));
        let log = r.take_log();
        let oracle = log.oracle().unwrap();
        let in_edges = log.edges.iter().filter(|e| e.to == oracle).count();
        assert_eq!(in_edges, 2, "one edge per node frontier");
        assert_eq!(
            log.nodes
                .iter()
                .filter(|n| matches!(n.kind, CausalKind::Oracle))
                .count(),
            1
        );
    }

    #[test]
    fn crash_restart_is_a_fork_edge() {
        let mut r = CausalRecorder::new();
        r.inject(NodeId(0), 0, "PS(Crash)".into(), SimTime::from_secs(1));
        r.crash(NodeId(0), false, SimTime::from_secs(1));
        r.restart(NodeId(0), SimTime::from_secs(2));
        let log = r.take_log();
        assert!(log.edges.iter().any(|e| e.kind == EdgeKind::Fork));
        assert_eq!(log.node(CauseId(2)).kind, CausalKind::Restart);
    }

    #[test]
    fn take_log_resets_state() {
        let mut r = CausalRecorder::new();
        r.inject(NodeId(0), 0, "ND".into(), SimTime::from_secs(1));
        let log = r.take_log();
        assert_eq!(log.len(), 1);
        assert!(r.take_log().is_empty());
        assert_eq!(r.send_cause(NodeId(0)), None);
    }
}
