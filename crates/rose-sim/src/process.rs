//! Process table.
//!
//! Each node runs one application process; crashes assign fresh pids on
//! restart, and applications may attribute work to short-lived child pids —
//! both situations the paper's executor must remap (§5.4).

use rose_events::{NodeId, Pid, SimTime};

/// Run state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Scheduled normally.
    Running,
    /// Paused (SIGSTOP analogue) since the recorded instant.
    Paused {
        /// When the pause began.
        since: SimTime,
    },
    /// Exited (crash or shutdown).
    Exited,
}

/// A process table entry.
#[derive(Debug, Clone)]
pub struct ProcessEntry {
    /// The process id.
    pub pid: Pid,
    /// Node the process belongs to.
    pub node: NodeId,
    /// Parent pid for child helpers, `None` for node main processes.
    pub parent: Option<Pid>,
    /// Current run state.
    pub state: RunState,
    /// When the process started.
    pub started: SimTime,
}

/// The first pid handed out; pids start at 100 to look realistic in traces.
const FIRST_PID: u32 = 100;

/// The cluster-wide process table. Pids are handed out consecutively and
/// never reused, so the table is a `Vec` indexed by `pid - FIRST_PID`: the
/// kernel asks it for a node's main pid and pause state on every event.
#[derive(Debug, Default)]
pub struct ProcTable {
    /// Every process ever spawned, exited ones included, in pid order.
    procs: Vec<ProcessEntry>,
    /// Last spawned main pid of each node, indexed by node id.
    current: Vec<Option<Pid>>,
}

impl ProcTable {
    /// An empty table.
    pub fn new() -> Self {
        ProcTable::default()
    }

    /// Where `pid`'s entry is, if the table handed the pid out.
    fn slot(&self, pid: Pid) -> Option<usize> {
        let slot = pid.0.checked_sub(FIRST_PID)? as usize;
        (slot < self.procs.len()).then_some(slot)
    }

    fn spawn(&mut self, node: NodeId, parent: Option<Pid>, now: SimTime) -> Pid {
        let pid = Pid(FIRST_PID + self.procs.len() as u32);
        self.procs.push(ProcessEntry {
            pid,
            node,
            parent,
            state: RunState::Running,
            started: now,
        });
        pid
    }

    /// Spawns the main process of `node`, returning its fresh pid.
    pub fn spawn_main(&mut self, node: NodeId, now: SimTime) -> Pid {
        let pid = self.spawn(node, None, now);
        let node = node.0 as usize;
        if self.current.len() <= node {
            self.current.resize(node + 1, None);
        }
        self.current[node] = Some(pid);
        pid
    }

    /// Spawns a child helper of `parent`.
    pub fn spawn_child(&mut self, parent: Pid, now: SimTime) -> Option<Pid> {
        let node = self.get(parent)?.node;
        Some(self.spawn(node, Some(parent), now))
    }

    /// Marks a process exited. Children of the process exit with it.
    pub fn exit(&mut self, pid: Pid) {
        let Some(slot) = self.slot(pid) else {
            return;
        };
        self.procs[slot].state = RunState::Exited;
        // A child is spawned after its parent, so it sits behind it.
        for child in slot + 1..self.procs.len() {
            let e = &self.procs[child];
            if e.parent == Some(pid) && e.state != RunState::Exited {
                self.exit(e.pid);
            }
        }
    }

    /// Marks a process paused.
    pub fn pause(&mut self, pid: Pid, now: SimTime) {
        if let Some(slot) = self.slot(pid) {
            let e = &mut self.procs[slot];
            if e.state == RunState::Running {
                e.state = RunState::Paused { since: now };
            }
        }
    }

    /// Resumes a paused process, returning when the pause began.
    pub fn resume(&mut self, pid: Pid) -> Option<SimTime> {
        let slot = self.slot(pid)?;
        let e = &mut self.procs[slot];
        match e.state {
            RunState::Paused { since } => {
                e.state = RunState::Running;
                Some(since)
            }
            _ => None,
        }
    }

    /// The entry for `pid`.
    pub fn get(&self, pid: Pid) -> Option<&ProcessEntry> {
        self.slot(pid).map(|slot| &self.procs[slot])
    }

    /// The entry of the last main process spawned on `node`, exited or not.
    fn main_entry(&self, node: NodeId) -> Option<&ProcessEntry> {
        self.get((*self.current.get(node.0 as usize)?)?)
    }

    /// The current main pid of `node`, if the node is up.
    pub fn main_pid(&self, node: NodeId) -> Option<Pid> {
        let e = self.main_entry(node)?;
        (e.state != RunState::Exited).then_some(e.pid)
    }

    /// The node owning `pid` (walking up from children).
    pub fn node_of(&self, pid: Pid) -> Option<NodeId> {
        self.get(pid).map(|e| e.node)
    }

    /// All live (non-exited) processes.
    pub fn live(&self) -> impl Iterator<Item = &ProcessEntry> {
        self.procs.iter().filter(|e| e.state != RunState::Exited)
    }

    /// Whether the node's main process is currently paused.
    pub fn is_paused(&self, node: NodeId) -> bool {
        self.main_entry(node)
            .is_some_and(|e| matches!(e.state, RunState::Paused { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_assigns_fresh_pid() {
        let mut t = ProcTable::new();
        let p1 = t.spawn_main(NodeId(0), SimTime::ZERO);
        t.exit(p1);
        assert_eq!(t.main_pid(NodeId(0)), None);
        let p2 = t.spawn_main(NodeId(0), SimTime::from_secs(2));
        assert_ne!(p1, p2);
        assert_eq!(t.main_pid(NodeId(0)), Some(p2));
        assert_eq!(t.node_of(p1), Some(NodeId(0)));
    }

    #[test]
    fn pause_resume_cycle() {
        let mut t = ProcTable::new();
        let p = t.spawn_main(NodeId(1), SimTime::ZERO);
        t.pause(p, SimTime::from_secs(5));
        assert!(t.is_paused(NodeId(1)));
        assert_eq!(t.resume(p), Some(SimTime::from_secs(5)));
        assert!(!t.is_paused(NodeId(1)));
        // Double resume is a no-op.
        assert_eq!(t.resume(p), None);
    }

    #[test]
    fn children_exit_with_parent() {
        let mut t = ProcTable::new();
        let p = t.spawn_main(NodeId(0), SimTime::ZERO);
        let c = t.spawn_child(p, SimTime::ZERO).unwrap();
        assert_eq!(t.get(c).unwrap().parent, Some(p));
        t.exit(p);
        assert_eq!(t.live().count(), 0);
    }

    #[test]
    fn pause_only_affects_running() {
        let mut t = ProcTable::new();
        let p = t.spawn_main(NodeId(0), SimTime::ZERO);
        t.exit(p);
        t.pause(p, SimTime::from_secs(1));
        assert!(matches!(t.get(p).unwrap().state, RunState::Exited));
    }
}
