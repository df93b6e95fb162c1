//! Fault schedules.
//!
//! A *fault schedule* is the output of the diagnosis phase: an ordered set
//! of faults, each with a *fault context* — the sequence of conditions that
//! must be observed on the target node before the fault is injected
//! (paper §4.5). Schedules serialize to YAML, the format the paper's
//! Analyzer emits (§5.3).

use rose_events::{Errno, NodeId, SimDuration, SyscallId};
use serde::{Deserialize, Serialize};

/// Index of a fault within its schedule.
pub type FaultId = usize;

/// What kind of network fault to create.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionKind {
    /// Cut one node off from every peer, both directions.
    IsolateNode(NodeId),
    /// Split the cluster into two groups.
    Split {
        /// One side.
        group_a: Vec<NodeId>,
        /// The other side.
        group_b: Vec<NodeId>,
    },
    /// Drop a single direction between two nodes (asymmetric failure).
    Link {
        /// Packet source.
        src: NodeId,
        /// Packet destination.
        dst: NodeId,
    },
}

/// The fault to inject once the context is satisfied.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Fail a system call by overriding its return value
    /// (`bpf_override_return`): the `nth` invocation matching
    /// `syscall`/`path` observed **after** the fault is armed.
    Scf {
        /// Call to fail.
        syscall: SyscallId,
        /// Error to return.
        errno: Errno,
        /// Restrict to calls on this path (when input info is available).
        path: Option<String>,
        /// 1-based matching-invocation index.
        nth: u64,
    },
    /// Kill the node's process at the exact probe point where the last
    /// condition is observed (`bpf_send_signal` with SIGKILL).
    Crash,
    /// Stop the node's process for `duration` (SIGSTOP/SIGCONT).
    Pause {
        /// Pause length.
        duration: SimDuration,
    },
    /// Install TC drop filters; remove them after `duration` if set.
    Partition {
        /// Topology of the cut.
        kind: PartitionKind,
        /// Heal delay.
        duration: Option<SimDuration>,
    },
}

impl FaultAction {
    /// Short tag for reports (the paper's `Faults Inj` column vocabulary).
    pub fn tag(&self) -> String {
        match self {
            FaultAction::Scf { syscall, .. } => format!("SCF({syscall})"),
            FaultAction::Crash => "PS(Crash)".to_string(),
            FaultAction::Pause { .. } => "PS(Pause)".to_string(),
            FaultAction::Partition { .. } => "ND".to_string(),
        }
    }
}

/// One condition in a fault context. Conditions are evaluated in sequence:
/// condition *i+1* is only considered once *i* has been observed — this is
/// what preserves the production ordering (§4.6.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Condition {
    /// The target node entered the named application function (uprobe).
    FunctionEntered {
        /// Function symbol.
        name: String,
    },
    /// A specific instrumented offset inside the named function was hit
    /// (Level 3 context).
    FunctionOffset {
        /// Function symbol.
        name: String,
        /// Offset within the function.
        offset: u32,
    },
    /// The target node performed its `nth` matching system call (counted
    /// while this condition is active).
    SyscallInvocation {
        /// Call to count.
        syscall: SyscallId,
        /// Restrict to this path.
        path: Option<String>,
        /// 1-based count.
        nth: u64,
    },
    /// The target node performed its `count`th matching system call while
    /// its live function-entry chain equalled `chain` (Level 2.5 execution
    /// index). Unlike [`Condition::SyscallInvocation`], the count is scoped
    /// to one calling context, so it does not drift when unrelated
    /// interleaving adds or removes invocations elsewhere.
    ExecutionIndex {
        /// Required function-entry chain, outermost first.
        chain: Vec<String>,
        /// Call to count within the context.
        syscall: SyscallId,
        /// 1-based per-context count.
        count: u64,
    },
    /// Another fault **group** of the same schedule has already been
    /// injected — the fault-order conditions that prevent premature
    /// injection. Satisfied when any fault carrying the referenced group id
    /// has fired.
    AfterFault {
        /// Group id of the prerequisite fault.
        fault: FaultId,
    },
    /// At least this much time elapsed since the run started (Level 1
    /// schedules replay faults at their relative production times).
    TimeElapsed {
        /// Minimum elapsed time.
        after: SimDuration,
    },
}

/// Sentinel group value assigned by [`FaultSchedule::push`].
const GROUP_UNSET: usize = usize::MAX;

/// A fault plus its context, bound to a target node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// Node whose process/links are affected.
    pub node: NodeId,
    /// What to inject.
    pub action: FaultAction,
    /// The fault context, evaluated in order.
    pub conditions: Vec<Condition>,
    /// Order group. Faults produced by the *Amplification* heuristic (the
    /// same fault replicated across nodes to discover role-specific
    /// contexts) share one group: order prerequisites reference groups, and
    /// a group counts as injected when **any** member fires.
    pub group: usize,
}

impl ScheduledFault {
    /// A context-free fault on a node. The group is assigned on insertion.
    pub fn new(node: NodeId, action: FaultAction) -> Self {
        ScheduledFault {
            node,
            action,
            conditions: Vec::new(),
            group: GROUP_UNSET,
        }
    }

    /// Adds a condition, returning the updated fault.
    pub fn after(mut self, c: Condition) -> Self {
        self.conditions.push(c);
        self
    }

    /// A copy of this fault retargeted to another node (amplification),
    /// keeping the same conditions and order group.
    pub fn replicate_to(&self, node: NodeId) -> Self {
        let mut copy = self.clone();
        copy.node = node;
        copy
    }
}

/// A complete fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Faults in production order.
    pub faults: Vec<ScheduledFault>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Appends a fault, returning its id. Faults without an explicit group
    /// get their index as group.
    pub fn push(&mut self, mut fault: ScheduledFault) -> FaultId {
        let id = self.faults.len();
        if fault.group == GROUP_UNSET {
            fault.group = id;
        }
        self.faults.push(fault);
        id
    }

    /// Adds `AfterFault` conditions so that every fault waits for all
    /// earlier fault **groups**, enforcing the production fault order
    /// (§4.6.1 "to preserve the fault order observed in production, we add
    /// as conditions to the fault any previous faults"). Amplified copies
    /// share their original's group and therefore never wait on each other.
    pub fn enforce_order(&mut self) {
        let groups: Vec<usize> = self.faults.iter().map(|f| f.group).collect();
        for i in 0..self.faults.len() {
            let mut missing: Vec<usize> = groups
                .iter()
                .filter(|g| **g < self.faults[i].group)
                .copied()
                .collect();
            missing.sort_unstable();
            missing.dedup();
            missing.retain(|g| {
                !self.faults[i]
                    .conditions
                    .iter()
                    .any(|c| matches!(c, Condition::AfterFault { fault } if fault == g))
            });
            // Order prerequisites come first so event-based context is only
            // matched once the earlier faults have fired.
            for (k, g) in missing.into_iter().enumerate() {
                self.faults[i]
                    .conditions
                    .insert(k, Condition::AfterFault { fault: g });
            }
        }
    }

    /// The `Faults Inj` style summary, e.g. `PS(Crash)*3 + ND + PS(Crash)`.
    pub fn summary(&self) -> String {
        let mut parts: Vec<(String, u32)> = Vec::new();
        for f in &self.faults {
            let tag = f.action.tag();
            match parts.last_mut() {
                Some((t, n)) if *t == tag => *n += 1,
                _ => parts.push((tag, 1)),
            }
        }
        parts
            .into_iter()
            .map(|(t, n)| if n == 1 { t } else { format!("{n}*{t}") })
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Serializes to YAML (the Analyzer's on-disk format).
    pub fn to_yaml(&self) -> String {
        serde_yaml::to_string(self).expect("schedule serialization cannot fail")
    }

    /// Parses a schedule from YAML.
    pub fn from_yaml(s: &str) -> Result<Self, serde_yaml::Error> {
        serde_yaml::from_str(s)
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(node: u32) -> ScheduledFault {
        ScheduledFault::new(NodeId(node), FaultAction::Crash)
    }

    #[test]
    fn yaml_round_trip() {
        let mut s = FaultSchedule::new();
        s.push(crash(0).after(Condition::FunctionEntered {
            name: "RaftLogCreate".into(),
        }));
        s.push(ScheduledFault::new(
            NodeId(1),
            FaultAction::Scf {
                syscall: SyscallId::Write,
                errno: Errno::Eio,
                path: Some("/data/log".into()),
                nth: 3,
            },
        ));
        let y = s.to_yaml();
        let back = FaultSchedule::from_yaml(&y).unwrap();
        assert_eq!(s, back);
        assert!(y.contains("RaftLogCreate"));
    }

    #[test]
    fn enforce_order_adds_missing_prerequisites_in_front() {
        let mut s = FaultSchedule::new();
        s.push(crash(0));
        s.push(crash(1).after(Condition::FunctionEntered { name: "f".into() }));
        s.push(crash(2));
        s.enforce_order();
        assert!(s.faults[0].conditions.is_empty());
        assert_eq!(
            s.faults[1].conditions[0],
            Condition::AfterFault { fault: 0 },
            "order prerequisite must precede the event context"
        );
        assert_eq!(s.faults[1].conditions.len(), 2);
        assert_eq!(s.faults[2].conditions.len(), 2);
        // Idempotent.
        let snapshot = s.clone();
        s.enforce_order();
        assert_eq!(s, snapshot);
    }

    #[test]
    fn summary_groups_consecutive_tags() {
        let mut s = FaultSchedule::new();
        for n in 0..3 {
            s.push(crash(n));
        }
        s.push(ScheduledFault::new(
            NodeId(0),
            FaultAction::Partition {
                kind: PartitionKind::IsolateNode(NodeId(0)),
                duration: None,
            },
        ));
        s.push(crash(0));
        assert_eq!(s.summary(), "3*PS(Crash) + ND + PS(Crash)");
    }
}
