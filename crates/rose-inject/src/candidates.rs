//! Candidate injection points for hunting campaigns.
//!
//! Replay starts from faults a trace already contains; *hunting* inverts
//! the direction — it must propose faults at places the system has merely
//! been *observed* to execute. This module is the shared vocabulary for
//! that proposal step: an [`InjectionSite`] names one observed place a
//! fault could be keyed on (a function entry, or an execution-index
//! syscall context), converts to concrete [`ScheduledFault`]s, and
//! carries the stable fingerprint the hunt's visited-set dedupes on.
//!
//! Sites come from a live probe (`rose-hunt`'s kernel hook, which sees
//! every context as it executes).

use rose_events::{fingerprint, Errno, NodeId, SimDuration, SyscallId};

use crate::schedule::{Condition, FaultAction, FaultSchedule, ScheduledFault};

/// What kind of observed execution point a site names.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// A monitored application function was entered on the node.
    Function {
        /// Function name as the uprobe reports it.
        name: String,
    },
    /// A syscall executed under a specific calling context — the
    /// execution-index key (chain, syscall) with the per-context
    /// invocation count to target.
    SyscallContext {
        /// Calling chain, outermost first.
        chain: Vec<String>,
        /// The call.
        syscall: SyscallId,
        /// Per-context invocation to hit (1-based).
        count: u64,
    },
}

/// One candidate injection point on one node.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct InjectionSite {
    /// The node the fault would target.
    pub node: NodeId,
    /// The observed execution point.
    pub kind: SiteKind,
}

impl InjectionSite {
    /// The site's stable fingerprint — the key the hunt's visited set
    /// stores. Count-insensitive for syscall contexts: hitting the same
    /// context at a different per-context count explores nothing new.
    pub fn fingerprint(&self) -> u64 {
        match &self.kind {
            SiteKind::Function { name } => fingerprint::function_site(self.node, name),
            SiteKind::SyscallContext { chain, syscall, .. } => {
                fingerprint::syscall_context(self.node, chain, *syscall)
            }
        }
    }

    /// The concrete faults this site can host, in a stable order. Syscall
    /// contexts host an errno override (the `errno` argument comes from
    /// the hunt's realism model) and a crash at the matched call; function
    /// sites host a crash and a pause at entry.
    pub fn faults(&self, errno: Errno, pause: SimDuration) -> Vec<ScheduledFault> {
        match &self.kind {
            SiteKind::Function { name } => vec![
                ScheduledFault::new(self.node, FaultAction::Crash)
                    .after(Condition::FunctionEntered { name: name.clone() }),
                ScheduledFault::new(self.node, FaultAction::Pause { duration: pause })
                    .after(Condition::FunctionEntered { name: name.clone() }),
            ],
            SiteKind::SyscallContext {
                chain,
                syscall,
                count,
            } => {
                let ei = Condition::ExecutionIndex {
                    chain: chain.clone(),
                    syscall: *syscall,
                    count: (*count).max(1),
                };
                vec![
                    ScheduledFault::new(
                        self.node,
                        FaultAction::Scf {
                            syscall: *syscall,
                            errno,
                            path: None,
                            nth: 1,
                        },
                    )
                    .after(ei.clone()),
                    ScheduledFault::new(self.node, FaultAction::Crash).after(ei),
                ]
            }
        }
    }
}

/// The stable fingerprint of a whole schedule: the hunt's tried-set key
/// and the seed source for the run that executes it. Hashes the canonical
/// YAML form, so structurally identical schedules collide on purpose and
/// any semantic difference (node, action, condition, order) separates.
pub fn schedule_fingerprint(schedule: &FaultSchedule) -> u64 {
    let mut h = fingerprint::Fingerprinter::new();
    h.write_str("sched");
    h.write_str(&schedule.to_yaml());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_fingerprints_match_event_fingerprints() {
        let site = InjectionSite {
            node: NodeId(2),
            kind: SiteKind::SyscallContext {
                chain: vec!["a".into(), "b".into()],
                syscall: SyscallId::Fsync,
                count: 5,
            },
        };
        // Count-insensitive and equal to the fingerprint module's value.
        let mut other = site.clone();
        if let SiteKind::SyscallContext { count, .. } = &mut other.kind {
            *count = 1;
        }
        assert_eq!(site.fingerprint(), other.fingerprint());
        assert_eq!(
            site.fingerprint(),
            fingerprint::syscall_context(
                NodeId(2),
                &["a".to_string(), "b".to_string()],
                SyscallId::Fsync
            )
        );
    }

    #[test]
    fn faults_are_keyed_on_the_site() {
        let site = InjectionSite {
            node: NodeId(1),
            kind: SiteKind::SyscallContext {
                chain: vec!["recover".into()],
                syscall: SyscallId::Open,
                count: 2,
            },
        };
        let faults = site.faults(Errno::Enoent, SimDuration::from_secs(8));
        assert_eq!(faults.len(), 2);
        assert!(matches!(
            &faults[0].action,
            FaultAction::Scf {
                syscall: SyscallId::Open,
                errno: Errno::Enoent,
                nth: 1,
                ..
            }
        ));
        assert!(matches!(&faults[1].action, FaultAction::Crash));
        for f in &faults {
            assert!(matches!(
                &f.conditions[..],
                [Condition::ExecutionIndex {
                    count: 2,
                    syscall: SyscallId::Open,
                    ..
                }]
            ));
        }
    }

    #[test]
    fn schedule_fingerprints_separate_semantics() {
        let site = InjectionSite {
            node: NodeId(0),
            kind: SiteKind::Function {
                name: "sendSnapshot".into(),
            },
        };
        let mut a = FaultSchedule::new();
        a.push(site.faults(Errno::Eio, SimDuration::from_secs(8)).remove(0));
        let mut b = FaultSchedule::new();
        b.push(site.faults(Errno::Eio, SimDuration::from_secs(8)).remove(1));
        assert_ne!(schedule_fingerprint(&a), schedule_fingerprint(&b));
        let mut a2 = FaultSchedule::new();
        a2.push(site.faults(Errno::Eio, SimDuration::from_secs(8)).remove(0));
        assert_eq!(schedule_fingerprint(&a), schedule_fingerprint(&a2));
    }
}
