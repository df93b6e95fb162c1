//! Randomized fault schedules against the hunted Raft target: for every
//! generated schedule (crashes, pauses, isolations, splits, syscall
//! failures — alone and combined) the safety invariants either hold or the
//! oracle fires. A state divergence that the journal checker misses —
//! silent divergence — fails the property.
//!
//! The schedules run through [`rose_inject::Executor`] with `TimeElapsed`
//! contexts, the same machinery diagnosis replays use, so this corpus also
//! exercises the injection path the workflow depends on — in a debug build
//! with the executor's probe filter checked against its state at every
//! probe it turns away — and each run doubles as a differential of the
//! incremental journal checker against the from-scratch one.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rose_apps::raft::{KvClient, ReconfigAdmin, RoseRaft};
use rose_events::{Errno, NodeId, SimDuration, SyscallId};
use rose_inject::{Condition, Executor, FaultAction, FaultSchedule, PartitionKind, ScheduledFault};
use rose_jepsen::{check_raft, RaftChecker};
use rose_sim::{Sim, SimConfig};

const CLUSTER: u32 = 5;

/// One planned fault: what, where, when (ms after boot).
#[derive(Debug, Clone)]
enum Planned {
    Crash {
        node: u32,
        at_ms: u64,
    },
    Pause {
        node: u32,
        at_ms: u64,
        dur_ms: u64,
    },
    Isolate {
        node: u32,
        at_ms: u64,
        heal_ms: u64,
    },
    Split {
        pivot: u32,
        at_ms: u64,
        heal_ms: u64,
    },
    Scf {
        node: u32,
        at_ms: u64,
        call: u8,
        nth: u64,
    },
}

const SCF_CALLS: [SyscallId; 5] = [
    SyscallId::Openat,
    SyscallId::Write,
    SyscallId::Fsync,
    SyscallId::Rename,
    SyscallId::Read,
];

fn planned_fault() -> impl Strategy<Value = Planned> {
    let node = 0..CLUSTER;
    let at = 5_000u64..30_000;
    prop_oneof![
        (node.clone(), at.clone()).prop_map(|(node, at_ms)| Planned::Crash { node, at_ms }),
        (node.clone(), at.clone(), 400u64..4_000).prop_map(|(node, at_ms, dur_ms)| {
            Planned::Pause {
                node,
                at_ms,
                dur_ms,
            }
        }),
        (node.clone(), at.clone(), 800u64..5_000).prop_map(|(node, at_ms, heal_ms)| {
            Planned::Isolate {
                node,
                at_ms,
                heal_ms,
            }
        }),
        (1..CLUSTER, at.clone(), 1_000u64..6_000).prop_map(|(pivot, at_ms, heal_ms)| {
            Planned::Split {
                pivot,
                at_ms,
                heal_ms,
            }
        }),
        (node, at, 0u8..SCF_CALLS.len() as u8, 1u64..4).prop_map(|(node, at_ms, call, nth)| {
            Planned::Scf {
                node,
                at_ms,
                call,
                nth,
            }
        }),
    ]
}

fn schedule_of(plan: &[Planned]) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    for p in plan {
        let (node, at_ms, action) = match p {
            Planned::Crash { node, at_ms } => (*node, *at_ms, FaultAction::Crash),
            Planned::Pause {
                node,
                at_ms,
                dur_ms,
            } => (
                *node,
                *at_ms,
                FaultAction::Pause {
                    duration: SimDuration::from_millis(*dur_ms),
                },
            ),
            Planned::Isolate {
                node,
                at_ms,
                heal_ms,
            } => (
                *node,
                *at_ms,
                FaultAction::Partition {
                    kind: PartitionKind::IsolateNode(NodeId(*node)),
                    duration: Some(SimDuration::from_millis(*heal_ms)),
                },
            ),
            Planned::Split {
                pivot,
                at_ms,
                heal_ms,
            } => (
                0,
                *at_ms,
                FaultAction::Partition {
                    kind: PartitionKind::Split {
                        group_a: (0..*pivot).map(NodeId).collect(),
                        group_b: (*pivot..CLUSTER).map(NodeId).collect(),
                    },
                    duration: Some(SimDuration::from_millis(*heal_ms)),
                },
            ),
            Planned::Scf {
                node,
                at_ms,
                call,
                nth,
            } => (
                *node,
                *at_ms,
                FaultAction::Scf {
                    syscall: SCF_CALLS[*call as usize],
                    errno: Errno::Eio,
                    path: None,
                    nth: *nth,
                },
            ),
        };
        s.push(
            ScheduledFault::new(NodeId(node), action).after(Condition::TimeElapsed {
                after: SimDuration::from_millis(at_ms),
            }),
        );
    }
    s
}

/// Looks for state divergence directly in the live nodes, independent of
/// the journal: a committed index two machines applied under different
/// terms or with different running chains, or two machines whose chains
/// agree at the same applied index while their materialized maps differ.
fn cross_validate(sim: &Sim<RoseRaft>) -> Option<String> {
    let apps: Vec<(u32, &RoseRaft)> = (0..CLUSTER)
        .filter_map(|i| sim.app(NodeId(i)).map(|a| (i, a)))
        .collect();
    for (ai, a) in &apps {
        for (bi, b) in &apps {
            if ai >= bi {
                continue;
            }
            for (idx, at) in a.checkpoints() {
                if let Some(bt) = b.checkpoints().get(idx) {
                    if at != bt {
                        return Some(format!(
                            "checkpoint divergence at idx {idx}: node {ai} {at:?} vs node {bi} {bt:?}"
                        ));
                    }
                }
            }
            let (a_applied, a_chain, a_digest) = a.state_summary();
            let (b_applied, b_chain, b_digest) = b.state_summary();
            if a_applied == b_applied && a_chain == b_chain && a_digest != b_digest {
                return Some(format!(
                    "content divergence at applied {a_applied}: node {ai} digest {a_digest:x} vs node {bi} {b_digest:x}"
                ));
            }
        }
    }
    None
}

fn run_plan(seed: u64, plan: &[Planned], admin: bool) -> Result<(), TestCaseError> {
    let mut sim = Sim::new(SimConfig::new(CLUSTER, seed), move |_| RoseRaft::default());
    sim.add_hook(Box::new(Executor::new(schedule_of(plan))));
    sim.add_client(Box::new(KvClient::new()));
    sim.add_client(Box::new(KvClient::new()));
    sim.add_client(Box::new(KvClient::new()));
    if admin {
        sim.add_client(Box::new(ReconfigAdmin::new()));
    }
    sim.start();
    // Polled the way a workflow run is: the checker that reads only what
    // each 5 s step journalled must report, at every boundary, what the
    // whole journal so far says — violations, their order, each once.
    let mut polled = RaftChecker::default();
    for _ in 0..8 {
        sim.run_for(SimDuration::from_secs(5));
        polled.feed(&sim.core().logs);
        prop_assert_eq!(
            polled.report().violations,
            check_raft(&sim.core().logs).violations,
            "at {}",
            sim.now()
        );
    }
    let report = polled.report();
    if let Some(divergence) = cross_validate(&sim) {
        prop_assert!(
            !report.ok(),
            "SILENT divergence — states split but the oracle stayed quiet: {divergence}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(112))]

    /// Core corpus: 1–6 faults of any kind against the plain KV workload.
    #[test]
    fn random_fault_schedules_never_diverge_silently(
        seed in 0u64..1_000_000,
        plan in proptest::collection::vec(planned_fault(), 1..7),
    ) {
        run_plan(seed, &plan, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same property with membership churn in the workload: faults land
    /// before, during, and after joint-consensus windows.
    #[test]
    fn random_faults_under_reconfig_never_diverge_silently(
        seed in 0u64..1_000_000,
        plan in proptest::collection::vec(planned_fault(), 1..7),
    ) {
        run_plan(seed, &plan, true)?;
    }
}
