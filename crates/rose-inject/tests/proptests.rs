//! Property-based tests of fault schedules: YAML round-trips over arbitrary
//! schedules and order-enforcement invariants.

use proptest::prelude::*;
use rose_events::{Errno, NodeId, SimDuration, SyscallId};
use rose_inject::{Condition, FaultAction, FaultSchedule, PartitionKind, ScheduledFault};

fn arb_action() -> impl Strategy<Value = FaultAction> {
    prop_oneof![
        Just(FaultAction::Crash),
        (1u64..20_000_000).prop_map(|d| FaultAction::Pause {
            duration: SimDuration::from_micros(d)
        }),
        (0u32..5, proptest::option::of(1u64..10_000_000)).prop_map(|(n, d)| {
            FaultAction::Partition {
                kind: PartitionKind::IsolateNode(NodeId(n)),
                duration: d.map(SimDuration::from_micros),
            }
        }),
        (proptest::option::of("[a-z/]{1,10}"), 1u64..20).prop_map(|(path, nth)| {
            FaultAction::Scf {
                syscall: SyscallId::Write,
                errno: Errno::Eio,
                path,
                nth,
            }
        }),
    ]
}

fn arb_condition() -> impl Strategy<Value = Condition> {
    prop_oneof![
        "[a-zA-Z]{1,12}".prop_map(|name| Condition::FunctionEntered { name }),
        ("[a-zA-Z]{1,12}", 0u32..8)
            .prop_map(|(name, offset)| Condition::FunctionOffset { name, offset }),
        (1u64..10_000_000).prop_map(|after| Condition::TimeElapsed {
            after: SimDuration::from_micros(after)
        }),
        (proptest::collection::vec("[a-zA-Z]{1,12}", 0..4), 1u64..10).prop_map(|(chain, count)| {
            Condition::ExecutionIndex {
                chain,
                syscall: SyscallId::Read,
                count,
            }
        }),
        (0usize..6).prop_map(|fault| Condition::AfterFault { fault }),
    ]
}

fn arb_schedule() -> impl Strategy<Value = FaultSchedule> {
    proptest::collection::vec(
        (
            0u32..5,
            arb_action(),
            proptest::collection::vec(arb_condition(), 0..3),
        ),
        0..6,
    )
    .prop_map(|faults| {
        let mut s = FaultSchedule::new();
        for (node, action, conds) in faults {
            let mut f = ScheduledFault::new(NodeId(node), action);
            f.conditions = conds;
            s.push(f);
        }
        s
    })
}

proptest! {
    #[test]
    fn yaml_round_trips(s in arb_schedule()) {
        let back = FaultSchedule::from_yaml(&s.to_yaml()).unwrap();
        prop_assert_eq!(s, back);
    }

    #[test]
    fn enforce_order_is_idempotent(mut s in arb_schedule()) {
        s.enforce_order();
        let once = s.clone();
        s.enforce_order();
        prop_assert_eq!(s, once);
    }

    #[test]
    fn enforce_order_adds_all_earlier_groups(mut s in arb_schedule()) {
        s.enforce_order();
        for (i, f) in s.faults.iter().enumerate() {
            for g in s.faults[..i].iter().map(|e| e.group) {
                if g < f.group {
                    prop_assert!(
                        f.conditions.iter().any(
                            |c| matches!(c, Condition::AfterFault { fault } if *fault == g)
                        ),
                        "fault {} misses prerequisite group {}", i, g
                    );
                }
            }
        }
    }

    #[test]
    fn enforce_order_preserves_event_conditions(s in arb_schedule()) {
        let mut ordered = s.clone();
        ordered.enforce_order();
        for (a, b) in s.faults.iter().zip(&ordered.faults) {
            let originals: Vec<&Condition> = a.conditions.iter().collect();
            let kept: Vec<&Condition> = b
                .conditions
                .iter()
                .filter(|c| originals.contains(c))
                .collect();
            prop_assert_eq!(kept.len() >= originals.len(), true);
        }
    }

    #[test]
    fn summary_counts_match_schedule_length(s in arb_schedule()) {
        let summary = s.summary();
        if s.is_empty() {
            prop_assert_eq!(summary, "");
        } else {
            // The summary mentions at least one fault tag.
            prop_assert!(summary.contains("PS(") || summary.contains("ND") || summary.contains("SCF("));
        }
    }
}
