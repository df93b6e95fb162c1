//! Property-based tests of the event model: the sliding window against a
//! naive model, the canonical order and trace-merge invariants, and serde
//! round-trips.

use proptest::prelude::*;
use rose_events::{
    Errno, Event, EventKind, Fd, FunctionId, IpAddr, NodeId, Pid, ProcState, SimDuration, SimTime,
    SlidingWindow, SyscallId, Trace,
};

fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (0u32..8, 0u32..4, any::<bool>()).prop_map(|(f, p, _)| EventKind::Af {
            pid: Pid(100 + p),
            function: FunctionId(f),
        }),
        (
            0u32..4,
            proptest::option::of("[a-z/]{1,12}"),
            proptest::option::of((proptest::collection::vec("[a-zA-Z]{1,8}", 0..3), 1u32..100))
        )
            .prop_map(|(p, path, ei)| EventKind::Scf {
                pid: Pid(100 + p),
                syscall: SyscallId::Read,
                fd: Some(Fd(3)),
                path: path.map(Into::into),
                errno: Errno::Eio,
                ei: ei
                    .map(|(chain, count)| Box::new(rose_events::ExecutionIndex::new(chain, count))),
            }),
        (1u32..5, 1u32..5, 0u64..10_000_000).prop_map(|(s, d, dur)| EventKind::Nd {
            src: IpAddr(s),
            dst: IpAddr(d),
            duration: SimDuration::from_micros(dur),
            packet_count: 7,
        }),
        (0u32..4).prop_map(|p| EventKind::Ps {
            pid: Pid(100 + p),
            state: ProcState::Crashed,
            duration: SimDuration::ZERO,
        }),
        (
            0u32..4,
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..16))
        )
            .prop_map(|(p, content)| EventKind::SyscallOk {
                pid: Pid(100 + p),
                syscall: SyscallId::Write,
                content: content.map(Vec::into_boxed_slice),
            }),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    (0u64..1_000_000, 0u32..5, arb_kind())
        .prop_map(|(ts, node, kind)| Event::new(SimTime::from_micros(ts), NodeId(node), kind))
}

proptest! {
    #[test]
    fn window_matches_naive_model(events in proptest::collection::vec(arb_event(), 0..300),
                                  cap in 1usize..64) {
        let mut w = SlidingWindow::with_capacity(cap);
        for e in &events {
            w.push(e.clone());
        }
        // Naive model: the last `cap` events in push order.
        let start = events.len().saturating_sub(cap);
        let expect: Vec<Event> = events[start..].to_vec();
        prop_assert_eq!(w.iter().cloned().collect::<Vec<_>>(), expect);
        prop_assert_eq!(w.total_pushed(), events.len() as u64);
        let bytes: usize = w.iter().map(|e| e.kind.wire_size()).sum();
        prop_assert_eq!(w.bytes(), bytes);
    }

    #[test]
    fn merge_is_sorted_and_lossless(dumps in proptest::collection::vec(
        proptest::collection::vec(arb_event(), 0..50), 0..5)) {
        let total: usize = dumps.iter().map(Vec::len).sum();
        let merged = Trace::merge(dumps.clone());
        prop_assert_eq!(merged.len(), total);
        prop_assert!(merged.events().windows(2).all(|w| (w[0].ts, w[0].node) <= (w[1].ts, w[1].node)));
    }

    #[test]
    fn merge_is_permutation_invariant(dumps in proptest::collection::vec(
        proptest::collection::vec(arb_event(), 0..30), 2..4)) {
        let a = Trace::merge(dumps.clone());
        let mut rev = dumps;
        rev.reverse();
        let b = Trace::merge(rev);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn kway_merge_equals_concat_stable_sort(shapes in proptest::collection::vec(
        proptest::collection::vec((0u64..6, 0u32..3), 0..40), 0..6)) {
        // The k-way merge must be *exactly* the old concatenate-and-
        // stable-sort, including on full `(ts, node)` ties. Timestamps and
        // nodes are drawn from tiny ranges so ties (within one dump and
        // across dumps) are the common case, and every event carries a
        // globally unique function id so any reordering of a tie is
        // observable. Dumps are intentionally not pre-sorted: merge must
        // handle unsorted input identically too.
        let mut uid = 0u32;
        let dumps: Vec<Vec<Event>> = shapes
            .into_iter()
            .map(|dump| {
                dump.into_iter()
                    .map(|(ts, node)| {
                        uid += 1;
                        Event::new(
                            SimTime::from_micros(ts),
                            NodeId(node),
                            EventKind::Af { pid: Pid(1), function: FunctionId(uid) },
                        )
                    })
                    .collect()
            })
            .collect();
        let mut reference: Vec<Event> = dumps.iter().flatten().cloned().collect();
        reference.sort_by_key(|e| (e.ts, e.node));
        let merged = Trace::merge(dumps);
        prop_assert_eq!(merged.events(), &reference[..]);
    }

    #[test]
    fn canonical_order_is_the_stable_ts_node_sort(
        steps in proptest::collection::vec((0u64..8, 0u32..5), 0..300),
        time_ordered in any::<bool>(),
        stay in 5u64..9,
    ) {
        // Time-ordered inputs are what a window dumps: timestamps never go
        // back, and a step stays on the same instant unless its draw is
        // above `stay` — three in eight down to never, so cross-node
        // clusters of equal timestamps run from a few events to the whole
        // input, long enough for an unstable sort to reorder a tie. The
        // other inputs draw timestamps at random and take the fallback.
        // Unique function ids make a reordered tie show.
        let mut ts = 0u64;
        let events: Vec<Event> = steps
            .iter()
            .zip(0u32..)
            .map(|(&(step, node), uid)| {
                ts = if time_ordered { ts + step.saturating_sub(stay) } else { step };
                Event::new(
                    SimTime::from_micros(ts),
                    NodeId(node),
                    EventKind::Af { pid: Pid(1), function: FunctionId(uid) },
                )
            })
            .collect();
        let mut reference = events.clone();
        reference.sort_by_key(|e| (e.ts, e.node));
        let mut canonical = events.clone();
        rose_events::sort_canonical(&mut canonical);
        prop_assert_eq!(&canonical, &reference);
        prop_assert_eq!(Trace::from_events(events).events(), &reference[..]);
    }

    #[test]
    fn json_len_is_the_length_of_the_dump(events in proptest::collection::vec(arb_event(), 0..60)) {
        // 0..60 reaches the empty and the one-event trace, whose framing
        // has no comma to count.
        let t = Trace::from_events(events);
        prop_assert_eq!(t.json_len(), t.to_json().len());
    }

    #[test]
    fn push_keeps_traces_sorted(events in proptest::collection::vec(arb_event(), 0..80)) {
        let mut t = Trace::new();
        for e in events {
            t.push(e);
        }
        prop_assert!(t.events().windows(2).all(|w| (w[0].ts, w[0].node) <= (w[1].ts, w[1].node)));
    }

    #[test]
    fn af_before_is_consistent_with_filter(events in proptest::collection::vec(arb_event(), 0..80),
                                           node in 0u32..5, cut in 0u64..1_000_000) {
        let t = Trace::from_events(events);
        let cut = SimTime::from_micros(cut);
        let got = t.af_before(NodeId(node), cut);
        // Every result is an AF on the node, strictly before the cut,
        // and in reverse chronological order.
        let is_af = |e: &Event| matches!(e.kind, EventKind::Af { .. });
        let all_match = got.iter().all(|e| e.node == NodeId(node) && e.ts < cut && is_af(e));
        prop_assert!(all_match);
        prop_assert!(got.windows(2).all(|w| w[0].ts >= w[1].ts));
        let count = t
            .events()
            .iter()
            .filter(|e| e.node == NodeId(node) && e.ts < cut && is_af(e))
            .count();
        prop_assert_eq!(got.len(), count);
    }
}
