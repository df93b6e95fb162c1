//! Traces: dumped event sequences and multi-node merging.
//!
//! When the bug oracle fires, each node's tracer dumps its window; the
//! per-node traces are then merged by timestamp into a single cluster trace
//! (paper §4.4: "If the tracer is deployed on multiple nodes, we first merge
//! the traces before passing them to the next phase").

use serde::Serialize;

use crate::event::{Event, EventKind};
use crate::ids::NodeId;
use crate::time::SimTime;

/// A chronologically ordered sequence of events from one or more nodes.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Trace {
    events: Vec<Event>,
}

/// Puts `events` in the canonical trace order: the stable sort by
/// `(ts, node)`, so full ties keep the order they arrived in.
///
/// A window dumps in push order, which is time order with the nodes of one
/// instant interleaved as their events happened. For such an input only the
/// equal-timestamp runs can be out of order, and stable-sorting each run by
/// node is the whole sort: no scratch the size of the dump, nothing moved
/// outside a run that needs it. Any other input takes the full stable sort.
pub fn sort_canonical(events: &mut [Event]) {
    if !events.is_sorted_by_key(|e| e.ts) {
        events.sort_by_key(|e| (e.ts, e.node));
        return;
    }
    for run in events.chunk_by_mut(|a, b| a.ts == b.ts) {
        if !run.is_sorted_by_key(|e| e.node) {
            run.sort_by_key(|e| e.node);
        }
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace { events: Vec::new() }
    }

    /// Builds a trace from events in the canonical `(ts, node)` order
    /// ([`sort_canonical`]), sorted in place: the trace keeps the allocation
    /// it was handed.
    pub fn from_events(mut events: Vec<Event>) -> Self {
        sort_canonical(&mut events);
        Trace { events }
    }

    /// Merges per-node dumps into one cluster trace ordered by timestamp.
    ///
    /// Implemented as a k-way merge: per-node dumps come out of the sliding
    /// window already in push (chronological) order, so each is consumed
    /// linearly instead of concatenating everything and re-sorting. A dump
    /// that is *not* already ordered is stably sorted first, which makes the
    /// result exactly equivalent to the old concatenate-and-stable-sort by
    /// `(ts, node)`: within one dump, equal keys keep dump order; across
    /// dumps, equal keys are broken by dump index, i.e. concatenation order.
    pub fn merge(dumps: impl IntoIterator<Item = Vec<Event>>) -> Self {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut dumps: Vec<Vec<Event>> = dumps.into_iter().collect();
        dumps.iter_mut().for_each(|dump| sort_canonical(dump));
        let total = dumps.iter().map(Vec::len).sum();
        let mut cursors: Vec<_> = dumps
            .into_iter()
            .map(|d| d.into_iter().peekable())
            .collect();
        let mut heap: BinaryHeap<Reverse<((SimTime, NodeId), usize)>> =
            BinaryHeap::with_capacity(cursors.len());
        for (i, cursor) in cursors.iter_mut().enumerate() {
            if let Some(e) = cursor.peek() {
                heap.push(Reverse(((e.ts, e.node), i)));
            }
        }
        let mut events = Vec::with_capacity(total);
        while let Some(Reverse((_, i))) = heap.pop() {
            let e = cursors[i].next().expect("heap entry implies an element");
            if let Some(next) = cursors[i].peek() {
                heap.push(Reverse(((next.ts, next.node), i)));
            }
            events.push(e);
        }
        Trace { events }
    }

    /// The events, in chronological order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event, keeping order if it is not older than the tail.
    ///
    /// Out-of-order appends fall back to a sorted re-insert.
    pub fn push(&mut self, event: Event) {
        match self.events.last() {
            Some(last) if (event.ts, event.node) < (last.ts, last.node) => {
                let idx = self
                    .events
                    .partition_point(|e| (e.ts, e.node) <= (event.ts, event.node));
                self.events.insert(idx, event);
            }
            _ => self.events.push(event),
        }
    }

    /// Iterates over the fault events (SCF, ND, PS pauses/crashes) only.
    pub fn faults(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(|e| e.kind.is_fault())
    }

    /// Iterates over AF events on a specific node.
    pub fn af_on_node(&self, node: NodeId) -> impl Iterator<Item = &Event> + '_ {
        self.events
            .iter()
            .filter(move |e| e.node == node && matches!(e.kind, EventKind::Af { .. }))
    }

    /// AF events on `node` strictly before `ts`, most recent first — the
    /// "functions which precede the fault" input of the paper's Algorithm 1.
    pub fn af_before(&self, node: NodeId, ts: SimTime) -> Vec<&Event> {
        let mut v: Vec<&Event> = self.af_on_node(node).filter(|e| e.ts < ts).collect();
        v.reverse();
        v
    }

    /// The timestamp of the first event, if any.
    pub fn start(&self) -> Option<SimTime> {
        self.events.first().map(|e| e.ts)
    }

    /// The timestamp of the last event, if any.
    pub fn end(&self) -> Option<SimTime> {
        self.events.last().map(|e| e.ts)
    }

    /// Serializes the trace to JSON (the size baseline the binary codec is
    /// measured against).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trace serialization cannot fail")
    }

    /// The length of [`Trace::to_json`]'s output without building it: the
    /// framing plus each event's serialization, one event's tree alive at a
    /// time.
    pub fn json_len(&self) -> usize {
        let framing = r#"{"events":[]}"#.len();
        let commas = self.events.len().saturating_sub(1);
        let events: usize = self
            .events
            .iter()
            .map(|e| {
                serde_json::to_string(e)
                    .expect("event serialization cannot fail")
                    .len()
            })
            .sum();
        framing + commas + events
    }

    /// Per-type event counts `(scf, af, nd, ps, ok)` for reporting.
    pub fn type_counts(&self) -> TraceCounts {
        let mut c = TraceCounts::default();
        for e in &self.events {
            match e.kind {
                EventKind::Scf { .. } => c.scf += 1,
                EventKind::Af { .. } => c.af += 1,
                EventKind::Nd { .. } => c.nd += 1,
                EventKind::Ps { .. } => c.ps += 1,
                EventKind::SyscallOk { .. } => c.ok += 1,
            }
        }
        c
    }
}

/// Per-type event counts of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// System-call failures.
    pub scf: usize,
    /// Application function events.
    pub af: usize,
    /// Network delays.
    pub nd: usize,
    /// Process-state events.
    pub ps: usize,
    /// Successful-syscall records (baseline tracers only).
    pub ok: usize,
}

impl TraceCounts {
    /// Total events.
    pub fn total(&self) -> usize {
        self.scf + self.af + self.nd + self.ps + self.ok
    }
}

impl FromIterator<Event> for Trace {
    fn from_iter<T: IntoIterator<Item = Event>>(iter: T) -> Self {
        Trace::from_events(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProcState;
    use crate::ids::{FunctionId, Pid};
    use crate::time::SimDuration;

    fn af(ts: u64, node: u32, f: u32) -> Event {
        Event::new(
            SimTime::from_micros(ts),
            NodeId(node),
            EventKind::Af {
                pid: Pid(node + 1),
                function: FunctionId(f),
            },
        )
    }

    fn crash(ts: u64, node: u32) -> Event {
        Event::new(
            SimTime::from_micros(ts),
            NodeId(node),
            EventKind::Ps {
                pid: Pid(node + 1),
                state: ProcState::Crashed,
                duration: SimDuration::ZERO,
            },
        )
    }

    #[test]
    fn from_events_keeps_an_ordered_dump_where_it_is_and_sorts_any_other() {
        // Ordered, ties included: the allocation it arrived in comes back.
        let ordered: Vec<Event> = (0..64u32).map(|i| af(u64::from(i / 2), 0, i)).collect();
        let (ptr, copy) = (ordered.as_ptr(), ordered.clone());
        let t = Trace::from_events(ordered);
        assert_eq!(t.events().as_ptr(), ptr);
        assert_eq!(t.events(), &copy[..]);
        // Time-ordered with the nodes of each instant interleaved, as a
        // cluster-wide window dumps them, one cluster longer than a small
        // sort's insertion cutoff: each instant is sorted where it lies.
        let interleaved: Vec<Event> = (0..96u32)
            .map(|i| af(u64::from(i.saturating_sub(39) / 8), 3 - i % 4, i))
            .collect();
        let mut want = interleaved.clone();
        want.sort_by_key(|e| (e.ts, e.node));
        let ptr = interleaved.as_ptr();
        let t = Trace::from_events(interleaved);
        assert_eq!(t.events().as_ptr(), ptr);
        assert_eq!(t.events(), &want[..]);
        // Unordered: the stable sort, so equal keys keep arrival order.
        let unordered: Vec<Event> = (0..64u32)
            .map(|i| af(u64::from(7 * i % 16), i % 3, i))
            .collect();
        let mut want = unordered.clone();
        want.sort_by_key(|e| (e.ts, e.node));
        assert_eq!(Trace::from_events(unordered).events(), &want[..]);
    }

    #[test]
    fn merge_orders_by_timestamp_across_nodes() {
        let a = vec![af(10, 0, 1), af(30, 0, 2)];
        let b = vec![af(5, 1, 1), af(20, 1, 2)];
        let t = Trace::merge([a, b]);
        let ts: Vec<u64> = t.events().iter().map(|e| e.ts.as_micros()).collect();
        assert_eq!(ts, vec![5, 10, 20, 30]);
    }

    #[test]
    fn merge_ties_are_ordered_by_node() {
        let t = Trace::merge([vec![af(10, 1, 1)], vec![af(10, 0, 2)]]);
        assert_eq!(t.events()[0].node, NodeId(0));
        assert_eq!(t.events()[1].node, NodeId(1));
    }

    #[test]
    fn merge_is_stable_and_strictly_ordered_across_many_nodes() {
        // The diagnoser's PS > ND > SCF prioritization walks the merged
        // trace in order, so the merge must be (a) totally ordered by
        // `(ts, node)` and (b) stable for full ties: two events with the
        // same timestamp on the same node keep their per-node dump order.
        let dumps: Vec<Vec<Event>> = (0..4u32)
            .map(|node| {
                vec![
                    af(40, node, 1),
                    af(10, node, 2),
                    // Full tie with the previous event on this node: the
                    // function id encodes the dump position.
                    af(10, node, 3),
                    crash(25, node),
                ]
            })
            .collect();
        let t = Trace::merge(dumps);
        assert_eq!(t.len(), 16);
        // Total order by (ts, node): non-decreasing lexicographically.
        let keys: Vec<(SimTime, NodeId)> = t.events().iter().map(|e| (e.ts, e.node)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "merge is not ordered by (ts, node)");
        // Ties on ts are broken by node...
        let at_10: Vec<u32> = t
            .events()
            .iter()
            .filter(|e| e.ts == SimTime::from_micros(10))
            .map(|e| e.node.0)
            .collect();
        assert_eq!(at_10, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        // ...and full (ts, node) ties preserve dump order (stability):
        // function 2 was dumped before function 3 on every node.
        for node in 0..4u32 {
            let fns: Vec<u32> = t
                .events()
                .iter()
                .filter(|e| e.ts == SimTime::from_micros(10) && e.node == NodeId(node))
                .map(|e| match e.kind {
                    EventKind::Af { function, .. } => function.0,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(fns, vec![2, 3], "merge reordered a full tie on node {node}");
        }
    }

    #[test]
    fn push_out_of_order_reinserts() {
        let mut t = Trace::new();
        t.push(af(20, 0, 1));
        t.push(af(10, 0, 2));
        t.push(af(30, 0, 3));
        let ts: Vec<u64> = t.events().iter().map(|e| e.ts.as_micros()).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn af_before_is_reverse_chronological() {
        let t = Trace::from_events(vec![af(1, 0, 1), af(2, 0, 2), af(3, 0, 3), af(2, 1, 9)]);
        let before: Vec<u32> = t
            .af_before(NodeId(0), SimTime::from_micros(3))
            .iter()
            .map(|e| match e.kind {
                EventKind::Af { function, .. } => function.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(before, vec![2, 1]);
    }

    #[test]
    fn faults_filters_non_faults() {
        let t = Trace::from_events(vec![af(1, 0, 1), crash(2, 0)]);
        assert_eq!(t.faults().count(), 1);
        assert_eq!(t.type_counts().ps, 1);
        assert_eq!(t.type_counts().af, 1);
        assert_eq!(t.type_counts().total(), 2);
    }

    #[test]
    fn json_len_counts_the_framing_of_small_traces() {
        // No event, one event (no comma) and two (one comma).
        for n in 0..3 {
            let t = Trace::from_events((0..n).map(|i| crash(i, 0)).collect());
            let dump = t.to_json();
            assert_eq!(t.json_len(), dump.len(), "{dump}");
        }
    }
}
