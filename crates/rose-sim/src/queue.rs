//! The simulation event queue.
//!
//! Items pop in `(at, seq)` order, `seq` being the order they were
//! scheduled in, so equal timestamps are first-in first-out and a run is a
//! pure function of its seed. The heap orders 24-byte `(at, seq, slot)`
//! keys; the items themselves — as large as the application's message type
//! makes them — sit still in a slab until they are popped.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rose_events::SimTime;

/// A priority queue of `T` keyed by time, first-in first-out within one
/// timestamp.
pub(crate) struct EventQueue<T> {
    /// Min-heap of `(at, seq, slot)`; `seq` is unique, so `slot` never
    /// decides an order.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// The queued items, `None` where a slot is free.
    slab: Vec<Option<T>>,
    /// Free slots of `slab`, reused before it grows.
    free: Vec<u32>,
    seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Queues `item` for time `at`, behind everything already queued for
    /// that time.
    pub(crate) fn schedule(&mut self, at: SimTime, item: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(item);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 queued events");
                self.slab.push(Some(item));
                slot
            }
        };
        self.heap.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }

    /// Pops the next item and its time if it is due at or before `limit`.
    pub(crate) fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, T)> {
        let &Reverse((at, _, slot)) = self.heap.peek()?;
        if at > limit {
            return None;
        }
        self.heap.pop();
        self.free.push(slot);
        let item = self.slab[slot as usize]
            .take()
            .expect("a queued key points at a filled slot");
        Some((at, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const END: SimTime = SimTime(u64::MAX);

    fn drain(q: &mut EventQueue<&'static str>, limit: SimTime) -> Vec<(u64, &'static str)> {
        std::iter::from_fn(|| q.pop_due(limit))
            .map(|(at, item)| (at.0, item))
            .collect()
    }

    #[test]
    fn pops_by_time_then_by_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a1");
        q.schedule(SimTime(20), "b");
        q.schedule(SimTime(10), "a2");
        q.schedule(SimTime(10), "a3");
        assert_eq!(
            drain(&mut q, END),
            [(10, "a1"), (10, "a2"), (10, "a3"), (20, "b"), (30, "c")]
        );
        assert!(q.pop_due(END).is_none());
    }

    #[test]
    fn nothing_pops_before_it_is_due() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert!(q.pop_due(SimTime(9)).is_none());
        assert_eq!(drain(&mut q, SimTime(10)), [(10, "a")]);
        assert_eq!(drain(&mut q, SimTime(19)), []);
        assert_eq!(drain(&mut q, SimTime(20)), [(20, "b")]);
    }

    #[test]
    fn order_holds_across_interleaved_schedule_and_pop_with_slot_reuse() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), "x1");
        q.schedule(SimTime(5), "x2");
        q.schedule(SimTime(1), "first");
        assert_eq!(q.pop_due(END), Some((SimTime(1), "first")));
        // Takes the slot "first" left, and still queues behind x1 and x2.
        q.schedule(SimTime(5), "x3");
        assert_eq!(q.pop_due(END), Some((SimTime(5), "x1")));
        // Takes x1's slot — a lower one than x2's and x3's.
        q.schedule(SimTime(5), "x4");
        q.schedule(SimTime(4), "early");
        assert_eq!(
            drain(&mut q, END),
            [(4, "early"), (5, "x2"), (5, "x3"), (5, "x4")]
        );
        // Four items were queued at once at most; freed slots were reused.
        assert_eq!(q.slab.len(), 4);
        assert!(q.slab.iter().all(Option::is_none));
        assert_eq!(q.free.len(), 4);
    }

    #[test]
    fn matches_a_sorted_reference_on_a_long_mixed_run() {
        // A small LCG drives schedule/pop decisions; the reference sorts
        // every scheduled `(at, order)` pair.
        let mut q = EventQueue::new();
        let mut queued: Vec<(u64, u64)> = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut order = 0;
        let mut now = 0;
        for _ in 0..5_000 {
            if next() % 3 != 0 {
                // Never in the past, often at a timestamp already queued.
                let at = now + next() % 8;
                q.schedule(SimTime(at), order);
                queued.push((at, order));
                order += 1;
            } else if let Some((at, item)) = q.pop_due(END) {
                queued.sort_unstable();
                assert_eq!((at.0, item), queued.remove(0));
                now = at.0;
            }
        }
        queued.sort_unstable();
        let rest: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop_due(END))
            .map(|(at, item)| (at.0, item))
            .collect();
        assert_eq!(rest, queued);
    }
}
