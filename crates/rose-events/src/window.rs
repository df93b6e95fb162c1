//! The tracer's sliding event window.
//!
//! The production tracer keeps the most recent events (1 million by default)
//! in a fixed-capacity ring buffer — the in-kernel `BPF_MAP_ARRAY` of the
//! paper — and only writes them out when the bug oracle requests a `dump`.
//! This bounds the memory footprint and removes disk I/O from the hot path.

use serde::{Deserialize, Serialize};

use crate::event::Event;

/// Default window capacity (paper §4.4: "1 million by default").
pub const DEFAULT_WINDOW_CAPACITY: usize = 1_000_000;

/// Smallest reservation made while the ring grows toward its capacity.
///
/// Growth doubles from here (`1024, 2048, …`) but is always clamped to the
/// configured capacity, so a 1M-event window never allocates past 1M slots
/// the way a plain `Vec` push-doubling from an arbitrary length would.
const MIN_GROWTH_CHUNK: usize = 1024;

/// A fixed-capacity ring buffer of [`Event`]s that overwrites its oldest
/// entries when full.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlidingWindow {
    capacity: usize,
    /// Ring storage; once `len == capacity`, `head` points at the oldest
    /// element and pushes overwrite it.
    buf: Vec<Event>,
    head: usize,
    /// Total events ever offered to the window (including overwritten ones).
    total_pushed: u64,
    /// Total bytes currently held, tracked incrementally.
    bytes: usize,
    /// High-water mark of `bytes` over the window's lifetime. Monotone:
    /// survives eviction and [`SlidingWindow::clear`], so one window can
    /// report its true peak across dump/reset cycles (the Table 2 `Memory`
    /// column is a peak, not an instantaneous figure).
    #[serde(default)]
    peak_bytes: usize,
}

impl SlidingWindow {
    /// Creates a window with the paper's default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_WINDOW_CAPACITY)
    }

    /// Creates a window holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be non-zero");
        SlidingWindow {
            capacity,
            buf: Vec::new(),
            head: 0,
            total_pushed: 0,
            bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Appends an event, evicting the oldest if the window is full.
    ///
    /// Byte accounting uses the size cached in the [`Event`] itself, so a
    /// push never re-walks SCF path strings or `SyscallOk` payloads — this
    /// runs for every traced event, and again for the evicted one.
    pub fn push(&mut self, event: Event) {
        self.total_pushed += 1;
        self.bytes += event.wire_size();
        if self.buf.len() < self.capacity {
            if self.buf.len() == self.buf.capacity() {
                // Grow in bounded doubling steps clamped to the configured
                // capacity: amortized O(1) pushes without ever allocating
                // past `capacity` slots (a plain push on a Vec sized by
                // doubling overshoots a 1M window by up to ~2×).
                let remaining = self.capacity - self.buf.len();
                let chunk = self.buf.capacity().max(MIN_GROWTH_CHUNK).min(remaining);
                self.buf.reserve_exact(chunk);
            }
            self.buf.push(event);
        } else {
            let old = core::mem::replace(&mut self.buf[self.head], event);
            self.bytes -= old.wire_size();
            self.head = (self.head + 1) % self.capacity;
        }
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever pushed, including those already evicted.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Current buffered size in bytes (the Table 2 `Memory` figure).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Lifetime high-water mark of [`SlidingWindow::bytes`]. Monotone — it
    /// is never reduced, not even by [`SlidingWindow::clear`].
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Copies the window contents out in chronological (push) order.
    ///
    /// This is the `dump` primitive; the window itself is left untouched so
    /// tracing can continue.
    pub fn snapshot(&self) -> Vec<Event> {
        if self.head == 0 {
            // Not yet wrapped (or wrapped back to the start): the buffer is
            // already in push order, one straight copy suffices.
            return self.buf.clone();
        }
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Moves the window contents out in chronological (push) order — the
    /// buffer itself, rotated in place, not a copy — and leaves the window
    /// empty as [`SlidingWindow::clear`] does: `total_pushed` and
    /// `peak_bytes` carry on.
    pub fn drain(&mut self) -> Vec<Event> {
        self.buf.rotate_left(self.head);
        self.head = 0;
        self.bytes = 0;
        core::mem::take(&mut self.buf)
    }

    /// Drops all events.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.bytes = 0;
    }

    /// Iterates over the events in chronological order without copying.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

impl Default for SlidingWindow {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::ids::{FunctionId, NodeId, Pid};
    use crate::time::SimTime;

    fn ev(i: u64) -> Event {
        Event::new(
            SimTime::from_micros(i),
            NodeId(0),
            EventKind::Af {
                pid: Pid(1),
                function: FunctionId(i as u32),
            },
        )
    }

    #[test]
    fn keeps_insertion_order_when_not_full() {
        let mut w = SlidingWindow::with_capacity(8);
        for i in 0..5 {
            w.push(ev(i));
        }
        let snap = w.snapshot();
        assert_eq!(snap.len(), 5);
        assert!(snap.windows(2).all(|p| p[0].ts < p[1].ts));
    }

    #[test]
    fn evicts_oldest_when_full() {
        let mut w = SlidingWindow::with_capacity(4);
        for i in 0..10 {
            w.push(ev(i));
        }
        let snap = w.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].ts, SimTime::from_micros(6));
        assert_eq!(snap[3].ts, SimTime::from_micros(9));
        assert_eq!(w.total_pushed(), 10);
    }

    #[test]
    fn byte_accounting_is_consistent_under_eviction() {
        let mut w = SlidingWindow::with_capacity(3);
        for i in 0..20 {
            w.push(ev(i));
        }
        let expected: usize = w.iter().map(|e| e.kind.wire_size()).sum();
        assert_eq!(w.bytes(), expected);
    }

    #[test]
    fn byte_accounting_survives_wraparound_with_mixed_sizes() {
        // Regression test for the wraparound path: events of very different
        // wire sizes (tiny AF records vs SCF records with long paths vs
        // payload-carrying SyscallOk records) must keep `bytes` equal to
        // the exact sum over the events currently held, through several
        // full wraps of the ring.
        use crate::syscall::{Errno, SyscallId};
        let mixed = |i: u64| {
            let kind = match i % 3 {
                0 => EventKind::Af {
                    pid: Pid(1),
                    function: FunctionId(i as u32),
                },
                1 => EventKind::Scf {
                    pid: Pid(1),
                    syscall: SyscallId::Open,
                    fd: None,
                    path: Some(format!("/var/lib/db/segment-{i:010}.log").into()),
                    errno: Errno::Enoent,
                    ei: None,
                },
                _ => EventKind::SyscallOk {
                    pid: Pid(1),
                    syscall: SyscallId::Write,
                    content: Some(vec![0u8; (i % 97) as usize].into()),
                },
            };
            Event::new(SimTime::from_micros(i), NodeId(0), kind)
        };
        let capacity = 7;
        let mut w = SlidingWindow::with_capacity(capacity);
        let mut peaks = Vec::new();
        for i in 0..capacity as u64 * 5 + 3 {
            w.push(mixed(i));
            let held: usize = w.iter().map(|e| e.kind.wire_size()).sum();
            assert_eq!(w.bytes(), held, "bytes drifted after push #{i}");
            assert!(w.peak_bytes() >= w.bytes());
            peaks.push(w.peak_bytes());
        }
        assert!(
            peaks.windows(2).all(|p| p[0] <= p[1]),
            "peak_bytes not monotone"
        );
        assert_eq!(w.len(), capacity);
    }

    #[test]
    fn peak_bytes_survives_clear() {
        let mut w = SlidingWindow::with_capacity(4);
        for i in 0..4 {
            w.push(ev(i));
        }
        let peak = w.peak_bytes();
        assert!(peak > 0);
        w.clear();
        assert_eq!(w.bytes(), 0);
        assert_eq!(w.peak_bytes(), peak);
        w.push(ev(9));
        assert_eq!(
            w.peak_bytes(),
            peak,
            "one small event cannot beat the old peak"
        );
    }

    #[test]
    fn drain_is_snapshot_then_clear_without_the_copy() {
        for pushes in [0u64, 3, 4, 6, 8, 9] {
            let mut w = SlidingWindow::with_capacity(4);
            for i in 0..pushes {
                w.push(ev(i));
            }
            let (expected, peak) = (w.snapshot(), w.peak_bytes());
            assert_eq!(w.drain(), expected, "after {pushes} pushes");
            assert!(w.is_empty());
            assert_eq!(w.bytes(), 0);
            assert_eq!(w.total_pushed(), pushes);
            assert_eq!(w.peak_bytes(), peak);
            // The window keeps tracing: what follows is all the next drain sees.
            w.push(ev(100));
            w.push(ev(101));
            assert_eq!(w.drain(), vec![ev(100), ev(101)]);
        }
    }

    #[test]
    fn clear_resets_contents_but_not_totals() {
        let mut w = SlidingWindow::with_capacity(3);
        for i in 0..5 {
            w.push(ev(i));
        }
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.bytes(), 0);
        assert_eq!(w.total_pushed(), 5);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = SlidingWindow::with_capacity(0);
    }

    #[test]
    fn buffer_growth_never_allocates_past_capacity() {
        // The growth fix: chunked doubling clamped to the window capacity.
        // At no point during the fill may the backing Vec hold more slots
        // than the configured capacity, and the number of reallocations must
        // stay logarithmic (doubling), not linear (per-push reserve_exact).
        let capacity = 100_000;
        let mut w = SlidingWindow::with_capacity(capacity);
        let mut allocs = 0u32;
        let mut last_cap = w.buf.capacity();
        for i in 0..capacity as u64 + 10 {
            w.push(ev(i));
            let cap_now = w.buf.capacity();
            assert!(
                cap_now <= capacity,
                "backing Vec grew to {cap_now} slots, past the {capacity} cap"
            );
            if cap_now != last_cap {
                allocs += 1;
                last_cap = cap_now;
            }
        }
        assert_eq!(w.buf.capacity(), capacity, "fill should end exactly at cap");
        assert!(
            allocs <= 12,
            "expected ~log2(100000/1024)+1 reallocations, saw {allocs}"
        );
    }
}
