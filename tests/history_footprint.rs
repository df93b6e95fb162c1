//! The footprint of a run's history: a read records a view of its key's
//! list, not a copy of it.
//!
//! The list stores (RedisRaft, ZooKeeper, Redpanda, MongoDB) answer a read
//! with the key's whole append list, and the history keeps every read
//! until the oracle's last poll. While each read kept its own joined text,
//! that text was one copy of the list per read, and a run's memory grew
//! with the square of its length: 5.6 MB of read text in the 120 s
//! RedisRaft-42 run below, 4.3 times the 60 s run's 1.3 MB. Each read now
//! holds a pointer and a length into the store's one log, so the heap
//! grows with the run. Two ceilings hold that (the readings this test
//! prints repeat exactly, debug and release):
//!
//! * the high-water mark of live heap bytes of a fault-free 120 s
//!   RedisRaft-42 run — 5.37 MB here, 12.45 MB with the per-read copies;
//!   the ceiling is about 15 % above the reading;
//! * that mark over the 60 s run's — 1.97 here, 2.61 with the copies; a
//!   run twice as long may hold at most 2.5 times the heap.
//!
//! This binary owns its global allocator, so it holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rose::apps::redisraft::{RedisRaftBug, RedisRaftCase};
use rose::events::SimDuration;
use rose::sim::OpOutcome;
use rose::Rose;

/// Tracks live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are relaxed atomic statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`/`dealloc`, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A fault-free RedisRaft-42 run of `secs` virtual seconds at the seed the
/// benchmark's warm-up deploys it with: the high-water mark of live heap
/// above the start in MB, the reads the history holds and the bytes of
/// their texts.
fn redisraft_run(secs: u64) -> (f64, usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let rose = Rose::new(RedisRaftCase {
        bug: RedisRaftBug::Rr42,
    });
    let mut sim = rose.deploy(1, Vec::new());
    sim.start();
    sim.run_for(SimDuration::from_secs(secs));
    let (mut reads, mut text) = (0, 0);
    for op in sim.core().history.ops() {
        if let OpOutcome::Ok(Some(list)) = &op.outcome {
            reads += 1;
            text += list.len();
        }
    }
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    (peak as f64 / 1e6, reads, text)
}

#[test]
fn a_runs_history_grows_with_the_run_not_its_square() {
    const PEAK_LIVE_MB_120S: f64 = 6.2;
    const GROWTH_60S_TO_120S: f64 = 2.5;

    let (short_mb, short_reads, short_text) = redisraft_run(60);
    let (long_mb, long_reads, long_text) = redisraft_run(120);
    let growth = long_mb / short_mb;
    println!(
        "RedisRaft-42 fault-free, peak live MB: 60 s {short_mb:.2} ({short_reads} reads, \
         {short_text} bytes read), 120 s {long_mb:.2} ({long_reads} reads, {long_text} bytes \
         read), {growth:.2}x"
    );
    assert!(long_reads > 400, "the workload reads: {long_reads}");
    assert!(
        long_mb <= PEAK_LIVE_MB_120S,
        "a 120 s run's live heap peaked {long_mb:.2} MB above the start; the budget is \
         {PEAK_LIVE_MB_120S} MB"
    );
    assert!(
        growth <= GROWTH_60S_TO_120S,
        "doubling the run grew its peak live heap {growth:.2}x ({short_mb:.2} -> {long_mb:.2} \
         MB); the budget is {GROWTH_60S_TO_120S}x"
    );
}
