//! The footprint of Table 2's pipeline: a YCSB cluster under the Full
//! tracer, then `dump → save_trace → read_all`.
//!
//! The tracer is *lightweight* because what it keeps per call is small and
//! kept once: a 56-byte event pushed into the window, the window's own
//! buffer handed to the dump, frames encoded from the dump's slice and
//! decoded into the vector `read_all` returns. The load generator keeps no
//! journal, so the cluster's memory does not grow with the operations it
//! completes. Two ceilings hold that, about 15 % above the readings this
//! test prints (they repeat exactly, debug and release):
//!
//! * allocations per completed operation, whole pipeline — 2.495 here (the
//!   cluster's own messages and values; dump, save and read add 83 in all);
//!   3.494 at the parent commit, with a journalled `format!` per operation,
//!   a cloned dump and a payload and an event vector per frame;
//! * the high-water mark of live heap bytes above the start — 12.9 MB here
//!   (10.0 MB the cluster with its 2.8 MB window, then the dump's sort
//!   scratch or the vector read back); 35.0 MB at the parent: 25.0 MB the
//!   cluster with a 4.8 MB window of 96-byte events and the journal of one
//!   virtual second, then a copied dump.
//!
//! This binary owns its global allocator, so it holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use rose_bench::rediskv::run_ycsb;
use rose_store::{save_trace, TraceReader};
use rose_trace::{Tracer, TracerConfig};

/// Counts allocations and tracks live bytes and their high-water mark.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// A step's reading: allocations made, and the high-water mark of live
/// bytes so far above `base`.
fn reading<R>(base: usize, f: impl FnOnce() -> R) -> (u64, f64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    (
        ALLOCATIONS.load(Ordering::Relaxed) - before,
        peak as f64 / 1e6,
        out,
    )
}

#[test]
fn the_traced_ycsb_pipeline_stays_within_its_footprint() {
    const ALLOCATIONS_PER_OP: f64 = 2.9;
    const PEAK_LIVE_MB: f64 = 14.8;

    let path =
        std::env::temp_dir().join(format!("rose-footprint-{}.rosetrace", std::process::id()));
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);

    let tracer = Tracer::new(TracerConfig::full().with_window(50_000));
    let (run, run_mb, (mut sim, ops)) = reading(base, || run_ycsb(vec![Box::new(tracer)], 6, 1, 7));
    let now = sim.now();
    let tracer = sim.hook_mut::<Tracer>().expect("tracer attached");
    let (dump, dump_mb, trace) = reading(base, || tracer.dump(now));
    let (save, save_mb, saved) = reading(base, || save_trace(&path, &trace));
    let (read, read_mb, back) = reading(base, || TraceReader::open(&path)?.read_all());
    let _ = std::fs::remove_file(&path);

    saved.expect("scratch trace written");
    assert_eq!(back.expect("scratch trace read back"), trace.events());
    assert_eq!(trace.len(), 50_000, "the window filled");
    assert!(ops > 50_000, "a virtual second completes operations: {ops}");

    let per_op = (run + dump + save + read) as f64 / ops as f64;
    println!(
        "{ops} ops, {} events dumped; allocations: run {run}, dump {dump}, save {save}, \
         read {read} = {per_op:.3} per op; peak live MB after each: \
         {run_mb:.2}, {dump_mb:.2}, {save_mb:.2}, {read_mb:.2}",
        trace.len()
    );
    assert!(
        per_op <= ALLOCATIONS_PER_OP,
        "{per_op:.3} allocations per completed operation; the budget is {ALLOCATIONS_PER_OP}"
    );
    assert!(
        read_mb <= PEAK_LIVE_MB,
        "live heap peaked {read_mb:.2} MB above the start; the budget is {PEAK_LIVE_MB} MB"
    );
}
