//! A tiny ordered fork-join pool for deterministic parallel execution.
//!
//! Every parallel surface of the reproduction — campaign fan-out in the
//! bench bins, confirmation replays, speculative schedule search — reduces
//! to the same primitive: run a list of independent jobs on a bounded pool
//! of worker threads and hand the results back *in job order*. Callers then
//! fold side effects (telemetry, reports, accounting) sequentially over the
//! ordered results, which is what makes the output byte-identical to a
//! sequential run regardless of worker count or scheduling.
//!
//! The pool is scoped [`std::thread`] — no external runtime — because jobs
//! here are coarse (a whole simulated deployment per job, milliseconds to
//! seconds each) and work-stealing granularity would buy nothing.

use std::sync::Mutex;

/// Runs `f` over `items` on `jobs` worker threads and returns the results
/// in item order.
///
/// Items are claimed from a shared queue in order, so with one worker this
/// degrades to exactly the sequential loop. A panicking job propagates once
/// all workers have been joined.
pub fn ordered_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.clamp(1, n.max(1));
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let next = queue.lock().expect("job queue poisoned").next();
                let Some((i, item)) = next else { break };
                let result = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_preserves_item_order() {
        for jobs in [1, 2, 7, 64] {
            let items: Vec<u64> = (0..100).collect();
            let out = ordered_map(jobs, items, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ordered_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(ordered_map(4, empty, |i| i).is_empty());
        assert_eq!(ordered_map(4, vec![9], |i| i + 1), vec![10]);
    }

    #[test]
    fn ordered_map_runs_jobs_concurrently_but_joins_all() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let out = ordered_map(4, (0..32).collect::<Vec<usize>>(), |i| {
            ran.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(ran.load(Ordering::SeqCst), 32);
        assert_eq!(out.len(), 32);
    }
}
