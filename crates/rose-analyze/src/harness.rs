//! The run-harness boundary between the diagnosis algorithm and the testing
//! environment.
//!
//! The diagnosis phase is pure search logic; executing a candidate schedule
//! (deploy system, run workload, inject, check oracle) is delegated to a
//! [`RunHarness`] implemented by `rose-core` over the simulated cluster.
//! Every run the diagnosis charges, discovery run or confirmation replay,
//! comes back as one [`RunObservation`].

use rose_events::{NodeId, SimDuration};
use rose_inject::{ExecutionFeedback, FaultSchedule};

/// Everything the diagnosis loop reads from one charged run: a discovery
/// run's `feedback` and `af_calls` refine the next schedule, and
/// `confirmBug` reads a confirmation replay's `bug` and `causal`.
///
/// A harness may stop a run at its first detection, as a capture is dumped
/// there: a bug-positive observation then describes the run up to the
/// verdict (a prefix of the played-out `af_calls`, the faults armed and
/// injected by then, the causal log up to its oracle node). One that never
/// detects describes the whole run.
#[derive(Debug, Clone, Default)]
pub struct RunObservation {
    /// Did the bug oracle fire?
    pub bug: bool,
    /// Monitored application-function entries, in chronological order, with
    /// the node they ran on (resolved to names).
    pub af_calls: Vec<(NodeId, String)>,
    /// Executor feedback: which faults were injected/armed.
    pub feedback: ExecutionFeedback,
    /// Virtual time the run is charged (accumulated into the Table 1 `Time`
    /// column): the length it was scheduled for plus the oracle's cost, so
    /// where the run stopped does not move it.
    pub wall: SimDuration,
    /// Causal provenance log of the run, when the harness collected one.
    pub causal: Option<rose_events::CausalLog>,
    /// Simulation queue items executed during the run, up to where it
    /// stopped. Only a discovery run that played out counts into
    /// [`crate::diagnose::SweepRedundancy`]: one that showed the bug may
    /// have stopped at detection.
    pub sim_events: u64,
    /// Of those, how many executed before the first fault fired. The
    /// diagnosis does not read it; it stays only because the benchmark's
    /// mirror (`bench/src/mirror.rs`) fills it and
    /// `bench/tests/mirror_equivalence.rs` compares it. ROADMAP item 2(b)
    /// deletes it.
    pub events_before_injection: Option<u64>,
}

impl RunObservation {
    /// Whether `chain` (function names) was observed **in order** on `node`
    /// — the `correctOrder` test of Algorithm 1's `processTrace`.
    pub fn chain_observed(&self, node: NodeId, chain: &[String]) -> bool {
        let mut want = chain.iter();
        let mut next = want.next();
        for (n, f) in &self.af_calls {
            let Some(w) = next else { return true };
            if *n == node && f == w {
                next = want.next();
            }
        }
        next.is_none()
    }

    /// Whether a function was observed on a node at all.
    pub fn function_observed(&self, node: NodeId, function: &str) -> bool {
        self.af_calls
            .iter()
            .any(|(n, f)| *n == node && f == function)
    }

    /// Whether a function was observed on any node.
    pub fn function_observed_anywhere(&self, function: &str) -> bool {
        self.af_calls.iter().any(|(_, f)| f == function)
    }
}

/// Executes candidate fault schedules in the testing environment.
pub trait RunHarness {
    /// Runs the target system once with `schedule` injected, using `seed`
    /// for all run nondeterminism, and reports what happened.
    fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation;

    /// Speculatively executes a batch of independent `(schedule, seed)`
    /// runs — possibly in parallel — returning observations in job order.
    /// An implementation may stop a run at its first detection and observe
    /// it there; a bug-positive observation then ends at detection (see
    /// [`RunObservation`]).
    ///
    /// Every run the diagnosis charges reaches the harness through here,
    /// discovery runs and confirmation replays alike. The search lays a
    /// batch out in the order it executes runs one by one, then replays its
    /// decisions over the returned runs; the prefix of jobs it actually
    /// reached is reported via
    /// [`RunHarness::commit_speculative`]. Implementations with run side
    /// effects (telemetry) should buffer them per job until that call, and
    /// drop whatever lies beyond the committed prefix, so speculation is
    /// invisible in the output. The default runs the jobs one by one with
    /// [`RunHarness::run`], publishing side effects directly — exact for
    /// side-effect-free harnesses (the test doubles) and for single-job
    /// batches, which are all the diagnosis loop emits with speculation
    /// off.
    fn run_speculative(&mut self, jobs: &[(FaultSchedule, u64)]) -> Vec<RunObservation> {
        jobs.iter()
            .map(|(schedule, seed)| self.run(schedule, *seed))
            .collect()
    }

    /// Commits the first `used` jobs of the last
    /// [`RunHarness::run_speculative`] batch: their buffered side effects
    /// become visible, the rest are discarded. No-op by default.
    fn commit_speculative(&mut self, used: usize) {
        let _ = used;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(calls: &[(u32, &str)]) -> RunObservation {
        RunObservation {
            af_calls: calls
                .iter()
                .map(|(n, f)| (NodeId(*n), (*f).to_string()))
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn chain_observed_requires_order_on_one_node() {
        let o = obs(&[(0, "a"), (1, "b"), (0, "b"), (0, "c")]);
        let chain = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(o.chain_observed(NodeId(0), &chain(&["a", "b", "c"])));
        assert!(o.chain_observed(NodeId(0), &chain(&["a", "c"])));
        assert!(!o.chain_observed(NodeId(0), &chain(&["b", "a"])));
        assert!(!o.chain_observed(NodeId(1), &chain(&["a"])));
        assert!(o.chain_observed(NodeId(1), &chain(&[])));
    }

    #[test]
    fn function_observation_queries() {
        let o = obs(&[(0, "a"), (2, "b")]);
        assert!(o.function_observed(NodeId(2), "b"));
        assert!(!o.function_observed(NodeId(0), "b"));
        assert!(o.function_observed_anywhere("b"));
        assert!(!o.function_observed_anywhere("z"));
    }
}
