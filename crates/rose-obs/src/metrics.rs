//! The deterministic campaign registry: a clock, phase spans, phase
//! records and named counters.
//!
//! An [`Obs`] is a cheap clonable handle onto a shared registry. The
//! workflow layers (`rose-core`, `rose-apps`, `rose-hunt`, the bins) hold
//! clones of the same handle and publish into it; at the end of a campaign
//! the registry is drained into a [`crate::RunReport`] and (optionally) a
//! [`crate::ChromeTrace`] phase track. The kernel, the codec and the tracer
//! know nothing of it: a number worth keeping goes into the phase record of
//! the phase that produced it.
//!
//! Two properties matter more than feature count:
//!
//! 1. **Determinism.** Nothing here reads a wall clock. Spans advance a
//!    *campaign clock* measured in accumulated simulated time: each
//!    [`Obs::end_phase`] call adds the phase's simulated elapsed time, so a
//!    rerun with the same seed yields byte-identical output.
//! 2. **Near-zero cost when detached.** Every mutating call first checks a
//!    plain `bool` on the handle itself; a disabled handle never touches
//!    the mutex.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use rose_events::SimDuration;
use serde::{Deserialize, Serialize};

use crate::report::PhaseRecord;

/// Identifier of an open phase span, returned by [`Obs::begin_phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(usize);

/// One phase span on the campaign timeline.
///
/// `start`/`end` are offsets from the campaign start, in accumulated
/// simulated time across the runs the campaign performed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSpan {
    /// Phase name ("profiling", "tracing", "diagnosis", "reproduction").
    pub name: String,
    /// Campaign-clock offset at which the phase opened.
    pub start: SimDuration,
    /// Campaign-clock offset at which the phase closed; `None` while open.
    pub end: Option<SimDuration>,
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    spans: Vec<PhaseSpan>,
    records: Vec<PhaseRecord>,
    /// Accumulated simulated time across all runs of the campaign.
    campaign_now: SimDuration,
}

/// Shared telemetry handle. Clones refer to the same registry. The default
/// is [`Obs::disabled`].
#[derive(Debug, Clone, Default)]
pub struct Obs {
    active: bool,
    inner: Arc<Mutex<Registry>>,
}

impl Obs {
    /// An active registry.
    pub fn new() -> Self {
        Obs {
            active: true,
            ..Obs::default()
        }
    }

    /// A no-op handle: every mutating call returns without touching the
    /// registry. This is the default everywhere telemetry is optional.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Whether this handle publishes into a registry.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.inner.lock().expect("rose-obs registry poisoned")
    }

    // ---- counters -------------------------------------------------------

    /// Adds `n` to the counter `name`.
    pub fn counter_add(&self, name: &str, n: u64) {
        if !self.active || n == 0 {
            return;
        }
        let mut reg = self.lock();
        match reg.counters.get_mut(name) {
            // Saturate rather than wrap: a pegged counter is a visibly wrong
            // report, a wrapped one is a silently wrong one.
            Some(v) => *v = v.saturating_add(n),
            None => {
                reg.counters.insert(name.to_owned(), n);
            }
        }
    }

    /// Increments the counter `name` by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    // ---- merging forked registries --------------------------------------

    /// Absorbs a forked registry: its counters are added to this one's and
    /// its phase records appended in order. Spans and the campaign clock
    /// are *not* transferred — the parent's sequential phases own the
    /// timeline.
    ///
    /// This is the join half of the fork/join pattern used by parallel
    /// execution: each worker publishes into a private registry, and the
    /// parent absorbs the workers *in task order*, so the merged registry
    /// equals what sequential execution would have produced.
    pub fn absorb(&self, other: &Obs) {
        if !self.active {
            return;
        }
        let (counters, records) = {
            let fork = other.lock();
            (fork.counters.clone(), fork.records.clone())
        };
        let mut reg = self.lock();
        for (name, n) in counters {
            let slot = reg.counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(n);
        }
        reg.records.extend(records);
    }

    // ---- phase spans ----------------------------------------------------

    /// Opens a phase span at the current campaign-clock offset. On a
    /// disabled handle this is a no-op returning a dangling id.
    pub fn begin_phase(&self, name: &str) -> SpanId {
        if !self.active {
            return SpanId(usize::MAX);
        }
        let mut reg = self.lock();
        let start = reg.campaign_now;
        reg.spans.push(PhaseSpan {
            name: name.to_owned(),
            start,
            end: None,
        });
        SpanId(reg.spans.len() - 1)
    }

    /// Closes a phase span, advancing the campaign clock by the simulated
    /// time the phase consumed. `elapsed` is simulated time, never wall
    /// time — determinism depends on it.
    pub fn end_phase(&self, id: SpanId, elapsed: SimDuration) {
        if !self.active {
            return;
        }
        let mut reg = self.lock();
        reg.campaign_now += elapsed;
        let now = reg.campaign_now;
        if let Some(span) = reg.spans.get_mut(id.0) {
            if span.end.is_none() {
                span.end = Some(now);
            }
        }
    }

    /// All spans opened so far, in open order.
    pub fn phases(&self) -> Vec<PhaseSpan> {
        self.lock().spans.clone()
    }

    /// Total simulated time accumulated on the campaign clock.
    pub fn campaign_elapsed(&self) -> SimDuration {
        self.lock().campaign_now
    }

    // ---- phase records --------------------------------------------------

    /// Appends a structured phase record to the run report.
    pub fn record(&self, record: PhaseRecord) {
        if !self.active {
            return;
        }
        self.lock().records.push(record);
    }

    /// All phase records appended so far, in append order.
    pub fn records(&self) -> Vec<PhaseRecord> {
        self.lock().records.clone()
    }

    /// The run report built from the appended records.
    pub fn report(&self) -> crate::RunReport {
        crate::RunReport {
            records: self.records(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MetaStats;

    /// A record told apart by one number.
    fn meta(cores: u64) -> PhaseRecord {
        PhaseRecord::Meta(MetaStats {
            cores: cores as usize,
            rustc: String::new(),
        })
    }

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        obs.counter_add("x", 5);
        obs.record(meta(1));
        let span = obs.begin_phase("p");
        obs.end_phase(span, SimDuration::from_secs(1));
        assert_eq!(obs.counter("x"), 0);
        assert!(obs.records().is_empty());
        assert!(obs.phases().is_empty());
        assert_eq!(obs.campaign_elapsed(), SimDuration::ZERO);
    }

    #[test]
    fn clones_share_the_registry() {
        let obs = Obs::new();
        let other = obs.clone();
        other.counter_add("workflow.testing_runs", 3);
        obs.counter_inc("workflow.testing_runs");
        assert_eq!(obs.counter("workflow.testing_runs"), 4);
    }

    #[test]
    fn spans_advance_the_campaign_clock() {
        let obs = Obs::new();
        let a = obs.begin_phase("profiling");
        obs.end_phase(a, SimDuration::from_secs(60));
        let b = obs.begin_phase("tracing");
        obs.end_phase(b, SimDuration::from_secs(120));
        let spans = obs.phases();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start, SimDuration::ZERO);
        assert_eq!(spans[0].end, Some(SimDuration::from_secs(60)));
        assert_eq!(spans[1].start, SimDuration::from_secs(60));
        assert_eq!(spans[1].end, Some(SimDuration::from_secs(180)));
        assert_eq!(obs.campaign_elapsed(), SimDuration::from_secs(180));
    }

    #[test]
    fn absorbing_forks_in_order_matches_sequential_publishing() {
        // Sequential reference: everything published into one registry.
        let seq = Obs::new();
        for v in [5u64, 1, 9] {
            seq.counter_inc("runs");
            seq.counter_add("events", v);
            seq.record(meta(v));
        }
        // Fork/join: one private registry per "run", absorbed in order.
        let par = Obs::new();
        for v in [5u64, 1, 9] {
            let worker = Obs::new();
            worker.counter_inc("runs");
            worker.counter_add("events", v);
            worker.record(meta(v));
            let span = worker.begin_phase("run");
            worker.end_phase(span, SimDuration::from_secs(v));
            par.absorb(&worker);
        }
        for name in ["runs", "events"] {
            assert_eq!(par.counter(name), seq.counter(name));
        }
        assert_eq!(par.records(), seq.records());
        // The parent's sequential phases own the timeline.
        assert!(par.phases().is_empty());
        assert_eq!(par.campaign_elapsed(), SimDuration::ZERO);
    }

    #[test]
    fn absorb_into_disabled_handle_is_inert() {
        let parent = Obs::disabled();
        let worker = Obs::new();
        worker.counter_add("x", 3);
        parent.absorb(&worker);
        assert_eq!(parent.counter("x"), 0);
    }

    #[test]
    fn counter_increment_saturates_instead_of_wrapping() {
        let obs = Obs::new();
        obs.counter_add("near-max", u64::MAX - 1);
        obs.counter_inc("near-max");
        obs.counter_inc("near-max");
        assert_eq!(obs.counter("near-max"), u64::MAX);
        // Absorbing a fork saturates the same way.
        let fork = Obs::new();
        fork.counter_add("near-max", u64::MAX);
        obs.absorb(&fork);
        assert_eq!(obs.counter("near-max"), u64::MAX);
    }

    mod properties {
        use proptest::prelude::*;

        use super::super::*;

        proptest! {
            #[test]
            fn counter_never_wraps(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
                let obs = Obs::new();
                obs.counter_add("c", a);
                obs.counter_add("c", b);
                let got = obs.counter("c");
                prop_assert_eq!(got, a.saturating_add(b));
                prop_assert!(got >= a.max(b));
            }
        }
    }

    #[test]
    fn double_end_keeps_first_close() {
        let obs = Obs::new();
        let a = obs.begin_phase("p");
        obs.end_phase(a, SimDuration::from_secs(1));
        obs.end_phase(a, SimDuration::from_secs(1));
        assert_eq!(obs.phases()[0].end, Some(SimDuration::from_secs(1)));
        // The clock still advances: callers pay for what they report.
        assert_eq!(obs.campaign_elapsed(), SimDuration::from_secs(2));
    }
}
