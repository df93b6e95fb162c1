//! `confirmBug` (paper §4.5): a guess's replay rate over fresh seeds, and
//! the window evaluation that either accepts a guess at the target rate or
//! pools it as a pruning candidate.

use rose_inject::{Condition, FaultSchedule};

use super::replay::Replay;
use super::Search;
use crate::harness::RunObservation;

/// Confirmation runs per candidate (paper §4.5: 10).
pub const CONFIRM_RUNS: u32 = 10;

/// A schedule `confirmBug` measured, with its provenance: the diagnosis
/// level that produced it and the causal log of its first bug run, from
/// which a report builds its propagation chains.
pub(super) struct Guess {
    pub(super) schedule: FaultSchedule,
    /// Replay rate over the confirmation runs; 0 after the early abort.
    pub(super) rate: f64,
    pub(super) level: u8,
    pub(super) causal: Option<rose_events::CausalLog>,
}

/// What [`Search::evaluate_window`] decided about a window of schedules.
pub(super) struct WindowOutcome {
    /// How many of the window's schedules the sequential search charged
    /// (≥ 1). It falls short of the window when a schedule showed the bug —
    /// its confirmation perturbs the seed stream, staling the speculated
    /// remainder — or when the schedule budget ran out.
    pub(super) charged: usize,
    /// The last charged schedule, when it confirmed at the target rate.
    pub(super) accepted: Option<Guess>,
    /// The last charged discovery run.
    pub(super) last: RunObservation,
}

impl Search<'_, '_> {
    /// Hunter hand-off: a seeded schedule is the discovery run's exact fault
    /// sequence, confirmed before any search work. It needs no extraction —
    /// a hunt may have produced a trace whose extraction is empty (e.g. a
    /// pure partition bug) and the seed is still worth confirming. `None`
    /// below the target rate; a seed that showed the bug at all then joins
    /// the pruning pool.
    pub(super) fn confirm_seed(&mut self) -> Option<Guess> {
        let schedule = self.cfg.seed_schedule.clone()?;
        self.schedules += 1;
        let level = seeded_level(&schedule);
        let seed = self.confirm(schedule, level);
        if seed.rate >= self.cfg.target_replay_rate {
            return Some(seed);
        }
        if seed.rate > 0.0 {
            self.candidates.push((seed.schedule, seed.level));
        }
        None
    }

    /// Evaluates a window of schedules exactly as the sequential search
    /// does — per schedule: budget check, up to `discovery_runs` seeds, and
    /// on a bug `confirmBug` — over one replay of all the window's
    /// discovery runs. The first schedule is charged unconditionally; its
    /// budget check is the caller's.
    ///
    /// Seeds are laid out position-wise, which matches the sequential
    /// stream because the window only moves past a schedule when that
    /// schedule consumed all its discovery runs without a bug — any bug
    /// ends the window (confirmation consumes seeds, so the speculated
    /// remainder would be stale and is discarded uncharged).
    pub(super) fn evaluate_window(&mut self, window: &[FaultSchedule], level: u8) -> WindowOutcome {
        let per = self.cfg.discovery_runs.max(1) as usize;
        let mut replay = Replay::discovery_runs(window, per);
        let mut charged = 0;
        let mut accepted = None;
        let mut last = None;
        for sched in window {
            if charged > 0 && self.budget_exhausted() {
                break;
            }
            self.schedules += 1;
            charged += 1;
            // Up to `per` discovery runs, stopping at the first that shows
            // the bug.
            let bug = (0..per).any(|_| {
                let obs = self.engine.next_run(&mut replay);
                let bug = obs.bug;
                last = Some(obs);
                bug
            });
            if bug {
                self.engine.commit(&mut replay);
                let guess = self.confirm(sched.clone(), level);
                if guess.rate >= self.cfg.target_replay_rate {
                    accepted = Some(guess);
                } else {
                    self.candidates.push((guess.schedule, level));
                }
                break;
            }
        }
        self.engine.commit(&mut replay);
        WindowOutcome {
            charged,
            accepted,
            last: last.expect("a window holds at least one schedule"),
        }
    }

    /// `confirmBug`: replay-rate estimation over fresh seeds with the
    /// paper's early abort, which is checked at the *top* of each
    /// iteration — so a batched confirmation charges exactly the runs the
    /// one-by-one loop performs and discards the rest. It reads each
    /// replay's `bug`, and the causal log of the first that shows it, from
    /// the same [`RunObservation`] a discovery run returns.
    pub(super) fn confirm(&mut self, schedule: FaultSchedule, level: u8) -> Guess {
        let mut replay = Replay::confirm_runs(&schedule, CONFIRM_RUNS as usize);
        let (mut bug_runs, mut correct_runs) = (0u32, 0u32);
        let mut causal = None;
        while bug_runs + correct_runs < CONFIRM_RUNS
            && correct_runs <= self.cfg.confirm_abort_correct
        {
            let run = self.engine.next_run(&mut replay);
            if run.bug {
                bug_runs += 1;
                causal = causal.or(run.causal);
            } else {
                correct_runs += 1;
            }
        }
        self.engine.commit(&mut replay);
        let rate = if bug_runs + correct_runs < CONFIRM_RUNS {
            0.0 // aborted early
        } else {
            100.0 * f64::from(bug_runs) / f64::from(CONFIRM_RUNS)
        };
        Guess {
            schedule,
            rate,
            level,
            causal,
        }
    }
}

/// The fault-context level a seeded (hunter-supplied) schedule reports:
/// 2 when any fault is keyed on application context (function entry,
/// offset, or execution index), 1 when everything is time/order/input
/// keyed — mirroring how the search itself labels its levels.
fn seeded_level(sched: &FaultSchedule) -> u8 {
    let contextual = sched.faults.iter().flat_map(|f| &f.conditions).any(|c| {
        matches!(
            c,
            Condition::FunctionEntered { .. }
                | Condition::FunctionOffset { .. }
                | Condition::ExecutionIndex { .. }
        )
    });
    1 + u8::from(contextual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::tests::{
        has_crash, hunter_seed, one_crash_extraction, ran, runs, scf_extraction,
    };
    use crate::diagnose::{Diagnoser, DiagnosisConfig};
    use crate::extract::{Extraction, ExtractionStats};
    use rose_profile::{Profile, SymbolTable};

    #[test]
    fn flaky_bug_lands_as_candidate_with_measured_rate() {
        // Bug fires on 7 of 10 seeds — above a 60 % target it should be
        // accepted with rate ≈ 70 %.
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&[]);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|s, seed| ran(has_crash(s) && seed % 10 < 7, 10)));
        // Depending on the seed stream the discovery run may or may not see
        // the bug; when it does, the confirm rate must be measured.
        if rep.reproduced {
            assert!(rep.replay_rate >= 60.0 && rep.replay_rate <= 100.0);
        }
    }

    #[test]
    fn seeded_schedule_short_circuits_the_search() {
        // The bug only fires on the hunter's schedule; the extraction's
        // flat SCF never reproduces. The seed must confirm at 100 %,
        // report level 2 (context-keyed), and skip the search entirely.
        let recover =
            |c: &Condition| matches!(c, Condition::FunctionEntered { name } if name == "recover");
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = scf_extraction();
        let cfg = DiagnosisConfig {
            seed_schedule: Some(hunter_seed()),
            ..Default::default()
        };
        let mut d = Diagnoser::new(cfg, &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|s, _| {
            let crash_on_recover = |f: &rose_inject::ScheduledFault| {
                matches!(f.action, rose_inject::FaultAction::Crash)
                    && f.conditions.iter().any(recover)
            };
            ran(s.faults.iter().any(crash_on_recover), 10)
        }));
        assert!(rep.reproduced);
        assert_eq!(rep.replay_rate, 100.0);
        assert_eq!(rep.level, 2);
        assert_eq!(rep.schedules_generated, 1);
        assert_eq!(rep.runs, 10); // one full confirmation, nothing else
        assert!(rep
            .schedule
            .unwrap()
            .faults
            .iter()
            .any(|f| f.conditions.iter().any(recover)));
    }

    #[test]
    fn seeded_schedule_confirms_even_with_empty_extraction() {
        // A partition-style discovery can yield a trace whose extraction
        // is empty; the seed must still be confirmed and reported.
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = Extraction {
            faults: vec![],
            stats: ExtractionStats::default(),
        };
        let cfg = DiagnosisConfig {
            seed_schedule: Some(hunter_seed()),
            ..Default::default()
        };
        let mut d = Diagnoser::new(cfg, &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|s, _| ran(!s.faults.is_empty(), 10)));
        assert!(rep.reproduced);
        assert_eq!(rep.replay_rate, 100.0);
    }

    #[test]
    fn an_empty_extraction_prunes_a_sub_target_seed() {
        // The seed shows the bug on 8 of its first 10 runs and 7 of the
        // next 10: below a 90 % target both times. With nothing extracted
        // it is the only candidate, and the pruning runs report it.
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = Extraction::default();
        let cfg = DiagnosisConfig {
            target_replay_rate: 90.0,
            seed_schedule: Some(hunter_seed()),
            ..Default::default()
        };
        let mut n = 0;
        let rep = Diagnoser::new(cfg, &profile, &symbols, &ex).diagnose(&mut runs(|_, _| {
            n += 1;
            ran(!matches!(n, 9 | 10 | 18..=20), 10)
        }));
        assert!(!rep.reproduced);
        assert_eq!(rep.schedule, Some(hunter_seed()));
        assert_eq!(rep.replay_rate, 70.0, "the pruning run's rate");
        assert_eq!(rep.level, seeded_level(&hunter_seed()));
        assert_eq!(rep.runs, 20);
    }
}
