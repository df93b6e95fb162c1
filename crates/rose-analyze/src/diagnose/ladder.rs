//! The ladder of guesses (paper §4.5, Figure 2): Level 1, the Level-2.5
//! pre-pass, the Level 2 sweeps and Algorithm 1, Level 3 offsets, and the
//! pruning runs — each guess a refinement state materialized into a
//! schedule and handed to the window evaluation.

use rose_events::{NodeId, SimDuration, SimTime};
use rose_inject::{Condition, FaultAction, FaultSchedule, ScheduledFault};

use super::confirm::Guess;
use super::Search;
use crate::extract::Extraction;
use crate::harness::RunObservation;

/// Hard cap on syscall-invocation sweeps (paper §4.5.2: 50).
pub const SCF_SWEEP_CAP: u64 = 50;

/// Warm-up offset added to Level 1 relative fault times.
pub const WARMUP: SimDuration = SimDuration::from_secs(5);

/// Per-fault refinement state accumulated across levels; schedules are
/// regenerated from this on every iteration.
#[derive(Debug, Clone)]
struct PlanState {
    /// Context chain per fault, oldest → newest (the reverse of Algorithm
    /// 1's `L`, which grows backwards from the fault).
    chains: Vec<Vec<String>>,
    /// Level 3 offset replacing the newest chain function's entry probe.
    offsets: Vec<Option<u32>>,
    /// `nth` for SCF faults.
    nths: Vec<u64>,
    /// Level 2.5: per-context execution-index count for SCF faults. When
    /// set, the materialized fault is keyed on the trace-recorded calling
    /// context with this count (and `nth` reverts to 1) instead of the
    /// flat invocation index in `nths`.
    ei_counts: Vec<Option<u64>>,
    /// Whether the fault is replicated across all nodes (Amplification).
    amplified: Vec<bool>,
}

impl PlanState {
    fn level1(extraction: &Extraction) -> Self {
        PlanState {
            chains: vec![Vec::new(); extraction.faults.len()],
            offsets: vec![None; extraction.faults.len()],
            nths: vec![1; extraction.faults.len()],
            ei_counts: vec![None; extraction.faults.len()],
            amplified: vec![false; extraction.faults.len()],
        }
    }
}

impl Search<'_, '_> {
    /// Level 2.5 pre-pass: the level-1 guess with every SCF keyed on its
    /// *recorded* execution index — the calling context and per-context
    /// count of the failing call in the buggy trace — instead of the flat
    /// first invocation. `None` when nothing carries an index or the guess
    /// misses the target rate (sub-target candidates still land in the
    /// pruning pool). The flat search still runs after a sub-100 % guess,
    /// so a recorded index never lowers the rate the flat counter reaches.
    pub(super) fn try_ei_level1(&mut self) -> Option<Guess> {
        let mut state = PlanState::level1(self.extraction);
        let faults = &self.extraction.faults;
        state.ei_counts = faults
            .iter()
            .map(|f| f.ei.as_ref().map(|ei| u64::from(ei.count).max(1)))
            .collect();
        if state.ei_counts.iter().all(Option::is_none) {
            return None;
        }
        self.ei_sweep(|d| d.evaluate_state(&state, 1).1)
    }

    /// Runs one Level-2.5 sweep, counting it in `ei_sweeps` and the
    /// schedules it generates in `ei_schedules`.
    fn ei_sweep(&mut self, sweep: impl FnOnce(&mut Self) -> Option<Guess>) -> Option<Guess> {
        self.ei_sweeps += 1;
        let before = self.schedules;
        let found = sweep(self);
        self.ei_schedules += self.schedules - before;
        found
    }
    /// The paper's flat three-level search (Algorithm 1): the first
    /// schedule that confirms at the target rate. An empty extraction has
    /// nothing to search.
    pub(super) fn search(&mut self) -> Option<Guess> {
        if self.extraction.faults.is_empty() {
            return None;
        }
        // --- Level 1: initial guess — fault order and inputs only.
        let mut state = PlanState::level1(self.extraction);
        if let (_, Some(found)) = self.evaluate_state(&state, 1) {
            return Some(found);
        }

        // --- Level 2: contextualize each fault, highest priority first.
        for &idx in &self.extraction.priority_order() {
            if self.budget_exhausted() {
                break;
            }
            let found = match self.extraction.faults[idx].action {
                FaultAction::Scf { .. } => self.sweep_scf(&mut state, idx),
                FaultAction::Crash | FaultAction::Pause { .. } => {
                    self.find_context(&mut state, idx, true)
                }
                // No Amplification for network faults: they already affect
                // the entire deployment (§4.5.2).
                FaultAction::Partition { .. } => self.find_context(&mut state, idx, false),
            };
            if found.is_some() {
                return found;
            }
        }

        // --- Level 3: offsets inside the innermost context function.
        for &idx in &self.extraction.priority_order() {
            if self.budget_exhausted() {
                break;
            }
            if matches!(self.extraction.faults[idx].action, FaultAction::Scf { .. }) {
                continue;
            }
            let found = self.sweep_offsets(&mut state, idx);
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Pruning runs: re-confirm the sub-target candidates with fresh seeds,
    /// in the order found, until one reaches the target rate or the budget
    /// runs out.
    pub(super) fn prune(&mut self) -> Vec<Guess> {
        let mut confirmed = Vec::new();
        for (schedule, level) in std::mem::take(&mut self.candidates) {
            if self.budget_exhausted() {
                break;
            }
            let guess = self.confirm(schedule, level);
            let reached = guess.rate >= self.cfg.target_replay_rate;
            confirmed.push(guess);
            if reached {
                break;
            }
        }
        confirmed
    }
    // --- Levels ----------------------------------------------------------

    /// Levels 2, 2.5 and 3 as one loop: each candidate is applied to the
    /// refinement state, materialized and evaluated, in windows of
    /// `speculation` schedules, until one confirms at the target rate, the
    /// list ends, or the schedule budget runs out. The candidate sequence
    /// of a sweep is data-independent — only the stopping point depends on
    /// run outcomes — which is what lets a window be laid out in advance.
    /// The levels differ only in the list they pass: flat invocation
    /// indices, per-context execution-index counts, or offset sites. A sweep
    /// that finds nothing leaves `state` as it found it.
    fn sweep<C: Copy>(
        &mut self,
        state: &mut PlanState,
        level: u8,
        candidates: &[C],
        apply: impl Fn(&mut PlanState, C),
    ) -> Option<Guess> {
        let start = state.clone();
        let width = self.cfg.speculation.max(1);
        let mut k = 0;
        while k < candidates.len() && !self.budget_exhausted() {
            let end = (k + width).min(candidates.len());
            let window: Vec<FaultSchedule> = candidates[k..end]
                .iter()
                .map(|&c| {
                    apply(state, c);
                    materialize(self.extraction, state, self.cfg.cluster_nodes)
                })
                .collect();
            let out = self.evaluate_window(&window, level);
            if out.accepted.is_some() {
                apply(state, candidates[k + out.charged - 1]);
                return out.accepted;
            }
            // Resume right after the last charged candidate: whatever the
            // window speculated beyond it is stale.
            k += out.charged;
        }
        *state = start;
        None
    }

    /// Level 2 for SCF faults: sweep the invocation index. With path input
    /// the sweep is bounded by the cap; without input it is bounded by the
    /// call's profiling frequency and the cap (§4.5.2).
    fn sweep_scf(&mut self, state: &mut PlanState, idx: usize) -> Option<Guess> {
        let FaultAction::Scf { syscall, path, .. } = &self.extraction.faults[idx].action else {
            return None;
        };
        let found = self.sweep_scf_ei(state, idx);
        if found.is_some() {
            return found;
        }
        // No recorded index, or its context went unmatched in replays: the
        // flat sweep is the fallback, so a recorded index never reproduces
        // less than the flat counter would.
        let cap = if path.is_some() {
            SCF_SWEEP_CAP
        } else {
            let observed = self.profile.syscall_count(*syscall);
            if observed == 0 {
                // The call never occurred in the failure-free profile and
                // no path input narrows it: there is no invocation index
                // worth sweeping, so yield no candidate instead of
                // clamping the bound up to 1.
                return None;
            }
            observed.min(SCF_SWEEP_CAP)
        };
        // nth = 1 was Level 1.
        let nths: Vec<u64> = (2..=cap).collect();
        self.sweep(state, 2, &nths, |s, nth| s.nths[idx] = nth)
    }

    /// Level 2.5: sweep per-context execution-index counts instead of flat
    /// invocation indices; `None`, with nothing charged, for a fault without
    /// a recorded index. The trace stamped the failing call with its
    /// calling context and per-context count, so the sweep tries the
    /// recorded count first (the exact production index), then lower
    /// counts — the direction replays drift when the failing context is
    /// reached with fewer prior calls. The candidate set is bounded by the
    /// recorded count itself, which is typically far below the flat cap.
    fn sweep_scf_ei(&mut self, state: &mut PlanState, idx: usize) -> Option<Guess> {
        let recorded = u64::from(self.extraction.faults[idx].ei.as_ref()?.count).max(1);
        let counts: Vec<u64> = std::iter::once(recorded)
            .chain((1..recorded).rev())
            .take(SCF_SWEEP_CAP as usize)
            .collect();
        self.ei_sweep(|d| d.sweep(state, 2, &counts, |s, count| s.ei_counts[idx] = Some(count)))
    }

    /// Algorithm 1 (`findContextforFault`): grow a chain of unique preceding
    /// functions until the bug reproduces, the chain stops being observed,
    /// or a duplicate function ends the unique code path. Each step depends
    /// on what the previous run observed, so its window is one schedule.
    /// It reads the observation it is handed: a run that showed the bug
    /// below target may have stopped at detection, and a chain it had not
    /// reached by then counts as unobserved.
    fn find_context(
        &mut self,
        state: &mut PlanState,
        idx: usize,
        allow_amplification: bool,
    ) -> Option<Guess> {
        let fault = &self.extraction.faults[idx];
        let node = fault.node;
        let preceding = fault.preceding.clone();
        let start = state.clone();

        for f in preceding {
            if self.budget_exhausted() {
                break;
            }
            // Duplicate → no longer a unique code path (Algorithm 1 line 9).
            if state.chains[idx].contains(&f) {
                break;
            }
            // The chain grows backwards in production time; conditions are
            // evaluated oldest-first.
            state.chains[idx].insert(0, f.clone());

            let (obs, found) = self.evaluate_state(state, 2);
            if found.is_some() {
                return found;
            }

            // An extracted fault keeps its index as its id in every built
            // schedule: amplified replicas are appended after the originals.
            let injected = obs.feedback.was_injected(idx);
            let correct_order = obs.chain_observed(node, &state.chains[idx]);
            if correct_order && injected {
                // Context holds but is not yet sufficient: keep extending
                // (Algorithm 1 lines 17–19).
                continue;
            }

            if !obs.function_observed(node, &f)
                && allow_amplification
                && self.cfg.enable_amplification
                && !state.amplified[idx]
            {
                // Role-specific state? Replicate across all nodes (§4.5.2).
                state.amplified[idx] = true;
                self.amplifications += 1;
                let (obs2, found) = self.evaluate_state(state, 2);
                if found.is_some() {
                    return found;
                }
                if obs2.function_observed_anywhere(&f) {
                    // Role-specific indeed: keep the amplified schedule and
                    // keep extending the chain.
                    continue;
                }
            }
            // `f` is not on the trigger path: stop contextualizing this
            // fault.
            break;
        }
        // Not reproduced: the refinement state reverts so later faults are
        // explored against the unmodified Level 1 baseline.
        *state = start;
        None
    }

    /// Level 3: replace the innermost context function's entry probe with
    /// each of its instrumented offsets, syscall call-sites first.
    fn sweep_offsets(&mut self, state: &mut PlanState, idx: usize) -> Option<Guess> {
        // The function to sweep: the newest chain entry, or the immediately
        // preceding production function if Level 2 kept no chain.
        let function = state.chains[idx]
            .last()
            .cloned()
            .or_else(|| self.extraction.faults[idx].preceding.first().cloned())?;
        if state.chains[idx].is_empty() {
            state.chains[idx].push(function.clone());
        }
        let offsets: Vec<u32> = self
            .symbols
            .sweep_order(&function)
            .iter()
            .map(|site| site.offset)
            .collect();
        self.sweep(state, 3, &offsets, |s, offset| {
            s.offsets[idx] = Some(offset)
        })
    }
    /// Builds the schedule `state` describes and evaluates it as a window
    /// of one, whatever the budget: the last discovery run, plus the
    /// guess when it confirmed at target.
    fn evaluate_state(&mut self, state: &PlanState, level: u8) -> (RunObservation, Option<Guess>) {
        let sched = materialize(self.extraction, state, self.cfg.cluster_nodes);
        let out = self.evaluate_window(std::slice::from_ref(&sched), level);
        (out.last, out.accepted)
    }
}

/// Materializes a refinement state into a schedule: Level 1 relative times
/// where no context was discovered, context chains (with optional Level 3
/// offsets) elsewhere, amplified replicas appended, production fault order
/// enforced.
fn materialize(extraction: &Extraction, state: &PlanState, cluster_nodes: u32) -> FaultSchedule {
    let t0 = extraction.faults.first().map_or(SimTime::ZERO, |f| f.ts);
    let mut sched = FaultSchedule::new();
    for (i, fault) in extraction.faults.iter().enumerate() {
        let mut sf = ScheduledFault::new(fault.node, fault.action.clone());
        if let FaultAction::Scf { syscall, nth, .. } = &mut sf.action {
            // An EI-keyed fault counts matching invocations through its
            // execution-index condition, so the armed action fires on the
            // first call the condition admits.
            *nth = state.ei_counts[i].map_or(state.nths[i], |_| 1);
            if let (Some(count), Some(ei)) = (state.ei_counts[i], &fault.ei) {
                sf.conditions.push(Condition::ExecutionIndex {
                    chain: ei.chain.clone(),
                    syscall: *syscall,
                    count,
                });
            }
        }
        if state.chains[i].is_empty() {
            // Level 1: relative production time (signal/network faults
            // only; SCFs arm immediately and match inputs).
            if !matches!(fault.action, FaultAction::Scf { .. }) {
                sf.conditions.push(Condition::TimeElapsed {
                    after: WARMUP + (fault.ts - t0),
                });
            }
        } else {
            let chain = &state.chains[i];
            for (k, name) in chain.iter().enumerate() {
                let last = k + 1 == chain.len();
                match (last, state.offsets[i]) {
                    (true, Some(offset)) => sf.conditions.push(Condition::FunctionOffset {
                        name: name.clone(),
                        offset,
                    }),
                    _ => sf
                        .conditions
                        .push(Condition::FunctionEntered { name: name.clone() }),
                }
            }
        }
        sched.push(sf);
    }
    // Amplified replicas share their original's group and go last.
    let amplified = extraction.faults.iter().enumerate();
    for (i, fault) in amplified.filter(|&(i, _)| state.amplified[i]) {
        let original = sched.faults[i].clone();
        for node in (0..cluster_nodes).map(NodeId).filter(|&n| n != fault.node) {
            sched.push(original.replicate_to(node));
        }
    }
    // Production fault order as `AfterFault` prerequisites (§4.6.1).
    sched.enforce_order();
    sched
}

/// Builds the context-free Level 1 schedule for an extraction — the faults
/// at their relative production times. This is also the paper's §3 baseline
/// ("manually created schedule incorporating these faults"), used by the
/// motivation experiment.
pub fn level1_schedule(extraction: &Extraction) -> FaultSchedule {
    // Level 1 amplifies no fault, so no replica needs the cluster size.
    materialize(extraction, &PlanState::level1(extraction), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::tests::{
        at_write_site, connect_profile, ei_count_is, fails_connect, has_crash, in_snapshot,
        one_crash_extraction, ran, runs, scf_ei_extraction, scf_extraction, snapshot_symbols,
    };
    use crate::diagnose::{Diagnoser, DiagnosisConfig};
    use rose_events::SyscallId;
    use rose_profile::{Profile, SymbolTable};

    /// Whether a fault is keyed on `FunctionEntered(function)`.
    fn entered(f: &ScheduledFault, function: &str) -> bool {
        f.conditions
            .iter()
            .any(|c| matches!(c, Condition::FunctionEntered { name } if name == function))
    }

    #[test]
    fn level2_finds_function_context() {
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        // Production: crash preceded by trigger, then setup (older).
        let ex = one_crash_extraction(&["trigger", "setup"]);
        // The AF stream presented to the algorithm on every run.
        let af: Vec<(NodeId, String)> =
            vec![(NodeId(0), "setup".into()), (NodeId(0), "trigger".into())];
        // The bug fires iff the schedule contains a crash conditioned on
        // `FunctionEntered("trigger")` on node 0.
        let mut h = runs(|schedule, _| {
            let bug = schedule.faults.iter().any(|f| {
                matches!(f.action, FaultAction::Crash)
                    && f.node == NodeId(0)
                    && entered(f, "trigger")
            });
            // All faults "inject" when their context functions appear in
            // the AF stream (crude but sufficient for the unit test).
            let injected = schedule
                .faults
                .iter()
                .enumerate()
                .filter(|(_, f)| {
                    f.conditions.iter().all(|c| match c {
                        Condition::FunctionEntered { name } => {
                            af.iter().any(|(n, af)| *n == f.node && af == name)
                        }
                        _ => true,
                    })
                })
                .map(|(i, _)| (i, i as u64))
                .collect();
            RunObservation {
                af_calls: af.clone(),
                feedback: rose_inject::ExecutionFeedback {
                    injected,
                    armed: vec![],
                },
                ..ran(bug, 30)
            }
        });
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut h);
        assert!(rep.reproduced);
        assert_eq!(rep.level, 2);
        assert_eq!(rep.replay_rate, 100.0);
        assert!(rep.faults_injected.contains("PS(Crash)"));
        // Level 1 (1 schedule) + first context attempt (1 schedule).
        assert_eq!(rep.schedules_generated, 2);
        // 2 schedule runs + 10 confirmation runs.
        assert_eq!(rep.runs, 12);
    }

    #[test]
    fn level1_short_circuits_when_order_suffices() {
        // Bug fires for ANY schedule containing a crash on node 0.
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&[]);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|s, _| ran(has_crash(s), 60)));
        assert!(rep.reproduced);
        assert_eq!(rep.level, 1);
        assert_eq!(rep.schedules_generated, 1);
        assert_eq!(rep.runs, 11, "1 discovery + 10 confirmations");
        assert_eq!(rep.total_time, SimDuration::from_secs(11 * 60));
    }

    #[test]
    fn scf_sweep_finds_nth_invocation() {
        // Bug fires iff the schedule fails the 7th connect.
        let profile = connect_profile();
        let symbols = SymbolTable::new();
        let ex = scf_extraction();
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|s, _| ran(fails_connect(s, 7), 10)));
        assert!(rep.reproduced);
        assert_eq!(rep.level, 2);
        // Level 1 (nth=1) + sweep nth=2..=7 → 7 schedules.
        assert_eq!(rep.schedules_generated, 7);
    }

    #[test]
    fn level3_sweeps_offsets_by_priority() {
        // Bug fires iff crash is conditioned at offset 2 (a write site).
        let profile = Profile::default();
        let symbols = snapshot_symbols();
        let ex = one_crash_extraction(&["storeSnapshotData"]);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|s, _| in_snapshot(at_write_site(s))));
        assert!(rep.reproduced);
        assert_eq!(rep.level, 3);
        // Offset sweep order: 1 (openat), 2 (write) → bug at 2nd offset try.
        let sched = rep.schedule.unwrap();
        assert!(sched.faults[0]
            .conditions
            .iter()
            .any(|c| matches!(c, Condition::FunctionOffset { offset: 2, .. })));
    }

    #[test]
    fn amplification_finds_role_specific_context() {
        // The context function appears on node 2 (the test-run "leader"),
        // never on node 0 where the production fault occurred. The bug
        // fires only for an amplified schedule whose node-2 replica is
        // conditioned on the role-specific function.
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&["leaderWork"]);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|schedule, _| {
            let bug = schedule.faults.iter().any(|f| {
                f.node == NodeId(2)
                    && matches!(f.action, FaultAction::Crash)
                    && entered(f, "leaderWork")
            });
            RunObservation {
                af_calls: vec![(NodeId(2), "leaderWork".into())],
                ..ran(bug, 10)
            }
        }));
        assert!(rep.reproduced, "{rep:?}");
        assert_eq!(rep.level, 2);
        assert!(rep.amplifications >= 1);
        let sched = rep.schedule.unwrap();
        // The amplified schedule carries replicas sharing group 0.
        assert!(sched.faults.iter().filter(|f| f.group == 0).count() > 1);
        assert!(sched.faults.iter().any(|f| f.node == NodeId(2)));
    }

    #[test]
    fn unreproducible_bug_reports_failure_within_budget() {
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&["a", "b"]);
        let cfg = DiagnosisConfig {
            max_schedules: 10,
            ..Default::default()
        };
        let mut d = Diagnoser::new(cfg, &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|_, _| ran(false, 5)));
        assert!(!rep.reproduced);
        assert!(rep.schedules_generated <= 10);
        assert!(rep.schedule.is_none());
    }

    #[test]
    fn find_context_reads_a_stopped_observation_as_it_is() {
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&["trigger", "setup"]);
        // Whether the search went on to the chain `setup → trigger` after
        // the sub-target run keyed on `trigger` alone. The bug needs a
        // crash keyed on `trigger` on node 0, and only the first run of a
        // schedule shows it, so its confirmation replays never do and every
        // guess stays below target. A run that shows the bug reports
        // `shown` as what it observed — a run stopped at detection saw only
        // what came before — and any other run `setup` then `trigger`.
        let extended = |shown: &[&str]| {
            let mut schedules: Vec<FaultSchedule> = Vec::new();
            let cfg = DiagnosisConfig {
                enable_amplification: false,
                ..Default::default()
            };
            let rep = Diagnoser::new(cfg, &profile, &symbols, &ex).diagnose(&mut runs(|s, _| {
                let first = !schedules.contains(s);
                schedules.push(s.clone());
                let bug = first
                    && s.faults
                        .iter()
                        .any(|f| f.node == NodeId(0) && entered(f, "trigger"));
                let af_calls = if bug {
                    shown
                } else {
                    &["setup", "trigger"][..]
                };
                RunObservation {
                    af_calls: af_calls
                        .iter()
                        .map(|f| (NodeId(0), f.to_string()))
                        .collect(),
                    feedback: rose_inject::ExecutionFeedback {
                        injected: vec![(0, 1)],
                        armed: vec![0],
                    },
                    ..ran(bug, 10)
                }
            }));
            assert!(!rep.reproduced);
            schedules
                .iter()
                .any(|s| s.faults.iter().any(|f| entered(f, "setup")))
        };
        // Stopped before `trigger` ran: the chain is unobserved, so the
        // context does not hold and the search stops contextualizing.
        assert!(!extended(&["setup"]));
        // The same run having observed the chain keeps extending.
        assert!(extended(&["setup", "trigger"]));
    }

    #[test]
    fn unobserved_syscall_without_path_is_not_swept() {
        // Connect never occurred in the failure-free profile and the fault
        // carries no path input: there is no invocation index worth
        // sweeping, so Level 2 must yield no candidate instead of clamping
        // the zero observation count up to a bound of 1.
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = scf_extraction();
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|_, _| ran(false, 10)));
        assert!(!rep.reproduced);
        assert_eq!(rep.schedules_generated, 1, "Level 1 only, no SCF sweep");
    }

    #[test]
    fn ei_sweep_recovers_recorded_context_first() {
        // Bug fires iff the schedule keys the SCF on the recorded calling
        // context at the recorded per-context count, with nth reverted to 1.
        let recorded = |c: &Condition| {
            matches!(
                c,
                Condition::ExecutionIndex {
                    chain,
                    syscall: SyscallId::Connect,
                    count: 3,
                } if chain.as_slice() == ["applyEntry".to_string(), "writeSegment".to_string()]
            )
        };
        // No profiling observations needed: the recorded EI is direct
        // evidence, so the sweep runs even for an unprofiled syscall.
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = scf_ei_extraction(3);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|s, _| {
            let bug = s.faults.iter().any(|f| {
                matches!(f.action, FaultAction::Scf { nth: 1, .. })
                    && f.conditions.iter().any(recorded)
            });
            ran(bug, 10)
        }));
        assert!(rep.reproduced);
        assert_eq!(rep.level, 1);
        // The EI pre-pass keys the level-1 guess on the recorded context
        // and confirms at 100% — one schedule, versus the flat sweep's
        // up-to-cap flat indices.
        assert_eq!(rep.schedules_generated, 1);
        assert_eq!(rep.replay_rate, 100.0);
        assert_eq!(rep.ei_sweeps, 1);
        assert_eq!(rep.ei_schedules, 1);
        assert!(ei_count_is(rep.schedule.as_ref().unwrap(), 3));
    }

    #[test]
    fn ei_sweep_falls_back_to_lower_counts() {
        // Replays reach the failing context with fewer prior calls: the
        // bug only reproduces at per-context count 1, recorded count is 5.
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = scf_ei_extraction(5);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|s, _| ran(ei_count_is(s, 1), 10)));
        assert!(rep.reproduced);
        // EI pre-pass at the recorded count (misses) + flat Level 1 + the
        // Level-2.5 sweep over candidates [5, 4, 3, 2, 1].
        assert_eq!(rep.schedules_generated, 7);
        assert_eq!(rep.ei_sweeps, 2);
        assert_eq!(rep.ei_schedules, 6);
    }

    #[test]
    fn a_stripped_extraction_takes_the_flat_sweep() {
        // Without its recorded index a fault is searched exactly as the
        // paper's Level 2 does: flat invocation indices, no EI schedule.
        let profile = connect_profile();
        let symbols = SymbolTable::new();
        let ex = scf_ei_extraction(3).without_execution_indices();
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut runs(|s, _| ran(fails_connect(s, 7), 10)));
        assert!(rep.reproduced);
        assert_eq!(rep.schedules_generated, 7, "flat sweep to nth=7");
        assert_eq!(rep.ei_sweeps, 0);
        assert_eq!(rep.ei_schedules, 0);
    }
}
