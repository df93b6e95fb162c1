//! The three-level fault-context refinement loop (paper §4.5, Figure 2,
//! Algorithm 1).

use rose_events::{SimDuration, SimTime};
use rose_inject::{Condition, FaultAction, FaultSchedule, ScheduledFault};
use rose_profile::{Profile, SymbolTable};
use serde::Serialize;

use crate::extract::{Extraction, ExtractionStats};
use crate::harness::{RunHarness, RunObservation};

/// Hard cap on syscall-invocation sweeps (paper §4.5.2: 50).
pub const SCF_SWEEP_CAP: u64 = 50;

/// Warm-up offset added to Level 1 relative fault times.
pub const WARMUP: SimDuration = SimDuration::from_secs(5);

/// Diagnosis knobs, defaulting to the paper's values.
#[derive(Debug, Clone)]
pub struct DiagnosisConfig {
    /// Accept a schedule at this replay rate (paper: 60 %).
    pub target_replay_rate: f64,
    /// Confirmation runs per candidate (paper: 10); 0 counts as 1.
    pub confirm_runs: u32,
    /// Abort a confirmation once this many clean runs are seen (paper:
    /// `if correctRuns > 3 return 0`).
    pub confirm_abort_correct: u32,
    /// Global budget on generated schedules.
    pub max_schedules: usize,
    /// Base seed; every run uses a fresh derived seed.
    pub base_seed: u64,
    /// Number of cluster nodes (for the Amplification heuristic).
    pub cluster_nodes: u32,
    /// Whether the Amplification heuristic may replicate schedules across
    /// nodes (§4.5.2). Disable for ablations.
    pub enable_amplification: bool,
    /// How many seeds a fresh schedule is tried on before being discarded
    /// (paper default: 1; §8 suggests >1 to reduce false negatives).
    pub discovery_runs: u32,
    /// Width of the speculative execution window: how many upcoming
    /// schedules' discovery runs (or, for a confirmation, all its replays)
    /// are handed to the harness as one concurrent batch. ≤ 1 = every
    /// batch is one run, so nothing is executed that is not charged. The
    /// search replays its sequential decisions over each batch and
    /// discards over-speculated runs uncharged, so the resulting report is
    /// **bit-identical at every width** — speculation only trades wasted
    /// testing runs for wall-clock time.
    pub speculation: usize,
    /// A caller-supplied schedule to confirm before the search runs. A
    /// hunting campaign (`rose-hunt`) that discovered the failure by
    /// blind exploration already holds the winning schedule — the best
    /// available guess, tried first. A 100 % confirmation short-circuits
    /// the search entirely; a target-rate confirmation is kept unless the
    /// flat search beats it; a sub-target one joins the pruning pool, so
    /// seeding can never lower the reported replay rate.
    pub seed_schedule: Option<FaultSchedule>,
}

impl Default for DiagnosisConfig {
    fn default() -> Self {
        DiagnosisConfig {
            target_replay_rate: 60.0,
            confirm_runs: 10,
            confirm_abort_correct: 3,
            max_schedules: 120,
            base_seed: 10_000,
            cluster_nodes: 3,
            enable_amplification: true,
            discovery_runs: 1,
            speculation: 1,
            seed_schedule: None,
        }
    }
}

/// The outcome of a diagnosis, one row of the paper's Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct DiagnosisReport {
    /// Whether a schedule reached the target replay rate.
    pub reproduced: bool,
    /// The winning (or best-candidate) schedule.
    pub schedule: Option<FaultSchedule>,
    /// Measured replay rate of that schedule (`RR%`).
    pub replay_rate: f64,
    /// Schedules generated (`Sched`).
    pub schedules_generated: usize,
    /// Total testing runs (`#R`).
    pub runs: usize,
    /// Accumulated virtual testing time (`Time`).
    pub total_time: SimDuration,
    /// Diagnosis level that produced the winning schedule (1–3).
    pub level: u8,
    /// How many times the Amplification heuristic was engaged (schedules
    /// replicated across nodes to probe role-specific context).
    pub amplifications: usize,
    /// Extraction statistics (`FR%` comes from here).
    pub extraction: ExtractionStats,
    /// Human-readable fault summary (`Faults Inj`).
    pub faults_injected: String,
    /// Per-injected-fault propagation chains from the winning schedule's
    /// confirmation run, when provenance was collected (see
    /// [`rose_obs::causal`]). Empty when the harness recorded no causal log.
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub propagation: Vec<rose_obs::PropagationChain>,
    /// Simulated events of the charged discovery runs that played out (see
    /// [`SweepRedundancy`]).
    pub redundancy: SweepRedundancy,
    /// SCF faults whose Level-2 sweep keyed on a recorded execution index
    /// (Level 2.5) instead of flat invocation counting.
    pub ei_sweeps: usize,
    /// Schedules generated inside those EI-keyed sweeps — the quantity the
    /// flat-counter cap of 50 bounds, and that EI shrinks to the handful of
    /// per-context counts actually recorded.
    pub ei_schedules: usize,
}

/// Simulated events of the charged discovery runs that played out (never
/// showed the bug): the runs every harness plays the same way, so the
/// benchmark's mirror (`bench/src/workloads.rs`,
/// `bench/tests/mirror_equivalence.rs`) compares this total with its own.
/// That comparison is its only reader; ROADMAP item 2(b) deletes it once the
/// benchmark stops making it.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SweepRedundancy {
    /// Simulation queue items executed across the charged discovery runs
    /// that played out.
    pub events_total: u64,
}

impl DiagnosisReport {
    /// The diagnosis-phase record for the campaign's JSONL run report.
    /// `schedule_budget` is the search's `max_schedules` allowance.
    pub fn phase_record(&self, schedule_budget: usize) -> rose_obs::DiagnosisStats {
        rose_obs::DiagnosisStats {
            reproduced: self.reproduced,
            replay_rate_pct: self.replay_rate,
            level: self.level,
            schedule_faults: self.schedule.as_ref().map_or(0, |s| s.len()),
            schedules_generated: self.schedules_generated,
            schedule_budget,
            runs: self.runs,
            amplifications: self.amplifications,
            fault_events: self.extraction.total_fault_events,
            removed_benign: self.extraction.removed_benign,
            extracted_faults: self.extraction.extracted,
            fr_pct: self.extraction.removed_pct(),
            virtual_mins: self.total_time.as_mins_f64(),
            faults_injected: self.faults_injected.clone(),
            ei_sweeps: self.ei_sweeps,
            ei_schedules: self.ei_schedules,
        }
    }

    /// Appends the diagnosis phase record to a telemetry registry.
    pub fn publish_obs(&self, obs: &rose_obs::Obs, schedule_budget: usize) {
        obs.record(rose_obs::PhaseRecord::Diagnosis(
            self.phase_record(schedule_budget),
        ));
    }
}

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

/// A schedule `confirmBug` measured, with its provenance: the diagnosis
/// level that produced it and the causal log of its first bug run, from
/// which a report builds its propagation chains.
struct Guess {
    schedule: FaultSchedule,
    /// Replay rate over the confirmation runs; 0 after the early abort.
    rate: f64,
    level: u8,
    causal: Option<rose_events::CausalLog>,
}

/// What [`Diagnoser::evaluate_window`] decided about a window of schedules.
struct WindowOutcome {
    /// How many of the window's schedules the sequential search charged
    /// (≥ 1). It falls short of the window when a schedule showed the bug —
    /// its confirmation perturbs the seed stream, staling the speculated
    /// remainder — or when the schedule budget ran out.
    charged: usize,
    /// The last charged schedule, when it confirmed at the target rate.
    accepted: Option<Guess>,
    /// The last charged discovery run.
    last: RunObservation,
}

/// Cursor of the batch-replay primitive ([`Diagnoser::next_run`]) over a
/// plan — the runs the sequential search executes next, in order, for as
/// long as nothing stops it: `per` runs of each schedule in `window`.
struct Replay<'p> {
    window: &'p [FaultSchedule],
    per: usize,
    /// Plan position of the next run to charge.
    next: usize,
    /// Executed runs of the harness batch in flight, not yet charged.
    batch: std::vec::IntoIter<RunObservation>,
    /// Runs of that batch charged so far — the prefix to commit.
    used: usize,
}

impl<'p> Replay<'p> {
    fn new(window: &'p [FaultSchedule], per: usize) -> Self {
        Replay {
            window,
            per,
            next: 0,
            batch: Vec::new().into_iter(),
            used: 0,
        }
    }

    /// Commits the charged prefix of the batch in flight: the harness
    /// publishes those runs' side effects and drops the rest.
    fn commit(&mut self, h: &mut dyn RunHarness) {
        if self.used > 0 {
            h.commit_speculative(self.used);
            self.used = 0;
        }
    }
}

/// The diagnosis driver.
pub struct Diagnoser<'a> {
    cfg: DiagnosisConfig,
    profile: &'a Profile,
    symbols: &'a SymbolTable,
    extraction: &'a Extraction,
    runs: usize,
    schedules: usize,
    total_time: SimDuration,
    seed_counter: u64,
    amplifications: usize,
    /// Schedules that showed the bug but confirmed below target, with the
    /// level that produced them: what the pruning runs re-confirm.
    candidates: Vec<(FaultSchedule, u8)>,
    /// Events of the charged discovery runs that played out (see
    /// [`SweepRedundancy`]).
    events_total: u64,
    /// SCF sweeps that keyed on a recorded execution index (Level 2.5).
    ei_sweeps: usize,
    /// Schedules charged inside those EI-keyed sweeps.
    ei_schedules: usize,
}

impl<'a> Diagnoser<'a> {
    /// Creates a diagnoser over an extraction.
    pub fn new(
        cfg: DiagnosisConfig,
        profile: &'a Profile,
        symbols: &'a SymbolTable,
        extraction: &'a Extraction,
    ) -> Self {
        Diagnoser {
            cfg,
            profile,
            symbols,
            extraction,
            runs: 0,
            schedules: 0,
            total_time: SimDuration::ZERO,
            seed_counter: 0,
            amplifications: 0,
            candidates: Vec::new(),
            events_total: 0,
            ei_sweeps: 0,
            ei_schedules: 0,
        }
    }

    /// Runs the full three-level search.
    ///
    /// Three kinds of guess reach `confirmBug`, in this order: the seed
    /// schedule, the Level-2.5 guess, and the flat search — Levels 1–3, or
    /// the pruning runs when those find nothing. One rule ranks them: the
    /// highest replay rate wins, and on equal rates the guess found first.
    /// A guess confirmed at 100 % cannot be beaten, so it ends the search.
    pub fn diagnose(&mut self, h: &mut dyn RunHarness) -> DiagnosisReport {
        let mut guesses: Vec<Guess> = self.confirm_seed(h).into_iter().collect();
        let certain = |guesses: &[Guess]| guesses.iter().any(|g| g.rate >= 100.0);
        if !certain(&guesses) {
            guesses.extend(self.try_ei_level1(h));
        }
        if !certain(&guesses) {
            match self.search(h) {
                Some(found) => guesses.push(found),
                None => guesses.extend(self.prune(h)),
            }
        }
        let best = guesses
            .into_iter()
            .reduce(|best, g| if g.rate > best.rate { g } else { best });
        self.report(best)
    }

    /// Hunter hand-off: a seeded schedule is the discovery run's exact fault
    /// sequence, confirmed before any search work. It needs no extraction —
    /// a hunt may have produced a trace whose extraction is empty (e.g. a
    /// pure partition bug) and the seed is still worth confirming. `None`
    /// below the target rate; a seed that showed the bug at all then joins
    /// the pruning pool.
    fn confirm_seed(&mut self, h: &mut dyn RunHarness) -> Option<Guess> {
        let schedule = self.cfg.seed_schedule.clone()?;
        self.schedules += 1;
        let level = seeded_level(&schedule);
        let seed = self.confirm(h, schedule, level);
        if seed.rate >= self.cfg.target_replay_rate {
            return Some(seed);
        }
        if seed.rate > 0.0 {
            self.candidates.push((seed.schedule, seed.level));
        }
        None
    }

    /// Level 2.5 pre-pass: the level-1 guess with every SCF keyed on its
    /// *recorded* execution index — the calling context and per-context
    /// count of the failing call in the buggy trace — instead of the flat
    /// first invocation. `None` when nothing carries an index or the guess
    /// misses the target rate (sub-target candidates still land in the
    /// pruning pool). The flat search still runs after a sub-100 % guess,
    /// so a recorded index never lowers the rate the flat counter reaches.
    fn try_ei_level1(&mut self, h: &mut dyn RunHarness) -> Option<Guess> {
        let mut state = PlanState::level1(self.extraction);
        let faults = &self.extraction.faults;
        state.ei_counts = faults
            .iter()
            .map(|f| f.ei.as_ref().map(|ei| u64::from(ei.count).max(1)))
            .collect();
        if state.ei_counts.iter().all(Option::is_none) {
            return None;
        }
        self.ei_sweep(|d| d.evaluate_state(h, &state, 1).1)
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
    fn search(&mut self, h: &mut dyn RunHarness) -> Option<Guess> {
        if self.extraction.faults.is_empty() {
            return None;
        }
        // --- Level 1: initial guess — fault order and inputs only.
        let mut state = PlanState::level1(self.extraction);
        if let (_, Some(found)) = self.evaluate_state(h, &state, 1) {
            return Some(found);
        }

        // --- Level 2: contextualize each fault, highest priority first.
        for &idx in &self.extraction.priority_order() {
            if self.budget_exhausted() {
                break;
            }
            let found = match self.extraction.faults[idx].action {
                FaultAction::Scf { .. } => self.sweep_scf(h, &mut state, idx),
                FaultAction::Crash | FaultAction::Pause { .. } => {
                    self.find_context(h, &mut state, idx, true)
                }
                // No Amplification for network faults: they already affect
                // the entire deployment (§4.5.2).
                FaultAction::Partition { .. } => self.find_context(h, &mut state, idx, false),
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
            let found = self.sweep_offsets(h, &mut state, idx);
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Pruning runs: re-confirm the sub-target candidates with fresh seeds,
    /// in the order found, until one reaches the target rate or the budget
    /// runs out.
    fn prune(&mut self, h: &mut dyn RunHarness) -> Vec<Guess> {
        let mut confirmed = Vec::new();
        for (schedule, level) in std::mem::take(&mut self.candidates) {
            if self.budget_exhausted() {
                break;
            }
            let guess = self.confirm(h, schedule, level);
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
        h: &mut dyn RunHarness,
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
            let out = self.evaluate_window(h, &window, level);
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
    fn sweep_scf(
        &mut self,
        h: &mut dyn RunHarness,
        state: &mut PlanState,
        idx: usize,
    ) -> Option<Guess> {
        let FaultAction::Scf { syscall, path, .. } = &self.extraction.faults[idx].action else {
            return None;
        };
        let found = self.sweep_scf_ei(h, state, idx);
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
        self.sweep(h, state, 2, &nths, |s, nth| s.nths[idx] = nth)
    }

    /// Level 2.5: sweep per-context execution-index counts instead of flat
    /// invocation indices; `None`, with nothing charged, for a fault without
    /// a recorded index. The trace stamped the failing call with its
    /// calling context and per-context count, so the sweep tries the
    /// recorded count first (the exact production index), then lower
    /// counts — the direction replays drift when the failing context is
    /// reached with fewer prior calls. The candidate set is bounded by the
    /// recorded count itself, which is typically far below the flat cap.
    fn sweep_scf_ei(
        &mut self,
        h: &mut dyn RunHarness,
        state: &mut PlanState,
        idx: usize,
    ) -> Option<Guess> {
        let recorded = u64::from(self.extraction.faults[idx].ei.as_ref()?.count).max(1);
        let counts: Vec<u64> = std::iter::once(recorded)
            .chain((1..recorded).rev())
            .take(SCF_SWEEP_CAP as usize)
            .collect();
        self.ei_sweep(|d| {
            d.sweep(h, state, 2, &counts, |s, count| {
                s.ei_counts[idx] = Some(count)
            })
        })
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
        h: &mut dyn RunHarness,
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

            let (obs, found) = self.evaluate_state(h, state, 2);
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
                let (obs2, found) = self.evaluate_state(h, state, 2);
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
    fn sweep_offsets(
        &mut self,
        h: &mut dyn RunHarness,
        state: &mut PlanState,
        idx: usize,
    ) -> Option<Guess> {
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
        self.sweep(h, state, 3, &offsets, |s, offset| {
            s.offsets[idx] = Some(offset)
        })
    }

    // --- Execution helpers -------------------------------------------------

    fn budget_exhausted(&self) -> bool {
        self.schedules >= self.cfg.max_schedules
    }

    /// The seed of the `ahead`-th upcoming run (`ahead` ≥ 1), without
    /// advancing the stream. Job *k* of a batch gets `peek_seed(k+1)`,
    /// which is exactly the seed sequential execution draws for it as long
    /// as the batch prefix is charged in order.
    fn peek_seed(&self, ahead: u64) -> u64 {
        self.cfg
            .base_seed
            .wrapping_add((self.seed_counter + ahead).wrapping_mul(7_919))
    }

    /// Books one executed run: the seed stream advances and the run's
    /// virtual time is accounted. Every charged run passes through here, in
    /// charge order, and run-derived report state accumulates only from
    /// charged runs, in that order, so reports stay bit-identical at every
    /// speculation width.
    fn charge(&mut self, run: &RunObservation) {
        self.seed_counter += 1;
        self.runs += 1;
        self.total_time += run.wall;
    }

    /// The batch-replay primitive: charges and returns the next run of
    /// `replay`'s plan. When no executed run is waiting it lays out the
    /// next harness batch — one job with speculation off, so the search
    /// executes precisely the runs it charges; the whole remaining plan
    /// otherwise — seeding job *k* with `peek_seed(k+1)`. The caller
    /// replays its sequential decisions over the runs it pulls and, as soon
    /// as one of them stops it, [`Replay::commit`]s: runs executed
    /// beyond that point are never charged.
    fn next_run(&mut self, h: &mut dyn RunHarness, replay: &mut Replay<'_>) -> RunObservation {
        if replay.batch.len() == 0 {
            replay.commit(h);
            let len = if self.cfg.speculation > 1 {
                replay.window.len() * replay.per - replay.next
            } else {
                1
            };
            let jobs: Vec<(FaultSchedule, u64)> = (0..len)
                .map(|k| {
                    let sched = &replay.window[(replay.next + k) / replay.per];
                    (sched.clone(), self.peek_seed(k as u64 + 1))
                })
                .collect();
            replay.batch = h.run_speculative(&jobs).into_iter();
        }
        let run = replay
            .batch
            .next()
            .expect("the harness returns one run per job");
        replay.next += 1;
        replay.used += 1;
        self.charge(&run);
        run
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
    fn evaluate_window(
        &mut self,
        h: &mut dyn RunHarness,
        window: &[FaultSchedule],
        level: u8,
    ) -> WindowOutcome {
        let per = self.cfg.discovery_runs.max(1) as usize;
        let mut replay = Replay::new(window, per);
        let mut charged = 0;
        let mut accepted = None;
        let mut last = None;
        for sched in window {
            if charged > 0 && self.budget_exhausted() {
                break;
            }
            self.schedules += 1;
            charged += 1;
            let mut bug = false;
            for _ in 0..per {
                let obs = self.next_run(h, &mut replay);
                bug = obs.bug;
                if !bug {
                    self.events_total += obs.sim_events;
                }
                last = Some(obs);
                if bug {
                    break;
                }
            }
            if bug {
                replay.commit(h);
                let guess = self.confirm(h, sched.clone(), level);
                if guess.rate >= self.cfg.target_replay_rate {
                    accepted = Some(guess);
                } else {
                    self.candidates.push((guess.schedule, level));
                }
                break;
            }
        }
        replay.commit(h);
        WindowOutcome {
            charged,
            accepted,
            last: last.expect("a window holds at least one schedule"),
        }
    }

    /// Builds the schedule `state` describes and evaluates it as a window
    /// of one, whatever the budget: the last discovery run, plus the
    /// guess when it confirmed at target.
    fn evaluate_state(
        &mut self,
        h: &mut dyn RunHarness,
        state: &PlanState,
        level: u8,
    ) -> (RunObservation, Option<Guess>) {
        let sched = materialize(self.extraction, state, self.cfg.cluster_nodes);
        let out = self.evaluate_window(h, std::slice::from_ref(&sched), level);
        (out.last, out.accepted)
    }

    /// `confirmBug`: replay-rate estimation over fresh seeds with the
    /// paper's early abort, which is checked at the *top* of each
    /// iteration — so a batched confirmation charges exactly the runs the
    /// one-by-one loop performs and discards the rest. It reads each
    /// replay's `bug`, and the causal log of the first that shows it, from
    /// the same [`RunObservation`] a discovery run returns.
    fn confirm(&mut self, h: &mut dyn RunHarness, schedule: FaultSchedule, level: u8) -> Guess {
        let runs = self.cfg.confirm_runs.max(1);
        let mut replay = Replay::new(std::slice::from_ref(&schedule), runs as usize);
        let (mut bug_runs, mut correct_runs) = (0u32, 0u32);
        let mut causal = None;
        while bug_runs + correct_runs < runs && correct_runs <= self.cfg.confirm_abort_correct {
            let run = self.next_run(h, &mut replay);
            if run.bug {
                bug_runs += 1;
                causal = causal.or(run.causal);
            } else {
                correct_runs += 1;
            }
        }
        replay.commit(h);
        let aborted = bug_runs + correct_runs < runs;
        let rate = if aborted {
            0.0
        } else {
            100.0 * f64::from(bug_runs) / f64::from(runs)
        };
        Guess {
            schedule,
            rate,
            level,
            causal,
        }
    }

    /// The report on `best`, the winning guess: reproduced when it reached
    /// the target rate, with its propagation chains drawn from its own
    /// confirmation's causal log.
    fn report(&self, best: Option<Guess>) -> DiagnosisReport {
        let (rate, level) = best.as_ref().map_or((0.0, 0), |g| (g.rate, g.level));
        let propagation = best
            .as_ref()
            .and_then(|g| g.causal.as_ref())
            .map(rose_obs::causal::propagation_chains)
            .unwrap_or_default();
        let schedule = best.map(|g| g.schedule);
        let faults_injected = schedule.as_ref().map(summary_of).unwrap_or_default();
        DiagnosisReport {
            reproduced: schedule.is_some() && rate >= self.cfg.target_replay_rate,
            schedule,
            replay_rate: rate,
            schedules_generated: self.schedules,
            runs: self.runs,
            total_time: self.total_time,
            level,
            amplifications: self.amplifications,
            extraction: self.extraction.stats,
            faults_injected,
            propagation,
            redundancy: SweepRedundancy {
                events_total: self.events_total,
            },
            ei_sweeps: self.ei_sweeps,
            ei_schedules: self.ei_schedules,
        }
    }
}

/// Materializes a refinement state into a schedule: Level 1 relative times
/// where no context was discovered, context chains (with optional Level 3
/// offsets) elsewhere, amplified replicas appended, production fault order
/// enforced.
fn materialize(extraction: &Extraction, state: &PlanState, cluster_nodes: u32) -> FaultSchedule {
    let t0 = extraction
        .faults
        .first()
        .map(|f| f.ts)
        .unwrap_or(SimTime::ZERO);
    let mut sched = FaultSchedule::new();
    for (i, fault) in extraction.faults.iter().enumerate() {
        let mut sf = ScheduledFault::new(fault.node, fault.action.clone());
        if let FaultAction::Scf {
            syscall,
            errno,
            path,
            ..
        } = &fault.action
        {
            // An EI-keyed fault counts matching invocations through its
            // execution-index condition, so the armed action fires on the
            // first call the condition admits.
            let nth = if state.ei_counts[i].is_some() {
                1
            } else {
                state.nths[i]
            };
            sf.action = FaultAction::Scf {
                syscall: *syscall,
                errno: *errno,
                path: path.clone(),
                nth,
            };
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
    for (i, fault) in extraction.faults.iter().enumerate() {
        if !state.amplified[i] {
            continue;
        }
        let original = sched.faults[i].clone();
        for n in 0..cluster_nodes {
            let node = rose_events::NodeId(n);
            if node == fault.node {
                continue;
            }
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
    if contextual {
        2
    } else {
        1
    }
}

/// `Faults Inj` summary that ignores amplified replicas (they describe the
/// same production fault).
fn summary_of(s: &FaultSchedule) -> String {
    let mut originals = FaultSchedule::new();
    let mut seen = std::collections::BTreeSet::new();
    for f in &s.faults {
        if seen.insert(f.group) {
            originals.push(f.clone());
        }
    }
    originals.summary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ExtractedFault;
    use rose_events::{NodeId, SyscallId};

    /// A scripted harness: the bug fires iff the schedule contains a crash
    /// conditioned on `FunctionEntered("trigger")` on node 0.
    struct ScriptedHarness {
        /// AF stream presented to the algorithm on every run.
        af: Vec<(NodeId, String)>,
    }

    impl RunHarness for ScriptedHarness {
        fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
            let bug = schedule.faults.iter().any(|f| {
                matches!(f.action, FaultAction::Crash)
                    && f.node == NodeId(0)
                    && f.conditions.iter().any(
                        |c| matches!(c, Condition::FunctionEntered { name } if name == "trigger"),
                    )
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
                            self.af.iter().any(|(n, af)| *n == f.node && af == name)
                        }
                        _ => true,
                    })
                })
                .map(|(i, _)| (i, i as u64))
                .collect();
            RunObservation {
                bug,
                af_calls: self.af.clone(),
                feedback: rose_inject::ExecutionFeedback {
                    injected,
                    armed: vec![],
                },
                wall: SimDuration::from_secs(30),
                ..Default::default()
            }
        }
    }

    fn one_crash_extraction(preceding: &[&str]) -> Extraction {
        Extraction {
            faults: vec![ExtractedFault {
                node: NodeId(0),
                ts: SimTime::from_secs(10),
                action: FaultAction::Crash,
                preceding: preceding.iter().map(|s| s.to_string()).collect(),
                ei: None,
            }],
            stats: ExtractionStats {
                total_fault_events: 1,
                removed_benign: 0,
                extracted: 1,
            },
        }
    }

    #[test]
    fn level2_finds_function_context() {
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        // Production: crash preceded by trigger, then setup (older).
        let ex = one_crash_extraction(&["trigger", "setup"]);
        let mut h = ScriptedHarness {
            af: vec![(NodeId(0), "setup".into()), (NodeId(0), "trigger".into())],
        };
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
        struct AlwaysBug;
        impl RunHarness for AlwaysBug {
            fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                RunObservation {
                    bug: schedule
                        .faults
                        .iter()
                        .any(|f| matches!(f.action, FaultAction::Crash)),
                    wall: SimDuration::from_secs(60),
                    ..Default::default()
                }
            }
        }
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&[]);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut AlwaysBug);
        assert!(rep.reproduced);
        assert_eq!(rep.level, 1);
        assert_eq!(rep.schedules_generated, 1);
        assert_eq!(rep.runs, 11, "1 discovery + 10 confirmations");
        assert_eq!(rep.total_time, SimDuration::from_secs(11 * 60));
    }

    #[test]
    fn scf_sweep_finds_nth_invocation() {
        // Bug fires iff the schedule fails the 7th connect.
        struct NthConnect;
        impl RunHarness for NthConnect {
            fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                RunObservation {
                    bug: schedule.faults.iter().any(|f| {
                        matches!(
                            f.action,
                            FaultAction::Scf {
                                syscall: SyscallId::Connect,
                                nth: 7,
                                ..
                            }
                        )
                    }),
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        let mut profile = Profile::default();
        profile.syscall_counts.insert(SyscallId::Connect, 30);
        let symbols = SymbolTable::new();
        let ex = Extraction {
            faults: vec![ExtractedFault {
                node: NodeId(1),
                ts: SimTime::from_secs(3),
                action: FaultAction::Scf {
                    syscall: SyscallId::Connect,
                    errno: rose_events::Errno::Etimedout,
                    path: None,
                    nth: 1,
                },
                preceding: vec![],
                ei: None,
            }],
            stats: ExtractionStats::default(),
        };
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut NthConnect);
        assert!(rep.reproduced);
        assert_eq!(rep.level, 2);
        // Level 1 (nth=1) + sweep nth=2..=7 → 7 schedules.
        assert_eq!(rep.schedules_generated, 7);
    }

    #[test]
    fn level3_sweeps_offsets_by_priority() {
        use rose_profile::site;
        // Bug fires iff crash is conditioned at offset 2 (a write site).
        struct OffsetBug;
        impl RunHarness for OffsetBug {
            fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                let bug = schedule.faults.iter().any(|f| {
                    f.conditions.iter().any(|c| {
                        matches!(c, Condition::FunctionOffset { name, offset: 2 } if name == "storeSnapshotData")
                    })
                });
                // The context function is observed so Level 2 keeps chains,
                // and every fault reports as injected.
                RunObservation {
                    bug,
                    af_calls: vec![(NodeId(0), "storeSnapshotData".into())],
                    feedback: rose_inject::ExecutionFeedback {
                        injected: vec![(0, 1)],
                        armed: vec![0],
                    },
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        let profile = Profile::default();
        let symbols = SymbolTable::new().function(
            "storeSnapshotData",
            "snapshot.c",
            vec![
                site::other(0),
                site::sys(1, SyscallId::Openat),
                site::sys(2, SyscallId::Write),
                site::sys(3, SyscallId::Close),
            ],
        );
        let ex = one_crash_extraction(&["storeSnapshotData"]);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut OffsetBug);
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
        struct RoleBug;
        impl RunHarness for RoleBug {
            fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                let bug = schedule.faults.iter().any(|f| {
                    f.node == NodeId(2)
                        && matches!(f.action, FaultAction::Crash)
                        && f.conditions.iter().any(|c| {
                            matches!(c, Condition::FunctionEntered { name } if name == "leaderWork")
                        })
                });
                RunObservation {
                    bug,
                    af_calls: vec![(NodeId(2), "leaderWork".into())],
                    feedback: rose_inject::ExecutionFeedback::default(),
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&["leaderWork"]);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut RoleBug);
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
        struct NeverBug;
        impl RunHarness for NeverBug {
            fn run(&mut self, _s: &FaultSchedule, _seed: u64) -> RunObservation {
                RunObservation {
                    wall: SimDuration::from_secs(5),
                    ..Default::default()
                }
            }
        }
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&["a", "b"]);
        let cfg = DiagnosisConfig {
            max_schedules: 10,
            ..Default::default()
        };
        let mut d = Diagnoser::new(cfg, &profile, &symbols, &ex);
        let rep = d.diagnose(&mut NeverBug);
        assert!(!rep.reproduced);
        assert!(rep.schedules_generated <= 10);
        assert!(rep.schedule.is_none());
    }

    #[test]
    fn zero_confirm_runs_confirm_over_one_replay() {
        struct AlwaysBug;
        impl RunHarness for AlwaysBug {
            fn run(&mut self, _s: &FaultSchedule, _seed: u64) -> RunObservation {
                RunObservation {
                    bug: true,
                    wall: SimDuration::from_secs(5),
                    ..Default::default()
                }
            }
        }
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&["a"]);
        let cfg = DiagnosisConfig {
            confirm_runs: 0,
            ..Default::default()
        };
        let rep = Diagnoser::new(cfg, &profile, &symbols, &ex).diagnose(&mut AlwaysBug);
        assert!(rep.reproduced);
        assert_eq!(rep.replay_rate, 100.0);
        // The Level 1 discovery run, then one confirmation replay.
        assert_eq!(rep.runs, 2);
    }

    /// Counts harness executions so tests can verify that speculation
    /// actually over-executes while the report stays identical.
    struct Counted<H> {
        inner: H,
        executed: usize,
    }

    impl<H: RunHarness> RunHarness for Counted<H> {
        fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation {
            self.executed += 1;
            self.inner.run(schedule, seed)
        }
    }

    /// Records the length of every batch the search hands over, and how
    /// many runs the harness executed for it.
    struct Batches<H> {
        inner: H,
        lengths: Vec<usize>,
        executed: usize,
    }

    impl<H: RunHarness> RunHarness for Batches<H> {
        fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation {
            self.executed += 1;
            self.inner.run(schedule, seed)
        }

        fn run_speculative(&mut self, jobs: &[(FaultSchedule, u64)]) -> Vec<RunObservation> {
            self.lengths.push(jobs.len());
            jobs.iter().map(|(s, seed)| self.run(s, *seed)).collect()
        }
    }

    /// Seed-sensitive SCF sweep bug: nth=7 reproduces on ~3 of 4 seeds, so
    /// the search exercises discovery misses, sub-target confirmations,
    /// the early abort, candidate pruning — every decision the speculative
    /// path must replay bit-identically.
    struct SeedyNth;
    impl RunHarness for SeedyNth {
        fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation {
            let right_nth = schedule.faults.iter().any(|f| {
                matches!(
                    f.action,
                    FaultAction::Scf {
                        syscall: SyscallId::Connect,
                        nth: 7,
                        ..
                    }
                )
            });
            // A weak near-miss: nth=4 shows the bug on rare seeds, landing
            // as a sub-target candidate whose confirmation aborts early.
            let near_miss = schedule.faults.iter().any(|f| {
                matches!(
                    f.action,
                    FaultAction::Scf {
                        syscall: SyscallId::Connect,
                        nth: 4,
                        ..
                    }
                )
            });
            let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
            RunObservation {
                bug: (right_nth && !h.is_multiple_of(4)) || (near_miss && h.is_multiple_of(5)),
                wall: SimDuration::from_secs(10),
                ..Default::default()
            }
        }
    }

    fn scf_extraction() -> Extraction {
        Extraction {
            faults: vec![ExtractedFault {
                node: NodeId(1),
                ts: SimTime::from_secs(3),
                action: FaultAction::Scf {
                    syscall: SyscallId::Connect,
                    errno: rose_events::Errno::Etimedout,
                    path: None,
                    nth: 1,
                },
                preceding: vec![],
                ei: None,
            }],
            stats: ExtractionStats::default(),
        }
    }

    #[test]
    fn speculative_search_reports_are_bit_identical() {
        let mut profile = Profile::default();
        profile.syscall_counts.insert(SyscallId::Connect, 30);
        let symbols = SymbolTable::new();
        let ex = scf_extraction();
        let run_with = |speculation: usize, discovery_runs: u32| {
            let cfg = DiagnosisConfig {
                speculation,
                discovery_runs,
                ..Default::default()
            };
            let mut h = Counted {
                inner: SeedyNth,
                executed: 0,
            };
            let mut d = Diagnoser::new(cfg, &profile, &symbols, &ex);
            let rep = d.diagnose(&mut h);
            (serde_json::to_string(&rep).unwrap(), h.executed)
        };
        for discovery_runs in [1u32, 3] {
            let (sequential, seq_executed) = run_with(1, discovery_runs);
            for speculation in [2usize, 4, 9] {
                let (speculative, spec_executed) = run_with(speculation, discovery_runs);
                assert_eq!(
                    speculative, sequential,
                    "report diverged at speculation={speculation} discovery_runs={discovery_runs}"
                );
                assert!(
                    spec_executed >= seq_executed,
                    "speculation cannot execute fewer runs than it charges"
                );
            }
        }
        // Sanity, on a harness whose bug hits deterministically mid-window
        // (nth=7 inside a width-9 window): the default batching harness
        // must over-execute there, so the identical reports prove
        // discard-uncharged accounting rather than a speculation no-op.
        struct Nth7;
        impl RunHarness for Nth7 {
            fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                RunObservation {
                    bug: schedule.faults.iter().any(|f| {
                        matches!(
                            f.action,
                            FaultAction::Scf {
                                syscall: SyscallId::Connect,
                                nth: 7,
                                ..
                            }
                        )
                    }),
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        let run_det = |speculation: usize| {
            let cfg = DiagnosisConfig {
                speculation,
                ..Default::default()
            };
            let mut h = Counted {
                inner: Nth7,
                executed: 0,
            };
            let mut d = Diagnoser::new(cfg, &profile, &symbols, &ex);
            let rep = d.diagnose(&mut h);
            (serde_json::to_string(&rep).unwrap(), h.executed)
        };
        let (det_seq_report, det_seq_executed) = run_det(1);
        let (det_spec_report, det_spec_executed) = run_det(9);
        assert_eq!(det_spec_report, det_seq_report);
        assert!(det_spec_executed > det_seq_executed);
    }

    #[test]
    fn width_one_search_executes_exactly_the_runs_it_charges() {
        // The one loop runs at every width, so speculation off must mean
        // batches of one job: nothing executed that is not charged, through
        // discovery misses, sub-target confirmations and the confirm
        // early abort (SeedyNth's nth=4 near-miss) alike.
        let mut profile = Profile::default();
        profile.syscall_counts.insert(SyscallId::Connect, 30);
        let symbols = SymbolTable::new();
        for ex in [scf_extraction(), scf_ei_extraction(6)] {
            let ei = ex.faults[0].ei.is_some();
            for speculation in [0usize, 1] {
                for discovery_runs in [1u32, 3] {
                    let cfg = DiagnosisConfig {
                        speculation,
                        discovery_runs,
                        ..Default::default()
                    };
                    let mut h = Batches {
                        inner: SeedyNth,
                        lengths: Vec::new(),
                        executed: 0,
                    };
                    let rep = Diagnoser::new(cfg, &profile, &symbols, &ex).diagnose(&mut h);
                    let at = format!(
                        "ei={ei} speculation={speculation} discovery_runs={discovery_runs}"
                    );
                    assert!(
                        rep.runs > 20,
                        "the search must have swept and confirmed: {at}"
                    );
                    assert!(h.lengths.iter().all(|&len| len == 1), "{at}");
                    assert_eq!(h.lengths.len(), rep.runs, "{at}");
                    assert_eq!(h.executed, rep.runs, "{at}");
                }
            }
        }
    }

    /// [`SeedyNth`]'s and [`SeedyEi`]'s bug, with what a simulated run
    /// carries besides its bit: a seed-dependent event count and, on a bug
    /// run, a causal log stamped with the seed — so the report's
    /// `redundancy.events_total` and propagation chains say which runs they
    /// came from.
    fn eventful(schedule: &FaultSchedule, seed: u64) -> RunObservation {
        let mut obs = SeedyNth.run(schedule, seed);
        obs.bug |= SeedyEi.run(schedule, seed).bug;
        obs.sim_events = 1_000 + seed % 97;
        if obs.bug {
            let mut log = rose_events::CausalLog::default();
            let inject = log.push_node(
                SimTime::from_micros(seed),
                Some(NodeId(1)),
                rose_events::CausalKind::Inject {
                    fault: 0,
                    tag: "SCF(connect)".into(),
                },
            );
            let oracle = log.push_node(
                SimTime::from_micros(seed + 1),
                None,
                rose_events::CausalKind::Oracle,
            );
            log.push_edge(inject, oracle, rose_events::EdgeKind::Oracle);
            obs.causal = Some(log);
        }
        obs
    }

    /// [`eventful`]'s runs through the trait's defaults, played out as the
    /// benchmark's mirror harness plays them. Logs every job it executes.
    struct Played(Vec<(FaultSchedule, u64)>);

    impl RunHarness for Played {
        fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation {
            self.0.push((schedule.clone(), seed));
            eventful(schedule, seed)
        }
    }

    /// [`Played`]'s runs, except that a run that shows the bug, discovery
    /// run or confirmation replay, carries a junk event count, as one
    /// stopped at detection carries a count no played-out run shares. Logs
    /// every job it executes.
    struct JunkWhenShown(Vec<(FaultSchedule, u64)>);

    impl RunHarness for JunkWhenShown {
        fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation {
            self.0.push((schedule.clone(), seed));
            let mut obs = eventful(schedule, seed);
            if obs.bug {
                obs.sim_events = seed % 13;
            }
            obs
        }
    }

    #[test]
    fn a_discovery_run_that_shows_the_bug_counts_no_events() {
        let mut profile = Profile::default();
        profile.syscall_counts.insert(SyscallId::Connect, 30);
        let symbols = SymbolTable::new();
        let (mut shown, mut confirmed) = (0, 0);
        for ex in [scf_extraction(), scf_ei_extraction(6)] {
            let ei = ex.faults[0].ei.is_some();
            for discovery_runs in [1u32, 3] {
                for speculation in [1usize, 2, 4] {
                    let cfg = DiagnosisConfig {
                        speculation,
                        discovery_runs,
                        ..Default::default()
                    };
                    let at = format!(
                        "ei={ei} discovery_runs={discovery_runs} speculation={speculation}"
                    );
                    let mut junk = JunkWhenShown(Vec::new());
                    let stopped =
                        Diagnoser::new(cfg.clone(), &profile, &symbols, &ex).diagnose(&mut junk);
                    let mut played = Played(Vec::new());
                    let clean = Diagnoser::new(cfg, &profile, &symbols, &ex).diagnose(&mut played);
                    assert_eq!(
                        serde_json::to_string(&stopped).unwrap(),
                        serde_json::to_string(&clean).unwrap(),
                        "{at}"
                    );
                    assert_eq!(junk.0, played.0, "the same jobs in the same order: {at}");
                    assert!(clean.redundancy.events_total > 0, "{at}");
                    shown += played
                        .0
                        .iter()
                        .filter(|(s, seed)| eventful(s, *seed).bug)
                        .count();
                    confirmed += usize::from(clean.reproduced);
                }
            }
        }
        assert!(shown > 0, "some run showed the bug");
        assert!(confirmed > 0, "some search confirmed at target");
    }

    /// A crash the bug needs keyed on `trigger` on node 0; only the first
    /// run of a schedule shows the bug, so its confirmation replays never
    /// do and every guess stays below target. A run that shows the bug
    /// reports `shown` as what it observed — a run stopped at detection saw
    /// only what came before — and any other run `setup` then `trigger`.
    /// Logs every run's schedule.
    struct ShownEarly {
        shown: Vec<(NodeId, String)>,
        schedules: Vec<FaultSchedule>,
    }

    impl RunHarness for ShownEarly {
        fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
            let first = !self.schedules.contains(schedule);
            self.schedules.push(schedule.clone());
            let bug = first
                && schedule.faults.iter().any(|f| {
                    f.node == NodeId(0)
                    && f.conditions.iter().any(
                        |c| matches!(c, Condition::FunctionEntered { name } if name == "trigger"),
                    )
                });
            let af_calls = if bug {
                self.shown.clone()
            } else {
                vec![(NodeId(0), "setup".into()), (NodeId(0), "trigger".into())]
            };
            RunObservation {
                bug,
                af_calls,
                feedback: rose_inject::ExecutionFeedback {
                    injected: vec![(0, 1)],
                    armed: vec![0],
                },
                wall: SimDuration::from_secs(10),
                ..Default::default()
            }
        }
    }

    #[test]
    fn find_context_reads_a_stopped_observation_as_it_is() {
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&["trigger", "setup"]);
        // Whether the search went on to the chain `setup → trigger` after
        // the sub-target run keyed on `trigger` alone.
        let extended = |shown: &[&str]| {
            let mut h = ShownEarly {
                shown: shown.iter().map(|f| (NodeId(0), f.to_string())).collect(),
                schedules: Vec::new(),
            };
            let cfg = DiagnosisConfig {
                enable_amplification: false,
                ..Default::default()
            };
            let rep = Diagnoser::new(cfg, &profile, &symbols, &ex).diagnose(&mut h);
            assert!(!rep.reproduced);
            h.schedules.iter().any(|s| {
                s.faults
                    .iter()
                    .flat_map(|f| &f.conditions)
                    .any(|c| matches!(c, Condition::FunctionEntered { name } if name == "setup"))
            })
        };
        // Stopped before `trigger` ran: the chain is unobserved, so the
        // context does not hold and the search stops contextualizing.
        assert!(!extended(&["setup"]));
        // The same run having observed the chain keeps extending.
        assert!(extended(&["setup", "trigger"]));
    }

    #[test]
    fn speculative_offset_sweep_is_bit_identical() {
        use rose_profile::site;
        // Level 3 bug, seed-flaky: offset 2 reproduces on most seeds.
        struct SeedyOffset;
        impl RunHarness for SeedyOffset {
            fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation {
                let right = schedule.faults.iter().any(|f| {
                    f.conditions.iter().any(|c| {
                        matches!(c, Condition::FunctionOffset { name, offset: 2 } if name == "storeSnapshotData")
                    })
                });
                let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                RunObservation {
                    bug: right && !h.is_multiple_of(5),
                    af_calls: vec![(NodeId(0), "storeSnapshotData".into())],
                    feedback: rose_inject::ExecutionFeedback {
                        injected: vec![(0, 1)],
                        armed: vec![0],
                    },
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        let profile = Profile::default();
        let symbols = SymbolTable::new().function(
            "storeSnapshotData",
            "snapshot.c",
            vec![
                site::other(0),
                site::sys(1, SyscallId::Openat),
                site::sys(2, SyscallId::Write),
                site::sys(3, SyscallId::Close),
            ],
        );
        let ex = one_crash_extraction(&["storeSnapshotData"]);
        let run_with = |speculation: usize| {
            let cfg = DiagnosisConfig {
                speculation,
                ..Default::default()
            };
            let mut d = Diagnoser::new(cfg, &profile, &symbols, &ex);
            serde_json::to_string(&d.diagnose(&mut SeedyOffset)).unwrap()
        };
        let sequential = run_with(1);
        for speculation in [2usize, 3, 8] {
            assert_eq!(run_with(speculation), sequential);
        }
    }

    #[test]
    fn flaky_bug_lands_as_candidate_with_measured_rate() {
        // Bug fires on 7 of 10 seeds — above a 60 % target it should be
        // accepted with rate ≈ 70 %.
        struct Flaky;
        impl RunHarness for Flaky {
            fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation {
                let has_crash = schedule
                    .faults
                    .iter()
                    .any(|f| matches!(f.action, FaultAction::Crash));
                RunObservation {
                    bug: has_crash && seed % 10 < 7,
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&[]);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut Flaky);
        // Depending on the seed stream the discovery run may or may not see
        // the bug; when it does, the confirm rate must be measured.
        if rep.reproduced {
            assert!(rep.replay_rate >= 60.0 && rep.replay_rate <= 100.0);
        }
    }

    #[test]
    fn unobserved_syscall_without_path_is_not_swept() {
        struct Never;
        impl RunHarness for Never {
            fn run(&mut self, _schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                RunObservation {
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        // Connect never occurred in the failure-free profile and the fault
        // carries no path input: there is no invocation index worth
        // sweeping, so Level 2 must yield no candidate instead of clamping
        // the zero observation count up to a bound of 1.
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = scf_extraction();
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut Never);
        assert!(!rep.reproduced);
        assert_eq!(rep.schedules_generated, 1, "Level 1 only, no SCF sweep");
    }

    /// [`scf_extraction`] with the failing call stamped with its execution
    /// index, as the tracer records it.
    fn scf_ei_extraction(count: u32) -> Extraction {
        let mut ex = scf_extraction();
        ex.faults[0].ei = Some(rose_events::ExecutionIndex::new(
            vec!["applyEntry".into(), "writeSegment".into()],
            count,
        ));
        ex
    }

    #[test]
    fn ei_sweep_recovers_recorded_context_first() {
        // Bug fires iff the schedule keys the SCF on the recorded calling
        // context at the recorded per-context count, with nth reverted to 1.
        struct EiBug;
        impl RunHarness for EiBug {
            fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                let bug = schedule.faults.iter().any(|f| {
                    matches!(f.action, FaultAction::Scf { nth: 1, .. })
                        && f.conditions.iter().any(|c| {
                            matches!(
                                c,
                                Condition::ExecutionIndex {
                                    chain,
                                    syscall: SyscallId::Connect,
                                    count: 3,
                                } if chain.as_slice()
                                    == ["applyEntry".to_string(), "writeSegment".to_string()]
                            )
                        })
                });
                RunObservation {
                    bug,
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        // No profiling observations needed: the recorded EI is direct
        // evidence, so the sweep runs even for an unprofiled syscall.
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = scf_ei_extraction(3);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut EiBug);
        assert!(rep.reproduced);
        assert_eq!(rep.level, 1);
        // The EI pre-pass keys the level-1 guess on the recorded context
        // and confirms at 100% — one schedule, versus the flat sweep's
        // up-to-cap flat indices.
        assert_eq!(rep.schedules_generated, 1);
        assert_eq!(rep.replay_rate, 100.0);
        assert_eq!(rep.ei_sweeps, 1);
        assert_eq!(rep.ei_schedules, 1);
        let sched = rep.schedule.as_ref().unwrap();
        assert!(sched.faults.iter().any(|f| f
            .conditions
            .iter()
            .any(|c| matches!(c, Condition::ExecutionIndex { count: 3, .. }))));
    }

    #[test]
    fn ei_sweep_falls_back_to_lower_counts() {
        // Replays reach the failing context with fewer prior calls: the
        // bug only reproduces at per-context count 1, recorded count is 5.
        struct LowCount;
        impl RunHarness for LowCount {
            fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                let bug = schedule.faults.iter().any(|f| {
                    f.conditions
                        .iter()
                        .any(|c| matches!(c, Condition::ExecutionIndex { count: 1, .. }))
                });
                RunObservation {
                    bug,
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = scf_ei_extraction(5);
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut LowCount);
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
        struct NthConnect;
        impl RunHarness for NthConnect {
            fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                RunObservation {
                    bug: schedule.faults.iter().any(|f| {
                        matches!(
                            f.action,
                            FaultAction::Scf {
                                syscall: SyscallId::Connect,
                                nth: 7,
                                ..
                            }
                        )
                    }),
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        let mut profile = Profile::default();
        profile.syscall_counts.insert(SyscallId::Connect, 30);
        let symbols = SymbolTable::new();
        let ex = scf_ei_extraction(3).without_execution_indices();
        let mut d = Diagnoser::new(DiagnosisConfig::default(), &profile, &symbols, &ex);
        let rep = d.diagnose(&mut NthConnect);
        assert!(rep.reproduced);
        assert_eq!(rep.schedules_generated, 7, "flat sweep to nth=7");
        assert_eq!(rep.ei_sweeps, 0);
        assert_eq!(rep.ei_schedules, 0);
    }

    /// Seed-flaky EI sweep bug, mirroring [`SeedyNth`] for Level 2.5: the
    /// per-context count 2 reproduces on ~3 of 4 seeds, count 4 is a rare
    /// near-miss that lands as a sub-target candidate.
    struct SeedyEi;
    impl RunHarness for SeedyEi {
        fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation {
            let count_is = |want: u64| {
                schedule.faults.iter().any(|f| {
                    f.conditions.iter().any(
                        |c| matches!(c, Condition::ExecutionIndex { count, .. } if *count == want),
                    )
                })
            };
            let h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
            RunObservation {
                bug: (count_is(2) && !h.is_multiple_of(4)) || (count_is(4) && h.is_multiple_of(5)),
                wall: SimDuration::from_secs(10),
                ..Default::default()
            }
        }
    }

    #[test]
    fn speculative_ei_sweep_is_bit_identical() {
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        // Candidates [6, 5, 4, 3, 2, 1]: the near-miss at 4 precedes the
        // hit at 2, exercising sub-target confirmation inside the window.
        let ex = scf_ei_extraction(6);
        let run_with = |speculation: usize, discovery_runs: u32| {
            let cfg = DiagnosisConfig {
                speculation,
                discovery_runs,
                ..Default::default()
            };
            let mut h = Counted {
                inner: SeedyEi,
                executed: 0,
            };
            let mut d = Diagnoser::new(cfg, &profile, &symbols, &ex);
            let rep = d.diagnose(&mut h);
            (serde_json::to_string(&rep).unwrap(), h.executed)
        };
        for discovery_runs in [1u32, 3] {
            let (sequential, seq_executed) = run_with(1, discovery_runs);
            for speculation in [2usize, 4, 9] {
                let (speculative, spec_executed) = run_with(speculation, discovery_runs);
                assert_eq!(
                    speculative, sequential,
                    "EI report diverged at speculation={speculation} discovery_runs={discovery_runs}"
                );
                assert!(spec_executed >= seq_executed);
            }
        }
    }

    /// A hunter-style seed schedule: crash node 1 when `recover` is
    /// entered.
    fn hunter_seed() -> FaultSchedule {
        let mut s = FaultSchedule::new();
        s.push(ScheduledFault::new(NodeId(1), FaultAction::Crash).after(
            Condition::FunctionEntered {
                name: "recover".into(),
            },
        ));
        s
    }

    #[test]
    fn seeded_schedule_short_circuits_the_search() {
        // The bug only fires on the hunter's schedule; the extraction's
        // flat SCF never reproduces. The seed must confirm at 100 %,
        // report level 2 (context-keyed), and skip the search entirely.
        struct SeedOnly;
        impl RunHarness for SeedOnly {
            fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                let bug = schedule.faults.iter().any(|f| {
                    matches!(f.action, FaultAction::Crash)
                        && f.conditions.iter().any(|c| {
                            matches!(c, Condition::FunctionEntered { name } if name == "recover")
                        })
                });
                RunObservation {
                    bug,
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = scf_extraction();
        let cfg = DiagnosisConfig {
            seed_schedule: Some(hunter_seed()),
            ..Default::default()
        };
        let mut d = Diagnoser::new(cfg, &profile, &symbols, &ex);
        let rep = d.diagnose(&mut SeedOnly);
        assert!(rep.reproduced);
        assert_eq!(rep.replay_rate, 100.0);
        assert_eq!(rep.level, 2);
        assert_eq!(rep.schedules_generated, 1);
        assert_eq!(rep.runs, 10); // one full confirmation, nothing else
        assert!(rep.schedule.unwrap().faults.iter().any(|f| f
            .conditions
            .iter()
            .any(|c| matches!(c, Condition::FunctionEntered { name } if name == "recover"))));
    }

    #[test]
    fn seeded_schedule_confirms_even_with_empty_extraction() {
        // A partition-style discovery can yield a trace whose extraction
        // is empty; the seed must still be confirmed and reported.
        struct SeedOnly;
        impl RunHarness for SeedOnly {
            fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                RunObservation {
                    bug: !schedule.faults.is_empty(),
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
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
        let rep = d.diagnose(&mut SeedOnly);
        assert!(rep.reproduced);
        assert_eq!(rep.replay_rate, 100.0);
    }

    #[test]
    fn an_empty_extraction_prunes_a_sub_target_seed() {
        // The seed shows the bug on 8 of its first 10 runs and 7 of the
        // next 10: below a 90 % target both times. With nothing extracted
        // it is the only candidate, and the pruning runs report it.
        struct Fading(u64);
        impl RunHarness for Fading {
            fn run(&mut self, _schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                self.0 += 1;
                RunObservation {
                    bug: !matches!(self.0, 9 | 10 | 18..=20),
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = Extraction::default();
        let cfg = DiagnosisConfig {
            target_replay_rate: 90.0,
            seed_schedule: Some(hunter_seed()),
            ..Default::default()
        };
        let rep = Diagnoser::new(cfg, &profile, &symbols, &ex).diagnose(&mut Fading(0));
        assert!(!rep.reproduced);
        assert_eq!(rep.schedule, Some(hunter_seed()));
        assert_eq!(rep.replay_rate, 70.0, "the pruning run's rate");
        assert_eq!(rep.level, seeded_level(&hunter_seed()));
        assert_eq!(rep.runs, 20);
    }

    #[test]
    fn dead_seed_schedule_never_lowers_the_result() {
        // The seed never fires; the flat level-1 search reproduces. The
        // report must match the unseeded search apart from the seed's own
        // confirmation charge.
        struct FlatBug;
        impl RunHarness for FlatBug {
            fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
                RunObservation {
                    bug: schedule
                        .faults
                        .iter()
                        .any(|f| matches!(f.action, FaultAction::Scf { .. })),
                    wall: SimDuration::from_secs(10),
                    ..Default::default()
                }
            }
        }
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = scf_extraction();
        let mut dead = FaultSchedule::new();
        dead.push(ScheduledFault::new(NodeId(0), FaultAction::Crash).after(
            Condition::FunctionEntered {
                name: "neverCalled".into(),
            },
        ));
        let cfg = DiagnosisConfig {
            seed_schedule: Some(dead),
            ..Default::default()
        };
        let mut d = Diagnoser::new(cfg, &profile, &symbols, &ex);
        let rep = d.diagnose(&mut FlatBug);
        assert!(rep.reproduced);
        assert_eq!(rep.level, 1);
        assert!(rep
            .schedule
            .unwrap()
            .faults
            .iter()
            .all(|f| matches!(f.action, FaultAction::Scf { .. })));
    }

    /// Confirms the three guesses at chosen rates, in tenths: the hunter
    /// seed (a crash), the EI-keyed Level-1 guess (an SCF keyed on its
    /// execution index) and the flat Level-1 guess (the bare SCF). The
    /// `k`-th run of a guess shows the bug iff `k % 10 < tenths`, so a
    /// confirmation's clean runs come last and never trip the early abort.
    struct Rated {
        tenths: [u64; 3],
        runs: [u64; 3],
    }

    impl RunHarness for Rated {
        fn run(&mut self, schedule: &FaultSchedule, _seed: u64) -> RunObservation {
            let f = &schedule.faults[0];
            let guess = if matches!(f.action, FaultAction::Crash) {
                0
            } else if f
                .conditions
                .iter()
                .any(|c| matches!(c, Condition::ExecutionIndex { .. }))
            {
                1
            } else {
                2
            };
            let k = self.runs[guess];
            self.runs[guess] += 1;
            RunObservation {
                bug: k % 10 < self.tenths[guess],
                wall: SimDuration::from_secs(10),
                ..Default::default()
            }
        }
    }

    #[test]
    fn the_highest_rate_wins_and_the_first_found_breaks_ties() {
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = scf_ei_extraction(3);
        // (seed, EI, flat) in tenths → winner, its rate, its level, runs.
        let cases = [
            ([8, 8, 7], 0, 80.0, 2, 32),   // seed ties EI → seed
            ([7, 8, 8], 1, 80.0, 1, 32),   // EI ties flat → EI
            ([8, 8, 9], 2, 90.0, 1, 32),   // flat strictly higher → flat
            ([10, 8, 9], 0, 100.0, 2, 10), // a 100 % seed runs no search
            ([7, 10, 9], 1, 100.0, 1, 21), // a 100 % EI guess, no flat search
        ];
        for (tenths, winner, rate, level, runs) in cases {
            let cfg = DiagnosisConfig {
                seed_schedule: Some(hunter_seed()),
                ..Default::default()
            };
            let mut h = Rated {
                tenths,
                runs: [0; 3],
            };
            let rep = Diagnoser::new(cfg, &profile, &symbols, &ex).diagnose(&mut h);
            let at = format!("tenths={tenths:?}");
            assert!(rep.reproduced, "{at}");
            assert_eq!(rep.replay_rate, rate, "{at}");
            assert_eq!(rep.level, level, "{at}");
            assert_eq!(rep.runs, runs, "{at}");
            let mut h = Rated {
                tenths: [0; 3],
                runs: [0; 3],
            };
            h.tenths[winner] = 10;
            assert!(h.run(rep.schedule.as_ref().unwrap(), 0).bug, "{at}");
        }
    }

    #[test]
    fn seed_stream_wraps_at_the_top_of_the_seed_space() {
        let profile = Profile::default();
        let symbols = SymbolTable::new();
        let ex = one_crash_extraction(&[]);
        let cfg = DiagnosisConfig {
            base_seed: u64::MAX,
            ..Default::default()
        };
        let mut d = Diagnoser::new(cfg, &profile, &symbols, &ex);
        assert_eq!(d.peek_seed(1), 7_918);
        // Far enough into the stream the multiply itself overflows; a debug
        // build must wrap there too, not panic.
        d.seed_counter = u64::MAX / 7_919;
        d.peek_seed(1);
    }
}
