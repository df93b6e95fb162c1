//! The Rose workflow: profiling → tracing → diagnosis → reproduction
//! (paper Figure 1).

use std::collections::BTreeMap;

use rose_analyze::{
    extract_faults, Diagnoser, DiagnosisConfig, DiagnosisReport, Extraction, RunHarness,
    RunObservation,
};
use rose_events::{EventKind, FunctionId, NodeId, SimDuration, Trace};
use rose_inject::{ExecutionFeedback, Executor, FaultSchedule};
use rose_obs::{Obs, PhaseRecord, ReproductionStats, TracingStats};
use rose_profile::{Profile, ProfilingHook};
use rose_sim::{KernelHook, Sim, SimConfig};
use rose_trace::{Tracer, TracerConfig, TracerReport};

use crate::system::TargetSystem;

/// Seed of the failure-free profiling run.
pub const PROFILING_SEED: u64 = 42;

/// Top-level configuration of a Rose campaign.
#[derive(Debug, Clone)]
pub struct RoseConfig {
    /// Diagnosis-phase knobs (replay-rate target, budgets, seeds).
    pub diagnosis: DiagnosisConfig,
    /// Length of the failure-free profiling run.
    pub profiling_duration: SimDuration,
    /// Worker threads for replay fan-out and speculative schedule
    /// execution. 1 = fully sequential. Results, reports, and telemetry are
    /// bit-identical for every value — this is purely a wall-clock knob.
    pub jobs: usize,
    /// Collect causal provenance in [`Rose::run_once`], in every run the
    /// diagnosis charges (discovery runs and confirmation replays alike)
    /// and in [`Rose::stopped_replays`], though not in
    /// [`Rose::replay_rate`]'s runs, which it reads for the verdict alone:
    /// each such run records a happens-before log (injections,
    /// overridden syscalls, tainted message receipts, crash/pause
    /// transitions, oracle detection), and the diagnosis report carries
    /// per-fault propagation chains computed from the winning schedule's
    /// confirmation run.
    pub causal: bool,
}

impl Default for RoseConfig {
    fn default() -> Self {
        RoseConfig {
            diagnosis: DiagnosisConfig::default(),
            profiling_duration: SimDuration::from_secs(60),
            jobs: 1,
            causal: false,
        }
    }
}

/// A captured production trace plus whether the oracle fired during capture.
#[derive(Debug, Clone)]
pub struct TraceCapture {
    /// The merged, dumped trace.
    pub trace: Trace,
    /// Oracle outcome of the capture run.
    pub bug: bool,
    /// The tracer's counters at dump time (Table 2 columns).
    pub report: TracerReport,
    /// Size of the dump in the JSON dump format, bytes. The historic Table 2
    /// "memory" story measured this serialization; it is reported next to
    /// the binary size so the two are comparable.
    pub dump_json_bytes: u64,
    /// Size of the dump in the `.rosetrace` binary codec, bytes.
    pub dump_store_bytes: u64,
    /// Total probe CPU time the tracer charged during the run.
    pub charged: SimDuration,
    /// Simulated time the capture run covered.
    pub elapsed: SimDuration,
}

impl TraceCapture {
    /// The tracing-phase record for the campaign's JSONL run report.
    /// `attempts` is how many capture runs were needed (1 = first try).
    pub fn phase_record(&self, attempts: usize) -> TracingStats {
        TracingStats {
            attempts,
            bug_detected: self.bug,
            trace_events: self.trace.len(),
            events_matched: self.report.events_matched,
            events_saved: self.report.events_saved,
            peak_bytes: self.report.peak_bytes,
            processing_us: self.report.processing_us,
            overhead_charged_us: self.charged.as_micros(),
            dump_json_bytes: self.dump_json_bytes,
            dump_store_bytes: self.dump_store_bytes,
        }
    }
}

/// The Rose toolchain bound to one target system.
pub struct Rose<S: TargetSystem> {
    system: S,
    cfg: RoseConfig,
    obs: Obs,
}

impl<S: TargetSystem> Rose<S> {
    /// Binds Rose to a target system with default configuration and
    /// telemetry disabled.
    pub fn new(system: S) -> Self {
        Rose {
            system,
            cfg: RoseConfig::default(),
            obs: Obs::disabled(),
        }
    }

    /// Binds Rose with explicit configuration.
    pub fn with_config(system: S, cfg: RoseConfig) -> Self {
        Rose {
            system,
            cfg,
            obs: Obs::disabled(),
        }
    }

    /// Attaches a campaign telemetry registry: each phase appends its span
    /// and record to it, and every testing run counts itself.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The campaign telemetry handle (disabled unless attached).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The bound system.
    pub fn system(&self) -> &S {
        &self.system
    }

    /// Configuration access.
    pub fn config(&self) -> &RoseConfig {
        &self.cfg
    }

    /// Builds a ready-to-start simulated deployment of the target system
    /// with the given hooks attached.
    pub fn deploy(&self, seed: u64, hooks: Vec<Box<dyn KernelHook>>) -> Sim<S::App> {
        let sim_cfg = SimConfig::new(self.system.cluster_size(), seed);
        let sys = self.system.clone();
        let mut sim = Sim::new(sim_cfg, move |n| sys.build_node(n));
        self.system.install(&mut sim);
        for h in hooks {
            sim.add_hook(h);
        }
        self.system.attach_workload(&mut sim);
        sim
    }

    /// The oracle-poll loop every run path shares. The oracle stands in for
    /// production health monitoring: the deployment advances in 5 s steps
    /// for `duration`, and the oracle is evaluated after each step until it
    /// first fires. `at_detection` runs at that instant and says whether
    /// the run stops there; otherwise it plays out unpolled. Returns
    /// whether the oracle fired.
    pub fn poll_oracle(
        &self,
        sim: &mut Sim<S::App>,
        duration: SimDuration,
        mut at_detection: impl FnMut(&mut Sim<S::App>) -> bool,
    ) -> bool {
        let check_every = SimDuration::from_secs(5);
        let mut elapsed = SimDuration::ZERO;
        let mut bug = false;
        while elapsed < duration {
            sim.run_for(check_every);
            elapsed += check_every;
            if !bug && self.system.oracle(sim) {
                bug = true;
                if at_detection(sim) {
                    break;
                }
            }
        }
        bug
    }

    /// **Phase 1 — Profiling** (§4.3): run the system failure-free, count
    /// function and syscall frequencies, and fingerprint benign faults.
    pub fn profile(&self) -> Profile {
        let span = self.obs.begin_phase("profiling");
        let mut sim = self.deploy(PROFILING_SEED, vec![Box::new(ProfilingHook::new())]);
        sim.start();
        sim.run_for(self.cfg.profiling_duration);
        let symbols = self.system.symbols();
        let key_files = self.system.key_files();
        let candidates: Vec<String> = symbols
            .functions_in_files(&key_files)
            .map(str::to_string)
            .collect();
        let hook = sim
            .hook_ref::<ProfilingHook>()
            .expect("profiling hook attached");
        let profile = Profile::from_run(hook, self.cfg.profiling_duration, candidates);
        self.obs.end_phase(span, self.cfg.profiling_duration);
        profile.publish_obs(&self.obs);
        profile
    }

    /// The production tracer configuration derived from a profile.
    pub fn tracer_config(&self, profile: &Profile) -> TracerConfig {
        TracerConfig::rose(profile.infrequent_functions())
    }

    /// FunctionId → name mapping of the tracer configuration.
    pub fn function_names(&self, profile: &Profile) -> BTreeMap<FunctionId, String> {
        self.tracer_config(profile)
            .monitored_functions
            .iter()
            .map(|(name, id)| (*id, name.clone()))
            .collect()
    }

    /// **Phase 2 — Tracing**: runs the deployment with the production
    /// tracer and arbitrary extra hooks (e.g. a Jepsen-style nemesis or a
    /// scripted fault schedule) and dumps the trace at the end of the run —
    /// the stand-in for a monitored production deployment.
    pub fn capture_trace(
        &self,
        profile: &Profile,
        extra_hooks: Vec<Box<dyn KernelHook>>,
        seed: u64,
        duration: SimDuration,
    ) -> TraceCapture {
        let mut hooks: Vec<Box<dyn KernelHook>> = extra_hooks;
        hooks.push(Box::new(Tracer::new(self.tracer_config(profile))));
        let mut sim = self.deploy(seed, hooks);
        sim.start();
        // The monitoring infrastructure invokes `dump` when a deviation is
        // detected (§4.4): the run stops at first detection, so the dumped
        // window ends at the bug.
        let bug = self.poll_oracle(&mut sim, duration, |_| true);
        let now = sim.now();
        let tracer = sim.hook_mut::<Tracer>().expect("tracer attached");
        let trace = tracer.dump(now);
        let report = tracer.report();
        let charged = tracer.total_charged;
        // The capture's phase record carries the dump sizes (Table 2).
        // Serializing a dump to measure it costs far more than the dump,
        // so testing runs, which never report the sizes, do not.
        let dump_json_bytes = trace.json_len() as u64;
        let dump_store_bytes = rose_store::encoded_trace_bytes(&trace);
        TraceCapture {
            trace,
            bug,
            report,
            dump_json_bytes,
            dump_store_bytes,
            charged,
            elapsed: now.since(rose_events::SimTime::ZERO),
        }
    }

    /// Convenience: capture under a specific fault schedule (used when
    /// recreating traces from known test cases, as done for the Anduril
    /// bug corpus).
    pub fn capture_trace_with_schedule(
        &self,
        profile: &Profile,
        schedule: &FaultSchedule,
        seed: u64,
        duration: SimDuration,
    ) -> TraceCapture {
        self.capture_trace(
            profile,
            vec![Box::new(Executor::new(schedule.clone()))],
            seed,
            duration,
        )
    }

    /// **Phase 3+4 — Diagnosis and Reproduction** (§4.5, §4.6): extracts
    /// faults from the buggy trace, then searches for a schedule that
    /// reproduces the bug at the target replay rate, executing candidate
    /// schedules in the testing environment.
    pub fn reproduce(&self, profile: &Profile, trace: &Trace) -> DiagnosisReport {
        let extraction = self.extract(profile, trace);
        self.reproduce_extracted(profile, &extraction)
    }

    /// The extraction step alone (exposed for inspection and tests).
    pub fn extract(&self, profile: &Profile, trace: &Trace) -> Extraction {
        extract_faults(trace, profile, &self.function_names(profile))
    }

    /// Diagnosis over a pre-computed extraction.
    pub fn reproduce_extracted(
        &self,
        profile: &Profile,
        extraction: &Extraction,
    ) -> DiagnosisReport {
        let span = self.obs.begin_phase("diagnosis");
        let symbols = self.system.symbols();
        let mut diag_cfg = self.cfg.diagnosis.clone();
        diag_cfg.cluster_nodes = self.system.cluster_size();
        let budget = diag_cfg.max_schedules;
        let mut harness = SimHarness {
            rose: self,
            profile,
            pending: Vec::new(),
        };
        let mut diagnoser = Diagnoser::new(diag_cfg, profile, &symbols, extraction);
        let report = diagnoser.diagnose(&mut harness);
        self.obs.end_phase(span, report.total_time);
        report.publish_obs(&self.obs, budget);
        report
    }

    /// Deploys and starts one testing execution of a schedule — executor and
    /// production tracer — and says how long it is to run.
    fn deploy_testing(
        &self,
        profile: &Profile,
        schedule: &FaultSchedule,
        seed: u64,
    ) -> TestingRun<S> {
        let tracer_cfg = self.tracer_config(profile);
        // The diagnosis already applied (or deliberately ablated) fault-order
        // enforcement when materializing the schedule; execute it verbatim.
        let hooks: Vec<Box<dyn KernelHook>> = vec![
            Box::new(Executor::without_order_enforcement(schedule.clone())),
            Box::new(Tracer::new(tracer_cfg.clone())),
        ];
        let mut sim = self.deploy(seed, hooks);
        sim.start();
        // A run must outlive the schedule's longest relative fault time plus
        // room for the failure to manifest.
        let span = schedule
            .faults
            .iter()
            .flat_map(|f| &f.conditions)
            .filter_map(|c| match c {
                rose_inject::Condition::TimeElapsed { after } => Some(*after),
                _ => None,
            })
            .max()
            .unwrap_or(SimDuration::ZERO);
        let duration = self
            .system
            .run_duration()
            .max(span + SimDuration::from_secs(30));
        self.obs.counter_inc("workflow.testing_runs");
        TestingRun {
            sim,
            tracer_cfg,
            duration,
        }
    }

    /// Runs one testing execution with a schedule, played out in full. Every
    /// run the diagnosis charges stops at its verdict instead
    /// (`Rose::run_to_verdict`); only replays outside diagnosis that read
    /// more than the verdict play out (e.g. the ablations).
    pub fn run_once(&self, profile: &Profile, schedule: &FaultSchedule, seed: u64) -> RunOnce {
        let mut run = self.deploy_testing(profile, schedule, seed);
        if self.cfg.causal {
            run.sim.record_causal();
        }
        // The oracle is polled until it first fires, so a transient
        // manifestation (e.g. an unavailability window that later heals)
        // still counts. The run then plays out in full, unpolled: the dump,
        // and with it `af_calls`, the executor's feedback and `sim_events`,
        // describe the whole run.
        let bug = self.poll_oracle(&mut run.sim, run.duration, |sim| {
            sim.record_oracle();
            false
        });
        self.observe(&mut run, bug, self.cfg.causal)
    }

    /// The body of every run the diagnosis charges: one testing execution
    /// with a schedule up to its verdict — the same hooks over the same
    /// execution as [`Rose::run_once`] until the oracle first fires, and
    /// nothing after — observed where it stopped, as a capture is dumped
    /// at detection. The oracle latches there, so the verdict is the
    /// played-out run's, and a run that never detects plays out in full and
    /// observes as `run_once`'s. The causal log, recorded when `causal` is
    /// set, ends at the oracle node.
    fn run_to_verdict(
        &self,
        profile: &Profile,
        schedule: &FaultSchedule,
        seed: u64,
        causal: bool,
    ) -> RunObservation {
        let mut run = self.deploy_testing(profile, schedule, seed);
        if causal {
            run.sim.record_causal();
        }
        let bug = self.poll_oracle(&mut run.sim, run.duration, |sim| {
            sim.record_oracle();
            true
        });
        self.observe(&mut run, bug, causal).into()
    }

    /// What a testing run saw up to now: the tracer's dump, the AF calls it
    /// resolves to, the executor's feedback (published to telemetry), the
    /// kernel's event counts and, when `causal` is set, the causal log.
    fn observe(&self, run: &mut TestingRun<S>, bug: bool, causal: bool) -> RunOnce {
        let TestingRun {
            sim,
            tracer_cfg,
            duration,
        } = run;
        // Charged the length it was scheduled for plus the oracle's cost,
        // wherever it stopped.
        let wall = *duration + self.system.oracle_cost();
        let now = sim.now();
        let trace = sim.hook_mut::<Tracer>().expect("tracer attached").dump(now);
        let feedback = sim
            .hook_ref::<Executor>()
            .expect("executor attached")
            .feedback();
        let af_calls = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Af { function, .. } => tracer_cfg
                    .function_name(function)
                    .map(|n| (e.node, n.to_string())),
                _ => None,
            })
            .collect();
        feedback.publish_obs(&self.obs);
        let sim_events = sim.core().events_executed();
        let events_before_injection = sim.core().first_injection_events();
        RunOnce {
            bug,
            trace,
            feedback,
            af_calls,
            wall,
            causal: causal.then(|| sim.take_causal_log()),
            sim_events,
            events_before_injection,
        }
    }

    /// A detached copy of this toolchain for a worker thread: same system
    /// and configuration, but telemetry goes to a fresh private registry
    /// (active iff this one is active) that the caller absorbs in job
    /// order afterwards — see [`Obs::absorb`].
    fn fork(&self) -> Rose<S> {
        Rose {
            system: self.system.clone(),
            cfg: self.cfg.clone(),
            obs: if self.obs.is_active() {
                Obs::new()
            } else {
                Obs::disabled()
            },
        }
    }

    /// Runs `run` once per item, each on its own [`Rose::fork`], across the
    /// configured worker pool. Returns each result with its worker's
    /// telemetry, in item order, for the caller to absorb when it decides.
    fn fan_out<T: Send, R: Send>(
        &self,
        items: Vec<T>,
        run: impl Fn(&Rose<S>, T) -> R + Sync,
    ) -> Vec<(R, Obs)> {
        crate::parallel::ordered_map(self.cfg.jobs, items, |item| {
            let worker = self.fork();
            let out = run(&worker, item);
            (out, worker.obs)
        })
    }

    /// Runs `run` once per replay seed (`base_seed + 31·i`, wrapping) across
    /// the configured worker pool, returning the results in seed order.
    ///
    /// Replays are embarrassingly parallel — each deploys its own fresh
    /// simulated cluster. Worker telemetry is absorbed in seed order, so
    /// every counter and the record list end up identical to a sequential
    /// pass no matter how many workers ran.
    fn map_replays<T: Send>(
        &self,
        n: u32,
        base_seed: u64,
        run: impl Fn(&Rose<S>, u64) -> T + Sync,
    ) -> Vec<T> {
        let seeds: Vec<u64> = (0..n)
            .map(|i| base_seed.wrapping_add(31 * u64::from(i)))
            .collect();
        if self.cfg.jobs <= 1 {
            return seeds.into_iter().map(|seed| run(self, seed)).collect();
        }
        self.fan_out(seeds, run)
            .into_iter()
            .map(|(out, worker_obs)| {
                self.obs.absorb(&worker_obs);
                out
            })
            .collect()
    }

    /// Runs `n` independent replays of a schedule (seeds
    /// `base_seed + 31·i`, wrapping) across the configured worker pool,
    /// returning the results in seed order.
    pub fn run_replays(
        &self,
        profile: &Profile,
        schedule: &FaultSchedule,
        n: u32,
        base_seed: u64,
    ) -> Vec<RunObservation> {
        self.map_replays(n, base_seed, |rose, seed| {
            rose.run_once(profile, schedule, seed).into()
        })
    }

    /// Runs one confirmation replay of a schedule and appends the
    /// reproduction phase record (span included) to the telemetry registry.
    pub fn confirm_reproduction(
        &self,
        profile: &Profile,
        schedule: &FaultSchedule,
        seed: u64,
    ) -> RunObservation {
        let span = self.obs.begin_phase("reproduction");
        let run = RunObservation::from(self.run_once(profile, schedule, seed));
        self.obs.end_phase(span, run.wall);
        self.obs
            .record(PhaseRecord::Reproduction(ReproductionStats {
                injections: run.feedback.injected.len(),
                armed: run.feedback.armed.len(),
                schedule_faults: schedule.len(),
                oracle_bug: run.bug,
                replay_iterations: 1,
                virtual_secs: run.wall.as_secs_f64(),
            }));
        run
    }

    /// Runs `n` independent replays of a schedule as [`Rose::run_replays`]
    /// does, each as the diagnosis runs it: stopped at its first detection
    /// and observed there, with its causal log when [`RoseConfig::causal`]
    /// is on. A replay that never detects plays out, so its observation is
    /// `run_replays`'.
    pub fn stopped_replays(
        &self,
        profile: &Profile,
        schedule: &FaultSchedule,
        n: u32,
        base_seed: u64,
    ) -> Vec<RunObservation> {
        self.map_replays(n, base_seed, |rose, seed| {
            rose.run_to_verdict(profile, schedule, seed, rose.cfg.causal)
        })
    }

    /// Measures the replay rate of a schedule over `n` fresh seeds, fanned
    /// out across the configured worker pool: the share of
    /// [`Rose::run_replays`]' runs with `bug` set. Only that bit of each
    /// replay is read, so a replay stops at its verdict and records no
    /// causal log.
    pub fn replay_rate(
        &self,
        profile: &Profile,
        schedule: &FaultSchedule,
        n: u32,
        base_seed: u64,
    ) -> f64 {
        let bugs = self
            .map_replays(n, base_seed, |rose, seed| {
                rose.run_to_verdict(profile, schedule, seed, false).bug
            })
            .into_iter()
            .filter(|bug| *bug)
            .count() as u32;
        100.0 * f64::from(bugs) / f64::from(n.max(1))
    }
}

/// A deployed, started testing execution.
struct TestingRun<S: TargetSystem> {
    sim: Sim<S::App>,
    tracer_cfg: TracerConfig,
    /// How long the run is to last.
    duration: SimDuration,
}

/// Result of a single testing execution: a [`RunObservation`] plus the
/// run's trace, which only `bench/tests/mirror_equivalence.rs` reads (it
/// holds the benchmark's dump counter equal to the trace's length).
#[derive(Debug, Clone)]
pub struct RunOnce {
    /// Oracle outcome.
    pub bug: bool,
    /// The testing-run trace.
    pub trace: Trace,
    /// Executor feedback.
    pub feedback: ExecutionFeedback,
    /// Resolved AF calls in order.
    pub af_calls: Vec<(NodeId, String)>,
    /// Virtual duration of the run.
    pub wall: SimDuration,
    /// Causal provenance log, when [`RoseConfig::causal`] was on.
    pub causal: Option<rose_events::CausalLog>,
    /// Simulation queue items the run executed.
    pub sim_events: u64,
    /// Of those, how many ran before the first fault fired. Kept only for
    /// the benchmark's mirror, which compares it; ROADMAP item 2(b)
    /// deletes it.
    pub events_before_injection: Option<u64>,
}

/// The [`RunHarness`] the diagnosis loop drives: each run deploys a fresh
/// simulated cluster, executes the schedule, and evaluates the oracle. Every
/// run, discovery run or confirmation replay, stops at its verdict and is
/// observed there (`Rose::run_to_verdict`).
///
/// Speculative batches fork one worker toolchain per job (a `SimHarness` is
/// just a config plus profile reference — forking is cheap), buffer each
/// worker's telemetry registry in job order, and publish only the prefix
/// the diagnosis loop commits. Telemetry of over-speculated runs is
/// discarded wholesale, so reports stay byte-identical to sequential
/// execution.
struct SimHarness<'a, S: TargetSystem> {
    rose: &'a Rose<S>,
    profile: &'a Profile,
    /// Private telemetry registries of the last speculative batch, one per
    /// job, awaiting [`RunHarness::commit_speculative`].
    pending: Vec<Obs>,
}

impl From<RunOnce> for RunObservation {
    fn from(r: RunOnce) -> Self {
        RunObservation {
            bug: r.bug,
            af_calls: r.af_calls,
            feedback: r.feedback,
            wall: r.wall,
            causal: r.causal,
            sim_events: r.sim_events,
            events_before_injection: r.events_before_injection,
        }
    }
}

impl<'a, S: TargetSystem> RunHarness for SimHarness<'a, S> {
    fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation {
        self.rose
            .run_to_verdict(self.profile, schedule, seed, self.rose.cfg.causal)
    }

    /// A single job runs inline, publishing its side effects directly (the
    /// commit that follows finds no buffers); a batch fans out, each
    /// worker's telemetry buffered until the commit.
    fn run_speculative(&mut self, jobs: &[(FaultSchedule, u64)]) -> Vec<RunObservation> {
        self.pending.clear();
        if let [(schedule, seed)] = jobs {
            return vec![self.run(schedule, *seed)];
        }
        let profile = self.profile;
        let results = self
            .rose
            .fan_out(jobs.to_vec(), |worker, (schedule, seed)| {
                worker.run_to_verdict(profile, &schedule, seed, worker.cfg.causal)
            });
        let (runs, pending) = results.into_iter().unzip();
        self.pending = pending;
        runs
    }

    fn commit_speculative(&mut self, used: usize) {
        for worker_obs in self.pending.drain(..).take(used) {
            self.rose.obs.absorb(&worker_obs);
        }
    }
}
