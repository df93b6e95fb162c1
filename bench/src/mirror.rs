//! The traced pass's phase-by-phase driver.
//!
//! `run_case` is one opaque call, so the traced pass cannot attribute its
//! time. This module drives the same public pieces itself — profile,
//! capture, extract, diagnose — with a span around each, and hands the
//! diagnosis loop its own [`RunHarness`] whose `run` repeats
//! `Rose::run_once` from public calls so that deploy, `run_for`, the oracle
//! polls and the dump each get a span too. Nothing here is timed for the
//! end-to-end metrics; `tests/mirror_equivalence.rs` pins this driver to
//! `run_case` and `Rose::run_once` so the per-layer numbers describe the
//! code users run.

use rose_analyze::{Diagnoser, DiagnosisReport, RunHarness, RunObservation};
use rose_apps::driver::{
    capture_buggy_trace, visit_case, CaptureSpec, DriverOptions, SystemVisitor,
};
use rose_apps::registry::BugId;
use rose_core::{ordered_map, Rose, RoseConfig, TargetSystem};
use rose_events::{EventKind, SimDuration, Trace};
use rose_inject::{Condition, Executor, FaultSchedule};
use rose_obs::Obs;
use rose_profile::Profile;
use rose_sim::KernelHook;
use rose_trace::Tracer;

use crate::cases::capture_spec;
use crate::spans::Spans;

/// Exact counts taken at the span boundaries of mirrored testing runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Testing runs executed, discarded speculative ones included.
    pub runs: u64,
    pub sim_events: u64,
    pub syscalls: u64,
    pub faults_scheduled: u64,
    pub faults_injected: u64,
    /// Events in the windows the runs dumped.
    pub dump_events: u64,
    /// Jobs handed to `run_speculative` in batches wider than one.
    pub spec_handed: u64,
    /// Of those, jobs the search committed.
    pub spec_used: u64,
}

impl RunCounters {
    fn add(&mut self, o: &RunCounters) {
        self.runs += o.runs;
        self.sim_events += o.sim_events;
        self.syscalls += o.syscalls;
        self.faults_scheduled += o.faults_scheduled;
        self.faults_injected += o.faults_injected;
        self.dump_events += o.dump_events;
        self.spec_handed += o.spec_handed;
        self.spec_used += o.spec_used;
    }
}

/// `Rose::run_once`, call for call, with a span per step.
pub fn run_once<S: TargetSystem>(
    rose: &Rose<S>,
    profile: &Profile,
    schedule: &FaultSchedule,
    seed: u64,
    spans: &mut Spans,
) -> (RunObservation, RunCounters) {
    assert!(
        !rose.config().causal,
        "the benchmark never collects provenance; the mirror omits that branch"
    );
    let run = spans.begin("core.run_once");
    let tracer_cfg = rose.tracer_config(profile);
    let hooks: Vec<Box<dyn KernelHook>> = vec![
        Box::new(Executor::without_order_enforcement(schedule.clone())),
        Box::new(Tracer::new(tracer_cfg.clone())),
    ];
    // `deploy` only wires the cluster up; `start` boots the nodes.
    let mut sim = spans.time("sim.deploy", || {
        let mut sim = rose.deploy(seed, hooks);
        sim.start();
        sim
    });
    let span = schedule
        .faults
        .iter()
        .flat_map(|f| &f.conditions)
        .filter_map(|c| match c {
            Condition::TimeElapsed { after } => Some(*after),
            _ => None,
        })
        .max()
        .unwrap_or(SimDuration::ZERO);
    let duration = rose
        .system()
        .run_duration()
        .max(span + SimDuration::from_secs(30));
    let check_every = SimDuration::from_secs(5);
    let mut elapsed = SimDuration::ZERO;
    let mut bug = false;
    while elapsed < duration {
        spans.time("sim.run_for", || sim.run_for(check_every));
        elapsed += check_every;
        if !bug && spans.time("jepsen.oracle", || rose.system().oracle(&sim)) {
            bug = true;
        }
    }
    let now = sim.now();
    let trace = spans.time("trace.dump", || {
        sim.hook_mut::<Tracer>().expect("tracer attached").dump(now)
    });
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
    let wall = duration + rose.system().oracle_cost();
    feedback.publish_obs(rose.obs());
    rose.obs().counter_inc("workflow.testing_runs");
    let counters = RunCounters {
        runs: 1,
        sim_events: sim.core().events_executed(),
        syscalls: sim.core().stats.syscalls,
        faults_scheduled: schedule.len() as u64,
        faults_injected: feedback.injected.len() as u64,
        dump_events: trace.len() as u64,
        ..RunCounters::default()
    };
    let observation = RunObservation {
        bug,
        af_calls,
        feedback,
        wall,
        causal: None,
        sim_events: sim.core().events_executed(),
        events_before_injection: sim.core().first_injection_events(),
    };
    drop(sim);
    spans.end(run);
    (observation, counters)
}

/// A detached copy of the toolchain for a worker thread, as the private
/// `Rose::fork` makes it: same system and configuration, a fresh registry.
fn fork<S: TargetSystem>(rose: &Rose<S>) -> Rose<S> {
    let mut worker = Rose::with_config(rose.system().clone(), rose.config().clone());
    if rose.obs().is_active() {
        worker.attach_obs(Obs::new());
    }
    worker
}

/// The benchmark's stand-in for `rose-core`'s private `SimHarness`.
pub struct MirrorHarness<'a, S: TargetSystem> {
    rose: &'a Rose<S>,
    profile: &'a Profile,
    spans: &'a mut Spans,
    counters: &'a mut RunCounters,
    pending: Vec<Obs>,
}

impl<S: TargetSystem> RunHarness for MirrorHarness<'_, S> {
    fn run(&mut self, schedule: &FaultSchedule, seed: u64) -> RunObservation {
        let (observation, counters) = run_once(self.rose, self.profile, schedule, seed, self.spans);
        self.counters.add(&counters);
        observation
    }

    fn run_speculative(&mut self, jobs: &[(FaultSchedule, u64)]) -> Vec<RunObservation> {
        self.pending.clear();
        if jobs.len() <= 1 {
            return jobs
                .iter()
                .map(|(schedule, seed)| self.run(schedule, *seed))
                .collect();
        }
        self.counters.spec_handed += jobs.len() as u64;
        let batch = self.spans.begin("core.run_speculative");
        let (rose, profile) = (self.rose, self.profile);
        let template = self.spans.worker();
        let workers = rose.config().jobs.max(1);
        let results = ordered_map(workers, jobs.to_vec(), |(schedule, seed)| {
            let worker = fork(rose);
            let mut spans = template.worker();
            let (observation, counters) = run_once(&worker, profile, &schedule, seed, &mut spans);
            let thread = std::thread::current().id();
            (observation, worker.obs().clone(), spans, counters, thread)
        });
        let mut observations = Vec::with_capacity(results.len());
        // Span tracks 1, 2, … are the pool's threads in order of appearance.
        let mut threads = Vec::new();
        for (observation, worker_obs, spans, counters, thread) in results {
            observations.push(observation);
            self.pending.push(worker_obs);
            let track = threads
                .iter()
                .position(|t| *t == thread)
                .unwrap_or_else(|| {
                    threads.push(thread);
                    threads.len() - 1
                });
            self.spans.adopt(spans, 1 + track as u32);
            self.counters.add(&counters);
        }
        self.spans.end(batch);
        observations
    }

    fn commit_speculative(&mut self, used: usize) {
        let committed = self.spans.begin("obs.absorb");
        let mut absorbed = 0u64;
        for worker_obs in self.pending.drain(..).take(used) {
            self.rose.obs().absorb(&worker_obs);
            absorbed += 1;
        }
        self.counters.spec_used += absorbed;
        self.spans.end(committed);
    }
}

/// `Rose::reproduce`, with a span on extraction and on the search.
fn reproduce<S: TargetSystem>(
    rose: &Rose<S>,
    profile: &Profile,
    trace: &Trace,
    spans: &mut Spans,
    counters: &mut RunCounters,
) -> DiagnosisReport {
    let extraction = spans.time("analyze.extract", || rose.extract(profile, trace));
    let phase = rose.obs().begin_phase("diagnosis");
    let symbols = rose.system().symbols();
    let mut diag_cfg = rose.config().diagnosis.clone();
    diag_cfg.cluster_nodes = rose.system().cluster_size();
    let budget = diag_cfg.max_schedules;
    let search = spans.begin("analyze.diagnose");
    let mut harness = MirrorHarness {
        rose,
        profile,
        spans,
        counters,
        pending: Vec::new(),
    };
    let mut diagnoser = Diagnoser::new(diag_cfg, profile, &symbols, &extraction);
    let report = diagnoser.diagnose(&mut harness);
    spans.end(search);
    rose.obs().end_phase(phase, report.total_time);
    report.publish_obs(rose.obs(), budget);
    report
}

/// What the mirrored workflow yields — `CaseOutcome`'s fields.
pub struct MirrorOutcome {
    pub captured: bool,
    pub capture_attempts: u32,
    pub report: Option<DiagnosisReport>,
    pub obs: Obs,
}

/// `run_workflow` (profile, then `capture_and_diagnose`'s re-capture
/// rounds) without the optional exports the benchmark never enables.
pub fn workflow<S: TargetSystem>(
    system: S,
    capture: &CaptureSpec,
    mut rose_cfg: RoseConfig,
    opts: &DriverOptions,
    spans: &mut Spans,
    counters: &mut RunCounters,
) -> MirrorOutcome {
    rose_cfg.jobs = rose_cfg.jobs.max(opts.jobs).max(1);
    rose_cfg.diagnosis.speculation = rose_cfg.diagnosis.speculation.max(opts.jobs).max(1);
    let mut rose = Rose::with_config(system, rose_cfg);
    let obs = Obs::new();
    rose.attach_obs(obs.clone());
    let profile = spans.time("profile.profile", || rose.profile());

    let mut local = opts.clone();
    let mut attempts = 0u32;
    let (mut spent_runs, mut spent_schedules) = (0usize, 0usize);
    let mut spent_time = SimDuration::ZERO;
    let report = loop {
        let (capture_result, round_attempts) = spans.time("jepsen.capture", || {
            capture_buggy_trace(&rose, &profile, capture, &local)
        });
        attempts += round_attempts;
        let Some(cap) = capture_result else {
            break None;
        };
        let mut report = reproduce(&rose, &profile, &cap.trace, spans, counters);
        let rounds_left = local.max_diagnosis_rounds.saturating_sub(1);
        let attempts_left = opts.max_capture_attempts.saturating_sub(attempts);
        if !report.reproduced && rounds_left > 0 && attempts_left > 0 {
            spent_runs += report.runs;
            spent_schedules += report.schedules_generated;
            spent_time += report.total_time;
            local.capture_seed += u64::from(round_attempts) * 13;
            local.max_capture_attempts = attempts_left;
            local.max_diagnosis_rounds = rounds_left;
            continue;
        }
        report.runs += spent_runs;
        report.schedules_generated += spent_schedules;
        report.total_time += spent_time;
        break Some(report);
    };
    MirrorOutcome {
        captured: report.is_some(),
        capture_attempts: attempts,
        report,
        obs,
    }
}

/// The mirrored `run_case`.
pub fn run_case(
    id: BugId,
    rose_cfg: RoseConfig,
    opts: &DriverOptions,
    spans: &mut Spans,
    counters: &mut RunCounters,
) -> MirrorOutcome {
    struct Visitor<'a> {
        rose_cfg: RoseConfig,
        opts: &'a DriverOptions,
        spans: &'a mut Spans,
        counters: &'a mut RunCounters,
    }
    impl SystemVisitor for Visitor<'_> {
        type Out = MirrorOutcome;
        fn visit<S: TargetSystem>(self, id: BugId, system: S) -> MirrorOutcome {
            workflow(
                system,
                &capture_spec(id),
                self.rose_cfg,
                self.opts,
                self.spans,
                self.counters,
            )
        }
    }
    visit_case(
        id,
        Visitor {
            rose_cfg,
            opts,
            spans,
            counters,
        },
    )
}
