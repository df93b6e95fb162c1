//! The end-to-end case driver: profile → capture a buggy trace → diagnose →
//! reproduce, for each bug in the registry.

use std::path::{Path, PathBuf};

use rose_analyze::DiagnosisReport;
use rose_core::{Rose, RoseConfig, TargetSystem};
use rose_events::SimDuration;
use rose_inject::{Executor, FaultSchedule, ScheduledFault};
use rose_jepsen::{Nemesis, NemesisConfig};
use rose_obs::{CampaignSummary, Obs, PhaseRecord};
use rose_profile::Profile;
use rose_sim::KernelHook;

use crate::registry::BugId;

/// How a bug's "production" trace is obtained.
#[derive(Debug, Clone)]
pub enum CaptureMethod {
    /// Run under the randomized nemesis until the oracle fires (Jepsen-
    /// sourced bugs).
    Nemesis(NemesisConfig),
    /// Randomized nemesis plus a scripted prelude of environment-shaping
    /// faults (e.g. deposing the boot leader so later faults hit a
    /// seed-random leader).
    NemesisWithPrelude(NemesisConfig, FaultSchedule),
    /// Run the bug's known trigger schedule under the tracer (Anduril- and
    /// manually-sourced bugs, which ship reproducing test cases).
    Scripted(FaultSchedule),
}

/// A capture method plus optional per-case knobs.
#[derive(Debug, Clone)]
pub struct CaptureSpec {
    /// How faults are injected during capture.
    pub method: CaptureMethod,
    /// Overrides [`CAPTURE_DURATION`] (shorter captures keep traces lean
    /// when a bug takes many randomized attempts to surface).
    pub duration: Option<SimDuration>,
}

impl From<CaptureMethod> for CaptureSpec {
    fn from(method: CaptureMethod) -> Self {
        CaptureSpec {
            method,
            duration: None,
        }
    }
}

impl CaptureSpec {
    /// A scripted capture of `faults`, in production order.
    pub fn scripted(faults: impl IntoIterator<Item = ScheduledFault>) -> Self {
        let mut schedule = FaultSchedule::new();
        for fault in faults {
            schedule.push(fault);
        }
        CaptureSpec::from(CaptureMethod::Scripted(schedule))
    }

    /// Sets the per-attempt capture duration.
    pub fn with_duration(mut self, d: SimDuration) -> Self {
        self.duration = Some(d);
        self
    }

    /// The hooks that inject capture attempt `attempt`'s faults: a scripted
    /// schedule or prelude's executor first, then the nemesis, reseeded by
    /// `101 · attempt`.
    pub fn hooks(&self, attempt: u32) -> Vec<Box<dyn KernelHook>> {
        let nemesis = |ncfg: &NemesisConfig| -> Box<dyn KernelHook> {
            let mut cfg = ncfg.clone();
            cfg.seed = cfg.seed.wrapping_add(u64::from(attempt) * 101);
            Box::new(Nemesis::new(cfg))
        };
        let scripted =
            |s: &FaultSchedule| -> Box<dyn KernelHook> { Box::new(Executor::new(s.clone())) };
        match &self.method {
            CaptureMethod::Nemesis(ncfg) => vec![nemesis(ncfg)],
            CaptureMethod::NemesisWithPrelude(ncfg, prelude) => {
                vec![scripted(prelude), nemesis(ncfg)]
            }
            CaptureMethod::Scripted(schedule) => vec![scripted(schedule)],
        }
    }
}

/// Length of one capture run unless the case's [`CaptureSpec`] says
/// otherwise.
pub const CAPTURE_DURATION: SimDuration = SimDuration::from_secs(120);

/// Driver knobs.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// First capture seed; attempts increment from here.
    pub capture_seed: u64,
    /// Max capture attempts before giving up.
    pub max_capture_attempts: u32,
    /// How many capture → diagnose rounds to run before giving up: when a
    /// diagnosis fails to reproduce at target rate (e.g. the captured trace
    /// was pathological — windows cut mid-fault, durations inflated to the
    /// dump horizon), the driver re-captures under fresh seeds and
    /// re-diagnoses, like an operator would grab another production trace.
    pub max_diagnosis_rounds: u32,
    /// Worker threads for the case's parallel execution engine:
    /// confirmation replays fan out across a pool of this size, and the
    /// diagnosis search speculates the same number of schedules per batch.
    /// Tables, reports, and JSONL records are bit-identical for every
    /// value — purely a wall-clock knob. 0 or missing = sequential.
    pub jobs: usize,
    /// Directory to save each captured buggy trace into as
    /// `<label>.rosetrace` (compact binary codec). The file is an output
    /// only: diagnosis reads the trace it captured, in memory. `None`
    /// saves nothing.
    pub trace_dir: Option<PathBuf>,
    /// File stem of every file the campaign writes; [`run_workflow`] fills
    /// it from the bug name when unset (direct `capture_and_diagnose`
    /// callers fall back to `"capture"`).
    pub trace_label: Option<String>,
    /// Directory to write causal-provenance artifacts into: the returned
    /// report's propagation chains as `<label>.flow.json` (Perfetto flow
    /// arrows across node tracks) and `<label>.dot` (Graphviz).
    /// [`run_workflow`] also enables [`RoseConfig::causal`] so testing runs
    /// record happens-before logs; other callers set it themselves. `None`
    /// writes nothing.
    pub causal_dir: Option<PathBuf>,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            capture_seed: 777,
            max_capture_attempts: 400,
            max_diagnosis_rounds: 4,
            jobs: 1,
            trace_dir: None,
            trace_label: None,
            causal_dir: None,
        }
    }
}

/// The outcome of driving one bug end to end.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The bug.
    pub id: BugId,
    /// Whether a buggy trace was captured.
    pub captured: bool,
    /// Capture runs needed.
    pub capture_attempts: u32,
    /// Trace statistics: total events in the dumped trace.
    pub trace_events: usize,
    /// The diagnosis result (Table 1 row data), if a trace was captured.
    pub report: Option<DiagnosisReport>,
    /// The campaign's telemetry registry: metrics, phase spans, and the
    /// JSONL phase records (one per phase plus the campaign summary).
    pub obs: Obs,
}

/// Runs the full Rose workflow for one target system + capture method.
pub fn run_workflow<S: TargetSystem>(
    id: BugId,
    system: S,
    capture: CaptureSpec,
    mut rose_cfg: RoseConfig,
    opts: &DriverOptions,
) -> CaseOutcome {
    // The driver's jobs knob raises (never lowers) the toolchain's worker
    // pool and the diagnosis speculation width together: the pool executes
    // whatever the search speculates.
    rose_cfg.jobs = rose_cfg.jobs.max(opts.jobs).max(1);
    rose_cfg.diagnosis.speculation = rose_cfg.diagnosis.speculation.max(opts.jobs).max(1);
    rose_cfg.causal = rose_cfg.causal || opts.causal_dir.is_some();
    let mut rose = Rose::with_config(system, rose_cfg);
    let obs = Obs::new();
    rose.attach_obs(obs.clone());
    let profile = rose.profile();
    // Every file the case writes is named after the bug unless the caller
    // chose a label.
    let mut opts = opts.clone();
    opts.trace_label.get_or_insert_with(|| id.file_stem());
    let (capture_result, report, attempts) = capture_and_diagnose(&rose, &profile, &capture, &opts);
    let outcome = CaseOutcome {
        id,
        captured: capture_result.is_some(),
        capture_attempts: attempts,
        trace_events: capture_result.map_or(0, |cap| cap.trace.len()),
        report,
        obs: obs.clone(),
    };
    let info = id.info();
    obs.record(PhaseRecord::Campaign(CampaignSummary {
        system: info.system.to_string(),
        bug: info.name.to_string(),
        captured: outcome.captured,
        reproduced: outcome.report.as_ref().is_some_and(|r| r.reproduced),
        level: outcome.report.as_ref().map_or(0, |r| r.level),
        replay_rate_pct: outcome.report.as_ref().map_or(0.0, |r| r.replay_rate),
        phase_records: obs.records().len(),
        campaign_virtual_secs: obs.campaign_elapsed().as_secs_f64(),
    }));
    outcome
}

/// Capture → diagnose rounds: a failed diagnosis (no schedule at target
/// replay rate) re-captures under fresh seeds, like an operator grabbing
/// another production trace when the first proved pathological (windows cut
/// mid-fault, durations inflated to the dump horizon). Run/schedule/time
/// accounting from failed rounds is carried into the final report. Returns
/// the last capture, its diagnosis, and the total capture attempts.
///
/// Diagnosis always reads the trace it captured. The files `opts` asks for
/// are outputs only, named `<label>.*` after `opts.trace_label`: each
/// round's trace under `trace_dir`, and the returned report's propagation
/// chains under `causal_dir`. A file that cannot be written is a warning on
/// stderr, never a lost campaign.
pub fn capture_and_diagnose<S: TargetSystem>(
    rose: &Rose<S>,
    profile: &Profile,
    capture: &CaptureSpec,
    opts: &DriverOptions,
) -> (
    Option<rose_core::TraceCapture>,
    Option<DiagnosisReport>,
    u32,
) {
    let label = opts.trace_label.as_deref().unwrap_or("capture");
    let mut local = opts.clone();
    let mut attempts = 0u32;
    let mut spent_runs = 0usize;
    let mut spent_schedules = 0usize;
    let mut spent_time = SimDuration::ZERO;
    loop {
        let (capture_result, round_attempts) = capture_buggy_trace(rose, profile, capture, &local);
        attempts += round_attempts;
        let Some(cap) = capture_result else {
            return (None, None, attempts);
        };
        if let Some(dir) = &opts.trace_dir {
            let saved = (|| {
                std::fs::create_dir_all(dir)?;
                rose_store::save_trace(dir.join(format!("{label}.rosetrace")), &cap.trace)
            })();
            warn_unwritten("trace", label, dir, saved);
        }
        let mut report = rose.reproduce(profile, &cap.trace);
        let rounds_left = local.max_diagnosis_rounds.saturating_sub(1);
        let attempts_left = opts.max_capture_attempts.saturating_sub(attempts);
        if !report.reproduced && rounds_left > 0 && attempts_left > 0 {
            spent_runs += report.runs;
            spent_schedules += report.schedules_generated;
            spent_time += report.total_time;
            local.capture_seed = local
                .capture_seed
                .wrapping_add(u64::from(round_attempts) * 13);
            local.max_capture_attempts = attempts_left;
            local.max_diagnosis_rounds = rounds_left;
            continue;
        }
        report.runs += spent_runs;
        report.schedules_generated += spent_schedules;
        report.total_time += spent_time;
        if let Some(dir) = &opts.causal_dir {
            let saved = rose_obs::causal::save_chains(dir, label, &report.propagation);
            warn_unwritten("causal chains", label, dir, saved);
        }
        return (Some(cap), Some(report), attempts);
    }
}

/// Reports a campaign file that could not be written.
fn warn_unwritten<T, E: std::fmt::Display>(
    what: &str,
    label: &str,
    dir: &Path,
    saved: Result<T, E>,
) {
    if let Err(e) = saved {
        eprintln!(
            "warning: could not write {what} {label} to {}: {e}",
            dir.display()
        );
    }
}

/// Drives one registry bug end to end (profile → capture → diagnose):
/// [`run_workflow`] on the id's system ([`visit_case`]) and capture method
/// ([`capture_spec`]).
pub fn run_case(id: BugId, rose_cfg: RoseConfig, opts: &DriverOptions) -> CaseOutcome {
    struct Workflow<'a> {
        rose_cfg: RoseConfig,
        opts: &'a DriverOptions,
    }
    impl SystemVisitor for Workflow<'_> {
        type Out = CaseOutcome;
        fn visit<S: TargetSystem>(self, id: BugId, system: S) -> CaseOutcome {
            run_workflow(id, system, capture_spec(id), self.rose_cfg, self.opts)
        }
    }
    visit_case(id, Workflow { rose_cfg, opts })
}

/// The flat-vs-EI differential on one registry bug: captures the buggy
/// trace as [`capture_buggy_trace`] does under `opts`, extracts once, and
/// searches the extraction twice ([`Rose::reproduce_extracted`]) — first
/// stripped of its execution indices (the paper's flat Level 2), then as
/// recorded (Level 2.5). `(flat, ei)`, or `None` when no trace was captured.
pub fn flat_vs_ei(
    id: BugId,
    rose_cfg: RoseConfig,
    opts: &DriverOptions,
) -> Option<(DiagnosisReport, DiagnosisReport)> {
    struct Both<'a> {
        rose_cfg: RoseConfig,
        opts: &'a DriverOptions,
    }
    impl SystemVisitor for Both<'_> {
        type Out = Option<(DiagnosisReport, DiagnosisReport)>;
        fn visit<S: TargetSystem>(self, id: BugId, system: S) -> Self::Out {
            let rose = Rose::with_config(system, self.rose_cfg);
            let profile = rose.profile();
            let (cap, _) = capture_buggy_trace(&rose, &profile, &capture_spec(id), self.opts);
            let recorded = rose.extract(&profile, &cap?.trace);
            let flat = recorded.clone().without_execution_indices();
            Some((
                rose.reproduce_extracted(&profile, &flat),
                rose.reproduce_extracted(&profile, &recorded),
            ))
        }
    }
    visit_case(id, Both { rose_cfg, opts })
}

/// Generic dispatch over the concrete [`TargetSystem`] behind a registry
/// id. Tools that need the system — the workflow driver, the coverage
/// probe, oracle-only hunting campaigns — implement this visitor, and
/// [`visit_case`] hands them the monomorphized system without this crate
/// having to know what they do with it.
pub trait SystemVisitor {
    /// What the visit produces.
    type Out;

    /// Called with the registry id's concrete system.
    fn visit<S: TargetSystem>(self, id: BugId, system: S) -> Self::Out;
}

/// Resolves a registry id to its concrete target system and applies the
/// visitor.
pub fn visit_case<V: SystemVisitor>(id: BugId, visitor: V) -> V::Out {
    struct SystemOnly<V>(V);
    impl<V: SystemVisitor> CaseVisitor for SystemOnly<V> {
        type Out = V::Out;
        fn case<S: TargetSystem>(
            self,
            id: BugId,
            system: S,
            _capture: impl FnOnce() -> CaptureSpec,
        ) -> V::Out {
            self.0.visit(id, system)
        }
    }
    dispatch(id, SystemOnly(visitor))
}

/// How a registry bug's "production" trace is obtained.
pub fn capture_spec(id: BugId) -> CaptureSpec {
    struct CaptureOnly;
    impl CaseVisitor for CaptureOnly {
        type Out = CaptureSpec;
        fn case<S: TargetSystem>(
            self,
            _id: BugId,
            _system: S,
            capture: impl FnOnce() -> CaptureSpec,
        ) -> CaptureSpec {
            capture()
        }
    }
    dispatch(id, CaptureOnly)
}

/// What [`dispatch`] hands out per registry id: the concrete system and
/// its capture method, built on demand.
trait CaseVisitor {
    type Out;

    fn case<S: TargetSystem>(
        self,
        id: BugId,
        system: S,
        capture: impl FnOnce() -> CaptureSpec,
    ) -> Self::Out;
}

/// The registry's one dispatch table. Every id must dispatch here — a new
/// case that misses the match arms is a compile error.
fn dispatch<V: CaseVisitor>(id: BugId, v: V) -> V::Out {
    use crate::hbase::{hbase_capture, HbaseCase};
    use crate::hdfs::{hdfs_capture, HdfsBug, HdfsCase};
    use crate::kafka::{kafka_capture, KafkaCase};
    use crate::mongodb::{mongodb_bug_of, mongodb_capture, MongoCase};
    use crate::raft::{roseraft_capture, RaftScenario, RoseRaftCase};
    use crate::redisraft::{redisraft_capture, RedisRaftBug, RedisRaftCase};
    use crate::redpanda::{redpanda_bug_of, redpanda_capture, RedpandaCase};
    use crate::tendermint::{tendermint_capture, TendermintCase};
    use crate::zookeeper::{zookeeper_bug_of, zookeeper_capture, ZkCase};

    let redisraft = |v: V, bug| v.case(id, RedisRaftCase { bug }, || redisraft_capture(bug));
    let hdfs = |v: V, bug| v.case(id, HdfsCase { bug }, || hdfs_capture(bug));
    let roseraft =
        |v: V, scenario| v.case(id, RoseRaftCase { scenario }, || roseraft_capture(scenario));
    match id {
        BugId::RedisRaft42 => redisraft(v, RedisRaftBug::Rr42),
        BugId::RedisRaft43 => redisraft(v, RedisRaftBug::Rr43),
        BugId::RedisRaft51 => redisraft(v, RedisRaftBug::Rr51),
        BugId::RedisRaftNew => redisraft(v, RedisRaftBug::RrNew),
        BugId::RedisRaftNew2 => redisraft(v, RedisRaftBug::RrNew2),
        BugId::Redpanda3003 | BugId::Redpanda3039 => {
            let bug = redpanda_bug_of(id).expect("redpanda id");
            v.case(id, RedpandaCase { bug }, || redpanda_capture(bug))
        }
        BugId::Zookeeper2247
        | BugId::Zookeeper3006
        | BugId::Zookeeper3157
        | BugId::Zookeeper4203 => {
            let bug = zookeeper_bug_of(id).expect("zookeeper id");
            v.case(id, ZkCase { bug }, || zookeeper_capture(bug))
        }
        BugId::Hdfs4233 => hdfs(v, HdfsBug::Hdfs4233),
        BugId::Hdfs12070 => hdfs(v, HdfsBug::Hdfs12070),
        BugId::Hdfs15032 => hdfs(v, HdfsBug::Hdfs15032),
        BugId::Hdfs16332 => hdfs(v, HdfsBug::Hdfs16332),
        BugId::Kafka12508 => v.case(id, KafkaCase, kafka_capture),
        BugId::Hbase19608 => v.case(id, HbaseCase, hbase_capture),
        BugId::Mongo243 | BugId::Mongo3210 => {
            let bug = mongodb_bug_of(id).expect("mongodb id");
            v.case(id, MongoCase { bug }, || mongodb_capture(bug))
        }
        BugId::Tendermint5839 => v.case(id, TendermintCase, tendermint_capture),
        BugId::RaftSnapshotTear => roseraft(v, RaftScenario::SnapshotTear),
        BugId::RaftCompactionLoss => roseraft(v, RaftScenario::CompactionLoss),
        BugId::RaftReconfigSplit => roseraft(v, RaftScenario::ReconfigSplit),
    }
}

/// Tries capture seeds until the oracle fires during a capture run.
pub fn capture_buggy_trace<S: TargetSystem>(
    rose: &Rose<S>,
    profile: &Profile,
    capture: &CaptureSpec,
    opts: &DriverOptions,
) -> (Option<rose_core::TraceCapture>, u32) {
    let duration = capture.duration.unwrap_or(CAPTURE_DURATION);
    let obs = rose.obs();
    let span = obs.begin_phase("tracing");
    let mut elapsed = SimDuration::ZERO;
    let mut last_failed: Option<rose_core::TraceCapture> = None;
    for attempt in 0..opts.max_capture_attempts {
        let seed = opts.capture_seed.wrapping_add(u64::from(attempt) * 13);
        let cap = rose.capture_trace(profile, capture.hooks(attempt), seed, duration);
        elapsed += cap.elapsed;
        if cap.bug {
            obs.end_phase(span, elapsed);
            obs.record(PhaseRecord::Tracing(cap.phase_record(attempt as usize + 1)));
            return (Some(cap), attempt + 1);
        }
        last_failed = Some(cap);
    }
    obs.end_phase(span, elapsed);
    if let Some(cap) = last_failed {
        obs.record(PhaseRecord::Tracing(
            cap.phase_record(opts.max_capture_attempts as usize),
        ));
    }
    (None, opts.max_capture_attempts)
}
