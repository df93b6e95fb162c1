//! The end-to-end case driver: profile → capture a buggy trace → diagnose →
//! reproduce, for each bug in the registry.

use std::path::PathBuf;

use rose_analyze::DiagnosisReport;
use rose_core::{Rose, RoseConfig, TargetSystem};
use rose_events::SimDuration;
use rose_inject::{Executor, FaultSchedule};
use rose_jepsen::{Nemesis, NemesisConfig};
use rose_obs::{CampaignSummary, ChromeTrace, Obs, PhaseRecord};
use rose_profile::Profile;
use rose_sim::KernelHook;
use serde::{Deserialize, Serialize};

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
    /// Sets the per-attempt capture duration.
    pub fn with_duration(mut self, d: SimDuration) -> Self {
        self.duration = Some(d);
        self
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
    /// After diagnosis, run one confirmation replay of the winning schedule
    /// and emit a reproduction phase record.
    pub verify_reproduction: bool,
    /// Directory to write a Chrome `trace_event` export of each captured
    /// buggy trace (plus the campaign phase track) into, as
    /// `<bug>.trace.json`. `None` disables the export.
    pub chrome_trace_dir: Option<PathBuf>,
    /// Worker threads for the case's parallel execution engine:
    /// confirmation replays fan out across a pool of this size, and the
    /// diagnosis search speculates the same number of schedules per batch.
    /// Tables, reports, and JSONL records are bit-identical for every
    /// value — purely a wall-clock knob. 0 or missing = sequential.
    pub jobs: usize,
    /// Directory to persist each captured buggy trace into as
    /// `<bug>.rosetrace` (compact binary codec). When set, diagnosis runs
    /// from the reloaded binary trace — exercising the store round trip end
    /// to end — and produces byte-identical reports either way. `None`
    /// disables persistence.
    pub trace_dir: Option<PathBuf>,
    /// File stem for the persisted trace files; [`run_workflow`] fills it
    /// from the bug name when unset (direct `capture_and_diagnose` callers
    /// fall back to `"capture"`).
    pub trace_label: Option<String>,
    /// Directory to write causal-provenance artifacts into: enables
    /// [`RoseConfig::causal`] so testing runs record happens-before logs,
    /// and renders the winning schedule's propagation chains as
    /// `<bug>.flow.json` (Perfetto flow arrows across node tracks) and
    /// `<bug>.dot` (Graphviz). `None` disables provenance collection.
    pub causal_dir: Option<PathBuf>,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            capture_seed: 777,
            max_capture_attempts: 400,
            max_diagnosis_rounds: 4,
            verify_reproduction: false,
            chrome_trace_dir: None,
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
    // Persisted trace files are named after the bug unless the caller chose
    // a label; the sanitized stem matches the Chrome export's.
    let mut opts = opts.clone();
    if opts.trace_dir.is_some() && opts.trace_label.is_none() {
        opts.trace_label = Some(id.file_stem());
    }
    let opts = &opts;
    let (capture_result, report, attempts) = capture_and_diagnose(&rose, &profile, &capture, opts);
    let outcome = match capture_result {
        Some(cap) => {
            let trace_events = cap.trace.len();
            let report = report.expect("diagnosis ran");
            let mut confirmation = None;
            if opts.verify_reproduction {
                if let Some(schedule) = &report.schedule {
                    // A deterministic confirmation seed distinct from both
                    // the capture and diagnosis seed sequences.
                    let seed = opts.capture_seed.wrapping_mul(7919).wrapping_add(17);
                    confirmation = Some(rose.confirm_reproduction(&profile, schedule, seed));
                }
            }
            if let Some(dir) = &opts.chrome_trace_dir {
                export_chrome_trace(id, &rose, &profile, &cap.trace, None, dir, "trace");
                // The confirmation replay gets its own export, with the
                // injection lane populated from executor feedback — loading
                // it next to the capture makes the schedule diff visual.
                if let (Some(run), Some(schedule)) = (&confirmation, &report.schedule) {
                    export_chrome_trace(
                        id,
                        &rose,
                        &profile,
                        &run.trace,
                        Some((&run.feedback, schedule)),
                        dir,
                        "repro.trace",
                    );
                }
            }
            if let Some(dir) = &opts.causal_dir {
                let stem = opts.trace_label.clone().unwrap_or_else(|| id.file_stem());
                // Best effort, like the Chrome export: a campaign is not
                // lost over an unwritable artifact directory.
                let _ = rose_obs::causal::save_chains(dir, &stem, &report.propagation);
            }
            CaseOutcome {
                id,
                captured: true,
                capture_attempts: attempts,
                trace_events,
                report: Some(report),
                obs: obs.clone(),
            }
        }
        None => CaseOutcome {
            id,
            captured: false,
            capture_attempts: attempts,
            trace_events: 0,
            report: None,
            obs: obs.clone(),
        },
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
        let mut report = match &local.trace_dir {
            Some(dir) => diagnose_via_store(rose, profile, &cap.trace, dir, &local),
            None => rose.reproduce(profile, &cap.trace),
        };
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
        return (Some(cap), Some(report), attempts);
    }
}

/// Persists the captured trace under `opts.trace_dir` as `<label>.rosetrace`
/// in the binary codec, then diagnoses from the **reloaded** binary trace,
/// exercising the store round trip end to end. The codec preserves event
/// order exactly, so the report is byte-identical to an in-memory diagnosis;
/// on any I/O error the driver warns on stderr and falls back to the
/// in-memory path rather than losing the campaign.
fn diagnose_via_store<S: TargetSystem>(
    rose: &Rose<S>,
    profile: &Profile,
    trace: &rose_events::Trace,
    dir: &std::path::Path,
    opts: &DriverOptions,
) -> DiagnosisReport {
    let label = opts.trace_label.as_deref().unwrap_or("capture");
    let persisted = (|| -> Result<DiagnosisReport, rose_store::StoreError> {
        std::fs::create_dir_all(dir)?;
        let bin_path = dir.join(format!("{label}.rosetrace"));
        rose.persist_trace(trace, &bin_path)?;
        rose.reproduce_from_store(profile, &bin_path)
    })();
    persisted.unwrap_or_else(|e| {
        eprintln!("warning: trace store persistence failed ({e}); diagnosing in memory");
        rose.reproduce(profile, trace)
    })
}

/// Writes `<dir>/<bug>.<suffix>.json`: a trace rendered onto per-node
/// Chrome-trace tracks plus the campaign phase track, with the injection
/// lane populated from executor feedback when available.
fn export_chrome_trace<S: TargetSystem>(
    id: BugId,
    rose: &Rose<S>,
    profile: &Profile,
    trace: &rose_events::Trace,
    injections: Option<(&rose_inject::ExecutionFeedback, &FaultSchedule)>,
    dir: &std::path::Path,
    suffix: &str,
) {
    let functions = rose.function_names(profile);
    let mut chrome = ChromeTrace::from_trace(trace, &functions);
    if let Some((feedback, schedule)) = injections {
        feedback.export_chrome(&mut chrome, schedule);
    }
    chrome.add_phase_track(rose.obs());
    let name = id.file_stem();
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = chrome.save(dir.join(format!("{name}.{suffix}.json")));
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

/// A registry-coverage probe of one case: the static metadata a
/// [`TargetSystem`] exposes, plus the outcome of a short fault-free deploy
/// of its cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseProbe {
    /// Registry bug name.
    pub bug: String,
    /// Target system label.
    pub system: String,
    /// Provenance tag (`J`/`A`/`M`/`H`).
    pub source_tag: String,
    /// Nodes in the simulated deployment.
    pub cluster_size: u32,
    /// The developer-provided key-file list.
    pub key_files: Vec<String>,
    /// Functions the symbol table resolves from those files — what the
    /// tracer would monitor.
    pub monitored_functions: Vec<String>,
    /// What the case's oracle checks, in its own words.
    pub oracle_description: String,
    /// Whether the oracle stayed silent over the fault-free deploy.
    pub clean_oracle: bool,
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

/// Builds the case's cluster, runs it fault-free for `duration`, and
/// collects the probe. Driven by `tests/registry_coverage.rs`, which holds
/// every registered case to a quiet fault-free run.
pub fn probe_case(id: BugId, duration: SimDuration) -> CaseProbe {
    struct ProbeVisitor {
        duration: SimDuration,
    }
    impl SystemVisitor for ProbeVisitor {
        type Out = CaseProbe;
        fn visit<S: TargetSystem>(self, id: BugId, system: S) -> CaseProbe {
            probe(id, system, self.duration)
        }
    }
    visit_case(id, ProbeVisitor { duration })
}

fn probe<S: TargetSystem>(id: BugId, system: S, duration: SimDuration) -> CaseProbe {
    let key_files = system.key_files();
    let monitored_functions: Vec<String> = system
        .symbols()
        .functions_in_files(&key_files)
        .map(str::to_string)
        .collect();
    let oracle_description = system.oracle_description();
    let cluster_size = system.cluster_size();
    let rose = Rose::with_config(system, RoseConfig::default());
    let mut sim = rose.deploy(id as u64 + 1, Vec::new());
    sim.start();
    sim.run_for(duration);
    let clean_oracle = !rose.system().oracle(&sim);
    let info = id.info();
    CaseProbe {
        bug: info.name.to_string(),
        system: info.system.to_string(),
        source_tag: info.source.tag().to_string(),
        cluster_size,
        key_files,
        monitored_functions,
        oracle_description,
        clean_oracle,
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
        let nemesis = |ncfg: &NemesisConfig| -> Box<dyn KernelHook> {
            let mut cfg = ncfg.clone();
            cfg.seed = cfg.seed.wrapping_add(u64::from(attempt) * 101);
            Box::new(Nemesis::new(cfg))
        };
        let scripted =
            |s: &FaultSchedule| -> Box<dyn KernelHook> { Box::new(Executor::new(s.clone())) };
        let hooks = match &capture.method {
            CaptureMethod::Nemesis(ncfg) => vec![nemesis(ncfg)],
            CaptureMethod::NemesisWithPrelude(ncfg, prelude) => {
                vec![scripted(prelude), nemesis(ncfg)]
            }
            CaptureMethod::Scripted(schedule) => vec![scripted(schedule)],
        };
        let cap = rose.capture_trace(profile, hooks, seed, duration);
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
