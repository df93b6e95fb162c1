//! The five campaign workloads: inputs from the seed, one pass, its checks.
//!
//! A *pass* is one closed-loop campaign: cases run one at a time, the next
//! starts when the previous returns. The program under test only ever sees
//! generated inputs — capture seeds, a hunt seed, a YCSB seed, all derived
//! from `--seed`. Checks assert semantics (captured, reproduced at the
//! target rate, discovered, confirmed, ordered overheads, exact round
//! trips), never constants: later changes may legitimately move run counts.

use std::collections::BTreeMap;
use std::path::Path;

use rose_apps::driver::{visit_case, DriverOptions, SystemVisitor};
use rose_apps::registry::BugId;
use rose_bench::rediskv::run_ycsb;
use rose_core::{RoseConfig, TargetSystem};
use rose_events::{NodeId, SimDuration, Trace};
use rose_hunt::{hunt, HuntConfig, HuntOutcome};
use rose_profile::{Profile, ProfilingHook, SymbolTable};
use rose_sim::Sim;
use rose_trace::{Tracer, TracerConfig};
use serde::{Deserialize, Serialize};

use crate::mirror::{self, RunCounters};
use crate::spans::Spans;
use crate::stats::splitmix;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DiagHeavy,
    DiagHeavyJ2,
    DiagWide,
    Hunt,
    YcsbTracers,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DiagHeavy,
        Workload::DiagHeavyJ2,
        Workload::DiagWide,
        Workload::Hunt,
        Workload::YcsbTracers,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DiagHeavy => "diag-heavy",
            Workload::DiagHeavyJ2 => "diag-heavy-j2",
            Workload::DiagWide => "diag-wide",
            Workload::Hunt => "hunt",
            Workload::YcsbTracers => "ycsb-tracers",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The generated inputs of one `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// First capture seed of every diagnosis case.
    pub capture_seed: u64,
    /// Campaign seed of every hunt.
    pub hunt_seed: u64,
    /// Simulation seed of every YCSB cluster.
    pub ycsb_seed: u64,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Self {
        // Capture seeds step by 13 per attempt inside the driver; keep the
        // base small enough that no attempt can overflow.
        Inputs {
            capture_seed: splitmix(seed ^ 0xca97) % 1_000_000_007,
            hunt_seed: splitmix(seed ^ 0x4a17),
            ycsb_seed: splitmix(seed ^ 0x7c5b) % 1_000_000_007,
        }
    }
}

/// What one case of a pass did and whether it passed its check. Nothing
/// here depends on the wall clock: two passes over the same inputs must
/// produce equal results, and the runner checks that they do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    pub name: String,
    pub ok: bool,
    /// Why the check failed; empty when it passed.
    pub why: String,
    /// Simulated cluster deployments completed (profile, capture attempts,
    /// committed diagnosis runs, exploration runs).
    pub deployments: u64,
    /// Simulated seconds those deployments covered.
    pub virtual_s: f64,
    /// Other deterministic counts (schedules, level, ops, events, …).
    pub counts: BTreeMap<String, u64>,
}

fn counts(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
    pairs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
}

// ---------------------------------------------------------------- diagnosis

/// The 15 paper bugs whose runs are 1–20 ms: per-run fixed cost dominates.
const WIDE: [BugId; 15] = [
    BugId::Redpanda3003,
    BugId::Redpanda3039,
    BugId::Zookeeper2247,
    BugId::Zookeeper3006,
    BugId::Zookeeper3157,
    BugId::Zookeeper4203,
    BugId::Hdfs4233,
    BugId::Hdfs12070,
    BugId::Hdfs15032,
    BugId::Hdfs16332,
    BugId::Kafka12508,
    BugId::Hbase19608,
    BugId::Mongo243,
    BugId::Mongo3210,
    BugId::Tendermint5839,
];

/// The heavy system (RedisRaft: ~110 k simulated events, ~0.2 s per run),
/// through the two cases whose work does not depend on the capture seed:
/// over seeds 0–59 RedisRaft-42 always took 13 deployments and
/// RedisRaft-NEW2 14 in 54 of 56. That keeps `wall_s` comparable across
/// seeds; RedisRaft-43, -51, -NEW and RoseRaft-COMPACT vary 1.5–10× with the
/// capture seed (README, sizing constraints).
const HEAVY: [BugId; 2] = [BugId::RedisRaft42, BugId::RedisRaftNew2];

/// The diagnosis cases of a workload (`None` for the other workloads).
pub fn diag_cases(w: Workload, smoke: bool) -> Option<Vec<BugId>> {
    let cases: &[BugId] = match w {
        Workload::DiagHeavy | Workload::DiagHeavyJ2 => &HEAVY,
        Workload::DiagWide => &WIDE,
        Workload::Hunt | Workload::YcsbTracers => return None,
    };
    let keep = if smoke {
        cases.len().div_ceil(3)
    } else {
        cases.len()
    };
    Some(cases[..keep].to_vec())
}

pub fn driver_options(w: Workload, inputs: &Inputs) -> DriverOptions {
    DriverOptions {
        capture_seed: inputs.capture_seed,
        jobs: if w == Workload::DiagHeavyJ2 { 2 } else { 1 },
        ..DriverOptions::default()
    }
}

fn diag_result(
    id: BugId,
    captured: bool,
    attempts: u32,
    report: Option<&rose_analyze::DiagnosisReport>,
    obs: &rose_obs::Obs,
) -> CaseResult {
    let target = RoseConfig::default().diagnosis.target_replay_rate;
    let (ok, why) = match report {
        _ if !captured => (false, format!("no trace in {attempts} capture attempts")),
        None => (false, "no diagnosis".to_string()),
        Some(r) if !r.reproduced => (false, "not reproduced".to_string()),
        Some(r) if r.replay_rate < target => (
            false,
            format!("replay rate {} below {target}", r.replay_rate),
        ),
        Some(_) => (true, String::new()),
    };
    let runs = report.map_or(0, |r| r.runs as u64);
    CaseResult {
        name: id.info().name.to_string(),
        ok,
        why,
        deployments: 1 + u64::from(attempts) + runs,
        virtual_s: obs.campaign_elapsed().as_secs_f64(),
        counts: counts(&[
            ("captured", u64::from(captured)),
            ("capture_attempts", u64::from(attempts)),
            ("runs", runs),
            (
                "schedules",
                report.map_or(0, |r| r.schedules_generated as u64),
            ),
            ("level", report.map_or(0, |r| u64::from(r.level))),
            (
                "replay_rate_pct",
                report.map_or(0, |r| r.replay_rate as u64),
            ),
            (
                "sim_events",
                report.map_or(0, |r| r.redundancy.events_total),
            ),
        ]),
    }
}

/// One diagnosis case: `run_case` when timing, the mirrored driver (a span
/// per phase) when tracing.
fn diag_step(w: Workload, id: BugId, ctx: &mut PassCtx) -> CaseResult {
    let opts = driver_options(w, &ctx.inputs);
    let cfg = RoseConfig::default();
    let (captured, attempts, report, obs) = if ctx.spans.is_enabled() {
        let out = mirror::run_case(id, cfg, &opts, &mut ctx.spans, &mut ctx.counters.runs);
        (out.captured, out.capture_attempts, out.report, out.obs)
    } else {
        let out = rose_apps::driver::run_case(id, cfg, &opts);
        (out.captured, out.capture_attempts, out.report, out.obs)
    };
    diag_result(id, captured, attempts, report.as_ref(), &obs)
}

// --------------------------------------------------------------------- hunt

/// A target whose oracle is evaluated and then ignored: a system that holds
/// its invariants under every explored schedule, which is what a hunter
/// meets most of the time (and what RoseRaft-JOINT is for all 192 runs at
/// the commit that defined this benchmark). The hunt then spends exactly
/// its budget whatever the seed, so passes stay comparable across seeds.
/// Trait methods added later with a default must be forwarded here too.
#[derive(Clone)]
pub struct Muted<S>(pub S);

impl<S: TargetSystem> TargetSystem for Muted<S> {
    type App = S::App;

    fn name(&self) -> &str {
        self.0.name()
    }
    fn cluster_size(&self) -> u32 {
        self.0.cluster_size()
    }
    fn build_node(&self, node: NodeId) -> Self::App {
        self.0.build_node(node)
    }
    fn install(&self, sim: &mut Sim<Self::App>) {
        self.0.install(sim)
    }
    fn attach_workload(&self, sim: &mut Sim<Self::App>) {
        self.0.attach_workload(sim)
    }
    fn oracle(&self, sim: &Sim<Self::App>) -> bool {
        std::hint::black_box(self.0.oracle(sim));
        false
    }
    fn symbols(&self) -> SymbolTable {
        self.0.symbols()
    }
    fn key_files(&self) -> Vec<String> {
        self.0.key_files()
    }
    fn run_duration(&self) -> SimDuration {
        self.0.run_duration()
    }
    fn oracle_cost(&self) -> SimDuration {
        self.0.oracle_cost()
    }
    fn oracle_description(&self) -> String {
        self.0.oracle_description()
    }
}

/// One hunting campaign of the `hunt` workload.
#[derive(Debug, Clone, Copy)]
pub struct HuntSpec {
    pub id: BugId,
    /// Explore the whole budget behind a [`Muted`] oracle.
    pub muted: bool,
    pub budget: usize,
}

/// Budget-bound exploration on a heavy target (the invariant-oracle Raft
/// implementation) and on a light one whose frontier co-evolves children
/// (ZooKeeper), then one real hunt — discovery, hand-off capture, Level-2.5
/// confirmation — on a bug every seed finds within a handful of runs.
pub fn hunt_specs(smoke: bool) -> Vec<HuntSpec> {
    let scale = if smoke { 4 } else { 1 };
    vec![
        HuntSpec {
            id: BugId::RaftCompactionLoss,
            muted: true,
            budget: 6 / scale,
        },
        HuntSpec {
            id: BugId::Zookeeper2247,
            muted: true,
            budget: 96 / scale,
        },
        HuntSpec {
            id: BugId::Redpanda3003,
            muted: false,
            budget: 192,
        },
    ]
}

fn run_hunt(spec: &HuntSpec, seed: u64) -> HuntOutcome {
    struct Visitor {
        cfg: HuntConfig,
        muted: bool,
    }
    impl SystemVisitor for Visitor {
        type Out = Result<HuntOutcome, rose_store::StoreError>;
        fn visit<S: TargetSystem>(self, id: BugId, system: S) -> Self::Out {
            if self.muted {
                hunt(Muted(system), id.info().name, &self.cfg)
            } else {
                hunt(system, id.info().name, &self.cfg)
            }
        }
    }
    let cfg = HuntConfig {
        budget: spec.budget,
        seed,
        jobs: 1,
        ..HuntConfig::default()
    };
    let muted = spec.muted;
    // No visited-set path is configured, so the hunt touches no file and
    // cannot fail with a store error.
    visit_case(spec.id, Visitor { cfg, muted }).expect("in-memory hunt")
}

/// Per-hunt numbers the traced pass turns into `hunt.*` metrics.
#[derive(Debug, Clone, Default)]
pub struct HuntCounters {
    pub runs: u64,
    pub candidates: u64,
    pub novel_runs: u64,
    /// (bug, deployments) per campaign, in `hunt.hunt` span order.
    pub per_campaign: Vec<(String, u64)>,
}

fn hunt_step(spec: &HuntSpec, ctx: &mut PassCtx) -> CaseResult {
    let seed = ctx.inputs.hunt_seed;
    let out = ctx.spans.time("hunt.hunt", || run_hunt(spec, seed));
    let s = &out.stats;
    let handoff = out.discovery.as_ref().map(|d| &d.report);
    let (ok, why) = if spec.muted {
        match (s.discovered, s.runs == spec.budget) {
            (true, _) => (false, "muted oracle fired".to_string()),
            (_, false) => (false, format!("explored {} of {}", s.runs, spec.budget)),
            _ => (true, String::new()),
        }
    } else if !s.discovered {
        (false, format!("nothing found in {} runs", s.runs))
    } else if !s.confirmed {
        (false, "discovery not confirmed".to_string())
    } else {
        (true, String::new())
    };
    // The profiling run, the exploration runs, and for a discovery the
    // hand-off's capture run plus its diagnosis runs.
    let handoff_runs = handoff.map_or(0, |r| 1 + r.runs as u64);
    let deployments = 1 + s.runs as u64 + handoff_runs;
    let tally = &mut ctx.counters.hunt;
    tally.runs += s.runs as u64;
    tally.candidates += s.candidates as u64;
    tally.novel_runs += out.log.iter().filter(|r| r.novelty > 0).count() as u64;
    tally
        .per_campaign
        .push((spec.id.info().name.to_string(), deployments));
    CaseResult {
        name: format!(
            "{}{}",
            spec.id.info().name,
            if spec.muted { " (muted)" } else { "" }
        ),
        ok,
        why,
        deployments,
        virtual_s: RoseConfig::default().profiling_duration.as_secs_f64()
            + s.virtual_secs
            + handoff.map_or(0.0, |r| r.total_time.as_secs_f64()),
        counts: counts(&[
            ("runs", s.runs as u64),
            ("candidates", s.candidates as u64),
            ("contexts", s.contexts_visited as u64),
            ("max_depth", s.max_depth as u64),
            ("discovery_run", s.discovery_run as u64),
            ("handoff_runs", handoff_runs),
        ]),
    }
}

// --------------------------------------------------------------------- ycsb

/// Closed-loop YCSB-A clients of Table 2's cluster.
pub const YCSB_CLIENTS: u32 = 6;

/// Virtual seconds each tracer mode runs for.
pub fn ycsb_secs(smoke: bool) -> u64 {
    if smoke {
        1
    } else {
        3
    }
}

/// The tracer modes of Table 2, with the window sizes that keep peak RSS
/// under ~600 MB (see README, sizing constraints).
pub fn tracer_modes() -> [(&'static str, Option<TracerConfig>); 4] {
    [
        ("none", None),
        ("rose", Some(TracerConfig::rose(std::iter::empty()))),
        ("full", Some(TracerConfig::full().with_window(200_000))),
        (
            "io",
            Some(TracerConfig::io_content(std::iter::empty()).with_window(50_000)),
        ),
    ]
}

/// A profile of the YCSB cluster (one virtual second under the counting
/// hook), which `extract_faults` needs for its benign-fault fingerprints.
pub fn ycsb_profile(seed: u64) -> Profile {
    let (sim, _) = run_ycsb(vec![Box::new(ProfilingHook::new())], YCSB_CLIENTS, 1, seed);
    let hook = sim.hook_ref::<ProfilingHook>().expect("profiler attached");
    Profile::from_run(hook, SimDuration::from_secs(1), Vec::new())
}

/// Numbers the traced pass turns into `sim.*`/`trace.*` metrics.
#[derive(Debug, Clone, Default)]
pub struct YcsbCounters {
    pub sim_events: u64,
    pub syscalls: u64,
}

/// Dump → `save_trace` → `read_all` → per-node split → `merge_readers` and
/// `Trace::merge` → `extract_faults`, with the round trip checked event for
/// event. Returns the failure, if any.
fn store_round_trip(
    mode: &str,
    trace: &Trace,
    profile: &Profile,
    scratch: &Path,
    spans: &mut Spans,
) -> Result<(), String> {
    let err = |e: rose_store::StoreError| format!("{mode}: store: {e}");
    let whole = scratch.join(format!("{mode}.rosetrace"));
    spans
        .time("store.save_trace", || rose_store::save_trace(&whole, trace))
        .map_err(err)?;
    let back = spans
        .time("store.read_all", || {
            rose_store::TraceReader::open(&whole)?.read_all()
        })
        .map_err(err)?;
    if back != trace.events() {
        return Err(format!("{mode}: reloaded trace differs from the dump"));
    }
    let mut per_node: BTreeMap<NodeId, Vec<rose_events::Event>> = BTreeMap::new();
    for e in back {
        per_node.entry(e.node).or_default().push(e);
    }
    let mut readers = Vec::new();
    for (node, events) in &per_node {
        let path = scratch.join(format!("{mode}.node{}.rosetrace", node.0));
        rose_store::save_trace(&path, &Trace::from_events(events.clone())).map_err(err)?;
        readers.push(rose_store::TraceReader::open(&path).map_err(err)?);
    }
    let (streamed, _) = spans
        .time("store.merge_readers", || rose_store::merge_readers(readers))
        .map_err(err)?;
    let merged = spans.time("events.merge", || Trace::merge(per_node.into_values()));
    if streamed != merged || merged.len() != trace.len() {
        return Err(format!("{mode}: per-node merge differs from the dump"));
    }
    let extraction = spans.time("analyze.extract", || {
        rose_analyze::extract_faults(trace, profile, &BTreeMap::new())
    });
    std::hint::black_box(extraction);
    Ok(())
}

/// Step 0 of the YCSB pass: the profile `extract_faults` needs.
fn ycsb_profile_step(ctx: &mut PassCtx) -> CaseResult {
    let seed = ctx.inputs.ycsb_seed;
    let profile = ctx
        .spans
        .time("profile.ycsb_profile", || ycsb_profile(seed));
    let syscalls: u64 = profile.syscall_counts.values().sum();
    ctx.ycsb_profile = Some(profile);
    CaseResult {
        name: "ycsb-profile".to_string(),
        ok: syscalls > 0,
        why: if syscalls > 0 {
            String::new()
        } else {
            "profiling run saw no system call".to_string()
        },
        deployments: 1,
        virtual_s: 1.0,
        counts: counts(&[("syscalls", syscalls)]),
    }
}

/// One tracer mode: the cluster run, then (with a tracer) the dump and its
/// store round trip.
fn ycsb_mode_step(mode: &str, cfg: Option<TracerConfig>, ctx: &mut PassCtx) -> CaseResult {
    let secs = ycsb_secs(ctx.smoke);
    let seed = ctx.inputs.ycsb_seed;
    let hooks: Vec<Box<dyn rose_sim::KernelHook>> = match cfg {
        Some(cfg) => vec![Box::new(Tracer::new(cfg))],
        None => Vec::new(),
    };
    let (mut sim, ops) = ctx
        .spans
        .time("sim.run_ycsb", || run_ycsb(hooks, YCSB_CLIENTS, secs, seed));
    let now = sim.now();
    let mut why = String::new();
    let (mut matched, mut saved) = (0u64, 0u64);
    if let Some(tracer) = sim.hook_mut::<Tracer>() {
        let trace = ctx.spans.time("trace.dump", || tracer.dump(now));
        let report = tracer.report();
        (matched, saved) = (report.events_matched, report.events_saved as u64);
        let profile = ctx
            .ycsb_profile
            .as_ref()
            .expect("step 0 profiled the cluster");
        if let Err(e) = store_round_trip(mode, &trace, profile, ctx.scratch, &mut ctx.spans) {
            why = e;
        }
    }
    if why.is_empty() && ops == 0 {
        why = format!("{mode}: no operation completed");
    }
    let tally = &mut ctx.counters.ycsb;
    tally.sim_events += sim.core().events_executed();
    tally.syscalls += sim.core().stats.syscalls;
    CaseResult {
        name: format!("ycsb-{mode}"),
        ok: why.is_empty(),
        why,
        deployments: 1,
        virtual_s: secs as f64,
        counts: counts(&[
            ("ops", ops),
            ("sim_events", sim.core().events_executed()),
            ("syscalls", sim.core().stats.syscalls),
            ("events_matched", matched),
            ("events_saved", saved),
        ]),
    }
}

/// Table 2's claim, checked across the finished pass: every heavier tracer
/// costs application throughput (none > Rose > Full > IoContent).
fn check_overhead_order(cases: &mut [CaseResult]) {
    let mut lighter: Option<(String, u64)> = None;
    for c in cases.iter_mut() {
        let Some(ops) = c.counts.get("ops").copied() else {
            continue;
        };
        if let Some((name, prev)) = &lighter {
            if ops >= *prev && c.ok {
                c.ok = false;
                c.why = format!("{ops} ops, not below {name}'s {prev}");
            }
        }
        lighter = Some((c.name.clone(), ops));
    }
}

// ------------------------------------------------------------------- passes

/// What a traced pass counted besides its spans.
#[derive(Debug, Clone, Default)]
pub struct PassCounters {
    pub runs: RunCounters,
    pub hunt: HuntCounters,
    pub ycsb: YcsbCounters,
}

/// The state one pass threads through its steps. With `spans` off this is
/// a timed end-to-end pass (`run_case` for the diagnosis workloads); with
/// `spans` on it is the traced pass (the mirrored driver).
pub struct PassCtx<'a> {
    pub inputs: Inputs,
    pub smoke: bool,
    /// A directory the pass may write trace files into.
    pub scratch: &'a Path,
    pub spans: Spans,
    pub counters: PassCounters,
    ycsb_profile: Option<Profile>,
}

impl<'a> PassCtx<'a> {
    pub fn new(inputs: Inputs, smoke: bool, scratch: &'a Path, spans: Spans) -> Self {
        PassCtx {
            inputs,
            smoke,
            scratch,
            spans,
            counters: PassCounters::default(),
            ycsb_profile: None,
        }
    }
}

/// Runs step `i` of a workload's pass: one case, campaign or tracer mode.
/// The runner times each step on its own and gauges the box's speed in
/// between, so a pass is the steps in order, one at a time.
pub fn run_step(w: Workload, i: usize, ctx: &mut PassCtx) -> CaseResult {
    ctx.spans.set_case(i as u32);
    let step = ctx.spans.begin("bench.case");
    let result = if let Some(cases) = diag_cases(w, ctx.smoke) {
        diag_step(w, cases[i], ctx)
    } else if w == Workload::Hunt {
        hunt_step(&hunt_specs(ctx.smoke)[i], ctx)
    } else if i == 0 {
        ycsb_profile_step(ctx)
    } else {
        let (mode, cfg) = tracer_modes()
            .into_iter()
            .nth(i - 1)
            .expect("a tracer mode");
        ycsb_mode_step(mode, cfg, ctx)
    };
    ctx.spans.end(step);
    result
}

/// Checks that span the whole pass, applied once every step has run.
pub fn finish_pass(w: Workload, cases: &mut [CaseResult]) {
    if w == Workload::YcsbTracers {
        check_overhead_order(cases);
    }
}

/// Names of the steps of a workload's pass, in order (also the span file's
/// case ids).
pub fn case_names(w: Workload, smoke: bool) -> Vec<String> {
    if let Some(cases) = diag_cases(w, smoke) {
        return cases.iter().map(|id| id.info().name.to_string()).collect();
    }
    match w {
        Workload::Hunt => hunt_specs(smoke)
            .iter()
            .map(|s| s.id.info().name.to_string())
            .collect(),
        _ => std::iter::once("ycsb-profile".to_string())
            .chain(tracer_modes().iter().map(|(m, _)| format!("ycsb-{m}")))
            .collect(),
    }
}

/// The systems a workload deploys, for the warm-up that precedes a timed
/// pass (one short fault-free deployment each, so lazy initialisation and
/// first-touch page faults land in set-up and not in the pass).
pub fn warm_up(w: Workload, inputs: &Inputs, smoke: bool) {
    struct Visitor;
    impl SystemVisitor for Visitor {
        type Out = ();
        fn visit<S: TargetSystem>(self, id: BugId, system: S) {
            let rose = rose_core::Rose::new(system);
            let mut sim = rose.deploy(id as u64 + 1, Vec::new());
            sim.start();
            sim.run_for(rose.system().run_duration());
            std::hint::black_box(rose.system().oracle(&sim));
        }
    }
    let ids: Vec<BugId> = match diag_cases(w, smoke) {
        Some(cases) => cases,
        None if w == Workload::Hunt => hunt_specs(smoke).iter().map(|s| s.id).collect(),
        None => {
            std::hint::black_box(run_ycsb(Vec::new(), YCSB_CLIENTS, 1, inputs.ycsb_seed).1);
            return;
        }
    };
    let mut seen = std::collections::BTreeSet::new();
    for id in ids {
        if seen.insert(id.info().system) {
            visit_case(id, Visitor);
        }
    }
}
