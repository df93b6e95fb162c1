//! Per-layer metrics: one name per thing an optimisation of one crate is
//! likely to move. README.md holds the glossary and, for each metric, the
//! end-to-end metric and workload it should move.
//!
//! Two sources. *Span-derived* metrics come from the traced pass of the
//! workload being run (a layer the workload never enters reports 0 — that
//! is the predicted-no-change pairing made visible). *Micro* metrics are
//! measured right after the traced pass by short runs that do not depend
//! on the workload: differential hook costs on the YCSB cluster (same
//! seed, hook on against hook off), one fault-free run of every target
//! system, and codec / merge / frontier loops over fixed-size inputs.
//! Timings of micro runs are the minimum of a few repetitions, since on a
//! shared box interference only ever adds time.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use rose_apps::driver::{visit_case, SystemVisitor};
use rose_apps::registry::BugId;
use rose_bench::rediskv::run_ycsb;
use rose_core::{ordered_map, Rose, RoseConfig, TargetSystem};
use rose_events::{NodeId, SimDuration, SlidingWindow, SyscallId, Trace};
use rose_hunt::{Candidate, Frontier, SiteProbe};
use rose_inject::{Condition, Executor, FaultAction, FaultSchedule, ScheduledFault};
use rose_obs::Obs;
use rose_profile::ProfilingHook;
use rose_sim::KernelHook;
use rose_trace::{Tracer, TracerConfig};

use crate::cases::SYSTEMS;
use crate::report::Value;
use crate::spans::Spans;
use crate::stats::{cpu_seconds, median, splitmix, tail_percentile};
use crate::workloads::{CaseResult, Inputs, PassCounters, PassCtx, YCSB_CLIENTS};

/// `(name, unit, better)` of every per-layer metric the traced run prints.
/// `BENCHMARK.json` repeats this table; `tests/contract.rs` keeps the two
/// equal. Per-system names are appended by [`per_layer_table`].
const FIXED: [(&str, &str, &str); 57] = [
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("sim.ns_per_event.ycsb", "ns", "lower"),
    ("sim.ns_per_syscall.ycsb", "ns", "lower"),
    ("sim.run_for_frac", "ratio", "lower"),
    ("sim.deploy_us", "us", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.syscalls", "count", "lower"),
    ("trace.hook_ns_per_syscall.rose", "ns", "lower"),
    ("trace.hook_ns_per_syscall.full", "ns", "lower"),
    ("trace.hook_ns_per_syscall.io", "ns", "lower"),
    ("trace.dump_us_per_kevent.full", "us", "lower"),
    ("trace.dump_us_per_kevent.io", "us", "lower"),
    ("trace.dump_ms_p50.run", "ms", "lower"),
    ("trace.window_peak_mb", "MB", "lower"),
    ("trace.events_matched", "count", "lower"),
    ("trace.events_saved", "count", "lower"),
    ("inject.hook_ns_per_syscall.idle", "ns", "lower"),
    ("inject.hook_ns_per_syscall.ei", "ns", "lower"),
    ("inject.fired_frac", "ratio", "higher"),
    ("profile.phase_ms_sum", "ms", "lower"),
    ("profile.hook_ns_per_syscall", "ns", "lower"),
    ("jepsen.oracle_frac", "ratio", "lower"),
    ("jepsen.capture_ms_per_attempt", "ms", "lower"),
    ("jepsen.capture_hit_frac", "ratio", "higher"),
    ("analyze.extract_ms_sum", "ms", "lower"),
    ("analyze.extract_us_per_kevent", "us", "lower"),
    ("analyze.diagnose_self_ms", "ms", "lower"),
    ("analyze.schedules", "count", "lower"),
    ("analyze.runs", "count", "lower"),
    ("analyze.spec_waste_frac", "ratio", "lower"),
    ("core.run_once_ms_p50", "ms", "lower"),
    ("core.run_once_ms_tail", "ms", "lower"),
    ("core.run_once_tail_pct", "%", "higher"),
    ("core.run_self_frac", "ratio", "lower"),
    ("core.jobs2_speedup", "ratio", "higher"),
    ("core.jobs2_cpu_ratio", "ratio", "lower"),
    ("core.ordered_map_us_per_item", "us", "lower"),
    ("hunt.ms_per_run.roseraft-compact", "ms", "lower"),
    ("hunt.ms_per_run.zookeeper-2247", "ms", "lower"),
    ("hunt.ms_per_run.redpanda-3003", "ms", "lower"),
    ("hunt.probe_hook_ns_per_syscall", "ns", "lower"),
    ("hunt.explore_ms.baseline", "ms", "lower"),
    ("hunt.frontier_ns_per_op", "ns", "lower"),
    ("hunt.visited_roundtrip_ms", "ms", "lower"),
    ("hunt.novel_run_frac", "ratio", "higher"),
    ("hunt.runs", "count", "lower"),
    ("hunt.candidates", "count", "lower"),
    ("store.encode_mevents_per_s", "Mev/s", "higher"),
    ("store.decode_mevents_per_s", "Mev/s", "higher"),
    ("store.merge_mevents_per_s", "Mev/s", "higher"),
    ("store.bytes_per_event", "B", "lower"),
    ("events.merge_mevents_per_s", "Mev/s", "higher"),
    ("events.window_push_ns", "ns", "lower"),
    ("events.to_json_mb_per_s", "MB/s", "higher"),
    ("obs.attached_overhead_frac", "ratio", "lower"),
    ("obs.absorb_us", "us", "lower"),
    ("obs.report_render_ms", "ms", "lower"),
];

/// Every per-layer metric: the fixed names plus three per target system.
pub fn per_layer_table() -> Vec<(String, &'static str, &'static str)> {
    let mut table: Vec<(String, &'static str, &'static str)> = FIXED
        .iter()
        .map(|(n, u, b)| ((*n).to_string(), *u, *b))
        .collect();
    for (system, _) in SYSTEMS {
        table.push((format!("apps.ns_per_event.{system}"), "ns", "lower"));
        table.push((format!("apps.events_per_run.{system}"), "count", "lower"));
        table.push((format!("jepsen.oracle_ms_per_run.{system}"), "ms", "lower"));
    }
    table
}

/// The metric map under construction: every name of the table, at 0 until
/// measured.
struct Out(BTreeMap<String, Value>);

impl Out {
    fn new() -> Self {
        Out(per_layer_table()
            .into_iter()
            .map(|(name, unit, _)| {
                let zero = Value {
                    value: 0.0,
                    unit: unit.to_string(),
                };
                (name, zero)
            })
            .collect())
    }

    fn put(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        slot.value = if value.is_finite() { value } else { 0.0 };
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds of the fastest of `reps` executions of `f`, with its last result.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("at least one repetition"))
}

// ------------------------------------------------------------- span-derived

fn span_metrics(out: &mut Out, spans: &Spans, counters: &PassCounters, pass_wall_s: f64) {
    let pass_ns = pass_wall_s * 1e9;
    let ms = |ns: f64| ns / 1e6;
    let all = spans.all();

    let in_kernel = spans.total_ns("sim.run_for") + spans.total_ns("sim.run_ycsb");
    out.put("sim.run_for_frac", ratio(in_kernel, pass_ns));
    out.put(
        "sim.deploy_us",
        median(&spans.durations("sim.deploy")) / 1e3,
    );
    out.put(
        "sim.events",
        (counters.runs.sim_events + counters.ycsb.sim_events) as f64,
    );
    out.put(
        "sim.syscalls",
        (counters.runs.syscalls + counters.ycsb.syscalls) as f64,
    );

    let run_dumps: Vec<f64> = all
        .iter()
        .filter(|s| s.name == "trace.dump")
        .filter(|s| s.parent.is_some_and(|p| all[p].name == "core.run_once"))
        .map(|s| s.dur_ns() as f64)
        .collect();
    out.put("trace.dump_ms_p50.run", ms(median(&run_dumps)));

    out.put(
        "inject.fired_frac",
        ratio(
            counters.runs.faults_injected as f64,
            counters.runs.faults_scheduled as f64,
        ),
    );
    out.put(
        "profile.phase_ms_sum",
        ms(spans.total_ns("profile.profile") + spans.total_ns("profile.ycsb_profile")),
    );
    out.put(
        "jepsen.oracle_frac",
        ratio(spans.total_ns("jepsen.oracle"), pass_ns),
    );
    out.put(
        "analyze.extract_ms_sum",
        ms(spans.total_ns("analyze.extract")),
    );
    out.put(
        "analyze.diagnose_self_ms",
        ms(spans.total_self_ns("analyze.diagnose")),
    );
    out.put(
        "analyze.spec_waste_frac",
        ratio(
            counters
                .runs
                .spec_handed
                .saturating_sub(counters.runs.spec_used) as f64,
            counters.runs.spec_handed as f64,
        ),
    );

    let runs = spans.durations("core.run_once");
    out.put("core.run_once_ms_p50", ms(median(&runs)));
    if let Some((pct, ns)) = tail_percentile(&runs) {
        out.put("core.run_once_ms_tail", ms(ns));
        out.put("core.run_once_tail_pct", pct);
    }
    out.put(
        "core.run_self_frac",
        ratio(
            spans.total_self_ns("core.run_once"),
            spans.total_ns("core.run_once"),
        ),
    );

    let h = &counters.hunt;
    out.put("hunt.runs", h.runs as f64);
    out.put("hunt.candidates", h.candidates as f64);
    out.put(
        "hunt.novel_run_frac",
        ratio(h.novel_runs as f64, h.runs as f64),
    );
    let campaigns = h.per_campaign.iter().zip(spans.durations("hunt.hunt"));
    for ((bug, deployments), ns) in campaigns {
        let name = format!("hunt.ms_per_run.{}", bug.to_ascii_lowercase());
        out.put(&name, ratio(ms(ns), *deployments as f64));
    }
}

/// Metrics that need the pass's case results: capture attempts and the
/// search's schedule and run counts.
fn case_metrics(out: &mut Out, spans: &Spans, cases: &[CaseResult]) {
    let sum = |key: &str| -> f64 {
        cases
            .iter()
            .filter_map(|c| c.counts.get(key))
            .map(|v| *v as f64)
            .sum()
    };
    let attempts = sum("capture_attempts");
    let captured = sum("captured");
    out.put(
        "jepsen.capture_ms_per_attempt",
        ratio(spans.total_ns("jepsen.capture") / 1e6, attempts),
    );
    out.put("jepsen.capture_hit_frac", ratio(captured, attempts));
    if attempts > 0.0 {
        out.put("analyze.schedules", sum("schedules"));
        out.put("analyze.runs", sum("runs"));
    }
}

// ---------------------------------------------------------------- micro: ycsb

/// A schedule of four faults that can never fire, so the executor walks
/// its whole condition list at every probe and injects nothing.
fn never_matching(ei: bool) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    for i in 0..4u32 {
        let condition = if ei {
            Condition::ExecutionIndex {
                chain: vec![
                    "bench_no_such_caller".into(),
                    format!("bench_no_such_fn_{i}"),
                ],
                syscall: SyscallId::Write,
                count: 1,
            }
        } else {
            Condition::FunctionEntered {
                name: format!("bench_no_such_fn_{i}"),
            }
        };
        s.push(ScheduledFault::new(NodeId(i % 3), FaultAction::Crash).after(condition));
    }
    s
}

/// The hook variants whose per-syscall cost is measured against no hook.
const VARIANTS: [(&str, &str); 7] = [
    ("rose", "trace.hook_ns_per_syscall.rose"),
    ("full", "trace.hook_ns_per_syscall.full"),
    ("io", "trace.hook_ns_per_syscall.io"),
    ("idle", "inject.hook_ns_per_syscall.idle"),
    ("ei", "inject.hook_ns_per_syscall.ei"),
    ("profiler", "profile.hook_ns_per_syscall"),
    ("probe", "hunt.probe_hook_ns_per_syscall"),
];

fn variant_hook(variant: &str) -> Box<dyn KernelHook> {
    match variant {
        "rose" => Box::new(Tracer::new(TracerConfig::rose(std::iter::empty()))),
        "full" => Box::new(Tracer::new(TracerConfig::full().with_window(200_000))),
        "io" => Box::new(Tracer::new(
            TracerConfig::io_content(std::iter::empty()).with_window(50_000),
        )),
        "idle" => Box::new(Executor::new(never_matching(false))),
        "ei" => Box::new(Executor::new(never_matching(true))),
        "profiler" => Box::new(ProfilingHook::new()),
        "probe" => Box::new(SiteProbe::new()),
        other => unreachable!("unknown hook variant {other}"),
    }
}

/// Differential hook costs on one virtual second of the YCSB cluster, then
/// the codec / merge / extraction loops over the Full tracer's dump.
fn ycsb_micro(out: &mut Out, inputs: &Inputs, reps: usize, scratch: &Path) {
    // Rounds are interleaved (bare, then every variant, then bare again …)
    // so a slow stretch of the box hits all variants alike.
    let mut bare_ns_per_syscall = f64::INFINITY;
    let mut bare_ns_per_event = f64::INFINITY;
    let mut cost: BTreeMap<&str, f64> = BTreeMap::new();
    let mut dump_us_per_kevent: BTreeMap<&str, f64> = BTreeMap::new();
    let mut full_dump: Option<Trace> = None;
    let keep_min = |best: &mut BTreeMap<&'static str, f64>, key: &'static str, x: f64| {
        let slot = best.entry(key).or_insert(f64::INFINITY);
        *slot = slot.min(x);
    };
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let (sim, _) = run_ycsb(Vec::new(), YCSB_CLIENTS, 1, inputs.ycsb_seed);
        let ns = t0.elapsed().as_nanos() as f64;
        bare_ns_per_syscall = bare_ns_per_syscall.min(ns / sim.core().stats.syscalls as f64);
        bare_ns_per_event = bare_ns_per_event.min(ns / sim.core().events_executed() as f64);
        drop(sim);
        for (variant, _) in VARIANTS {
            let t0 = Instant::now();
            let (mut sim, _) = run_ycsb(
                vec![variant_hook(variant)],
                YCSB_CLIENTS,
                1,
                inputs.ycsb_seed,
            );
            let ns = t0.elapsed().as_nanos() as f64;
            keep_min(&mut cost, variant, ns / sim.core().stats.syscalls as f64);
            let now = sim.now();
            let Some(tracer) = sim.hook_mut::<Tracer>() else {
                continue;
            };
            let t0 = Instant::now();
            let trace = tracer.dump(now);
            let us = t0.elapsed().as_micros() as f64;
            keep_min(
                &mut dump_us_per_kevent,
                variant,
                us / (trace.len() as f64 / 1e3),
            );
            let report = tracer.report();
            match variant {
                "rose" => out.put("trace.events_matched", report.events_matched as f64),
                "full" => {
                    out.put("trace.events_saved", report.events_saved as f64);
                    out.put("trace.window_peak_mb", report.peak_bytes as f64 / 1e6);
                    full_dump = Some(trace);
                }
                _ => {}
            }
        }
    }
    out.put("sim.ns_per_syscall.ycsb", bare_ns_per_syscall);
    out.put("sim.ns_per_event.ycsb", bare_ns_per_event);
    for (variant, name) in VARIANTS {
        out.put(name, cost[variant] - bare_ns_per_syscall);
    }
    for variant in ["full", "io"] {
        let name = format!("trace.dump_us_per_kevent.{variant}");
        out.put(&name, dump_us_per_kevent[variant]);
    }
    if let Some(trace) = full_dump {
        trace_micro(out, &trace, inputs, reps, scratch);
    }
}

/// Codec, merge, JSON, window and extraction throughput over one large dump.
fn trace_micro(out: &mut Out, trace: &Trace, inputs: &Inputs, reps: usize, scratch: &Path) {
    let n = trace.len() as f64;
    let mevents_per_s = |secs: f64| n / 1e6 / secs;
    let whole = scratch.join("micro.rosetrace");

    let (secs, summary) = best_of(reps, || rose_store::save_trace(&whole, trace));
    let Ok(summary) = summary else {
        eprintln!("warning: store micro-benchmark skipped: cannot write the scratch trace");
        return;
    };
    out.put("store.encode_mevents_per_s", mevents_per_s(secs));
    out.put("store.bytes_per_event", summary.bytes_written as f64 / n);

    let (secs, events) = best_of(reps, || {
        rose_store::TraceReader::open(&whole).and_then(|mut r| r.read_all())
    });
    let Ok(events) = events else {
        eprintln!("warning: store micro-benchmark skipped: cannot read the scratch trace back");
        return;
    };
    out.put("store.decode_mevents_per_s", mevents_per_s(secs));

    let mut per_node: BTreeMap<NodeId, Vec<rose_events::Event>> = BTreeMap::new();
    for e in &events {
        per_node.entry(e.node).or_default().push(e.clone());
    }
    let mut paths = Vec::new();
    for (node, node_events) in &per_node {
        let path = scratch.join(format!("micro.node{}.rosetrace", node.0));
        if rose_store::save_trace(&path, &Trace::from_events(node_events.clone())).is_ok() {
            paths.push(path);
        }
    }
    let (secs, _) = best_of(reps, || {
        let readers: Result<Vec<_>, _> = paths.iter().map(rose_store::TraceReader::open).collect();
        readers
            .and_then(rose_store::merge_readers)
            .map(|(t, _)| t.len())
    });
    out.put("store.merge_mevents_per_s", mevents_per_s(secs));

    let (secs, _) = best_of(reps, || {
        // The clone is part of the timed call: `Trace::merge` takes its
        // dumps by value, as the tracer hands them over.
        Trace::merge(per_node.values().cloned()).len()
    });
    out.put("events.merge_mevents_per_s", mevents_per_s(secs));

    let (secs, bytes) = best_of(reps, || trace.to_json().len());
    out.put("events.to_json_mb_per_s", bytes as f64 / 1e6 / secs);

    // An evicting window: a tenth of the events fit, the rest push one out.
    let (secs, _) = best_of(reps, || {
        let mut window = SlidingWindow::with_capacity(events.len() / 10 + 1);
        for e in &events {
            window.push(e.clone());
        }
        window.len()
    });
    out.put("events.window_push_ns", secs * 1e9 / n);

    let profile = crate::workloads::ycsb_profile(inputs.ycsb_seed);
    let (secs, _) = best_of(reps, || {
        rose_analyze::extract_faults(trace, &profile, &BTreeMap::new())
    });
    out.put("analyze.extract_us_per_kevent", secs * 1e6 / (n / 1e3));
}

// ------------------------------------------------------- micro: per system

/// One fault-free run of a target system with no hook attached, polled by
/// its oracle every five virtual seconds as a testing run is.
struct SystemRun {
    reps: usize,
}

/// (ns per simulated event, events per run, oracle ms per run)
type SystemCost = (f64, f64, f64);

impl SystemVisitor for SystemRun {
    type Out = SystemCost;
    fn visit<S: TargetSystem>(self, id: BugId, system: S) -> SystemCost {
        let rose = Rose::new(system);
        let duration = rose.system().run_duration();
        let step = SimDuration::from_secs(5);
        let mut best = (f64::INFINITY, 0.0, f64::INFINITY);
        for _ in 0..self.reps.max(1) {
            let mut sim = rose.deploy(id as u64 + 1, Vec::new());
            sim.start();
            let (mut kernel_ns, mut oracle_ns) = (0.0, 0.0);
            let mut elapsed = SimDuration::ZERO;
            while elapsed < duration {
                let t0 = Instant::now();
                sim.run_for(step);
                kernel_ns += t0.elapsed().as_nanos() as f64;
                elapsed += step;
                let t0 = Instant::now();
                std::hint::black_box(rose.system().oracle(&sim));
                oracle_ns += t0.elapsed().as_nanos() as f64;
            }
            let events = sim.core().events_executed() as f64;
            best = (
                best.0.min(kernel_ns / events),
                events,
                best.2.min(oracle_ns / 1e6),
            );
        }
        best
    }
}

fn system_micro(out: &mut Out, reps: usize) {
    for (system, id) in SYSTEMS {
        let (ns_per_event, events, oracle_ms) = visit_case(id, SystemRun { reps });
        out.put(&format!("apps.ns_per_event.{system}"), ns_per_event);
        out.put(&format!("apps.events_per_run.{system}"), events);
        out.put(&format!("jepsen.oracle_ms_per_run.{system}"), oracle_ms);
    }
}

// ------------------------------------------------- micro: hunt, core, obs

/// A fault-free exploration run as `rose-hunt` deploys it (executor,
/// production tracer, site probe), on the light target.
struct ExploreBaseline {
    reps: usize,
}

impl SystemVisitor for ExploreBaseline {
    type Out = f64;
    fn visit<S: TargetSystem>(self, id: BugId, system: S) -> f64 {
        let rose = Rose::new(system);
        let profile = rose.profile();
        let duration = rose.system().run_duration();
        let step = SimDuration::from_secs(5);
        let (secs, _) = best_of(self.reps, || {
            let hooks: Vec<Box<dyn KernelHook>> = vec![
                Box::new(Executor::new(FaultSchedule::new())),
                Box::new(Tracer::new(rose.tracer_config(&profile))),
                Box::new(SiteProbe::new()),
            ];
            let mut sim = rose.deploy(id as u64 + 1, hooks);
            sim.start();
            let mut elapsed = SimDuration::ZERO;
            while elapsed < duration {
                sim.run_for(step);
                elapsed += step;
                if rose.system().oracle(&sim) {
                    break;
                }
            }
            sim.hook_ref::<SiteProbe>().map_or(0, |p| p.sites().len())
        });
        secs * 1e3
    }
}

fn hunt_micro(out: &mut Out, reps: usize, scratch: &Path) {
    out.put(
        "hunt.explore_ms.baseline",
        visit_case(BugId::Zookeeper2247, ExploreBaseline { reps }),
    );

    // 10 k synthetic candidates: push them all, then pop in hunt-sized
    // batches until the frontier is empty.
    const CANDIDATES: u64 = 10_000;
    let synthetic: Vec<Candidate> = (0..CANDIDATES)
        .map(|i| {
            let mut schedule = FaultSchedule::new();
            schedule.push(
                ScheduledFault::new(NodeId((i % 3) as u32), FaultAction::Crash).after(
                    Condition::TimeElapsed {
                        after: SimDuration::from_micros(i),
                    },
                ),
            );
            Candidate {
                schedule,
                fingerprint: splitmix(i),
                depth: 1,
                score: i % 7,
            }
        })
        .collect();
    let (secs, _) = best_of(reps, || {
        let mut frontier = Frontier::new();
        for c in &synthetic {
            frontier.push(c.clone());
        }
        let mut popped = 0usize;
        while !frontier.is_empty() {
            popped += frontier.pop_batch(8).len();
        }
        popped
    });
    out.put(
        "hunt.frontier_ns_per_op",
        secs * 1e9 / (2 * CANDIDATES) as f64,
    );

    let visited: BTreeSet<u64> = (0..100_000u64).map(splitmix).collect();
    let path = scratch.join("micro.visited");
    let (secs, back) = best_of(reps, || {
        rose_store::save_visited(&path, &visited).and_then(|()| rose_store::load_visited(&path))
    });
    if back.is_ok_and(|b| b == visited) {
        out.put("hunt.visited_roundtrip_ms", secs * 1e3);
    } else {
        eprintln!("warning: visited-set round trip failed; hunt.visited_roundtrip_ms left at 0");
    }
}

/// Replay fan-out at one and two workers, and what an attached telemetry
/// registry costs a testing run — both on the heavy target, fault-free.
struct CoreAndObs {
    reps: usize,
}

struct CoreAndObsCost {
    jobs2_speedup: f64,
    jobs2_cpu_ratio: f64,
    attached_overhead_frac: f64,
    absorb_us: f64,
    report_render_ms: f64,
}

impl SystemVisitor for CoreAndObs {
    type Out = CoreAndObsCost;
    fn visit<S: TargetSystem>(self, id: BugId, system: S) -> CoreAndObsCost {
        const REPLAYS: u32 = 4;
        let seed = id as u64 + 1;
        let empty = FaultSchedule::new();
        let detached = Rose::new(system.clone());
        let profile = detached.profile();

        let replays = |jobs: usize| -> (f64, f64) {
            let cfg = RoseConfig {
                jobs,
                ..RoseConfig::default()
            };
            let mut rose = Rose::with_config(system.clone(), cfg);
            rose.attach_obs(Obs::new());
            let mut cpu = f64::INFINITY;
            let (wall, _) = best_of(self.reps.min(2), || {
                let c0 = cpu_seconds();
                let n = rose.run_replays(&profile, &empty, REPLAYS, seed).len();
                cpu = cpu.min(cpu_seconds() - c0);
                n
            });
            (wall, cpu)
        };
        let (wall1, cpu1) = replays(1);
        let (wall2, cpu2) = replays(2);

        // Registry attached against detached, interleaved.
        let mut attached = Rose::new(system);
        let registry = Obs::new();
        attached.attach_obs(registry.clone());
        let (mut on, mut off) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..self.reps.max(1) {
            off = off.min(best_of(1, || detached.run_once(&profile, &empty, seed).sim_events).0);
            on = on.min(best_of(1, || attached.run_once(&profile, &empty, seed).sim_events).0);
        }

        // A registry with phase records to absorb and render.
        let _ = attached.profile();
        let _ = attached.confirm_reproduction(&profile, &empty, seed);
        let parent = Obs::new();
        const LOOPS: usize = 200;
        let (absorb, _) = best_of(1, || {
            for _ in 0..LOOPS {
                parent.absorb(&registry);
            }
        });
        let (render, _) = best_of(1, || {
            let mut bytes = 0;
            for _ in 0..LOOPS {
                bytes += registry.report().to_jsonl().len();
            }
            bytes
        });
        CoreAndObsCost {
            jobs2_speedup: ratio(wall1, wall2),
            jobs2_cpu_ratio: ratio(cpu2, cpu1),
            attached_overhead_frac: ratio(on - off, off),
            absorb_us: absorb * 1e6 / LOOPS as f64,
            report_render_ms: render * 1e3 / LOOPS as f64,
        }
    }
}

fn core_micro(out: &mut Out, reps: usize) {
    let c = visit_case(BugId::RedisRaft42, CoreAndObs { reps });
    out.put("core.jobs2_speedup", c.jobs2_speedup);
    out.put("core.jobs2_cpu_ratio", c.jobs2_cpu_ratio);
    out.put("obs.attached_overhead_frac", c.attached_overhead_frac);
    out.put("obs.absorb_us", c.absorb_us);
    out.put("obs.report_render_ms", c.report_render_ms);

    const ITEMS: usize = 20_000;
    let (secs, _) = best_of(reps, || {
        ordered_map(2, (0..ITEMS).collect::<Vec<usize>>(), std::hint::black_box).len()
    });
    out.put("core.ordered_map_us_per_item", secs * 1e6 / ITEMS as f64);
}

/// Every per-layer metric of a traced run: the span-derived ones from the
/// traced pass just finished, then the micro measurements.
pub fn metrics(ctx: &PassCtx, cases: &[CaseResult], pass_wall_s: f64) -> BTreeMap<String, Value> {
    let reps = if ctx.smoke { 1 } else { 3 };
    let mut out = Out::new();
    span_metrics(&mut out, &ctx.spans, &ctx.counters, pass_wall_s);
    case_metrics(&mut out, &ctx.spans, cases);
    ycsb_micro(&mut out, &ctx.inputs, reps, ctx.scratch);
    system_micro(&mut out, reps);
    hunt_micro(&mut out, reps, ctx.scratch);
    core_micro(&mut out, reps);
    out.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_hunt_campaign_has_its_metric() {
        let mut out = Out::new();
        for spec in crate::workloads::hunt_specs(false) {
            let name = spec.id.info().name.to_ascii_lowercase();
            out.put(&format!("hunt.ms_per_run.{name}"), 1.0);
        }
    }
}
