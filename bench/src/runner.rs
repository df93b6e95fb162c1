//! The runner: one fresh child process per pass, medians over the passes.
//!
//! Every (workload, repetition) runs in a fresh child of this same binary,
//! so each pass starts from a clean `VmHWM` and allocator. The child sets
//! up (inputs from the seed, scratch directory, a warm-up deployment of
//! each system the workload uses), then times exactly one pass and prints
//! one JSON line. The parent runs children back to back, never two at once.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

use crate::gauge::Gauge;
use crate::layers;
use crate::report::{Measured, Value, WorkloadResult, END_TO_END};
use crate::spans::Spans;
use crate::stats::{cpu_seconds, peak_rss_mb, Summary};
use crate::workloads::{
    case_names, finish_pass, run_step, warm_up, CaseResult, Inputs, PassCtx, Workload,
};

/// Where result files, span files and scratch traces go, relative to the
/// directory `run.sh` starts the binary in (the repository root).
pub const RESULTS_DIR: &str = "bench/results";

/// What one child reports. Times are in seconds at reference speed (see
/// [`crate::gauge`]); the `raw_` fields are the same times as the clock
/// read them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChildReport {
    /// Spawn of the child → start of its timed pass.
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub raw_wall_s: f64,
    pub raw_cpu_s: f64,
    /// Median slowdown against reference speed over the child's bursts.
    pub slowdown: f64,
    pub peak_rss_mb: f64,
    pub cases: Vec<CaseResult>,
    /// Per-layer metrics (traced child only).
    pub per_layer: BTreeMap<String, Value>,
}

fn unix_seconds() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// A scratch directory of this process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Self> {
        let dir = Path::new(RESULTS_DIR).join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Calibration units a pass spends in all its bursts together.
const UNITS_PER_PASS: usize = 32;

/// The child side: set up, run one pass (timed or traced) step by step with
/// a gauge burst at every step boundary, print the report.
pub fn child_pass(w: Workload, seed: u64, smoke: bool, traced: bool, spawned_at: f64) {
    let inputs = Inputs::from_seed(seed);
    let scratch = Scratch::new().expect("scratch directory under bench/results");
    warm_up(w, &inputs, smoke);
    let raw_setup_s = unix_seconds() - spawned_at;

    let names = case_names(w, smoke);
    let per_burst = (UNITS_PER_PASS / (names.len() + 1)).clamp(1, 10);
    let spans = if traced { Spans::new() } else { Spans::off() };
    let mut ctx = PassCtx::new(inputs, smoke, &scratch.0, spans);
    let mut gauge = Gauge::default();
    let mut cases = Vec::with_capacity(names.len());
    let mut steps: Vec<(f64, f64)> = Vec::with_capacity(names.len());
    gauge.burst(per_burst);
    for i in 0..names.len() {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        cases.push(run_step(w, i, &mut ctx));
        steps.push((t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0));
        gauge.burst(per_burst);
    }
    finish_pass(w, &mut cases);
    let rss = peak_rss_mb();

    let raw_wall_s: f64 = steps.iter().map(|s| s.0).sum();
    let corrected = |pick: fn(&(f64, f64)) -> f64| -> f64 {
        steps
            .iter()
            .enumerate()
            .map(|(i, s)| pick(s) / gauge.slowdown_during(i))
            .sum()
    };
    let mut per_layer = BTreeMap::new();
    if traced {
        let path = Path::new(RESULTS_DIR).join(format!("spans-{}.json", w.name()));
        if let Err(e) = std::fs::write(&path, ctx.spans.to_chrome_json(&names)) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
        per_layer = layers::metrics(&ctx, &cases, raw_wall_s);
    }
    let report = ChildReport {
        setup_s: raw_setup_s / gauge.slowdown_during(0),
        wall_s: corrected(|s| s.0),
        cpu_s: corrected(|s| s.1),
        raw_wall_s,
        raw_cpu_s: steps.iter().map(|s| s.1).sum(),
        slowdown: gauge.slowdown_overall(),
        peak_rss_mb: rss,
        cases,
        per_layer,
    };
    println!(
        "{}",
        serde_json::to_string(&report).expect("child report serializes")
    );
}

/// Spawns one child pass and waits for its report.
fn spawn_pass(w: Workload, seed: u64, smoke: bool, traced: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child-pass")
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--spawned-at", &format!("{:.6}", unix_seconds())])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end, so none outlives the run.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} pass exited with {}", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("{} pass printed no report: {e}", w.name()))
}

/// How many timed passes to run.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Exactly this many.
    Reps(usize),
    /// Until this much time has passed, and at least [`MIN_PASSES`].
    Seconds(f64),
}

/// A `--seconds` run makes at least this many passes, however slow the box:
/// the heavy passes take five to six seconds, and the median of fewer than
/// four of them moves with every slow stretch.
pub const MIN_PASSES: usize = 4;

/// Runs the timed passes of a workload and summarises them.
pub fn measure(w: Workload, seed: u64, smoke: bool, stop: Stop) -> WorkloadResult {
    let mut result = WorkloadResult::new(w.name());
    let started = Instant::now();
    let mut reports: Vec<ChildReport> = Vec::new();
    let mut spawn_error = None;
    loop {
        let done = match stop {
            Stop::Reps(n) => reports.len() >= n,
            Stop::Seconds(s) => {
                reports.len() >= MIN_PASSES && started.elapsed() >= Duration::from_secs_f64(s)
            }
        };
        if done {
            break;
        }
        match spawn_pass(w, seed, smoke, false) {
            Ok(r) => reports.push(r),
            Err(e) => {
                spawn_error = Some(e);
                break;
            }
        }
    }
    tally_checks(&mut result, &reports);
    if let Some(e) = spawn_error {
        fail(&mut result, e);
    }

    let sample = |f: &dyn Fn(&ChildReport) -> f64| -> Vec<f64> { reports.iter().map(f).collect() };
    let deployments =
        |r: &ChildReport| -> f64 { r.cases.iter().map(|c| c.deployments as f64).sum() };
    let virtual_s = |r: &ChildReport| -> f64 { r.cases.iter().map(|c| c.virtual_s).sum() };
    for m in &END_TO_END {
        let values = match m.name {
            "wall_s" => sample(&|r| r.wall_s),
            "cpu_s" => sample(&|r| r.cpu_s),
            "runs_per_s" => sample(&|r| deployments(r) / r.wall_s),
            "virt_s_per_wall_s" => sample(&|r| virtual_s(r) / r.wall_s),
            "peak_rss_mb" => sample(&|r| r.peak_rss_mb),
            "setup_s" => sample(&|r| r.setup_s),
            other => unreachable!("unmeasured end-to-end metric {other}"),
        };
        result.end_to_end.insert(
            m.name.to_string(),
            Measured {
                unit: m.unit.to_string(),
                s: Summary::of(&values),
            },
        );
    }
    for (name, unit, values) in [
        ("raw_wall_s", "s", sample(&|r| r.raw_wall_s)),
        ("raw_cpu_s", "s", sample(&|r| r.raw_cpu_s)),
        ("slowdown", "ratio", sample(&|r| r.slowdown)),
    ] {
        result.uncorrected.insert(
            name.to_string(),
            Measured {
                unit: unit.to_string(),
                s: Summary::of(&values),
            },
        );
    }
    result
}

/// Folds the passes' case checks into the result: each case of each pass is
/// one attempted check, and all passes of one invocation must agree on every
/// deterministic count.
fn tally_checks(result: &mut WorkloadResult, reports: &[ChildReport]) {
    result.passes = reports.len();
    for (i, r) in reports.iter().enumerate() {
        for c in &r.cases {
            result.attempted += 1;
            if !c.ok {
                result.failed += 1;
                result
                    .failures
                    .push(format!("pass {}: {}: {}", i + 1, c.name, c.why));
            }
        }
    }
    if let Some(first) = reports.first() {
        result.cases = first.cases.clone();
        for (i, r) in reports.iter().enumerate().skip(1) {
            result.attempted += 1;
            if r.cases != first.cases {
                result.failed += 1;
                result.failures.push(format!(
                    "pass {} differs from pass 1 in its deterministic counts",
                    i + 1
                ));
            }
        }
    }
    result.correct = result.failed == 0 && !reports.is_empty();
}

fn fail(result: &mut WorkloadResult, why: String) {
    result.attempted += 1;
    result.failed += 1;
    result.failures.push(why);
    result.correct = false;
}

/// Runs the traced pass of a workload and fills `result.per_layer`. The
/// base of `bench.trace_overhead_frac` is the median wall time of the timed
/// passes when `result` holds them; otherwise one untraced pass runs first.
pub fn trace(w: Workload, seed: u64, smoke: bool, result: &mut WorkloadResult) {
    let base = match result.end_to_end.get("wall_s") {
        Some(m) => m.s.median,
        None => match spawn_pass(w, seed, smoke, false) {
            Ok(r) => {
                let wall = r.wall_s;
                tally_checks(result, &[r]);
                wall
            }
            Err(e) => return fail(result, e),
        },
    };
    let mut traced = match spawn_pass(w, seed, smoke, true) {
        Ok(r) => r,
        Err(e) => return fail(result, e),
    };
    for c in &traced.cases {
        if c.ok {
            result.attempted += 1;
        } else {
            fail(result, format!("traced pass: {}: {}", c.name, c.why));
        }
    }
    // The traced pass drives the mirrored driver; it must reach the same
    // deterministic counts as the `run_case` passes beside it.
    if traced.cases == result.cases {
        result.attempted += 1;
    } else {
        let why = "traced pass differs from the timed passes in its deterministic counts";
        fail(result, why.to_string());
    }
    traced.per_layer.insert(
        "bench.trace_overhead_frac".to_string(),
        Value {
            value: (traced.wall_s - base) / base,
            unit: "ratio".to_string(),
        },
    );
    result.per_layer = traced.per_layer;
}

/// The result line the benchmark contract asks for: `correct`, `attempted`,
/// `failed`, and the end-to-end metrics (untraced) or the per-layer metrics
/// (traced), each with value and unit.
pub fn contract_line(result: &WorkloadResult, traced: bool) -> String {
    #[derive(Serialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: BTreeMap<String, Value>,
    }
    let metrics = if traced {
        result.per_layer.clone()
    } else {
        result
            .end_to_end
            .iter()
            .map(|(name, m)| {
                let value = Value {
                    value: m.s.median,
                    unit: m.unit.clone(),
                };
                (name.clone(), value)
            })
            .collect()
    };
    serde_json::to_string(&Line {
        correct: result.correct,
        attempted: result.attempted.max(1),
        failed: result.failed,
        metrics,
    })
    .expect("result line serializes")
}

/// `core.jobs2_speedup` at campaign level: `wall_s` of `diag-heavy` over
/// `wall_s` of `diag-heavy-j2`, when one invocation measured both.
pub fn jobs2_speedup(results: &[WorkloadResult]) -> Option<(f64, f64)> {
    let of = |name: &str, metric: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| r.end_to_end.get(metric))
            .map(|m| m.s.median)
    };
    let wall = of("diag-heavy", "wall_s")? / of("diag-heavy-j2", "wall_s")?;
    let cpu = of("diag-heavy-j2", "cpu_s")? / of("diag-heavy", "cpu_s")?;
    Some((wall, cpu))
}
