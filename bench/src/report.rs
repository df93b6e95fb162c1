//! Result files, the metric tables, and `--compare`.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::stats::{Machine, Summary};
use crate::workloads::CaseResult;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: name, unit, direction, and the share of the
/// baseline's median by which it may worsen before it counts as a
/// regression. `BENCHMARK.json` repeats this table; `tests/contract.rs`
/// keeps the two equal.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The time bounds are the widest the benchmark contract allows: across ten
/// seeds in a noisy hour of this box the gauge-corrected spreads still
/// reached 9–22 % on the heavy and the memory-bound workloads (README,
/// "Noise"). Peak RSS repeats within 3 % except on `hunt`, whose 11 MB
/// move 7 % with the seed.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "runs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "virt_s_per_wall_s",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One measured value with its unit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Value {
    pub value: f64,
    pub unit: String,
}

/// One end-to-end metric of one workload: the per-pass samples summarised.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measured {
    pub unit: String,
    #[serde(rename = "summary")]
    pub s: Summary,
}

/// Everything measured for one workload.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    pub passes: usize,
    pub correct: bool,
    /// Case checks attempted over all passes, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Empty on a `--trace 1` run of a single workload.
    pub end_to_end: BTreeMap<String, Measured>,
    /// Not metrics, shown so the gauge's correction can be audited:
    /// `raw_wall_s` and `raw_cpu_s` as the clock read them, and the
    /// `slowdown` against reference speed the gauge divided them by.
    pub uncorrected: BTreeMap<String, Measured>,
    /// Empty unless traced.
    pub per_layer: BTreeMap<String, Value>,
    /// The first pass's cases (every other pass matched them, or the
    /// workload is not `correct`).
    pub cases: Vec<CaseResult>,
}

impl WorkloadResult {
    pub fn new(name: &str) -> Self {
        WorkloadResult {
            name: name.to_string(),
            ..WorkloadResult::default()
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One results file.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResultSet {
    pub machine: Machine,
    pub seed: u64,
    pub smoke: bool,
    /// Seconds `run.sh` spent in `cargo build` before this run (0 when the
    /// binary was started directly).
    pub build_s: f64,
    pub workloads: Vec<WorkloadResult>,
}

impl ResultSet {
    pub fn to_json(&self) -> String {
        let json = serde_json::to_value(self).expect("results serialize");
        pretty(&json, 0) + "\n"
    }

    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Indented JSON (the vendored serde_json writes compact text only); leaf
/// containers stay on one line so ledgers diff well.
fn pretty(v: &serde_json::Value, depth: usize) -> String {
    use serde_json::Value as J;
    let leaf = |v: &J| !matches!(v, J::Seq(_) | J::Map(_));
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    match v {
        J::Seq(items) if !items.is_empty() && !items.iter().all(leaf) => {
            let body: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", pretty(i, depth + 1)))
                .collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        J::Map(entries) if !entries.is_empty() && !entries.iter().all(|(_, v)| leaf(v)) => {
            let body: Vec<String> = entries
                .iter()
                .map(|(k, v)| {
                    let key = serde_json::to_string(k).expect("key serializes");
                    format!("{pad}{key}: {}", pretty(v, depth + 1))
                })
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
        other => serde_json::to_string(other).expect("value serializes"),
    }
}

/// Prints every metric of a workload by name, with its unit.
pub fn print_workload(w: &WorkloadResult) {
    println!(
        "== {}: {} passes, {} checks, {} failed (failed_frac {:.3}){}",
        w.name,
        w.passes,
        w.attempted,
        w.failed,
        w.failed_frac(),
        if w.correct { "" } else { "  ** INCORRECT **" }
    );
    for f in &w.failures {
        println!("   FAIL {f}");
    }
    for m in &END_TO_END {
        if let Some(x) = w.end_to_end.get(m.name) {
            println!(
                "   {:<22} {:>12.4} {:<6} q1 {:.4} q3 {:.4} spread {:.1}% n {}",
                m.name,
                x.s.median,
                x.unit,
                x.s.q1,
                x.s.q3,
                100.0 * x.s.spread(),
                x.s.n
            );
        }
    }
    for (name, x) in &w.uncorrected {
        println!(
            "   ({:<20} {:>12.4} {:<6} spread {:.1}%)",
            name,
            x.s.median,
            x.unit,
            100.0 * x.s.spread()
        );
    }
    for (name, v) in &w.per_layer {
        println!("   {:<34} {:>14.4} {}", name, v.value, v.unit);
    }
}

/// `--compare A B`: per workload × end-to-end metric, the change of B's
/// median against A's, the bound, and a verdict. `unresolved` means either
/// side's quartile spread exceeds the bound, so the run-to-run noise is
/// wider than the change the bound could resolve. Returns whether anything
/// regressed or any workload of B was incorrect.
pub fn compare(a: &ResultSet, b: &ResultSet) -> bool {
    let mut bad = false;
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse%", "bound%"
    );
    for wb in &b.workloads {
        let Some(wa) = a.workloads.iter().find(|w| w.name == wb.name) else {
            println!("{:<14} only in B", wb.name);
            continue;
        };
        if !wb.correct || wb.failed > 0 {
            println!(
                "{:<14} B failed {} of {} checks",
                wb.name, wb.failed, wb.attempted
            );
            bad = true;
        }
        if wa.cases != wb.cases {
            println!(
                "{:<14} deterministic counts differ between A and B",
                wb.name
            );
        }
        for m in &END_TO_END {
            let (Some(xa), Some(xb)) = (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name))
            else {
                continue;
            };
            let (ma, mb) = (xa.s.median, xb.s.median);
            let worse = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let verdict = if xa.s.spread().max(xb.s.spread()) > m.bound {
                "unresolved"
            } else if worse > m.bound {
                bad = true;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{:<14} {:<20} {:>12.4} {:>12.4} {:>+8.1} {:>6.0}  {verdict}",
                wb.name,
                m.name,
                ma,
                mb,
                100.0 * worse,
                100.0 * m.bound
            );
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(wall: [f64; 3]) -> ResultSet {
        let mut w = WorkloadResult {
            name: "w".into(),
            correct: true,
            attempted: 1,
            ..WorkloadResult::default()
        };
        w.end_to_end.insert(
            "wall_s".into(),
            Measured {
                unit: "s".into(),
                s: Summary::of(&wall),
            },
        );
        ResultSet {
            workloads: vec![w],
            ..ResultSet::default()
        }
    }

    #[test]
    fn compare_flags_only_resolved_regressions() {
        let base = set([1.0, 1.0, 1.0]);
        assert!(!compare(&base, &set([1.1, 1.1, 1.1])), "within the bound");
        assert!(compare(&base, &set([1.5, 1.5, 1.5])), "beyond the bound");
        assert!(
            !compare(&base, &set([1.0, 1.5, 2.0])),
            "spread wider than the bound is unresolved, not regressed"
        );
    }

    #[test]
    fn results_round_trip_through_the_pretty_printer() {
        let text = set([1.0, 2.0, 3.0]).to_json();
        assert!(text.lines().count() > 10, "indented, not one line");
        let b: ResultSet = serde_json::from_str(&text).unwrap();
        assert_eq!(b.workloads[0].end_to_end["wall_s"].s.median, 2.0);
        assert_eq!(b.workloads[0].name, "w");
    }
}
