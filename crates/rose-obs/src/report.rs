//! Structured JSONL run reports.
//!
//! A campaign emits one [`PhaseRecord`] per workflow phase plus a final
//! [`CampaignSummary`]. The on-disk format is JSON Lines: one record per
//! line, each a self-describing object tagged with its `"phase"`, so
//! reports from many cases can be appended to one file and post-processed
//! with standard tooling (`jq`, pandas) or reloaded via [`RunReport`].
//!
//! Every field is derived from simulated state — counts, simulated
//! durations, seeds — never from the wall clock, so two runs with the same
//! seed serialize to byte-identical lines.

use std::path::Path;

use serde::{Deserialize, Serialize};

/// Report header record: the environment the report was produced on.
///
/// Both fields are machine-recorded at capture time (never hand-written
/// prose): `cores` from the scheduler, `rustc` from the compiler that built
/// the binary, captured by the crate's build script.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetaStats {
    /// Logical cores available to the process when the report was opened.
    pub cores: usize,
    /// `rustc --version` of the compiler that built this binary.
    pub rustc: String,
}

impl MetaStats {
    /// Captures the current environment.
    pub fn capture() -> Self {
        MetaStats {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("ROSE_RUSTC_VERSION").to_owned(),
        }
    }
}

/// Profiling-phase record: what the frequency profiler kept and learned.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfilingStats {
    /// Candidate functions considered for uprobe instrumentation.
    pub candidates: usize,
    /// Infrequent functions kept (uprobes to install).
    pub kept: usize,
    /// Frequent functions dropped to bound overhead.
    pub dropped: usize,
    /// Benign fault fingerprints collected during fault-free runs.
    pub benign: usize,
    /// Simulated seconds the profiling run covered.
    pub duration_secs: f64,
    /// System calls observed while profiling.
    pub syscalls: u64,
}

/// Tracing-phase record: what the production tracer captured.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TracingStats {
    /// Capture attempts before the bug manifested (1 = first try).
    pub attempts: usize,
    /// Whether the failure oracle fired during capture.
    pub bug_detected: bool,
    /// Events in the merged captured trace.
    pub trace_events: usize,
    /// Events matched by tracer probes on the capturing run.
    pub events_matched: u64,
    /// Events held in the sliding window at dump time.
    pub events_saved: usize,
    /// Peak bytes resident in the sliding window.
    pub peak_bytes: usize,
    /// Dump post-processing time, microseconds (simulated cost model).
    pub processing_us: u64,
    /// Total probe CPU time charged to the workload, microseconds.
    pub overhead_charged_us: u64,
    /// Size of the dump serialized as JSON, bytes.
    #[serde(default)]
    pub dump_json_bytes: u64,
    /// Size of the dump in the `.rosetrace` binary codec, bytes.
    #[serde(default)]
    pub dump_store_bytes: u64,
}

/// Diagnosis-phase record: how the schedule search went.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DiagnosisStats {
    /// Whether a schedule reached the target replay rate.
    pub reproduced: bool,
    /// Replay rate of the best schedule, percent.
    pub replay_rate_pct: f64,
    /// Fault-context level the search ended on (1–3).
    pub level: u8,
    /// Faults in the final schedule.
    pub schedule_faults: usize,
    /// Candidate schedules generated.
    pub schedules_generated: usize,
    /// Schedule budget (`max_schedules`).
    pub schedule_budget: usize,
    /// Simulation runs consumed by the search.
    pub runs: usize,
    /// Amplification heuristic applications.
    pub amplifications: usize,
    /// Fault events in the captured trace before benign filtering.
    pub fault_events: usize,
    /// Fault events removed as benign (profile fingerprints).
    pub removed_benign: usize,
    /// Faults extracted into the initial schedule.
    pub extracted_faults: usize,
    /// Fault reduction, percent (the paper's FR%).
    pub fr_pct: f64,
    /// Simulated minutes the search consumed.
    pub virtual_mins: f64,
    /// Human-readable schedule summary, e.g. `2*PS(Crash) + ND`.
    pub faults_injected: String,
    /// SCF faults swept by recorded execution index (Level 2.5).
    #[serde(default)]
    pub ei_sweeps: usize,
    /// Schedules generated inside those EI-keyed sweeps.
    #[serde(default)]
    pub ei_schedules: usize,
}

/// Reproduction-phase record: one confirmation replay of the schedule.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ReproductionStats {
    /// Faults actually injected during the replay.
    pub injections: usize,
    /// Faults armed but never triggered (context unmatched).
    pub armed: usize,
    /// Faults in the schedule being replayed.
    pub schedule_faults: usize,
    /// Whether the failure oracle fired on the replay.
    pub oracle_bug: bool,
    /// Replay iterations performed (1 for a single confirmation run).
    pub replay_iterations: usize,
    /// Simulated seconds the replay covered.
    pub virtual_secs: f64,
}

/// Final campaign summary record.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Target system name.
    pub system: String,
    /// Bug identifier / display name.
    pub bug: String,
    /// Whether a buggy trace was captured.
    pub captured: bool,
    /// Whether the bug was reproduced.
    pub reproduced: bool,
    /// Fault-context level reached.
    pub level: u8,
    /// Replay rate, percent.
    pub replay_rate_pct: f64,
    /// Phase records emitted before this summary.
    pub phase_records: usize,
    /// Accumulated simulated seconds across all campaign phases.
    pub campaign_virtual_secs: f64,
}

/// Frontier-progress record of one hunting campaign (see `rose-hunt`):
/// what the budget bought — runs, contexts discovered, and whether blind
/// exploration found and confirmed an oracle violation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HuntStats {
    /// Target bug / oracle identifier.
    pub bug: String,
    /// Run budget the hunt was given.
    pub budget_runs: usize,
    /// Exploration runs actually executed (≤ budget; a discovery stops
    /// the frontier early).
    pub runs: usize,
    /// Candidate schedules enumerated onto the frontier.
    pub candidates: usize,
    /// Distinct execution contexts in the visited set after the hunt.
    pub contexts_visited: usize,
    /// Contexts first seen during this hunt (visited-set growth).
    pub contexts_new: usize,
    /// Deepest schedule explored (faults per schedule).
    pub max_depth: usize,
    /// Whether the oracle fired during exploration.
    pub discovered: bool,
    /// 1-based exploration run that triggered the oracle (0 = none).
    pub discovery_run: usize,
    /// Faults in the winning schedule (0 = none).
    pub schedule_faults: usize,
    /// Whether the diagnosis hand-off confirmed the discovery at the
    /// target replay rate.
    pub confirmed: bool,
    /// Replay rate of the confirmed schedule, percent.
    pub replay_rate_pct: f64,
    /// Accumulated simulated seconds across exploration runs.
    pub virtual_secs: f64,
}

/// One line of the JSONL run report, tagged by phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "phase", rename_all = "snake_case")]
pub enum PhaseRecord {
    /// Environment header (first line of a report file).
    Meta(MetaStats),
    /// Profiling phase.
    Profiling(ProfilingStats),
    /// Trace capture phase.
    Tracing(TracingStats),
    /// Diagnosis (schedule search) phase.
    Diagnosis(DiagnosisStats),
    /// Reproduction (confirmation replay) phase.
    Reproduction(ReproductionStats),
    /// Frontier exploration (hunting) phase.
    Hunt(HuntStats),
    /// End-of-campaign summary.
    Campaign(CampaignSummary),
}

impl PhaseRecord {
    /// The record's phase tag, as serialized.
    pub fn phase(&self) -> &'static str {
        match self {
            PhaseRecord::Meta(_) => "meta",
            PhaseRecord::Profiling(_) => "profiling",
            PhaseRecord::Tracing(_) => "tracing",
            PhaseRecord::Diagnosis(_) => "diagnosis",
            PhaseRecord::Reproduction(_) => "reproduction",
            PhaseRecord::Hunt(_) => "hunt",
            PhaseRecord::Campaign(_) => "campaign",
        }
    }
}

/// A full run report: the ordered phase records of one or more campaigns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Records in emission order.
    pub records: Vec<PhaseRecord>,
}

impl RunReport {
    /// Serializes to JSON Lines: one record per line, trailing newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&serde_json::to_string(r).expect("phase record serialization"));
            out.push('\n');
        }
        out
    }

    /// Parses a JSON Lines report (blank lines ignored).
    pub fn from_jsonl(s: &str) -> Result<Self, serde_json::Error> {
        let mut records = Vec::new();
        for line in s.lines() {
            if line.trim().is_empty() {
                continue;
            }
            records.push(serde_json::from_str(line)?);
        }
        Ok(RunReport { records })
    }

    /// Loads a JSONL report from a file.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        RunReport::from_jsonl(&s)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            records: vec![
                PhaseRecord::Profiling(ProfilingStats {
                    candidates: 12,
                    kept: 9,
                    dropped: 3,
                    benign: 4,
                    duration_secs: 60.0,
                    syscalls: 12345,
                }),
                PhaseRecord::Tracing(TracingStats {
                    attempts: 2,
                    bug_detected: true,
                    trace_events: 120,
                    events_matched: 3000,
                    events_saved: 120,
                    peak_bytes: 6400,
                    processing_us: 1490,
                    overhead_charged_us: 900,
                    dump_json_bytes: 9000,
                    dump_store_bytes: 1100,
                }),
                PhaseRecord::Diagnosis(DiagnosisStats {
                    reproduced: true,
                    replay_rate_pct: 90.0,
                    level: 2,
                    schedule_faults: 3,
                    schedules_generated: 17,
                    schedule_budget: 120,
                    runs: 40,
                    fr_pct: 86.5,
                    faults_injected: "2*PS(Crash) + ND".into(),
                    ..Default::default()
                }),
                PhaseRecord::Campaign(CampaignSummary {
                    system: "redisraft".into(),
                    bug: "RR-43".into(),
                    captured: true,
                    reproduced: true,
                    level: 2,
                    replay_rate_pct: 90.0,
                    phase_records: 3,
                    campaign_virtual_secs: 1234.5,
                }),
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let report = sample();
        let s = report.to_jsonl();
        assert_eq!(s.lines().count(), 4);
        let back = RunReport::from_jsonl(&s).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn records_are_phase_tagged() {
        let s = sample().to_jsonl();
        let first: serde_json::Value = serde_json::from_str(s.lines().next().unwrap()).unwrap();
        assert_eq!(first["phase"], "profiling");
        assert_eq!(first["kept"], 9);
        let report = RunReport::from_jsonl(&s).unwrap();
        let campaigns = report.records.iter().filter(|r| r.phase() == "campaign");
        assert_eq!(campaigns.count(), 1);
    }

    #[test]
    fn golden_jsonl_bytes() {
        // Golden file: the serialized form is a stable interface consumed by
        // external tooling. Adjust deliberately when the schema changes.
        let report = RunReport {
            records: vec![PhaseRecord::Reproduction(ReproductionStats {
                injections: 3,
                armed: 1,
                schedule_faults: 4,
                oracle_bug: true,
                replay_iterations: 1,
                virtual_secs: 120.0,
            })],
        };
        assert_eq!(
            report.to_jsonl(),
            "{\"phase\":\"reproduction\",\"injections\":3,\"armed\":1,\
             \"schedule_faults\":4,\"oracle_bug\":true,\"replay_iterations\":1,\
             \"virtual_secs\":120.0}\n"
        );
    }

    #[test]
    fn meta_header_is_machine_recorded() {
        let meta = MetaStats::capture();
        assert!(meta.cores >= 1);
        assert!(
            meta.rustc.starts_with("rustc "),
            "compiler version string expected, got {:?}",
            meta.rustc
        );
        let line = serde_json::to_string(&PhaseRecord::Meta(meta.clone())).unwrap();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["phase"], "meta");
        assert_eq!(v["cores"].as_u64(), Some(meta.cores as u64));
        let back: PhaseRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, PhaseRecord::Meta(meta));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let s = "\n{\"phase\":\"campaign\",\"system\":\"s\",\"bug\":\"b\",\
                 \"captured\":false,\"reproduced\":false,\"level\":0,\
                 \"replay_rate_pct\":0.0,\"phase_records\":0,\
                 \"campaign_virtual_secs\":0.0}\n\n";
        let report = RunReport::from_jsonl(s).unwrap();
        assert_eq!(report.records.len(), 1);
    }
}
