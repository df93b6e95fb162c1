//! Shared console and JSONL reporting for the bench binaries.
//!
//! Every `rose-bench` binary follows the same convention:
//!
//! - **stdout** carries only the final, table-formatted results (pipeable
//!   into a file or a diff against the paper's numbers);
//! - **stderr** carries progress and diagnostics ([`section`]/[`progress`]);
//! - `--report <path>` appends the campaign's structured JSONL phase
//!   records to `<path>` via a [`ReportSink`];
//! - flags are parsed by [`crate::args`], strictly.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rose_obs::{Obs, PhaseRecord, RunReport};

/// Prints a section header to stderr (progress channel).
pub fn section(title: impl AsRef<str>) {
    eprintln!("== {}", title.as_ref());
}

/// Prints a progress/diagnostic line to stderr.
pub fn progress(msg: impl AsRef<str>) {
    eprintln!("{}", msg.as_ref());
}

/// Prints a result line to stdout (the table channel).
pub fn out(line: impl AsRef<str>) {
    println!("{}", line.as_ref());
}

/// Writes a diagnosis run's propagation chains under `dir`
/// ([`rose_obs::causal::save_chains`]). Failures warn on stderr rather than
/// aborting the bench run.
pub fn export_causal_files(dir: &Path, stem: &str, chains: &[rose_obs::PropagationChain]) {
    if let Err(e) = rose_obs::causal::save_chains(dir, stem, chains) {
        progress(format!(
            "warning: could not export causal chains {stem} to {}: {e}",
            dir.display()
        ));
    }
}

/// Writes a bench summary (`BENCH_*.json`) to `path` as one line of JSON.
/// Failures warn on stderr rather than aborting the bench run.
pub fn write_summary(path: &str, what: &str, summary: &impl serde::Serialize) {
    match serde_json::to_string(summary) {
        Ok(json) => match std::fs::write(path, json + "\n") {
            Ok(()) => progress(format!("{what} written to {path}")),
            Err(e) => progress(format!("warning: could not write {path}: {e}")),
        },
        Err(e) => progress(format!("warning: could not serialize summary: {e}")),
    }
}

/// Where JSONL phase records go, if anywhere.
///
/// Clones share one append lock, so concurrent writers (campaign worker
/// threads) never interleave partial lines: each [`ReportSink::write_records`]
/// call appends its whole JSONL batch atomically with respect to the other
/// clones of the same sink.
#[derive(Debug, Clone, Default)]
pub struct ReportSink {
    path: Option<PathBuf>,
    lock: Arc<Mutex<()>>,
}

impl ReportSink {
    /// A disabled sink.
    pub fn disabled() -> Self {
        ReportSink::default()
    }

    /// A sink appending to `path`.
    pub fn to_path(path: impl Into<PathBuf>) -> Self {
        ReportSink {
            path: Some(path.into()),
            lock: Arc::default(),
        }
    }

    /// The sink a binary's `--report` value selects:
    /// disabled when absent, else appending to the path and leading the
    /// report with the machine/toolchain header record.
    pub fn open(path: Option<PathBuf>) -> Self {
        path.map_or_else(ReportSink::disabled, ReportSink::to_path)
            .with_meta_header()
    }

    /// Appends the [`PhaseRecord::Meta`] header (machine-recorded core
    /// count and rustc version) and returns the sink, so every report file
    /// states what hardware and toolchain produced it. No-op when disabled.
    pub fn with_meta_header(self) -> Self {
        if self.enabled() {
            self.write_records(&[PhaseRecord::Meta(rose_obs::MetaStats::capture())]);
        }
        self
    }

    /// Whether records will be written anywhere.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Tells the progress channel where the report went, if anywhere.
    pub fn announce(&self) {
        if let Some(path) = &self.path {
            progress(format!("JSONL report appended to {}", path.display()));
        }
    }

    /// Appends a campaign registry's phase records as JSONL.
    pub fn write(&self, obs: &Obs) {
        self.write_records(&obs.records());
    }

    /// Appends explicit records as JSONL.
    pub fn write_records(&self, records: &[PhaseRecord]) {
        let Some(path) = &self.path else { return };
        if records.is_empty() {
            return;
        }
        let report = RunReport {
            records: records.to_vec(),
        };
        // Serialize before locking; hold the lock across open+append so
        // batches from concurrent clones land as contiguous whole lines.
        let jsonl = report.to_jsonl();
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        let append = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(jsonl.as_bytes()));
        if let Err(e) = append {
            progress(format!(
                "warning: could not write report to {}: {e}",
                path.display()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use rose_obs::CampaignSummary;

    use super::*;

    #[test]
    fn meta_header_leads_the_report() {
        let dir = std::env::temp_dir().join("rose-bench-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta.jsonl");
        let _ = std::fs::remove_file(&path);
        let sink = ReportSink::to_path(&path).with_meta_header();
        let record = PhaseRecord::Campaign(CampaignSummary::default());
        sink.write_records(std::slice::from_ref(&record));
        let report = RunReport::load(&path).unwrap();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[0].phase(), "meta");
        let PhaseRecord::Meta(meta) = &report.records[0] else {
            panic!("first record must be the meta header");
        };
        assert!(meta.cores >= 1);
        assert!(meta.rustc.starts_with("rustc"));
        // A disabled sink writes nothing and must not panic.
        let _ = ReportSink::disabled().with_meta_header();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_appends_jsonl() {
        let dir = std::env::temp_dir().join("rose-bench-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("append.jsonl");
        let _ = std::fs::remove_file(&path);
        let sink = ReportSink::to_path(&path);
        let record = PhaseRecord::Campaign(CampaignSummary {
            system: "s".into(),
            bug: "b".into(),
            ..Default::default()
        });
        sink.write_records(std::slice::from_ref(&record));
        sink.write_records(std::slice::from_ref(&record));
        let report = RunReport::load(&path).unwrap();
        assert_eq!(report.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_clones_append_whole_lines() {
        let dir = std::env::temp_dir().join("rose-bench-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("concurrent.jsonl");
        let _ = std::fs::remove_file(&path);
        let sink = ReportSink::to_path(&path);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..25 {
                        let record = PhaseRecord::Campaign(CampaignSummary {
                            system: format!("writer-{t}"),
                            bug: format!("bug-{i}"),
                            ..Default::default()
                        });
                        sink.write_records(std::slice::from_ref(&record));
                    }
                });
            }
        });
        // Every line must parse: a torn write from an unsynchronized append
        // would corrupt the JSONL and fail the load.
        let report = RunReport::load(&path).unwrap();
        assert_eq!(report.records.len(), 100);
        let _ = std::fs::remove_file(&path);
    }
}
