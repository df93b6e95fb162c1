//! The profiling phase: frequency counting and benign-fault fingerprints.
//!
//! Rose runs the system under a representative workload in a failure-free
//! testing environment and collects (§4.3):
//!
//! 1. per-function invocation counts, split into *frequent* (discarded) and
//!    *infrequent* (monitored) at [`FREQUENCY_THRESHOLD`] (2 calls/s);
//! 2. system-call frequencies (used to cap Level 2 invocation sweeps);
//! 3. the faults that occur even without failures — *benign* faults that
//!    the diagnosis phase removes from the buggy trace (the FR% column).

use std::collections::{BTreeMap, BTreeSet};

use rose_events::{Errno, EventKind, Scf, SimDuration, SyscallId};
use rose_sim::{HookEffects, HookEnv, KernelHook, SysResult, SyscallArgs};

/// Identity of a benign system-call failure, pid-independent.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultFingerprint {
    /// Which call failed.
    pub syscall: SyscallId,
    /// With which error.
    pub errno: Errno,
    /// On which path, when known.
    pub path: Option<String>,
}

/// A counting hook loaded during the profiling run. Unlike the production
/// tracer it counts *every* function entry and syscall — profiling happens
/// offline where overhead does not matter.
#[derive(Debug, Default)]
pub struct ProfilingHook {
    /// Function entry counts by name.
    pub function_counts: BTreeMap<String, u64>,
    /// Syscall invocation counts.
    pub syscall_counts: BTreeMap<SyscallId, u64>,
    /// Failures observed in the failure-free run.
    pub benign: BTreeSet<FaultFingerprint>,
}

impl ProfilingHook {
    /// A fresh counting hook.
    pub fn new() -> Self {
        ProfilingHook::default()
    }
}

impl KernelHook for ProfilingHook {
    fn sys_exit(
        &mut self,
        _env: &HookEnv,
        args: &SyscallArgs,
        result: &SysResult,
        _fx: &mut HookEffects,
    ) {
        *self.syscall_counts.entry(args.call).or_insert(0) += 1;
        if let Err(errno) = result {
            self.benign.insert(FaultFingerprint {
                syscall: args.call,
                errno: *errno,
                path: args.subject_path().map(str::to_string),
            });
        }
    }

    fn uprobe(
        &mut self,
        _env: &HookEnv,
        function: &str,
        offset: Option<u32>,
        _fx: &mut HookEffects,
    ) {
        if offset.is_none() {
            match self.function_counts.get_mut(function) {
                Some(count) => *count += 1,
                None => {
                    self.function_counts.insert(function.to_string(), 1);
                }
            }
        }
    }
}

/// The profiling phase output, consumed by the tracer (monitoring sites)
/// and the diagnosis phase (benign faults, syscall frequencies).
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Function entry counts from the profiling run.
    pub function_counts: BTreeMap<String, u64>,
    /// Syscall counts from the profiling run.
    pub syscall_counts: BTreeMap<SyscallId, u64>,
    /// Benign fault fingerprints.
    pub benign: BTreeSet<FaultFingerprint>,
    /// Length of the profiling run.
    pub run_duration: SimDuration,
    /// Candidate functions (resolved from the developer's file list).
    pub candidates: Vec<String>,
}

/// The frequency heuristic's threshold, calls per second (§4.3): a
/// candidate function called at most this often during profiling is
/// monitored.
pub const FREQUENCY_THRESHOLD: f64 = 2.0;

impl Profile {
    /// Builds a profile from a finished profiling run.
    ///
    /// `candidates` is the set of function names resolved from the
    /// developer-provided source-file list.
    pub fn from_run(
        hook: &ProfilingHook,
        run_duration: SimDuration,
        candidates: Vec<String>,
    ) -> Self {
        let mut benign = hook.benign.clone();
        // Generalize: when the same (syscall, errno) failed on several
        // distinct paths in a failure-free run, it is a probing pattern
        // (Java-style stat/readlink churn) — benign as a class.
        let mut by_class: BTreeMap<(SyscallId, Errno), BTreeSet<&Option<String>>> = BTreeMap::new();
        for f in &hook.benign {
            by_class
                .entry((f.syscall, f.errno))
                .or_default()
                .insert(&f.path);
        }
        let classes: Vec<(SyscallId, Errno)> = by_class
            .into_iter()
            .filter(|(_, paths)| paths.len() >= 3)
            .map(|(k, _)| k)
            .collect();
        for (syscall, errno) in classes {
            benign.insert(FaultFingerprint {
                syscall,
                errno,
                path: None,
            });
        }
        Profile {
            function_counts: hook.function_counts.clone(),
            syscall_counts: hook.syscall_counts.clone(),
            benign,
            run_duration,
            candidates,
        }
    }

    /// The call rate of a function during the profiling run, calls/second.
    pub fn rate(&self, function: &str) -> f64 {
        let count = self.function_counts.get(function).copied().unwrap_or(0);
        let secs = self.run_duration.as_secs_f64().max(1e-9);
        count as f64 / secs
    }

    /// The frequency heuristic (§4.3): candidate functions whose profiling
    /// call rate is at most the threshold. These become the tracing phase's
    /// monitoring sites. Functions never seen during profiling are kept —
    /// they are the rare-code-path candidates par excellence.
    pub fn infrequent_functions(&self) -> Vec<String> {
        self.candidates
            .iter()
            .filter(|f| self.rate(f) <= FREQUENCY_THRESHOLD)
            .cloned()
            .collect()
    }

    /// Candidate functions discarded as frequent. Driven by the root
    /// `tests/trace_pipeline.rs`, which checks the hot paths land here.
    pub fn frequent_functions(&self) -> Vec<String> {
        self.candidates
            .iter()
            .filter(|f| self.rate(f) > FREQUENCY_THRESHOLD)
            .cloned()
            .collect()
    }

    /// Whether an SCF event matches a benign fingerprint from the
    /// failure-free run (the trace-diff test of §4.5.1).
    pub fn is_benign(&self, kind: &EventKind) -> bool {
        match kind {
            EventKind::Scf(scf) => {
                let Scf {
                    syscall,
                    errno,
                    path,
                    ..
                } = &**scf;
                self.benign.contains(&FaultFingerprint {
                    syscall: *syscall,
                    errno: *errno,
                    path: path.as_deref().map(str::to_owned),
                }) ||
                // Fall back to a path-insensitive match: recurring failure
                // classes (e.g. `stat`+ENOENT probing) are benign regardless
                // of which config path was probed.
                self.benign
                    .iter()
                    .any(|f| f.syscall == *syscall && f.errno == *errno && f.path.is_none())
            }
            // ND and PS faults never occur in a failure-free profiling run.
            _ => false,
        }
    }

    /// How many times a syscall ran during profiling — the Level 2 sweep cap
    /// input for calls without path context.
    pub fn syscall_count(&self, id: SyscallId) -> u64 {
        self.syscall_counts.get(&id).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_with(counts: &[(&str, u64)], secs: u64) -> Profile {
        let mut p = Profile {
            run_duration: SimDuration::from_secs(secs),
            ..Default::default()
        };
        for (name, c) in counts {
            p.function_counts.insert((*name).to_string(), *c);
            p.candidates.push((*name).to_string());
        }
        p
    }

    #[test]
    fn frequency_heuristic_splits_at_threshold() {
        // 60 s run: RaftLogCurrentIdx at 131388 calls is frequent; the
        // snapshot path at 30 calls (0.5/s) is infrequent.
        let mut p = profile_with(
            &[("RaftLogCurrentIdx", 131_388), ("storeSnapshotData", 30)],
            60,
        );
        p.candidates.push("neverSeen".to_string());
        let kept = p.infrequent_functions();
        assert!(kept.contains(&"storeSnapshotData".to_string()));
        assert!(
            kept.contains(&"neverSeen".to_string()),
            "unseen functions are kept"
        );
        assert_eq!(
            p.frequent_functions(),
            vec!["RaftLogCurrentIdx".to_string()]
        );
    }

    #[test]
    fn rate_is_per_second() {
        let p = profile_with(&[("f", 120)], 60);
        assert!((p.rate("f") - 2.0).abs() < 1e-9);
        assert_eq!(p.rate("missing"), 0.0);
    }

    #[test]
    fn exactly_threshold_rate_is_kept() {
        let p = profile_with(&[("f", 120)], 60);
        assert_eq!(p.infrequent_functions(), vec!["f".to_string()]);
    }

    #[test]
    fn benign_matching_is_pid_independent_and_path_sensitive() {
        let mut p = Profile::default();
        p.benign.insert(FaultFingerprint {
            syscall: SyscallId::Stat,
            errno: Errno::Enoent,
            path: Some("/etc/app.conf".into()),
        });
        let hit = EventKind::from(Scf {
            pid: rose_events::Pid(999),
            syscall: SyscallId::Stat,
            fd: None,
            path: Some("/etc/app.conf".into()),
            errno: Errno::Enoent,
            ei: None,
        });
        assert!(p.is_benign(&hit));
        let miss = EventKind::from(Scf {
            pid: rose_events::Pid(1),
            syscall: SyscallId::Stat,
            fd: None,
            path: Some("/data/snap".into()),
            errno: Errno::Enoent,
            ei: None,
        });
        assert!(!p.is_benign(&miss), "different path is not benign");
        let nd = EventKind::from(rose_events::Nd {
            dst: rose_events::IpAddr(1),
            src: rose_events::IpAddr(2),
            duration: SimDuration::from_secs(6),
            packet_count: 3,
        });
        assert!(!p.is_benign(&nd), "ND is never benign");
    }

    #[test]
    fn pathless_fingerprint_matches_class_wide() {
        // Java-style stat/readlink failures with a specific errno are
        // removed as a class (paper §6.2 discussion of the FR column).
        let mut p = Profile::default();
        p.benign.insert(FaultFingerprint {
            syscall: SyscallId::Readlink,
            errno: Errno::Enoent,
            path: None,
        });
        let ev = EventKind::from(Scf {
            pid: rose_events::Pid(1),
            syscall: SyscallId::Readlink,
            fd: None,
            path: Some("/proc/self/whatever".into()),
            errno: Errno::Enoent,
            ei: None,
        });
        assert!(p.is_benign(&ev));
    }
}
