//! Rose: reproducing external-fault-induced failures with lightweight
//! instrumentation.
//!
//! This crate is the public entry point of the reproduction. It wires the
//! four phases of the paper's workflow (Figure 1) over the simulated
//! OS/cluster substrate:
//!
//! 1. **Profiling** ([`Rose::profile`]) — failure-free run; function and
//!    syscall frequencies, benign-fault fingerprints, infrequent-function
//!    selection.
//! 2. **Tracing** ([`Rose::capture_trace`]) — the production tracer records
//!    SCF/AF/ND/PS events in a sliding window while faults occur (random
//!    nemesis or scripted), and dumps the trace when the oracle fires.
//! 3. **Diagnosis** ([`Rose::reproduce`]) — trace diff, fault extraction,
//!    and the three-level context refinement that emits fault schedules.
//! 4. **Reproduction** — each candidate schedule runs in a fresh testing
//!    deployment with the executor injecting at exact probe points; the
//!    accepted schedule reproduces the bug at ≥ 60 % replay rate.
//!
//! ```no_run
//! use rose_core::{Rose, TargetSystem};
//! # fn demo<S: TargetSystem>(system: S, nemesis: Box<dyn rose_sim::KernelHook>) {
//! let rose = Rose::new(system);
//! let profile = rose.profile();
//! let capture = rose.capture_trace(
//!     &profile,
//!     vec![nemesis],
//!     7,
//!     rose_events::SimDuration::from_secs(120),
//! );
//! assert!(capture.bug, "capture run must exhibit the failure");
//! let report = rose.reproduce(&profile, &capture.trace);
//! println!(
//!     "{}: reproduced={} RR={}% schedules={} runs={}",
//!     rose.system().name(),
//!     report.reproduced,
//!     report.replay_rate,
//!     report.schedules_generated,
//!     report.runs,
//! );
//! # }
//! ```

pub mod parallel;
pub mod system;
pub mod workflow;

pub use parallel::ordered_map;
pub use rose_analyze::{DiagnosisConfig, DiagnosisReport};
pub use system::TargetSystem;
pub use workflow::{Rose, RoseConfig, RunOnce, TraceCapture, PROFILING_SEED};
