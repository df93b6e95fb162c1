//! The Rose diagnosis phase.
//!
//! Given a buggy production trace, a failure-free profile, and the target
//! binary's symbol table, this crate searches for a *fault schedule* that
//! reproduces the bug with a high replay rate (paper §4.5):
//!
//! - **extraction** — collect the trace's fault events, discard benign ones
//!   by diffing against the profile, group correlated network delays into
//!   partitions, and prioritize PS → ND → SCF;
//! - **Level 1** — replay the faults in production order with no context
//!   (relative times for process/network faults, first matching invocation
//!   for syscall failures);
//! - **Level 2** — contextualize: sweep syscall invocation indexes, and for
//!   process/network faults grow chains of preceding application functions
//!   (Algorithm 1), with the *Amplification* heuristic for role-specific
//!   state;
//! - **Level 3** — inject at specific offsets inside the innermost context
//!   function, prioritizing syscall call-sites, then call sites, then the
//!   rest;
//! - **confirmation** — re-run candidate schedules ten times and accept at
//!   a ≥ 60 % replay rate (with the paper's early-abort after 4 clean runs).

pub mod diagnose;
pub mod extract;
pub mod harness;

pub use diagnose::{
    level1_schedule, Diagnoser, DiagnosisConfig, DiagnosisReport, SweepRedundancy, SCF_SWEEP_CAP,
    WARMUP,
};
pub use extract::{extract_faults, ExtractedFault, Extraction, ExtractionStats};
pub use harness::{RunHarness, RunObservation};
