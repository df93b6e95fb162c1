//! rose-hunt: co-evolving fault-space exploration.
//!
//! Rose's main workflow reproduces failures that already happened: a
//! production trace captures the external faults, diagnosis replays them.
//! This crate inverts the direction — given only a target system and its
//! invariant oracle, it *discovers* external-fault-induced bugs by
//! searching the fault space, then hands every discovery to the standard
//! Level-2.5 diagnosis for a confirmed [`rose_analyze::DiagnosisReport`]
//! with causal provenance.
//!
//! The search (see [`hunt`]) is a budget-bounded frontier over fault
//! schedules:
//!
//! 1. A fault-free baseline run enumerates the initial injection sites —
//!    whole-node faults from a deterministic menu, plus every observed
//!    function entry and syscall execution-index context.
//! 2. Each explored schedule reports the contexts it reached (via the
//!    zero-charge [`SiteProbe`]); contexts never seen before score the
//!    run's *novelty* and become its children's injection sites, so
//!    crash-recovery and error-handling paths that only execute under
//!    earlier faults join the vocabulary — co-evolution in the
//!    Box-of-Pain sense.
//! 3. Syscall-failure candidates draw their errno from a per-syscall
//!    realism model ([`ErrnoModel`]), deterministically per site and
//!    campaign seed.
//! 4. The first run that fires the oracle dumps its tracer window — a
//!    production-style trace — which is re-diagnosed with the run's
//!    schedule as the seed guess
//!    ([`rose_analyze::DiagnosisConfig::seed_schedule`]).
//!
//! Everything — frontier order, visited set, errno picks, seeds, logs —
//! is bit-identical at any `--jobs` width; the visited set persists
//! across campaigns through `rose-store`'s `RVST` format.

pub mod errno;
pub mod frontier;
pub mod hunt;
pub mod probe;

pub use errno::ErrnoModel;
pub use frontier::{Candidate, Frontier};
pub use hunt::{
    hunt, Discovery, FrontierRecord, HuntConfig, HuntOutcome, BATCH, CHILDREN_PER_RUN, MAX_DEPTH,
    PAUSE, SCF_ROOT_CAP, TIME_STEP,
};
pub use probe::SiteProbe;
