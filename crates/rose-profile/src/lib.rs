//! The Rose profiling phase.
//!
//! Before production tracing, Rose profiles the target system in a
//! failure-free run (§4.3): it resolves the developer-provided list of key
//! source files to function symbols (the `readelf`/`addr2line` step,
//! modeled by [`SymbolTable`]), counts function and syscall invocation
//! frequencies, keeps only *infrequent* functions (at most
//! [`FREQUENCY_THRESHOLD`], 2 calls/s) as uprobe monitoring sites, and
//! fingerprints the faults that occur even without failure injection — the
//! *benign* faults the diagnosis phase subtracts from a buggy trace.

pub mod profile;
pub mod symbols;

pub use profile::{FaultFingerprint, Profile, ProfilingHook, FREQUENCY_THRESHOLD};
pub use symbols::{site, FunctionSym, OffsetKind, OffsetSite, SymbolTable};
