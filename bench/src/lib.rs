//! The wall-clock benchmark of the Rose reproduction.
//!
//! `run.sh` builds this package and starts its binary; `README.md` holds
//! the metric glossary, the workload rationale and the sizing constraints.
//! Nothing under `crates/` is edited or timed from the inside: every span
//! and counter here sits around a call into a crate's public API.

pub mod cases;
pub mod cli;
pub mod gauge;
pub mod layers;
pub mod mirror;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
