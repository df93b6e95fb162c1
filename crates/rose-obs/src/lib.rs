//! # rose-obs — campaign-wide telemetry for the Rose toolchain
//!
//! Rose diagnoses why fault schedules do or do not reproduce bugs, so its
//! own pipeline must be at least as observable as the systems it studies.
//! This crate is the telemetry backbone shared by every phase of a campaign
//! (profiling → tracing → diagnosis → reproduction):
//!
//! - [`Obs`] — a lightweight, deterministic campaign registry: a clock,
//!   phase spans, phase records and named counters behind an
//!   `Arc<Mutex<_>>` handle that clones cheaply into the workflow layers.
//!   Phase spans are keyed on **simulated** time only: the registry never
//!   reads a wall clock, so attaching it cannot perturb sim determinism,
//!   and identical seeds produce byte-identical reports.
//! - [`RunReport`]/[`PhaseRecord`] — a structured JSONL run report with one
//!   record per phase (profiling, tracing, diagnosis, reproduction) plus a
//!   final campaign summary, round-trippable via `serde_json`.
//! - [`ChromeTrace`] — a Chrome `trace_event` (about://tracing /
//!   Perfetto-loadable) exporter that renders the simulated timeline: one
//!   process track per node with syscall-failure, pause, network-silence,
//!   function, and injection lanes, so a failed reproduction can be
//!   visually diffed against the captured buggy trace.
//! - [`causal`] — fault-propagation chains computed from a run's causal
//!   log: per injected fault, the shortest happens-before path from the
//!   injection point to the oracle event, rendered as Perfetto flow arrows
//!   across node tracks and as Graphviz DOT.

pub mod causal;
pub mod chrome;
pub mod metrics;
pub mod report;

pub use causal::{ChainHop, PropagationChain};
pub use chrome::{ChromeTrace, TraceEvent};
pub use metrics::{Obs, PhaseSpan, SpanId};
pub use report::{
    CampaignSummary, DiagnosisStats, HuntStats, MetaStats, PhaseRecord, ProfilingStats,
    ReproductionStats, RunReport, TracingStats,
};
