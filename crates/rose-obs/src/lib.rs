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
//! - [`causal`] — fault-propagation chains computed from a run's causal
//!   log: per injected fault, the shortest happens-before path from the
//!   injection point to the oracle event, rendered as Perfetto flow arrows
//!   across node tracks and as Graphviz DOT.
//! - [`ChromeTrace`] — the Chrome `trace_event` (about://tracing /
//!   Perfetto-loadable) format those flow arrows are written in; the flow
//!   file is the one Chrome file a campaign writes.
//!
//! Phase spans are what the campaign clock is made of: each
//! [`Obs::end_phase`] advances it, and the campaign record reports it. No
//! file renders them.

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
