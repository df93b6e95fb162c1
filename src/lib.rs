//! # Rose — reproducing external-fault-induced failures
//!
//! A from-scratch Rust reproduction of *"Rose: Reproducing External-Fault-
//! Induced Failures in Distributed Systems with Lightweight Instrumentation"*
//! (EuroSys 2026), including the substrate it needs: a deterministic
//! simulated OS/cluster (the eBPF-instrumented Linux stand-in), eight
//! simulated target systems carrying the paper's 20 bugs, a Jepsen-style
//! nemesis, and an Elle-style checker.
//!
//! ## Crate map
//!
//! | Module | Backing crate | Role |
//! |---|---|---|
//! | [`events`] | `rose-events` | SCF/AF/ND/PS event model, traces, sliding window |
//! | [`sim`] | `rose-sim` | deterministic OS/cluster simulator with eBPF-like hooks |
//! | [`trace`] | `rose-trace` | the production tracer (+ Full/IO-content baselines) |
//! | [`inject`] | `rose-inject` | fault schedules and the precise executor |
//! | [`profile`] | `rose-profile` | frequency profiling, benign-fault fingerprints, symbols |
//! | [`analyze`] | `rose-analyze` | trace diff and the Level 1–3 diagnosis search |
//! | [`core`] | `rose-core` | the `Rose` workflow: profile → trace → diagnose → reproduce |
//! | [`store`] | `rose-store` | `.rosetrace` binary persistence, streaming merge, hunt visited set |
//! | [`obs`] | `rose-obs` | campaign telemetry: spans, records, counters; JSONL reports, Chrome traces |
//! | [`apps`] | `rose-apps` | the eight target systems and the 20-bug registry |
//! | [`jepsen`] | `rose-jepsen` | randomized nemesis and the Elle-style history checker |
//! | [`hunt`] | `rose-hunt` | oracle-only co-evolving fault-space exploration |
//!
//! ## Quickstart
//!
//! ```no_run
//! use rose::apps::driver::{run_case, DriverOptions};
//! use rose::apps::registry::BugId;
//! use rose::core::RoseConfig;
//!
//! let outcome = run_case(BugId::RedisRaft43, RoseConfig::default(), &DriverOptions::default());
//! let report = outcome.report.expect("trace captured");
//! assert!(report.reproduced);
//! println!(
//!     "reproduced at {:.0}% replay rate with {} schedules",
//!     report.replay_rate, report.schedules_generated
//! );
//! ```

pub use rose_analyze as analyze;
pub use rose_apps as apps;
pub use rose_core as core;
pub use rose_events as events;
pub use rose_hunt as hunt;
pub use rose_inject as inject;
pub use rose_jepsen as jepsen;
pub use rose_obs as obs;
pub use rose_profile as profile;
pub use rose_sim as sim;
pub use rose_store as store;
pub use rose_trace as trace;

pub use rose_core::{Rose, RoseConfig, TargetSystem};
