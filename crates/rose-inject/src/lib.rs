//! Fault schedules and the Rose executor.
//!
//! The reproduction phase (paper §4.6) runs the target system in a testing
//! environment and injects the scheduled faults *precisely*: a failed system
//! call is emulated by overriding its return value and skipping the body
//! (`bpf_override_return`), crashes and pauses are delivered as signals from
//! kernel space at the exact probe point where the last context condition is
//! observed (`bpf_send_signal`), and network faults are TC drop filters.
//!
//! The [`Executor`] tracks, per node, the sequence of conditions of each
//! fault (function entries, intra-function offsets, nth syscall invocations
//! with optional path inputs, prior faults, elapsed time) and enforces the
//! production fault order; a probe's node is the one
//! [`rose_sim::HookEnv::node`] names.

pub mod candidates;
pub mod executor;
pub mod schedule;

pub use candidates::{schedule_fingerprint, InjectionSite, SiteKind};
pub use executor::{ExecutionFeedback, Executor};
pub use schedule::{Condition, FaultAction, FaultId, FaultSchedule, PartitionKind, ScheduledFault};
