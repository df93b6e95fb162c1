//! The Rose production tracer.
//!
//! The paper's tracer (§4.4, §5.2) runs alongside production systems with
//! 2.6 % overhead by recording only what matters for fault reproduction:
//!
//! - **system-call failures** via the `sys_exit` tracepoint (successes are
//!   discarded in-kernel);
//! - **infrequent application functions** via uprobes selected by the
//!   profiling phase;
//! - **network delays** via an XDP ingress tap and a per-connection
//!   last-packet map (5 s silence threshold);
//! - **process pauses/crashes** via procfs polling (1 s interval, 3 s
//!   waiting threshold).
//!
//! Events land in a fixed 1 M-event ring buffer ([`rose_events::SlidingWindow`])
//! that is only written out by the `dump` primitive when the bug oracle
//! fires. This crate also implements the two baseline tracers of the
//! overhead study (Table 2): `Full` (every syscall) and `IO content`
//! (Rose + ≤128-byte read/write payload capture).

pub mod config;
pub mod tracer;

pub use config::{TracerConfig, TracerMode};
pub use tracer::{Tracer, TracerReport, CONTENT_CAP, ND_THRESHOLD, PS_WAIT_THRESHOLD};
