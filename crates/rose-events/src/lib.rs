//! Event model for the Rose reproduction.
//!
//! Rose observes distributed systems exclusively at the OS boundary. The
//! paper (§4.4.1) defines a trace as a sequence of timestamped events of
//! four types:
//!
//! - **SCF** — system-call failures `{pid, syscall_id, fd, filename, errno}`
//! - **AF** — application functions `{pid, function_id}` (infrequent
//!   functions selected by the profiling phase)
//! - **ND** — network delays `{dst_ip, src_ip, duration, packet_count}`
//! - **PS** — process states `{pid, state, duration}`
//!
//! This crate provides those event types, the simulated clock they are
//! stamped with, the tracer's fixed-capacity sliding window, and trace
//! merging across nodes. Everything downstream — the tracer, the diagnosis
//! algorithm, and the fault-injecting executor — is written against these
//! types.

pub mod causal;
pub mod event;
pub mod fingerprint;
pub mod ids;
pub mod syscall;
pub mod time;
pub mod trace;
pub mod window;

pub use causal::{CausalEdge, CausalKind, CausalLog, CausalNode, CauseId, EdgeKind};
pub use event::{Event, EventKind, ExecutionIndex, ProcState};
pub use fingerprint::{Fingerprinter, FnvBuildHasher, FnvHasher};
pub use ids::{Fd, FunctionId, IpAddr, NodeId, Pid};
pub use syscall::{Errno, SyscallId};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceCounts};
pub use window::{SlidingWindow, DEFAULT_WINDOW_CAPACITY};
