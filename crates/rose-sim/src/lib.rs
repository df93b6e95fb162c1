//! Deterministic discrete-event simulated OS and cluster substrate.
//!
//! The Rose paper instruments real Linux deployments with eBPF: syscall
//! tracepoints, uprobes, XDP ingress programs, TC filters, and
//! `bpf_override_return`/`bpf_send_signal` for fault injection. This crate
//! reproduces that substrate as a deterministic simulation:
//!
//! - a **kernel** ([`SimCore`]) with a syscall layer, per-node VFS, network
//!   with drop filters and an ingress tap, processes with signals, and a
//!   virtual clock;
//! - **hook chains** ([`KernelHook`]) at exactly the paper's interception
//!   points — `sys_enter` (return override), `sys_exit` (failure tracing),
//!   uprobes (function entry and intra-function offsets), packet ingress,
//!   and a procfs-style poller;
//! - an **application model** ([`Application`]/[`NodeCtx`]) in which target
//!   systems interact with their environment only through system calls, so
//!   crash signals delivered at a probe point stop the process at that exact
//!   boundary (partial writes persist — the raw material of
//!   external-fault-induced bugs);
//! - **clients** ([`ClientDriver`]) that drive workloads from outside the
//!   traced boundary and record Jepsen-style operation histories.
//!
//! Every run is a pure function of its [`SimConfig`] (including the seed):
//! replay-rate experiments vary only the seed.

pub mod app;
pub mod causal;
pub mod chain;
pub mod config;
pub mod hooks;
pub mod kernel;
pub mod net;
pub mod process;
mod queue;
pub mod sim;
pub mod state;
pub mod syscalls;
pub mod vfs;

#[cfg(test)]
mod fd_path_test;

pub use app::{Application, ClientCtx, ClientDriver, NodeCtx};
pub use causal::CausalRecorder;
pub use chain::{ChainId, ChainTable};
pub use config::SimConfig;
pub use hooks::{
    HookEffects, HookEnv, KernelHook, NetCmd, ProcEvent, SignalKind, SignalReq, SignalTarget,
};
pub use kernel::{AppPanic, CrashPayload, Endpoint, SimCore};
pub use net::{ConnEntry, ConnTable, DropRule, NetState};
pub use process::{ProcTable, ProcessEntry, RunState};
pub use sim::Sim;
pub use state::{ClientId, History, HistoryOp, Logs, OpOutcome, SimStats};
pub use syscalls::{FileMeta, OpenFlags, SysResult, SysResultExt, SysRet, SyscallArgs};
pub use vfs::Vfs;
