//! Kernel hooks: the eBPF attachment points of the simulated kernel.
//!
//! The paper's tracer and executor attach eBPF programs to syscall
//! tracepoints/kprobes, uprobes, XDP, and read procfs. Here both are
//! [`KernelHook`]s: the kernel hands every hook at an interception point
//! the same [`HookEffects`] to write into and applies it once the chain has
//! run — a syscall-return override (`bpf_override_return`), a signal
//! (`bpf_send_signal`), TC filter commands, and a CPU-time charge that
//! models the probe's overhead.

use std::any::Any;

use rose_events::{Errno, IpAddr, NodeId, Pid, SimDuration, SimTime};

use crate::chain::{ChainId, ChainTable};
use crate::net::DropRule;
use crate::process::ProcTable;
use crate::syscalls::{SysResult, SyscallArgs};

/// Identification of one probe firing: when, where, and in which process.
#[derive(Debug, Clone, Copy)]
pub struct HookEnv<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Node on which the probe fired.
    pub node: NodeId,
    /// Process (possibly a child helper) that hit the probe.
    pub pid: Pid,
    /// The firing process's live function-entry chain — the kernel's
    /// per-pid uprobe stack at the moment of the probe, interned. This is
    /// the calling-context half of an execution index: equal ids are equal
    /// chains, so hooks key and compare on it and never touch a string per
    /// probe. [`ChainId::ROOT`] when the probe fired outside any
    /// instrumented function.
    pub chain: ChainId,
    /// The kernel's chain table, which resolves ids to names and names to
    /// ids.
    pub chains: &'a ChainTable,
}

impl<'a> HookEnv<'a> {
    /// The function names of [`HookEnv::chain`], outermost first — for the
    /// places a hook emits a string (an SCF event, a site list).
    pub fn call_chain(&self) -> &'a [String] {
        self.chains.names(self.chain)
    }
}

/// A signal request produced by a hook (`bpf_send_signal` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalKind {
    /// SIGKILL: crash the node's process at this exact point.
    Crash,
    /// SIGSTOP followed by SIGCONT after the given pause.
    Pause(SimDuration),
}

/// Where a signal should be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalTarget {
    /// The process that hit the probe (resolved to its node's main process,
    /// as the paper's executor does for child pids).
    Current,
    /// A specific node's main process (used by time-triggered faults).
    Node(NodeId),
}

/// A requested signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalReq {
    /// Delivery target.
    pub target: SignalTarget,
    /// Crash or pause.
    pub kind: SignalKind,
}

/// A traffic-control command produced by a hook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetCmd {
    /// Install a drop filter; heal (remove) it after the given time if set.
    Install {
        /// The filter.
        rule: DropRule,
        /// Auto-heal delay.
        heal_after: Option<SimDuration>,
    },
    /// Isolate a node from all peers in both directions.
    Isolate {
        /// Address to cut off.
        ip: IpAddr,
        /// Auto-heal delay.
        heal_after: Option<SimDuration>,
    },
    /// Remove every installed filter.
    ClearAll,
}

/// Everything the hooks of one probe firing ask the kernel to do. The chain
/// shares one value: each hook writes through the setters, which keep the
/// chain's merge rules — an override or a signal belongs to the first hook
/// that asks (one eBPF program per attach point claims the probe), charges
/// and traffic-control commands accumulate in hook order.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct HookEffects {
    pub(crate) override_errno: Option<Errno>,
    pub(crate) signal: Option<SignalReq>,
    pub(crate) net: Vec<NetCmd>,
    pub(crate) charge: SimDuration,
}

impl HookEffects {
    /// No effects.
    pub fn none() -> Self {
        HookEffects::default()
    }

    /// Overrides the system call's return value with `errno` and skips its
    /// body (`bpf_override_return`), unless an earlier hook already did.
    /// Only meaningful from `sys_enter`.
    pub fn set_override(&mut self, errno: Errno) {
        self.override_errno.get_or_insert(errno);
    }

    /// Delivers a signal at this kernel boundary, unless an earlier hook
    /// already asked for one.
    pub fn set_signal(&mut self, req: SignalReq) {
        self.signal.get_or_insert(req);
    }

    /// Appends a traffic-control command.
    pub fn push_net(&mut self, cmd: NetCmd) {
        self.net.push(cmd);
    }

    /// Adds CPU time the probe consumed, charged to the interrupted process
    /// (the source of tracer overhead).
    pub fn add_charge(&mut self, d: SimDuration) {
        self.charge += d;
    }

    /// The signal to deliver, if a hook asked for one.
    pub fn signal(&self) -> Option<SignalReq> {
        self.signal
    }

    /// The traffic-control commands, in the order hooks pushed them.
    pub fn net(&self) -> &[NetCmd] {
        &self.net
    }

    /// Whether any fault-injecting effect is present.
    pub fn is_injecting(&self) -> bool {
        self.override_errno.is_some() || self.signal.is_some() || !self.net.is_empty()
    }
}

/// Process lifecycle notifications delivered to hooks.
#[derive(Debug, Clone)]
pub enum ProcEvent {
    /// A node's main process started for the first time.
    Spawned {
        /// The node.
        node: NodeId,
        /// Its fresh pid.
        pid: Pid,
    },
    /// A node's main process restarted with a new pid after a crash.
    Restarted {
        /// The node.
        node: NodeId,
        /// The replacement pid.
        new_pid: Pid,
        /// The pid the node had before the crash.
        old_pid: Pid,
    },
    /// A child helper process was forked.
    ChildSpawned {
        /// Parent (node main) pid.
        parent: Pid,
        /// The child pid.
        child: Pid,
    },
    /// A process exited abnormally.
    Crashed {
        /// The node.
        node: NodeId,
        /// The pid that died.
        pid: Pid,
        /// Panic/abort message, if any.
        reason: String,
        /// True when the process exited through its own abort path (failed
        /// assertion/panic) rather than an external kill — distinguishable
        /// black-box from the `wait(2)` status.
        aborted: bool,
    },
    /// A process was paused (SIGSTOP delivered).
    PauseStart {
        /// The node.
        node: NodeId,
        /// Paused pid.
        pid: Pid,
    },
    /// A paused process resumed (SIGCONT).
    PauseEnd {
        /// The node.
        node: NodeId,
        /// Resumed pid.
        pid: Pid,
        /// When the pause began.
        since: SimTime,
    },
}

/// A kernel hook: tracer, fault injector, or test instrumentation.
///
/// All methods have no-op defaults so implementations attach only where
/// needed, like loading a subset of eBPF programs. Every probe method gets
/// the firing's shared [`HookEffects`] as `fx` and writes what it wants done
/// into it.
pub trait KernelHook: Any {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str;

    /// `sys_enter`: fired before a system call executes. May override the
    /// return value (skipping the body) or deliver a signal.
    fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, fx: &mut HookEffects) {
        let _ = (env, args, fx);
    }

    /// `sys_exit`: fired after a system call completes (including overridden
    /// ones), with the final result.
    fn sys_exit(
        &mut self,
        env: &HookEnv,
        args: &SyscallArgs,
        result: &SysResult,
        fx: &mut HookEffects,
    ) {
        let _ = (env, args, result, fx);
    }

    /// Uprobe: fired at an application function entry (`offset == None`) or
    /// at a specific instrumented offset inside it. `function` is the
    /// innermost name of `env.chain`, so a hook may key on the chain id.
    fn uprobe(&mut self, env: &HookEnv, function: &str, offset: Option<u32>, fx: &mut HookEffects) {
        let _ = (env, function, offset, fx);
    }

    /// XDP ingress tap: a node-to-node packet arrived at `env.node`.
    fn packet_in(
        &mut self,
        env: &HookEnv,
        src: IpAddr,
        dst: IpAddr,
        size: usize,
        fx: &mut HookEffects,
    ) {
        let _ = (env, src, dst, size, fx);
    }

    /// Periodic poll (procfs reader and time-based fault conditions).
    fn poll(&mut self, now: SimTime, procs: &ProcTable, fx: &mut HookEffects) {
        let _ = (now, procs, fx);
    }

    /// Process lifecycle notification.
    fn proc_event(&mut self, now: SimTime, event: &ProcEvent) {
        let _ = (now, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setters_are_first_writer_wins_for_faults_and_additive_for_the_rest() {
        let crash = SignalReq {
            target: SignalTarget::Current,
            kind: SignalKind::Crash,
        };
        let pause = SignalReq {
            target: SignalTarget::Node(NodeId(1)),
            kind: SignalKind::Pause(SimDuration::from_secs(1)),
        };
        let mut fx = HookEffects::none();
        // The first hook overrides and charges; the second asks for another
        // errno and a signal; the third for another signal.
        fx.set_override(Errno::Eio);
        fx.add_charge(SimDuration::from_micros(1));
        fx.set_override(Errno::Enoent);
        fx.set_signal(crash);
        fx.add_charge(SimDuration::from_micros(2));
        fx.set_signal(pause);
        fx.push_net(NetCmd::ClearAll);
        fx.push_net(NetCmd::Isolate {
            ip: IpAddr(1),
            heal_after: None,
        });
        assert_eq!(fx.override_errno, Some(Errno::Eio));
        assert_eq!(fx.signal(), Some(crash));
        assert_eq!(fx.charge, SimDuration::from_micros(3));
        assert_eq!(fx.net().len(), 2);
        assert_eq!(fx.net()[0], NetCmd::ClearAll);
        assert!(fx.is_injecting());
    }

    #[test]
    fn none_is_not_injecting() {
        assert!(!HookEffects::none().is_injecting());
        let mut fx = HookEffects::none();
        fx.add_charge(SimDuration::from_micros(5));
        assert!(!fx.is_injecting());
        fx.push_net(NetCmd::ClearAll);
        assert!(fx.is_injecting());
    }
}
