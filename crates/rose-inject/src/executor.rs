//! The executor: tracks per-node fault contexts and injects faults at the
//! exact kernel boundary where the last condition is observed (§4.6).

use std::collections::BTreeMap;

use rose_events::{NodeId, Pid, SimTime};
use rose_sim::{
    ChainId, HookEffects, HookEnv, KernelHook, NetCmd, ProcEvent, ProcTable, SignalKind, SignalReq,
    SignalTarget, SyscallArgs,
};

use crate::schedule::{Condition, FaultAction, FaultId, FaultSchedule, PartitionKind};

/// Runtime state of one scheduled fault.
#[derive(Debug, Default, Clone)]
struct FaultRt {
    /// Index of the next condition to satisfy.
    progress: usize,
    /// When all conditions became satisfied.
    armed_at: Option<SimTime>,
    /// When the fault was injected.
    injected_at: Option<SimTime>,
    /// Matching syscalls seen since arming (for `Scf` nth matching).
    scf_count: u64,
    /// Matching syscalls seen for the active `SyscallInvocation` /
    /// `ExecutionIndex` condition.
    cond_count: u64,
    /// The active `ExecutionIndex` condition's chain as this run's kernel
    /// interned it, once the run has entered that chain (`None` until
    /// then: a chain nobody entered cannot be the current one). Probes then
    /// compare calling contexts as integers.
    want_chain: Option<ChainId>,
}

/// What the executor observed during a run, fed back to the diagnosis phase
/// when the bug did not reproduce (§4.6, Algorithm 1 lines 34–35).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionFeedback {
    /// Faults that were injected, with injection times (µs).
    pub injected: Vec<(FaultId, u64)>,
    /// Faults whose full context was observed (armed), injected or not.
    pub armed: Vec<FaultId>,
}

impl ExecutionFeedback {
    /// Whether every fault of the schedule fired.
    pub fn all_injected(&self, schedule_len: usize) -> bool {
        self.injected.len() == schedule_len
    }

    /// Whether a specific fault fired.
    pub fn was_injected(&self, id: FaultId) -> bool {
        self.injected.iter().any(|(f, _)| *f == id)
    }

    /// Publishes injection counters into a telemetry registry.
    pub fn publish_obs(&self, obs: &rose_obs::Obs) {
        obs.counter_add("executor.injected", self.injected.len() as u64);
        obs.counter_add("executor.armed", self.armed.len() as u64);
        for (_, at_us) in &self.injected {
            obs.observe("executor.injection_us", *at_us);
        }
    }

    /// Marks each injection on the Chrome-trace injection lane of the node
    /// it targeted.
    pub fn export_chrome(&self, chrome: &mut rose_obs::ChromeTrace, schedule: &FaultSchedule) {
        for (id, at_us) in &self.injected {
            let Some(fault) = schedule.faults.get(*id) else {
                continue;
            };
            chrome.add_injection(
                format!("inject {}", fault.action.tag()),
                rose_events::SimTime::from_micros(*at_us),
                fault.node,
            );
        }
    }
}

/// The Rose executor: a [`KernelHook`] loaded for reproduction runs.
///
/// State tracking is per process id, with child pids and post-restart pids
/// remapped to the original node identity (§5.4): the executor maintains its
/// own pid → node map from process lifecycle events rather than trusting any
/// application-level identity.
pub struct Executor {
    faults: Faults,
    /// pid → node map built from Spawned/Restarted/ChildSpawned events.
    pid_node: BTreeMap<Pid, NodeId>,
}

/// The fault-context state machine: the schedule and each fault's progress
/// through its conditions.
struct Faults {
    schedule: FaultSchedule,
    rt: Vec<FaultRt>,
    /// Faults not injected yet. At zero the schedule is spent: every pass
    /// below skips an injected fault, so no probe can change any state or
    /// produce an effect any more, and the probes return at once. A
    /// confirmation run spends most of its syscalls there.
    pending: usize,
    /// The distinct nodes the schedule targets, ascending (the poll order).
    nodes: Vec<NodeId>,
    /// Provenance recorder; disabled unless a campaign asked for it.
    causal: rose_sim::CausalRecorder,
}

impl Executor {
    /// Creates an executor for a schedule. The schedule's production fault
    /// order is enforced by adding `AfterFault` prerequisites.
    pub fn new(mut schedule: FaultSchedule) -> Self {
        schedule.enforce_order();
        Executor::without_order_enforcement(schedule)
    }

    /// Creates an executor without adding fault-order prerequisites (used by
    /// ablation experiments).
    pub fn without_order_enforcement(schedule: FaultSchedule) -> Self {
        let mut nodes: Vec<NodeId> = schedule.faults.iter().map(|f| f.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        Executor {
            faults: Faults {
                rt: vec![FaultRt::default(); schedule.faults.len()],
                pending: schedule.faults.len(),
                schedule,
                nodes,
                causal: rose_sim::CausalRecorder::disabled(),
            },
            pid_node: BTreeMap::new(),
        }
    }

    /// Attaches a causal recorder; every injection is then recorded as a
    /// provenance root on the target node.
    pub fn attach_causal(&mut self, rec: rose_sim::CausalRecorder) {
        self.faults.causal = rec;
    }

    /// The schedule being executed.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.faults.schedule
    }

    /// Execution feedback for the diagnosis loop.
    pub fn feedback(&self) -> ExecutionFeedback {
        let mut injected: Vec<(FaultId, u64)> = self
            .faults
            .rt
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.injected_at.map(|t| (i, t.as_micros())))
            .collect();
        injected.sort_by_key(|(_, t)| *t);
        let armed = self
            .faults
            .rt
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.armed_at.map(|_| i))
            .collect();
        ExecutionFeedback { injected, armed }
    }

    /// Resolves the node a pid belongs to via the executor's own mapping.
    fn node_of(&self, pid: Pid, fallback: NodeId) -> NodeId {
        self.pid_node.get(&pid).copied().unwrap_or(fallback)
    }

    /// The path context of a syscall: its path argument, or the path its
    /// descriptor names, so `Scf` faults can match fd-based calls against a
    /// target filename.
    fn path_of<'a>(args: &SyscallArgs<'a>) -> Option<&'a str> {
        match args.path {
            // `rename` encodes "from\0to"; match on the source path.
            Some(p) => Some(p.split('\0').next().unwrap_or(p)),
            None => args.fd_path,
        }
    }
}

impl Faults {
    /// Advances state-based conditions (fault order, elapsed time) of every
    /// fault and arms those whose context is complete.
    fn advance_state_based(&mut self, now: SimTime) {
        // Fixed-point: arming one fault can satisfy another's AfterFault.
        loop {
            let mut changed = false;
            for i in 0..self.schedule.faults.len() {
                if self.rt[i].injected_at.is_some() || self.rt[i].armed_at.is_some() {
                    continue;
                }
                while self.rt[i].progress < self.schedule.faults[i].conditions.len() {
                    let c = &self.schedule.faults[i].conditions[self.rt[i].progress];
                    let sat = match c {
                        Condition::AfterFault { fault } => self
                            .schedule
                            .faults
                            .iter()
                            .zip(&self.rt)
                            .any(|(f, r)| f.group == *fault && r.injected_at.is_some()),
                        Condition::TimeElapsed { after } => now.since(SimTime::ZERO) >= *after,
                        _ => false,
                    };
                    if sat {
                        self.rt[i].progress += 1;
                        changed = true;
                    } else {
                        break;
                    }
                }
                if self.rt[i].progress == self.schedule.faults[i].conditions.len()
                    && self.rt[i].armed_at.is_none()
                {
                    self.rt[i].armed_at = Some(now);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Marks a fault injected and writes its effects. Returns whether the
    /// fault had any to write (a split with an empty side has none).
    fn fire(&mut self, id: FaultId, now: SimTime, fx: &mut HookEffects) -> bool {
        self.rt[id].injected_at = Some(now);
        self.pending -= 1;
        let fault = &self.schedule.faults[id];
        self.causal.inject(fault.node, id, fault.action.tag(), now);
        let signal = |kind| SignalReq {
            target: SignalTarget::Node(fault.node),
            kind,
        };
        match &fault.action {
            FaultAction::Scf { errno, .. } => fx.set_override(*errno),
            FaultAction::Crash => fx.set_signal(signal(SignalKind::Crash)),
            FaultAction::Pause { duration } => fx.set_signal(signal(SignalKind::Pause(*duration))),
            FaultAction::Partition { kind, duration } => {
                let before = fx.net().len();
                let mut cut = |src: &NodeId, dst: &NodeId| {
                    fx.push_net(NetCmd::Install {
                        rule: rose_sim::DropRule {
                            src: src.ip(),
                            dst: dst.ip(),
                        },
                        heal_after: *duration,
                    });
                };
                match kind {
                    PartitionKind::IsolateNode(n) => fx.push_net(NetCmd::Isolate {
                        ip: n.ip(),
                        heal_after: *duration,
                    }),
                    PartitionKind::Split { group_a, group_b } => {
                        for a in group_a {
                            for b in group_b {
                                cut(a, b);
                                cut(b, a);
                            }
                        }
                    }
                    PartitionKind::Link { src, dst } => cut(src, dst),
                }
                return fx.net().len() > before;
            }
        }
        true
    }

    /// Injects any armed, still-pending signal/network fault for `node`.
    /// Crash signals fire at the current probe point for precision. Returns
    /// whether a fired fault wrote an effect.
    fn fire_ready(&mut self, node: NodeId, now: SimTime, fx: &mut HookEffects) -> bool {
        let mut injecting = false;
        for i in 0..self.schedule.faults.len() {
            let f = &self.schedule.faults[i];
            if f.node == node
                && self.rt[i].armed_at.is_some()
                && self.rt[i].injected_at.is_none()
                && !matches!(f.action, FaultAction::Scf { .. })
            {
                let signals = !matches!(f.action, FaultAction::Partition { .. });
                injecting |= self.fire(i, now, fx);
                self.advance_state_based(now);
                if signals {
                    // A kill/pause claimed this probe point; later faults
                    // re-evaluate at their own boundaries.
                    break;
                }
            }
        }
        injecting
    }

    /// Processes an event-based observation on `node`: offers each pending
    /// fault's active condition to `matches`, in place, then fires what
    /// that armed. Returns whether a fired fault wrote an effect.
    fn observe<F>(
        &mut self,
        node: NodeId,
        now: SimTime,
        fx: &mut HookEffects,
        mut matches: F,
    ) -> bool
    where
        F: FnMut(&Condition, &mut FaultRt) -> bool,
    {
        self.advance_state_based(now);
        let mut progressed = false;
        for (fault, rt) in self.schedule.faults.iter().zip(&mut self.rt) {
            if fault.node != node || rt.injected_at.is_some() || rt.armed_at.is_some() {
                continue;
            }
            let Some(cond) = fault.conditions.get(rt.progress) else {
                continue;
            };
            if matches(cond, rt) {
                rt.progress += 1;
                rt.cond_count = 0;
                rt.want_chain = None;
                progressed = true;
            }
        }
        // The state-based pass above ran to its fixed point at `now`; it has
        // new work only if an event-based condition just advanced.
        if progressed {
            self.advance_state_based(now);
        }
        self.fire_ready(node, now, fx)
    }
}

impl KernelHook for Executor {
    fn name(&self) -> &'static str {
        "rose-executor"
    }

    fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, fx: &mut HookEffects) {
        if self.faults.pending == 0 {
            return;
        }
        let node = self.node_of(env.pid, env.node);
        let path = Self::path_of(args);
        let faults = &mut self.faults;

        // 1. Progress SyscallInvocation / ExecutionIndex conditions.
        let call = args.call;
        let injecting = faults.observe(node, env.now, fx, |cond, rt| {
            match cond {
                Condition::SyscallInvocation {
                    syscall,
                    path: want,
                    nth,
                } if *syscall == call && (want.is_none() || want.as_deref() == path) => {
                    rt.cond_count += 1;
                    return rt.cond_count >= *nth;
                }
                // The count is per calling context: only invocations made
                // under the exact recorded chain advance it, so benign
                // interleaving changes elsewhere cannot shift the target.
                Condition::ExecutionIndex {
                    chain: want,
                    syscall,
                    count,
                } if *syscall == call => {
                    if rt.want_chain.is_none() {
                        rt.want_chain = env.chains.lookup(want);
                    }
                    if rt.want_chain == Some(env.chain) {
                        rt.cond_count += 1;
                        return rt.cond_count >= *count;
                    }
                }
                _ => {}
            }
            false
        });
        if injecting {
            return;
        }

        // 2. Armed SCF faults match this invocation (`observe` left the
        // state-based conditions at their fixed point for `env.now`).
        for i in 0..faults.schedule.faults.len() {
            let f = &faults.schedule.faults[i];
            let rt = &mut faults.rt[i];
            if f.node != node || rt.armed_at.is_none() || rt.injected_at.is_some() {
                continue;
            }
            if let FaultAction::Scf {
                syscall,
                path: want,
                nth,
                ..
            } = &f.action
            {
                if *syscall == call && (want.is_none() || want.as_deref() == path) {
                    rt.scf_count += 1;
                    if rt.scf_count >= *nth {
                        faults.fire(i, env.now, fx);
                        faults.advance_state_based(env.now);
                        break;
                    }
                }
            }
        }
    }

    fn uprobe(&mut self, env: &HookEnv, function: &str, offset: Option<u32>, fx: &mut HookEffects) {
        if self.faults.pending == 0 {
            return;
        }
        let node = self.node_of(env.pid, env.node);
        self.faults
            .observe(node, env.now, fx, |cond, _rt| match (cond, offset) {
                (Condition::FunctionEntered { name }, None) => name == function,
                (Condition::FunctionOffset { name, offset: want }, Some(off)) => {
                    name == function && *want == off
                }
                _ => false,
            });
    }

    fn poll(&mut self, now: SimTime, _procs: &ProcTable, fx: &mut HookEffects) {
        let faults = &mut self.faults;
        if faults.pending == 0 {
            return;
        }
        faults.advance_state_based(now);
        // Fire any time/order-armed signal faults node by node.
        for i in 0..faults.nodes.len() {
            faults.fire_ready(faults.nodes[i], now, fx);
        }
    }

    fn proc_event(&mut self, _now: SimTime, event: &ProcEvent) {
        match event {
            ProcEvent::Spawned { node, pid }
            | ProcEvent::Restarted {
                node, new_pid: pid, ..
            } => {
                self.pid_node.insert(*pid, *node);
            }
            ProcEvent::ChildSpawned { parent, child } => {
                if let Some(n) = self.pid_node.get(parent).copied() {
                    self.pid_node.insert(*child, n);
                }
            }
            _ => {}
        }
    }
}
