//! The executor: tracks per-node fault contexts and injects faults at the
//! exact kernel boundary where the last condition is observed (§4.6).

use rose_events::{NodeId, SimTime};
use rose_sim::{ChainId, HookEffects, HookEnv, KernelHook, ProcTable, SyscallArgs};

use crate::schedule::{Condition, FaultAction, FaultId, FaultSchedule};

/// Runtime state of one scheduled fault.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct FaultRt {
    /// Index of the next condition to satisfy.
    progress: usize,
    /// When all conditions became satisfied.
    armed_at: Option<SimTime>,
    /// When the fault was injected.
    injected_at: Option<SimTime>,
    /// Matching syscalls seen since arming (for `Scf` nth matching).
    scf_count: u64,
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
    /// Whether a specific fault fired.
    pub fn was_injected(&self, id: FaultId) -> bool {
        self.injected.iter().any(|(f, _)| *f == id)
    }

    /// Publishes the armed/injected tallies into a telemetry registry.
    pub fn publish_obs(&self, obs: &rose_obs::Obs) {
        obs.counter_add("executor.injected", self.injected.len() as u64);
        obs.counter_add("executor.armed", self.armed.len() as u64);
    }
}

/// The Rose executor: a [`KernelHook`] loaded for reproduction runs.
///
/// State tracking is per node: the node each probe names
/// ([`HookEnv::node`]).
pub struct Executor {
    faults: Faults,
    /// What the next probe can change, derived from `faults` whenever they
    /// move; a probe that passes it by returns without touching them.
    filter: Filter,
}

/// The fault-context state machine: the schedule and each fault's progress
/// through its conditions.
struct Faults {
    schedule: FaultSchedule,
    rt: Vec<FaultRt>,
    /// The distinct nodes the schedule targets, ascending (the poll order).
    nodes: Vec<NodeId>,
    /// Set wherever a fault's progress, arming or injection changes — the
    /// state the [`Filter`] is derived from. Counters and resolved chains
    /// move without it: they decide *whether* a probe the filter let in
    /// matches, never which probes it lets in.
    moved: bool,
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
        let faults = Faults {
            rt: vec![FaultRt::default(); schedule.faults.len()],
            schedule,
            nodes,
            moved: false,
        };
        Executor {
            filter: Filter::of(&faults),
            faults,
        }
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

    /// Whether a probe can change anything: not when the state-based pass
    /// has no work yet and either no node is waited on for anything or the
    /// probe's node is not `wanted` for this probe.
    fn admits(&self, env: &HookEnv, wanted: impl Fn(NodeWaits) -> bool) -> bool {
        let filter = &self.filter;
        let admitted =
            !filter.asleep(env.now) && (env.now >= filter.wake_at || wanted(filter.node(env.node)));
        // The one way turning a probe away can be wrong is a stale cache.
        debug_assert!(
            admitted || filter.is_current(&self.faults),
            "stale probe filter"
        );
        admitted
    }

    /// Brings the filter up to date after a probe it let in, if that probe
    /// moved the state it is derived from.
    fn refresh_filter(&mut self) {
        if std::mem::take(&mut self.faults.moved) {
            self.filter.recompute(&self.faults);
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
                        Condition::AfterFault { fault } => self.group_injected(*fault),
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
            self.moved = true;
        }
    }

    /// Marks a fault injected, notes it in `fx` for the run's causal log and
    /// writes its effects. Returns whether the fault had any to write (a
    /// split with an empty side has none).
    fn fire(&mut self, id: FaultId, now: SimTime, fx: &mut HookEffects) -> bool {
        self.rt[id].injected_at = Some(now);
        self.moved = true;
        let fault = &self.schedule.faults[id];
        fx.push_inject(fault.node, id, fault.action.tag());
        fault.action.apply(fault.node, fx)
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
                rt.want_chain = None;
                progressed = true;
            }
        }
        // The state-based pass above ran to its fixed point at `now`; it has
        // new work only if an event-based condition just advanced.
        if progressed {
            self.moved = true;
            self.advance_state_based(now);
        }
        self.fire_ready(node, now, fx)
    }

    /// A system call entered on `env.node`: the whole per-probe pass.
    fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, fx: &mut HookEffects) {
        let node = env.node;

        // 1. Progress ExecutionIndex conditions on the kernel's index of
        // this call, counted per calling context from run start: only
        // invocations made under the exact recorded chain match, so benign
        // interleaving changes elsewhere cannot shift the target.
        let call = args.call;
        let injecting = self.observe(node, env.now, fx, |cond, rt| match cond {
            Condition::ExecutionIndex {
                chain: want,
                syscall,
                count,
            } if *syscall == call => {
                if rt.want_chain.is_none() {
                    rt.want_chain = env.chains.lookup(want);
                }
                if rt.want_chain != Some(env.chain) {
                    return false;
                }
                u64::from(args.ei) >= *count
            }
            _ => false,
        });
        if injecting {
            return;
        }

        // 2. Armed SCF faults match this invocation (`observe` left the
        // state-based conditions at their fixed point for `env.now`).
        let path = args.subject_path();
        for i in 0..self.schedule.faults.len() {
            let f = &self.schedule.faults[i];
            let rt = &mut self.rt[i];
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
                        self.fire(i, env.now, fx);
                        self.advance_state_based(env.now);
                        break;
                    }
                }
            }
        }
    }

    /// A function entry (`offset == None`) or instrumented offset on
    /// `env.node`.
    fn uprobe(&mut self, env: &HookEnv, function: &str, offset: Option<u32>, fx: &mut HookEffects) {
        self.observe(env.node, env.now, fx, |cond, _rt| match (cond, offset) {
            (Condition::FunctionEntered { name }, None) => name == function,
            (Condition::FunctionOffset { name, offset: want }, Some(off)) => {
                name == function && *want == off
            }
            _ => false,
        });
    }

    /// The periodic pass: time- and order-armed signal faults fire here,
    /// node by node, when their node is making no probe.
    fn poll(&mut self, now: SimTime, fx: &mut HookEffects) {
        self.advance_state_based(now);
        for i in 0..self.nodes.len() {
            self.fire_ready(self.nodes[i], now, fx);
        }
    }

    /// Whether any fault of order group `group` has been injected.
    fn group_injected(&self, group: usize) -> bool {
        self.schedule
            .faults
            .iter()
            .zip(&self.rt)
            .any(|(f, r)| f.group == group && r.injected_at.is_some())
    }
}

/// What a probe is waited on for, per node.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct NodeWaits {
    /// One [`SyscallId::bit`] per syscall a pending fault of the node
    /// counts: its current `ExecutionIndex` condition, or the call an armed
    /// `Scf` fails.
    syscalls: u32,
    /// A pending fault's current condition is a function entry or offset.
    uprobes: bool,
    /// An armed signal or partition fault fires at the node's next probe.
    ready: bool,
}

/// The executor's probe filter: everything a probe could change, reduced to
/// what it takes to rule that out. The fault state moves a handful of times
/// per run — a condition advances, a fault arms or fires — and a run makes
/// tens to hundreds of thousands of probes; between two such moves only
/// time passes, so a probe before `wake_at` that its node waits on for
/// nothing would find the state-based pass at its fixed point, match no
/// condition, fire nothing and count nothing. It returns instead. A spent
/// schedule is the same thing with nothing left to wait for: every pass
/// skips an injected fault, so the filter of a schedule whose faults have
/// all fired sleeps for good — where a confirmation run spends most of its
/// syscalls, and an empty schedule (a hunt's baseline run) all of them.
struct Filter {
    /// The earliest time the state-based pass has work: the soonest
    /// `TimeElapsed` that is some unarmed fault's current condition, zero
    /// while a fault with no condition left is still unarmed (or an order
    /// prerequisite is already met), [`NEVER`] when only events can move
    /// the state.
    wake_at: SimTime,
    /// Whether any node is waited on for anything. While not, and before
    /// `wake_at`, a probe is turned away without asking which node it is.
    waiting: bool,
    /// Indexed by node number, up to the highest node the schedule names;
    /// a node past the end is waited on for nothing.
    nodes: Vec<NodeWaits>,
}

/// A `wake_at` no run reaches.
const NEVER: SimTime = SimTime(u64::MAX);

impl Filter {
    /// The filter of a fault state, from scratch.
    fn of(faults: &Faults) -> Filter {
        let len = faults.nodes.last().map_or(0, |n| n.0 as usize + 1);
        let mut filter = Filter {
            wake_at: NEVER,
            waiting: false,
            nodes: vec![NodeWaits::default(); len],
        };
        filter.recompute(faults);
        filter
    }

    /// Re-derives the filter in place; allocates nothing.
    fn recompute(&mut self, faults: &Faults) {
        self.wake_at = Filter::wake_at(faults);
        self.waiting = false;
        for (node, waits) in self.nodes.iter_mut().enumerate() {
            *waits = Filter::node_waits(faults, NodeId(node as u32));
            self.waiting |= *waits != NodeWaits::default();
        }
    }

    /// Whether this is the filter [`Filter::recompute`] would derive now.
    fn is_current(&self, faults: &Faults) -> bool {
        let fresh = |node| Filter::node_waits(faults, NodeId(node as u32));
        let mut nodes = self.nodes.iter().enumerate();
        self.wake_at == Filter::wake_at(faults)
            && nodes.all(|(node, waits)| *waits == fresh(node))
            && self.waiting == self.nodes.iter().any(|w| *w != NodeWaits::default())
    }

    fn wake_at(faults: &Faults) -> SimTime {
        let unarmed = faults.schedule.faults.iter().zip(&faults.rt);
        unarmed
            .filter(|(_, rt)| rt.armed_at.is_none() && rt.injected_at.is_none())
            .map(|(fault, rt)| match fault.conditions.get(rt.progress) {
                None => SimTime::ZERO,
                Some(Condition::TimeElapsed { after }) => SimTime::ZERO + *after,
                Some(Condition::AfterFault { fault }) if faults.group_injected(*fault) => {
                    SimTime::ZERO
                }
                Some(_) => NEVER,
            })
            .min()
            .unwrap_or(NEVER)
    }

    fn node_waits(faults: &Faults, node: NodeId) -> NodeWaits {
        let mut waits = NodeWaits::default();
        for (fault, rt) in faults.schedule.faults.iter().zip(&faults.rt) {
            if fault.node != node || rt.injected_at.is_some() {
                continue;
            }
            if rt.armed_at.is_some() {
                match &fault.action {
                    FaultAction::Scf { syscall, .. } => waits.syscalls |= syscall.bit(),
                    _ => waits.ready = true,
                }
                continue;
            }
            match fault.conditions.get(rt.progress) {
                Some(Condition::ExecutionIndex { syscall, .. }) => waits.syscalls |= syscall.bit(),
                Some(Condition::FunctionEntered { .. } | Condition::FunctionOffset { .. }) => {
                    waits.uprobes = true;
                }
                Some(Condition::AfterFault { .. } | Condition::TimeElapsed { .. }) | None => {}
            }
        }
        waits
    }

    fn node(&self, node: NodeId) -> NodeWaits {
        self.nodes.get(node.0 as usize).copied().unwrap_or_default()
    }

    /// Whether no probe or poll at `now` can change anything, on any node.
    fn asleep(&self, now: SimTime) -> bool {
        now < self.wake_at && !self.waiting
    }
}

impl KernelHook for Executor {
    fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, fx: &mut HookEffects) {
        let call = args.call.bit();
        if self.admits(env, |w| w.ready || w.syscalls & call != 0) {
            self.faults.sys_enter(env, args, fx);
            self.refresh_filter();
        }
    }

    fn uprobe(&mut self, env: &HookEnv, function: &str, offset: Option<u32>, fx: &mut HookEffects) {
        if self.admits(env, |w| w.ready || w.uprobes) {
            self.faults.uprobe(env, function, offset, fx);
            self.refresh_filter();
        }
    }

    fn poll(&mut self, now: SimTime, _procs: &ProcTable, fx: &mut HookEffects) {
        if self.filter.asleep(now) {
            return;
        }
        self.faults.poll(now, fx);
        self.refresh_filter();
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rose_events::{Errno, Pid, SimDuration, SyscallId};
    use rose_sim::ChainTable;

    use super::*;
    use crate::schedule::{PartitionKind, ScheduledFault};

    /// The executor as it was before the filter, kept as the reference: every
    /// probe runs the whole pass.
    struct Unfiltered(Executor);

    impl KernelHook for Unfiltered {
        fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, fx: &mut HookEffects) {
            self.0.faults.sys_enter(env, args, fx);
        }

        fn uprobe(
            &mut self,
            env: &HookEnv,
            function: &str,
            offset: Option<u32>,
            fx: &mut HookEffects,
        ) {
            self.0.faults.uprobe(env, function, offset, fx);
        }

        fn poll(&mut self, now: SimTime, _procs: &ProcTable, fx: &mut HookEffects) {
            self.0.faults.poll(now, fx);
        }
    }

    const NODES: u32 = 3;
    const CALLS: [SyscallId; 3] = [SyscallId::Write, SyscallId::Fsync, SyscallId::Openat];
    const PATHS: [&str; 2] = ["/data/log", "/data/snap"];
    /// The calling contexts of the generated runs, as (parent, name); a
    /// condition may also name `ghost`, which no run enters.
    const CHAINS: [(usize, &str); 4] = [(0, "recover"), (1, "load"), (0, "apply"), (3, "flush")];

    /// One unit of virtual time in the generated streams.
    const TICK: SimDuration = SimDuration::from_millis(250);

    fn chain_table() -> (ChainTable, Vec<ChainId>) {
        let mut table = ChainTable::new();
        let mut ids = vec![ChainId::ROOT];
        for (parent, name) in CHAINS {
            ids.push(table.enter(ids[parent], name));
        }
        (table, ids)
    }

    /// A generated fault: node, action, conditions, replicas, all as dice.
    type GenFault = (u32, (u8, u64), Vec<(u8, u64)>, u8);

    fn gen_faults() -> impl Strategy<Value = Vec<GenFault>> {
        let dice = |kinds| (0u8..kinds, 0u64..u64::MAX);
        let conditions = proptest::collection::vec(dice(8), 0..3);
        proptest::collection::vec((0..NODES, dice(6), conditions, 0u8..8), 0..6)
    }

    fn pick<T: Copy>(from: &[T], dice: u64) -> T {
        from[dice as usize % from.len()]
    }

    fn condition_of(
        (kind, dice): (u8, u64),
        (table, ids): &(ChainTable, Vec<ChainId>),
    ) -> Condition {
        let name = pick(&CHAINS, dice >> 8).1.to_string();
        let syscall = pick(&CALLS, dice >> 16);
        let small = 1 + (dice >> 24) % 3;
        match kind {
            0 => Condition::FunctionEntered { name },
            1 => Condition::FunctionOffset {
                name,
                offset: (dice >> 32) as u32 % 2,
            },
            2 | 3 => Condition::ExecutionIndex {
                chain: match (dice >> 32) % 6 {
                    5 => vec!["ghost".to_string()],
                    i => table.names(ids[i as usize]).to_vec(),
                },
                syscall,
                count: small,
            },
            4 => Condition::AfterFault {
                fault: (dice >> 32) as usize % 3,
            },
            _ => Condition::TimeElapsed {
                after: SimDuration::from_micros(TICK.as_micros() * ((dice >> 32) % 40)),
            },
        }
    }

    fn action_of((kind, dice): (u8, u64)) -> FaultAction {
        let node = |shift: u32| NodeId((dice >> shift) as u32 % NODES);
        let duration = SimDuration::from_secs(1 + (dice >> 8) % 5);
        match kind {
            0 => FaultAction::Crash,
            1 => FaultAction::Pause { duration },
            2 => FaultAction::Partition {
                kind: PartitionKind::IsolateNode(node(16)),
                duration: Some(duration),
            },
            3 => FaultAction::Partition {
                // An empty side is allowed: such a split fires without effect.
                kind: PartitionKind::Split {
                    group_a: (0..(dice >> 16) as u32 % 3).map(NodeId).collect(),
                    group_b: (1..NODES).map(NodeId).collect(),
                },
                duration: None,
            },
            4 => FaultAction::Partition {
                kind: PartitionKind::Link {
                    src: node(16),
                    dst: node(24),
                },
                duration: None,
            },
            _ => FaultAction::Scf {
                syscall: pick(&CALLS, dice >> 16),
                errno: Errno::Eio,
                path: ((dice >> 24) % 2 == 0).then(|| pick(&PATHS, dice >> 32).to_string()),
                nth: 1 + (dice >> 40) % 3,
            },
        }
    }

    /// Builds the schedule: zero-condition faults, all six condition kinds,
    /// and amplified replicas (one order group on several nodes).
    fn schedule_of(faults: &[GenFault], chains: &(ChainTable, Vec<ChainId>)) -> FaultSchedule {
        let mut schedule = FaultSchedule::new();
        for (node, action, conditions, replicas) in faults {
            let mut fault = ScheduledFault::new(NodeId(*node), action_of(*action));
            for c in conditions {
                fault = fault.after(condition_of(*c, chains));
            }
            let id = schedule.push(fault);
            // One in four faults is amplified onto one or two other nodes.
            for extra in 1..=u32::from(*replicas).saturating_sub(5) {
                let copy = schedule.faults[id].replicate_to(NodeId((node + extra) % NODES));
                schedule.push(copy);
            }
        }
        schedule
    }

    /// One step of a generated run: how far time moves first, then what
    /// happens, as (kind, dice).
    type GenStep = (u64, u8, u64);

    fn gen_steps() -> impl Strategy<Value = Vec<GenStep>> {
        proptest::collection::vec((0u64..3, 0u8..14, 0u64..u64::MAX), 0..400)
    }

    /// What one generated run reached.
    #[derive(Default)]
    struct Reach {
        injected: usize,
        /// Whether some fault had not fired when the run ended.
        unspent: bool,
        /// Syscall and uprobe probes of the unspent schedule, and how many
        /// of them the filter let in.
        probes: u64,
        admitted: u64,
    }

    /// Drives both executors through one generated run and compares what
    /// each probe asked the kernel to do.
    fn run_both(
        schedule: FaultSchedule,
        enforce: bool,
        steps: &[GenStep],
        chains: &(ChainTable, Vec<ChainId>),
    ) -> Result<Reach, TestCaseError> {
        let build = |s: FaultSchedule| match enforce {
            true => Executor::new(s),
            false => Executor::without_order_enforcement(s),
        };
        let mut filtered = build(schedule.clone());
        let mut reference = Unfiltered(build(schedule));
        let (table, ids) = chains;
        let mut reach = Reach::default();
        // The kernel's execution-index table, per (node, chain, syscall).
        let mut counts = std::collections::BTreeMap::new();

        let mut now = SimTime::ZERO;
        for (i, &(dt, kind, dice)) in steps.iter().enumerate() {
            now += SimDuration::from_micros(TICK.as_micros() * dt);
            let env = HookEnv {
                now,
                node: NodeId((dice % u64::from(NODES)) as u32),
                // Any pid: both executors go by the node the kernel names.
                pid: Pid(dice as u32),
                chain: pick(ids, dice >> 8),
                chains: table,
            };
            let unspent = filtered.faults.rt.iter().any(|rt| rt.injected_at.is_none());
            let unspent = u64::from(unspent);
            let (mut got, mut want) = (HookEffects::none(), HookEffects::none());
            match kind {
                0..=8 => {
                    let mut args = SyscallArgs::bare(pick(&CALLS, dice >> 16));
                    match (dice >> 24) % 3 {
                        0 => args.path = Some(pick(&PATHS, dice >> 32)),
                        1 => args.fd_path = Some(pick(&PATHS, dice >> 32)),
                        _ => {}
                    }
                    let count = counts.entry((env.node, env.chain, args.call)).or_insert(0);
                    *count += 1;
                    args.ei = *count;
                    reach.probes += unspent;
                    let call = args.call.bit();
                    let admitted = filtered.admits(&env, |w| w.ready || w.syscalls & call != 0);
                    reach.admitted += unspent * u64::from(admitted);
                    filtered.sys_enter(&env, &args, &mut got);
                    reference.sys_enter(&env, &args, &mut want);
                }
                9..=12 => {
                    // A uprobe fires inside a function: never at the root.
                    let env = HookEnv {
                        chain: ids[1 + (dice >> 8) as usize % CHAINS.len()],
                        ..env
                    };
                    let function = env.call_chain().last().expect("inside a function");
                    let offset = ((dice >> 16) % 2 == 0).then_some((dice >> 24) as u32 % 2);
                    reach.probes += unspent;
                    let admitted = filtered.admits(&env, |w| w.ready || w.uprobes);
                    reach.admitted += unspent * u64::from(admitted);
                    filtered.uprobe(&env, function, offset, &mut got);
                    reference.uprobe(&env, function, offset, &mut want);
                }
                _ => {
                    filtered.poll(now, &ProcTable::new(), &mut got);
                    reference.poll(now, &ProcTable::new(), &mut want);
                }
            }
            prop_assert_eq!(&got, &want, "step {} ({:?} at {})", i, steps[i], now);
            prop_assert!(
                filtered.filter.is_current(&filtered.faults),
                "stale filter after step {} ({:?})",
                i,
                steps[i]
            );
        }
        prop_assert_eq!(filtered.feedback(), reference.0.feedback());
        prop_assert_eq!(&filtered.faults.rt, &reference.0.faults.rt);
        reach.injected = filtered.feedback().injected.len();
        reach.unspent = reach.injected < filtered.schedule().len();
        Ok(reach)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        #[test]
        fn the_filter_changes_no_probe(
            faults in gen_faults(),
            enforce in any::<bool>(),
            steps in gen_steps(),
        ) {
            let chains = chain_table();
            run_both(schedule_of(&faults, &chains), enforce, &steps, &chains)?;
        }
    }

    #[test]
    fn the_generated_runs_fire_and_filter() {
        // The differential above is worth what its runs reach.
        let chains = chain_table();
        let mut rng = proptest::test_runner::TestRng::deterministic();
        let (mut fired, mut unspent, mut injected) = (0, 0, 0);
        let (mut admitted, mut probes) = (0, 0);
        for case in 0..500 {
            let schedule = schedule_of(&gen_faults().generate(&mut rng), &chains);
            let steps = gen_steps().generate(&mut rng);
            let reach = run_both(schedule, case % 2 == 0, &steps, &chains).expect("equal");
            fired += usize::from(reach.injected > 0);
            unspent += usize::from(reach.unspent);
            injected += reach.injected;
            admitted += reach.admitted;
            probes += reach.probes;
        }
        println!(
            "{fired} of 500 schedules fired {injected} faults, {unspent} stayed unspent; \
             the filter admitted {admitted} of {probes} probes"
        );
        assert!(fired > 250 && injected > 500 && unspent > 100);
        assert!(admitted * 3 < probes && admitted > 1_000);
    }

    #[test]
    fn a_time_armed_crash_waits_for_its_node() {
        // Armed by a probe elsewhere, fired at the node's own next probe:
        // the filter lets exactly those two in.
        let mut s = FaultSchedule::new();
        s.push(
            ScheduledFault::new(NodeId(1), FaultAction::Crash).after(Condition::TimeElapsed {
                after: SimDuration::from_secs(10),
            }),
        );
        let mut ex = Executor::new(s);
        let (table, _) = chain_table();
        let probe = |ex: &mut Executor, node: u32, secs: u64| {
            let env = HookEnv {
                now: SimTime::from_secs(secs),
                node: NodeId(node),
                pid: Pid(0),
                chain: ChainId::ROOT,
                chains: &table,
            };
            let mut fx = HookEffects::none();
            ex.sys_enter(&env, &SyscallArgs::bare(SyscallId::Write), &mut fx);
            fx
        };
        assert_eq!(ex.filter.wake_at, SimTime::from_secs(10));
        assert_eq!(probe(&mut ex, 1, 9), HookEffects::none());
        assert!(ex.feedback().armed.is_empty());
        assert_eq!(probe(&mut ex, 0, 11), HookEffects::none());
        assert_eq!(ex.feedback().armed, vec![0]);
        assert_eq!(ex.filter.wake_at, NEVER);
        assert!(ex.filter.node(NodeId(1)).ready);
        assert_eq!(probe(&mut ex, 0, 12), HookEffects::none());
        assert!(probe(&mut ex, 1, 13).signal().is_some());
        assert_eq!(ex.feedback().injected, vec![(0, 13_000_000)]);
    }
}
