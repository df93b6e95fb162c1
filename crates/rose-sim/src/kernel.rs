//! The simulated kernel: event queue, syscall dispatch through the hook
//! chain, uprobes, signals, and network delivery.
//!
//! [`SimCore`] owns everything except the application instances themselves
//! (which live in [`crate::sim::Sim`], generic over the application type).

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::mem;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rose_events::{Errno, IpAddr, NodeId, Pid, SimDuration, SimTime, SyscallId};

use crate::causal::CausalRecorder;
use crate::chain::{ChainId, ChainTable};
use crate::config::SimConfig;
use crate::hooks::{HookEffects, HookEnv, KernelHook, NetCmd, ProcEvent, SignalKind, SignalReq};
use crate::net::NetState;
use crate::process::{ProcTable, RunState};
use crate::queue::EventQueue;
use crate::state::{ClientId, History, Logs, SimStats};
use crate::syscalls::{SysResult, SyscallArgs};
use crate::vfs::Vfs;

/// A message destination or source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    /// A cluster node.
    Node(NodeId),
    /// A workload client.
    Client(ClientId),
}

impl Endpoint {
    /// The simulated address of the endpoint. Clients live on a distinct
    /// prefix so node and client traffic never collide.
    pub fn ip(self) -> IpAddr {
        match self {
            Endpoint::Node(n) => n.ip(),
            Endpoint::Client(c) => IpAddr(1_000 + c.0),
        }
    }
}

/// Items on the simulation event queue.
#[derive(Debug)]
pub(crate) enum Item<M> {
    /// Start (or restart) a node's process.
    NodeStart(NodeId),
    /// Invoke a client's `on_start`.
    ClientStart(ClientId),
    /// Deliver a message.
    Deliver {
        /// Destination.
        to: Endpoint,
        /// Source.
        from: Endpoint,
        /// Payload.
        msg: M,
        /// The sender's causal frontier at send time, when it was tainted
        /// by an injection (provenance for the send → recv edge).
        cause: Option<rose_events::CauseId>,
    },
    /// Fire a timer.
    Timer {
        /// Destination.
        ep: Endpoint,
        /// Application-chosen tag.
        tag: u64,
    },
    /// Resume a paused process.
    Resume(NodeId, Pid),
    /// Remove a TC drop rule (partition heal).
    Heal(u64),
    /// Periodic hook poll (procfs reader, time-based fault conditions).
    Poll,
}

/// An item buffered while a process is paused (SIGSTOP semantics: the socket
/// buffer and timer queue drain only after SIGCONT).
#[derive(Debug)]
pub(crate) enum Buffered<M> {
    /// A message awaiting the implicit `recv`.
    Msg {
        /// Source endpoint.
        from: Endpoint,
        /// Payload.
        msg: M,
        /// Causal provenance carried by the buffered message.
        cause: Option<rose_events::CauseId>,
    },
    /// A pending timer.
    Timer {
        /// Application tag.
        tag: u64,
    },
}

/// Panic payload for an injected crash: unwinds the application callback at
/// the exact kernel boundary where the signal was delivered.
#[derive(Debug)]
pub struct CrashPayload {
    /// The node whose process was killed.
    pub node: NodeId,
}

/// Panic payload for an application-level fatal error (failed assertion,
/// uncaught exception): the bug manifesting.
#[derive(Debug)]
pub struct AppPanic {
    /// The application's panic message (bug oracles grep the log for it).
    pub message: String,
}

/// The non-generic part of the simulated kernel state.
pub struct SimCore<M> {
    /// Run configuration.
    pub cfg: SimConfig,
    /// Current simulated time.
    pub now: SimTime,
    queue: EventQueue<Item<M>>,
    /// The run's RNG — the single source of nondeterminism.
    pub rng: SmallRng,
    /// Process table.
    pub procs: ProcTable,
    /// Per-node filesystems.
    pub vfs: Vec<Vfs>,
    /// Network filters and counters.
    pub net: NetState,
    /// Attached kernel hooks (tracers, injectors).
    pub hooks: Vec<Box<dyn KernelHook>>,
    /// Application log.
    pub logs: Logs,
    /// Client operation history.
    pub history: History,
    /// What the run's oracle keeps between polls; see
    /// [`SimCore::oracle_state`].
    oracle_state: RefCell<Option<Box<dyn Any>>>,
    /// Run counters.
    pub stats: SimStats,
    /// The run's causal provenance recorder. Only the kernel writes it: a
    /// hook's part is the injection notes in its [`HookEffects`]. Disabled
    /// (free) unless [`crate::Sim::record_causal`] turned it on.
    pub(crate) causal: CausalRecorder,
    /// Queue items handled so far (the per-run simulated-event count).
    pub(crate) events_executed: u64,
    /// `events_executed` at the moment the first fault-injecting hook
    /// effect was applied; `None` until then. It feeds
    /// `RunObservation::events_before_injection`, whose only reader is the
    /// benchmark's mirror (`bench/src/mirror.rs` builds one from it);
    /// ROADMAP item 2(b) deletes both.
    pub(crate) first_injection_events: Option<u64>,
    /// Per-node pending CPU time, drained into the next outbound message
    /// latency (the overhead model).
    busy: Vec<SimDuration>,
    pub(crate) paused_buf: BTreeMap<NodeId, Vec<Buffered<M>>>,
    /// Per-node restart generation (0 = first boot).
    pub(crate) generations: Vec<u32>,
    /// The run's calling-context tree: every distinct function-entry chain
    /// interned once.
    pub(crate) chains: ChainTable,
    /// Current calling context per pid, indexed by the pid's number (a pid
    /// past the end is outside any function). Entering a function moves to
    /// a child chain, leaving to the parent.
    fn_stack: Vec<ChainId>,
    /// Execution-index counts: how many calls of each syscall each node
    /// has entered under each calling context this run, one row per
    /// `(chain, node)` at `chain * nodes + node` (chain ids are dense, so a
    /// count is one index operation; the table grows to a row the first
    /// time a call reaches it). Per node: a restarted process continues
    /// its node's counts and a child helper shares them.
    call_counts: Vec<[u32; SyscallId::ALL.len()]>,
    /// Crash signals raised by hooks against nodes other than the one
    /// currently executing; drained by the driver after each callback.
    pub(crate) pending_crashes: Vec<NodeId>,
    /// The node/pid whose callback is currently executing, if any.
    pub(crate) active: Option<(NodeId, Pid)>,
}

impl<M> SimCore<M> {
    /// Creates kernel state for `cfg.nodes` nodes.
    pub fn new(cfg: SimConfig) -> Self {
        let n = cfg.nodes as usize;
        SimCore {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            procs: ProcTable::new(),
            vfs: (0..n).map(|_| Vfs::new()).collect(),
            net: NetState::new(),
            hooks: Vec::new(),
            logs: Logs::default(),
            history: History::default(),
            oracle_state: RefCell::new(None),
            stats: SimStats::default(),
            causal: CausalRecorder::disabled(),
            events_executed: 0,
            first_injection_events: None,
            busy: vec![SimDuration::ZERO; n],
            paused_buf: BTreeMap::new(),
            generations: vec![0; n],
            chains: ChainTable::new(),
            fn_stack: Vec::new(),
            call_counts: Vec::new(),
            pending_crashes: Vec::new(),
            active: None,
        }
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> u32 {
        self.cfg.nodes
    }

    /// Queue items handled so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// [`Self::events_executed`] at the first injected effect, if any fault
    /// has fired.
    pub fn first_injection_events(&self) -> Option<u64> {
        self.first_injection_events
    }

    /// Marks the first injection point (first call wins).
    fn note_injection(&mut self) {
        if self.first_injection_events.is_none() {
            self.first_injection_events = Some(self.events_executed);
        }
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.cfg.nodes).map(NodeId)
    }

    /// Schedules an item at an absolute time.
    pub(crate) fn schedule(&mut self, at: SimTime, item: Item<M>) {
        self.queue.schedule(at, item);
    }

    /// Schedules an item after a delay.
    pub(crate) fn schedule_in(&mut self, delay: SimDuration, item: Item<M>) {
        let at = self.now + delay;
        self.schedule(at, item);
    }

    /// Pops the next item and its time if it is due at or before `limit`.
    pub(crate) fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, Item<M>)> {
        self.queue.pop_due(limit)
    }

    /// Samples a one-way message latency.
    pub(crate) fn sample_latency(&mut self) -> SimDuration {
        let lo = self.cfg.net_latency_min.as_micros();
        let hi = self.cfg.net_latency_max.as_micros().max(lo + 1);
        SimDuration::from_micros(self.rng.gen_range(lo..hi))
    }

    /// Adds CPU time to a node's pending-busy accumulator.
    pub(crate) fn charge(&mut self, node: NodeId, d: SimDuration) {
        if d != SimDuration::ZERO {
            self.busy[node.0 as usize] += d;
        }
    }

    /// Drains a node's pending CPU time (folded into its next send).
    pub(crate) fn drain_busy(&mut self, node: NodeId) -> SimDuration {
        mem::take(&mut self.busy[node.0 as usize])
    }

    /// Writes an application log line.
    pub fn log(&mut self, node: NodeId, line: impl Into<String>) {
        self.logs.push(self.now, node, line.into());
    }

    /// Runs `f` on the oracle's per-run state, a `T::default()` the first
    /// time. An oracle is a method of the target system, and one target
    /// system value judges every run of a campaign (across worker threads),
    /// so what a checker has already read of *this* run's journal or history
    /// — its cursor and the tables behind it — lives here, on the run, and
    /// goes away with it. One slot: a run has one oracle; asking for another
    /// type starts that type afresh.
    pub fn oracle_state<T: Any + Default, R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut slot = self.oracle_state.borrow_mut();
        if let Some(state) = slot.as_mut().and_then(|state| state.downcast_mut::<T>()) {
            return f(state);
        }
        let mut fresh = T::default();
        let out = f(&mut fresh);
        *slot = Some(Box::new(fresh));
        out
    }

    /// Notifies every hook of a process event.
    pub(crate) fn notify_proc_event(&mut self, event: ProcEvent) {
        let now = self.now;
        for h in &mut self.hooks {
            h.proc_event(now, &event);
        }
    }

    /// Executes one system call on behalf of `pid` on `node`: runs the hook
    /// chain (`sys_enter` → body-or-override → `sys_exit`), applies effects,
    /// and returns the result the application sees.
    ///
    /// # Panics
    ///
    /// Unwinds with [`CrashPayload`] if a hook delivers a kill signal to the
    /// calling process — the mechanism by which an injected crash stops the
    /// application at this exact kernel boundary.
    pub(crate) fn syscall(&mut self, node: NodeId, pid: Pid, args: SyscallArgs<'_>) -> SysResult {
        // The descriptor's path as the table has it before the call runs,
        // shown unchanged to `sys_enter` and `sys_exit`: the chain needs no
        // descriptor bookkeeping of its own. A reference of the shared path,
        // not a copy; it outlives a `close` of the descriptor.
        let fd_path = args
            .fd
            .and_then(|fd| self.vfs[node.0 as usize].fd_path_shared(pid, fd))
            .cloned();
        let chain = self.chain_of(pid);
        // Counted at entry, before any hook runs. Every entered call also
        // exits (an overridden one too), so `sys_exit` sees the same index.
        let ei = self.count_call(node, chain, args.call);
        let args = SyscallArgs {
            fd_path: fd_path.as_deref(),
            ei,
            ..args
        };
        let env = HookEnv {
            now: self.now,
            node,
            pid,
            chain,
            chains: &self.chains,
        };
        let mut fx = HookEffects::none();
        for h in &mut self.hooks {
            h.sys_enter(&env, &args, &mut fx);
        }
        self.record_injections(&mut fx);

        let result = match fx.override_errno {
            // `bpf_override_return`: skip the body entirely, return the
            // scheduled errno (paper §4.6.2).
            Some(errno) => {
                self.causal.scf(node, args.call, errno, self.now);
                Err(errno)
            }
            None => self.exec_syscall(node, pid, &args),
        };

        self.stats.count_syscall(args.call, result.is_err());
        self.charge(node, self.cfg.syscall_exec_cost);

        let env = HookEnv {
            now: self.now,
            node,
            pid,
            chain,
            chains: &self.chains,
        };
        for h in &mut self.hooks {
            h.sys_exit(&env, &args, &result, &mut fx);
        }

        self.apply_effects(Some(node), &mut fx);
        result
    }

    /// Counts one more call of `call` under `chain` on `node` and returns
    /// the new count: the call's execution index.
    fn count_call(&mut self, node: NodeId, chain: ChainId, call: SyscallId) -> u32 {
        let row = chain.index() * self.cfg.nodes as usize + node.0 as usize;
        if row >= self.call_counts.len() {
            self.call_counts.resize(row + 1, [0; SyscallId::ALL.len()]);
        }
        let count = &mut self.call_counts[row][call as usize];
        *count += 1;
        *count
    }

    /// A pid's live calling context.
    pub(crate) fn chain_of(&self, pid: Pid) -> ChainId {
        self.fn_stack
            .get(pid.0 as usize)
            .copied()
            .unwrap_or(ChainId::ROOT)
    }

    /// Fires the uprobe chain for the entry of `pid`'s innermost function
    /// (`offset == None`) or an instrumented offset inside it.
    ///
    /// # Panics
    ///
    /// Unwinds with [`CrashPayload`] on an injected kill, like
    /// [`Self::syscall`]; panics if `pid` is outside any entered function.
    pub(crate) fn fire_uprobe(&mut self, node: NodeId, pid: Pid, offset: Option<u32>) {
        let env = HookEnv {
            now: self.now,
            node,
            pid,
            chain: self.chain_of(pid),
            chains: &self.chains,
        };
        let function = env
            .call_chain()
            .last()
            .expect("uprobe outside an entered function");
        let mut fx = HookEffects::none();
        for h in &mut self.hooks {
            h.uprobe(&env, function, offset, &mut fx);
        }
        self.apply_effects(Some(node), &mut fx);
    }

    /// Fires the XDP ingress tap for a node-to-node packet.
    pub(crate) fn fire_packet_in(&mut self, dst_node: NodeId, src: IpAddr, dst: IpAddr) {
        let pid = self.procs.main_pid(dst_node).unwrap_or_default();
        let env = HookEnv {
            now: self.now,
            node: dst_node,
            pid,
            chain: self.chain_of(pid),
            chains: &self.chains,
        };
        let mut fx = HookEffects::none();
        for h in &mut self.hooks {
            h.packet_in(&env, src, dst, &mut fx);
        }
        self.apply_effects(Some(dst_node), &mut fx);
    }

    /// Runs the periodic hook poll.
    pub(crate) fn fire_poll(&mut self) {
        let mut fx = HookEffects::none();
        for h in &mut self.hooks {
            h.poll(self.now, &self.procs, &mut fx);
        }
        self.apply_effects(None, &mut fx);
    }

    /// Records the injections the hooks noted in `fx`, after their loop and
    /// before the kernel acts on the effects — so an injection precedes the
    /// syscall failure, crash or pause it causes.
    fn record_injections(&mut self, fx: &mut HookEffects) {
        // Nearly every probe notes nothing: keep its path to one test.
        if fx.injections.is_empty() {
            return;
        }
        for (node, fault, tag) in fx.injections.drain(..) {
            self.causal.inject(node, fault, tag, self.now);
        }
    }

    /// Applies the effects the hooks wrote at one interception point.
    /// `probe` is the node whose process made the probe; the poll has none:
    /// it runs on a kernel thread, so it charges no node and its crashes
    /// wait for the driver loop.
    fn apply_effects(&mut self, probe: Option<NodeId>, effects: &mut HookEffects) {
        self.record_injections(effects);
        if effects.is_injecting() {
            self.note_injection();
        }
        if let Some(node) = probe {
            self.charge(node, effects.charge);
        }
        self.apply_net_cmds(mem::take(&mut effects.net));
        if let Some(signal) = effects.signal {
            self.deliver_signal(probe, signal);
        }
    }

    /// Delivers a crash/pause signal. A crash of the node whose callback
    /// made the probe takes effect here (it unwinds); every other crash is
    /// deferred to the driver loop.
    fn deliver_signal(&mut self, probe: Option<NodeId>, SignalReq { node, kind }: SignalReq) {
        let unwinds = probe == Some(node) && self.active.map(|(n, _)| n) == probe;
        match kind {
            SignalKind::Crash if unwinds => {
                // SAFETY-adjacent note: this is control flow, not UB — the
                // driver catches the unwind at the callback boundary.
                std::panic::panic_any(CrashPayload { node });
            }
            SignalKind::Crash => self.pending_crashes.push(node),
            SignalKind::Pause(d) => self.pause_node(node, d),
        }
    }

    /// Stops `node`'s main process, if it is up, for `d` (a
    /// SIGSTOP/SIGCONT pair).
    pub(crate) fn pause_node(&mut self, node: NodeId, d: SimDuration) {
        if let Some(pid) = self.procs.main_pid(node) {
            self.procs.pause(pid, self.now);
            self.causal.pause(node, self.now);
            self.schedule_in(d, Item::Resume(node, pid));
        }
    }

    pub(crate) fn apply_net_cmds(&mut self, cmds: Vec<NetCmd>) {
        for cmd in cmds {
            match cmd {
                NetCmd::Install { rule, heal_after } => {
                    let heal_at = heal_after.map(|d| self.now + d);
                    let id = self.net.install(rule, heal_at);
                    if let Some(at) = heal_at {
                        self.schedule(at, Item::Heal(id));
                    }
                }
                NetCmd::Isolate { ip, heal_after } => {
                    let heal_at = heal_after.map(|d| self.now + d);
                    let peers: Vec<IpAddr> = self.node_ids().map(|n| n.ip()).collect();
                    for id in self.net.isolate(ip, peers, heal_at) {
                        if let Some(at) = heal_at {
                            self.schedule(at, Item::Heal(id));
                        }
                    }
                }
            }
        }
    }

    /// The system-call bodies: routes each call to the VFS or network state.
    fn exec_syscall(&mut self, node: NodeId, pid: Pid, args: &SyscallArgs<'_>) -> SysResult {
        use crate::syscalls::SysRet;
        let vfs = &mut self.vfs[node.0 as usize];
        match args.call {
            SyscallId::Open | SyscallId::Openat => {
                let path = args.path.unwrap_or("");
                let flags = args.flags.unwrap_or(crate::syscalls::OpenFlags::Read);
                vfs.open(pid, path, flags)
            }
            SyscallId::Close => vfs.close(pid, args.fd.ok_or(Errno::Ebadf)?),
            SyscallId::Read => vfs.read(pid, args.fd.ok_or(Errno::Ebadf)?, args.len),
            SyscallId::Write => {
                let fd = args.fd.ok_or(Errno::Ebadf)?;
                match args.data_prefix {
                    Some(data) => vfs.write(pid, fd, data),
                    None => vfs.write(pid, fd, &vec![0u8; args.len]),
                }
            }
            SyscallId::Fsync => vfs.fsync(pid, args.fd.ok_or(Errno::Ebadf)?),
            SyscallId::Stat => vfs.stat(args.path.unwrap_or("")),
            SyscallId::Fstat => vfs.fstat(pid, args.fd.ok_or(Errno::Ebadf)?),
            SyscallId::Rename => {
                // `path` carries "from\0to".
                let p = args.path.unwrap_or("");
                let (from, to) = p.split_once('\0').ok_or(Errno::Einval)?;
                vfs.rename(from, to)
            }
            SyscallId::Unlink => vfs.unlink(args.path.unwrap_or("")),
            SyscallId::Dup => vfs.dup(pid, args.fd.ok_or(Errno::Ebadf)?),
            SyscallId::Readlink => vfs.readlink(args.path.unwrap_or("")),
            SyscallId::Connect => {
                let peer = args.peer.ok_or(Errno::Einval)?;
                let me = node.ip();
                if !self.net.passes(me, peer) || !self.net.passes(peer, me) {
                    return Err(Errno::Etimedout);
                }
                match peer.node() {
                    Some(p) if p.0 < self.cfg.nodes => {
                        if self.procs.main_pid(p).is_some() {
                            Ok(SysRet::Unit)
                        } else {
                            Err(Errno::Econnrefused)
                        }
                    }
                    // A configured-but-undeployed address (e.g. a standby
                    // namenode that was never brought up) refuses.
                    Some(_) => Err(Errno::Econnrefused),
                    None => Ok(SysRet::Unit),
                }
            }
            SyscallId::Accept | SyscallId::Send | SyscallId::Recv => Ok(SysRet::Unit),
        }
    }

    /// Pushes a function onto a pid's stack (uprobe attribution): one
    /// lookup in the chain table, which allocates only the first time this
    /// run sees the resulting chain.
    pub(crate) fn push_function(&mut self, pid: Pid, name: &str) {
        let pid = pid.0 as usize;
        if self.fn_stack.len() <= pid {
            self.fn_stack.resize(pid + 1, ChainId::ROOT);
        }
        let chain = &mut self.fn_stack[pid];
        *chain = self.chains.enter(*chain, name);
    }

    /// Pops a function from a pid's stack (a [`crate::FnScope`] dropped).
    pub(crate) fn pop_function(&mut self, pid: Pid) {
        if let Some(chain) = self.fn_stack.get_mut(pid.0 as usize) {
            *chain = self.chains.parent(*chain);
        }
    }

    /// Exits `pid` — and every child helper with it — and clears the
    /// bookkeeping of each process that exited.
    pub(crate) fn exit_process(&mut self, node: NodeId, pid: Pid) {
        for gone in self.procs.exit(pid) {
            self.vfs[node.0 as usize].drop_process(gone);
            if let Some(chain) = self.fn_stack.get_mut(gone.0 as usize) {
                *chain = ChainId::ROOT;
            }
        }
        debug_assert!(
            self.vfs[node.0 as usize]
                .descriptor_owners()
                .all(|owner| self
                    .procs
                    .get(owner)
                    .is_some_and(|e| e.state != RunState::Exited)),
            "{node} still holds a descriptor of an exited process after reaping {pid:?}",
        );
    }
}
