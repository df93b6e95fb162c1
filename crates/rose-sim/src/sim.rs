//! The simulation driver: owns the applications and clients and runs the
//! event loop.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use rand::Rng;
use rose_events::{CausalLog, NodeId, Pid, SimDuration, SimTime};

use crate::app::{Application, ClientCtx, ClientDriver, NodeCtx};
use crate::causal::CausalRecorder;
use crate::config::SimConfig;
use crate::hooks::{KernelHook, NetCmd, ProcEvent};
use crate::kernel::{AppPanic, Buffered, CrashPayload, Endpoint, Item, SimCore};
use crate::net::DropRule;
use crate::state::ClientId;
use crate::syscalls::SyscallArgs;

/// Interval of the process-state poller, the kernel's periodic hook poll
/// (paper default: 1 s).
pub(crate) const PROC_POLL_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Delay before the supervisor restarts a crashed node, plus up to 25 %
/// jitter.
pub(crate) const RESTART_DELAY: SimDuration = SimDuration::from_secs(2);

/// Installs a process-wide panic hook that silences the expected simulation
/// unwinds (injected crashes and application panics) while delegating
/// everything else to the previous hook.
fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<CrashPayload>().is_some() || p.downcast_ref::<AppPanic>().is_some()
            {
                return;
            }
            prev(info);
        }));
    });
}

/// A simulated cluster running one [`Application`] per node plus external
/// workload clients, with tracer/injector hooks attached to the kernel.
pub struct Sim<A: Application> {
    core: SimCore<A::Msg>,
    apps: Vec<Option<A>>,
    clients: Vec<Option<Box<dyn ClientDriver<A::Msg>>>>,
    factory: Box<dyn Fn(NodeId) -> A>,
    started: bool,
}

impl<A: Application> Sim<A> {
    /// Creates a cluster; `factory` builds a node's application state at
    /// boot and after each restart.
    pub fn new(cfg: SimConfig, factory: impl Fn(NodeId) -> A + 'static) -> Self {
        install_quiet_panic_hook();
        let n = cfg.nodes as usize;
        Sim {
            core: SimCore::new(cfg),
            apps: (0..n).map(|_| None).collect(),
            clients: Vec::new(),
            factory: Box::new(factory),
            started: false,
        }
    }

    /// Attaches a kernel hook (tracer or injector). Must be called before
    /// [`Sim::start`].
    pub fn add_hook(&mut self, hook: Box<dyn KernelHook>) {
        self.core.hooks.push(hook);
    }

    /// Records causal provenance for this run: the kernel logs
    /// happens-before records (the injections hooks note in their
    /// [`HookEffects`](crate::HookEffects), overridden syscalls, tainted
    /// message receipts, crash/restart/pause transitions) from the next
    /// event on. Without this call the recorder holds nothing and every
    /// recording site is one test.
    pub fn record_causal(&mut self) {
        self.core.causal = CausalRecorder::new();
    }

    /// Records the bug oracle firing now, with an edge from every node's
    /// latest record. Only the first call counts; a no-op unless recording.
    pub fn record_oracle(&mut self) {
        self.core.causal.oracle(self.core.now);
    }

    /// Takes the run's causal log (empty unless recording).
    pub fn take_causal_log(&mut self) -> CausalLog {
        self.core.causal.take_log()
    }

    /// Registers a workload client.
    pub fn add_client(&mut self, client: Box<dyn ClientDriver<A::Msg>>) -> ClientId {
        let id = ClientId(self.clients.len() as u32);
        self.clients.push(Some(client));
        id
    }

    /// Pre-populates a file on a node's disk before boot.
    pub fn install_file(&mut self, node: NodeId, path: &str, data: Vec<u8>) {
        self.core.vfs[node.0 as usize].install(path, data, crate::vfs::DEFAULT_MODE);
    }

    /// Kernel state (logs, history, stats, VFS, process table).
    pub fn core(&self) -> &SimCore<A::Msg> {
        &self.core
    }

    /// Mutable kernel state. Driven by `tests/sim_behaviour.rs` and the root
    /// `tests/alloc_budget.rs`, which issue syscalls on a hand-built
    /// `NodeCtx` and switch restarts off mid-run.
    pub fn core_mut(&mut self) -> &mut SimCore<A::Msg> {
        &mut self.core
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The live application instance of a node, if up.
    pub fn app(&self, node: NodeId) -> Option<&A> {
        self.apps[node.0 as usize].as_ref()
    }

    /// Downcasts an attached hook by type.
    pub fn hook_mut<T: KernelHook>(&mut self) -> Option<&mut T> {
        self.core
            .hooks
            .iter_mut()
            .find_map(|h| (&mut **h as &mut dyn Any).downcast_mut::<T>())
    }

    /// Downcasts an attached hook by type (shared).
    pub fn hook_ref<T: KernelHook>(&self) -> Option<&T> {
        self.core
            .hooks
            .iter()
            .find_map(|h| (&**h as &dyn Any).downcast_ref::<T>())
    }

    /// Downcasts a registered client by type.
    pub fn client_ref<T: 'static>(&self, id: ClientId) -> Option<&T> {
        let client: &dyn Any = &**self.clients.get(id.0 as usize)?.as_ref()?;
        client.downcast_ref::<T>()
    }

    /// Boots the cluster: schedules node starts (staggered), client starts,
    /// and the periodic hook poll.
    pub fn start(&mut self) {
        assert!(!self.started, "Sim::start called twice");
        self.started = true;
        for n in 0..self.core.cfg.nodes {
            let stagger = SimDuration::from_millis(10 * n as u64 + 1);
            self.core.schedule_in(stagger, Item::NodeStart(NodeId(n)));
        }
        for c in 0..self.clients.len() {
            self.core.schedule(
                SimTime::from_millis(50 + c as u64),
                Item::ClientStart(ClientId(c as u32)),
            );
        }
        self.core.schedule_in(PROC_POLL_INTERVAL, Item::Poll);
    }

    /// Runs the event loop until the virtual clock reaches `until`.
    pub fn run_until(&mut self, until: SimTime) {
        assert!(self.started, "Sim::run_until before Sim::start");
        while let Some((at, item)) = self.core.pop_due(until) {
            debug_assert!(
                at >= self.core.now,
                "virtual time ran backwards: an item due at {at} popped at {}",
                self.core.now,
            );
            self.core.now = at;
            self.core.events_executed += 1;
            self.handle(item);
            self.drain_pending_signals();
        }
        if self.core.now < until {
            self.core.now = until;
        }
        debug_assert!(
            !self.core.net.has_overdue_rule(self.core.now),
            "a drop rule outlived its heal, due by {}",
            self.core.now,
        );
    }

    /// Runs the event loop for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.core.now + d;
        self.run_until(t);
    }

    // --- Manual fault injection. The Rose executor injects through hooks
    // instead; `inject_crash`, `inject_isolation` and `inject_partition`
    // are driven by the scenario suites only — `tests/sim_behaviour.rs` and
    // `tests/proptests.rs` here, rose-trace's `tests/tracer_behaviour.rs`,
    // rose-apps' `tests/{redisraft,small_systems}_bugs.rs` and the root
    // `tests/{trace_pipeline,exec_fingerprint}.rs` ------------------------

    /// Crashes a node immediately (between events — coarse, like `kill -9`
    /// from a shell rather than `bpf_send_signal` at a probe point).
    pub fn inject_crash(&mut self, node: NodeId) {
        self.handle_crash(node, "killed (injected fault)".to_string(), false);
    }

    /// Pauses a node for `d` (SIGSTOP/SIGCONT pair).
    pub fn inject_pause(&mut self, node: NodeId, d: SimDuration) {
        self.core.pause_node(node, d);
    }

    /// Isolates a node from all peers, healing after `heal_after` if given.
    pub fn inject_isolation(&mut self, node: NodeId, heal_after: Option<SimDuration>) {
        self.core.apply_net_cmds(vec![NetCmd::Isolate {
            ip: node.ip(),
            heal_after,
        }]);
    }

    /// Partitions the cluster into two groups (bidirectional drops between
    /// groups), healing after `heal_after` if given.
    pub fn inject_partition(
        &mut self,
        group_a: &[NodeId],
        group_b: &[NodeId],
        heal_after: Option<SimDuration>,
    ) {
        let mut cmds = Vec::new();
        for a in group_a {
            for b in group_b {
                for (src, dst) in [(a.ip(), b.ip()), (b.ip(), a.ip())] {
                    cmds.push(NetCmd::Install {
                        rule: DropRule { src, dst },
                        heal_after,
                    });
                }
            }
        }
        self.core.apply_net_cmds(cmds);
    }

    // --- Event handling ---------------------------------------------------

    fn handle(&mut self, item: Item<A::Msg>) {
        match item {
            Item::NodeStart(n) => self.handle_node_start(n),
            Item::ClientStart(c) => {
                self.dispatch_client(c, |cl, ctx| cl.on_start(ctx));
            }
            Item::Deliver {
                to,
                from,
                msg,
                cause,
            } => self.handle_deliver(to, from, msg, cause),
            Item::Timer { ep, tag } => match ep {
                Endpoint::Node(n) => {
                    if self.apps[n.0 as usize].is_none() {
                        return;
                    }
                    if self.core.procs.is_paused(n) {
                        self.core
                            .paused_buf
                            .entry(n)
                            .or_default()
                            .push(Buffered::Timer { tag });
                        return;
                    }
                    self.fire_timer(n, tag);
                }
                Endpoint::Client(c) => {
                    self.dispatch_client(c, |cl, ctx| cl.on_timer(ctx, tag));
                }
            },
            Item::Resume(n, pid) => self.handle_resume(n, pid),
            Item::Heal(id) => self.core.net.remove(id),
            Item::Poll => {
                self.core.fire_poll();
                self.core.schedule_in(PROC_POLL_INTERVAL, Item::Poll);
            }
        }
    }

    fn handle_node_start(&mut self, n: NodeId) {
        if self.apps[n.0 as usize].is_some() {
            return;
        }
        let restart = self.core.procs.has_run(n);
        let pid = self.core.procs.spawn_main(n, self.core.now);
        if restart {
            self.core.generations[n.0 as usize] += 1;
            self.core.stats.restarts += 1;
            self.core.causal.restart(n, self.core.now);
            self.core
                .notify_proc_event(ProcEvent::Restarted { node: n, pid });
        }
        self.apps[n.0 as usize] = Some((self.factory)(n));
        self.dispatch_node(n, |app, ctx| app.on_start(ctx));
    }

    fn handle_deliver(
        &mut self,
        to: Endpoint,
        from: Endpoint,
        msg: A::Msg,
        cause: Option<rose_events::CauseId>,
    ) {
        match to {
            Endpoint::Node(n) => {
                if self.apps[n.0 as usize].is_none() {
                    return;
                }
                if let Endpoint::Node(m) = from {
                    // TC filters drop matching packets before the NIC.
                    let passes = self.core.net.passes(m.ip(), n.ip());
                    self.core.net.account(passes);
                    if !passes {
                        return;
                    }
                    self.core.stats.packets += 1;
                    // XDP ingress tap (node-to-node traffic only).
                    self.core.fire_packet_in(n, m.ip(), n.ip());
                    self.drain_pending_signals();
                    if self.apps[n.0 as usize].is_none() {
                        return;
                    }
                }
                if self.core.procs.is_paused(n) {
                    self.core
                        .paused_buf
                        .entry(n)
                        .or_default()
                        .push(Buffered::Msg { from, msg, cause });
                    return;
                }
                self.deliver_to_node(n, from, msg, cause);
            }
            Endpoint::Client(c) => {
                let Endpoint::Node(m) = from else { return };
                self.dispatch_client(c, |cl, ctx| cl.on_reply(ctx, m, msg));
            }
        }
    }

    /// A message or a timer is about to reach `n`'s application: its
    /// process must be up and not stopped.
    fn debug_assert_runnable(&self, n: NodeId) {
        debug_assert!(
            self.core.procs.main_pid(n).is_some() && !self.core.procs.is_paused(n),
            "an event reached {n}, whose process is paused or has exited",
        );
    }

    fn fire_timer(&mut self, n: NodeId, tag: u64) {
        self.debug_assert_runnable(n);
        self.dispatch_node(n, |app, ctx| app.on_timer(ctx, tag));
    }

    /// Performs the implicit `recv` and invokes the application callback.
    fn deliver_to_node(
        &mut self,
        n: NodeId,
        from: Endpoint,
        msg: A::Msg,
        cause: Option<rose_events::CauseId>,
    ) {
        self.debug_assert_runnable(n);
        if let (Some(c), Endpoint::Node(m)) = (cause, from) {
            self.core.causal.recv(n, m, c, self.core.now);
        }
        self.dispatch_node(n, |app, ctx| {
            let args = SyscallArgs::bare(rose_events::SyscallId::Recv)
                .with_peer(from.ip())
                .with_len(64);
            let pid = ctx.pid;
            match ctx.core.syscall(n, pid, args) {
                Ok(_) => match from {
                    Endpoint::Node(m) => app.on_message(ctx, m, msg),
                    Endpoint::Client(c) => app.on_client_request(ctx, c, msg),
                },
                Err(e) => {
                    let peer = match from {
                        Endpoint::Node(m) => Some(m),
                        Endpoint::Client(_) => None,
                    };
                    app.on_recv_error(ctx, peer, e);
                }
            }
        });
    }

    fn handle_resume(&mut self, n: NodeId, pid: Pid) {
        if self.core.procs.resume(pid).is_none() {
            return;
        }
        self.core.causal.resume(n, self.core.now);
        // SIGCONT drains pending socket data before the process services its
        // timer queue: buffered messages flush first, then timers (each in
        // arrival order). Repeated expirations of the same periodic timer
        // coalesce into one delivery, as with `timerfd`.
        let mut buffered = self.core.paused_buf.remove(&n).unwrap_or_default();
        buffered.sort_by_key(|b| matches!(b, Buffered::Timer { .. }));
        let mut seen_tags = std::collections::BTreeSet::new();
        buffered.retain(|b| match b {
            Buffered::Timer { tag } => seen_tags.insert(*tag),
            Buffered::Msg { .. } => true,
        });
        let mut buffered = buffered.into_iter();
        while let Some(item) = buffered.next() {
            if self.apps[n.0 as usize].is_none() {
                break;
            }
            if self.core.procs.is_paused(n) {
                // A callback of this flush stopped the process again: what
                // it has not serviced waits for the next SIGCONT.
                let rest = std::iter::once(item).chain(buffered);
                self.core.paused_buf.entry(n).or_default().extend(rest);
                break;
            }
            match item {
                Buffered::Msg { from, msg, cause } => self.deliver_to_node(n, from, msg, cause),
                Buffered::Timer { tag } => self.fire_timer(n, tag),
            }
            self.drain_pending_signals();
        }
    }

    /// Runs an application callback under `catch_unwind`, converting crash
    /// signals and application panics into node crashes.
    fn dispatch_node(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut NodeCtx<'_, A::Msg>)) {
        let Some(pid) = self.core.procs.main_pid(node) else {
            // No process, no state.
            self.apps[node.0 as usize] = None;
            return;
        };
        // The state is borrowed where it lives, not moved out and back per
        // event; a callback that unwinds leaves it for the crash path to
        // drop.
        let Some(app) = self.apps[node.0 as usize].as_mut() else {
            return;
        };
        self.core.active = Some((node, pid));
        let core = &mut self.core;
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = NodeCtx { core, node, pid };
            f(app, &mut ctx);
        }));
        self.core.active = None;
        if let Err(payload) = result {
            let (reason, aborted) = if let Some(cp) = payload.downcast_ref::<CrashPayload>() {
                (
                    format!("killed at probe point (injected fault on {})", cp.node),
                    false,
                )
            } else if let Some(ap) = payload.downcast_ref::<AppPanic>() {
                (ap.message.clone(), true)
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                let s = (*s).to_string();
                self.core.log(node, format!("PANIC: {s}"));
                (s, true)
            } else if let Some(s) = payload.downcast_ref::<String>() {
                self.core.log(node, format!("PANIC: {s}"));
                (s.clone(), true)
            } else {
                ("unknown panic".to_string(), true)
            };
            // The callback unwound half-way through the state, which
            // `handle_crash` drops with the process.
            self.handle_crash(node, reason, aborted);
        }
    }

    fn dispatch_client(
        &mut self,
        c: ClientId,
        f: impl FnOnce(&mut dyn ClientDriver<A::Msg>, &mut ClientCtx<'_, A::Msg>),
    ) {
        let Some(mut client) = self.clients.get_mut(c.0 as usize).and_then(Option::take) else {
            return;
        };
        {
            let mut ctx = ClientCtx {
                core: &mut self.core,
                id: c,
            };
            f(client.as_mut(), &mut ctx);
        }
        self.clients[c.0 as usize] = Some(client);
    }

    /// Tears down a node's process: exits the pid, drops volatile state,
    /// notifies hooks, and schedules the supervisor restart.
    fn handle_crash(&mut self, node: NodeId, reason: String, aborted: bool) {
        let Some(pid) = self.core.procs.main_pid(node) else {
            return; // Already down.
        };
        self.core.exit_process(node, pid);
        self.core.stats.crashes += 1;
        self.core.causal.crash(node, aborted, self.core.now);
        self.core.paused_buf.remove(&node);
        self.apps[node.0 as usize] = None;
        self.core.log(node, format!("process down: {reason}"));
        self.core
            .notify_proc_event(ProcEvent::Crashed { node, pid, aborted });
        if self.core.cfg.auto_restart {
            let base = RESTART_DELAY.as_micros();
            let jitter = self.core.rng.gen_range(0.75..1.25_f64);
            let delay = SimDuration::from_micros((base as f64 * jitter) as u64);
            self.core.schedule_in(delay, Item::NodeStart(node));
        }
    }

    fn drain_pending_signals(&mut self) {
        while let Some(node) = self.core.pending_crashes.pop() {
            self.handle_crash(node, "killed at probe point (injected fault)".into(), false);
        }
    }
}
