//! Behavioural tests of the simulated OS/cluster substrate, exercised
//! through a small ping/persist application.

use rose_events::{
    CausalEdge, CausalKind, CauseId, EdgeKind, Errno, NodeId, SimDuration, SimTime, SyscallId,
};
use rose_sim::{
    Application, ClientCtx, ClientDriver, HookEffects, HookEnv, KernelHook, NodeCtx, OpenFlags,
    ProcEvent, SignalKind, SignalReq, Sim, SimConfig, SysResult, SyscallArgs,
};

/// A toy app: periodically pings peers, persists a counter, and panics on
/// request.
#[derive(Default)]
struct PingApp {
    msgs_seen: u32,
    pings_seen: u32,
    counter: u64,
}

#[derive(Clone, Debug)]
enum Msg {
    Ping,
    Pong,
    Put(u64),
    PutOk,
}

const TICK: u64 = 1;

impl Application for PingApp {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Msg>) {
        // Recover the counter from disk, tolerating a missing file.
        let ctx = &mut ctx.function("recover");
        match ctx.read_file("/state/counter") {
            Ok(bytes) if bytes.len() == 8 => {
                self.counter = u64::from_le_bytes(bytes.try_into().unwrap());
            }
            Ok(_) => {}
            Err(Errno::Enoent) => {}
            Err(e) => ctx.log(format!("recover failed: {e}")),
        }
        ctx.set_timer(SimDuration::from_millis(100), TICK);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Msg>, tag: u64) {
        assert_eq!(tag, TICK);
        ctx.broadcast(Msg::Ping);
        let jitter = rand::Rng::gen_range(ctx.rng(), 0..10_000);
        ctx.set_timer(SimDuration::from_micros(100_000 + jitter), TICK);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Msg>, from: NodeId, msg: Msg) {
        self.msgs_seen += 1;
        if let Msg::Ping = msg {
            self.pings_seen += 1;
            let _ = ctx.send(from, Msg::Pong);
        }
    }

    fn on_client_request(
        &mut self,
        ctx: &mut NodeCtx<'_, Msg>,
        client: rose_sim::ClientId,
        req: Msg,
    ) {
        if let Msg::Put(v) = req {
            {
                let ctx = &mut ctx.function("persist");
                self.counter = v;
                ctx.at_offset(0);
                let _ = ctx.write_file("/state/counter", &v.to_le_bytes());
                ctx.at_offset(1);
            }
            let _ = ctx.reply(client, Msg::PutOk);
        }
    }
}

/// A hook that records probe firings and optionally injects.
#[derive(Default)]
struct SpyHook {
    sys_enters: u32,
    sys_exits: u32,
    failures: u32,
    uprobes: Vec<(String, Option<u32>)>,
    packets: u32,
    proc_events: Vec<String>,
    /// Fail the nth (1-based) `openat` with EIO, noting the injection.
    fail_openat_at: Option<u32>,
    openat_seen: u32,
    /// Crash the process at entry of this function.
    crash_in: Option<String>,
    /// Stop this node for this long at its next `recv`, once.
    pause_at_next_recv: Option<(NodeId, SimDuration)>,
    /// Order- and timing-sensitive digest of all probe firings.
    fingerprint: u64,
}

impl KernelHook for SpyHook {
    fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, fx: &mut HookEffects) {
        self.sys_enters += 1;
        self.fingerprint = self
            .fingerprint
            .wrapping_mul(31)
            .wrapping_add(env.now.as_micros())
            .wrapping_add(env.pid.0 as u64);
        if args.call == SyscallId::Recv
            && self.pause_at_next_recv.is_some_and(|(n, _)| n == env.node)
        {
            let (_, d) = self.pause_at_next_recv.take().unwrap();
            fx.set_signal(SignalReq {
                node: env.node,
                kind: SignalKind::Pause(d),
            });
        }
        if args.call == SyscallId::Openat {
            self.openat_seen += 1;
            if Some(self.openat_seen) == self.fail_openat_at {
                fx.push_inject(env.node, 0, "SCF(openat)".into());
                fx.set_override(Errno::Eio);
            }
        }
    }

    fn sys_exit(
        &mut self,
        _env: &HookEnv,
        _args: &SyscallArgs,
        result: &SysResult,
        _fx: &mut HookEffects,
    ) {
        self.sys_exits += 1;
        if result.is_err() {
            self.failures += 1;
        }
    }

    fn uprobe(&mut self, env: &HookEnv, function: &str, offset: Option<u32>, fx: &mut HookEffects) {
        self.uprobes.push((function.to_string(), offset));
        if offset.is_none() && self.crash_in.as_deref() == Some(function) {
            fx.set_signal(SignalReq {
                node: env.node,
                kind: SignalKind::Crash,
            });
        }
    }

    fn packet_in(
        &mut self,
        _env: &HookEnv,
        _src: rose_events::IpAddr,
        _dst: rose_events::IpAddr,
        _fx: &mut HookEffects,
    ) {
        self.packets += 1;
    }

    fn proc_event(&mut self, _now: SimTime, event: &ProcEvent) {
        let tag = match event {
            ProcEvent::Restarted { .. } => "restart",
            ProcEvent::Crashed { .. } => "crash",
        };
        self.proc_events.push(tag.to_string());
    }
}

/// A client that sends one Put to node 0 and records the ack.
struct PutClient {
    acked: bool,
}

impl ClientDriver<Msg> for PutClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, Msg>) {
        ctx.send(NodeId(0), Msg::Put(42));
    }

    fn on_timer(&mut self, _ctx: &mut ClientCtx<'_, Msg>, _tag: u64) {}

    fn on_reply(&mut self, _ctx: &mut ClientCtx<'_, Msg>, _from: NodeId, msg: Msg) {
        if matches!(msg, Msg::PutOk) {
            self.acked = true;
        }
    }
}

fn make_sim(seed: u64) -> Sim<PingApp> {
    let mut sim = Sim::new(SimConfig::new(3, seed), |_| PingApp::default());
    sim.add_hook(Box::new(SpyHook::default()));
    sim
}

#[test]
fn cluster_boots_and_exchanges_messages() {
    let mut sim = make_sim(1);
    sim.start();
    sim.run_for(SimDuration::from_secs(2));
    let spy = sim.hook_ref::<SpyHook>().unwrap();
    assert!(
        spy.packets > 50,
        "expected steady ping traffic, saw {}",
        spy.packets
    );
    assert_eq!(spy.sys_enters, spy.sys_exits);
    // Recovery probed the missing counter file on each of 3 nodes.
    assert!(
        spy.uprobes
            .iter()
            .filter(|(f, o)| f == "recover" && o.is_none())
            .count()
            >= 3
    );
    assert!(sim.core().stats.syscalls > 100);
}

#[test]
fn runs_are_deterministic_for_equal_seeds() {
    let run = |seed| {
        let mut sim = make_sim(seed);
        sim.start();
        sim.run_for(SimDuration::from_secs(3));
        let spy = sim.hook_ref::<SpyHook>().unwrap();
        (
            sim.core().stats.syscalls,
            sim.core().stats.packets,
            spy.sys_enters,
            spy.fingerprint,
        )
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds should perturb timing");
}

#[test]
fn client_put_is_persisted_and_recovered_after_crash() {
    let mut sim = make_sim(2);
    let c = sim.add_client(Box::new(PutClient { acked: false }));
    sim.start();
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim.client_ref::<PutClient>(c).unwrap().acked);
    assert_eq!(sim.app(NodeId(0)).unwrap().counter, 42);

    sim.inject_crash(NodeId(0));
    assert!(sim.app(NodeId(0)).is_none());
    sim.run_for(SimDuration::from_secs(5));
    // Supervisor restarted the node and recovery reloaded the counter.
    let app = sim.app(NodeId(0)).expect("node restarted");
    assert_eq!(app.counter, 42);
    assert_eq!(sim.core().stats.restarts, 1);
    // Boot is no lifecycle event: the crash and the restart are all of them.
    let spy = sim.hook_ref::<SpyHook>().unwrap();
    assert_eq!(spy.proc_events, ["crash", "restart"]);
}

#[test]
fn injected_scf_overrides_syscall_and_body_is_skipped() {
    let mut sim = make_sim(3);
    // Fail the very first openat cluster-wide (node 0 boots first: its
    // recovery read of /state/counter).
    sim.hook_mut::<SpyHook>().unwrap().fail_openat_at = Some(1);
    sim.start();
    sim.run_for(SimDuration::from_secs(1));
    let spy = sim.hook_ref::<SpyHook>().unwrap();
    assert!(spy.failures > 0);
    // EIO (injected) is distinguishable from the natural ENOENT: the app
    // logged it.
    assert!(sim.core().logs.grep("recover failed: EIO"));
}

#[test]
fn a_noted_injection_precedes_the_failure_it_causes_in_the_causal_log() {
    let log_of = |record: bool| {
        let mut sim = make_sim(3);
        sim.hook_mut::<SpyHook>().unwrap().fail_openat_at = Some(1);
        if record {
            sim.record_causal();
        }
        sim.start();
        sim.run_for(SimDuration::from_secs(1));
        sim.take_causal_log()
    };
    let log = log_of(true);
    let inject = CausalKind::Inject {
        fault: 0,
        tag: "SCF(openat)".into(),
    };
    let scf = CausalKind::Scf {
        syscall: SyscallId::Openat,
        errno: Errno::Eio,
    };
    assert_eq!(
        (log.nodes[0].node, &log.nodes[0].kind),
        (Some(NodeId(0)), &inject)
    );
    assert_eq!(
        (log.nodes[1].node, &log.nodes[1].kind),
        (Some(NodeId(0)), &scf)
    );
    assert_eq!(
        log.edges[0],
        CausalEdge {
            from: CauseId(0),
            to: CauseId(1),
            kind: EdgeKind::Inject,
        }
    );
    assert!(log_of(false).is_empty());
}

#[test]
fn crash_at_uprobe_kills_node_mid_function() {
    let mut sim = make_sim(4);
    sim.hook_mut::<SpyHook>().unwrap().crash_in = Some("persist".into());
    let _c = sim.add_client(Box::new(PutClient { acked: false }));
    sim.start();
    // The put lands within 2 ms; the supervisor restarts a node 1.5 s after
    // its crash at the earliest.
    sim.run_for(SimDuration::from_secs(1));
    // Node 0 died at the entry of `persist`, before writing the file.
    assert!(sim.app(NodeId(0)).is_none());
    assert!(sim.core().vfs[0].peek("/state/counter").is_none());
    assert_eq!(sim.core().stats.crashes, 1);
}

#[test]
fn pause_buffers_messages_and_resumes() {
    let mut sim = make_sim(5);
    sim.start();
    sim.run_for(SimDuration::from_secs(1));
    let before = sim.app(NodeId(1)).unwrap().pings_seen;
    sim.inject_pause(NodeId(1), SimDuration::from_secs(4));
    sim.run_for(SimDuration::from_secs(2));
    // Paused: no new pings processed.
    assert_eq!(sim.app(NodeId(1)).unwrap().pings_seen, before);
    sim.run_for(SimDuration::from_secs(4));
    // Resumed: buffered + new pings processed.
    assert!(sim.app(NodeId(1)).unwrap().pings_seen > before);
}

#[test]
fn a_pause_during_the_resume_flush_holds_back_the_rest_of_the_buffer() {
    let mut sim = make_sim(5);
    sim.start();
    sim.run_for(SimDuration::from_secs(1));
    sim.inject_pause(NodeId(1), SimDuration::from_secs(2));
    // The first `recv` after SIGCONT stops the process again, for 3 s.
    sim.hook_mut::<SpyHook>().unwrap().pause_at_next_recv =
        Some((NodeId(1), SimDuration::from_secs(3)));
    sim.run_for(SimDuration::from_millis(1_900));
    let before = sim.app(NodeId(1)).unwrap().msgs_seen;
    sim.run_for(SimDuration::from_millis(600));
    // The callback in flight ran to its end; the rest of what the first
    // pause buffered waits for the second SIGCONT with what came since.
    assert_eq!(sim.app(NodeId(1)).unwrap().msgs_seen, before + 1);
    sim.run_for(SimDuration::from_secs(3));
    assert!(sim.app(NodeId(1)).unwrap().msgs_seen > before + 40);
}

#[test]
fn partition_blocks_traffic_and_heals() {
    let mut sim = make_sim(6);
    sim.start();
    sim.run_for(SimDuration::from_secs(1));
    let spy_before = sim.hook_ref::<SpyHook>().unwrap().packets;
    sim.inject_partition(
        &[NodeId(0)],
        &[NodeId(1), NodeId(2)],
        Some(SimDuration::from_secs(3)),
    );
    sim.run_for(SimDuration::from_secs(2));
    // Only n1<->n2 traffic flows: far fewer packets than an open network.
    let spy_mid = sim.hook_ref::<SpyHook>().unwrap().packets;
    assert!(sim.core().net.dropped > 0);
    sim.run_for(SimDuration::from_secs(4));
    let spy_after = sim.hook_ref::<SpyHook>().unwrap().packets;
    // After healing the rate recovers (more packets per unit time).
    let during = spy_mid - spy_before;
    let after = spy_after - spy_mid;
    assert!(
        after > during,
        "healed traffic {after} should exceed partitioned {during}"
    );
    assert_eq!(sim.core().net.active_rules(), 0);
}

#[test]
fn connect_fails_under_partition_and_to_dead_nodes() {
    let mut sim = make_sim(7);
    sim.start();
    sim.run_for(SimDuration::from_secs(1));
    sim.inject_isolation(NodeId(2), None);
    sim.inject_crash(NodeId(1));
    // Well before the supervisor's earliest restart, 1.5 s after the crash.
    sim.run_for(SimDuration::from_millis(100));
    // Drive connects from inside the next callback via a probe: simplest is
    // to inspect kernel state directly through a scripted syscall.
    let core = sim.core_mut();
    let pid = core.procs.main_pid(NodeId(0)).unwrap();
    let vfs_files: Vec<String> = core.vfs[0].paths().map(String::from).collect();
    let _ = vfs_files;
    let r = {
        // Use the public syscall surface via a scratch context.
        let mut ctx = ctx_for(core, NodeId(0), pid);
        ctx.connect(NodeId(2))
    };
    assert_eq!(r.unwrap_err(), Errno::Etimedout);
    let r = {
        let mut ctx = ctx_for(sim.core_mut(), NodeId(0), pid);
        ctx.connect(NodeId(1))
    };
    assert_eq!(r.unwrap_err(), Errno::Econnrefused);
}

/// Builds a NodeCtx for direct kernel poking in tests.
fn ctx_for<'a>(
    core: &'a mut rose_sim::SimCore<Msg>,
    node: NodeId,
    pid: rose_events::Pid,
) -> NodeCtx<'a, Msg> {
    NodeCtx::scratch(core, node, pid)
}

#[test]
fn child_pid_attribution_and_reaping() {
    let mut sim = make_sim(8);
    sim.start();
    sim.run_for(SimDuration::from_millis(200));
    let pid = sim.core().procs.main_pid(NodeId(0)).unwrap();
    let mut seen_child = None;
    {
        let core = sim.core_mut();
        let mut ctx = NodeCtx::scratch(core, NodeId(0), pid);
        ctx.as_child(|c| {
            seen_child = Some(c.pid());
            let fd = c.open("/tmp/child", OpenFlags::Write).unwrap();
            c.write(fd, b"x").unwrap();
            // The child exits without closing; its fd table must be reaped.
        });
    }
    let child = seen_child.unwrap();
    assert_ne!(child, pid);
    assert_eq!(sim.core().procs.node_of(child), Some(NodeId(0)));
    assert!(sim.core().vfs[0]
        .fd_path(child, rose_events::Fd(3))
        .is_none());
    assert_eq!(sim.core().vfs[0].peek("/tmp/child").unwrap(), b"x");
}

#[test]
fn app_panic_is_logged_and_crashes_node() {
    struct Bomb;
    impl Application for Bomb {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut NodeCtx<'_, ()>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_message(&mut self, _: &mut NodeCtx<'_, ()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_, ()>, _: u64) {
            ctx.panic("assert idx == snapshot.idx failed");
        }
    }
    let mut sim: Sim<Bomb> = Sim::new(SimConfig::new(1, 1), |_| Bomb);
    sim.start();
    // The bomb goes off at 10 ms; its restart comes 1.5 s later at the
    // earliest.
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim
        .core()
        .logs
        .grep("PANIC: assert idx == snapshot.idx failed"));
    assert!(sim.app(NodeId(0)).is_none());
    assert_eq!(sim.core().stats.crashes, 1);
}
