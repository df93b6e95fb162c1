//! Per-pid function-stack attribution: the calling context the kernel hands
//! to hooks as [`HookEnv::chain`] (names through [`HookEnv::call_chain`]) —
//! the execution-index key — across nested functions, forked child helpers,
//! and crash/restart cycles.

use rose_events::{NodeId, Pid, SimDuration, SyscallId};
use rose_sim::{
    Application, HookEffects, HookEnv, KernelHook, NodeCtx, SignalKind, SignalReq, Sim, SimConfig,
    SyscallArgs,
};

/// Records the calling context of every `sys_enter`, and optionally crashes
/// the current process at the entry of one function.
#[derive(Default)]
struct ChainSpy {
    /// `(pid, syscall, chain)` per syscall entry on node 0.
    chains: Vec<(Pid, SyscallId, Vec<String>)>,
    /// Crash the current process at entry of this function (once).
    crash_in: Option<String>,
    crashes_fired: u32,
}

impl KernelHook for ChainSpy {
    fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, _fx: &mut HookEffects) {
        if env.node == NodeId(0) {
            self.chains
                .push((env.pid, args.call, env.call_chain().to_vec()));
        }
    }

    fn uprobe(&mut self, env: &HookEnv, function: &str, offset: Option<u32>, fx: &mut HookEffects) {
        if offset.is_none()
            && env.node == NodeId(0)
            && self.crash_in.as_deref() == Some(function)
            && self.crashes_fired == 0
        {
            self.crashes_fired += 1;
            fx.set_signal(SignalReq {
                node: env.node,
                kind: SignalKind::Crash,
            });
        }
    }
}

/// An app exercising every attribution path: nested functions on boot, a
/// forked child helper, and a periodic tick that can be crashed mid-function.
struct ChainApp;

#[derive(Clone, Debug)]
enum NoMsg {}

const TICK: u64 = 1;

impl Application for ChainApp {
    type Msg = NoMsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, NoMsg>) {
        ctx.enter_function("recover");
        ctx.enter_function("loadSegment");
        let _ = ctx.read_file("/state/log");
        ctx.exit_function();
        ctx.exit_function();
        // A helper pid forked mid-function: its work must NOT inherit the
        // parent's chain, and the parent's chain must survive the fork.
        ctx.enter_function("snapshot");
        ctx.as_child(|child| {
            child.enter_function("compressSnapshot");
            let _ = child.write_file("/state/snap.tmp", b"snap");
            child.exit_function();
        });
        let _ = ctx.rename("/state/snap.tmp", "/state/snap");
        ctx.exit_function();
        ctx.set_timer(SimDuration::from_millis(50), TICK);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, NoMsg>, _from: NodeId, msg: NoMsg) {
        match msg {}
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, NoMsg>, _tag: u64) {
        ctx.enter_function("tick");
        let _ = ctx.write_file("/state/tick", b"t");
        ctx.exit_function();
        ctx.set_timer(SimDuration::from_millis(50), TICK);
    }
}

fn spy(sim: &Sim<ChainApp>) -> &ChainSpy {
    sim.hook_ref::<ChainSpy>().unwrap()
}

fn make_sim(seed: u64) -> Sim<ChainApp> {
    let mut sim = Sim::new(SimConfig::new(1, seed), |_| ChainApp);
    sim.add_hook(Box::new(ChainSpy::default()));
    sim
}

#[test]
fn syscalls_carry_the_live_function_chain() {
    let mut sim = make_sim(1);
    sim.start();
    sim.run_for(SimDuration::from_millis(200));
    let spy = spy(&sim);
    // The boot-time read executed under recover > loadSegment.
    assert!(
        spy.chains
            .iter()
            .any(|(_, call, chain)| *call == SyscallId::Openat
                && chain == &["recover".to_string(), "loadSegment".to_string()]),
        "no openat attributed to [recover > loadSegment]: {:?}",
        spy.chains
    );
    // After both exits, the rename ran under [snapshot] only — pops are
    // reflected immediately.
    assert!(spy
        .chains
        .iter()
        .any(|(_, call, chain)| *call == SyscallId::Rename && chain == &["snapshot".to_string()]));
}

#[test]
fn forked_child_has_its_own_chain() {
    let mut sim = make_sim(2);
    sim.start();
    sim.run_for(SimDuration::from_millis(200));
    let spy = spy(&sim);
    let main_pid = spy.chains.first().expect("boot syscalls").0;
    // The child helper's writes are attributed to its own pid and its own
    // chain — no "snapshot" frame leaks in from the parent.
    let child_writes: Vec<_> = spy
        .chains
        .iter()
        .filter(|(pid, call, _)| *pid != main_pid && *call == SyscallId::Write)
        .collect();
    assert!(!child_writes.is_empty(), "child helper performed no writes");
    for (_, _, chain) in &child_writes {
        assert_eq!(chain, &["compressSnapshot".to_string()]);
    }
    // The parent's rename still sees its own intact chain after the fork.
    assert!(spy.chains.iter().any(|(pid, call, chain)| *pid == main_pid
        && *call == SyscallId::Rename
        && chain == &["snapshot".to_string()]));
}

#[test]
fn crash_mid_function_resets_the_chain_on_restart() {
    let mut sim = make_sim(3);
    sim.hook_mut::<ChainSpy>().unwrap().crash_in = Some("tick".into());
    sim.start();
    // Long enough to boot, crash inside the first tick, restart (supervisor
    // delay), and run recovery plus further ticks on the new pid.
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(sim.core().stats.restarts, 1, "node must have restarted");
    let spy = spy(&sim);
    let first_pid = spy.chains.first().expect("boot syscalls").0;
    let restarted: Vec<_> = spy
        .chains
        .iter()
        .filter(|(pid, _, _)| *pid != first_pid)
        .collect();
    assert!(!restarted.is_empty(), "no syscalls after restart");
    // The crash fired at the entry of `tick`, which never popped. The
    // restarted process must start from an empty stack: its recovery reads
    // run under [recover > loadSegment] with no stale `tick` frame.
    for (_, _, chain) in &restarted {
        assert!(
            !chain.contains(&"tick".to_string()) || chain == &["tick".to_string()],
            "stale pre-crash frame leaked into the restarted chain: {chain:?}"
        );
    }
    assert!(restarted
        .iter()
        .any(|(_, call, chain)| *call == SyscallId::Openat
            && chain == &["recover".to_string(), "loadSegment".to_string()]));
}
