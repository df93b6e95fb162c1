//! Per-pid function-stack attribution: the calling context the kernel hands
//! to hooks as [`HookEnv::chain`] (names through [`HookEnv::call_chain`]) —
//! the execution-index key — across nested function scopes however they
//! end, forked child helpers, and crash/restart cycles; and the index the
//! kernel counts under that key ([`SyscallArgs::ei`]), per node.

use std::collections::BTreeMap;

use rose_events::{Errno, Fd, NodeId, Pid, SimDuration, SyscallId};
use rose_sim::{
    Application, HookEffects, HookEnv, KernelHook, NodeCtx, RunState, SignalKind, SignalReq, Sim,
    SimConfig, SysResult, SysRet, SyscallArgs,
};

/// Where [`ChainSpy`] crashes the current process (once).
#[derive(Clone, Copy)]
enum CrashPoint {
    /// At the entry of this function.
    Entry(&'static str),
    /// At a call of this syscall made directly inside this function.
    Call(&'static str, SyscallId),
}

/// One syscall entry on node 0.
#[derive(Debug)]
struct Seen {
    pid: Pid,
    call: SyscallId,
    path: Option<String>,
    chain: Vec<String>,
    /// The execution index the kernel handed the call.
    ei: u32,
}

/// Records the calling context of every `sys_enter` and the descriptors
/// `openat` hands out, holds the kernel's execution index to a count of its
/// own at every `sys_enter` and `sys_exit`, and optionally crashes the
/// current process at one probe point.
#[derive(Default)]
struct ChainSpy {
    seen: Vec<Seen>,
    /// Calls entered per `(node, chain names, syscall)` since the run
    /// began: what the kernel's index must equal.
    counts: BTreeMap<(NodeId, Vec<String>, SyscallId), u32>,
    /// `(pid, fd)` of every successful `openat` on node 0.
    opened: Vec<(Pid, Fd)>,
    crash: Option<CrashPoint>,
    crashes_fired: u32,
}

impl ChainSpy {
    fn crash_once(&mut self, env: &HookEnv, fx: &mut HookEffects) {
        if self.crashes_fired == 0 {
            self.crashes_fired += 1;
            fx.set_signal(SignalReq {
                node: env.node,
                kind: SignalKind::Crash,
            });
        }
    }

    /// The chain of the (first) syscall about `path`.
    fn chain_at(&self, path: &str) -> &[String] {
        &self
            .seen
            .iter()
            .find(|s| s.path.as_deref() == Some(path))
            .unwrap_or_else(|| panic!("no syscall about {path}: {:?}", self.seen))
            .chain
    }

    /// The spy's count of the probe's `(node, chain, syscall)`.
    fn count(&mut self, env: &HookEnv, args: &SyscallArgs) -> &mut u32 {
        let key = (env.node, env.call_chain().to_vec(), args.call);
        self.counts.entry(key).or_insert(0)
    }
}

impl KernelHook for ChainSpy {
    fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, fx: &mut HookEffects) {
        let count = self.count(env, args);
        *count += 1;
        assert_eq!(args.ei, *count, "index at sys_enter of {args:?}");
        if env.node != NodeId(0) {
            return;
        }
        self.seen.push(Seen {
            pid: env.pid,
            call: args.call,
            path: args.path.map(str::to_string),
            chain: env.call_chain().to_vec(),
            ei: args.ei,
        });
        if let Some(CrashPoint::Call(function, call)) = self.crash {
            if args.call == call && env.call_chain().last().map(String::as_str) == Some(function) {
                self.crash_once(env, fx);
            }
        }
    }

    fn sys_exit(
        &mut self,
        env: &HookEnv,
        args: &SyscallArgs,
        result: &SysResult,
        _fx: &mut HookEffects,
    ) {
        assert_eq!(args.ei, *self.count(env, args), "index at sys_exit");
        if let (NodeId(0), SyscallId::Openat, Ok(SysRet::Fd(fd))) = (env.node, args.call, result) {
            self.opened.push((env.pid, *fd));
        }
    }

    fn uprobe(&mut self, env: &HookEnv, function: &str, offset: Option<u32>, fx: &mut HookEffects) {
        if let Some(CrashPoint::Entry(target)) = self.crash {
            if offset.is_none() && env.node == NodeId(0) && target == function {
                self.crash_once(env, fx);
            }
        }
    }
}

/// An app exercising every attribution path: a root-level boot marker,
/// nested functions on boot, a forked child helper, every way a scope can
/// end, and a periodic tick that can be crashed mid-function.
struct ChainApp;

#[derive(Clone, Debug)]
enum NoMsg {}

const TICK: u64 = 1;
const MISSING: &str = "/state/missing";

/// Leaves its function by an early `return`.
fn returns_early(ctx: &mut NodeCtx<'_, NoMsg>) {
    let ctx = &mut ctx.function("returnsEarly");
    if ctx.stat(MISSING).is_err() {
        return;
    }
    let _ = ctx.stat(MISSING);
}

/// Leaves its function by a `?`.
fn fails_with_try(ctx: &mut NodeCtx<'_, NoMsg>) -> Result<(), Errno> {
    let ctx = &mut ctx.function("failsWithTry");
    ctx.stat(MISSING)?;
    ctx.stat(MISSING).map(drop)
}

impl Application for ChainApp {
    type Msg = NoMsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, NoMsg>) {
        let _ = ctx.stat("/mark/boot");
        {
            let ctx = &mut ctx.function("recover");
            let ctx = &mut ctx.function("loadSegment");
            let _ = ctx.read_file("/state/log");
        }
        // A helper pid forked mid-function: its work must NOT inherit the
        // parent's chain, and the parent's chain must survive the fork.
        {
            let ctx = &mut ctx.function("snapshot");
            ctx.as_child(|child| {
                // Outside any function, like the parent's boot marker.
                let _ = child.stat("/mark/child");
                let child = &mut child.function("compressSnapshot");
                let _ = child.write_file("/state/snap.tmp", b"snap");
            });
            let _ = ctx.rename("/state/snap.tmp", "/state/snap");
        }
        // Each way a scope ends hands the caller back its own chain.
        {
            let ctx = &mut ctx.function("endings");
            returns_early(ctx);
            let _ = ctx.stat("/mark/after-return");
            let _ = fails_with_try(ctx);
            let _ = ctx.stat("/mark/after-try");
            {
                let ctx = &mut ctx.function("outer");
                {
                    let ctx = &mut ctx.function("inner");
                    let _ = ctx.stat("/mark/inner");
                }
                let _ = ctx.stat("/mark/after-inner");
            }
            let _ = ctx.stat("/mark/after-outer");
        }
        ctx.set_timer(SimDuration::from_millis(50), TICK);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, NoMsg>, _from: NodeId, msg: NoMsg) {
        match msg {}
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, NoMsg>, _tag: u64) {
        {
            let ctx = &mut ctx.function("tick");
            let ctx = &mut ctx.function("flush");
            let _ = ctx.write_file("/state/tick", b"t");
        }
        ctx.set_timer(SimDuration::from_millis(50), TICK);
    }
}

fn spy(sim: &Sim<ChainApp>) -> &ChainSpy {
    sim.hook_ref::<ChainSpy>().unwrap()
}

fn make_sim(seed: u64, crash: Option<CrashPoint>) -> Sim<ChainApp> {
    let mut sim = Sim::new(SimConfig::new(1, seed), |_| ChainApp);
    sim.add_hook(Box::new(ChainSpy {
        crash,
        ..ChainSpy::default()
    }));
    sim
}

fn names(chain: &[&str]) -> Vec<String> {
    chain.iter().map(|s| s.to_string()).collect()
}

#[test]
fn syscalls_carry_the_live_function_chain() {
    let mut sim = make_sim(1, None);
    sim.start();
    sim.run_for(SimDuration::from_millis(200));
    let spy = spy(&sim);
    // The boot-time read executed under recover > loadSegment.
    assert_eq!(
        spy.chain_at("/state/log"),
        names(&["recover", "loadSegment"])
    );
    // After the child's scope closed, the rename ran under [snapshot] only.
    assert!(spy
        .seen
        .iter()
        .any(|s| s.call == SyscallId::Rename && s.chain == ["snapshot"]));
    assert_eq!(spy.chain_at("/mark/boot"), Vec::<String>::new());
}

#[test]
fn every_way_a_scope_ends_restores_the_callers_chain() {
    let mut sim = make_sim(4, None);
    sim.start();
    sim.run_for(SimDuration::from_millis(200));
    let spy = spy(&sim);
    let chain_of_stats = |function: &str| -> Vec<&[String]> {
        spy.seen
            .iter()
            .filter(|s| s.path.as_deref() == Some(MISSING))
            .filter(|s| s.chain.last().map(String::as_str) == Some(function))
            .map(|s| s.chain.as_slice())
            .collect()
    };
    // An early return: one stat inside, then the caller's chain.
    assert_eq!(
        chain_of_stats("returnsEarly"),
        [names(&["endings", "returnsEarly"])]
    );
    assert_eq!(spy.chain_at("/mark/after-return"), names(&["endings"]));
    // A `?`: the first stat fails and leaves the function.
    assert_eq!(
        chain_of_stats("failsWithTry"),
        [names(&["endings", "failsWithTry"])]
    );
    assert_eq!(spy.chain_at("/mark/after-try"), names(&["endings"]));
    // A nested scope closing mid-block hands back the enclosing one.
    assert_eq!(
        spy.chain_at("/mark/inner"),
        names(&["endings", "outer", "inner"])
    );
    assert_eq!(
        spy.chain_at("/mark/after-inner"),
        names(&["endings", "outer"])
    );
    assert_eq!(spy.chain_at("/mark/after-outer"), names(&["endings"]));
    // The timer callback that follows starts at the root again.
    assert!(spy
        .seen
        .iter()
        .any(|s| s.call == SyscallId::Write && s.chain == ["tick", "flush"]));
}

#[test]
fn forked_child_has_its_own_chain() {
    let mut sim = make_sim(2, None);
    sim.start();
    sim.run_for(SimDuration::from_millis(200));
    let spy = spy(&sim);
    let main_pid = spy.seen.first().expect("boot syscalls").pid;
    // The child helper's writes are attributed to its own pid and its own
    // chain — no "snapshot" frame leaks in from the parent.
    let child_writes: Vec<_> = spy
        .seen
        .iter()
        .filter(|s| s.pid != main_pid && s.call == SyscallId::Write)
        .collect();
    assert!(!child_writes.is_empty(), "child helper performed no writes");
    for s in &child_writes {
        assert_eq!(s.chain, ["compressSnapshot"]);
    }
    // ...nor does the child's scope ever show in the parent's chain.
    assert!(spy
        .seen
        .iter()
        .filter(|s| s.pid == main_pid)
        .all(|s| !s.chain.contains(&"compressSnapshot".to_string())));
    // A helper shares its node's index: its root-level stat is the node's
    // second, after the parent's boot marker.
    let child_mark = spy
        .seen
        .iter()
        .find(|s| s.path.as_deref() == Some("/mark/child"));
    assert_eq!(
        child_mark.map(|s| (s.pid != main_pid, s.ei)),
        Some((true, 2))
    );
    // The parent's rename still sees its own intact chain after the fork.
    assert!(spy
        .seen
        .iter()
        .any(|s| s.pid == main_pid && s.call == SyscallId::Rename && s.chain == ["snapshot"]));
}

/// Runs long enough to boot, crash once, restart (supervisor delay) and
/// run recovery plus further ticks on the new pid, then checks that the
/// restarted process started from an empty stack.
fn assert_restart_starts_at_root(crash: CrashPoint, seed: u64) {
    let mut sim = make_sim(seed, Some(crash));
    sim.start();
    sim.run_for(SimDuration::from_secs(10));
    assert_eq!(sim.core().stats.restarts, 1, "node must have restarted");
    let spy = spy(&sim);
    let boots: Vec<_> = spy
        .seen
        .iter()
        .filter(|s| s.path.as_deref() == Some("/mark/boot"))
        .collect();
    assert_eq!(boots.len(), 2, "one boot, one restart");
    let new_pid = boots[1].pid;
    assert_ne!(new_pid, boots[0].pid);
    // The index is the node's: the restarted process continues its node's
    // count of root-level stats (the first boot's child helper made the
    // second), it does not start one of its own.
    assert_eq!([boots[0].ei, boots[1].ei], [1, 3]);
    let restarted: Vec<_> = spy.seen.iter().filter(|s| s.pid == new_pid).collect();
    // The new process's first syscall is the root-level boot marker, and
    // its recovery reads run under [recover > loadSegment]: no frame of
    // the crashed one leaked in.
    assert_eq!(restarted[0].path.as_deref(), Some("/mark/boot"));
    assert!(restarted[0].chain.is_empty(), "{:?}", restarted[0]);
    assert!(restarted
        .iter()
        .any(|s| s.call == SyscallId::Openat && s.chain == ["recover", "loadSegment"]));
}

#[test]
fn crash_mid_function_resets_the_chain_on_restart() {
    // The crash fires at the entry probe of `tick`.
    assert_restart_starts_at_root(CrashPoint::Entry("tick"), 3);
}

#[test]
fn a_crash_unwinding_mid_scope_restarts_at_the_root_chain() {
    // The crash fires at a write two scopes deep: both unwind.
    assert_restart_starts_at_root(CrashPoint::Call("flush", SyscallId::Write), 5);
}

#[test]
fn a_crash_inside_a_child_helper_reaps_the_childs_descriptors() {
    let mut sim = make_sim(
        6,
        Some(CrashPoint::Call("compressSnapshot", SyscallId::Write)),
    );
    sim.start();
    sim.run_for(SimDuration::from_millis(200));
    assert_eq!(sim.core().stats.crashes, 1);
    let spy = spy(&sim);
    let main_pid = spy.seen.first().expect("boot syscalls").pid;
    let &(child, fd) = spy
        .opened
        .iter()
        .find(|(pid, _)| *pid != main_pid)
        .expect("the child helper opened its file");
    // The crash took the child down with its parent, and reaped it too.
    let state = sim.core().procs.get(child).map(|e| e.state);
    assert_eq!(state, Some(RunState::Exited));
    assert_eq!(sim.core().vfs[0].fd_path(child, fd), None);
}
