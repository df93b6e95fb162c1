//! The tracer and the executor read one execution index: the kernel's.
//!
//! A timer app writes once per tick under `flush`. The executor fails the
//! write its `ExecutionIndex { count: k }` condition names, a Rose tracer
//! records the failure, and a spy notes the index the kernel handed each
//! failing call. The SCF the tracer records for the injected call carries
//! the spy's index. When the condition is the schedule's first order group,
//! that index is `k`. Behind an `AfterFault` crash it is larger: the
//! executor counts `k` calls from the crash on, and the kernel counts from
//! run start (ROADMAP item 9).

use rose::events::{Errno, EventKind, NodeId, SimDuration, SyscallId};
use rose::inject::{Condition, Executor, FaultAction, FaultSchedule, ScheduledFault};
use rose::sim::{
    Application, HookEffects, HookEnv, KernelHook, NodeCtx, Sim, SimConfig, SysResult, SyscallArgs,
};
use rose::trace::{Tracer, TracerConfig};

const K: u64 = 3;

/// One write under `flush` every 100 ms.
struct Ticker;

#[derive(Clone, Debug)]
struct Tick;

impl Application for Ticker {
    type Msg = Tick;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Tick>) {
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Tick>, _tag: u64) {
        {
            let ctx = &mut ctx.function("flush");
            let _ = ctx.write_file("/data/log", b"tick");
        }
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Tick>, _from: NodeId, _msg: Tick) {}
}

/// The index the kernel handed each failing call, with its node.
#[derive(Default)]
struct Spy {
    failed: Vec<(NodeId, SyscallId, u32)>,
}

impl KernelHook for Spy {
    fn sys_exit(
        &mut self,
        env: &HookEnv,
        args: &SyscallArgs,
        result: &SysResult,
        _fx: &mut HookEffects,
    ) {
        if result.is_err() {
            self.failed.push((env.node, args.call, args.ei));
        }
    }
}

/// Runs `schedule` for three seconds and returns the index the spy saw
/// for the one injected call, after checking that the tracer's SCF for it
/// carries the same index.
fn injected_index(schedule: FaultSchedule) -> u32 {
    let mut sim = Sim::new(SimConfig::new(2, 7), |_| Ticker);
    sim.add_hook(Box::new(Executor::new(schedule)));
    sim.add_hook(Box::new(Tracer::new(TracerConfig::rose(["flush".into()]))));
    sim.add_hook(Box::new(Spy::default()));
    sim.start();
    sim.run_for(SimDuration::from_secs(3));

    let now = sim.now();
    let scfs: Vec<(NodeId, SyscallId, u32)> = sim
        .hook_mut::<Tracer>()
        .expect("tracer attached")
        .dump(now)
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Scf(scf) if scf.errno == Errno::Eio => {
                let ei = scf.ei.as_ref().expect("the tracer stamps every SCF");
                assert_eq!(ei.chain, ["flush"]);
                Some((e.node, scf.syscall, ei.count))
            }
            _ => None,
        })
        .collect();
    let spied = &sim.hook_ref::<Spy>().expect("spy attached").failed;
    assert_eq!(scfs.len(), 1, "one injected failure: {scfs:?}");
    assert_eq!(*spied, scfs, "the tracer stamps the kernel's index");
    let (node, call, index) = scfs[0];
    assert_eq!((node, call), (NodeId(0), SyscallId::Write));
    index
}

fn fail_kth_flush_write() -> ScheduledFault {
    let fail_write = FaultAction::Scf {
        syscall: SyscallId::Write,
        errno: Errno::Eio,
        path: None,
        nth: 1,
    };
    ScheduledFault::new(NodeId(0), fail_write).after(Condition::ExecutionIndex {
        chain: vec!["flush".into()],
        syscall: SyscallId::Write,
        count: K,
    })
}

#[test]
fn a_first_group_index_is_the_recorded_count() {
    let mut s = FaultSchedule::new();
    s.push(fail_kth_flush_write());
    assert_eq!(u64::from(injected_index(s)), K);
}

#[test]
fn an_index_behind_a_crash_counts_from_the_crash() {
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(1), FaultAction::Crash).after(Condition::TimeElapsed {
            after: SimDuration::from_secs(1),
        }),
    );
    s.push(fail_kth_flush_write());
    let index = u64::from(injected_index(s));
    assert!(index > K, "index {index} is not past {K}");
    // Node 0 wrote nine times under `flush` before the crash at 1 s: the
    // executor's `K` calls are the node's 10th to 12th.
    assert_eq!(index, 9 + K);
}
