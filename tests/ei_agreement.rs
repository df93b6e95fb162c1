//! The tracer and the executor read one execution index: the kernel's.
//!
//! A timer app writes once per tick under `flush`. The executor fails the
//! write its `ExecutionIndex { count: k }` condition names, a Rose tracer
//! records the failure, and a spy notes the index the kernel handed each
//! failing call. The SCF the tracer records for the injected call carries
//! the spy's index, and that index is `k` wherever the condition sits in
//! the schedule: the kernel counts from run start, and so does the
//! condition. Behind an `AfterFault` crash that comes after the `k`th
//! call, the condition matches the next call instead. The last test holds
//! a diagnosed schedule to the same rule: every fault of HBASE-19608's
//! replays fires, each EI-keyed one at the index its condition records.

use rose::apps::driver::{run_case, DriverOptions};
use rose::apps::hbase::HbaseCase;
use rose::apps::registry::BugId;
use rose::events::{Errno, EventKind, NodeId, SimDuration, SyscallId};
use rose::inject::{Condition, Executor, FaultAction, FaultSchedule, ScheduledFault};
use rose::sim::{
    Application, HookEffects, HookEnv, KernelHook, NodeCtx, Sim, SimConfig, SysResult, SyscallArgs,
};
use rose::trace::{Tracer, TracerConfig};
use rose::{Rose, RoseConfig};

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

/// Node 1 crashes once `after` has elapsed; the flush-write fault waits
/// for the crash.
fn behind_a_crash(after: SimDuration) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(1), FaultAction::Crash).after(Condition::TimeElapsed { after }),
    );
    s.push(fail_kth_flush_write());
    s
}

#[test]
fn an_index_behind_an_early_crash_is_the_recorded_count() {
    // Node 0 wrote once under `flush` before the crash at 150 ms.
    let s = behind_a_crash(SimDuration::from_millis(150));
    assert_eq!(u64::from(injected_index(s)), K);
}

#[test]
fn an_index_passed_behind_a_crash_fires_at_the_next_call() {
    // Node 0 wrote nine times under `flush` before the crash at 1 s: the
    // `K`th write is long past, so the condition matches the 10th.
    let s = behind_a_crash(SimDuration::from_secs(1));
    assert_eq!(injected_index(s), 10);
}

#[test]
fn a_diagnosed_schedule_fires_each_execution_index_where_it_was_recorded() {
    let out = run_case(
        BugId::Hbase19608,
        RoseConfig::default(),
        &DriverOptions::default(),
    );
    let report = out.report.expect("trace captured");
    let schedule = report.schedule.expect("a diagnosed schedule");
    // (fault, node, syscall, chain, count) of every EI-keyed SCF.
    let keyed: Vec<_> = schedule
        .faults
        .iter()
        .enumerate()
        .filter_map(|(id, f)| {
            let FaultAction::Scf { syscall, .. } = f.action else {
                return None;
            };
            f.conditions.iter().find_map(|c| match c {
                Condition::ExecutionIndex {
                    chain,
                    syscall: on,
                    count,
                } if *on == syscall => Some((id, f.node, syscall, chain.clone(), *count)),
                _ => None,
            })
        })
        .collect();
    assert!(!keyed.is_empty(), "an EI-keyed SCF: {schedule:?}");

    let rose = Rose::new(HbaseCase);
    let profile = rose.profile();
    for seed in [10_000, 10_031] {
        let run = rose.run_once(&profile, &schedule, seed);
        let injected = &run.feedback.injected;
        for id in 0..schedule.faults.len() {
            assert!(
                run.feedback.was_injected(id),
                "seed {seed}: fault {id} never fired: {:?}",
                run.feedback
            );
        }
        for (id, node, syscall, chain, count) in &keyed {
            let at = injected.iter().find(|(f, _)| f == id).expect("fired").1;
            let stamps: Vec<_> = run
                .trace
                .events()
                .iter()
                .filter(|e| e.node == *node && e.ts.as_micros() == at)
                .filter_map(|e| match &e.kind {
                    EventKind::Scf(scf) if scf.syscall == *syscall => scf.ei.as_ref(),
                    _ => None,
                })
                .collect();
            assert_eq!(stamps.len(), 1, "seed {seed}: fault {id}: {stamps:?}");
            assert_eq!(stamps[0].chain, *chain, "seed {seed}: fault {id}");
            assert_eq!(
                u64::from(stamps[0].count),
                *count,
                "seed {seed}: fault {id}"
            );
        }
    }
}
