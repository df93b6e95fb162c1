//! End-to-end tests of the executor: precise fault injection against the
//! simulated cluster.

use rose_events::{Errno, NodeId, Pid, SimDuration, SimTime, SyscallId};
use rose_inject::{
    Condition, ExecutionFeedback, Executor, FaultAction, FaultSchedule, PartitionKind,
    ScheduledFault,
};
use rose_sim::{
    Application, ChainId, ChainTable, HookEffects, HookEnv, KernelHook, NodeCtx, OpenFlags,
    ProcTable, SignalKind, SignalReq, Sim, SimConfig, SyscallArgs,
};

/// A snapshotting app: every 200 ms it runs `storeSnapshotData` which opens,
/// writes twice, and renames a snapshot — with instrumented offsets.
#[derive(Default)]
struct Snapshotter {
    rounds: u32,
}

#[derive(Clone, Debug)]
struct Tick;

impl Application for Snapshotter {
    type Msg = Tick;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Tick>) {
        // Recovery: validate the snapshot if one exists.
        let ctx = &mut ctx.function("loadSnapshot");
        match ctx.read_file("/data/snap") {
            Ok(data) if !data.is_empty() && data.len() < 16 => {
                ctx.panic(format!("corrupt snapshot: {} bytes", data.len()));
            }
            _ => {}
        }
        ctx.set_timer(SimDuration::from_millis(200), 0);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Tick>, _tag: u64) {
        self.rounds += 1;
        {
            let ctx = &mut ctx.function("storeSnapshotData");
            ctx.at_offset(0);
            if let Ok(fd) = ctx.open("/data/snap.tmp", OpenFlags::Write) {
                ctx.at_offset(1);
                let _ = ctx.write(fd, b"header--");
                ctx.at_offset(2);
                let _ = ctx.write(fd, b"payload-payload-");
                ctx.at_offset(3);
                let _ = ctx.close(fd);
                let _ = ctx.rename("/data/snap.tmp", "/data/snap");
            }
        }
        // Heartbeat chatter so partitions have something to cut.
        ctx.broadcast(Tick);
        ctx.set_timer(SimDuration::from_millis(200), 0);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Tick>, _from: NodeId, _msg: Tick) {}
}

fn run_with(
    schedule: FaultSchedule,
    seed: u64,
    secs: u64,
) -> (Sim<Snapshotter>, ExecutionFeedback) {
    let mut sim = Sim::new(SimConfig::new(3, seed), |_| Snapshotter::default());
    sim.add_hook(Box::new(Executor::new(schedule)));
    sim.start();
    sim.run_for(SimDuration::from_secs(secs));
    let fb = sim.hook_ref::<Executor>().unwrap().feedback();
    (sim, fb)
}

#[test]
fn scf_fails_nth_invocation_on_path() {
    // Fail the 3rd write to the snapshot temp file on node 0.
    let mut s = FaultSchedule::new();
    s.push(ScheduledFault::new(
        NodeId(0),
        FaultAction::Scf {
            syscall: SyscallId::Write,
            errno: Errno::Eio,
            path: Some("/data/snap.tmp".into()),
            nth: 3,
        },
    ));
    let (sim, fb) = run_with(s, 1, 2);
    assert_eq!(fb.injected.len(), 1);
    // Writes 1 and 2 (round 1) succeeded; write 3 (round 2, first write)
    // failed. The snapshot file from round 1 must exist and be complete.
    assert_eq!(sim.core().vfs[0].peek("/data/snap").unwrap().len(), 24);
    // 3 benign boot-time ENOENT reads (one per node) + the injected EIO.
    assert_eq!(sim.core().stats.syscall_failures, 4);
}

#[test]
fn crash_fires_at_function_entry() {
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(1), FaultAction::Crash).after(Condition::FunctionEntered {
            name: "storeSnapshotData".into(),
        }),
    );
    let (sim, fb) = run_with(s, 2, 1);
    assert_eq!(fb.injected.len(), 1);
    // Killed at entry, before any write: no snapshot file at crash time.
    // (The node restarts and snapshots again, so check the crash happened
    // before the first round completed via stats.)
    assert_eq!(sim.core().stats.crashes, 1);
    assert!(sim.core().logs.grep("killed at probe point"));
}

#[test]
fn crash_at_offset_corrupts_snapshot() {
    // Crash node 0 exactly at offset 2 of storeSnapshotData: after the
    // 8-byte header write, before the 16-byte payload write. Until the
    // supervisor restarts the node, the partial file persists.
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(0), FaultAction::Crash).after(Condition::FunctionOffset {
            name: "storeSnapshotData".into(),
            offset: 2,
        }),
    );
    let mut sim = Sim::new(SimConfig::new(3, 3), |_| Snapshotter::default());
    sim.add_hook(Box::new(Executor::new(s)));
    sim.start();
    // The first round crashes at 200 ms; the restart comes 1.5 s after the
    // crash at the earliest.
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim.app(NodeId(0)).is_none());
    let tmp = sim.core().vfs[0].peek("/data/snap.tmp").unwrap();
    assert_eq!(
        tmp, b"header--",
        "crash between the two writes leaves only the header"
    );
    assert!(
        sim.core().vfs[0].peek("/data/snap").is_none(),
        "rename never ran"
    );
}

#[test]
fn crash_mid_write_then_restart_triggers_recovery_bug() {
    // The seeded "corrupt snapshot" panic: crash after the header write,
    // let the supervisor restart the node, and watch recovery blow up...
    // except recovery reads /data/snap (renamed file), so crash at offset 2
    // leaves /data/snap intact. Crash *after rename of a short file* is not
    // possible here — instead verify recovery tolerates the intact file.
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(0), FaultAction::Crash).after(Condition::FunctionOffset {
            name: "storeSnapshotData".into(),
            offset: 2,
        }),
    );
    let (sim, fb) = run_with(s, 4, 5);
    assert_eq!(fb.injected.len(), 1);
    // Node restarted and kept running (no corrupt-snapshot panic, since the
    // completed snapshot from the rename path is the one recovery reads).
    assert!(sim.app(NodeId(0)).is_some());
    assert_eq!(sim.core().stats.restarts, 1);
}

#[test]
fn pause_and_partition_inject_with_durations() {
    let mut s = FaultSchedule::new();
    s.push(ScheduledFault::new(
        NodeId(1),
        FaultAction::Pause {
            duration: SimDuration::from_secs(4),
        },
    ));
    s.push(ScheduledFault::new(
        NodeId(0),
        FaultAction::Partition {
            kind: PartitionKind::IsolateNode(NodeId(0)),
            duration: Some(SimDuration::from_secs(3)),
        },
    ));
    let (sim, fb) = run_with(s, 5, 12);
    assert_eq!(fb.injected.len(), 2);
    // Both healed by the end of the run.
    assert!(!sim.core().procs.is_paused(NodeId(1)));
    assert_eq!(sim.core().net.active_rules(), 0);
    assert!(sim.core().net.dropped > 0);
}

#[test]
fn fault_order_is_enforced() {
    // Fault 0: crash node 0 only after 3 s. Fault 1: crash node 1 at its
    // next snapshot (every 200 ms). Without order enforcement fault 1 would
    // fire within ~200 ms; with it, fault 1 must wait for fault 0.
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(0), FaultAction::Crash).after(Condition::TimeElapsed {
            after: SimDuration::from_secs(3),
        }),
    );
    s.push(
        ScheduledFault::new(NodeId(1), FaultAction::Crash).after(Condition::FunctionEntered {
            name: "storeSnapshotData".into(),
        }),
    );
    let (_sim, fb) = run_with(s, 6, 10);
    assert_eq!(fb.injected.len(), 2);
    let t0 = fb.injected.iter().find(|(f, _)| *f == 0).unwrap().1;
    let t1 = fb.injected.iter().find(|(f, _)| *f == 1).unwrap().1;
    assert!(t0 >= 3_000_000, "fault 0 waits for its time condition");
    assert!(
        t1 > t0,
        "fault 1 must fire after fault 0 (production order)"
    );
}

#[test]
fn without_order_enforcement_faults_race() {
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(0), FaultAction::Crash).after(Condition::TimeElapsed {
            after: SimDuration::from_secs(3),
        }),
    );
    s.push(
        ScheduledFault::new(NodeId(1), FaultAction::Crash).after(Condition::FunctionEntered {
            name: "storeSnapshotData".into(),
        }),
    );
    let mut sim = Sim::new(SimConfig::new(3, 6), |_| Snapshotter::default());
    sim.add_hook(Box::new(Executor::without_order_enforcement(s)));
    sim.start();
    sim.run_for(SimDuration::from_secs(10));
    let fb = sim.hook_ref::<Executor>().unwrap().feedback();
    let t0 = fb.injected.iter().find(|(f, _)| *f == 0).unwrap().1;
    let t1 = fb.injected.iter().find(|(f, _)| *f == 1).unwrap().1;
    assert!(
        t1 < t0,
        "without enforcement fault 1 fires out of production order"
    );
}

#[test]
fn condition_survives_restart_via_pid_remap() {
    // Crash node 2 twice: the second fault's context (a function entry) is
    // observed by the *restarted* process with a fresh pid, which the
    // kernel's probe context still names as node 2.
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(2), FaultAction::Crash).after(Condition::FunctionEntered {
            name: "storeSnapshotData".into(),
        }),
    );
    s.push(
        ScheduledFault::new(NodeId(2), FaultAction::Crash).after(Condition::FunctionEntered {
            name: "loadSnapshot".into(),
        }),
    );
    let (sim, fb) = run_with(s, 7, 15);
    assert_eq!(fb.injected.len(), 2, "both crashes fired: {fb:?}");
    assert_eq!(sim.core().stats.crashes, 2);
    let t0 = fb.injected[0].1;
    let t1 = fb.injected[1].1;
    assert!(t1 > t0);
}

/// Every tick forks a helper process that writes a marker file, and
/// remembers the pid of each helper whose write failed.
#[derive(Default)]
struct Forker {
    failed: Vec<Pid>,
}

impl Application for Forker {
    type Msg = Tick;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Tick>) {
        ctx.set_timer(SimDuration::from_millis(200), 0);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Tick>, _tag: u64) {
        let failed = ctx.as_child(|child| {
            let written = child.write_file("/data/marker", b"done");
            written.is_err().then(|| child.pid())
        });
        self.failed.extend(failed);
        ctx.set_timer(SimDuration::from_millis(200), 0);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Tick>, _from: NodeId, _msg: Tick) {}
}

#[test]
fn an_scf_on_a_node_fires_on_its_child_helpers_call() {
    // The second `openat` of the marker on node 1 is made by a forked
    // helper, whose pid is not the node's: the fault must still land there,
    // and only there.
    let mut s = FaultSchedule::new();
    s.push(ScheduledFault::new(
        NodeId(1),
        FaultAction::Scf {
            syscall: SyscallId::Openat,
            errno: Errno::Eio,
            path: Some("/data/marker".into()),
            nth: 2,
        },
    ));
    let mut sim = Sim::new(SimConfig::new(3, 11), |_| Forker::default());
    sim.add_hook(Box::new(Executor::new(s)));
    sim.start();
    sim.run_for(SimDuration::from_secs(2));
    let fb = sim.hook_ref::<Executor>().unwrap().feedback();
    assert_eq!(fb.injected.len(), 1);
    let failed = &sim.app(NodeId(1)).unwrap().failed;
    assert_eq!(failed.len(), 1);
    let helper = sim.core().procs.get(failed[0]).unwrap();
    let main = sim.core().procs.main_pid(NodeId(1));
    assert_eq!(helper.parent, main, "a child helper made the failing call");
    assert!(sim.app(NodeId(0)).unwrap().failed.is_empty());
    assert!(sim.app(NodeId(2)).unwrap().failed.is_empty());
}

#[test]
fn sequential_conditions_require_order() {
    // Context: loadSnapshot then storeSnapshotData. loadSnapshot only runs
    // at boot, so the chain completes at the first snapshot after boot.
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(0), FaultAction::Crash)
            .after(Condition::FunctionEntered {
                name: "loadSnapshot".into(),
            })
            .after(Condition::FunctionEntered {
                name: "storeSnapshotData".into(),
            }),
    );
    let (sim, fb) = run_with(s, 8, 2);
    assert_eq!(fb.injected.len(), 1);
    assert_eq!(sim.core().stats.crashes, 1);
}

#[test]
fn unmatched_context_never_fires() {
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(0), FaultAction::Crash).after(Condition::FunctionEntered {
            name: "neverCalled".into(),
        }),
    );
    let (sim, fb) = run_with(s, 9, 5);
    assert!(fb.injected.is_empty());
    assert!(fb.armed.is_empty());
    assert_eq!(sim.core().stats.crashes, 0);
}

#[test]
fn schedule_yaml_survives_executor_round_trip() {
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(0), FaultAction::Crash).after(Condition::FunctionOffset {
            name: "storeSnapshotData".into(),
            offset: 1,
        }),
    );
    let yaml = s.to_yaml();
    let parsed = FaultSchedule::from_yaml(&yaml).unwrap();
    let (_sim, fb) = run_with(parsed, 10, 2);
    assert_eq!(fb.injected.len(), 1);
}

/// Fires every probe the executor listens on, on node 0 at `secs`.
fn probe_all(ex: &mut Executor, secs: u64, fx: &mut HookEffects) {
    let chains = ChainTable::new();
    let env = HookEnv {
        now: SimTime::from_secs(secs),
        node: NodeId(0),
        pid: Pid(100),
        chain: ChainId::ROOT,
        chains: &chains,
    };
    ex.sys_enter(&env, &SyscallArgs::bare(SyscallId::Write), fx);
    ex.uprobe(&env, "storeSnapshotData", None, fx);
    ex.poll(env.now, &ProcTable::new(), fx);
}

#[test]
fn spent_schedule_has_no_effect_and_keeps_its_feedback() {
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(0), FaultAction::Crash).after(Condition::TimeElapsed {
            after: SimDuration::from_secs(1),
        }),
    );
    let mut ex = Executor::new(s);
    let mut fx = HookEffects::none();
    probe_all(&mut ex, 0, &mut fx);
    assert_eq!(fx, HookEffects::none(), "not due yet");
    probe_all(&mut ex, 2, &mut fx);
    let crash = SignalReq {
        node: NodeId(0),
        kind: SignalKind::Crash,
    };
    assert_eq!(fx.signal(), Some(crash));
    let feedback = ex.feedback();
    assert_eq!(feedback.injected, vec![(0, 2_000_000)]);

    // Every fault has fired: the probes are inert from here on.
    let mut fx = HookEffects::none();
    probe_all(&mut ex, 3, &mut fx);
    probe_all(&mut ex, 4, &mut fx);
    assert_eq!(fx, HookEffects::none());
    assert_eq!(ex.feedback(), feedback);
}

/// Pins what an `ExecutionIndex` condition compares: the kernel's index of
/// the call, counted from run start — the index the tracer stamps. Behind
/// the `AfterFault` prerequisite `Executor::new` puts first, matching
/// writes made before the earlier fault group fired still count, so a
/// condition whose index has passed matches the next matching write.
#[test]
fn an_execution_index_behind_an_earlier_fault_counts_from_run_start() {
    let mut chains = ChainTable::new();
    let flush = chains.enter(ChainId::ROOT, "flush");
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(NodeId(1), FaultAction::Crash).after(Condition::TimeElapsed {
            after: SimDuration::from_secs(10),
        }),
    );
    let fail_write = FaultAction::Scf {
        syscall: SyscallId::Write,
        errno: Errno::Eio,
        path: None,
        nth: 1,
    };
    s.push(
        ScheduledFault::new(NodeId(0), fail_write).after(Condition::ExecutionIndex {
            chain: vec!["flush".into()],
            syscall: SyscallId::Write,
            count: 3,
        }),
    );
    let mut ex = Executor::new(s);
    assert_eq!(
        ex.schedule().faults[1].conditions[0],
        Condition::AfterFault { fault: 0 }
    );
    // Each write carries the index the kernel would hand it: the writes
    // are the first four under `flush` on node 0, at seconds 1, 2, 11 and
    // 12.
    let write = |ex: &mut Executor, secs, ei| {
        let env = HookEnv {
            now: SimTime::from_secs(secs),
            node: NodeId(0),
            pid: Pid(100),
            chain: flush,
            chains: &chains,
        };
        let args = SyscallArgs {
            ei,
            ..SyscallArgs::bare(SyscallId::Write)
        };
        let mut fx = HookEffects::none();
        ex.sys_enter(&env, &args, &mut fx);
        fx
    };
    let none = HookEffects::none();
    let mut eio = HookEffects::none();
    eio.push_inject(NodeId(0), 1, "SCF(write)".into());
    eio.set_override(Errno::Eio);

    // Two writes under the recorded context, then the crash.
    assert_eq!(write(&mut ex, 1, 1), none);
    assert_eq!(write(&mut ex, 2, 2), none);
    let mut fx = HookEffects::none();
    ex.poll(SimTime::from_secs(10), &ProcTable::new(), &mut fx);
    assert!(fx.signal().is_some(), "the crash fires when due");

    // The override lands on the first write after the crash: index 3, the
    // third since run start.
    assert_eq!(write(&mut ex, 11, 3), eio);
    assert_eq!(write(&mut ex, 12, 4), none);
    assert_eq!(
        ex.feedback().injected,
        vec![(0, 10_000_000), (1, 11_000_000)]
    );
}

#[test]
fn empty_schedule_never_arms() {
    let mut ex = Executor::new(FaultSchedule::new());
    let mut fx = HookEffects::none();
    probe_all(&mut ex, 0, &mut fx);
    probe_all(&mut ex, 60, &mut fx);
    assert_eq!(fx, HookEffects::none());
    assert_eq!(ex.feedback(), ExecutionFeedback::default());
}
