//! Execution fingerprint of every target system.
//!
//! A change that claims "the simulated execution does not move" — an
//! optimisation inside a target, the kernel or the hook chain — used to be
//! checked by building the parent commit and `diff -r`-ing a campaign's
//! output against it. This is the standing, seconds-fast form of that
//! check: one fault-free and one faulted run per target system, each
//! reduced to a stable hash of everything the run left behind, compared
//! with the table below. A third run repeats the faults through the hook
//! chain — executor, a tracer that records every call, site probe — and
//! also hashes what each hook saw, so a change in what the kernel shows a
//! hook moves a row even when the run itself does not. A row that moves
//! means some seeded run now executes differently; if the PR meant that,
//! paste the printed table.

use rose::apps::driver::{visit_case, SystemVisitor};
use rose::apps::registry::BugId;
use rose::events::{Errno, EventKind, Fingerprinter, NodeId, SimDuration, SyscallId};
use rose::hunt::SiteProbe;
use rose::inject::{
    Condition, Executor, FaultAction, FaultSchedule, PartitionKind, ScheduledFault, SiteKind,
};
use rose::sim::{Application, OpOutcome, Sim};
use rose::trace::{Tracer, TracerConfig};
use rose::{Rose, TargetSystem};

const SEED: u64 = 11;

/// `(case, fault-free run, faulted run, faulted run under hooks)`: one case
/// per target system, in the layout the test prints.
#[rustfmt::skip]
const EXPECTED: [(BugId, u64, u64, u64); 9] = [
    (BugId::RedisRaftNew2, 0x2d964c5706f8708e, 0xa247117d8d6e01c7, 0x9965a69bfcab96a7),
    (BugId::Redpanda3003, 0x53e496e352c9b30d, 0x68e5de54f91f89d3, 0xf0014275532f905e),
    (BugId::Zookeeper3006, 0x524beda1decc0eea, 0xdc0b64cc6417fcfd, 0x19a282c8d63ecf1a),
    (BugId::Hdfs4233, 0x0ca064d0762aed7b, 0x57cae1dd98e77410, 0x5bf9463629d2b54b),
    (BugId::Kafka12508, 0xd1a3fab92025c89b, 0x44735e2bb7c8162f, 0xf0b4a2f0c2923cae),
    (BugId::Hbase19608, 0x8165fba6c78fc585, 0x7b12887e2ea94e41, 0x57d183f432f1d901),
    (BugId::Mongo243, 0x4dc1ee34b797b6a6, 0x89643f1735971ed7, 0x151b19d0624d0a06),
    (BugId::Tendermint5839, 0xa5bae14b66f823c6, 0x81f67f4983dbeb44, 0x34424b361b7760b2),
    (BugId::RaftCompactionLoss, 0xd0b451cdbb41785b, 0xb515db7594c95016, 0x8778d9189dfce2e1),
];

/// Everything a run leaves behind, hashed in a fixed order.
fn fingerprint<A: Application>(sim: &Sim<A>) -> u64 {
    let core = sim.core();
    let mut h = Fingerprinter::new();
    h.write_u64(core.events_executed());
    h.write_u64(core.stats.syscalls);
    h.write_u64(core.logs.len() as u64);
    for l in core.logs.lines() {
        h.write_u64(l.ts.0);
        h.write_u64(u64::from(l.node.0));
        h.write_str(&l.line);
    }
    h.write_u64(core.history.len() as u64);
    for op in core.history.ops() {
        h.write_u64(u64::from(op.client.0));
        h.write_str(&op.op);
        h.write_u64(op.invoked.0);
        h.write_u64(op.completed.map_or(u64::MAX, |t| t.0));
        match &op.outcome {
            OpOutcome::Ok(None) => h.write_str("ok"),
            OpOutcome::Ok(Some(v)) => h.write_str("ok").write_str(v),
            OpOutcome::Fail(why) => h.write_str("fail").write_str(why),
            OpOutcome::Timeout => h.write_str("timeout"),
        };
    }
    for (node, vfs) in core.vfs.iter().enumerate() {
        for path in vfs.paths() {
            h.write_u64(node as u64);
            h.write_str(path);
            h.write_field(vfs.peek(path).expect("listed path exists"));
        }
    }
    h.finish()
}

/// The faults of the faulted run as an executor schedule, each armed by
/// elapsed time alone so the same schedule fits every target, plus one
/// failed `write`: the only fault whose record carries a descriptor's path.
fn hooked_schedule() -> FaultSchedule {
    let secs = SimDuration::from_secs;
    let at = |s| Condition::TimeElapsed { after: secs(s) };
    let isolate = FaultAction::Partition {
        kind: PartitionKind::IsolateNode(NodeId(0)),
        duration: Some(secs(6)),
    };
    let fail_write = FaultAction::Scf {
        syscall: SyscallId::Write,
        errno: Errno::Eio,
        path: None,
        nth: 2,
    };
    let mut schedule = FaultSchedule::new();
    schedule.push(ScheduledFault::new(NodeId(1), FaultAction::Crash).after(at(8)));
    schedule.push(ScheduledFault::new(NodeId(0), isolate).after(at(12)));
    schedule.push(
        ScheduledFault::new(NodeId(2), FaultAction::Pause { duration: secs(3) }).after(at(22)),
    );
    schedule.push(ScheduledFault::new(NodeId(0), fail_write).after(at(26)));
    schedule
}

/// What the hooks of a finished run saw: every event the tracer dumps, the
/// executor's feedback, the probe's sites.
fn hooks_fingerprint<A: Application>(sim: &mut Sim<A>) -> u64 {
    let mut h = Fingerprinter::new();
    let now = sim.now();
    let trace = sim.hook_mut::<Tracer>().expect("tracer attached").dump(now);
    h.write_u64(trace.len() as u64);
    for e in trace.events() {
        h.write_u64(e.ts.0).write_u64(u64::from(e.node.0));
        match &e.kind {
            EventKind::SyscallOk { pid, syscall, .. } => {
                h.write_u64(u64::from(pid.0)).write_u64(*syscall as u64);
            }
            EventKind::Scf {
                pid,
                syscall,
                fd,
                path,
                errno,
                ei,
            } => {
                h.write_u64(u64::from(pid.0)).write_u64(*syscall as u64);
                h.write_u64(fd.map_or(u64::MAX, |fd| u64::from(fd.0)));
                h.write_str(path.as_deref().unwrap_or("\0"));
                h.write_str(&format!("{errno:?} {ei:?}"));
            }
            other => {
                h.write_str(&format!("{other:?}"));
            }
        }
    }
    let feedback = sim
        .hook_ref::<Executor>()
        .expect("executor attached")
        .feedback();
    h.write_str(&format!("{feedback:?}"));
    let sites = sim.hook_ref::<SiteProbe>().expect("probe attached").sites();
    h.write_u64(sites.len() as u64);
    for site in &sites {
        h.write_u64(site.fingerprint());
        if let SiteKind::SyscallContext { count, .. } = site.kind {
            h.write_u64(count);
        }
    }
    h.finish()
}

/// 30 virtual seconds: fault-free; under one fault of each kind the nemesis
/// injects — a follower crash, the boot leader isolated long enough to be
/// deposed, a pause; and under [`hooked_schedule`] with the hooks watching.
struct ThreeRuns;

impl SystemVisitor for ThreeRuns {
    type Out = [u64; 3];

    fn visit<S: TargetSystem>(self, _id: BugId, system: S) -> [u64; 3] {
        let rose = Rose::new(system);
        let secs = SimDuration::from_secs;
        let [clean, faulted] = [false, true].map(|faulted| {
            let mut sim = rose.deploy(SEED, vec![]);
            sim.start();
            if faulted {
                sim.run_for(secs(8));
                sim.inject_crash(NodeId(1));
                sim.run_for(secs(4));
                sim.inject_isolation(NodeId(0), Some(secs(6)));
                sim.run_for(secs(10));
                sim.inject_pause(NodeId(2), secs(3));
                sim.run_for(secs(8));
            } else {
                sim.run_for(secs(30));
            }
            fingerprint(&sim)
        });
        let mut sim = rose.deploy(
            SEED,
            vec![
                Box::new(Executor::new(hooked_schedule())),
                Box::new(Tracer::new(TracerConfig::full())),
                Box::new(SiteProbe::new()),
            ],
        );
        sim.start();
        sim.run_for(secs(30));
        let mut h = Fingerprinter::new();
        h.write_u64(fingerprint(&sim));
        h.write_u64(hooks_fingerprint(&mut sim));
        [clean, faulted, h.finish()]
    }
}

#[test]
fn seeded_runs_execute_as_recorded() {
    let actual = EXPECTED.map(|(id, ..)| {
        let [clean, faulted, hooked] = visit_case(id, ThreeRuns);
        (id, clean, faulted, hooked)
    });
    if actual != EXPECTED {
        println!(
            "const EXPECTED: [(BugId, u64, u64, u64); {}] = [",
            actual.len()
        );
        for (id, clean, faulted, hooked) in &actual {
            println!("    (BugId::{id:?}, {clean:#018x}, {faulted:#018x}, {hooked:#018x}),");
        }
        println!("];");
        panic!(
            "a seeded run no longer executes as recorded; the table as it is now is printed above"
        );
    }
}
