//! Execution fingerprint of every target system.
//!
//! A change that claims "the simulated execution does not move" — an
//! optimisation inside a target, the kernel or the hook chain — used to be
//! checked by building the parent commit and `diff -r`-ing a campaign's
//! output against it. This is the standing, seconds-fast form of that
//! check: one fault-free and one faulted run per target system, each
//! reduced to a stable hash of everything the run left behind, compared
//! with the table below. A row that moves means some seeded run now
//! executes differently; if the PR meant that, paste the printed table.

use rose::apps::driver::{visit_case, SystemVisitor};
use rose::apps::registry::BugId;
use rose::events::{Fingerprinter, NodeId, SimDuration};
use rose::sim::{Application, OpOutcome, Sim};
use rose::{Rose, TargetSystem};

const SEED: u64 = 11;

/// `(case, fault-free run, faulted run)`: one case per target system, in
/// the layout the test prints.
#[rustfmt::skip]
const EXPECTED: [(BugId, u64, u64); 9] = [
    (BugId::RedisRaftNew2, 0x2d964c5706f8708e, 0xa247117d8d6e01c7),
    (BugId::Redpanda3003, 0x53e496e352c9b30d, 0x68e5de54f91f89d3),
    (BugId::Zookeeper3006, 0x524beda1decc0eea, 0xdc0b64cc6417fcfd),
    (BugId::Hdfs4233, 0x0ca064d0762aed7b, 0x57cae1dd98e77410),
    (BugId::Kafka12508, 0xd1a3fab92025c89b, 0x44735e2bb7c8162f),
    (BugId::Hbase19608, 0x8165fba6c78fc585, 0x7b12887e2ea94e41),
    (BugId::Mongo243, 0x4dc1ee34b797b6a6, 0x89643f1735971ed7),
    (BugId::Tendermint5839, 0xa5bae14b66f823c6, 0x81f67f4983dbeb44),
    (BugId::RaftCompactionLoss, 0xd0b451cdbb41785b, 0xb515db7594c95016),
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

/// 30 virtual seconds, fault-free and then under one fault of each kind the
/// nemesis injects: a follower crash, the boot leader isolated long enough
/// to be deposed, a pause.
struct TwoRuns;

impl SystemVisitor for TwoRuns {
    type Out = [u64; 2];

    fn visit<S: TargetSystem>(self, _id: BugId, system: S) -> [u64; 2] {
        let rose = Rose::new(system);
        let secs = SimDuration::from_secs;
        [false, true].map(|faulted| {
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
        })
    }
}

#[test]
fn seeded_runs_execute_as_recorded() {
    let actual = EXPECTED.map(|(id, ..)| {
        let [clean, faulted] = visit_case(id, TwoRuns);
        (id, clean, faulted)
    });
    if actual != EXPECTED {
        println!("const EXPECTED: [(BugId, u64, u64); {}] = [", actual.len());
        for (id, clean, faulted) in &actual {
            println!("    (BugId::{id:?}, {clean:#018x}, {faulted:#018x}),");
        }
        println!("];");
        panic!(
            "a seeded run no longer executes as recorded; the table as it is now is printed above"
        );
    }
}
