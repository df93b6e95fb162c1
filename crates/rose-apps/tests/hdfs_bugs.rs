//! Trigger-level tests for the seeded HDFS defects.

use rose_apps::driver::CaptureMethod;
use rose_apps::hdfs::{hdfs_capture, Hdfs, HdfsBug, HdfsCase, HdfsClient, Hmsg, WriterClient, NN};
use rose_core::TargetSystem;
use rose_events::{NodeId, SimDuration, SimTime};
use rose_inject::Executor;
use rose_sim::{Application, ClientId, NodeCtx, OpOutcome, Sim, SimConfig};

fn cluster(
    bug: Option<HdfsBug>,
    seed: u64,
    schedule: Option<rose_inject::FaultSchedule>,
) -> Sim<Hdfs> {
    let mut sim = Sim::new(SimConfig::new(4, seed), move |_| Hdfs::new(bug));
    if let Some(s) = schedule {
        sim.add_hook(Box::new(Executor::new(s)));
    }
    sim.add_client(Box::new(HdfsClient::new()));
    sim.add_client(Box::new(HdfsClient::new()));
    sim.add_client(Box::new(WriterClient::new()));
    sim.start();
    sim
}

fn trigger(bug: HdfsBug) -> rose_inject::FaultSchedule {
    match hdfs_capture(bug).method {
        CaptureMethod::Scripted(s) => s,
        _ => unreachable!(),
    }
}

#[test]
fn healthy_cluster_writes_reads_and_balances() {
    let mut sim = cluster(None, 1, None);
    sim.run_for(SimDuration::from_secs(40));
    assert_eq!(
        sim.core().stats.crashes,
        0,
        "{:?}",
        sim.core()
            .logs
            .lines()
            .iter()
            .rev()
            .take(5)
            .collect::<Vec<_>>()
    );
    let acked = sim.client_ref::<HdfsClient>(ClientId(0)).unwrap().acked
        + sim.client_ref::<HdfsClient>(ClientId(1)).unwrap().acked;
    assert!(acked > 300, "acked={acked}");
    // Edit log rolled at least 3 times without incident.
    assert!(sim.core().vfs[0].peek("/nn/edits").is_some());
    // The under-construction lease was recovered (expired + fstat ok).
    assert!(sim.core().logs.grep("block recovery complete for f_uc"));
    // The standby-NN probe fails benignly every round.
    assert!(sim.core().logs.grep("standby NN unreachable"));
    assert!(!sim.core().logs.grep("stuck open"));
}

#[test]
fn bug_configs_silent_without_faults() {
    for bug in [
        HdfsBug::Hdfs4233,
        HdfsBug::Hdfs12070,
        HdfsBug::Hdfs15032,
        HdfsBug::Hdfs16332,
    ] {
        let case = HdfsCase { bug };
        let mut sim = cluster(Some(bug), 2, None);
        sim.run_for(SimDuration::from_secs(40));
        assert!(!case.oracle(&sim), "{bug:?} fired without faults");
    }
}

#[test]
fn hdfs4233_failed_roll_keeps_serving_without_journals() {
    let case = HdfsCase {
        bug: HdfsBug::Hdfs4233,
    };
    let mut sim = cluster(Some(HdfsBug::Hdfs4233), 3, Some(trigger(HdfsBug::Hdfs4233)));
    sim.run_for(SimDuration::from_secs(30));
    assert!(case.oracle(&sim));
    // The defect: the NN is still acknowledging writes afterwards.
    let acked = sim.client_ref::<HdfsClient>(ClientId(0)).unwrap().acked;
    assert!(acked > 100);
    // The correct binary aborts instead.
    let mut sim = cluster(None, 3, Some(trigger(HdfsBug::Hdfs4233)));
    sim.run_for(SimDuration::from_secs(30));
    assert!(!case.oracle(&sim));
    assert!(sim.core().logs.grep("NN shutting down"));
}

#[test]
fn hdfs12070_failed_recovery_leaks_the_lease() {
    let case = HdfsCase {
        bug: HdfsBug::Hdfs12070,
    };
    // The ground-truth trigger conditions the fstat failure on the
    // recovery context.
    let mut sim = cluster(
        Some(HdfsBug::Hdfs12070),
        4,
        Some(trigger(HdfsBug::Hdfs12070)),
    );
    sim.run_for(SimDuration::from_secs(60));
    assert!(
        case.oracle(&sim),
        "{:?}",
        sim.core()
            .logs
            .lines()
            .iter()
            .rev()
            .take(6)
            .collect::<Vec<_>>()
    );
}

#[test]
fn hdfs12070_report_fstat_failure_is_harmless() {
    // Failing a block-report fstat (outside the recovery context) does not
    // leak the lease even in the buggy binary.
    let case = HdfsCase {
        bug: HdfsBug::Hdfs12070,
    };
    let mut s = rose_inject::FaultSchedule::new();
    s.push(rose_inject::ScheduledFault::new(
        rose_apps::hdfs::dn_of("f_uc"),
        rose_inject::FaultAction::Scf {
            syscall: rose_events::SyscallId::Fstat,
            errno: rose_events::Errno::Eio,
            path: None,
            nth: 2,
        },
    ));
    let mut sim = cluster(Some(HdfsBug::Hdfs12070), 4, Some(s));
    sim.run_for(SimDuration::from_secs(60));
    assert!(!case.oracle(&sim));
}

#[test]
fn hdfs12070_correct_binary_retries_recovery() {
    let case = HdfsCase {
        bug: HdfsBug::Hdfs12070,
    };
    let mut sim = cluster(None, 4, Some(trigger(HdfsBug::Hdfs12070)));
    sim.run_for(SimDuration::from_secs(60));
    assert!(!case.oracle(&sim), "correct binary must requeue recovery");
    assert!(sim.core().logs.grep("block recovery failed"));
    assert!(sim.core().logs.grep("block recovery complete"));
}

#[test]
fn hdfs15032_nn_connect_failure_crashes_balancer() {
    let case = HdfsCase {
        bug: HdfsBug::Hdfs15032,
    };
    // The balancer does 4 connects per round (active NN, standby, 2 DNs):
    // invocations 1, 5, 9, … are the active-NN connect.
    let mut sim = cluster(
        Some(HdfsBug::Hdfs15032),
        5,
        Some(trigger(HdfsBug::Hdfs15032)),
    );
    sim.run_for(SimDuration::from_secs(30));
    assert!(
        case.oracle(&sim),
        "{:?}",
        sim.core()
            .logs
            .lines()
            .iter()
            .rev()
            .take(6)
            .collect::<Vec<_>>()
    );
    assert!(sim.core().stats.crashes >= 1);
    // The correct binary logs and skips the round.
    let mut sim = cluster(None, 5, Some(trigger(HdfsBug::Hdfs15032)));
    sim.run_for(SimDuration::from_secs(30));
    assert!(!case.oracle(&sim));
    assert!(sim.core().logs.grep("active NN unreachable"));
}

#[test]
fn hdfs15032_dn_connect_failure_is_handled() {
    // Failing a DN connect (not the active NN) is handled even in the buggy
    // binary: the defect is specific to the namenode path.
    let case = HdfsCase {
        bug: HdfsBug::Hdfs15032,
    };
    let mut s = trigger(HdfsBug::Hdfs15032);
    if let rose_inject::FaultAction::Scf { nth, .. } = &mut s.faults[0].action {
        *nth = 11; // 3rd round: 9=NN, 10=standby, 11=DN1.
    }
    let mut sim = cluster(Some(HdfsBug::Hdfs15032), 6, Some(s));
    sim.run_for(SimDuration::from_secs(30));
    assert!(!case.oracle(&sim));
    assert!(sim.core().logs.grep("DN n1 unreachable"));
}

#[test]
fn hdfs16332_expired_token_never_refreshes() {
    let case = HdfsCase {
        bug: HdfsBug::Hdfs16332,
    };
    let mut sim = cluster(
        Some(HdfsBug::Hdfs16332),
        7,
        Some(trigger(HdfsBug::Hdfs16332)),
    );
    sim.run_for(SimDuration::from_secs(40));
    assert!(
        case.oracle(&sim),
        "{:?}",
        sim.core()
            .logs
            .lines()
            .iter()
            .rev()
            .take(6)
            .collect::<Vec<_>>()
    );
    // Correct binary refreshes and the read completes quickly.
    let mut sim = cluster(None, 7, Some(trigger(HdfsBug::Hdfs16332)));
    sim.run_for(SimDuration::from_secs(40));
    assert!(!case.oracle(&sim));
    assert!(sim.core().logs.grep("block token refreshed"));
}

/// A NameNode that answers every read with another file's `ReadOk`, and
/// nothing else.
#[derive(Default)]
struct MisdirectedNameNode {
    /// When each read arrived.
    reads: Vec<SimTime>,
}

impl Application for MisdirectedNameNode {
    type Msg = Hmsg;

    fn on_start(&mut self, _ctx: &mut NodeCtx<'_, Hmsg>) {}

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Hmsg>, _from: NodeId, _msg: Hmsg) {}

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, Hmsg>, _tag: u64) {}

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, Hmsg>, client: ClientId, req: Hmsg) {
        if let Hmsg::Read { file } = req {
            self.reads.push(ctx.now());
            let file = [&file, "-other"].concat();
            let _ = ctx.reply(
                client,
                Hmsg::ReadOk {
                    file,
                    values: String::new(),
                },
            );
        }
    }
}

#[test]
fn another_files_read_answer_leaves_the_pending_read_as_it_was() {
    let mut sim = Sim::new(SimConfig::new(1, 5), |_| MisdirectedNameNode::default());
    sim.add_client(Box::new(HdfsClient::new()));
    sim.start();
    sim.run_for(SimDuration::from_secs(15));
    let core = sim.core();
    let read = core
        .history
        .ops()
        .iter()
        .find(|op| op.op.starts_with("read "))
        .expect("a read was issued");
    assert_eq!(read.outcome, OpOutcome::Fail("slow read".into()));
    let detected = core
        .logs
        .lines()
        .iter()
        .find(|l| l.line.contains("slow read detected"))
        .expect("the unanswered read was detected");
    let waited = detected.ts.as_micros() - read.invoked.as_micros();
    assert!(
        waited >= 10_000_000,
        "detected {waited} µs after the read began"
    );
    // Every read request before the detection but the first was a retry of
    // the same read.
    let reads = &sim.app(NN).expect("the NameNode runs").reads;
    let sent = reads.iter().filter(|at| **at < detected.ts).count();
    let retries = format!("({} retries)", sent - 1);
    assert!(
        sent > 1 && detected.line.ends_with(&retries),
        "{}",
        detected.line
    );
}
