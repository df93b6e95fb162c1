//! Full Rose workflow, end to end, for every non-RedisRaft bug in the
//! registry (the RedisRaft rows have their own deeper test file). Each case
//! must reproduce at the target replay rate with the paper's fault type.
//!
//! Run with `--release`; these execute hundreds of simulated cluster runs.

use rose_apps::driver::{flat_vs_ei, run_case, DriverOptions};
use rose_apps::registry::BugId;
use rose_core::RoseConfig;

fn drive(id: BugId) -> rose_analyze::DiagnosisReport {
    let out = run_case(id, RoseConfig::default(), &DriverOptions::default());
    assert!(out.captured, "{id}: no buggy trace captured");
    reproduced(id, out.report.expect("diagnosis ran"))
}

/// A sweep bug: searched flat (its extraction stripped of execution
/// indices) the first invocation is the wrong one and the Level-2 nth sweep
/// has to find the right one; the recorded index pins it at the first guess.
fn drive_sweep_bug(id: BugId, fault: &str) {
    let (flat, ei) = flat_vs_ei(id, RoseConfig::default(), &DriverOptions::default())
        .unwrap_or_else(|| panic!("{id}: no buggy trace captured"));
    let (flat, ei) = (reproduced(id, flat), reproduced(id, ei));
    for rep in [&flat, &ei] {
        assert!(
            rep.faults_injected.contains(fault),
            "{}",
            rep.faults_injected
        );
    }
    assert!(flat.schedules_generated > 1, "{id}: expected an nth sweep");
    assert_eq!(flat.level, 2);
    assert_eq!((ei.schedules_generated, ei.level), (1, 1), "{id}");
}

fn reproduced(id: BugId, rep: rose_analyze::DiagnosisReport) -> rose_analyze::DiagnosisReport {
    assert!(
        rep.reproduced,
        "{id}: not reproduced (rate {:.0}%, {} schedules, {} runs)",
        rep.replay_rate, rep.schedules_generated, rep.runs
    );
    assert!(
        rep.replay_rate >= 60.0,
        "{id}: rate {:.0}%",
        rep.replay_rate
    );
    rep
}

#[test]
fn redpanda_3003_duplicates_reproduce() {
    let rep = drive(BugId::Redpanda3003);
    assert!(
        rep.faults_injected.contains("PS(Pause)"),
        "{}",
        rep.faults_injected
    );
    // Elle's analysis cost shows up in the accounted time (§6.2): at least
    // 2 virtual minutes per run.
    assert!(rep.total_time.as_mins_f64() >= 2.0 * rep.runs as f64);
}

#[test]
fn redpanda_3039_offsets_reproduce() {
    let rep = drive(BugId::Redpanda3039);
    assert!(
        rep.faults_injected.contains("PS(Pause)"),
        "{}",
        rep.faults_injected
    );
}

#[test]
fn zookeeper_2247_unavailability_reproduces() {
    let rep = drive(BugId::Zookeeper2247);
    assert!(
        rep.faults_injected.contains("SCF(write)"),
        "{}",
        rep.faults_injected
    );
}

#[test]
fn zookeeper_3157_session_teardown_reproduces() {
    let rep = drive(BugId::Zookeeper3157);
    assert!(
        rep.faults_injected.contains("SCF(read)"),
        "{}",
        rep.faults_injected
    );
    assert_eq!(rep.level, 1);
}

#[test]
fn zookeeper_4203_needs_the_invocation_sweep() {
    // The first accept is a session accept; the election accept is found by
    // the Level 2 sweep.
    drive_sweep_bug(BugId::Zookeeper4203, "SCF(accept)");
}

#[test]
fn hdfs_4233_no_journals_reproduces() {
    let rep = drive(BugId::Hdfs4233);
    assert!(
        rep.faults_injected.contains("SCF(openat)"),
        "{}",
        rep.faults_injected
    );
    assert_eq!(
        rep.schedules_generated, 1,
        "first-invocation guess suffices"
    );
}

#[test]
fn hdfs_12070_recovery_fstat_needs_the_sweep() {
    // Block-report fstats precede the recovery one.
    drive_sweep_bug(BugId::Hdfs12070, "SCF(fstat)");
}

#[test]
fn hdfs_15032_balancer_connect_needs_the_sweep() {
    // Cold-round connects are handled; the warm-round one is not.
    drive_sweep_bug(BugId::Hdfs15032, "SCF(connect)");
}

#[test]
fn hdfs_16332_expired_token_reproduces() {
    let rep = drive(BugId::Hdfs16332);
    assert!(
        rep.faults_injected.contains("SCF(read)"),
        "{}",
        rep.faults_injected
    );
    assert_eq!(rep.schedules_generated, 1);
}

#[test]
fn mongodb_243_data_loss_reproduces() {
    let rep = drive(BugId::Mongo243);
    assert!(
        rep.faults_injected.contains("ND"),
        "{}",
        rep.faults_injected
    );
    assert_eq!(rep.level, 1, "fault order alone suffices (paper: L1)");
}

#[test]
fn mongodb_3210_unavailability_reproduces() {
    let rep = drive(BugId::Mongo3210);
    assert!(
        rep.faults_injected.contains("ND"),
        "{}",
        rep.faults_injected
    );
    assert_eq!(rep.level, 1);
}

#[test]
fn fr_reduction_is_high_for_jvm_systems() {
    // The paper's §6.2 observation: the trace diff removes most potential
    // faults for the Java systems (the stat/readlink probing churn).
    for id in [BugId::Zookeeper3006, BugId::Hdfs4233, BugId::Kafka12508] {
        let out = run_case(id, RoseConfig::default(), &DriverOptions::default());
        let rep = out.report.expect("ran");
        assert!(
            rep.extraction.removed_pct() > 80.0,
            "{id}: FR {:.0}%",
            rep.extraction.removed_pct()
        );
    }
}
