//! Replay-rate regressions for Level-2.5 execution-index diagnosis: a
//! recorded execution index must never reproduce a registry bug at a lower
//! replay rate than the paper's flat invocation counter — the same
//! extraction with its indices stripped — and the cases that replay at 100%
//! flat must stay at 100%.
//!
//! Run with `--release`; each case is a capture plus two diagnoses.

use rose_analyze::DiagnosisReport;
use rose_apps::driver::{flat_vs_ei, DriverOptions};
use rose_apps::registry::BugId;
use rose_core::RoseConfig;

/// `(flat, ei)`: one capture from `capture_seed` on, one extraction,
/// searched stripped of its execution indices and as recorded — so the
/// comparison isolates the sweep keying.
fn drive_from(id: BugId, capture_seed: u64) -> (DiagnosisReport, DiagnosisReport) {
    let opts = DriverOptions {
        capture_seed,
        ..DriverOptions::default()
    };
    flat_vs_ei(id, RoseConfig::default(), &opts)
        .unwrap_or_else(|| panic!("{id}: no buggy trace captured"))
}

fn drive(id: BugId) -> (DiagnosisReport, DiagnosisReport) {
    drive_from(id, DriverOptions::default().capture_seed)
}

#[test]
fn redisraft_43_ei_replay_no_worse_than_flat() {
    // The headline sub-100% case: flat replays at 70%. Its winning schedule
    // is partitions + a context-conditioned crash (no SCF), so a search that
    // looks for recorded indices must leave it untouched rather than
    // degrade it. The trace captured from the default seed (attempt 26) is
    // pathological — nothing reproduces from it and the driver re-captures
    // — so this starts where the driver's second round does.
    let id = BugId::RedisRaft43;
    let second_round = DriverOptions::default().capture_seed + 26 * 13;
    let (flat, ei) = drive_from(id, second_round);
    assert!(flat.reproduced, "{id}: flat baseline did not reproduce");
    assert!(ei.reproduced, "{id}: not reproduced under EI");
    assert!(
        ei.replay_rate >= flat.replay_rate,
        "{id}: EI replay {:.0}% < flat {:.0}%",
        ei.replay_rate,
        flat.replay_rate
    );
}

#[test]
fn zookeeper_2247_ei_replay_no_worse_than_flat() {
    let (flat, ei) = drive(BugId::Zookeeper2247);
    assert!(flat.reproduced && ei.reproduced);
    assert!(
        ei.replay_rate >= flat.replay_rate,
        "EI replay {:.0}% < flat {:.0}%",
        ei.replay_rate,
        flat.replay_rate
    );
    // The txn-log write failure carries a recorded execution index
    // ([appendTxnLog], count), so the Level-2.5 pre-pass must engage.
    assert!(ei.ei_sweeps >= 1, "EI pre-pass did not engage: {ei:?}");
}

/// The EI sweep's payoff besides stability: where the flat Level-2 sweep
/// had to walk several flat invocation indices, the recorded context pins
/// the site on the first EI candidate.
#[test]
fn ei_shrinks_the_hdfs_sweeps_at_full_replay_rate() {
    for id in [BugId::Hdfs12070, BugId::Hdfs15032] {
        let (flat, ei) = drive(id);
        assert_eq!(flat.replay_rate, 100.0, "{id}: flat baseline moved");
        assert_eq!(ei.replay_rate, 100.0, "{id}: EI lost the 100% rate");
        assert!(
            ei.schedules_generated < flat.schedules_generated,
            "{id}: EI generated {} schedules vs {} flat — no sweep shrink",
            ei.schedules_generated,
            flat.schedules_generated
        );
        assert!(ei.ei_sweeps >= 1);
    }
}

/// Every registry case that replays at 100% with the flat counter must
/// still replay at 100% from its recorded indices (the `replay_no_worse`
/// invariant, pinned here for the cheap-to-run SCF-heavy systems).
#[test]
fn full_rate_scf_cases_stay_full_under_ei() {
    for id in [
        BugId::Zookeeper3006,
        BugId::Zookeeper3157,
        BugId::Zookeeper4203,
        BugId::Hdfs4233,
        BugId::Hdfs16332,
        BugId::Kafka12508,
        BugId::Hbase19608,
        BugId::Tendermint5839,
    ] {
        let (_, ei) = drive(id);
        assert!(ei.reproduced, "{id}: not reproduced under EI");
        assert_eq!(
            ei.replay_rate, 100.0,
            "{id}: EI rate {:.0}%",
            ei.replay_rate
        );
    }
}

/// Systems whose winning schedules carry no SCF at all (crash/partition/
/// pause bugs) must be bit-unaffected by the strip: same rate, same schedule
/// count, no EI sweeps charged.
#[test]
fn non_scf_cases_are_untouched_by_the_strip() {
    for id in [BugId::RedisRaft42, BugId::Mongo243] {
        let (flat, ei) = drive(id);
        assert_eq!(ei.replay_rate, flat.replay_rate, "{id}");
        assert_eq!(ei.schedules_generated, flat.schedules_generated, "{id}");
    }
}
