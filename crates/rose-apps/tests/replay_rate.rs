//! A replay stopped at its verdict reaches the verdict of the same replay
//! played out in full. `Rose::replay_verdicts` and `Rose::replay_rate` stop
//! each replay at its first detection; per seed, their `bug` bits are
//! `Rose::run_replays`' at one and two workers, and a stopped replay's
//! propagation chains are the played-out run's, minus the one-hop chains of
//! faults injected after detection.

use rose_apps::driver::CaptureMethod;
use rose_apps::hdfs::{hdfs_capture, HdfsBug, HdfsCase};
use rose_apps::redisraft::{RedisRaftBug, RedisRaftCase};
use rose_core::{Rose, RoseConfig, TargetSystem};
use rose_events::{NodeId, SimDuration};
use rose_inject::{Condition, FaultAction, FaultSchedule, PartitionKind, ScheduledFault};
use rose_obs::causal::propagation_chains;

const BASE_SEED: u64 = 5_000;

/// Holds the stopped verdicts, and the rate over them, equal per seed to
/// the played-out replays' `bug` bits at one and two workers; returns
/// those bits.
fn stopped_equals_played<S: TargetSystem>(
    system: S,
    schedule: &FaultSchedule,
    n: u32,
) -> Vec<bool> {
    let profile = Rose::new(system.clone()).profile();
    let mut bits = Vec::new();
    for jobs in [1, 2] {
        let cfg = RoseConfig {
            jobs,
            ..RoseConfig::default()
        };
        let rose = Rose::with_config(system.clone(), cfg);
        let full: Vec<bool> = rose
            .run_replays(&profile, schedule, n, BASE_SEED)
            .iter()
            .map(|r| r.bug)
            .collect();
        let stopped: Vec<bool> = rose
            .replay_verdicts(&profile, schedule, n, BASE_SEED)
            .iter()
            .map(|v| v.bug)
            .collect();
        assert_eq!(stopped, full, "jobs={jobs}");
        let share = 100.0 * full.iter().filter(|bug| **bug).count() as f64 / f64::from(n);
        let rate = rose.replay_rate(&profile, schedule, n, BASE_SEED);
        assert_eq!(rate, share, "jobs={jobs}");
        bits = full;
    }
    bits
}

fn hdfs_12070() -> (HdfsCase, FaultSchedule) {
    let CaptureMethod::Scripted(schedule) = hdfs_capture(HdfsBug::Hdfs12070).method else {
        panic!("HDFS-12070 ships a scripted trigger");
    };
    let case = HdfsCase {
        bug: HdfsBug::Hdfs12070,
    };
    (case, schedule)
}

#[test]
fn redisraft_43_stopped_verdicts_are_the_full_replays_bits() {
    // The boot leader is cut off and crashed as it rejoins; the crash lands
    // in the log-rebuild window on some seeds and misses it on others.
    let mut s = FaultSchedule::new();
    s.push(
        ScheduledFault::new(
            NodeId(0),
            FaultAction::Partition {
                kind: PartitionKind::IsolateNode(NodeId(0)),
                duration: Some(SimDuration::from_secs(8)),
            },
        )
        .after(Condition::TimeElapsed {
            after: SimDuration::from_secs(10),
        }),
    );
    s.push(
        ScheduledFault::new(NodeId(0), FaultAction::Crash).after(Condition::TimeElapsed {
            after: SimDuration::from_millis(21_500),
        }),
    );
    let case = RedisRaftCase {
        bug: RedisRaftBug::Rr43,
    };
    let bits = stopped_equals_played(case, &s, 6);
    assert!(
        bits.contains(&true) && bits.contains(&false),
        "a sub-100 % schedule: {bits:?}"
    );
}

#[test]
fn hdfs_12070_stopped_verdicts_are_the_full_replays_bits() {
    let (case, schedule) = hdfs_12070();
    let bits = stopped_equals_played(case, &schedule, 4);
    assert!(bits.iter().all(|bug| *bug), "{bits:?}");
}

#[test]
fn a_stopped_replay_loses_only_the_chains_of_faults_injected_after_detection() {
    // The trigger, plus a crash long after the bug shows: played out, the
    // crash is injected after the oracle node and can reach nothing.
    let (case, mut schedule) = hdfs_12070();
    schedule.push(ScheduledFault::new(NodeId(1), FaultAction::Crash).after(
        Condition::TimeElapsed {
            after: SimDuration::from_secs(50),
        },
    ));
    let cfg = RoseConfig {
        causal: true,
        ..RoseConfig::default()
    };
    let rose = Rose::with_config(case, cfg);
    let profile = rose.profile();
    for seed in [BASE_SEED, BASE_SEED + 31] {
        let played = rose
            .run_once(&profile, &schedule, seed)
            .causal
            .expect("causal provenance is on");
        let oracle = played.oracle().expect("the bug shows");
        let [stopped] = &rose.replay_verdicts(&profile, &schedule, 1, seed)[..] else {
            panic!("one replay");
        };
        let stopped = stopped.causal.as_ref().expect("causal provenance is on");

        // The stopped log is the played-out one up to its oracle node.
        let cut = oracle.0 as usize + 1;
        assert_eq!(stopped.nodes, played.nodes[..cut], "seed {seed}");
        let before: Vec<_> = played
            .edges
            .iter()
            .filter(|e| e.to.0 < cut as u64)
            .copied()
            .collect();
        assert_eq!(stopped.edges, before, "seed {seed}");

        let all = propagation_chains(&played);
        let expected: Vec<_> = all
            .iter()
            .filter(|c| !(c.hops.len() == 1 && c.hops[0].id > oracle.0))
            .cloned()
            .collect();
        assert!(expected.len() < all.len(), "the late crash's chain goes");
        assert_eq!(propagation_chains(stopped), expected, "seed {seed}");
    }
}
