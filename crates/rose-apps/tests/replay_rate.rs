//! A replay stopped at its verdict reaches the verdict of the same replay
//! played out in full. `Rose::stopped_replays` and `Rose::replay_rate` stop
//! each replay at its first detection, as the diagnosis stops every run it
//! charges. Per seed, at one and two workers, a stopped replay's
//! observation is `Rose::run_replays`' where the bug never shows and a
//! prefix of it where it does, the rate is the played-out runs' share of
//! bug runs, and a stopped replay's propagation chains are the played-out
//! run's, minus the one-hop chains of faults injected after detection.

use rose_apps::driver::CaptureMethod;
use rose_apps::hdfs::{hdfs_capture, HdfsBug, HdfsCase};
use rose_apps::redisraft::{RedisRaftBug, RedisRaftCase};
use rose_core::{Rose, RoseConfig, TargetSystem};
use rose_events::{NodeId, SimDuration};
use rose_inject::{Condition, FaultAction, FaultSchedule, PartitionKind, ScheduledFault};
use rose_obs::causal::propagation_chains;

const BASE_SEED: u64 = 5_000;

/// Whether every element of `part` is in `whole`.
fn subset<T: PartialEq>(part: &[T], whole: &[T]) -> bool {
    part.iter().all(|x| whole.contains(x))
}

/// Holds each stopped replay against the played-out run of the same seed at
/// one and two workers: the same `bug` and `wall`, equal in every field where
/// the bug never showed, a prefix of it where it did; and `replay_rate` equal
/// to the share of played-out runs that showed the bug. Returns the `bug`
/// bits.
fn stopped_is_played_or_a_prefix<S: TargetSystem>(
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
        let full = rose.run_replays(&profile, schedule, n, BASE_SEED);
        let stopped = rose.stopped_replays(&profile, schedule, n, BASE_SEED);
        assert_eq!(stopped.len(), full.len());
        let mut cut = 0;
        for (i, (s, f)) in stopped.iter().zip(&full).enumerate() {
            let at = format!("jobs={jobs} replay {i}");
            assert_eq!(s.bug, f.bug, "{at}");
            assert_eq!(s.wall, f.wall, "{at}");
            assert!(s.causal.is_none() && f.causal.is_none(), "{at}");
            if !s.bug {
                assert_eq!(s.af_calls, f.af_calls, "{at}");
                assert_eq!(s.feedback, f.feedback, "{at}");
                assert_eq!(s.sim_events, f.sim_events, "{at}");
                assert_eq!(s.events_before_injection, f.events_before_injection, "{at}");
                continue;
            }
            assert!(f.af_calls.starts_with(&s.af_calls), "{at}");
            assert!(subset(&s.feedback.armed, &f.feedback.armed), "{at}");
            assert!(subset(&s.feedback.injected, &f.feedback.injected), "{at}");
            assert!(s.sim_events <= f.sim_events, "{at}");
            if s.events_before_injection.is_some() {
                assert_eq!(s.events_before_injection, f.events_before_injection, "{at}");
            }
            cut += usize::from(s.sim_events < f.sim_events);
        }
        bits = full.iter().map(|r| r.bug).collect();
        let share = 100.0 * bits.iter().filter(|bug| **bug).count() as f64 / f64::from(n);
        let rate = rose.replay_rate(&profile, schedule, n, BASE_SEED);
        assert_eq!(rate, share, "jobs={jobs}");
        // The stop is real: a run that shows the bug before its last poll
        // executes less than the played-out run.
        assert!(cut > 0 || !bits.contains(&true), "jobs={jobs}");
    }
    bits
}

/// RedisRaft-43's boot leader, cut off and crashed as it rejoins: the crash
/// lands in the log-rebuild window on some seeds and misses it on others.
fn redisraft_43() -> (RedisRaftCase, FaultSchedule) {
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
    (case, s)
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
fn redisraft_43_stopped_replays_are_the_full_replays_or_their_prefixes() {
    let (case, schedule) = redisraft_43();
    let bits = stopped_is_played_or_a_prefix(case, &schedule, 6);
    assert!(
        bits.contains(&true) && bits.contains(&false),
        "a sub-100 % schedule: {bits:?}"
    );
}

#[test]
fn hdfs_12070_stopped_replays_are_the_full_replays_or_their_prefixes() {
    let (case, schedule) = hdfs_12070();
    let bits = stopped_is_played_or_a_prefix(case, &schedule, 4);
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
    let rose = Rose::with_config(case.clone(), cfg);
    let unrecorded = Rose::new(case);
    let profile = rose.profile();
    for seed in [BASE_SEED, BASE_SEED + 31] {
        let played = rose
            .run_once(&profile, &schedule, seed)
            .causal
            .expect("causal provenance is on");
        let oracle = played.oracle().expect("the bug shows");
        let [stopped] = &rose.stopped_replays(&profile, &schedule, 1, seed)[..] else {
            panic!("one replay");
        };
        assert!(stopped.bug, "seed {seed}");
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

        // A stopped replay records its log iff causal provenance is on.
        let [stopped] = &unrecorded.stopped_replays(&profile, &schedule, 1, seed)[..] else {
            panic!("one replay");
        };
        assert!(stopped.bug && stopped.causal.is_none(), "seed {seed}");
    }
}

#[test]
fn a_discovery_run_that_never_detects_plays_out() {
    let (case, _) = hdfs_12070();
    let bits = stopped_is_played_or_a_prefix(case, &FaultSchedule::new(), 3);
    assert!(bits.iter().all(|bug| !*bug), "{bits:?}");
}
