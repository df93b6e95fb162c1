//! `Rose::replay_rate` stops each replay at its verdict; the rate it
//! reports is the share of `bug` over the same replays played out in full.

use rose_apps::driver::CaptureMethod;
use rose_apps::hdfs::{hdfs_capture, HdfsBug, HdfsCase};
use rose_apps::redisraft::{RedisRaftBug, RedisRaftCase};
use rose_core::{Rose, RoseConfig, TargetSystem};
use rose_events::{NodeId, SimDuration};
use rose_inject::{Condition, FaultAction, FaultSchedule, PartitionKind, ScheduledFault};

/// The rate over replays stopped at detection, and over full replays.
fn rates<S: TargetSystem>(system: S, schedule: &FaultSchedule, n: u32, jobs: usize) -> (f64, f64) {
    let cfg = RoseConfig {
        jobs,
        ..RoseConfig::default()
    };
    let rose = Rose::with_config(system, cfg);
    let profile = rose.profile();
    let full = rose.run_replays(&profile, schedule, n, 5_000);
    let bugs = full.iter().filter(|r| r.bug).count();
    let stopped = rose.replay_rate(&profile, schedule, n, 5_000);
    (stopped, 100.0 * bugs as f64 / f64::from(n))
}

#[test]
fn redisraft_43_rate_is_the_share_of_full_replays_that_detect() {
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
    let (stopped, full) = rates(case, &s, 6, 2);
    assert_eq!(stopped, full);
    assert!(0.0 < full && full < 100.0, "a sub-100 % schedule: {full}");
}

#[test]
fn hdfs_12070_rate_is_the_share_of_full_replays_that_detect() {
    let CaptureMethod::Scripted(schedule) = hdfs_capture(HdfsBug::Hdfs12070).method else {
        panic!("HDFS-12070 ships a scripted trigger");
    };
    let case = HdfsCase {
        bug: HdfsBug::Hdfs12070,
    };
    let (stopped, full) = rates(case, &schedule, 4, 1);
    assert_eq!(stopped, full);
    assert_eq!(full, 100.0);
}
