//! The paper's case study (§3, §6.2): `RedisRaft-43`.
//!
//! Walks the motivating example step by step: capture a trace under
//! randomized fault injection, show that replaying the same faults at their
//! recorded times almost never reproduces the bug, then let the diagnosis
//! search find the fault context (`RaftLogCreate`) that reproduces it
//! deterministically.
//!
//! ```sh
//! cargo run --release --example reproduce_redisraft43
//! ```

use rose::analyze::level1_schedule;
use rose::apps::driver::{capture_buggy_trace, DriverOptions};
use rose::apps::redisraft::{redisraft_capture, RedisRaftBug, RedisRaftCase};
use rose::core::Rose;

fn main() {
    let rose = Rose::new(RedisRaftCase {
        bug: RedisRaftBug::Rr43,
    });

    println!("1. profiling a failure-free run …");
    let profile = rose.profile();
    println!(
        "   {} candidate functions → {} monitored, {} benign fault classes",
        profile.candidates.len(),
        profile.infrequent_functions().len(),
        profile.benign.len()
    );

    println!("2. capturing a buggy trace under randomized fault injection …");
    let opts = DriverOptions::default();
    let (cap, attempts) = capture_buggy_trace(
        &rose,
        &profile,
        &redisraft_capture(RedisRaftBug::Rr43),
        &opts,
    );
    let cap = cap.expect("the nemesis eventually hits the bug");
    println!(
        "   bug surfaced after {attempts} run(s); trace has {} events",
        cap.trace.len()
    );

    println!("3. extracting faults (diffing against the failure-free profile) …");
    let extraction = rose.extract(&profile, &cap.trace);
    println!(
        "   {} fault events → {} faults ({:.0}% removed as benign)",
        extraction.stats.total_fault_events,
        extraction.stats.extracted,
        extraction.stats.removed_pct()
    );

    println!("4. the naive baseline: replay the faults at their recorded times …");
    let manual = level1_schedule(&extraction);
    let manual_rate = rose.replay_rate(&profile, &manual, 20, 4_000);
    println!("   replay rate: {manual_rate:.0}% — the paper's ~1% Jepsen experience");

    println!("5. running the Rose diagnosis …");
    let report = rose.reproduce_extracted(&profile, &extraction);
    println!(
        "   reproduced={} at {:.0}% (level {}, {} schedules, {} runs)",
        report.reproduced,
        report.replay_rate,
        report.level,
        report.schedules_generated,
        report.runs
    );

    let schedule = report.schedule.expect("winning schedule");
    println!("\nThe winning schedule — note the final crash conditioned on the");
    println!("`RaftLogCreate` function entry (before `parseLog` runs):\n");
    println!("{}", schedule.to_yaml());
}
