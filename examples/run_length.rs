//! Run-length sweep: what one fault-free RedisRaft-42 run costs as it gets
//! longer.
//!
//! Deploys RedisRaft-42 bare at seed 1 (the benchmark warm-up's), runs it
//! for the given virtual seconds and prints the reads its history holds,
//! the bytes of their texts, the process's peak resident set (`VmHWM`, so
//! run one length per process) and the wall time per simulated event.
//!
//! ```sh
//! for s in 60 120 240 480; do cargo run --release -q --example run_length -- $s; done
//! ```

use std::time::Instant;

use rose::apps::redisraft::{RedisRaftBug, RedisRaftCase};
use rose::events::SimDuration;
use rose::sim::OpOutcome;
use rose::Rose;

/// The process's peak resident set in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let secs: u64 = match std::env::args().nth(1).map(|s| s.parse()) {
        None => 120,
        Some(Ok(secs)) if secs > 0 => secs,
        Some(_) => {
            eprintln!("usage: run_length [virtual seconds, > 0; default 120]");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let rose = Rose::new(RedisRaftCase {
        bug: RedisRaftBug::Rr42,
    });
    let mut sim = rose.deploy(1, Vec::new());
    sim.start();
    sim.run_for(SimDuration::from_secs(secs));
    let wall = start.elapsed().as_secs_f64();
    let events = sim.core().events_executed();
    let (mut reads, mut text) = (0, 0);
    for op in sim.core().history.ops() {
        if let OpOutcome::Ok(Some(list)) = &op.outcome {
            reads += 1;
            text += list.len();
        }
    }
    let rss = peak_rss_mb().map_or("n/a".to_string(), |mb| format!("{mb:.1} MB"));
    println!(
        "{secs} virtual s: {events} events, {reads} reads, {:.1} MB read text, VmHWM {rss}, \
         {wall:.2} s wall, {:.2} us/event",
        text as f64 / 1e6,
        wall * 1e6 / events as f64
    );
}
