//! Regenerates the paper's §3 motivating experiment: the RedisRaft-43
//! reproducibility gap. A manually extracted last-faults schedule (the
//! faults replayed at their production-relative times, as a Jepsen user
//! would script them) replays at a few percent; Rose's context-conditioned
//! schedule replays at ~100 %.
//!
//! Usage: `cargo run -p rose-bench --release --bin motivation [-- --runs N] [-- --jobs N] [-- --report out.jsonl] [-- --trace-dir traces/] [-- --causal causal/]`
//! (`--runs N` is the number of replays behind each rate, at least 1;
//! `--jobs N` fans the replay-rate measurements and the diagnosis's
//! speculative schedule search across `N` workers with bit-identical
//! results; `--report <path>` appends the campaign's JSONL phase records to
//! `<path>`; `--trace-dir <dir>` persists the captured trace as
//! `motivation-redisraft-43.rosetrace` and diagnoses from the reloaded
//! binary; `--causal <dir>` records causal provenance and writes the
//! winning schedule's propagation chains as
//! `motivation-redisraft-43.flow.json` + `.dot`).
//! Flags are parsed strictly ([`rose_bench::args`]): an unknown flag or a bad
//! value prints the usage line to stderr and exits with status 2.

use std::num::NonZeroU32;

use rose_analyze::level1_schedule;
use rose_apps::driver::{capture_and_diagnose, DriverOptions};
use rose_apps::redisraft::{redisraft_capture, RedisRaftBug, RedisRaftCase};
use rose_bench::args::Args;
use rose_bench::report::{self, ReportSink};
use rose_core::{Rose, RoseConfig, TargetSystem};

const USAGE: &str =
    "usage: motivation [--runs N] [--jobs N] [--report PATH] [--trace-dir DIR] [--causal DIR]";

fn main() {
    let mut args = Args::from_env();
    let runs = args.value("--runs").map_or(100, NonZeroU32::get);
    let jobs = args.jobs();
    let report_path = args.report();
    let trace_dir = args.trace_dir();
    let causal_dir = args.causal_dir();
    args.finish(USAGE);

    let sink = ReportSink::open(report_path);
    let case = RedisRaftCase {
        bug: RedisRaftBug::Rr43,
    };
    let mut cfg = RoseConfig {
        jobs,
        causal: causal_dir.is_some(),
        ..Default::default()
    };
    cfg.diagnosis.speculation = cfg.diagnosis.speculation.max(jobs);
    let mut rose = Rose::with_config(case, cfg);
    rose.attach_obs(rose_obs::Obs::new());
    report::section("profiling …");
    let profile = rose.profile();

    report::section("capturing a buggy production trace under the Jepsen-style nemesis …");
    let opts = DriverOptions {
        trace_dir,
        trace_label: Some("motivation-redisraft-43".into()),
        ..DriverOptions::default()
    };
    // Capture + diagnose with the driver's re-capture rounds: a pathological
    // first trace (windows cut mid-fault) gets replaced, as an operator
    // would grab another production trace.
    let (cap, report, attempts) = capture_and_diagnose(
        &rose,
        &profile,
        &redisraft_capture(RedisRaftBug::Rr43),
        &opts,
    );
    let cap = cap.expect("RedisRaft-43 capture");
    let report = report.expect("diagnosis ran");
    if let Some(dir) = &causal_dir {
        report::export_causal_files(dir, "motivation-redisraft-43", &report.propagation);
    }
    report::progress(format!(
        "captured after {attempts} attempt(s); {} events",
        cap.trace.len()
    ));

    // The manual baseline: the extracted faults replayed at their relative
    // production times (what §3 calls "a simple schedule incorporating
    // these faults").
    let extraction = rose.extract(&profile, &cap.trace);
    let mut diag_cfg = rose.config().diagnosis.clone();
    diag_cfg.cluster_nodes = rose.system().cluster_size();
    let manual = level1_schedule(&extraction, &diag_cfg);

    report::section(format!("measuring the manual schedule over {runs} runs …"));
    let manual_rate = rose.replay_rate(&profile, &manual, runs, 5_000);

    let rose_schedule = report
        .schedule
        .clone()
        .expect("diagnosis produced a schedule");
    report::progress(format!(
        "diagnosis: reproduced={} level={} schedules={} runs={}",
        report.reproduced, report.level, report.schedules_generated, report.runs
    ));

    report::section(format!("measuring the Rose schedule over {runs} runs …"));
    let rose_rate = rose.replay_rate(&profile, &rose_schedule, runs, 9_000);

    sink.write(rose.obs());
    report::out(format!(
        "\nMotivating experiment (§3): RedisRaft-43 replay rates over {runs} runs"
    ));
    report::out(format!(
        "  manual fault replay (relative times):  {manual_rate:.0}%"
    ));
    report::out(format!(
        "  Rose context-conditioned schedule:     {rose_rate:.0}%"
    ));
    report::out(
        "\nThe gap is the paper's point: the bug requires the final crash inside\n\
         the ~320 ms log-rebuild window (`RaftLogCreate`, before `parseLog`);\n\
         timed replay almost never lands there, the function-entry condition\n\
         always does.",
    );
    sink.announce();
}
