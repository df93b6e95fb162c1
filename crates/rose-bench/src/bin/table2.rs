//! Regenerates the paper's **Table 2**: the cost of the Rose tracer versus
//! the `Full` (every syscall) and `IO content` (plus ≤128 B read/write
//! payloads) baselines, on a 3-node Redis-like cluster under YCSB-A.
//!
//! Columns: events matched, events saved in the window, peak window memory,
//! the dumped trace's size as JSON and in the `.rosetrace` binary codec,
//! trace post-processing time, and application-level throughput overhead
//! versus an untraced baseline.
//!
//! Usage: `cargo run -p rose-bench --release --bin table2 [-- --secs N] [-- --jobs N] [-- --report out.jsonl]`
//! (`--secs N` is the virtual length of each measurement, at least 1;
//! `--jobs N` runs the four measurements — baseline plus the three tracer
//! modes — concurrently; `--report <path>` appends one JSONL tracing record
//! per tracer mode).
//! Flags are parsed strictly ([`rose_bench::args`]): an unknown flag or a bad
//! value prints the usage line to stderr and exits with status 2.

use std::num::NonZeroU64;

use rose_bench::args::Args;
use rose_bench::rediskv::run_ycsb;
use rose_bench::report::{self, ReportSink};
use rose_bench::table::{fmt_bytes, render};
use rose_core::{ordered_map, TraceCapture};
use rose_events::SimTime;
use rose_obs::PhaseRecord;
use rose_trace::{Tracer, TracerConfig, TracerMode};

fn tracer_for(mode: TracerMode) -> Tracer {
    let cfg = match mode {
        TracerMode::Rose => TracerConfig::rose(std::iter::empty()),
        TracerMode::Full => TracerConfig::full(),
        TracerMode::IoContent => TracerConfig::io_content(std::iter::empty()),
    };
    Tracer::new(cfg)
}

const USAGE: &str = "usage: table2 [--secs N] [--jobs N] [--report PATH]";

fn main() {
    let mut args = Args::from_env();
    let secs = args.value("--secs").map_or(60, NonZeroU64::get);
    let jobs = args.jobs();
    let report_path = args.report();
    args.finish(USAGE);
    let sink = ReportSink::open(report_path);
    let clients = 6;

    // The baseline and the three tracer modes are four independent simulated
    // clusters; overhead percentages are derived only after all four finish,
    // so the table is identical at any `--jobs`.
    let measurements = ordered_map(
        jobs,
        vec![
            None,
            Some(("Rose", TracerMode::Rose)),
            Some(("Full", TracerMode::Full)),
            Some(("IO Content", TracerMode::IoContent)),
        ],
        |entry| match entry {
            None => {
                report::section(format!("baseline (no tracer), {secs}s of YCSB-A …"));
                let (_, ops) = run_ycsb(vec![], clients, secs, 42);
                ("baseline", ops, None)
            }
            Some((name, mode)) => {
                report::section(format!("{name} tracer …"));
                let (mut sim, ops) = run_ycsb(vec![Box::new(tracer_for(mode))], clients, secs, 42);
                let now = sim.now();
                let tracer = sim.hook_mut::<Tracer>().unwrap();
                let capture = TraceCapture {
                    trace: tracer.dump(now),
                    bug: false,
                    report: tracer.report(),
                    charged: tracer.total_charged,
                    elapsed: now.since(SimTime::ZERO),
                };
                // The record carries the dump in both serializations (the
                // JSON and Binary columns).
                (name, ops, Some(capture.phase_record(1)))
            }
        },
    );

    let base_ops = measurements[0].1;
    let base_tput = base_ops as f64 / secs as f64;
    report::progress(format!("  baseline: {base_ops} ops ({base_tput:.0} ops/s)"));

    let mut rows = Vec::new();
    for (name, ops, traced) in measurements {
        let Some(rec) = traced else {
            continue;
        };
        let overhead = 100.0 * (base_ops.saturating_sub(ops)) as f64 / base_ops as f64;
        rows.push(vec![
            name.to_string(),
            rec.events_matched.to_string(),
            rec.events_saved.to_string(),
            fmt_bytes(rec.peak_bytes),
            fmt_bytes(rec.dump_json_bytes as usize),
            fmt_bytes(rec.dump_store_bytes as usize),
            format!("{:.2}", rec.processing_us as f64 / 1e6),
            format!("{overhead:.1}%"),
        ]);
        report::progress(format!(
            "  {name}: {ops} ops, {} events, overhead {overhead:.1}%",
            rec.events_matched
        ));
        sink.write_records(&[PhaseRecord::Tracing(rec)]);
    }

    report::out("\nTable 2: Cost of the Rose tracer versus alternatives");
    report::out(format!(
        "(3-node Redis-like cluster, YCSB-A, {clients} closed-loop clients, {secs}s virtual)\n"
    ));
    report::out(render(
        &[
            "Approach", "Events", "Saved", "Memory", "JSON", "Binary", "Time (s)", "Overhead",
        ],
        &rows,
    ));
    report::out(format!("baseline throughput: {base_tput:.0} ops/s"));
    sink.announce();
}
