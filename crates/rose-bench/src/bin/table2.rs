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
use rose_core::ordered_map;
use rose_obs::{PhaseRecord, TracingStats};
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
                let trace = tracer.dump(now);
                let rep = tracer.report();
                let charged = tracer.total_charged;
                // The dump in both serializations (the JSON and Binary columns).
                let dump_bytes = (
                    trace.json_len() as u64,
                    rose_store::encoded_trace_bytes(&trace),
                );
                (name, ops, Some((trace.len(), rep, charged, dump_bytes)))
            }
        },
    );

    let base_ops = measurements[0].1;
    let base_tput = base_ops as f64 / secs as f64;
    report::progress(format!("  baseline: {base_ops} ops ({base_tput:.0} ops/s)"));

    let mut rows = Vec::new();
    for (name, ops, traced) in measurements {
        let Some((trace_events, rep, charged, (dump_json, dump_store))) = traced else {
            continue;
        };
        let overhead = 100.0 * (base_ops.saturating_sub(ops)) as f64 / base_ops as f64;
        sink.write_records(&[PhaseRecord::Tracing(TracingStats {
            attempts: 1,
            bug_detected: false,
            trace_events,
            events_matched: rep.events_matched,
            events_saved: rep.events_saved,
            peak_bytes: rep.peak_bytes,
            processing_us: rep.processing_us,
            overhead_charged_us: charged.as_micros(),
            dump_json_bytes: dump_json,
            dump_store_bytes: dump_store,
        })]);
        rows.push(vec![
            name.to_string(),
            rep.events_matched.to_string(),
            rep.events_saved.to_string(),
            fmt_bytes(rep.peak_bytes),
            fmt_bytes(dump_json as usize),
            fmt_bytes(dump_store as usize),
            format!("{:.2}", rep.processing_us as f64 / 1e6),
            format!("{overhead:.1}%"),
        ]);
        report::progress(format!(
            "  {name}: {ops} ops, {} events, overhead {overhead:.1}%",
            rep.events_matched
        ));
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
