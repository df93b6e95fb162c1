use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rose_benchmark::cli::{self, Args, Mode};
use rose_benchmark::report::{compare, print_workload, ResultSet, WorkloadResult};
use rose_benchmark::runner::{self, RESULTS_DIR};
use rose_benchmark::stats::Machine;
use rose_benchmark::workloads::Workload;

/// Runs every selected workload once through: timed passes, then (with
/// `--trace 1`) the traced pass. With `--workload` and `--trace 1` only the
/// traced pass runs, as the benchmark contract's `--trace 1` asks.
fn run_set(args: &Args, out: &Path) -> ResultSet {
    let mut set = ResultSet {
        machine: Machine::capture(),
        seed: args.seed,
        smoke: args.smoke,
        build_s: std::env::var("ROSE_BENCH_BUILD_S")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.0),
        workloads: Vec::new(),
    };
    let selected: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    for w in selected {
        eprintln!("[bench] {} …", w.name());
        let mut result = if args.trace && args.workload.is_some() {
            WorkloadResult::new(w.name())
        } else {
            runner::measure(w, args.seed, args.smoke, args.stop)
        };
        if args.trace {
            runner::trace(w, args.seed, args.smoke, &mut result);
        }
        print_workload(&result);
        set.workloads.push(result);
    }
    if let Some((wall, cpu)) = runner::jobs2_speedup(&set.workloads) {
        println!(
            "== --jobs 2 on {} cores: wall_s diag-heavy / diag-heavy-j2 = {wall:.3}, \
             cpu_s diag-heavy-j2 / diag-heavy = {cpu:.3}",
            set.machine.nproc
        );
    }
    if let Err(e) = set.save(out) {
        eprintln!("warning: cannot write {}: {e}", out.display());
    } else {
        eprintln!("[bench] results written to {}", out.display());
    }
    set
}

fn all_correct(set: &ResultSet) -> bool {
    set.workloads.iter().all(|w| w.correct)
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let results = PathBuf::from(RESULTS_DIR);
    let ok = match &args.mode {
        Mode::Help => {
            println!("{}", cli::USAGE);
            true
        }
        Mode::ChildPass { spawned_at } => {
            let w = args.workload.expect("checked by the parser");
            runner::child_pass(w, args.seed, args.smoke, args.trace, *spawned_at);
            true
        }
        Mode::Compare(a, b) => match (ResultSet::load(a), ResultSet::load(b)) {
            (Ok(a), Ok(b)) => !compare(&a, &b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        Mode::Aa => {
            let a = run_set(&args, &results.join("aa-1.json"));
            let b = run_set(&args, &results.join("aa-2.json"));
            !compare(&a, &b) && all_correct(&a) && all_correct(&b)
        }
        Mode::Run => {
            let out = args
                .out
                .clone()
                .unwrap_or_else(|| results.join("latest.json"));
            let set = run_set(&args, &out);
            if args.workload.is_some() {
                // The benchmark contract's result line, last on stdout.
                println!("{}", runner::contract_line(&set.workloads[0], args.trace));
            }
            all_correct(&set)
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
