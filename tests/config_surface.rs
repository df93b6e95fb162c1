//! The option surface, pinned.
//!
//! Every config struct is destructured exhaustively (no `..`), so a new
//! knob does not compile until it is listed here — and the leaf count below
//! edited on purpose. A knob earns its place when two callers that are not
//! tests need different values; a value with one setting in use is a named
//! `const` next to its reader, and the second half of this file checks those
//! constants (and the remaining defaults) against the paper's numbers.

use rose::analyze::{DiagnosisConfig, CONFIRM_RUNS, SCF_SWEEP_CAP, WARMUP};
use rose::apps::driver::{DriverOptions, CAPTURE_DURATION};
use rose::core::{RoseConfig, PROFILING_SEED};
use rose::events::{SimDuration, DEFAULT_WINDOW_CAPACITY};
use rose::hunt::{HuntConfig, BATCH, CHILDREN_PER_RUN, MAX_DEPTH, PAUSE, SCF_ROOT_CAP, TIME_STEP};
use rose::profile::FREQUENCY_THRESHOLD;
use rose::trace::{TracerConfig, TracerMode, CONTENT_CAP, ND_THRESHOLD, PS_WAIT_THRESHOLD};

/// Destructures `$value` into exactly the listed fields and binds `$count`
/// to how many there are.
macro_rules! surface {
    ($count:ident = $ty:ident { $($field:ident),* $(,)? } = $value:expr) => {
        let $ty { $($field),* } = $value;
        let $count = [$(stringify!($field)),*].len();
    };
}

#[test]
fn twenty_six_options_with_the_papers_defaults() {
    surface!(
        rose = RoseConfig {
            diagnosis,
            profiling_duration,
            jobs,
            causal
        } = RoseConfig::default()
    );
    let rose_jobs = jobs;
    surface!(
        diag = DiagnosisConfig {
            target_replay_rate,
            confirm_abort_correct,
            max_schedules,
            base_seed,
            cluster_nodes,
            enable_amplification,
            discovery_runs,
            speculation,
            seed_schedule,
        } = diagnosis
    );
    surface!(
        driver = DriverOptions {
            capture_seed,
            max_capture_attempts,
            max_diagnosis_rounds,
            jobs,
            trace_dir,
            trace_label,
            causal_dir,
        } = DriverOptions::default()
    );
    let driver_jobs = jobs;
    surface!(
        hunt = HuntConfig {
            budget,
            jobs,
            seed,
            visited_path
        } = HuntConfig::default()
    );
    surface!(
        tracer = TracerConfig {
            mode,
            window_capacity,
            monitored_functions
        } = TracerConfig::rose(["snap".to_string()])
    );

    // `RoseConfig::diagnosis` is counted as its nine leaves.
    assert_eq!((rose - 1, diag, driver, hunt, tracer), (3, 9, 7, 4, 3));
    assert_eq!(rose - 1 + diag + driver + hunt + tracer, 26);

    // Diagnosis (§4.5): accept at 60 %, abort a confirmation once more than
    // 3 of its runs come back clean.
    assert_eq!(target_replay_rate, 60.0);
    assert_eq!(confirm_abort_correct, 3);
    assert_eq!((max_schedules, base_seed, discovery_runs), (120, 10_000, 1));
    assert_eq!((cluster_nodes, speculation), (3, 1));
    assert!(enable_amplification && seed_schedule.is_none());

    assert_eq!(profiling_duration, SimDuration::from_secs(60));
    assert_eq!(rose_jobs, 1);
    assert!(!causal);

    assert_eq!((capture_seed, max_capture_attempts), (777, 400));
    assert_eq!(max_diagnosis_rounds, 4);
    assert_eq!(driver_jobs, 1);
    assert!(trace_label.is_none() && trace_dir.is_none() && causal_dir.is_none());

    assert_eq!((budget, jobs, seed), (200, 1, 42));
    assert!(visited_path.is_none());

    // Tracer (§4.4): a 1 M-event window; only monitored functions get ids.
    assert_eq!(mode, TracerMode::Rose);
    assert_eq!(window_capacity, 1_000_000);
    assert_eq!(monitored_functions.len(), 1);
}

#[test]
fn constants_equal_the_papers_numbers() {
    // Profiling (§4.3): functions called at most 2 times a second are
    // monitored.
    assert_eq!(FREQUENCY_THRESHOLD, 2.0);
    // Tracer (§4.4): window of 1 M events, ND after 5 s of silence, PS after
    // 3 s waiting; the IO-content baseline captures up to 128 bytes.
    assert_eq!(DEFAULT_WINDOW_CAPACITY, 1_000_000);
    assert_eq!(ND_THRESHOLD, SimDuration::from_secs(5));
    assert_eq!(PS_WAIT_THRESHOLD, SimDuration::from_secs(3));
    assert_eq!(CONTENT_CAP, 128);
    // Diagnosis (§4.5): 10 confirmation runs per candidate; invocation
    // sweeps stop at 50 (§4.5.2); Level 1 times are offset by a 5 s
    // warm-up.
    assert_eq!(CONFIRM_RUNS, 10);
    assert_eq!(SCF_SWEEP_CAP, 50);
    assert_eq!(WARMUP, SimDuration::from_secs(5));
    // Campaign driver: 120 s captures, profiling seed 42.
    assert_eq!(CAPTURE_DURATION, SimDuration::from_secs(120));
    assert_eq!(PROFILING_SEED, 42);
    // Hunt: batches of 8, depth ≤ 3, 12 children per run, 64 SCF roots, a
    // 15 s whole-node time grid, 8 s pauses.
    assert_eq!(
        (BATCH, MAX_DEPTH, CHILDREN_PER_RUN, SCF_ROOT_CAP),
        (8, 3, 12, 64)
    );
    assert_eq!(TIME_STEP, SimDuration::from_secs(15));
    assert_eq!(PAUSE, SimDuration::from_secs(8));
}

#[test]
fn baseline_tracers_differ_from_rose_only_in_mode() {
    let rose = TracerConfig::rose(std::iter::empty());
    let full = TracerConfig::full();
    let io = TracerConfig::io_content(std::iter::empty());
    assert_eq!(full.mode, TracerMode::Full);
    assert_eq!(io.mode, TracerMode::IoContent);
    for baseline in [&full, &io] {
        assert_eq!(baseline.window_capacity, rose.window_capacity);
        assert_eq!(baseline.monitored_functions, rose.monitored_functions);
    }
    assert_eq!(full.with_window(200_000).window_capacity, 200_000);
}
