//! Every bench binary rejects bad command lines before doing any work: exit
//! status 2, the usage line on stderr, nothing on stdout.

use std::process::Command;

const BINS: [(&str, &str); 6] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("motivation", env!("CARGO_BIN_EXE_motivation")),
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("hunt", env!("CARGO_BIN_EXE_hunt")),
];

fn assert_rejected(name: &str, args: &[&str]) {
    let exe = BINS.iter().find(|(n, _)| *n == name).expect("known bin").1;
    let out = Command::new(exe).args(args).output().expect("bin starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} {args:?} wrote to stdout");
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name} {args:?}: no usage in {stderr:?}"
    );
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    for (name, _) in BINS {
        assert_rejected(name, &["--no-such-flag"]);
    }
    // Level 2.5 is the search, not a mode: the flag that selected it is gone.
    assert_rejected("table1", &["--ei"]);
    // Flags other bins take are unknown to a bin that does not.
    assert_rejected("table3", &["--quick"]);
    assert_rejected("hunt", &["--causal", "dir"]);
    // table2 and table3 do not run the driver: no trace store, no provenance.
    for name in ["table2", "table3"] {
        assert_rejected(name, &["--causal", "d"]);
        assert_rejected(name, &["--trace-dir", "d"]);
    }
    // `--quick` picks its own rows: a bug name beside it is ambiguous.
    assert_rejected("table1", &["--quick", "HDFS-12070"]);
}

#[test]
fn missing_and_unparsable_values_exit_2_with_usage() {
    assert_rejected("table1", &["--quick", "--report"]);
    assert_rejected("table2", &["--secs", "abc"]);
    assert_rejected("motivation", &["--runs", "many"]);
    assert_rejected("ablations", &["--jobs", "x"]);
    assert_rejected("hunt", &["RedisRaft-42", "--budget", "-1"]);
    assert_rejected("hunt", &["--seed=abc"]);
    assert_rejected("hunt", &["--out"]);
    // An empty value is a missing one, not the working directory.
    assert_rejected("hunt", &["RedisRaft-42", "--budget", "1", "--state-dir="]);
    // Zero is not a count.
    assert_rejected("table2", &["--secs", "0"]);
    assert_rejected("motivation", &["--runs", "0"]);
    assert_rejected("hunt", &["--budget", "0"]);
    assert_rejected("table1", &["--jobs", "0"]);
}

#[test]
fn unknown_bug_names_exit_2_with_the_roster() {
    for name in ["hunt", "table1"] {
        assert_rejected(name, &["--jobs=4", "NoSuchBug-1"]);
        assert_rejected(name, &["HDFS-12070", "hdfs-12070"]);
    }
}

/// A `--log` or `--state-dir` path `hunt` cannot create fails the command
/// line before any side effect: exit 2, and no `--report` file left behind.
#[test]
fn hunt_rejects_an_uncreatable_path_before_writing_its_report() {
    let exe = BINS
        .iter()
        .find(|(n, _)| *n == "hunt")
        .expect("known bin")
        .1;
    let report =
        std::env::temp_dir().join(format!("rose-hunt-report-{}.jsonl", std::process::id()));
    for bad in [
        ["--log", "/no/such/dir/x.jsonl"],
        ["--state-dir", "/dev/null/state"],
    ] {
        let _ = std::fs::remove_file(&report);
        let out = Command::new(exe)
            .arg("RedisRaft-42")
            .arg("--report")
            .arg(&report)
            .args(bad)
            .output()
            .expect("bin starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "hunt {bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "hunt {bad:?} wrote to stdout");
        assert!(!report.exists(), "hunt {bad:?} wrote its report first");
    }
}

/// `table1` runs any registry case by name: one row, and a summary over
/// that row alone.
#[test]
fn table1_runs_one_named_case() {
    let exe = BINS
        .iter()
        .find(|(n, _)| *n == "table1")
        .expect("known bin")
        .1;
    let out = Command::new(exe)
        .arg("HDFS-12070")
        .output()
        .expect("bin starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "table1 HDFS-12070: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().filter(|l| l.contains("HDFS-")).collect();
    assert_eq!(rows.len(), 1, "{stdout}");
    assert!(rows[0].contains("HDFS-12070"), "{stdout}");
    assert!(rows[0].contains("yes (L"), "{stdout}");
    assert!(stdout.contains("reproduced: 1/1"), "{stdout}");
}
