//! Every bench binary rejects bad command lines before doing any work: exit
//! status 2, the usage line on stderr, nothing on stdout.

use std::process::Command;

const BINS: [(&str, &str); 7] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("motivation", env!("CARGO_BIN_EXE_motivation")),
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("redundancy", env!("CARGO_BIN_EXE_redundancy")),
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
    assert_rejected("table1", &["RedisRaft-42"]);
}

#[test]
fn missing_and_unparsable_values_exit_2_with_usage() {
    assert_rejected("table1", &["--quick", "--report"]);
    assert_rejected("table2", &["--secs", "abc"]);
    assert_rejected("motivation", &["--runs", "many"]);
    assert_rejected("ablations", &["--jobs", "x"]);
    assert_rejected("hunt", &["RedisRaft-42", "--budget", "-1"]);
    assert_rejected("hunt", &["--seed=abc"]);
    assert_rejected("redundancy", &["--out"]);
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
    for name in ["hunt", "redundancy"] {
        assert_rejected(name, &["--jobs=4", "NoSuchBug-1"]);
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

/// The one bin whose happy path no other gate runs: a sweep-redundancy row
/// for the cheapest case, written where `--out` says.
#[test]
fn redundancy_writes_one_json_row_per_bug() {
    let exe = BINS
        .iter()
        .find(|(n, _)| *n == "redundancy")
        .expect("known bin")
        .1;
    let out_path =
        std::env::temp_dir().join(format!("rose-redundancy-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out_path);
    let out = Command::new(exe)
        .arg("HDFS-12070")
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("bin starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "redundancy HDFS-12070: {stderr}"
    );

    let text = std::fs::read_to_string(&out_path).expect("--out was written");
    let _ = std::fs::remove_file(&out_path);
    let json: serde_json::Value = serde_json::from_str(&text).expect("--out holds JSON");
    let rows = json["rows"].as_array().expect("a rows array");
    assert_eq!(rows.len(), 1, "{text}");
    let row = &rows[0];
    assert_eq!(row["bug"].as_str(), Some("HDFS-12070"));
    assert_eq!(row["reproduced"].as_bool(), Some(true), "{text}");
    // The one discovery run shows the bug and stops at detection, so no
    // played-out run is counted: the columns are there, and empty.
    assert_eq!(row["events_total"].as_u64(), Some(0), "{text}");
    assert_eq!(row["redundancy_factor"].as_f64(), Some(0.0), "{text}");
}
