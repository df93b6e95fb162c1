//! An output `hunt` cannot write is named on stderr, and the run still
//! prints its table: a full device takes the `--out` summary, the `--log`
//! frontier and the `--report` JSONL, and none of them is claimed as
//! written.

use std::process::Command;

#[test]
fn hunt_names_every_output_a_full_device_lost() {
    let out = Command::new(env!("CARGO_BIN_EXE_hunt"))
        .args(["RedisRaft-42", "--budget", "1"])
        .args(["--out", "/dev/full", "--log", "/dev/full"])
        .args(["--report", "/dev/full"])
        .output()
        .expect("hunt starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stdout.contains("Oracle-only hunting campaigns") && stdout.contains("RedisRaft-42"),
        "the table is missing from stdout: {stdout}"
    );
    let warnings = |what: &str| stderr.matches(what).count();
    assert_eq!(
        warnings("warning: could not write /dev/full:"),
        1,
        "{stderr}"
    );
    assert_eq!(
        warnings("warning: could not write frontier log /dev/full:"),
        1,
        "{stderr}"
    );
    assert!(
        warnings("warning: could not write report to /dev/full:") > 0,
        "{stderr}"
    );
    assert!(!stderr.contains("appended to"), "{stderr}");
    assert!(!stderr.contains("written to"), "{stderr}");
}
