//! `BENCHMARK.json` and the tables in the code must say the same thing, and
//! the file must stay inside the limits of the benchmark contract.

use std::collections::BTreeSet;

use rose_benchmark::layers::per_layer_table;
use rose_benchmark::report::{Better, END_TO_END};
use rose_benchmark::workloads::Workload;
use serde_json::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn strings(v: &Value) -> Vec<String> {
    v.as_array()
        .expect("an array")
        .iter()
        .map(|s| s.as_str().expect("a string").to_string())
        .collect()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn command_paths_and_run_length() {
    let m = manifest();
    assert_eq!(strings(&m["command"]), ["bash", "bench/run.sh"]);
    assert_eq!(strings(&m["paths"]), ["bench"]);
    let seconds = m["run_seconds"].as_u64().expect("whole seconds");
    assert!((1..=60).contains(&seconds));
}

#[test]
fn workloads_match_the_code() {
    let m = manifest();
    let listed = m["workloads"].as_array().expect("workloads");
    let names: Vec<&str> = listed
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    let code: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, code);
    for w in listed {
        let why = w["why"].as_str().expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        assert!(name_ok(w["name"].as_str().unwrap()));
    }
}

#[test]
fn end_to_end_metrics_match_the_code() {
    let m = manifest();
    let listed = m["end_to_end"].as_array().expect("end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (json, code) in listed.iter().zip(&END_TO_END) {
        assert_eq!(json["name"], code.name);
        assert_eq!(json["unit"], code.unit);
        let better = match code.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        assert_eq!(json["better"], better, "{}", code.name);
        assert_eq!(json["bound"].as_f64(), Some(code.bound), "{}", code.name);
        assert!(code.bound > 0.0 && code.bound <= 0.25, "{}", code.name);
        assert!(name_ok(code.name) && unit_ok(code.unit));
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(setup.unit == "s" && setup.better == Better::Lower);
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn per_layer_metrics_match_the_code() {
    let m = manifest();
    let listed = m["per_layer"].as_array().expect("per_layer");
    let table = per_layer_table();
    assert!((1..=128).contains(&table.len()));
    let json: BTreeSet<(String, String, String)> = listed
        .iter()
        .map(|e| {
            let field = |k: &str| e[k].as_str().expect("a string").to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect();
    let code: BTreeSet<(String, String, String)> = table
        .iter()
        .map(|(n, u, b)| (n.clone(), (*u).to_string(), (*b).to_string()))
        .collect();
    assert_eq!(json.len(), listed.len(), "a per-layer name is listed twice");
    assert_eq!(json, code);
    let mut all: BTreeSet<&str> = table.iter().map(|(n, _, _)| n.as_str()).collect();
    for (n, u, _) in &table {
        assert!(name_ok(n) && unit_ok(u), "{n} {u}");
    }
    for e in &END_TO_END {
        assert!(all.insert(e.name), "{} names two metrics", e.name);
    }
    for w in Workload::ALL {
        assert!(all.insert(w.name()), "{} is used twice", w.name());
    }
}
