//! Tier-1 smoke of the files a campaign writes: given a `causal_dir` and a
//! `trace_dir`, a case leaves the winning schedule's propagation chains
//! behind as a Perfetto flow trace and a Graphviz graph, and its captured
//! trace as a `.rosetrace` — all under the bug's one stem, and nothing else.

use rose::apps::driver::{run_case, DriverOptions};
use rose::apps::registry::BugId;
use rose::core::RoseConfig;

#[test]
fn a_reproduced_case_exports_its_propagation_chains() {
    let dir = std::env::temp_dir().join(format!("rose-causal-export-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DriverOptions {
        causal_dir: Some(dir.clone()),
        trace_dir: Some(dir.clone()),
        ..DriverOptions::default()
    };
    let out = run_case(BugId::Zookeeper3006, RoseConfig::default(), &opts);
    let report = out.report.expect("trace captured");
    assert!(report.reproduced && !report.propagation.is_empty());

    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("the campaign created its directory")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(
        written,
        [
            "zookeeper-3006.dot",
            "zookeeper-3006.flow.json",
            "zookeeper-3006.rosetrace"
        ]
    );

    let flow = std::fs::read_to_string(dir.join("zookeeper-3006.flow.json")).expect("flow export");
    let flow: serde_json::Value = serde_json::from_str(&flow).expect("the flow export parses");
    assert!(!flow["traceEvents"].as_array().expect("a trace").is_empty());
    let dot = std::fs::read_to_string(dir.join("zookeeper-3006.dot")).expect("dot export");
    assert!(dot.starts_with("digraph"), "not a graph: {dot}");
    let trace = rose::store::load_trace(dir.join("zookeeper-3006.rosetrace")).expect("trace file");
    assert_eq!(trace.len(), out.trace_events);
    let _ = std::fs::remove_dir_all(&dir);
}
