//! Tier-1 smoke of the causal export: a campaign given a `causal_dir`
//! leaves the winning schedule's propagation chains behind as a Perfetto
//! flow trace and a Graphviz graph.

use rose::apps::driver::{run_case, DriverOptions};
use rose::apps::registry::BugId;
use rose::core::RoseConfig;
use rose::obs::ChromeTrace;

#[test]
fn a_reproduced_case_exports_its_propagation_chains() {
    let dir = std::env::temp_dir().join(format!("rose-causal-export-{}", std::process::id()));
    let opts = DriverOptions {
        causal_dir: Some(dir.clone()),
        ..DriverOptions::default()
    };
    let out = run_case(BugId::Zookeeper3006, RoseConfig::default(), &opts);
    let report = out.report.expect("trace captured");
    assert!(report.reproduced && !report.propagation.is_empty());

    let flow = std::fs::read_to_string(dir.join("zookeeper-3006.flow.json")).expect("flow export");
    let flow = ChromeTrace::from_json(&flow).expect("the flow export parses");
    assert!(!flow.trace_events.is_empty());
    let dot = std::fs::read_to_string(dir.join("zookeeper-3006.dot")).expect("dot export");
    assert!(dot.starts_with("digraph"), "not a graph: {dot}");
    let _ = std::fs::remove_dir_all(&dir);
}
