//! The committed `BENCH_hunt.json` is the hunt over the whole registry: a
//! row per case in `BugId::all_with_hunted()` order, and headline counts
//! that are the counts over those rows. A bench bin that hunts a hand-kept
//! subset, or a file regenerated from one, fails here.

use rose_apps::registry::BugId;
use serde_json::Value;

#[test]
fn bench_hunt_json_covers_the_registry_in_order() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hunt.json");
    let text = std::fs::read_to_string(path).expect("BENCH_hunt.json is committed");
    let bench: Value = serde_json::from_str(&text).expect("BENCH_hunt.json parses");
    let rows = bench["rows"].as_array().expect("rows is an array");

    let bugs: Vec<&str> = rows.iter().map(|r| r["bug"].as_str().unwrap()).collect();
    let registry: Vec<&str> = BugId::all_with_hunted()
        .into_iter()
        .map(|id| id.info().name)
        .collect();
    assert_eq!(bugs, registry);

    let count = |field: &str| rows.iter().filter(|r| r[field] == true).count() as u64;
    assert_eq!(bench["bugs"], rows.len() as u64);
    assert_eq!(bench["discovered"], count("discovered"));
    assert_eq!(bench["confirmed"], count("confirmed"));
}
