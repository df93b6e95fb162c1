//! The developer's key files (§4.3): by default every file the symbol
//! table names, in first-seen order; a system that lists fewer narrows the
//! profiling candidates to those files' functions.

use rose_apps::mongodb::{MongoBug, MongoCase, MongoDb};
use rose_core::{Rose, TargetSystem};
use rose_events::NodeId;
use rose_profile::SymbolTable;
use rose_sim::Sim;

const CASE: MongoCase = MongoCase {
    bug: MongoBug::Mongo243,
};

/// MongoDB:2.4.3 with the developer pointing at the replication file only.
#[derive(Clone)]
struct ReplOnly;

impl TargetSystem for ReplOnly {
    type App = MongoDb;

    fn name(&self) -> &str {
        "MongoDB:2.4.3/repl.cpp"
    }
    fn cluster_size(&self) -> u32 {
        CASE.cluster_size()
    }
    fn build_node(&self, node: NodeId) -> MongoDb {
        CASE.build_node(node)
    }
    fn install(&self, sim: &mut Sim<MongoDb>) {
        CASE.install(sim);
    }
    fn attach_workload(&self, sim: &mut Sim<MongoDb>) {
        CASE.attach_workload(sim);
    }
    fn oracle(&self, sim: &Sim<MongoDb>) -> bool {
        CASE.oracle(sim)
    }
    fn symbols(&self) -> SymbolTable {
        CASE.symbols()
    }
    fn key_files(&self) -> Vec<String> {
        vec!["repl.cpp".into()]
    }
}

#[test]
fn key_files_default_to_the_symbol_tables_files_in_first_seen_order() {
    let symbols = CASE.symbols();
    assert_eq!(CASE.key_files(), ["oplog.cpp", "repl.cpp"]);
    assert_eq!(CASE.key_files(), symbols.files());
    let every: Vec<&str> = symbols.functions.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(Rose::new(CASE).profile().candidates, every);
}

#[test]
fn a_subset_of_key_files_keeps_only_its_functions_as_candidates() {
    let profile = Rose::new(ReplOnly).profile();
    assert_eq!(
        profile.candidates,
        ["stepDown", "callElection", "becomePrimary"]
    );
}
