//! Tier-1 check that a hunt's discovery needs a fault: an oracle that fires
//! in the fault-free baseline run says nothing about external faults, so
//! the hunt logs run 1 as an oracle hit and goes on to a faulted schedule.

use rose::apps::zookeeper::{ZkBug, ZkCase};
use rose::events::{NodeId, SimDuration};
use rose::hunt::{hunt, HuntConfig};
use rose::profile::SymbolTable;
use rose::sim::Sim;
use rose::TargetSystem;

/// ZooKeeper-2247 with an oracle that fires at every poll.
#[derive(Clone)]
struct AlwaysFires(ZkCase);

impl TargetSystem for AlwaysFires {
    type App = <ZkCase as TargetSystem>::App;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn cluster_size(&self) -> u32 {
        self.0.cluster_size()
    }

    fn build_node(&self, node: NodeId) -> Self::App {
        self.0.build_node(node)
    }

    fn install(&self, sim: &mut Sim<Self::App>) {
        self.0.install(sim);
    }

    fn attach_workload(&self, sim: &mut Sim<Self::App>) {
        self.0.attach_workload(sim);
    }

    fn oracle(&self, _sim: &Sim<Self::App>) -> bool {
        true
    }

    fn symbols(&self) -> SymbolTable {
        self.0.symbols()
    }

    fn run_duration(&self) -> SimDuration {
        self.0.run_duration()
    }
}

#[test]
fn a_baseline_oracle_hit_is_logged_and_the_hunt_goes_on() {
    let cfg = HuntConfig {
        budget: 8,
        jobs: 1,
        ..HuntConfig::default()
    };
    let case = AlwaysFires(ZkCase { bug: ZkBug::Zk2247 });
    let outcome = hunt(case, "always-fires", &cfg).expect("in-memory hunt");

    let baseline = &outcome.log[0];
    assert_eq!((baseline.run, baseline.depth, baseline.injected), (1, 0, 0));
    assert!(baseline.oracle, "the baseline run is logged with its hit");

    let discovery = outcome.discovery.expect("a faulted run fires too");
    assert!(discovery.run > 1, "discovered at run {}", discovery.run);
    assert!(!discovery.schedule.is_empty(), "a discovery holds a fault");
    assert_eq!(outcome.stats.discovery_run, discovery.run);
    assert_eq!(outcome.stats.schedule_faults, discovery.schedule.len());
    assert_eq!(outcome.log.len(), discovery.run);
}
