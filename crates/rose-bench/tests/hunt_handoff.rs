//! The hunt's hand-off diagnoses the discovery run's own tracer dump.
//!
//! An exploration run carries executor + tracer + the zero-charge site
//! probe; a scripted capture carries executor + tracer. If the probe really
//! perturbs nothing, the window a discovery run dumps when the oracle fires
//! is, event for event, the trace `Rose::capture_trace_with_schedule` yields
//! for the same schedule at the same seed — which is what lets the hunt skip
//! that re-run. This test is the standing check of that equivalence, on the
//! `scripts/check.sh` hunt smoke case (a whole-node crash found by the
//! menu) and on a scripted-capture case (a syscall failure keyed on an
//! execution-index context the baseline exposed).

use rose_apps::driver::{visit_case, SystemVisitor};
use rose_apps::registry::BugId;
use rose_core::{Rose, TargetSystem};
use rose_hunt::{hunt, HuntConfig};

struct DumpVsRecapture {
    budget: usize,
}

impl SystemVisitor for DumpVsRecapture {
    type Out = ();

    fn visit<S: TargetSystem>(self, id: BugId, system: S) {
        let cfg = HuntConfig {
            budget: self.budget,
            ..HuntConfig::default()
        };
        let outcome = hunt(system.clone(), id.info().name, &cfg).expect("in-memory hunt");
        let found = outcome
            .discovery
            .unwrap_or_else(|| panic!("{id}: nothing found in {} runs", self.budget));
        assert!(found.report.reproduced, "{id}: discovery not confirmed");

        let duration = system.run_duration();
        let rose = Rose::new(system);
        let profile = rose.profile();
        let recapture =
            rose.capture_trace_with_schedule(&profile, &found.schedule, found.seed, duration);
        assert!(recapture.bug, "{id}: the replay missed the bug");
        assert_eq!(
            found.trace, recapture.trace,
            "{id}: run {} dumped a different window than its replay at seed {}",
            found.run, found.seed
        );
    }
}

#[test]
fn whole_node_discovery_dump_is_its_recapture() {
    visit_case(BugId::RedisRaft42, DumpVsRecapture { budget: 48 });
}

#[test]
fn syscall_context_discovery_dump_is_its_recapture() {
    visit_case(BugId::Zookeeper2247, DumpVsRecapture { budget: 192 });
}
