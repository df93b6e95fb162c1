//! Registry coverage: every registered case — the 20 Table-1 bugs plus the
//! hunted Raft scenarios — must enumerate, build and run its cluster
//! fault-free, expose tracer metadata, and round-trip its probe through
//! serde, and declare in its symbol table every function and offset its
//! fault-free and capture runs probe. Guards against a registry entry whose
//! system wiring is broken, whose oracle misfires on a healthy cluster, or
//! whose model probes a function profiling and tracing cannot see.
//!
//! Run with `--release`; this deploys all 23 clusters.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rose_apps::driver::{
    capture_spec, probe_case, visit_case, CaseProbe, DriverOptions, SystemVisitor, CAPTURE_DURATION,
};
use rose_apps::registry::BugId;
use rose_core::{Rose, RoseConfig, TargetSystem};
use rose_events::SimDuration;
use rose_sim::{HookEffects, HookEnv, KernelHook};

#[test]
fn every_registered_case_probes_clean() {
    let mut names = BTreeSet::new();
    for id in BugId::all_with_hunted() {
        let p = probe_case(id, SimDuration::from_secs(12));
        assert!(
            names.insert(p.bug.clone()),
            "duplicate registry name {}",
            p.bug
        );
        assert!(!p.system.is_empty(), "{id}: empty system label");
        assert!(
            ["J", "A", "M", "H"].contains(&p.source_tag.as_str()),
            "{id}: unknown source tag {}",
            p.source_tag
        );
        assert!(p.cluster_size >= 3, "{id}: cluster of {}", p.cluster_size);
        assert!(!p.key_files.is_empty(), "{id}: no key files");
        assert!(
            !p.monitored_functions.is_empty(),
            "{id}: key files {:?} resolve to no monitored functions",
            p.key_files
        );
        assert!(
            !p.oracle_description.is_empty(),
            "{id}: no oracle description"
        );
        assert!(p.clean_oracle, "{id}: oracle fired on a fault-free deploy");

        // The probe round-trips through serde untouched.
        let json = serde_json::to_string(&p).unwrap();
        let back: CaseProbe = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back, "{id}: probe did not round-trip");
    }
    assert_eq!(names.len(), BugId::all_with_hunted().len());
}

#[test]
fn hunted_oracles_describe_invariants_scripted_oracles_symptoms() {
    for id in BugId::all_with_hunted() {
        let p = probe_case(id, SimDuration::from_secs(1));
        if BugId::HUNTED.contains(&id) {
            assert!(
                p.oracle_description.contains("invariant"),
                "{id}: hunted case must run behind an invariant oracle: {}",
                p.oracle_description
            );
        } else {
            assert!(
                p.oracle_description.contains("scripted"),
                "{id}: Table-1 case runs a scripted symptom oracle: {}",
                p.oracle_description
            );
        }
    }
}

/// Function → the probes a run fired in it: `None` for the entry, else the
/// offset.
type Reached = BTreeMap<String, BTreeSet<Option<u32>>>;

/// Records every uprobe a run fires, into a set the test keeps.
struct UprobeRecorder(Rc<RefCell<Reached>>);

impl KernelHook for UprobeRecorder {
    fn uprobe(&mut self, _env: &HookEnv, function: &str, offset: Option<u32>, _: &mut HookEffects) {
        let mut reached = self.0.borrow_mut();
        match reached.get_mut(function) {
            Some(probes) => {
                probes.insert(offset);
            }
            None => {
                reached.insert(function.to_string(), BTreeSet::from([offset]));
            }
        }
    }
}

/// What one case's fault-free run and first capture run reached that its
/// symbol table does not declare: `(function, None)` for a function the
/// table omits, `(function, Some(offset))` for an undeclared offset.
struct Undeclared;

impl SystemVisitor for Undeclared {
    type Out = Vec<(String, Option<u32>)>;

    fn visit<S: TargetSystem>(self, id: BugId, system: S) -> Self::Out {
        let reached = Rc::new(RefCell::new(Reached::new()));
        let recorder = || -> Box<dyn KernelHook> { Box::new(UprobeRecorder(reached.clone())) };
        let rose = Rose::with_config(system, RoseConfig::default());
        let mut sim = rose.deploy(id as u64 + 1, vec![recorder()]);
        sim.start();
        sim.run_for(SimDuration::from_secs(12));
        // The driver's first capture attempt.
        let capture = capture_spec(id);
        let mut hooks = capture.hooks(0);
        hooks.push(recorder());
        let duration = capture.duration.unwrap_or(CAPTURE_DURATION);
        let seed = DriverOptions::default().capture_seed;
        rose.capture_trace(&rose.profile(), hooks, seed, duration);

        let symbols = rose.system().symbols();
        let reached = reached.take();
        let mut undeclared = Vec::new();
        for (function, probes) in reached {
            let Some(sym) = symbols.get(&function) else {
                undeclared.push((function, None));
                continue;
            };
            for offset in probes.into_iter().flatten() {
                if !sym.offsets.iter().any(|site| site.offset == offset) {
                    undeclared.push((function.clone(), Some(offset)));
                }
            }
        }
        undeclared
    }
}

#[test]
fn every_function_a_case_enters_is_in_its_symbol_table() {
    // A function the symbol table omits is invisible to profiling and
    // tracing, and nothing else reports it. (MongoDB's `rollbackDivergent`
    // is such a function, but no run here reaches it.)
    for id in BugId::all_with_hunted() {
        let undeclared = visit_case(id, Undeclared);
        assert!(
            undeclared.is_empty(),
            "{id}: undeclared probes {undeclared:?}"
        );
    }
}
