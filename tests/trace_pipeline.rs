//! Integration of the observation pipeline across crates: simulator →
//! tracer → dump → merge → extraction, without the diagnosis loop.

use rose::analyze::Extraction;
use rose::apps::driver::{
    capture_buggy_trace, capture_spec, visit_case, DriverOptions, SystemVisitor,
};
use rose::apps::redisraft::{RaftClient, RedisRaft};
use rose::apps::registry::BugId;
use rose::core::{Rose, RoseConfig, TargetSystem};
use rose::events::{EventKind, NodeId, SimDuration, Trace};
use rose::jepsen::{Nemesis, NemesisConfig, NemesisOp};
use rose::profile::ProfilingHook;
use rose::sim::{Sim, SimConfig};
use rose::trace::{Tracer, TracerConfig};

fn cluster(seed: u64) -> Sim<RedisRaft> {
    let mut sim = Sim::new(SimConfig::new(5, seed), |_| RedisRaft::new(None));
    for _ in 0..3 {
        sim.add_client(Box::new(RaftClient::new()));
    }
    sim
}

#[test]
fn profile_then_trace_then_extract() {
    // Failure-free profiling run.
    let mut sim = cluster(1);
    sim.add_hook(Box::new(ProfilingHook::new()));
    sim.start();
    sim.run_for(SimDuration::from_secs(30));
    let hook = sim.hook_ref::<ProfilingHook>().unwrap();
    let candidates: Vec<String> = rose::apps::redisraft::redisraft_symbols()
        .functions_in_files(&rose::apps::redisraft::redisraft_key_files())
        .map(str::to_string)
        .collect();
    let profile = rose::profile::Profile::from_run(hook, SimDuration::from_secs(30), candidates);

    // The frequency heuristic keeps the rare paths and drops the hot ones.
    let kept = profile.infrequent_functions();
    assert!(kept.contains(&"storeSnapshotData".to_string()));
    assert!(kept.contains(&"RaftLogCreate".to_string()));
    assert!(profile
        .frequent_functions()
        .contains(&"RaftLogCurrentIdx".to_string()));
    assert!(profile
        .frequent_functions()
        .contains(&"applyEntry".to_string()));
    // Benign probing was fingerprinted.
    assert!(!profile.benign.is_empty());

    // Faulty run under the nemesis with the production tracer.
    let mut sim = cluster(2);
    let tracer_cfg = TracerConfig::rose(kept);
    sim.add_hook(Box::new(Tracer::new(tracer_cfg.clone())));
    sim.add_hook(Box::new(Nemesis::new(
        NemesisConfig::standard(5, 3).with_ops(vec![NemesisOp::Crash, NemesisOp::Pause]),
    )));
    sim.start();
    sim.run_for(SimDuration::from_secs(60));
    let now = sim.now();
    let trace = sim.hook_mut::<Tracer>().unwrap().dump(now);

    assert!(trace.type_counts().ps > 0, "crashes/pauses must be visible");
    assert!(
        trace.type_counts().scf > 0,
        "benign probing shows up as SCFs"
    );

    // Extraction recovers the injected faults and strips the benign noise.
    let names = tracer_cfg
        .monitored_functions
        .iter()
        .map(|(n, i)| (*i, n.clone()))
        .collect();
    let extraction = rose::analyze::extract_faults(&trace, &profile, &names);
    assert!(extraction.stats.removed_benign > 0);
    assert!(extraction.faults.iter().any(|f| matches!(
        f.action,
        rose::inject::FaultAction::Crash | rose::inject::FaultAction::Pause { .. }
    )));
    // Chronological order is preserved.
    assert!(extraction.faults.windows(2).all(|w| w[0].ts <= w[1].ts));
}

#[test]
fn multi_node_dumps_merge_chronologically() {
    let mut sim = cluster(4);
    sim.add_hook(Box::new(Tracer::new(
        TracerConfig::rose(std::iter::empty()),
    )));
    sim.start();
    sim.run_for(SimDuration::from_secs(10));
    let now = sim.now();
    let trace = sim.hook_mut::<Tracer>().unwrap().dump(now);

    // Split per node (simulating per-node dumps) and re-merge.
    let mut per_node: Vec<Vec<rose::events::Event>> = vec![Vec::new(); 5];
    for e in trace.events() {
        if e.node.0 < 5 {
            per_node[e.node.0 as usize].push(e.clone());
        }
    }
    let merged = Trace::merge(per_node);
    assert_eq!(
        merged.len(),
        trace.events().iter().filter(|e| e.node.0 < 5).count()
    );
    assert!(merged.events().windows(2).all(|w| w[0].ts <= w[1].ts));
}

#[test]
fn deterministic_replay_across_identical_runs() {
    let run = |seed| {
        let mut sim = cluster(seed);
        sim.add_hook(Box::new(Tracer::new(
            TracerConfig::rose(std::iter::empty()),
        )));
        sim.start();
        sim.run_for(SimDuration::from_secs(20));
        let now = sim.now();
        let t = sim.hook_mut::<Tracer>().unwrap().dump(now);
        (t.len(), sim.core().stats.syscalls, sim.core().stats.packets)
    };
    assert_eq!(run(11), run(11), "same seed → identical trace");
}

#[test]
fn crash_events_distinguish_kills_from_aborts() {
    let mut sim = cluster(6);
    sim.add_hook(Box::new(Tracer::new(
        TracerConfig::rose(std::iter::empty()),
    )));
    sim.start();
    sim.run_for(SimDuration::from_secs(5));
    sim.inject_crash(NodeId(2));
    sim.run_for(SimDuration::from_secs(5));
    let now = sim.now();
    let trace = sim.hook_mut::<Tracer>().unwrap().dump(now);
    let crashed = trace.events().iter().any(|e| {
        matches!(
            e.kind,
            EventKind::Ps {
                state: rose::events::ProcState::Crashed,
                ..
            }
        )
    });
    assert!(crashed, "external kill recorded as Crashed");
}

/// One case's captured trace, extracted three ways: in memory, through its
/// JSON form, and through a `.rosetrace` file.
struct ThreeWays;

impl SystemVisitor for ThreeWays {
    type Out = [Extraction; 3];
    fn visit<S: TargetSystem>(self, id: BugId, system: S) -> Self::Out {
        let cfg = RoseConfig {
            profiling_duration: SimDuration::from_secs(10),
            ..RoseConfig::default()
        };
        let rose = Rose::with_config(system, cfg);
        let profile = rose.profile();
        let opts = DriverOptions {
            // Captures both heavy cases at the first attempt.
            capture_seed: 5,
            ..DriverOptions::default()
        };
        let (cap, _) = capture_buggy_trace(&rose, &profile, &capture_spec(id), &opts);
        let trace = cap
            .unwrap_or_else(|| panic!("{id}: no trace captured"))
            .trace;

        let json = Trace::from_json(&trace.to_json()).expect("JSON parses back");
        let path = std::env::temp_dir().join(format!(
            "rose-differential-{}-{}.rosetrace",
            std::process::id(),
            id.file_stem()
        ));
        rose::store::save_trace(&path, &trace).expect("trace persists");
        let binary = rose::store::load_trace(&path);
        let _ = std::fs::remove_file(&path);
        let binary = binary.expect("trace loads back");
        [&trace, &json, &binary].map(|t| rose.extract(&profile, t))
    }
}

#[test]
fn binary_and_json_traces_extract_identically() {
    // One case per target system. Nothing may be lost by a trace's trip
    // through either format, execution indices included: the binary file
    // is the only one `--trace-dir` writes.
    let mut indexed = 0;
    for id in [
        BugId::Redpanda3003,
        BugId::Zookeeper3006,
        BugId::Hdfs4233,
        BugId::Kafka12508,
        BugId::Hbase19608,
        BugId::Mongo243,
        BugId::Tendermint5839,
        BugId::RedisRaftNew2,
        BugId::RaftCompactionLoss,
    ] {
        let [memory, json, binary] = visit_case(id, ThreeWays);
        assert!(!memory.faults.is_empty(), "{id}: nothing extracted");
        assert_eq!(json, memory, "{id}: JSON round trip changed the extraction");
        assert_eq!(
            binary, memory,
            "{id}: store round trip changed the extraction"
        );
        indexed += memory.faults.iter().filter(|f| f.ei.is_some()).count();
    }
    assert!(indexed > 0, "no roster trace carries an execution index");
}
