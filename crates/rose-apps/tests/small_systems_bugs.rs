//! Trigger-level tests for the Kafka, Redpanda, MongoDB, HBase, and
//! Tendermint seeded defects.

use rose_apps::driver::CaptureMethod;
use rose_core::TargetSystem;
use rose_events::{NodeId, SimDuration};
use rose_inject::Executor;
use rose_jepsen::Nemesis;
use rose_sim::{ClientId, Sim, SimConfig};

fn scripted(spec: rose_apps::driver::CaptureSpec) -> rose_inject::FaultSchedule {
    match spec.method {
        CaptureMethod::Scripted(s) => s,
        _ => unreachable!(),
    }
}

// --- Kafka ------------------------------------------------------------------

mod kafka {
    use super::*;
    use rose_apps::kafka::{kafka_capture, Kafka, KafkaCase, KafkaClient};

    fn cluster(bug: bool, seed: u64, sched: Option<rose_inject::FaultSchedule>) -> Sim<Kafka> {
        let mut sim = Sim::new(SimConfig::new(3, seed), move |_| Kafka::new(bug));
        if let Some(s) = sched {
            sim.add_hook(Box::new(Executor::new(s)));
        }
        sim.add_client(Box::new(KafkaClient::new()));
        sim.start();
        sim
    }

    #[test]
    fn healthy_table_emits_updates() {
        let mut sim = cluster(true, 1, None);
        sim.run_for(SimDuration::from_secs(30));
        assert!(!KafkaCase.oracle(&sim));
        let acked = sim.client_ref::<KafkaClient>(ClientId(0)).unwrap().acked;
        assert!(acked > 150, "acked={acked}");
    }

    #[test]
    fn failed_changelog_open_loses_the_update() {
        let mut sim = cluster(true, 2, Some(scripted(kafka_capture())));
        sim.run_for(SimDuration::from_secs(30));
        assert!(KafkaCase.oracle(&sim), "stale read expected");
        assert!(sim.core().logs.grep("update not emitted"));
    }

    #[test]
    fn correct_binary_rejects_the_update_instead() {
        let mut sim = cluster(false, 2, Some(scripted(kafka_capture())));
        sim.run_for(SimDuration::from_secs(30));
        assert!(!KafkaCase.oracle(&sim));
        assert!(sim.core().logs.grep("update rejected"));
    }
}

// --- Redpanda ---------------------------------------------------------------

mod redpanda {
    use super::*;
    use rose_apps::redpanda::{redpanda_capture, Producer, Redpanda, RedpandaBug, RedpandaCase};

    fn cluster(bug: bool, seed: u64) -> Sim<Redpanda> {
        let mut sim = Sim::new(SimConfig::new(3, seed), move |_| Redpanda::new(bug));
        sim.add_client(Box::new(Producer::new()));
        sim.add_client(Box::new(Producer::new()));
        sim
    }

    #[test]
    fn healthy_brokers_deduplicate() {
        let mut sim = cluster(true, 1);
        sim.start();
        sim.run_for(SimDuration::from_secs(30));
        let case = RedpandaCase {
            bug: RedpandaBug::Rp3003,
        };
        assert!(!case.oracle(&sim));
    }

    #[test]
    fn leader_pause_with_session_reset_duplicates() {
        // A long pause of the leader makes producers reconnect with fresh
        // sessions; the defect forgets dedup state per session.
        let mut hits = 0;
        for seed in 0..6u64 {
            let mut sim = cluster(true, 10 + seed);
            sim.start();
            sim.run_for(SimDuration::from_secs(8));
            sim.inject_pause(NodeId(0), SimDuration::from_secs(7));
            sim.run_for(SimDuration::from_secs(25));
            let case = RedpandaCase {
                bug: RedpandaBug::Rp3003,
            };
            if case.oracle(&sim) {
                hits += 1;
            }
        }
        assert!(hits >= 4, "the pause should usually duplicate, hits={hits}");
    }

    #[test]
    fn correct_binary_survives_the_pause() {
        for seed in 0..4u64 {
            let mut sim = cluster(false, 10 + seed);
            sim.start();
            sim.run_for(SimDuration::from_secs(8));
            sim.inject_pause(NodeId(0), SimDuration::from_secs(7));
            sim.run_for(SimDuration::from_secs(25));
            let case = RedpandaCase {
                bug: RedpandaBug::Rp3003,
            };
            assert!(!case.oracle(&sim), "seed {seed}");
        }
    }

    #[test]
    fn nemesis_capture_config_is_pause_only() {
        let spec = redpanda_capture(RedpandaBug::Rp3003);
        match spec.method {
            CaptureMethod::Nemesis(cfg) => {
                assert_eq!(cfg.ops, vec![rose_jepsen::NemesisOp::Pause]);
            }
            _ => panic!("expected nemesis capture"),
        }
        let _ = Nemesis::new(rose_jepsen::NemesisConfig::standard(3, 1));
    }
}

// --- MongoDB ----------------------------------------------------------------

mod mongodb {
    use super::*;
    use rose_apps::mongodb::{MongoBug, MongoCase, MongoClient, MongoDb};

    fn cluster(bug: Option<MongoBug>, seed: u64) -> Sim<MongoDb> {
        let mut sim = Sim::new(SimConfig::new(3, seed), move |_| MongoDb::new(bug));
        sim.add_client(Box::new(MongoClient::new()));
        sim.add_client(Box::new(MongoClient::new()));
        sim
    }

    #[test]
    fn healthy_replica_set_serves() {
        let mut sim = cluster(Some(MongoBug::Mongo243), 1);
        sim.start();
        sim.run_for(SimDuration::from_secs(30));
        let case = MongoCase {
            bug: MongoBug::Mongo243,
        };
        assert!(!case.oracle(&sim));
        let acked = sim.client_ref::<MongoClient>(ClientId(0)).unwrap().acked;
        assert!(acked > 150, "acked={acked}");
    }

    #[test]
    fn mongo243_partitioned_primary_loses_acked_writes() {
        let case = MongoCase {
            bug: MongoBug::Mongo243,
        };
        let mut sim = cluster(Some(MongoBug::Mongo243), 2);
        sim.start();
        sim.run_for(SimDuration::from_secs(10));
        sim.inject_isolation(NodeId(0), Some(SimDuration::from_secs(10)));
        sim.run_for(SimDuration::from_secs(30));
        assert!(case.oracle(&sim), "acked writes must be lost");
        assert!(sim.core().logs.grep("rollback: dropping"));
    }

    #[test]
    fn modern_binary_does_not_lose_acked_writes() {
        let case = MongoCase {
            bug: MongoBug::Mongo243,
        };
        let mut sim = cluster(None, 2);
        sim.start();
        sim.run_for(SimDuration::from_secs(10));
        sim.inject_isolation(NodeId(0), Some(SimDuration::from_secs(10)));
        sim.run_for(SimDuration::from_secs(30));
        assert!(!case.oracle(&sim));
    }

    #[test]
    fn mongo3210_partition_wedges_elections() {
        let case = MongoCase {
            bug: MongoBug::Mongo3210,
        };
        let mut sim = cluster(Some(MongoBug::Mongo3210), 3);
        sim.start();
        sim.run_for(SimDuration::from_secs(10));
        sim.inject_isolation(NodeId(0), Some(SimDuration::from_secs(22)));
        // During the partition no primary can be elected: the history tail
        // shows write unavailability.
        sim.run_for(SimDuration::from_secs(20));
        assert!(case.oracle(&sim), "no elections during the partition");
        // After healing the set recovers.
        sim.run_for(SimDuration::from_secs(20));
        assert!(!case.oracle(&sim), "recovers after heal");
    }
}

// --- HBase --------------------------------------------------------------

mod hbase {
    use super::*;
    use rose_apps::hbase::{hbase_capture, HBase, HbaseCase, ProcClient};

    fn cluster(bug: bool, seed: u64, sched: Option<rose_inject::FaultSchedule>) -> Sim<HBase> {
        let mut sim = Sim::new(SimConfig::new(3, seed), move |_| HBase::new(bug));
        if let Some(s) = sched {
            sim.add_hook(Box::new(Executor::new(s)));
        }
        sim.add_client(Box::new(ProcClient::new()));
        sim.start();
        sim
    }

    #[test]
    fn healthy_procedures_complete() {
        let mut sim = cluster(true, 1, None);
        sim.run_for(SimDuration::from_secs(20));
        assert!(!HbaseCase.oracle(&sim));
        let done = sim.client_ref::<ProcClient>(ClientId(0)).unwrap().done;
        assert!(done > 15, "done={done}");
    }

    #[test]
    fn failed_result_open_races_to_null() {
        let mut sim = cluster(true, 2, Some(scripted(hbase_capture())));
        sim.run_for(SimDuration::from_secs(20));
        assert!(HbaseCase.oracle(&sim));
    }

    #[test]
    fn correct_binary_retries_the_poll() {
        let mut sim = cluster(false, 2, Some(scripted(hbase_capture())));
        sim.run_for(SimDuration::from_secs(20));
        assert!(!HbaseCase.oracle(&sim));
        // The failed procedure is reported, never marked complete, and the
        // client moves on.
        assert!(sim.core().logs.grep("result write failed"));
        let done = sim.client_ref::<ProcClient>(ClientId(0)).unwrap().done;
        assert!(done > 15, "done={done}");
    }
}

// --- Tendermint ---------------------------------------------------------

mod tendermint {
    use super::*;
    use rose_apps::tendermint::{tendermint_capture, Tendermint, TendermintCase, TxClient};
    use rose_core::Rose;

    #[test]
    fn healthy_validators_sign_with_loaded_keys() {
        let rose = Rose::new(TendermintCase);
        let mut sim = rose.deploy(1, vec![]);
        sim.start();
        sim.run_for(SimDuration::from_secs(20));
        assert!(!TendermintCase.oracle(&sim));
        let included = sim.client_ref::<TxClient>(ClientId(0)).unwrap().acked;
        assert!(included > 30, "included={included}");
    }

    #[test]
    fn unreadable_key_is_signed_with_anyway() {
        let rose = Rose::new(TendermintCase);
        let mut sim = rose.deploy(
            2,
            vec![Box::new(Executor::new(scripted(tendermint_capture())))],
        );
        sim.start();
        sim.run_for(SimDuration::from_secs(20));
        assert!(TendermintCase.oracle(&sim));
    }

    #[test]
    fn correct_binary_refuses_to_start() {
        #[derive(Clone)]
        struct Fixed;
        impl rose_core::TargetSystem for Fixed {
            type App = Tendermint;
            fn name(&self) -> &str {
                "tendermint-fixed"
            }
            fn cluster_size(&self) -> u32 {
                3
            }
            fn build_node(&self, _n: rose_events::NodeId) -> Tendermint {
                Tendermint::new(false)
            }
            fn install(&self, sim: &mut Sim<Tendermint>) {
                TendermintCase.install(sim);
            }
            fn attach_workload(&self, sim: &mut Sim<Tendermint>) {
                sim.add_client(Box::new(TxClient::new()));
            }
            fn oracle(&self, sim: &Sim<Tendermint>) -> bool {
                TendermintCase.oracle(sim)
            }
            fn symbols(&self) -> rose_profile::SymbolTable {
                TendermintCase.symbols()
            }
            fn key_files(&self) -> Vec<String> {
                TendermintCase.key_files()
            }
        }
        let rose = Rose::new(Fixed);
        let mut sim = rose.deploy(
            2,
            vec![Box::new(Executor::new(scripted(tendermint_capture())))],
        );
        sim.start();
        sim.run_for(SimDuration::from_secs(20));
        assert!(!TendermintCase.oracle(&sim));
        assert!(sim.core().logs.grep("refusing to start"));
    }
}
