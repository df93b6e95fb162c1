//! Registry lookups the traced driver needs next to `visit_case`.

use rose_apps::driver::CaptureSpec;
use rose_apps::registry::BugId;

/// How `run_case` obtains a bug's "production" trace. `run_case` bakes the
/// capture method into its own dispatch and exposes no lookup, so this
/// repeats it; the mirror-equivalence test fails if the two drift apart.
pub fn capture_spec(id: BugId) -> CaptureSpec {
    use rose_apps::hdfs::{hdfs_capture, HdfsBug};
    use rose_apps::raft::{roseraft_capture, RaftScenario};
    use rose_apps::redisraft::{redisraft_capture, RedisRaftBug};
    match id {
        BugId::RedisRaft42 => redisraft_capture(RedisRaftBug::Rr42),
        BugId::RedisRaft43 => redisraft_capture(RedisRaftBug::Rr43),
        BugId::RedisRaft51 => redisraft_capture(RedisRaftBug::Rr51),
        BugId::RedisRaftNew => redisraft_capture(RedisRaftBug::RrNew),
        BugId::RedisRaftNew2 => redisraft_capture(RedisRaftBug::RrNew2),
        BugId::Redpanda3003 | BugId::Redpanda3039 => rose_apps::redpanda::redpanda_capture(
            rose_apps::redpanda::redpanda_bug_of(id).expect("redpanda id"),
        ),
        BugId::Zookeeper2247
        | BugId::Zookeeper3006
        | BugId::Zookeeper3157
        | BugId::Zookeeper4203 => rose_apps::zookeeper::zookeeper_capture(
            rose_apps::zookeeper::zookeeper_bug_of(id).expect("zookeeper id"),
        ),
        BugId::Hdfs4233 => hdfs_capture(HdfsBug::Hdfs4233),
        BugId::Hdfs12070 => hdfs_capture(HdfsBug::Hdfs12070),
        BugId::Hdfs15032 => hdfs_capture(HdfsBug::Hdfs15032),
        BugId::Hdfs16332 => hdfs_capture(HdfsBug::Hdfs16332),
        BugId::Kafka12508 => rose_apps::kafka::kafka_capture(),
        BugId::Hbase19608 => rose_apps::hbase::hbase_capture(),
        BugId::Mongo243 | BugId::Mongo3210 => rose_apps::mongodb::mongodb_capture(
            rose_apps::mongodb::mongodb_bug_of(id).expect("mongodb id"),
        ),
        BugId::Tendermint5839 => rose_apps::tendermint::tendermint_capture(),
        BugId::RaftSnapshotTear => roseraft_capture(RaftScenario::SnapshotTear),
        BugId::RaftCompactionLoss => roseraft_capture(RaftScenario::CompactionLoss),
        BugId::RaftReconfigSplit => roseraft_capture(RaftScenario::ReconfigSplit),
    }
}

/// One representative case per target system, for the per-system layer
/// metrics (`apps.*.<system>`, `jepsen.oracle_ms_per_run.<system>`).
pub const SYSTEMS: [(&str, BugId); 9] = [
    ("redisraft", BugId::RedisRaft42),
    ("roseraft", BugId::RaftCompactionLoss),
    ("redpanda", BugId::Redpanda3003),
    ("zookeeper", BugId::Zookeeper2247),
    ("hdfs", BugId::Hdfs12070),
    ("kafka", BugId::Kafka12508),
    ("hbase", BugId::Hbase19608),
    ("mongodb", BugId::Mongo243),
    ("tendermint", BugId::Tendermint5839),
];
