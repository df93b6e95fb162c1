//! The capture spec of every registry case, pinned.
//!
//! A case's capture spec is the known trigger a "production" trace is taken
//! under: a scripted schedule, a nemesis configuration, a prelude and a
//! capture duration. Nothing else holds these values still, and a changed
//! `nth`, path, node or seed moves the trace every later phase reads. Each
//! row is a hash of the spec's `{:?}`; a row that moves means a case now
//! captures under something else. If the change meant that, paste the
//! printed table.

use rose_apps::driver::capture_spec;
use rose_apps::registry::BugId;
use rose_events::Fingerprinter;

/// `(case, hash of its capture spec's {:?})`, for every registered case.
#[rustfmt::skip]
const EXPECTED: [(BugId, u64); 23] = [
    (BugId::RedisRaft42, 0xf26a89011721d31d),
    (BugId::RedisRaft43, 0x02b3e5a2d15a81b5),
    (BugId::RedisRaft51, 0x1f61280bdbf7739b),
    (BugId::RedisRaftNew, 0x1ea96bf14e869b9b),
    (BugId::RedisRaftNew2, 0x6eba998b7368836e),
    (BugId::Redpanda3003, 0x63dc8583e3f992e4),
    (BugId::Redpanda3039, 0x63dc8583e3f992e4),
    (BugId::Zookeeper2247, 0xc7a4bf9abe4b6321),
    (BugId::Zookeeper3006, 0xc4b3374a32d0d35c),
    (BugId::Zookeeper3157, 0x085188b209181550),
    (BugId::Zookeeper4203, 0xefa05f1e593b3b9b),
    (BugId::Hdfs4233, 0x81ede87866b3eaeb),
    (BugId::Hdfs12070, 0x815089777cdd2652),
    (BugId::Hdfs15032, 0x88b60e03d16a4da8),
    (BugId::Hdfs16332, 0x40d5964625abff3f),
    (BugId::Kafka12508, 0x630d090605873a47),
    (BugId::Hbase19608, 0x61fabd57073d0bdd),
    (BugId::Mongo243, 0x826d7784c5ab0206),
    (BugId::Mongo3210, 0xdfab59e628ea910b),
    (BugId::Tendermint5839, 0xa092f3fbad2cd6ea),
    (BugId::RaftSnapshotTear, 0xd1e7c59cd904a220),
    (BugId::RaftCompactionLoss, 0x45f01c50c7fb3c9d),
    (BugId::RaftReconfigSplit, 0xc82c7b1803dfa9ad),
];

#[test]
fn every_case_captures_under_its_recorded_spec() {
    let cases = BugId::all_with_hunted();
    assert_eq!(
        cases,
        EXPECTED.map(|(id, _)| id),
        "the table lists every registered case, in registry order"
    );
    let actual = EXPECTED.map(|(id, _)| {
        let spec = format!("{:?}", capture_spec(id));
        (id, Fingerprinter::new().write_str(&spec).finish())
    });
    if actual != EXPECTED {
        println!("const EXPECTED: [(BugId, u64); {}] = [", actual.len());
        for (id, hash) in &actual {
            println!("    (BugId::{id:?}, {hash:#018x}),");
        }
        println!("];");
        panic!("a case's capture spec moved; the table as it is now is printed above");
    }
}
