//! The bug registry: the 20 external-fault-induced bugs of the paper's
//! Table 1, with their sources and how their "production" traces are
//! obtained, plus the hunted (unscripted) cases of the in-repo Raft
//! target.

use serde::{Deserialize, Serialize};

/// Where a bug (and its trace) comes from, per the paper's methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Source {
    /// Jepsen analyses: the trace is captured by running the system under
    /// the randomized nemesis until the oracle fires (§6.1).
    Jepsen,
    /// Anduril's corpus: no production trace exists, so the trace is
    /// recreated by running the bug's known test case under the tracer.
    Anduril,
    /// Manually selected bugs, traced from a scripted reproduction.
    Manual,
    /// Hunted in-repo: no seeded defect gate and no scripted symptom; the
    /// trace is captured by randomized nemesis runs against a real
    /// implementation until an invariant checker fires.
    Hunted,
}

impl Source {
    /// The single-letter tag of Table 1's `Src` column.
    pub fn tag(self) -> &'static str {
        match self {
            Source::Jepsen => "J",
            Source::Anduril => "A",
            Source::Manual => "M",
            Source::Hunted => "H",
        }
    }
}

/// The 20 bugs of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BugId {
    RedisRaft42,
    RedisRaft43,
    RedisRaft51,
    RedisRaftNew,
    RedisRaftNew2,
    Redpanda3003,
    Redpanda3039,
    Zookeeper2247,
    Zookeeper3006,
    Zookeeper3157,
    Zookeeper4203,
    Hdfs4233,
    Hdfs12070,
    Hdfs15032,
    Hdfs16332,
    Kafka12508,
    Hbase19608,
    Mongo243,
    Mongo3210,
    Tendermint5839,
    RaftSnapshotTear,
    RaftCompactionLoss,
    RaftReconfigSplit,
}

impl BugId {
    /// All bugs in Table 1 row order.
    pub const ALL: [BugId; 20] = [
        BugId::RedisRaft42,
        BugId::RedisRaft43,
        BugId::RedisRaft51,
        BugId::RedisRaftNew,
        BugId::RedisRaftNew2,
        BugId::Redpanda3003,
        BugId::Redpanda3039,
        BugId::Zookeeper2247,
        BugId::Zookeeper3006,
        BugId::Zookeeper3157,
        BugId::Zookeeper4203,
        BugId::Hdfs4233,
        BugId::Hdfs12070,
        BugId::Hdfs15032,
        BugId::Hdfs16332,
        BugId::Kafka12508,
        BugId::Hbase19608,
        BugId::Mongo243,
        BugId::Mongo3210,
        BugId::Tendermint5839,
    ];

    /// The hunted cases of the in-repo Raft target. These are not Table 1
    /// rows (the paper's evaluation set stays at 20): they are the
    /// unscripted scenarios found by invariant-oracle campaigns.
    pub const HUNTED: [BugId; 3] = [
        BugId::RaftSnapshotTear,
        BugId::RaftCompactionLoss,
        BugId::RaftReconfigSplit,
    ];

    /// The campaign bug set: all 20 Table 1 bugs, or the quick subset (the
    /// first five rows — the RedisRaft block) used by smoke runs and CI.
    pub fn campaign(quick: bool) -> &'static [BugId] {
        if quick {
            &Self::ALL[..5]
        } else {
            &Self::ALL
        }
    }

    /// Every registered case: Table 1 plus the hunted Raft scenarios.
    pub fn all_with_hunted() -> Vec<BugId> {
        Self::ALL
            .iter()
            .chain(Self::HUNTED.iter())
            .copied()
            .collect()
    }

    /// The file stem of the bug's persisted artifacts (Chrome exports,
    /// trace-store files, causal exports, visited sets): see [`file_stem`].
    pub fn file_stem(self) -> String {
        file_stem(self.info().name)
    }

    /// Resolves a display name (as printed by `Display`, case-insensitive)
    /// back to its id.
    pub fn parse(name: &str) -> Option<BugId> {
        Self::all_with_hunted()
            .into_iter()
            .find(|b| b.info().name.eq_ignore_ascii_case(name))
    }

    /// Static metadata for the bug.
    pub fn info(self) -> BugInfo {
        match self {
            BugId::RedisRaft42 => BugInfo::new(
                self,
                "RedisRaft-42",
                "RedisRaft (C)",
                Source::Jepsen,
                "Node crashes due to failed assert related to snapshot & log integrity.",
            ),
            BugId::RedisRaft43 => BugInfo::new(
                self,
                "RedisRaft-43",
                "RedisRaft (C)",
                Source::Jepsen,
                "Snapshot index mismatch.",
            ),
            BugId::RedisRaft51 => BugInfo::new(
                self,
                "RedisRaft-51",
                "RedisRaft (C)",
                Source::Jepsen,
                "Node crashes due to failed assert related to cache index integrity.",
            ),
            BugId::RedisRaftNew => BugInfo::new(
                self,
                "RedisRaft-NEW",
                "RedisRaft (C)",
                Source::Jepsen,
                "Redis itself crashes due to an inconsistent snapshot file.",
            ),
            BugId::RedisRaftNew2 => BugInfo::new(
                self,
                "RedisRaft-NEW2",
                "RedisRaft (C)",
                Source::Jepsen,
                "Redis itself fails due to a repeated key.",
            ),
            BugId::Redpanda3003 => BugInfo::new(
                self,
                "Redpanda-3003",
                "Redpanda (C++)",
                Source::Jepsen,
                "Redpanda fails to perform deduplication of sent messages.",
            ),
            BugId::Redpanda3039 => BugInfo::new(
                self,
                "Redpanda-3039",
                "Redpanda (C++)",
                Source::Jepsen,
                "Inconsistent offsets.",
            ),
            BugId::Zookeeper2247 => BugInfo::new(
                self,
                "Zookeeper-2247",
                "ZooKeeper (Java)",
                Source::Anduril,
                "Service becomes unavailable when leader fails to write transaction log.",
            ),
            BugId::Zookeeper3006 => BugInfo::new(
                self,
                "Zookeeper-3006",
                "ZooKeeper (Java)",
                Source::Anduril,
                "Invalid disk file content causes null pointer exception.",
            ),
            BugId::Zookeeper3157 => BugInfo::new(
                self,
                "Zookeeper-3157",
                "ZooKeeper (Java)",
                Source::Anduril,
                "Connection loss causes the client to fail.",
            ),
            BugId::Zookeeper4203 => BugInfo::new(
                self,
                "Zookeeper-4203",
                "ZooKeeper (Java)",
                Source::Anduril,
                "The leader election is stuck forever due to connection error.",
            ),
            BugId::Hdfs4233 => BugInfo::new(
                self,
                "HDFS-4233",
                "HDFS (Java)",
                Source::Anduril,
                "NN keeps serving even after no journals started while rolling edit.",
            ),
            BugId::Hdfs12070 => BugInfo::new(
                self,
                "HDFS-12070",
                "HDFS (Java)",
                Source::Anduril,
                "Files remain open indefinitely if block recovery fails.",
            ),
            BugId::Hdfs15032 => BugInfo::new(
                self,
                "HDFS-15032",
                "HDFS (Java)",
                Source::Anduril,
                "Balancer crashes when it fails to contact an unavailable namenode.",
            ),
            BugId::Hdfs16332 => BugInfo::new(
                self,
                "HDFS-16332",
                "HDFS (Java)",
                Source::Anduril,
                "Missing handling of expired block token causes slow read.",
            ),
            BugId::Kafka12508 => BugInfo::new(
                self,
                "Kafka-12508",
                "Kafka (Java/Scala)",
                Source::Anduril,
                "Emit-on-change tables may lose updates on error or restart.",
            ),
            BugId::Hbase19608 => BugInfo::new(
                self,
                "HBASE-19608",
                "HBase (Java)",
                Source::Anduril,
                "Race in MasterRpcServices.getProcedureResult.",
            ),
            BugId::Mongo243 => BugInfo::new(
                self,
                "MongoDB:2.4.3",
                "MongoDB (C++)",
                Source::Manual,
                "MongoDB Data Loss Jepsen report.",
            ),
            BugId::Mongo3210 => BugInfo::new(
                self,
                "MongoDB:3.2.10",
                "MongoDB (C++)",
                Source::Manual,
                "MongoDB Unavailability Jepsen report.",
            ),
            BugId::Tendermint5839 => BugInfo::new(
                self,
                "Tendermint-5839",
                "Tendermint (Go)",
                Source::Manual,
                "Does not validate permissions to access file.",
            ),
            BugId::RaftSnapshotTear => BugInfo::new(
                self,
                "RoseRaft-SNAPXFER",
                "RoseRaft (Rust)",
                Source::Hunted,
                "Crash mid snapshot transfer leaves a torn image recovery accepts.",
            ),
            BugId::RaftCompactionLoss => BugInfo::new(
                self,
                "RoseRaft-COMPACT",
                "RoseRaft (Rust)",
                Source::Hunted,
                "Crash between log truncation and snapshot write loses applied state.",
            ),
            BugId::RaftReconfigSplit => BugInfo::new(
                self,
                "RoseRaft-JOINT",
                "RoseRaft (Rust)",
                Source::Hunted,
                "Partition across a membership shrink lets both sides commit.",
            ),
        }
    }
}

/// Sanitizes a display name into a file stem: lowercase, non-alphanumerics
/// mapped to `-`.
fn file_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

impl std::fmt::Display for BugId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.info().name)
    }
}

/// A bug discovered by a hunting campaign (`rose-hunt`), named after the
/// registry case whose oracle it fired plus the fingerprint of the
/// discovered schedule. Campaigns can surface *different* schedules that
/// violate the same invariant; the fingerprint keeps them apart while the
/// base id keeps them attributable.
///
/// Renders as `Hunt-<base-name>-<16 hex digits>` and parses back
/// loss-free — the hunt bin uses these ids to label discovered-schedule
/// artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DiscoveryId {
    /// The registry case (and oracle) the discovery was hunted against.
    pub base: BugId,
    /// `rose_inject::schedule_fingerprint` of the discovered schedule.
    pub fingerprint: u64,
}

impl std::fmt::Display for DiscoveryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hunt-{}-{:016x}", self.base, self.fingerprint)
    }
}

impl DiscoveryId {
    /// Resolves a display name (as printed by `Display`, case-insensitive)
    /// back to its id. The schedule fingerprint is always 16 hex digits,
    /// so the split is unambiguous even though bug names contain `-`.
    pub fn parse(name: &str) -> Option<DiscoveryId> {
        let prefix = name.get(..5)?;
        if !prefix.eq_ignore_ascii_case("hunt-") {
            return None;
        }
        let (base_name, hex) = name[5..].rsplit_once('-')?;
        if hex.len() != 16 {
            return None;
        }
        let fingerprint = u64::from_str_radix(hex, 16).ok()?;
        let base = BugId::parse(base_name)?;
        Some(DiscoveryId { base, fingerprint })
    }
}

/// Static bug metadata (a Table 1 row skeleton).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BugInfo {
    /// The bug.
    pub id: BugId,
    /// Display name.
    pub name: &'static str,
    /// System and implementation language.
    pub system: &'static str,
    /// Trace source.
    pub source: Source,
    /// One-line description (Table 1's `Description` column).
    pub description: &'static str,
}

impl BugInfo {
    fn new(
        id: BugId,
        name: &'static str,
        system: &'static str,
        source: Source,
        description: &'static str,
    ) -> Self {
        BugInfo {
            id,
            name,
            system,
            source,
            description,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_twenty_bugs_across_eight_systems() {
        assert_eq!(BugId::ALL.len(), 20);
        let systems: std::collections::BTreeSet<&str> =
            BugId::ALL.iter().map(|b| b.info().system).collect();
        assert_eq!(systems.len(), 8, "{systems:?}");
    }

    #[test]
    fn source_split_matches_paper() {
        let count = |s: Source| BugId::ALL.iter().filter(|b| b.info().source == s).count();
        assert_eq!(count(Source::Jepsen), 7);
        assert_eq!(count(Source::Anduril), 10);
        assert_eq!(count(Source::Manual), 3);
    }

    #[test]
    fn names_and_tags_are_stable() {
        assert_eq!(BugId::RedisRaft43.to_string(), "RedisRaft-43");
        assert_eq!(Source::Jepsen.tag(), "J");
        assert_eq!(Source::Anduril.tag(), "A");
        assert_eq!(Source::Manual.tag(), "M");
        assert_eq!(Source::Hunted.tag(), "H");
    }

    #[test]
    fn hunted_cases_are_registered_but_not_in_table1() {
        assert_eq!(BugId::HUNTED.len(), 3);
        for b in BugId::HUNTED {
            assert!(!BugId::ALL.contains(&b));
            assert_eq!(b.info().source, Source::Hunted);
            assert_eq!(b.info().system, "RoseRaft (Rust)");
        }
        assert_eq!(BugId::all_with_hunted().len(), 23);
    }

    #[test]
    fn discovery_ids_round_trip_and_reject_malformed_names() {
        for base in BugId::all_with_hunted() {
            for fingerprint in [0u64, 1, 0xdead_beef_0bad_cafe, u64::MAX] {
                let id = DiscoveryId { base, fingerprint };
                assert_eq!(DiscoveryId::parse(&id.to_string()), Some(id));
                assert_eq!(DiscoveryId::parse(&id.to_string().to_lowercase()), Some(id));
            }
        }
        assert_eq!(DiscoveryId::parse("RedisRaft-43"), None);
        assert_eq!(DiscoveryId::parse("Hunt-RedisRaft-43"), None, "no hex");
        assert_eq!(
            DiscoveryId::parse("Hunt-RedisRaft-43-123"),
            None,
            "short hex"
        );
        assert_eq!(DiscoveryId::parse("Hunt-NoSuchBug-0000000000000000"), None);
    }

    #[test]
    fn names_parse_back_to_ids() {
        for b in BugId::all_with_hunted() {
            assert_eq!(BugId::parse(b.info().name), Some(b));
            assert_eq!(BugId::parse(&b.info().name.to_lowercase()), Some(b));
        }
        assert_eq!(BugId::parse("no-such-bug"), None);
    }
}
