//! A Kafka-like broker with a Streams-style emit-on-change table.
//!
//! Three brokers; broker 0 hosts the emit-on-change table backed by a
//! changelog file. Carries `KAFKA-12508` (Anduril-sourced): when the
//! changelog cannot be opened, the update is acknowledged and applied to
//! the in-memory table, but the emitted (downstream-visible) view is never
//! refreshed — readers see stale values from then on.

use std::collections::{BTreeMap, HashSet};

use rose_events::{Errno, FnvBuildHasher, NodeId, SimDuration, SyscallId};
use rose_profile::SymbolTable;
use rose_sim::{
    Application, ClientCtx, ClientId, History, ListView, NodeCtx, OpOutcome, OpenFlags,
};

use crate::common::{
    background_tick, numbered, push_kv_record, read_key, scf, tags, ClosedLoop, ProbeStyle, Reply,
    Route, Workload, TICK_PERIOD,
};
use crate::driver::CaptureSpec;

const CHANGELOG: &str = "/kafka/changelog";
/// The broker hosting the table.
pub const TABLE_BROKER: NodeId = NodeId(0);

/// Wire messages.
#[derive(Debug, Clone)]
pub enum Kmsg {
    /// Client table update.
    Update {
        /// Key.
        key: String,
        /// New value.
        val: String,
        /// Client op id.
        id: u64,
    },
    /// Update acknowledged.
    UpdateOk {
        /// Client op id.
        id: u64,
    },
    /// Client read of the emitted view.
    Read {
        /// Key.
        key: String,
    },
    /// Read reply.
    ReadOk {
        /// Key.
        key: String,
        /// Emitted value, if any.
        val: Option<String>,
    },
    /// Keepalive gossip.
    Gossip,
}

/// The per-broker application.
pub struct Kafka {
    /// Whether the KAFKA-12508 defect is active.
    bug: bool,
    /// The authoritative table.
    table: BTreeMap<String, String>,
    /// The emitted (downstream-visible) view.
    emitted: BTreeMap<String, String>,
    tick: u64,
    /// The changelog record being written; kept for its capacity.
    line: String,
}

impl Kafka {
    /// A broker, optionally with the seeded defect.
    pub fn new(bug: bool) -> Self {
        Kafka {
            bug,
            table: BTreeMap::new(),
            emitted: BTreeMap::new(),
            tick: 0,
            line: String::new(),
        }
    }

    /// The emit-on-change update path (the KAFKA-12508 site).
    fn apply_update(&mut self, ctx: &mut NodeCtx<'_, Kmsg>, key: &str, val: &str) -> bool {
        if self.table.get(key).map(String::as_str) == Some(val) {
            // No change: nothing to emit.
            return true;
        }
        let ctx = &mut ctx.function("flushChangelog");
        let persisted = (|| {
            let fd = ctx.open(CHANGELOG, OpenFlags::Append).ok()?;
            self.line.clear();
            push_kv_record(&mut self.line, key, val);
            let _ = ctx.write(fd, self.line.as_bytes());
            ctx.close(fd).ok()
        })()
        .is_some();
        self.table.insert(key.to_string(), val.to_string());
        if persisted {
            self.emitted.insert(key.to_string(), val.to_string());
            true
        } else if self.bug {
            // DEFECT (KAFKA-12508): the error is swallowed — the update is
            // acknowledged but never emitted downstream.
            ctx.log("WARN changelog flush failed; update not emitted");
            true
        } else {
            // Correct behaviour: fail the update so the client retries.
            ctx.log("ERROR changelog flush failed; update rejected");
            self.table.remove(key);
            false
        }
    }
}

impl Application for Kafka {
    type Msg = Kmsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Kmsg>) {
        ctx.set_timer(TICK_PERIOD, tags::TICK);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Kmsg>, _tag: u64) {
        background_tick(ctx, &mut self.tick, ProbeStyle::Jvm, 2, Kmsg::Gossip);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Kmsg>, _from: NodeId, _msg: Kmsg) {}

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, Kmsg>, client: ClientId, req: Kmsg) {
        if ctx.node() != TABLE_BROKER {
            return;
        }
        match req {
            Kmsg::Update { key, val, id } if self.apply_update(ctx, &key, &val) => {
                let _ = ctx.reply(client, Kmsg::UpdateOk { id });
            }
            Kmsg::Read { key } => {
                let val = self.emitted.get(&key).cloned();
                let _ = ctx.reply(client, Kmsg::ReadOk { key, val });
            }
            _ => {}
        }
    }
}

/// The KAFKA-12508 case.
#[derive(Debug, Clone)]
pub struct KafkaCase;

impl rose_core::TargetSystem for KafkaCase {
    type App = Kafka;

    fn name(&self) -> &str {
        "Kafka-12508"
    }

    fn cluster_size(&self) -> u32 {
        3
    }

    fn build_node(&self, _node: NodeId) -> Kafka {
        Kafka::new(true)
    }

    fn attach_workload(&self, sim: &mut rose_sim::Sim<Kafka>) {
        sim.add_client(Box::new(KafkaClient::new()));
    }

    fn oracle(&self, sim: &rose_sim::Sim<Kafka>) -> bool {
        // An acknowledged update missing from the changelog is lost: a
        // restart (or any downstream consumer of the changelog) will never
        // see it.
        lost_update_detected(sim)
    }

    /// The broker symbol table.
    fn symbols(&self) -> SymbolTable {
        SymbolTable::new().function("flushChangelog", "streams.java", vec![])
    }
}

/// Detects the KAFKA-12508 manifestation: an acknowledged update whose
/// `key=value` record never reached the changelog file on the table broker.
pub fn lost_update_detected(sim: &rose_sim::Sim<Kafka>) -> bool {
    let changelog = sim.core().vfs[TABLE_BROKER.0 as usize]
        .peek(CHANGELOG)
        .unwrap_or_default();
    lost_update(changelog, &sim.core().history)
}

/// Whether `history` acknowledges an update that is not a line of
/// `changelog`. Called at every oracle poll, so the file's lines are
/// indexed once per call, as slices of the file itself.
fn lost_update(changelog: &[u8], history: &History) -> bool {
    let text = String::from_utf8_lossy(changelog);
    let records: HashSet<&str, FnvBuildHasher> = text.lines().collect();
    history.ops().iter().any(|op| {
        matches!(op.outcome, OpOutcome::Ok(_))
            && op
                .op
                .strip_prefix("update ")
                .is_some_and(|kv| !records.contains(kv))
    })
}

/// Scripted capture trigger: fail the changelog open for a fresh update.
pub fn kafka_capture() -> CaptureSpec {
    CaptureSpec::scripted([scf(
        TABLE_BROKER,
        SyscallId::Openat,
        Errno::Eio,
        Some(CHANGELOG),
        5,
    )])
}

// --- Workload ---------------------------------------------------------------

/// The update/read workload of the emit-on-change table. A read is a
/// `view` op: it reads the downstream-visible value.
#[derive(Default)]
pub struct KafkaWorkload;

/// The Kafka client.
pub type KafkaClient = ClosedLoop<KafkaWorkload>;

impl Workload for KafkaWorkload {
    type Msg = Kmsg;
    const WRITE_PERIOD: SimDuration = SimDuration::from_millis(120);
    const READ_PERIOD: Option<SimDuration> = Some(SimDuration::from_millis(700));
    const TIMEOUT_US: u64 = 1_500_000;
    const SENDS: u32 = 1;
    const ROUTE: Route = Route::Fixed(TABLE_BROKER);

    fn write(&mut self, _client: ClientId, n: u64) -> (String, u64, Kmsg) {
        let (key, val) = (numbered("k", n % 3), numbered("v", n));
        let op = ["update ", &key, "=", &val].concat();
        (op, n, Kmsg::Update { key, val, id: n })
    }

    fn read(&mut self, ctx: &mut ClientCtx<'_, Kmsg>, node: NodeId) {
        let key = read_key(ctx, "k");
        ctx.send(node, Kmsg::Read { key });
    }

    fn classify(&mut self, _ctx: &mut ClientCtx<'_, Kmsg>, msg: Kmsg) -> Reply {
        match msg {
            Kmsg::UpdateOk { id } => Reply::Ack(id),
            Kmsg::ReadOk { key, val } => {
                Reply::Read(["view ", &key].concat(), val.map(ListView::from))
            }
            _ => Reply::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rose_events::SimTime;

    #[test]
    fn an_acknowledged_update_missing_from_the_changelog_is_lost() {
        let mut h = History::default();
        let mut update = |kv: &str, outcome: OpOutcome| {
            let idx = h.invoke(ClientId(0), format!("update {kv}"), SimTime::ZERO);
            h.complete(idx, SimTime::from_secs(1), outcome);
        };
        update("k1=v1", OpOutcome::Ok(None));
        update("k2=v2", OpOutcome::Timeout);
        assert!(!lost_update(b"k0=v0\nk1=v1\n", &h), "k1=v1 was kept");
        // Unacknowledged updates and reads of the view are not judged.
        let idx = h.invoke(ClientId(0), "view k2".into(), SimTime::ZERO);
        h.complete(
            idx,
            SimTime::from_secs(1),
            OpOutcome::Ok(Some(String::from("v9").into())),
        );
        assert!(!lost_update(b"k1=v1\n", &h));

        let idx = h.invoke(ClientId(0), "update k2=v3".into(), SimTime::ZERO);
        h.complete(idx, SimTime::from_secs(2), OpOutcome::Ok(None));
        assert!(lost_update(b"k1=v1\n", &h), "k2=v3 never reached the file");
        assert!(lost_update(b"", &h));
        // A record is a whole line, not a substring of one.
        assert!(lost_update(b"k1=v1\nk2=v33\nxk2=v3\n", &h));
        assert!(!lost_update(b"k1=v1\nk2=v33\nk2=v3", &h));
    }
}
