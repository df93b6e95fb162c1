//! A Redpanda-like streaming log with idempotent producers.
//!
//! Broker 0 leads the single partition: producers append records tagged
//! with `(producer id, sequence)`, and the broker deduplicates retries.
//! Carries the shared defect behind `Redpanda-3003` and `Redpanda-3039`
//! (Jepsen-sourced, Elle-checked): the dedup state is scoped to the
//! producer's *session*, so a retry arriving under a fresh session (after
//! a broker pause outlasts the producer's session timeout) is appended
//! again — duplicated records (#3003) and inconsistent offsets (#3039).

use std::collections::BTreeMap;

use rose_events::{NodeId, SimDuration};
use rose_profile::SymbolTable;
use rose_sim::{Application, ClientCtx, ClientId, ListView, NodeCtx, OpenFlags};

use crate::common::{
    append_op, background_tick, client_value, numbered, push_kv_record, push_value, read_key,
    read_op, read_values, tags, ClosedLoop, ProbeStyle, Reply, Route, Workload, TICK_PERIOD,
};
use crate::driver::{CaptureMethod, CaptureSpec};
use crate::registry::BugId;

/// The partition leader.
pub const LEADER: NodeId = NodeId(0);
const SEGMENT: &str = "/redpanda/segment.log";

/// Which Redpanda manifestation the oracle checks (same source defect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedpandaBug {
    /// Redpanda-3003: lost deduplication (duplicate records).
    Rp3003,
    /// Redpanda-3039: inconsistent offsets between reads.
    Rp3039,
}

/// Wire messages.
#[derive(Debug, Clone)]
pub enum Pmsg {
    /// Producer append.
    Produce {
        /// Key (list id).
        key: String,
        /// Value.
        val: String,
        /// Producer id.
        pid: u32,
        /// Producer sequence number.
        seq: u64,
        /// Producer session epoch (bumps on reconnect).
        session: u64,
    },
    /// Append acknowledged.
    ProduceOk {
        /// Producer sequence acknowledged.
        seq: u64,
    },
    /// Consumer read of a key's record list.
    Consume {
        /// Key.
        key: String,
    },
    /// Consumer reply.
    ConsumeOk {
        /// Key.
        key: String,
        /// Values at their offsets.
        values: ListView,
    },
    /// Keepalive gossip.
    Gossip,
}

/// The per-broker application.
pub struct Redpanda {
    /// Whether the session-scoped-dedup defect is active.
    bug: bool,
    /// Appends into the active segment (rolled periodically).
    segment_records: u64,
    /// The log: key → values in offset order.
    log: BTreeMap<String, ListView>,
    /// Dedup state. Correct binary: `pid → last seq`. Defect: keyed by
    /// `(pid, session)`, so a new session forgets history.
    dedup: BTreeMap<(u32, u64), u64>,
    tick: u64,
    /// The segment record being written; kept for its capacity.
    line: String,
}

impl Redpanda {
    /// A broker, optionally with the seeded defect.
    pub fn new(bug: bool) -> Self {
        Redpanda {
            bug,
            segment_records: 0,
            log: BTreeMap::new(),
            dedup: BTreeMap::new(),
            tick: 0,
            line: String::new(),
        }
    }

    fn dedup_key(&self, pid: u32, session: u64) -> (u32, u64) {
        if self.bug {
            // DEFECT: dedup scoped to the session.
            (pid, session)
        } else {
            (pid, 0)
        }
    }
}

impl Application for Redpanda {
    type Msg = Pmsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Pmsg>) {
        ctx.set_timer(TICK_PERIOD, tags::TICK);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Pmsg>, _tag: u64) {
        background_tick(ctx, &mut self.tick, ProbeStyle::Native, 2, Pmsg::Gossip);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Pmsg>, _from: NodeId, _msg: Pmsg) {}

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, Pmsg>, client: ClientId, req: Pmsg) {
        if ctx.node() != LEADER {
            return;
        }
        match req {
            Pmsg::Produce {
                key,
                val,
                pid,
                seq,
                session,
            } => {
                let dk = self.dedup_key(pid, session);
                let last = self.dedup.get(&dk).copied().unwrap_or(0);
                if seq > last {
                    {
                        let ctx = &mut ctx.function("appendBatch");
                        if let Ok(fd) = ctx.open(SEGMENT, OpenFlags::Append) {
                            self.line.clear();
                            push_kv_record(&mut self.line, &key, &val);
                            let _ = ctx.write(fd, self.line.as_bytes());
                            let _ = ctx.close(fd);
                        }
                    }
                    self.segment_records += 1;
                    if self.segment_records.is_multiple_of(400) {
                        // Roll the active segment (rare maintenance path).
                        let ctx = &mut ctx.function("rollSegment");
                        let sealed = format!("{SEGMENT}.{}", self.segment_records);
                        let _ = ctx.rename(SEGMENT, &sealed);
                        let _ = ctx.write_file(SEGMENT, b"");
                    }
                    push_value(&mut self.log, &key, &val);
                    self.dedup.insert(dk, seq);
                }
                let _ = ctx.reply(client, Pmsg::ProduceOk { seq });
            }
            Pmsg::Consume { key } => {
                let values = read_values(&self.log, &key);
                let _ = ctx.reply(client, Pmsg::ConsumeOk { key, values });
            }
            _ => {}
        }
    }
}

/// One Redpanda bug case (both share the defect; oracles differ).
#[derive(Debug, Clone)]
pub struct RedpandaCase {
    /// Which manifestation the oracle checks.
    pub bug: RedpandaBug,
}

impl rose_core::TargetSystem for RedpandaCase {
    type App = Redpanda;

    fn name(&self) -> &str {
        match self.bug {
            RedpandaBug::Rp3003 => "Redpanda-3003",
            RedpandaBug::Rp3039 => "Redpanda-3039",
        }
    }

    fn cluster_size(&self) -> u32 {
        3
    }

    fn build_node(&self, _node: NodeId) -> Redpanda {
        Redpanda::new(true)
    }

    fn attach_workload(&self, sim: &mut rose_sim::Sim<Redpanda>) {
        sim.add_client(Box::new(Producer::new()));
        sim.add_client(Box::new(Producer::new()));
    }

    fn oracle(&self, sim: &rose_sim::Sim<Redpanda>) -> bool {
        // Jepsen's built-in oracle: the Elle append-list checker.
        let report = rose_jepsen::check_appends(&sim.core().history);
        match self.bug {
            RedpandaBug::Rp3003 => report.has_duplicates(),
            RedpandaBug::Rp3039 => report.has_duplicates() || report.has_inconsistent_offsets(),
        }
    }

    /// The broker symbol table.
    fn symbols(&self) -> SymbolTable {
        SymbolTable::new()
            .function("appendBatch", "storage.cc", vec![])
            .function("rollSegment", "storage.cc", vec![])
    }

    fn oracle_cost(&self) -> SimDuration {
        // Elle analyzes the whole transaction history (§6.2: ~2 minutes).
        SimDuration::from_secs(120)
    }
}

/// Pause-heavy capture, as in the Jepsen analyses.
pub fn redpanda_capture(_bug: RedpandaBug) -> CaptureSpec {
    use rose_jepsen::{NemesisConfig, NemesisOp};
    let cfg = NemesisConfig {
        start_after: SimDuration::from_secs(8),
        interval: (SimDuration::from_secs(1), SimDuration::from_secs(5)),
        duration: (SimDuration::from_secs(5), SimDuration::from_secs(9)),
        ..NemesisConfig::standard(3, 11)
    }
    .with_ops(vec![NemesisOp::Pause]);
    CaptureSpec::from(CaptureMethod::Nemesis(cfg)).with_duration(SimDuration::from_secs(60))
}

/// The registry mapping.
pub fn redpanda_bug_of(id: BugId) -> Option<RedpandaBug> {
    match id {
        BugId::Redpanda3003 => Some(RedpandaBug::Rp3003),
        BugId::Redpanda3039 => Some(RedpandaBug::Rp3039),
        _ => None,
    }
}

// --- Workload ---------------------------------------------------------------

/// An idempotent producer with session reconnects, plus a consumer side.
pub struct RedpandaWorkload {
    session: u64,
}

impl Default for RedpandaWorkload {
    fn default() -> Self {
        RedpandaWorkload { session: 1 }
    }
}

/// The Redpanda client.
pub type Producer = ClosedLoop<RedpandaWorkload>;

impl Workload for RedpandaWorkload {
    type Msg = Pmsg;
    const WRITE_PERIOD: SimDuration = SimDuration::from_millis(100);
    const READ_PERIOD: Option<SimDuration> = Some(SimDuration::from_millis(900));
    // Session timeout ~4-5 s: only pauses longer than this force a
    // reconnect.
    const TIMEOUT_US: u64 = 4_000_000;
    const JITTER_US: u64 = 1_000_000;
    const SENDS: u32 = 4;
    const ROUTE: Route = Route::Fixed(LEADER);

    fn write(&mut self, client: ClientId, seq: u64) -> (String, u64, Pmsg) {
        let key = numbered("k", seq % 3);
        let val = client_value("p", client.0, "s", seq);
        let op = append_op(&key, &val);
        let produce = Pmsg::Produce {
            key,
            val,
            pid: client.0,
            seq,
            session: self.session,
        };
        (op, seq, produce)
    }

    /// A session timeout: reconnect with a fresh session and retry the same
    /// sequence — the idempotent-producer contract.
    fn resend(&mut self, client: ClientId, seq: u64) -> Pmsg {
        self.session += 1;
        self.write(client, seq).2
    }

    fn read(&mut self, ctx: &mut ClientCtx<'_, Pmsg>, node: NodeId) {
        let key = read_key(ctx, "k");
        ctx.send(node, Pmsg::Consume { key });
    }

    fn classify(&mut self, _ctx: &mut ClientCtx<'_, Pmsg>, msg: Pmsg) -> Reply {
        match msg {
            Pmsg::ProduceOk { seq } => Reply::Ack(seq),
            Pmsg::ConsumeOk { key, values } => Reply::Read(read_op(&key), Some(values)),
            _ => Reply::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_consume_reply_is_the_logs_own_list() {
        crate::common::sharing::replies_share_the_stores_list_and_keep_what_they_were_sent(
            RedpandaCase {
                bug: RedpandaBug::Rp3003,
            },
            LEADER,
            || Pmsg::Consume { key: "k0".into() },
            |msg| match msg {
                Pmsg::ConsumeOk { values, .. } => Some(values),
                _ => None,
            },
            |broker| broker.log.get("k0"),
        );
    }
}
