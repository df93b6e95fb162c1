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

use rand::Rng;
use rose_events::{NodeId, SimDuration, SyscallId};
use rose_profile::{site, SymbolTable};
use rose_sim::{Application, ClientCtx, ClientDriver, ClientId, NodeCtx, OpOutcome, OpenFlags};

use crate::common::{
    benign_probes, join_values, push_value, read_values, tags, ProbeStyle, Values,
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
        values: Values,
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
    log: BTreeMap<String, Values>,
    /// Dedup state. Correct binary: `pid → last seq`. Defect: keyed by
    /// `(pid, session)`, so a new session forgets history.
    dedup: BTreeMap<(u32, u64), u64>,
    tick: u64,
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
        ctx.set_timer(SimDuration::from_millis(500), tags::TICK);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Pmsg>, _tag: u64) {
        self.tick += 1;
        benign_probes(ctx, ProbeStyle::Native, self.tick);
        if self.tick.is_multiple_of(2) {
            ctx.broadcast(Pmsg::Gossip);
        }
        ctx.set_timer(SimDuration::from_millis(500), tags::TICK);
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
                    ctx.enter_function("appendBatch");
                    if let Ok(fd) = ctx.open(SEGMENT, OpenFlags::Append) {
                        let _ = ctx.write(fd, format!("{key}={val}\n").as_bytes());
                        let _ = ctx.close(fd);
                    }
                    ctx.exit_function();
                    self.segment_records += 1;
                    if self.segment_records.is_multiple_of(400) {
                        // Roll the active segment (rare maintenance path).
                        ctx.enter_function("rollSegment");
                        let sealed = format!("{SEGMENT}.{}", self.segment_records);
                        let _ = ctx.rename(SEGMENT, &sealed);
                        let _ = ctx.write_file(SEGMENT, b"");
                        ctx.exit_function();
                    }
                    push_value(&mut self.log, &key, val);
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

/// The broker symbol table.
pub fn redpanda_symbols() -> SymbolTable {
    SymbolTable::new()
        .function(
            "appendBatch",
            "storage.cc",
            vec![
                site::sys(0, SyscallId::Openat),
                site::sys(1, SyscallId::Write),
            ],
        )
        .function(
            "rollSegment",
            "storage.cc",
            vec![
                site::sys(0, SyscallId::Rename),
                site::sys(1, SyscallId::Openat),
            ],
        )
}

/// The developer-provided key files.
pub fn redpanda_key_files() -> Vec<String> {
    vec!["storage.cc".into()]
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

    fn symbols(&self) -> SymbolTable {
        redpanda_symbols()
    }

    fn key_files(&self) -> Vec<String> {
        redpanda_key_files()
    }

    fn run_duration(&self) -> SimDuration {
        SimDuration::from_secs(60)
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
pub struct Producer {
    seq: u64,
    session: u64,
    outstanding: Option<(usize, u64, u64, u32)>,
    /// Acked appends.
    pub acked: u64,
}

impl Producer {
    /// A fresh producer.
    pub fn new() -> Self {
        Producer {
            seq: 0,
            session: 1,
            outstanding: None,
            acked: 0,
        }
    }
}

impl Default for Producer {
    fn default() -> Self {
        Producer::new()
    }
}

impl ClientDriver<Pmsg> for Producer {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, Pmsg>) {
        ctx.set_timer(SimDuration::from_millis(100), tags::CLIENT_OP);
        ctx.set_timer(SimDuration::from_millis(900), tags::CLIENT_READ);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_, Pmsg>, tag: u64) {
        match tag {
            tags::CLIENT_OP => {
                let now = ctx.now().as_micros();
                let mut expired = false;
                if let Some((hidx, seq, deadline, retries)) = self.outstanding {
                    if now > deadline {
                        if retries < 3 {
                            // Session timeout: reconnect with a fresh session
                            // and retry the same sequence — the idempotent-
                            // producer contract.
                            self.session += 1;
                            let jitter = ctx.rng().gen_range(0..1_000_000);
                            self.outstanding =
                                Some((hidx, seq, now + 4_000_000 + jitter, retries + 1));
                            let key = format!("k{}", seq % 3);
                            let val = format!("p{}s{}", ctx.id().0, seq);
                            ctx.send(
                                LEADER,
                                Pmsg::Produce {
                                    key,
                                    val,
                                    pid: ctx.id().0,
                                    seq,
                                    session: self.session,
                                },
                            );
                        } else {
                            ctx.complete(hidx, OpOutcome::Timeout);
                            expired = true;
                        }
                    }
                }
                if expired {
                    self.outstanding = None;
                }
                if self.outstanding.is_none() {
                    self.seq += 1;
                    let seq = self.seq;
                    let key = format!("k{}", seq % 3);
                    let val = format!("p{}s{}", ctx.id().0, seq);
                    let hidx = ctx.invoke(format!("append k={key} v={val}"));
                    // Session timeout ~4-5 s: only pauses longer than this
                    // force a reconnect.
                    let jitter = ctx.rng().gen_range(0..1_000_000);
                    ctx.send(
                        LEADER,
                        Pmsg::Produce {
                            key,
                            val,
                            pid: ctx.id().0,
                            seq,
                            session: self.session,
                        },
                    );
                    self.outstanding = Some((hidx, seq, now + 4_000_000 + jitter, 0));
                }
                ctx.set_timer(SimDuration::from_millis(100), tags::CLIENT_OP);
            }
            tags::CLIENT_READ => {
                let key = format!("k{}", ctx.rng().gen_range(0..3u32));
                ctx.send(LEADER, Pmsg::Consume { key });
                ctx.set_timer(SimDuration::from_millis(900), tags::CLIENT_READ);
            }
            _ => {}
        }
    }

    fn on_reply(&mut self, ctx: &mut ClientCtx<'_, Pmsg>, _from: NodeId, msg: Pmsg) {
        match msg {
            Pmsg::ProduceOk { seq } => {
                if let Some((hidx, want, _, _)) = self.outstanding {
                    if seq == want {
                        ctx.complete(hidx, OpOutcome::Ok(None));
                        self.outstanding = None;
                        self.acked += 1;
                    }
                }
            }
            Pmsg::ConsumeOk { key, values } => {
                let hidx = ctx.invoke(format!("read k={key}"));
                ctx.complete(hidx, OpOutcome::Ok(Some(join_values(&values))));
            }
            _ => {}
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
