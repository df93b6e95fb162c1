//! A MongoDB-like replicated document store (primary/secondary replication).
//!
//! Three nodes, one primary. Carries the two manually-selected MongoDB
//! cases from the paper (both from Jepsen reports):
//!
//! | Case | Behaviour | Trigger |
//! |---|---|---|
//! | `MongoDB:2.4.3` | writes acknowledged at the primary alone are rolled back when a partitioned primary rejoins — acknowledged data loss | isolate the primary during writes, heal |
//! | `MongoDB:3.2.10` | elections require full membership (v0-protocol quirk): any partition leaves the set primary-less — extended unavailability | isolate any node |

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::Rng;
use rose_events::{NodeId, SimDuration, SyscallId};
use rose_profile::{site, SymbolTable};
use rose_sim::{Application, ClientCtx, ClientDriver, ClientId, NodeCtx, OpOutcome, OpenFlags};

use crate::common::{
    benign_probes, election_timeout, join_values, push_value, read_values, tags, ProbeStyle, Values,
};
use crate::driver::{CaptureMethod, CaptureSpec};
use crate::registry::BugId;

/// The two MongoDB cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MongoBug {
    /// MongoDB 2.4.3: acknowledged-write rollback (data loss).
    Mongo243,
    /// MongoDB 3.2.10: unavailability after a partition.
    Mongo3210,
}

/// Wire messages.
#[derive(Debug, Clone)]
pub enum Mmsg {
    /// Replication of one oplog entry.
    Repl {
        /// Primary term.
        term: u64,
        /// Oplog position.
        pos: u64,
        /// Key.
        key: String,
        /// Value.
        val: String,
    },
    /// Replication ack.
    ReplOk {
        /// Oplog position.
        pos: u64,
    },
    /// Election call.
    Elect {
        /// Candidate term.
        term: u64,
        /// Candidate oplog position (vote recency check).
        pos: u64,
    },
    /// Election vote.
    ElectOk {
        /// Term.
        term: u64,
    },
    /// Primary heartbeat.
    Primary {
        /// Term.
        term: u64,
        /// Primary oplog position (drives catch-up and rollback).
        pos: u64,
    },
    /// Secondary requests oplog entries after `after`.
    SyncReq {
        /// Position already applied.
        after: u64,
    },
    /// Primary ships oplog entries.
    SyncData {
        /// Entries `(pos, key, val)` in order.
        entries: Vec<(u64, String, String)>,
    },
    /// Client insert (append).
    Insert {
        /// Key.
        key: String,
        /// Value.
        val: String,
        /// Client op id.
        id: u64,
    },
    /// Insert acknowledged.
    InsertOk {
        /// Client op id.
        id: u64,
    },
    /// Client read.
    Find {
        /// Key.
        key: String,
    },
    /// Read reply.
    FindOk {
        /// Key.
        key: String,
        /// Values.
        values: Values,
    },
    /// Not the primary.
    NotPrimary {
        /// Known primary.
        primary: Option<NodeId>,
    },
    /// Keepalive gossip.
    Gossip,
}

/// Node role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Secondary,
    Primary,
}

/// The per-node MongoDB application.
pub struct MongoDb {
    bug: Option<MongoBug>,
    role: Role,
    term: u64,
    voted_in: u64,
    votes: u32,
    primary: Option<NodeId>,
    oplog_pos: u64,
    /// In-memory oplog: pos → (key, val) (drives sync and rollback).
    oplog: BTreeMap<u64, (String, String)>,
    docs: BTreeMap<String, Values>,
    /// Positions acknowledged by secondaries (primary-side).
    repl_acks: BTreeMap<u64, u32>,
    /// Client acks pending replication (only used under majority acking).
    pending: BTreeMap<u64, (ClientId, u64)>,
    /// Entries not yet confirmed replicated (for rollback on step-down).
    unreplicated: Vec<(u64, String, String)>,
    /// Heartbeat recency from the primary.
    last_primary_us: u64,
    tick: u64,
}

impl MongoDb {
    /// A node for the given case (or a fixed modern baseline).
    pub fn new(bug: Option<MongoBug>) -> Self {
        MongoDb {
            bug,
            role: Role::Secondary,
            term: 0,
            voted_in: 0,
            votes: 0,
            primary: None,
            oplog_pos: 0,
            oplog: BTreeMap::new(),
            docs: BTreeMap::new(),
            repl_acks: BTreeMap::new(),
            pending: BTreeMap::new(),
            unreplicated: Vec::new(),
            last_primary_us: 0,
            tick: 0,
        }
    }

    fn is(&self, bug: MongoBug) -> bool {
        self.bug == Some(bug)
    }

    fn persist_oplog(&mut self, ctx: &mut NodeCtx<'_, Mmsg>, pos: u64, key: &str, val: &str) {
        ctx.enter_function("appendOplog");
        if let Ok(fd) = ctx.open("/mongo/oplog", OpenFlags::Append) {
            let _ = ctx.write(fd, format!("{pos} {key} {val}\n").as_bytes());
            let _ = ctx.close(fd);
        }
        ctx.exit_function();
    }

    fn step_down(&mut self, ctx: &mut NodeCtx<'_, Mmsg>, term: u64, primary: Option<NodeId>) {
        if self.role == Role::Primary {
            ctx.enter_function("stepDown");
            ctx.log(format!(
                "INFO stepping down at term {} → {}",
                self.term, term
            ));
            // Entries that never reached a majority are presumed divergent
            // (another primary owns those oplog positions now): roll them
            // back before catching up. Under the 2.4.3-era w=1 default these
            // entries were already acknowledged — the data loss.
            for (pos, key, val) in std::mem::take(&mut self.unreplicated) {
                if let Some(list) = self.docs.get_mut(&key) {
                    Arc::make_mut(list).retain(|v| v != &val);
                }
                self.oplog.remove(&pos);
                ctx.log(format!("WARN rollback: dropping {key}={val}"));
            }
            self.oplog_pos = self.oplog.keys().next_back().copied().unwrap_or(0);
            self.pending.clear();
            ctx.exit_function();
        }
        self.role = Role::Secondary;
        self.term = term;
        self.primary = primary;
    }

    /// Reconciles with the authoritative primary position: divergent local
    /// entries roll back (the v0-era data loss when they were acknowledged
    /// under w=1), missing entries are requested.
    fn reconcile(&mut self, ctx: &mut NodeCtx<'_, Mmsg>, primary: NodeId, pos: u64) {
        if self.oplog_pos > pos {
            ctx.enter_function("rollbackDivergent");
            let divergent: Vec<u64> = self.oplog.range(pos + 1..).map(|(p, _)| *p).collect();
            for p in divergent {
                if let Some((key, val)) = self.oplog.remove(&p) {
                    if let Some(list) = self.docs.get_mut(&key) {
                        Arc::make_mut(list).retain(|v| v != &val);
                    }
                    ctx.log(format!("WARN rollback: dropping {key}={val}"));
                }
            }
            self.oplog_pos = pos.min(self.oplog_pos);
            self.oplog_pos = self.oplog.keys().next_back().copied().unwrap_or(0);
            ctx.exit_function();
        } else if self.oplog_pos < pos {
            let _ = ctx.send(
                primary,
                Mmsg::SyncReq {
                    after: self.oplog_pos,
                },
            );
        }
    }
}

impl Application for MongoDb {
    type Msg = Mmsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Mmsg>) {
        let t = if ctx.generation() == 0 {
            SimDuration::from_millis(600 + 300 * u64::from(ctx.node().0))
        } else {
            election_timeout(ctx.rng())
        };
        ctx.set_timer(t, tags::ELECTION);
        ctx.set_timer(SimDuration::from_millis(500), tags::TICK);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Mmsg>, tag: u64) {
        match tag {
            tags::ELECTION => {
                let now = ctx.now().as_micros();
                let primary_fresh = self.last_primary_us != 0
                    && now.saturating_sub(self.last_primary_us) < 1_500_000;
                let fire = self.term == 0 || ctx.rng().gen_bool(0.6);
                if self.role != Role::Primary && !primary_fresh && fire {
                    ctx.enter_function("callElection");
                    self.term += 1;
                    self.votes = 1;
                    self.voted_in = self.term;
                    self.primary = None;
                    ctx.broadcast(Mmsg::Elect {
                        term: self.term,
                        pos: self.oplog_pos,
                    });
                    ctx.exit_function();
                }
                let t = election_timeout(ctx.rng());
                ctx.set_timer(t, tags::ELECTION);
            }
            tags::HEARTBEAT if self.role == Role::Primary => {
                ctx.broadcast(Mmsg::Primary {
                    term: self.term,
                    pos: self.oplog_pos,
                });
                ctx.set_timer(SimDuration::from_millis(150), tags::HEARTBEAT);
            }
            tags::TICK => {
                self.tick += 1;
                benign_probes(ctx, ProbeStyle::Native, self.tick);
                if self.tick.is_multiple_of(2) {
                    ctx.broadcast(Mmsg::Gossip);
                }
                ctx.set_timer(SimDuration::from_millis(500), tags::TICK);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Mmsg>, from: NodeId, msg: Mmsg) {
        match msg {
            Mmsg::Elect { term, pos } => {
                // Oplog recency: never vote for a candidate behind us.
                if pos < self.oplog_pos {
                    return;
                }
                if term > self.voted_in && term > self.term {
                    // The MongoDB 3.2.10 defect: a vote is granted only when
                    // the whole replica set is reachable from the voter.
                    if self.is(MongoBug::Mongo3210) {
                        let mut all_reachable = true;
                        for p in ctx.peers() {
                            if ctx.connect(p).is_err() {
                                all_reachable = false;
                            }
                        }
                        if !all_reachable {
                            ctx.log("WARN vote withheld: replica set not fully reachable");
                            return;
                        }
                    }
                    self.voted_in = term;
                    if term > self.term {
                        self.step_down(ctx, term, None);
                    }
                    let _ = ctx.send(from, Mmsg::ElectOk { term });
                }
            }
            Mmsg::ElectOk { term }
                if term == self.term && self.role == Role::Secondary && self.voted_in == term =>
            {
                self.votes += 1;
                if self.votes * 2 > ctx.cluster_size() {
                    self.role = Role::Primary;
                    self.primary = Some(ctx.node());
                    ctx.enter_function("becomePrimary");
                    ctx.log(format!(
                        "INFO became primary term {} pos {}",
                        self.term, self.oplog_pos
                    ));
                    ctx.exit_function();
                    ctx.set_timer(SimDuration::from_millis(150), tags::HEARTBEAT);
                }
            }
            Mmsg::Primary { term, pos } if term >= self.term => {
                if term > self.term || self.role == Role::Primary {
                    self.step_down(ctx, term, Some(from));
                }
                self.primary = Some(from);
                self.last_primary_us = ctx.now().as_micros();
                self.reconcile(ctx, from, pos);
            }
            Mmsg::SyncReq { after } if self.role == Role::Primary => {
                let entries: Vec<(u64, String, String)> = self
                    .oplog
                    .range(after + 1..)
                    .take(200)
                    .map(|(p, (k, v))| (*p, k.clone(), v.clone()))
                    .collect();
                let _ = ctx.send(from, Mmsg::SyncData { entries });
            }
            Mmsg::SyncData { entries } => {
                for (pos, key, val) in entries {
                    if pos == self.oplog_pos + 1 {
                        self.persist_oplog(ctx, pos, &key, &val);
                        push_value(&mut self.docs, &key, val.clone());
                        self.oplog.insert(pos, (key, val));
                        self.oplog_pos = pos;
                    }
                }
            }
            Mmsg::Repl {
                term,
                pos,
                key,
                val,
            } => {
                if term < self.term {
                    return;
                }
                if self.role == Role::Primary {
                    // Another primary with an equal-or-newer term exists:
                    // yield before applying its entries.
                    self.step_down(ctx, term, Some(from));
                }
                self.term = term;
                self.primary = Some(from);
                self.last_primary_us = ctx.now().as_micros();
                if pos == self.oplog_pos + 1 {
                    self.persist_oplog(ctx, pos, &key, &val);
                    push_value(&mut self.docs, &key, val.clone());
                    self.oplog.insert(pos, (key, val));
                    self.oplog_pos = pos;
                    let _ = ctx.send(from, Mmsg::ReplOk { pos });
                } else if pos > self.oplog_pos + 1 {
                    let _ = ctx.send(
                        from,
                        Mmsg::SyncReq {
                            after: self.oplog_pos,
                        },
                    );
                }
            }
            Mmsg::ReplOk { pos } if self.role == Role::Primary => {
                let n = self.repl_acks.entry(pos).or_insert(1);
                *n += 1;
                if u64::from(*n) * 2 > u64::from(ctx.cluster_size()) {
                    self.unreplicated.retain(|(p, _, _)| *p != pos);
                    if let Some((client, id)) = self.pending.remove(&pos) {
                        let _ = ctx.reply(client, Mmsg::InsertOk { id });
                    }
                }
            }
            Mmsg::Gossip => {}
            _ => {}
        }
    }

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, Mmsg>, client: ClientId, req: Mmsg) {
        match req {
            Mmsg::Insert { key, val, id } => {
                if self.role != Role::Primary {
                    let _ = ctx.reply(
                        client,
                        Mmsg::NotPrimary {
                            primary: self.primary,
                        },
                    );
                    return;
                }
                self.oplog_pos += 1;
                let pos = self.oplog_pos;
                self.persist_oplog(ctx, pos, &key, &val);
                push_value(&mut self.docs, &key, val.clone());
                self.oplog.insert(pos, (key.clone(), val.clone()));
                self.unreplicated.push((pos, key.clone(), val.clone()));
                ctx.broadcast(Mmsg::Repl {
                    term: self.term,
                    pos,
                    key,
                    val,
                });
                if self.is(MongoBug::Mongo243) {
                    // The 2.4.3-era default: acknowledge at the primary
                    // without waiting for replication.
                    let _ = ctx.reply(client, Mmsg::InsertOk { id });
                } else {
                    // Modern default: acknowledge on majority replication.
                    self.pending.insert(pos, (client, id));
                }
            }
            Mmsg::Find { key } => {
                if self.role != Role::Primary {
                    let _ = ctx.reply(
                        client,
                        Mmsg::NotPrimary {
                            primary: self.primary,
                        },
                    );
                    return;
                }
                let values = read_values(&self.docs, &key);
                let _ = ctx.reply(client, Mmsg::FindOk { key, values });
            }
            _ => {}
        }
    }
}

/// The symbol table.
pub fn mongodb_symbols() -> SymbolTable {
    SymbolTable::new()
        .function(
            "appendOplog",
            "oplog.cpp",
            vec![site::sys(0, SyscallId::Write)],
        )
        .function("stepDown", "repl.cpp", vec![site::other(0)])
        .function("callElection", "repl.cpp", vec![site::other(0)])
        .function("becomePrimary", "repl.cpp", vec![site::other(0)])
}

/// The developer-provided key files.
pub fn mongodb_key_files() -> Vec<String> {
    vec!["oplog.cpp".into(), "repl.cpp".into()]
}

/// One MongoDB case.
#[derive(Debug, Clone)]
pub struct MongoCase {
    /// Which case is active.
    pub bug: MongoBug,
}

impl rose_core::TargetSystem for MongoCase {
    type App = MongoDb;

    fn name(&self) -> &str {
        match self.bug {
            MongoBug::Mongo243 => "MongoDB:2.4.3",
            MongoBug::Mongo3210 => "MongoDB:3.2.10",
        }
    }

    fn cluster_size(&self) -> u32 {
        3
    }

    fn build_node(&self, _node: NodeId) -> MongoDb {
        MongoDb::new(Some(self.bug))
    }

    fn attach_workload(&self, sim: &mut rose_sim::Sim<MongoDb>) {
        sim.add_client(Box::new(MongoClient::new()));
        sim.add_client(Box::new(MongoClient::new()));
    }

    fn oracle(&self, sim: &rose_sim::Sim<MongoDb>) -> bool {
        match self.bug {
            MongoBug::Mongo243 => rose_jepsen::check_appends(&sim.core().history).has_lost_writes(),
            MongoBug::Mongo3210 => rose_jepsen::unavailable_tail(&sim.core().history, 18_000_000),
        }
    }

    fn symbols(&self) -> SymbolTable {
        mongodb_symbols()
    }

    fn key_files(&self) -> Vec<String> {
        mongodb_key_files()
    }

    fn run_duration(&self) -> SimDuration {
        SimDuration::from_secs(60)
    }
}

/// Partition-driven captures (single-shot, like the Jepsen reports).
pub fn mongodb_capture(bug: MongoBug) -> CaptureSpec {
    use rose_jepsen::{NemesisConfig, NemesisOp};
    let (start, duration) = match bug {
        MongoBug::Mongo243 => (10, (SimDuration::from_secs(8), SimDuration::from_secs(12))),
        MongoBug::Mongo3210 => (10, (SimDuration::from_secs(20), SimDuration::from_secs(25))),
    };
    let cfg = NemesisConfig {
        start_after: SimDuration::from_secs(start),
        interval: (SimDuration::from_secs(500), SimDuration::from_secs(501)),
        duration,
        ..NemesisConfig::standard(3, 21)
    }
    .with_ops(vec![NemesisOp::Partition]);
    CaptureSpec::from(CaptureMethod::Nemesis(cfg)).with_duration(SimDuration::from_secs(55))
}

/// The registry mapping.
pub fn mongodb_bug_of(id: BugId) -> Option<MongoBug> {
    match id {
        BugId::Mongo243 => Some(MongoBug::Mongo243),
        BugId::Mongo3210 => Some(MongoBug::Mongo3210),
        _ => None,
    }
}

// --- Workload ---------------------------------------------------------------

/// An insert/read client with primary discovery.
pub struct MongoClient {
    counter: u64,
    primary: NodeId,
    outstanding: Option<(usize, u64, u64)>,
    /// Acked inserts.
    pub acked: u64,
}

impl MongoClient {
    /// A fresh client.
    pub fn new() -> Self {
        MongoClient {
            counter: 0,
            primary: NodeId(0),
            outstanding: None,
            acked: 0,
        }
    }
}

impl Default for MongoClient {
    fn default() -> Self {
        MongoClient::new()
    }
}

impl ClientDriver<Mmsg> for MongoClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, Mmsg>) {
        ctx.set_timer(SimDuration::from_millis(70), tags::CLIENT_OP);
        ctx.set_timer(SimDuration::from_millis(900), tags::CLIENT_READ);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_, Mmsg>, tag: u64) {
        match tag {
            tags::CLIENT_OP => {
                let now = ctx.now().as_micros();
                if let Some((hidx, _, deadline)) = self.outstanding {
                    if now > deadline {
                        ctx.complete(hidx, OpOutcome::Timeout);
                        self.outstanding = None;
                        let n = ctx.cluster_size();
                        self.primary = NodeId((self.primary.0 + 1) % n);
                    }
                }
                if self.outstanding.is_none() {
                    self.counter += 1;
                    let key = format!("d{}", self.counter % 3);
                    let val = format!("c{}n{}", ctx.id().0, self.counter);
                    let id = (u64::from(ctx.id().0) << 32) | self.counter;
                    let hidx = ctx.invoke(format!("append k={key} v={val}"));
                    ctx.send(self.primary, Mmsg::Insert { key, val, id });
                    self.outstanding = Some((hidx, id, now + 1_200_000));
                }
                ctx.set_timer(SimDuration::from_millis(70), tags::CLIENT_OP);
            }
            tags::CLIENT_READ => {
                let key = format!("d{}", ctx.rng().gen_range(0..3u32));
                ctx.send(self.primary, Mmsg::Find { key });
                ctx.set_timer(SimDuration::from_millis(900), tags::CLIENT_READ);
            }
            _ => {}
        }
    }

    fn on_reply(&mut self, ctx: &mut ClientCtx<'_, Mmsg>, from: NodeId, msg: Mmsg) {
        match msg {
            Mmsg::InsertOk { id } => {
                if let Some((hidx, want, _)) = self.outstanding {
                    if id == want {
                        ctx.complete(hidx, OpOutcome::Ok(None));
                        self.outstanding = None;
                        self.acked += 1;
                        self.primary = from;
                    }
                }
            }
            Mmsg::FindOk { key, values } => {
                let hidx = ctx.invoke(format!("read k={key}"));
                ctx.complete(hidx, OpOutcome::Ok(Some(join_values(&values))));
            }
            Mmsg::NotPrimary { primary } => {
                if let Some(p) = primary {
                    self.primary = p;
                    if let Some((_, id, _)) = self.outstanding {
                        let key = format!("d{}", (id & 0xffff_ffff) % 3);
                        let val = format!("c{}n{}", ctx.id().0, id & 0xffff_ffff);
                        ctx.send(p, Mmsg::Insert { key, val, id });
                    }
                } else {
                    let n = ctx.cluster_size();
                    self.primary = NodeId((from.0 + 1) % n);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_find_reply_is_the_collections_own_list() {
        crate::common::sharing::replies_share_the_stores_list_and_keep_what_they_were_sent(
            MongoCase {
                bug: MongoBug::Mongo243,
            },
            NodeId(0),
            || Mmsg::Find { key: "d0".into() },
            |msg| match msg {
                Mmsg::FindOk { values, .. } => Some(values),
                _ => None,
            },
            |node| node.docs.get("d0"),
        );
    }
}
