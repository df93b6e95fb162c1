//! A ZooKeeper-like coordination service.
//!
//! A ZAB-style 3-node ensemble: leader election, a leader-appended
//! transaction log, periodic snapshots, and follower sync — carrying the
//! four ZooKeeper bugs of the paper's evaluation (all Anduril-sourced):
//!
//! | Bug | Defect | Trigger |
//! |---|---|---|
//! | `ZOOKEEPER-2247` | a failed txn-log write is swallowed; the leader keeps its role but stops acknowledging | SCF on `write` to the txn log |
//! | `ZOOKEEPER-3006` | the snapshot-size read failure is caught but the null size is used anyway | SCF on the first `read` of the snapshot file |
//! | `ZOOKEEPER-3157` | a failed peer-socket read tears down all client sessions fatally | SCF on `read` of the leader sync channel |
//! | `ZOOKEEPER-4203` | a failed `accept` during an election round kills the election logic while the candidate keeps disrupting with ever-higher epochs | SCF on a specific `accept` invocation |

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rand::Rng;
use rose_events::{Errno, NodeId, SimDuration, SyscallId};
use rose_profile::{site, SymbolTable};
use rose_sim::{Application, ClientCtx, ClientDriver, ClientId, NodeCtx, OpOutcome, OpenFlags};

use crate::common::{
    benign_probes, election_timeout, join_values, push_value, read_values, tags, ProbeStyle, Values,
};
use crate::driver::{CaptureMethod, CaptureSpec};
use crate::registry::BugId;

/// The four seeded ZooKeeper defects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZkBug {
    /// ZOOKEEPER-2247: unavailability after a swallowed txn-log write error.
    Zk2247,
    /// ZOOKEEPER-3006: NPE from an unvalidated snapshot size.
    Zk3006,
    /// ZOOKEEPER-3157: client sessions torn down on a peer read error.
    Zk3157,
    /// ZOOKEEPER-4203: leader election stuck forever after an accept error.
    Zk4203,
}

/// Wire messages.
#[derive(Debug, Clone)]
pub enum Zmsg {
    /// Election proposal (epoch ballot).
    Ballot {
        /// Proposed epoch.
        epoch: u64,
    },
    /// Ballot acknowledged.
    BallotOk {
        /// Epoch the ack applies to.
        epoch: u64,
    },
    /// Leader heartbeat / commit announcement.
    Lead {
        /// Leader epoch.
        epoch: u64,
        /// Committed txn count.
        committed: u64,
    },
    /// Replicated transaction.
    Txn {
        /// Leader epoch.
        epoch: u64,
        /// Txn id.
        zxid: u64,
        /// ZNode key.
        key: String,
        /// Value.
        val: String,
    },
    /// Txn acknowledged by a follower.
    TxnOk {
        /// Txn id.
        zxid: u64,
    },
    /// Client: create/set a znode value (append semantics for the history).
    Create {
        /// Key.
        key: String,
        /// Value.
        val: String,
        /// Client op id.
        id: u64,
    },
    /// Client create acknowledged.
    CreateOk {
        /// Client op id.
        id: u64,
    },
    /// Client read.
    Read {
        /// Key.
        key: String,
    },
    /// Client read reply.
    ReadOk {
        /// Key.
        key: String,
        /// Values.
        values: Values,
    },
    /// Not the leader.
    Redirect {
        /// Known leader.
        leader: Option<NodeId>,
    },
    /// Keepalive gossip.
    Gossip,
}

const TXNLOG: &str = "/zk/txnlog";
const SNAPSHOT: &str = "/zk/snapshot.0";
const PEER_SOCK: &str = "/zk/peer.sock";
const SYNC_TIMER: u64 = 40;

/// Node role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Looking,
    Follower,
    Leader,
}

/// The per-node ZooKeeper application state.
pub struct ZooKeeper {
    bug: Option<ZkBug>,
    role: Role,
    epoch: u64,
    acked_epoch: u64,
    ballots: u64,
    leader: Option<NodeId>,
    zxid: u64,
    committed: u64,
    tree: BTreeMap<String, Values>,
    /// Pending client acks by zxid.
    pending: BTreeMap<u64, (ClientId, u64)>,
    /// Per-txn follower acks.
    acks: BTreeMap<u64, u32>,
    /// Defect state: txn-log writes are failing and serving has stopped.
    log_broken: bool,
    /// Defect state: this node's election logic is dead (ZK-4203).
    election_dead: bool,
    /// Defer-to-better-candidate suppression (fast-leader-election style):
    /// while a lower-id candidate is balloting, this node does not start
    /// its own election.
    suppress_until_us: u64,
    /// Client requests seen (session accepts happen every few requests).
    requests_seen: u64,
    /// ZAB-style sync/discovery phase: a fresh leader serves writes only
    /// after this instant (microseconds).
    serving_from_us: u64,
    tick: u64,
    /// The txn-log line `append_txn` is writing; kept for its capacity.
    line: String,
}

impl ZooKeeper {
    /// A node with the given seeded defect (or none).
    pub fn new(bug: Option<ZkBug>) -> Self {
        ZooKeeper {
            bug,
            role: Role::Looking,
            epoch: 0,
            acked_epoch: 0,
            ballots: 0,
            leader: None,
            zxid: 0,
            committed: 0,
            tree: BTreeMap::new(),
            pending: BTreeMap::new(),
            acks: BTreeMap::new(),
            log_broken: false,
            election_dead: false,
            suppress_until_us: 0,
            requests_seen: 0,
            serving_from_us: 0,
            tick: 0,
            line: String::new(),
        }
    }

    fn is(&self, bug: ZkBug) -> bool {
        self.bug == Some(bug)
    }

    /// Boot-time snapshot size calculation (the ZOOKEEPER-3006 path).
    fn calculate_snapshot_size(&mut self, ctx: &mut NodeCtx<'_, Zmsg>) {
        ctx.enter_function("calculateSnapshotSize");
        let mut size: Option<usize> = None;
        if let Ok(fd) = ctx.open_read(SNAPSHOT) {
            match ctx.read(fd, 4096) {
                Ok(data) => size = Some(data.len()),
                Err(e) => {
                    // The exception is caught and logged…
                    ctx.log(format!("WARN cannot read snapshot size: {e}"));
                }
            }
            let _ = ctx.close(fd);
        }
        if self.is(ZkBug::Zk3006) && size.is_none() {
            // DEFECT (ZOOKEEPER-3006): …but the null size is used anyway.
            ctx.exit_function();
            ctx.panic("NullPointerException: snapshot size is null");
        }
        ctx.exit_function();
    }

    /// Election round: broadcast a ballot for a fresh epoch.
    fn start_election(&mut self, ctx: &mut NodeCtx<'_, Zmsg>) {
        if self.election_dead && !self.is(ZkBug::Zk4203) {
            return;
        }
        if self.election_dead {
            // DEFECT (ZOOKEEPER-4203): the broken candidate keeps proposing
            // ever-higher epochs but can no longer collect acks, disrupting
            // every other election attempt — stuck forever.
            self.epoch += 1;
            ctx.broadcast(Zmsg::Ballot { epoch: self.epoch });
            return;
        }
        ctx.enter_function("electionRound");
        self.epoch += 1;
        self.role = Role::Looking;
        self.ballots = 1;
        self.leader = None;
        ctx.broadcast(Zmsg::Ballot { epoch: self.epoch });
        ctx.exit_function();
    }

    /// The election-channel accept — the ZOOKEEPER-4203 injection point.
    fn election_accept(&mut self, ctx: &mut NodeCtx<'_, Zmsg>) -> bool {
        match ctx.accept() {
            Ok(()) => true,
            Err(e) => {
                ctx.log(format!("ERROR election accept failed: {e}"));
                if self.is(ZkBug::Zk4203) {
                    // DEFECT: the election thread dies; no recovery.
                    self.election_dead = true;
                    ctx.log("ERROR election thread died");
                }
                false
            }
        }
    }

    fn append_txn(&mut self, ctx: &mut NodeCtx<'_, Zmsg>, zxid: u64, key: &str, val: &str) -> bool {
        ctx.enter_function("appendTxnLog");
        self.line.clear();
        let _ = writeln!(self.line, "{zxid} {key} {val}");
        let ok = (|| {
            let fd = ctx.open(TXNLOG, OpenFlags::Append).ok()?;
            let r = ctx.write(fd, self.line.as_bytes());
            let _ = ctx.close(fd);
            r.ok()
        })()
        .is_some();
        ctx.exit_function();
        if !ok {
            ctx.log("ERROR txn log write failed");
            if self.is(ZkBug::Zk2247) {
                // DEFECT (ZOOKEEPER-2247): the error is swallowed; the
                // leader keeps its role but silently stops serving.
                self.log_broken = true;
            } else {
                // Correct behaviour: abort so the ensemble can re-elect.
                ctx.panic("txn log unwritable; shutting down");
            }
        }
        ok
    }

    /// Follower sync with the leader over the peer channel (pseudo-socket) —
    /// the ZOOKEEPER-3157 injection point.
    fn sync_with_leader(&mut self, ctx: &mut NodeCtx<'_, Zmsg>) {
        ctx.enter_function("syncWithLeader");
        if let Ok(fd) = ctx.open_read(PEER_SOCK) {
            if let Err(e) = ctx.read(fd, 64) {
                ctx.log(format!("ERROR peer channel read failed: {e}"));
                if self.is(ZkBug::Zk3157) {
                    // DEFECT (ZOOKEEPER-3157): connection loss tears down
                    // every client session fatally instead of reconnecting.
                    ctx.log("FATAL connection loss: client sessions torn down");
                }
            }
            let _ = ctx.close(fd);
        }
        ctx.exit_function();
    }
}

impl Application for ZooKeeper {
    type Msg = Zmsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Zmsg>) {
        self.calculate_snapshot_size(ctx);
        let t = if ctx.generation() == 0 {
            SimDuration::from_millis(600 + 300 * u64::from(ctx.node().0))
        } else {
            election_timeout(ctx.rng())
        };
        ctx.set_timer(t, tags::ELECTION);
        ctx.set_timer(SimDuration::from_millis(500), tags::TICK);
        ctx.set_timer(SimDuration::from_millis(900), SYNC_TIMER);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Zmsg>, tag: u64) {
        match tag {
            tags::ELECTION => {
                // A broken candidate's retry loop is mechanical; healthy
                // nodes race with randomized backoff.
                let fire = self.epoch == 0 || self.election_dead || ctx.rng().gen_bool(0.6);
                let suppressed = ctx.now().as_micros() < self.suppress_until_us;
                if self.role != Role::Leader && self.leader.is_none() && fire && !suppressed {
                    self.start_election(ctx);
                }
                if self.role != Role::Leader {
                    self.leader = None;
                }
                let t = election_timeout(ctx.rng());
                ctx.set_timer(t, tags::ELECTION);
            }
            tags::HEARTBEAT if self.role == Role::Leader => {
                ctx.broadcast(Zmsg::Lead {
                    epoch: self.epoch,
                    committed: self.committed,
                });
                ctx.set_timer(SimDuration::from_millis(150), tags::HEARTBEAT);
            }
            tags::TICK => {
                self.tick += 1;
                benign_probes(ctx, ProbeStyle::Jvm, self.tick);
                if self.tick.is_multiple_of(2) {
                    ctx.broadcast(Zmsg::Gossip);
                }
                ctx.set_timer(SimDuration::from_millis(500), tags::TICK);
            }
            SYNC_TIMER => {
                if self.role == Role::Follower {
                    self.sync_with_leader(ctx);
                }
                ctx.set_timer(SimDuration::from_millis(900), SYNC_TIMER);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Zmsg>, from: NodeId, msg: Zmsg) {
        match msg {
            Zmsg::Ballot { epoch } => {
                if self.election_dead || !self.election_accept(ctx) {
                    return;
                }
                // Fast-leader-election style convergence: defer to a
                // balloting candidate with a lower id.
                if from.0 < ctx.node().0 {
                    self.suppress_until_us = ctx.now().as_micros() + 2_500_000;
                }
                if epoch > self.acked_epoch && epoch > self.epoch {
                    self.acked_epoch = epoch;
                    self.epoch = epoch;
                    self.role = Role::Looking;
                    self.leader = None;
                    let _ = ctx.send(from, Zmsg::BallotOk { epoch });
                }
            }
            Zmsg::BallotOk { epoch } => {
                if self.election_dead || !self.election_accept(ctx) {
                    return;
                }
                if self.role == Role::Looking && epoch == self.epoch {
                    self.ballots += 1;
                    if self.ballots * 2 > ctx.cluster_size() as u64 {
                        self.role = Role::Leader;
                        self.leader = Some(ctx.node());
                        ctx.enter_function("becomeLeader");
                        ctx.exit_function();
                        // Discovery/sync phase before the broadcast phase.
                        self.serving_from_us = ctx.now().as_micros() + 2_000_000;
                        ctx.set_timer(SimDuration::from_millis(150), tags::HEARTBEAT);
                    }
                }
            }
            Zmsg::Lead { epoch, committed } if epoch >= self.epoch => {
                self.epoch = epoch;
                self.role = Role::Follower;
                self.leader = Some(from);
                self.committed = self.committed.max(committed);
            }
            Zmsg::Txn {
                epoch,
                zxid,
                key,
                val,
            } => {
                if epoch < self.epoch {
                    return;
                }
                self.leader = Some(from);
                self.role = Role::Follower;
                if self.append_txn(ctx, zxid, &key, &val) {
                    push_value(&mut self.tree, &key, val);
                    let _ = ctx.send(from, Zmsg::TxnOk { zxid });
                }
            }
            Zmsg::TxnOk { zxid } => {
                if self.role != Role::Leader {
                    return;
                }
                let n = self.acks.entry(zxid).or_insert(1);
                *n += 1;
                if u64::from(*n) * 2 > u64::from(ctx.cluster_size()) {
                    self.committed = self.committed.max(zxid);
                    if let Some((client, id)) = self.pending.remove(&zxid) {
                        if !self.log_broken {
                            let _ = ctx.reply(client, Zmsg::CreateOk { id });
                        }
                    }
                }
            }
            Zmsg::Gossip => {}
            _ => {}
        }
    }

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, Zmsg>, client: ClientId, req: Zmsg) {
        // Session churn: a fresh session connection is accepted every few
        // requests (failures are retried transparently by the session layer).
        self.requests_seen += 1;
        if self.requests_seen % 10 == 1 {
            let _ = ctx.accept();
        }
        match req {
            Zmsg::Create { key, val, id } => {
                if self.role != Role::Leader {
                    let _ = ctx.reply(
                        client,
                        Zmsg::Redirect {
                            leader: self.leader,
                        },
                    );
                    return;
                }
                if self.log_broken {
                    // DEFECT (ZOOKEEPER-2247): silently dropped.
                    return;
                }
                if ctx.now().as_micros() < self.serving_from_us {
                    // Still syncing; the session layer retries.
                    return;
                }
                self.zxid += 1;
                let zxid = self.zxid;
                if self.append_txn(ctx, zxid, &key, &val) {
                    push_value(&mut self.tree, &key, val.clone());
                    self.pending.insert(zxid, (client, id));
                    ctx.broadcast(Zmsg::Txn {
                        epoch: self.epoch,
                        zxid,
                        key,
                        val,
                    });
                }
            }
            Zmsg::Read { key } => {
                let values = read_values(&self.tree, &key);
                let _ = ctx.reply(client, Zmsg::ReadOk { key, values });
            }
            _ => {}
        }
    }
}

/// The ensemble's symbol table.
pub fn zookeeper_symbols() -> SymbolTable {
    SymbolTable::new()
        .function(
            "calculateSnapshotSize",
            "snapshot.java",
            vec![
                site::sys(0, SyscallId::Openat),
                site::sys(1, SyscallId::Read),
            ],
        )
        .function(
            "electionRound",
            "election.java",
            vec![site::sys(0, SyscallId::Accept)],
        )
        .function("becomeLeader", "election.java", vec![site::other(0)])
        .function(
            "appendTxnLog",
            "txnlog.java",
            vec![
                site::sys(0, SyscallId::Openat),
                site::sys(1, SyscallId::Write),
            ],
        )
        .function(
            "syncWithLeader",
            "sync.java",
            vec![site::sys(0, SyscallId::Read)],
        )
}

/// The developer-provided key files.
pub fn zookeeper_key_files() -> Vec<String> {
    vec![
        "snapshot.java".into(),
        "election.java".into(),
        "txnlog.java".into(),
        "sync.java".into(),
    ]
}

/// One ZooKeeper bug case.
#[derive(Debug, Clone)]
pub struct ZkCase {
    /// Which seeded defect is active.
    pub bug: ZkBug,
}

impl rose_core::TargetSystem for ZkCase {
    type App = ZooKeeper;

    fn name(&self) -> &str {
        match self.bug {
            ZkBug::Zk2247 => "Zookeeper-2247",
            ZkBug::Zk3006 => "Zookeeper-3006",
            ZkBug::Zk3157 => "Zookeeper-3157",
            ZkBug::Zk4203 => "Zookeeper-4203",
        }
    }

    fn cluster_size(&self) -> u32 {
        3
    }

    fn build_node(&self, _node: NodeId) -> ZooKeeper {
        ZooKeeper::new(Some(self.bug))
    }

    fn install(&self, sim: &mut rose_sim::Sim<ZooKeeper>) {
        for n in 0..3 {
            sim.install_file(NodeId(n), SNAPSHOT, b"zkss-0001 snapshot-payload".to_vec());
            sim.install_file(NodeId(n), PEER_SOCK, b"sync".to_vec());
        }
    }

    fn attach_workload(&self, sim: &mut rose_sim::Sim<ZooKeeper>) {
        sim.add_client(Box::new(ZkClient::new()));
        sim.add_client(Box::new(ZkClient::new()));
    }

    fn oracle(&self, sim: &rose_sim::Sim<ZooKeeper>) -> bool {
        match self.bug {
            ZkBug::Zk2247 => {
                rose_jepsen::unavailable_tail(&sim.core().history, 20_000_000)
                    && sim.core().logs.grep("ERROR txn log write failed")
            }
            ZkBug::Zk3006 => sim.core().logs.grep("NullPointerException: snapshot size"),
            ZkBug::Zk3157 => sim.core().logs.grep("FATAL connection loss"),
            ZkBug::Zk4203 => {
                sim.core().logs.grep("election thread died")
                    && rose_jepsen::unavailable_tail(&sim.core().history, 20_000_000)
            }
        }
    }

    fn symbols(&self) -> SymbolTable {
        zookeeper_symbols()
    }

    fn key_files(&self) -> Vec<String> {
        zookeeper_key_files()
    }

    fn run_duration(&self) -> SimDuration {
        SimDuration::from_secs(60)
    }
}

/// Scripted capture triggers (the Anduril test cases, run under the tracer).
pub fn zookeeper_capture(bug: ZkBug) -> CaptureSpec {
    use rose_inject::{FaultAction, FaultSchedule, ScheduledFault};
    let mut s = FaultSchedule::new();
    match bug {
        ZkBug::Zk2247 => {
            // Fail a txn-log write on the boot leader.
            s.push(ScheduledFault::new(
                NodeId(0),
                FaultAction::Scf {
                    syscall: SyscallId::Write,
                    errno: Errno::Eio,
                    path: Some(TXNLOG.into()),
                    nth: 3,
                },
            ));
        }
        ZkBug::Zk3006 => {
            // Fail the first read of the snapshot file cluster-wide.
            s.push(ScheduledFault::new(
                NodeId(1),
                FaultAction::Scf {
                    syscall: SyscallId::Read,
                    errno: Errno::Eio,
                    path: Some(SNAPSHOT.into()),
                    nth: 1,
                },
            ));
        }
        ZkBug::Zk3157 => {
            s.push(ScheduledFault::new(
                NodeId(2),
                FaultAction::Scf {
                    syscall: SyscallId::Read,
                    errno: Errno::Econnreset,
                    path: Some(PEER_SOCK.into()),
                    nth: 1,
                },
            ));
        }
        ZkBug::Zk4203 => {
            // Fail the first accept after the boot candidate enters its
            // election round (the Anduril test pins the injection inside
            // the election exchange; session accepts precede it).
            s.push(
                ScheduledFault::new(
                    NodeId(0),
                    FaultAction::Scf {
                        syscall: SyscallId::Accept,
                        errno: Errno::Econnreset,
                        path: None,
                        nth: 1,
                    },
                )
                .after(rose_inject::Condition::FunctionEntered {
                    name: "electionRound".into(),
                }),
            );
        }
    }
    CaptureSpec::from(CaptureMethod::Scripted(s))
}

/// The registry ids of the ZooKeeper cases.
pub fn zookeeper_bug_of(id: BugId) -> Option<ZkBug> {
    match id {
        BugId::Zookeeper2247 => Some(ZkBug::Zk2247),
        BugId::Zookeeper3006 => Some(ZkBug::Zk3006),
        BugId::Zookeeper3157 => Some(ZkBug::Zk3157),
        BugId::Zookeeper4203 => Some(ZkBug::Zk4203),
        _ => None,
    }
}

// --- Workload ---------------------------------------------------------------

/// A znode create/read client.
pub struct ZkClient {
    counter: u64,
    leader: NodeId,
    outstanding: Option<(usize, u64, u64)>,
    /// Acked creates.
    pub acked: u64,
}

impl ZkClient {
    /// A fresh client.
    pub fn new() -> Self {
        ZkClient {
            counter: 0,
            leader: NodeId(0),
            outstanding: None,
            acked: 0,
        }
    }
}

impl Default for ZkClient {
    fn default() -> Self {
        ZkClient::new()
    }
}

impl ClientDriver<Zmsg> for ZkClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, Zmsg>) {
        ctx.set_timer(SimDuration::from_millis(60), tags::CLIENT_OP);
        ctx.set_timer(SimDuration::from_millis(800), tags::CLIENT_READ);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_, Zmsg>, tag: u64) {
        match tag {
            tags::CLIENT_OP => {
                let now = ctx.now().as_micros();
                if let Some((hidx, _, deadline)) = self.outstanding {
                    if now > deadline {
                        ctx.complete(hidx, OpOutcome::Timeout);
                        self.outstanding = None;
                        let n = ctx.cluster_size();
                        self.leader = NodeId((self.leader.0 + 1) % n);
                    }
                }
                if self.outstanding.is_none() {
                    self.counter += 1;
                    let key = format!("z{}", self.counter % 3);
                    let val = format!("c{}n{}", ctx.id().0, self.counter);
                    let id = (u64::from(ctx.id().0) << 32) | self.counter;
                    let hidx = ctx.invoke(format!("append k={key} v={val}"));
                    ctx.send(self.leader, Zmsg::Create { key, val, id });
                    self.outstanding = Some((hidx, id, now + 1_200_000));
                }
                ctx.set_timer(SimDuration::from_millis(60), tags::CLIENT_OP);
            }
            tags::CLIENT_READ => {
                let key = format!("z{}", ctx.rng().gen_range(0..3u32));
                ctx.send(self.leader, Zmsg::Read { key });
                ctx.set_timer(SimDuration::from_millis(800), tags::CLIENT_READ);
            }
            _ => {}
        }
    }

    fn on_reply(&mut self, ctx: &mut ClientCtx<'_, Zmsg>, from: NodeId, msg: Zmsg) {
        match msg {
            Zmsg::CreateOk { id } => {
                if let Some((hidx, want, _)) = self.outstanding {
                    if id == want {
                        ctx.complete(hidx, OpOutcome::Ok(None));
                        self.outstanding = None;
                        self.acked += 1;
                        self.leader = from;
                    }
                }
            }
            Zmsg::ReadOk { key, values } => {
                let hidx = ctx.invoke(format!("read k={key}"));
                ctx.complete(hidx, OpOutcome::Ok(Some(join_values(&values))));
            }
            Zmsg::Redirect { leader } => {
                if let Some(l) = leader {
                    self.leader = l;
                } else {
                    let n = ctx.cluster_size();
                    self.leader = NodeId((from.0 + 1) % n);
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
    fn a_read_reply_is_the_trees_own_list() {
        crate::common::sharing::replies_share_the_stores_list_and_keep_what_they_were_sent(
            ZkCase { bug: ZkBug::Zk2247 },
            NodeId(0),
            || Zmsg::Read { key: "z0".into() },
            |msg| match msg {
                Zmsg::ReadOk { values, .. } => Some(values),
                _ => None,
            },
            |zk| zk.tree.get("z0"),
        );
    }
}
