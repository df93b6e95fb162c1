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

use rand::Rng;
use rose_events::{Errno, NodeId, SimDuration, SyscallId};
use rose_profile::SymbolTable;
use rose_sim::{Application, ClientCtx, ClientId, ListView, NodeCtx, OpenFlags};

use crate::common::{
    append_op, background_tick, client_op_id, client_value, election_timeout, numbered,
    push_record, push_value, read_key, read_op, read_values, scf, tags, ClosedLoop, ProbeStyle,
    Reply, Route, Workload, TICK_PERIOD,
};
use crate::driver::CaptureSpec;
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
        values: ListView,
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
    tree: BTreeMap<String, ListView>,
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
        let ctx = &mut ctx.function("calculateSnapshotSize");
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
            ctx.panic("NullPointerException: snapshot size is null");
        }
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
        let ctx = &mut ctx.function("electionRound");
        self.epoch += 1;
        self.role = Role::Looking;
        self.ballots = 1;
        self.leader = None;
        ctx.broadcast(Zmsg::Ballot { epoch: self.epoch });
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
        let ctx = &mut ctx.function("appendTxnLog");
        self.line.clear();
        push_record(&mut self.line, zxid, key, val);
        let ok = (|| {
            let fd = ctx.open(TXNLOG, OpenFlags::Append).ok()?;
            let r = ctx.write(fd, self.line.as_bytes());
            let _ = ctx.close(fd);
            r.ok()
        })()
        .is_some();
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
        let ctx = &mut ctx.function("syncWithLeader");
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
        ctx.set_timer(TICK_PERIOD, tags::TICK);
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
                background_tick(ctx, &mut self.tick, ProbeStyle::Jvm, 2, Zmsg::Gossip);
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
                        let _ = ctx.function("becomeLeader");
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
                    push_value(&mut self.tree, &key, &val);
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
                    push_value(&mut self.tree, &key, &val);
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

    /// The ensemble's symbol table.
    fn symbols(&self) -> SymbolTable {
        SymbolTable::new()
            .function("calculateSnapshotSize", "snapshot.java", vec![])
            .function("electionRound", "election.java", vec![])
            .function("becomeLeader", "election.java", vec![])
            .function("appendTxnLog", "txnlog.java", vec![])
            .function("syncWithLeader", "sync.java", vec![])
    }
}

/// Scripted capture triggers (the Anduril test cases, run under the tracer).
pub fn zookeeper_capture(bug: ZkBug) -> CaptureSpec {
    CaptureSpec::scripted([match bug {
        // Fail a txn-log write on the boot leader.
        ZkBug::Zk2247 => scf(NodeId(0), SyscallId::Write, Errno::Eio, Some(TXNLOG), 3),
        // Fail the first read of the snapshot file cluster-wide.
        ZkBug::Zk3006 => scf(NodeId(1), SyscallId::Read, Errno::Eio, Some(SNAPSHOT), 1),
        ZkBug::Zk3157 => scf(
            NodeId(2),
            SyscallId::Read,
            Errno::Econnreset,
            Some(PEER_SOCK),
            1,
        ),
        // Fail the first accept after the boot candidate enters its
        // election round (the Anduril test pins the injection inside the
        // election exchange; session accepts precede it).
        ZkBug::Zk4203 => scf(NodeId(0), SyscallId::Accept, Errno::Econnreset, None, 1).after(
            rose_inject::Condition::FunctionEntered {
                name: "electionRound".into(),
            },
        ),
    }])
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

/// A znode create/read workload. A redirect moves the client to the leader
/// but does not resend: the create times out there.
#[derive(Default)]
pub struct ZkWorkload;

/// The ZooKeeper client.
pub type ZkClient = ClosedLoop<ZkWorkload>;

impl Workload for ZkWorkload {
    type Msg = Zmsg;
    const WRITE_PERIOD: SimDuration = SimDuration::from_millis(60);
    const READ_PERIOD: Option<SimDuration> = Some(SimDuration::from_millis(800));
    const TIMEOUT_US: u64 = 1_200_000;
    const SENDS: u32 = 1;
    const ROUTE: Route = Route::LeaderNextOnGiveUp;

    fn write(&mut self, client: ClientId, n: u64) -> (String, u64, Zmsg) {
        let key = numbered("z", n % 3);
        let val = client_value("c", client.0, "n", n);
        let (op, id) = (append_op(&key, &val), client_op_id(client, n));
        (op, id, Zmsg::Create { key, val, id })
    }

    fn read(&mut self, ctx: &mut ClientCtx<'_, Zmsg>, node: NodeId) {
        let key = read_key(ctx, "z");
        ctx.send(node, Zmsg::Read { key });
    }

    fn classify(&mut self, _ctx: &mut ClientCtx<'_, Zmsg>, msg: Zmsg) -> Reply {
        match msg {
            Zmsg::CreateOk { id } => Reply::Ack(id),
            Zmsg::ReadOk { key, values } => Reply::Read(read_op(&key), Some(values)),
            Zmsg::Redirect { leader } => Reply::Redirect(leader),
            _ => Reply::Other,
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
