//! The Raft consensus node: elections, replication, compaction, snapshot
//! transfer, and joint-consensus membership changes.
//!
//! Unlike the scripted systems in this crate, nothing here greps for a
//! symptom or gates a defect behind a bug id. The implementation is a
//! genuine (small) Raft; its observable contract is the checkpoint journal
//! (`raft: BECAME_LEADER/LEADER_APPEND/APPLY/SNAP_NOTE/SNAP_RESTORE` lines)
//! that [`rose_jepsen::check_raft`] audits against the Raft safety
//! invariants. Whether the code upholds those invariants under external
//! faults is exactly what a Rose campaign against this target finds out.
//!
//! Durability follows crash-safe conventions everywhere — tmp-file +
//! rename for rewrites, append + fsync for the log, persist-before-ack for
//! votes and terms — with two deliberate shortcuts in the cold paths
//! (staged compaction and chunked snapshot install) and one in membership
//! handling, none of which are reachable without external faults.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rose_events::{Errno, NodeId, SimDuration, SimTime};
use rose_sim::{Application, ClientId, NodeCtx, OpenFlags};

use super::kv::{digest_of, KvState, SnapImage};
use super::log::{Cmd, Entry, RaftLog};
use crate::common::{
    background_tick, election_timeout, tags, write_hex, write_u64, ProbeStyle, TICK_PERIOD,
};

/// Durable metadata (current term, vote).
pub const META_PATH: &str = "/raft/meta";
/// The replicated log file.
pub const LOG_PATH: &str = "/raft/log";
/// The snapshot file.
pub const SNAP_PATH: &str = "/raft/snapshot";

/// Entries applied between snapshots.
pub const SNAPSHOT_EVERY: u64 = 400;
/// Checkpoint journaling stride (every Nth applied index).
pub const STRIDE: u64 = 16;
/// Max entries per AppendEntries message.
const REPL_BATCH: usize = 60;
/// Target number of chunks per snapshot transfer.
const XFER_CHUNKS: usize = 6;
/// Gap between snapshot transfer chunks.
const XFER_GAP: SimDuration = SimDuration::from_millis(300);
/// Delay between compaction stage A (log rewrite) and stage B (snapshot
/// write).
const STAGE_GAP: SimDuration = SimDuration::from_millis(350);
/// Delay from committing a joint entry to appending the final entry.
const FINAL_DELAY: SimDuration = SimDuration::from_secs(2);
/// Heartbeat cadence.
const HEARTBEAT_EVERY: SimDuration = SimDuration::from_millis(150);

/// Timer tag for the deferred final membership entry.
const FINAL_DUE: u64 = 30;
/// Timer tag base for per-peer snapshot transfer pacing (`+ peer`).
const XFER_BASE: u64 = 100;

/// Node role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

/// Wire messages.
#[derive(Debug, Clone)]
pub enum RaftMsg {
    /// RequestVote.
    Vote {
        /// Candidate term.
        term: u64,
        /// Candidate's last log index.
        last_idx: u64,
        /// Candidate's last log term.
        last_term: u64,
    },
    /// RequestVote reply.
    VoteReply {
        /// Term the vote applies to.
        term: u64,
        /// Granted?
        granted: bool,
    },
    /// AppendEntries (empty = heartbeat).
    App {
        /// Leader term.
        term: u64,
        /// Index preceding `entries`.
        prev_idx: u64,
        /// Term of the entry at `prev_idx`.
        prev_term: u64,
        /// Suffix to append: the leader's own log entries, shared.
        entries: Vec<Arc<Entry>>,
        /// Leader commit index.
        commit: u64,
    },
    /// Append acknowledged up to `matched`.
    AppOk {
        /// Follower term.
        term: u64,
        /// Highest replicated index.
        matched: u64,
    },
    /// Append rejected; leader should retry from `needed`.
    AppRej {
        /// Follower term.
        term: u64,
        /// First index the follower needs.
        needed: u64,
    },
    /// InstallSnapshot: transfer starts.
    SnapBegin {
        /// Leader term.
        term: u64,
        /// Snapshot index.
        idx: u64,
        /// Snapshot term.
        snap_term: u64,
        /// Chain hash at `idx`.
        chain: u64,
        /// Creator's content digest.
        digest: u64,
        /// Voter set at `idx`.
        voters: Vec<u32>,
    },
    /// InstallSnapshot: one chunk of pairs.
    SnapChunk {
        /// Leader term.
        term: u64,
        /// Snapshot index (must match the active transfer).
        idx: u64,
        /// Chunk sequence number.
        seq: u64,
        /// Is this the final chunk?
        last: bool,
        /// The pairs.
        items: Vec<(String, u64)>,
    },
    /// Periodic peer liveness traffic (keeps every pair of nodes
    /// exchanging packets, so partitions are observable as network-delay
    /// silences on all cross links).
    Gossip {
        /// Sender term.
        term: u64,
    },
    /// Client write.
    Put {
        /// Key.
        key: String,
        /// Value.
        val: u64,
        /// Client operation id.
        id: u64,
    },
    /// Client write acknowledged (committed and applied).
    PutOk {
        /// Operation id.
        id: u64,
    },
    /// Client read.
    Get {
        /// Key.
        key: String,
    },
    /// Client read reply.
    GetOk {
        /// Key.
        key: String,
        /// Value, if present.
        val: Option<u64>,
    },
    /// Not the leader; try there.
    Redirect {
        /// Believed leader, if known.
        leader: Option<NodeId>,
    },
    /// Admin request: change the voter set to `voters`.
    Reconfig {
        /// Target membership.
        voters: Vec<u32>,
    },
    /// Admin reply.
    ReconfigOk {
        /// Whether the joint entry was appended.
        accepted: bool,
    },
}

/// An outbound snapshot transfer in progress.
#[derive(Debug, Clone)]
struct Xfer {
    idx: u64,
    chunks: Vec<Vec<(String, u64)>>,
    next: usize,
}

/// An inbound snapshot install in progress.
#[derive(Debug, Clone)]
struct Install {
    idx: u64,
    snap_term: u64,
    seq: u64,
}

/// The Raft node.
pub struct RoseRaft {
    role: Role,
    term: u64,
    voted_for: Option<u32>,
    leader: Option<NodeId>,
    /// Active voting membership.
    voters: Vec<u32>,
    log: RaftLog,
    kv: KvState,
    commit: u64,
    /// Most recent complete snapshot image (created, restored, or
    /// recovered), used as the transfer source.
    last_snap: Option<SnapImage>,
    votes: BTreeSet<u32>,
    next_idx: BTreeMap<u32, u64>,
    match_idx: BTreeMap<u32, u64>,
    /// idx -> (client, op id) awaiting commit acks.
    pending_clients: BTreeMap<u64, (ClientId, u64)>,
    applied_ids: BTreeSet<u64>,
    /// Stage-B payload: the snapshot image captured by stage A.
    snap_pending: Option<SnapImage>,
    xfers: BTreeMap<u32, Xfer>,
    incoming: Option<Install>,
    /// Committed joint target awaiting its final entry.
    reconfig_final: Option<Vec<u32>>,
    election_deadline: SimTime,
    tick: u64,
    /// Recent stride checkpoints (idx -> (term, chain)) kept in memory for
    /// harness cross-validation against the journal-based checker.
    checkpoints: BTreeMap<u64, (u64, u64)>,
    /// The log line `persist_append` is writing; kept for its capacity.
    line: String,
}

impl Default for RoseRaft {
    fn default() -> Self {
        RoseRaft {
            role: Role::Follower,
            term: 0,
            voted_for: None,
            leader: None,
            voters: Vec::new(),
            log: RaftLog::default(),
            kv: KvState::default(),
            commit: 0,
            last_snap: None,
            votes: BTreeSet::new(),
            next_idx: BTreeMap::new(),
            match_idx: BTreeMap::new(),
            pending_clients: BTreeMap::new(),
            applied_ids: BTreeSet::new(),
            snap_pending: None,
            xfers: BTreeMap::new(),
            incoming: None,
            reconfig_final: None,
            election_deadline: SimTime::ZERO,
            tick: 0,
            checkpoints: BTreeMap::new(),
            line: String::new(),
        }
    }
}

/// The meta file: `m <term> <voted-for, or x>`.
fn meta_text(term: u64, voted_for: Option<u32>) -> String {
    let mut out = String::from("m ");
    let _ = write_u64(&mut out, term);
    out.push(' ');
    match voted_for {
        Some(v) => {
            let _ = write_u64(&mut out, u64::from(v));
        }
        None => out.push('x'),
    }
    out.push('\n');
    out
}

/// A journal line the checker reads: `{head} {name}{n} …`, then
/// ` chain={chain:x}` when given.
fn journal_line<const N: usize>(
    head: &str,
    fields: [(&str, u64); N],
    chain: Option<u64>,
) -> String {
    let mut line = String::with_capacity(96);
    line.push_str(head);
    for (name, n) in fields {
        line.push(' ');
        line.push_str(name);
        let _ = write_u64(&mut line, n);
    }
    if let Some(chain) = chain {
        line.push_str(" chain=");
        let _ = write_hex(&mut line, chain);
    }
    line
}

fn majority(n: usize) -> usize {
    n / 2 + 1
}

impl RoseRaft {
    /// Harness accessor: recent in-memory stride checkpoints.
    pub fn checkpoints(&self) -> &BTreeMap<u64, (u64, u64)> {
        &self.checkpoints
    }

    /// Harness accessor: (applied index, chain, content digest). Driven by
    /// `tests/raft_proptests.rs`, which compares replicas by it.
    pub fn state_summary(&self) -> (u64, u64, u64) {
        (self.kv.applied, self.kv.chain, self.kv.digest())
    }

    fn me(ctx: &NodeCtx<'_, RaftMsg>) -> u32 {
        ctx.node().0
    }

    // ---- durability helpers -------------------------------------------

    /// Writes `data` to `path` via tmp-file + rename. With `probed`, marks
    /// the instrumentable offsets 0..=4 around the syscalls (the caller
    /// must be inside an entered function).
    fn write_atomic(
        ctx: &mut NodeCtx<'_, RaftMsg>,
        path: &str,
        data: &str,
        probed: bool,
    ) -> Result<(), Errno> {
        let tmp = [path, ".tmp"].concat();
        if probed {
            ctx.at_offset(0);
        }
        let fd = ctx.open(&tmp, OpenFlags::Write)?;
        if probed {
            ctx.at_offset(1);
        }
        ctx.write(fd, data.as_bytes())?;
        if probed {
            ctx.at_offset(2);
        }
        ctx.fsync(fd)?;
        ctx.close(fd)?;
        if probed {
            ctx.at_offset(3);
        }
        ctx.rename(&tmp, path)?;
        if probed {
            ctx.at_offset(4);
        }
        Ok(())
    }

    fn persist_meta(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        let data = meta_text(self.term, self.voted_for);
        if let Err(e) = Self::write_atomic(ctx, META_PATH, &data, false) {
            ctx.panic(format!("io error persisting meta: {e:?}"));
        }
    }

    fn persist_append(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>, e: &Entry) {
        self.line.clear();
        RaftLog::encode_entry(e, &mut self.line);
        let res = (|| {
            let fd = ctx.open(LOG_PATH, OpenFlags::Append)?;
            ctx.write(fd, self.line.as_bytes())?;
            ctx.fsync(fd)?;
            ctx.close(fd)
        })();
        if let Err(e) = res {
            ctx.panic(format!("io error appending log: {e:?}"));
        }
    }

    fn persist_log_rewrite(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>, probed: bool) {
        let data = self.log.encode();
        if let Err(e) = Self::write_atomic(ctx, LOG_PATH, &data, probed) {
            ctx.panic(format!("io error rewriting log: {e:?}"));
        }
    }

    // ---- recovery -----------------------------------------------------

    fn recover(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        let ctx = &mut ctx.function("recoverState");
        match ctx.read_file(META_PATH) {
            Ok(data) => {
                let text = String::from_utf8_lossy(&data);
                let mut it = text.split_whitespace().skip(1);
                self.term = it.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                self.voted_for = it.next().and_then(|v| v.parse().ok());
            }
            Err(Errno::Enoent) => {}
            Err(e) => ctx.panic(format!("io error reading meta: {e:?}")),
        }

        let snap = self.load_snapshot_file(ctx);
        let (snap_idx, snap_term) = snap.as_ref().map_or((0, 0), |img| (img.idx, img.term));

        let mut fresh_log = false;
        match ctx.read_file(LOG_PATH) {
            Ok(data) => self.log = RaftLog::parse(&data),
            Err(Errno::Enoent) => fresh_log = true,
            Err(e) => ctx.panic(format!("io error reading log: {e:?}")),
        }
        if fresh_log {
            if let Err(e) = ctx.write_file(LOG_PATH, self.log.encode().as_bytes()) {
                ctx.panic(format!("io error creating log: {e:?}"));
            }
        }

        // The snapshot covers everything up to its index and the log covers
        // everything past its base, so the machine resumes from whichever
        // file reaches further.
        self.kv.applied = self.log.base_idx.max(snap_idx);
        self.kv.applied_term = if self.log.base_idx > snap_idx {
            self.log.base_term
        } else {
            snap_term
        };
        self.commit = self.kv.applied;

        // Active membership: the newest config entry still in the log wins,
        // else the snapshot's, else every node.
        self.voters = match self.log.latest_config() {
            Some(Cmd::Joint { new, .. }) | Some(Cmd::Final { new }) => new.clone(),
            _ => snap
                .as_ref()
                .filter(|img| !img.voters.is_empty())
                .map(|img| img.voters.clone())
                .unwrap_or_else(|| (0..ctx.cluster_size()).collect()),
        };
        self.last_snap = snap;
    }

    /// Reads and adopts the on-disk snapshot, journaling what was actually
    /// reconstructed.
    fn load_snapshot_file(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) -> Option<SnapImage> {
        let ctx = &mut ctx.function("loadSnapshotFile");
        ctx.at_offset(0);
        let data = match ctx.read_file(SNAP_PATH) {
            Ok(data) => data,
            Err(Errno::Enoent) => return None,
            Err(e) => ctx.panic(format!("io error reading snapshot: {e:?}")),
        };
        let img = SnapImage::parse(&data)?;
        self.kv.map = img.map.clone();
        self.kv.chain = img.chain;
        self.kv.applied = img.idx;
        self.kv.applied_term = img.term;
        let digest = digest_of(&self.kv.map);
        ctx.log(format!(
            "raft: SNAP_RESTORE idx={} chain={:x} digest={:x}",
            img.idx, img.chain, digest
        ));
        Some(img)
    }

    // ---- elections ----------------------------------------------------

    fn reset_election_deadline(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        self.election_deadline = ctx.now() + election_timeout(ctx.rng());
    }

    fn start_election(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        {
            let ctx = &mut ctx.function("startElection");
            ctx.at_offset(0);
            self.term += 1;
            self.voted_for = Some(Self::me(ctx));
            self.persist_meta(ctx);
            self.role = Role::Candidate;
            self.leader = None;
            self.votes = BTreeSet::from([Self::me(ctx)]);
            ctx.broadcast(RaftMsg::Vote {
                term: self.term,
                last_idx: self.log.last_idx(),
                last_term: self.log.last_term(),
            });
        }
        self.maybe_win(ctx);
    }

    fn maybe_win(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        if self.role != Role::Candidate {
            return;
        }
        let granted = self
            .votes
            .iter()
            .filter(|v| self.voters.contains(v))
            .count();
        if granted >= majority(self.voters.len()) {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        {
            let ctx = &mut ctx.function("becomeLeader");
            ctx.at_offset(0);
            self.role = Role::Leader;
            self.leader = Some(ctx.node());
            ctx.log(format!(
                "raft: BECAME_LEADER term={} idx={}",
                self.term,
                self.log.last_idx()
            ));
            let last = self.log.last_idx();
            self.next_idx = ctx.peers().iter().map(|p| (p.0, last + 1)).collect();
            self.match_idx = ctx.peers().iter().map(|p| (p.0, 0)).collect();
            self.xfers.clear();
            ctx.set_timer(HEARTBEAT_EVERY, tags::HEARTBEAT);
        }
        // A no-op entry commits everything from earlier terms (§5.4.2: a
        // leader only counts replicas for entries of its own term).
        self.leader_append(ctx, Cmd::Noop);
    }

    fn step_down(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>, term: u64, leader: Option<NodeId>) {
        if term > self.term {
            self.term = term;
            self.voted_for = None;
            self.persist_meta(ctx);
        }
        self.role = Role::Follower;
        self.leader = leader;
        self.votes.clear();
        self.xfers.clear();
        self.reconfig_final = None;
        self.reset_election_deadline(ctx);
    }

    // ---- log replication ----------------------------------------------

    fn leader_append(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>, cmd: Cmd) -> u64 {
        let idx = self.log.last_idx() + 1;
        if cmd.is_config() {
            self.apply_config_change(ctx, &cmd);
        }
        let e = Arc::new(Entry {
            idx,
            term: self.term,
            cmd,
        });
        self.log.append(Arc::clone(&e));
        self.persist_append(ctx, &e);
        if idx.is_multiple_of(STRIDE) {
            ctx.log(journal_line(
                "raft: LEADER_APPEND",
                [("term=", self.term), ("idx=", idx)],
                None,
            ));
        }
        self.replicate(ctx);
        self.advance_commit(ctx);
        idx
    }

    fn replicate(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        let mut scope = ctx.function("raftTickReplicate");
        for p in scope.peers() {
            if self.xfers.contains_key(&p.0) {
                continue;
            }
            let ni = self
                .next_idx
                .get(&p.0)
                .copied()
                .unwrap_or(self.log.last_idx() + 1);
            if ni <= self.log.base_idx {
                // The transfer starts outside this function, which then
                // enters anew.
                drop(scope);
                self.begin_snapshot_transfer(ctx, p);
                scope = ctx.function("raftTickReplicate");
                continue;
            }
            let prev_idx = ni - 1;
            let Some(prev_term) = self.log.term_at(prev_idx) else {
                continue;
            };
            let entries = self.log.batch_from(ni, REPL_BATCH).to_vec();
            let _ = scope.send(
                p,
                RaftMsg::App {
                    term: self.term,
                    prev_idx,
                    prev_term,
                    entries,
                    commit: self.commit,
                },
            );
        }
    }

    fn advance_commit(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        if self.role != Role::Leader {
            return;
        }
        let me = Self::me(ctx);
        let mut reached: Vec<u64> = self
            .voters
            .iter()
            .map(|v| {
                if *v == me {
                    self.log.last_idx()
                } else {
                    self.match_idx.get(v).copied().unwrap_or(0)
                }
            })
            .collect();
        if reached.is_empty() {
            return;
        }
        reached.sort_unstable_by(|a, b| b.cmp(a));
        let m = reached[majority(reached.len()) - 1];
        if m > self.commit && self.log.term_at(m) == Some(self.term) {
            self.commit = m;
            self.apply_committed(ctx);
        }
    }

    fn apply_committed(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        while self.kv.applied < self.commit {
            let idx = self.kv.applied + 1;
            let Some(e) = self.log.get(idx) else {
                break;
            };
            self.kv.apply(e);
            if idx.is_multiple_of(STRIDE) {
                ctx.log(journal_line(
                    "raft: APPLY",
                    [("idx=", idx), ("term=", e.term)],
                    Some(self.kv.chain),
                ));
                self.checkpoints.insert(idx, (e.term, self.kv.chain));
                while self.checkpoints.len() > 64 {
                    self.checkpoints.pop_first();
                }
            }
            if let Cmd::Put { id, .. } = &e.cmd {
                self.applied_ids.insert(*id);
            }
            if let Some((client, id)) = self.pending_clients.remove(&idx) {
                let _ = ctx.reply(client, RaftMsg::PutOk { id });
            }
            if self.role == Role::Leader {
                if let Cmd::Joint { new, .. } = &e.cmd {
                    self.reconfig_final = Some(new.clone());
                    ctx.set_timer(FINAL_DELAY, FINAL_DUE);
                }
            }
        }
        self.maybe_compact(ctx);
    }

    // ---- membership ---------------------------------------------------

    /// Adopts the membership named by a config entry the moment the entry
    /// is appended. The joint entry already carries the membership both
    /// sides agreed to move to, so taking it as the active voting set
    /// immediately spares a second round of quorum tracking during the
    /// transition; the final entry then merely confirms it.
    fn apply_config_change(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>, cmd: &Cmd) {
        let ctx = &mut ctx.function("applyConfigChange");
        ctx.at_offset(0);
        match cmd {
            Cmd::Joint { new, .. } | Cmd::Final { new } => {
                self.voters = new.clone();
            }
            _ => {}
        }
    }

    /// Recomputes the active membership after a truncation removed log
    /// entries (a dropped config entry must not linger).
    fn reload_config(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        self.voters = match self.log.latest_config() {
            Some(Cmd::Joint { new, .. }) | Some(Cmd::Final { new }) => new.clone(),
            _ => self
                .last_snap
                .as_ref()
                .filter(|img| !img.voters.is_empty())
                .map(|img| img.voters.clone())
                .unwrap_or_else(|| (0..ctx.cluster_size()).collect()),
        };
    }

    // ---- compaction (stage A) and snapshot write (stage B) ------------

    fn maybe_compact(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        if self.kv.applied.saturating_sub(self.log.base_idx) < SNAPSHOT_EVERY
            || self.snap_pending.is_some()
        {
            return;
        }
        self.compact_log(ctx);
    }

    /// Stage A: truncate the log at the applied index and rewrite it.
    /// The snapshot image is captured now but written by a deferred timer
    /// (stage B), keeping the large snapshot fsync off the apply path.
    fn compact_log(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        let ctx = &mut ctx.function("compactLog");
        self.snap_pending = Some(SnapImage::of(&self.kv, &self.voters));
        self.log.compact_to(self.kv.applied, self.kv.applied_term);
        self.persist_log_rewrite(ctx, true);
        ctx.set_timer(STAGE_GAP, tags::STAGE_B);
    }

    /// Stage B: write the snapshot image captured by stage A.
    fn write_snapshot_file(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>, img: SnapImage) {
        let ctx = &mut ctx.function("writeSnapshotFile");
        let data = img.encode();
        if let Err(e) = Self::write_atomic(ctx, SNAP_PATH, &data, true) {
            ctx.panic(format!("io error writing snapshot: {e:?}"));
        }
        ctx.log(format!(
            "raft: SNAP_NOTE idx={} chain={:x} digest={:x}",
            img.idx, img.chain, img.digest
        ));
        self.last_snap = Some(img);
    }

    // ---- snapshot transfer --------------------------------------------

    fn begin_snapshot_transfer(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>, peer: NodeId) {
        let Some(img) = self.last_snap.clone() else {
            return;
        };
        let ctx = &mut ctx.function("beginSnapshotTransfer");
        ctx.at_offset(0);
        let items: Vec<(String, u64)> = img.map.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let per = items.len().div_ceil(XFER_CHUNKS).max(1);
        let mut chunks: Vec<Vec<(String, u64)>> = items.chunks(per).map(|c| c.to_vec()).collect();
        if chunks.is_empty() {
            chunks.push(Vec::new());
        }
        self.xfers.insert(
            peer.0,
            Xfer {
                idx: img.idx,
                chunks,
                next: 0,
            },
        );
        let _ = ctx.send(
            peer,
            RaftMsg::SnapBegin {
                term: self.term,
                idx: img.idx,
                snap_term: img.term,
                chain: img.chain,
                digest: img.digest,
                voters: img.voters.clone(),
            },
        );
        ctx.set_timer(XFER_GAP, XFER_BASE + u64::from(peer.0));
    }

    fn pump_transfer(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>, peer: u32) {
        if self.role != Role::Leader {
            self.xfers.remove(&peer);
            return;
        }
        let Some(x) = self.xfers.get_mut(&peer) else {
            return;
        };
        let last = x.next + 1 >= x.chunks.len();
        let msg = RaftMsg::SnapChunk {
            term: self.term,
            idx: x.idx,
            seq: x.next as u64,
            last,
            items: x.chunks[x.next].clone(),
        };
        x.next += 1;
        let idx = x.idx;
        if last {
            self.xfers.remove(&peer);
            // The receiver acks with AppOk{matched: idx} once installed;
            // until then keep next_idx parked past the snapshot so the
            // regular path does not restart the transfer.
            self.next_idx.insert(peer, idx + 1);
        } else {
            ctx.set_timer(XFER_GAP, XFER_BASE + u64::from(peer));
        }
        let _ = ctx.send(NodeId(peer), msg);
    }

    /// Begins installing a snapshot: the header is written (tmp + rename,
    /// replacing any previous snapshot file) and chunk payloads are then
    /// appended to the live file as they arrive — the install is streamed
    /// to disk instead of buffered, so a multi-hundred-megabyte image
    /// never sits in memory twice.
    fn install_begin(
        &mut self,
        ctx: &mut NodeCtx<'_, RaftMsg>,
        idx: u64,
        snap_term: u64,
        chain: u64,
        digest: u64,
        voters: Vec<u32>,
    ) {
        let ctx = &mut ctx.function("installSnapshotBegin");
        let header = SnapImage {
            idx,
            term: snap_term,
            chain,
            digest,
            voters,
            map: BTreeMap::new(),
            complete: false,
        }
        .encode_header();
        let res = (|| {
            let tmp = [SNAP_PATH, ".tmp"].concat();
            ctx.at_offset(0);
            let fd = ctx.open(&tmp, OpenFlags::Write)?;
            ctx.at_offset(1);
            ctx.write(fd, header.as_bytes())?;
            ctx.fsync(fd)?;
            ctx.close(fd)?;
            ctx.at_offset(2);
            ctx.rename(&tmp, SNAP_PATH)
        })();
        if let Err(e) = res {
            ctx.panic(format!("io error starting snapshot install: {e:?}"));
        }
        self.incoming = Some(Install {
            idx,
            snap_term,
            seq: 0,
        });
    }

    fn install_chunk(
        &mut self,
        ctx: &mut NodeCtx<'_, RaftMsg>,
        idx: u64,
        seq: u64,
        last: bool,
        items: Vec<(String, u64)>,
    ) {
        let Some(inst) = &self.incoming else {
            return;
        };
        if inst.idx != idx || inst.seq != seq {
            self.incoming = None;
            return;
        }
        // The ack goes out once the function has returned.
        let ack = {
            let ctx = &mut ctx.function("installSnapshotChunk");
            let mut body = SnapImage::encode_items(items.iter().map(|(k, v)| (k.as_str(), *v)));
            if last {
                body.push_str("end\n");
            }
            let res = (|| {
                ctx.at_offset(0);
                let fd = ctx.open(SNAP_PATH, OpenFlags::Append)?;
                ctx.at_offset(1);
                ctx.write(fd, body.as_bytes())?;
                ctx.fsync(fd)?;
                ctx.at_offset(2);
                ctx.close(fd)
            })();
            if let Err(e) = res {
                ctx.panic(format!("io error installing snapshot chunk: {e:?}"));
            }
            if !last {
                if let Some(inst) = &mut self.incoming {
                    inst.seq += 1;
                }
                return;
            }
            ctx.at_offset(3);
            let snap_term = inst.snap_term;
            self.incoming = None;
            // Adopt the streamed image.
            let data = match ctx.read_file(SNAP_PATH) {
                Ok(data) => data,
                Err(e) => ctx.panic(format!("io error reading installed snapshot: {e:?}")),
            };
            let Some(img) = SnapImage::parse(&data) else {
                return;
            };
            // Unless the log outran the snapshot while it streamed in
            // (regular replication resumed concurrently): adopting it then
            // would move the machine backwards.
            if img.idx > self.kv.applied {
                self.kv.map = img.map.clone();
                self.kv.chain = img.chain;
                self.kv.applied = img.idx;
                self.kv.applied_term = img.term;
                let digest = digest_of(&self.kv.map);
                ctx.log(format!(
                    "raft: SNAP_RESTORE idx={} chain={:x} digest={:x}",
                    img.idx, img.chain, digest
                ));
                if self.log.last_idx() < img.idx {
                    self.log = RaftLog {
                        base_idx: img.idx,
                        base_term: snap_term,
                        entries: Vec::new(),
                    };
                } else {
                    self.log.compact_to(img.idx, snap_term);
                }
                self.persist_log_rewrite(ctx, false);
                self.commit = self.commit.max(img.idx);
                if !img.voters.is_empty() {
                    self.voters = img.voters.clone();
                }
                self.last_snap = Some(img);
            }
            RaftMsg::AppOk {
                term: self.term,
                matched: self.log.last_idx(),
            }
        };
        if let Some(leader) = self.leader {
            let _ = ctx.send(leader, ack);
        }
    }

    // ---- AppendEntries ------------------------------------------------

    fn handle_app(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>, from: NodeId, app: Append) {
        let Append {
            term,
            prev_idx,
            prev_term,
            entries,
            commit,
        } = app;
        if term < self.term {
            let _ = ctx.send(
                from,
                RaftMsg::AppRej {
                    term: self.term,
                    needed: 0,
                },
            );
            return;
        }
        if term > self.term || self.role != Role::Follower {
            self.step_down(ctx, term, Some(from));
        }
        self.leader = Some(from);
        self.reset_election_deadline(ctx);

        if prev_idx > self.log.last_idx() {
            let _ = ctx.send(
                from,
                RaftMsg::AppRej {
                    term: self.term,
                    needed: self.log.last_idx() + 1,
                },
            );
            return;
        }
        if prev_idx >= self.log.base_idx && self.log.term_at(prev_idx) != Some(prev_term) {
            let _ = ctx.send(
                from,
                RaftMsg::AppRej {
                    term: self.term,
                    needed: prev_idx,
                },
            );
            return;
        }

        let mut truncated = false;
        for e in entries {
            if e.idx <= self.log.base_idx {
                continue; // covered by our snapshot
            }
            match self.log.term_at(e.idx) {
                Some(t) if t == e.term => continue, // already have it
                Some(_) => {
                    self.log.truncate_from(e.idx);
                    truncated = true;
                    self.reload_config(ctx);
                }
                None => {}
            }
            if e.idx != self.log.last_idx() + 1 {
                break; // gap (should not happen within one message)
            }
            if truncated {
                self.persist_log_rewrite(ctx, false);
                truncated = false;
            }
            if e.cmd.is_config() {
                self.apply_config_change(ctx, &e.cmd);
            }
            self.log.append(Arc::clone(&e));
            self.persist_append(ctx, &e);
        }
        if truncated {
            self.persist_log_rewrite(ctx, false);
        }

        if commit > self.commit {
            self.commit = commit.min(self.log.last_idx());
            self.apply_committed(ctx);
        }
        let _ = ctx.send(
            from,
            RaftMsg::AppOk {
                term: self.term,
                matched: self.log.last_idx(),
            },
        );
    }
}

/// The fields of a [`RaftMsg::App`], regrouped for [`RoseRaft::handle_app`].
struct Append {
    term: u64,
    prev_idx: u64,
    prev_term: u64,
    entries: Vec<Arc<Entry>>,
    commit: u64,
}

impl Application for RoseRaft {
    type Msg = RaftMsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>) {
        *self = RoseRaft::default();
        self.recover(ctx);
        ctx.set_timer(TICK_PERIOD, tags::TICK);
        // Boot bias: the first election timeout is staggered by node id so
        // the first term resolves quickly; restarts use the random timeout.
        let first = if ctx.generation() == 0 {
            SimDuration::from_millis(700 + 400 * u64::from(ctx.node().0))
        } else {
            election_timeout(ctx.rng())
        };
        self.election_deadline = ctx.now() + first;
        ctx.set_timer(first, tags::ELECTION);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>, tag: u64) {
        match tag {
            tags::TICK => {
                let keepalive = RaftMsg::Gossip { term: self.term };
                background_tick(ctx, &mut self.tick, ProbeStyle::Native, 1, keepalive);
            }
            tags::ELECTION => {
                let now = ctx.now();
                if self.role == Role::Leader || !self.voters.contains(&Self::me(ctx)) {
                    self.reset_election_deadline(ctx);
                    ctx.set_timer(SimDuration::from_secs(1), tags::ELECTION);
                } else if now < self.election_deadline {
                    ctx.set_timer(self.election_deadline - now, tags::ELECTION);
                } else {
                    self.start_election(ctx);
                    let next = election_timeout(ctx.rng());
                    self.election_deadline = now + next;
                    ctx.set_timer(next, tags::ELECTION);
                }
            }
            tags::HEARTBEAT if self.role == Role::Leader => {
                self.replicate(ctx);
                ctx.set_timer(HEARTBEAT_EVERY, tags::HEARTBEAT);
            }
            tags::STAGE_B => {
                if let Some(img) = self.snap_pending.take() {
                    self.write_snapshot_file(ctx, img);
                }
            }
            FINAL_DUE if self.role == Role::Leader => {
                if let Some(new) = self.reconfig_final.take() {
                    self.leader_append(ctx, Cmd::Final { new });
                }
            }
            t if t >= XFER_BASE => {
                self.pump_transfer(ctx, (t - XFER_BASE) as u32);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, RaftMsg>, from: NodeId, msg: RaftMsg) {
        match msg {
            RaftMsg::Gossip { term } if term > self.term => {
                self.step_down(ctx, term, None);
            }
            RaftMsg::Vote {
                term,
                last_idx,
                last_term,
            } => {
                if term > self.term {
                    self.step_down(ctx, term, None);
                }
                let up_to_date =
                    (last_term, last_idx) >= (self.log.last_term(), self.log.last_idx());
                let granted = term == self.term
                    && up_to_date
                    && (self.voted_for.is_none() || self.voted_for == Some(from.0));
                if granted {
                    self.voted_for = Some(from.0);
                    self.persist_meta(ctx);
                    self.reset_election_deadline(ctx);
                }
                let _ = ctx.send(
                    from,
                    RaftMsg::VoteReply {
                        term: self.term,
                        granted,
                    },
                );
            }
            RaftMsg::VoteReply { term, granted } => {
                if term > self.term {
                    self.step_down(ctx, term, None);
                } else if granted && self.role == Role::Candidate && term == self.term {
                    self.votes.insert(from.0);
                    self.maybe_win(ctx);
                }
            }
            RaftMsg::App {
                term,
                prev_idx,
                prev_term,
                entries,
                commit,
            } => {
                self.handle_app(
                    ctx,
                    from,
                    Append {
                        term,
                        prev_idx,
                        prev_term,
                        entries,
                        commit,
                    },
                );
            }
            RaftMsg::AppOk { term, matched } => {
                if term > self.term {
                    self.step_down(ctx, term, None);
                } else if self.role == Role::Leader && term == self.term {
                    let m = self.match_idx.entry(from.0).or_insert(0);
                    if matched > *m {
                        *m = matched;
                    }
                    self.next_idx.insert(from.0, matched + 1);
                    self.advance_commit(ctx);
                }
            }
            RaftMsg::AppRej { term, needed } => {
                if term > self.term {
                    self.step_down(ctx, term, None);
                } else if self.role == Role::Leader && term == self.term {
                    self.next_idx.insert(from.0, needed.max(1));
                }
            }
            RaftMsg::SnapBegin {
                term,
                idx,
                snap_term,
                chain,
                digest,
                voters,
            } => {
                if term < self.term {
                    return;
                }
                if term > self.term || self.role != Role::Follower {
                    self.step_down(ctx, term, Some(from));
                }
                self.leader = Some(from);
                self.reset_election_deadline(ctx);
                if idx <= self.kv.applied {
                    let _ = ctx.send(
                        from,
                        RaftMsg::AppOk {
                            term: self.term,
                            matched: self.log.last_idx(),
                        },
                    );
                    return;
                }
                self.install_begin(ctx, idx, snap_term, chain, digest, voters);
            }
            RaftMsg::SnapChunk {
                term,
                idx,
                seq,
                last,
                items,
            } => {
                if term < self.term {
                    return;
                }
                self.reset_election_deadline(ctx);
                self.install_chunk(ctx, idx, seq, last, items);
            }
            // Client messages arriving over a node connection are ignored.
            _ => {}
        }
    }

    fn on_client_request(
        &mut self,
        ctx: &mut NodeCtx<'_, RaftMsg>,
        client: ClientId,
        req: RaftMsg,
    ) {
        match req {
            RaftMsg::Put { key, val, id } => {
                if self.role != Role::Leader {
                    let _ = ctx.reply(
                        client,
                        RaftMsg::Redirect {
                            leader: self.leader,
                        },
                    );
                    return;
                }
                if self.applied_ids.contains(&id) {
                    let _ = ctx.reply(client, RaftMsg::PutOk { id });
                    return;
                }
                if let Some((idx, _)) = self
                    .pending_clients
                    .iter()
                    .find(|(_, (_, pid))| *pid == id)
                    .map(|(i, c)| (*i, *c))
                {
                    // Retry of an in-flight op: re-register the reply path.
                    self.pending_clients.insert(idx, (client, id));
                    return;
                }
                let idx = self.leader_append(ctx, Cmd::Put { key, val, id });
                self.pending_clients.insert(idx, (client, id));
            }
            RaftMsg::Get { key } => {
                if self.role != Role::Leader {
                    let _ = ctx.reply(
                        client,
                        RaftMsg::Redirect {
                            leader: self.leader,
                        },
                    );
                    return;
                }
                let val = self.kv.map.get(&key).copied();
                let _ = ctx.reply(client, RaftMsg::GetOk { key, val });
            }
            RaftMsg::Reconfig { voters } => {
                if self.role != Role::Leader {
                    let _ = ctx.reply(
                        client,
                        RaftMsg::Redirect {
                            leader: self.leader,
                        },
                    );
                    return;
                }
                let in_flight = self.reconfig_final.is_some()
                    || matches!(self.log.latest_config(), Some(Cmd::Joint { .. }));
                if in_flight || voters == self.voters || voters.is_empty() {
                    let _ = ctx.reply(client, RaftMsg::ReconfigOk { accepted: false });
                    return;
                }
                let cmd = Cmd::Joint {
                    old: self.voters.clone(),
                    new: voters,
                };
                self.leader_append(ctx, cmd);
                let _ = ctx.reply(client, RaftMsg::ReconfigOk { accepted: true });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::reference::edge_u64s;

    #[test]
    fn the_meta_file_and_journal_lines_are_the_format_text() {
        let edges = edge_u64s();
        for (i, n) in edges.iter().copied().enumerate() {
            let m = edges[(i * 5 + 1) % edges.len()];
            for voted in [None, Some(0), Some(4), Some(u32::MAX)] {
                let shown = voted.map_or_else(|| "x".to_string(), |v| v.to_string());
                assert_eq!(meta_text(n, voted), format!("m {n} {shown}\n"));
            }
            assert_eq!(
                journal_line("raft: LEADER_APPEND", [("term=", n), ("idx=", m)], None),
                format!("raft: LEADER_APPEND term={n} idx={m}")
            );
            assert_eq!(
                journal_line("raft: APPLY", [("idx=", n), ("term=", m)], Some(n ^ m)),
                format!("raft: APPLY idx={n} term={m} chain={:x}", n ^ m)
            );
        }
    }
}
