//! A RedisRaft-like replicated key-value store.
//!
//! A Raft-style consensus KV store with a persisted log and snapshot,
//! carrying the five RedisRaft bugs of the paper's evaluation as seeded,
//! individually-gated defects:
//!
//! | Bug | Defect | Trigger |
//! |---|---|---|
//! | `RedisRaft-42` | log compaction does not rewrite the on-disk log | any crash after the first snapshot → recovery integrity assert fails |
//! | `RedisRaft-43` | recovery of a missing log rebuilds its index from 0 instead of the snapshot index | crash inside the staged log rebuild (`RaftLogCreate`, before `parseLog`) after a snapshot install |
//! | `RedisRaft-51` | a deposed leader transmits an already-decided snapshot without re-checking freshness; receivers assert on stale snapshots | leader paused at `sendSnapshot`, resuming after a new election |
//! | `RedisRaft-NEW` | the snapshot is written in place (open-truncate, no tmp/rename) and recovery rejects empty snapshots | crash exactly at the `write` call-site inside `storeSnapshotData` |
//! | `RedisRaft-NEW2` | a deposed leader replays its uncommitted entries to the new leader; apply asserts on repeated operation ids | leader isolated by a partition during writes, then healed |

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use rose_events::{Errno, FnvBuildHasher, NodeId, SimDuration};
use rose_profile::{site, SymbolTable};
use rose_sim::{Application, ClientCtx, ClientId, NodeCtx, OpenFlags};

use crate::common::{
    append_op, background_tick, client_op_id, client_value, election_timeout, join_values,
    numbered, push_value, read_key, read_op, read_values, tags, write_u64, ClosedLoop, ProbeStyle,
    Reply, Route, Values, Workload, TICK_PERIOD,
};

/// The five seeded RedisRaft defects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedisRaftBug {
    /// RedisRaft-42: snapshot/log integrity assert on restart.
    Rr42,
    /// RedisRaft-43: snapshot index mismatch on restart.
    Rr43,
    /// RedisRaft-51: cache index integrity assert from a stale snapshot.
    Rr51,
    /// RedisRaft-NEW: inconsistent (empty) snapshot file after a crash
    /// mid-`storeSnapshotData`.
    RrNew,
    /// RedisRaft-NEW2: repeated key after a deposed leader replays entries.
    RrNew2,
}

impl RedisRaftBug {
    /// The log line the bug oracle greps for.
    pub fn oracle_needle(self) -> &'static str {
        match self {
            RedisRaftBug::Rr42 => "assert: snapshot and log integrity",
            RedisRaftBug::Rr43 => "snapshot index mismatch",
            RedisRaftBug::Rr51 => "assert: cache index integrity",
            RedisRaftBug::RrNew => "inconsistent snapshot file",
            RedisRaftBug::RrNew2 => "repeated key",
        }
    }
}

/// Node role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

/// A replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    idx: u64,
    term: u64,
    key: String,
    val: String,
    /// Client-assigned operation id (dedup key).
    id: u64,
}

impl Entry {
    /// Appends the entry's line of the on-disk log:
    /// `e <idx> <term> <key> <val> <id>`.
    fn write_line(&self, out: &mut String) {
        out.push_str("e ");
        let _ = write_u64(out, self.idx);
        out.push(' ');
        let _ = write_u64(out, self.term);
        for piece in [" ", &self.key, " ", &self.val, " "] {
            out.push_str(piece);
        }
        let _ = write_u64(out, self.id);
        out.push('\n');
    }
}

/// A replicated entry as the log, an AppendEntries message and the replay
/// queue hold it: one allocation per entry, shared from the leader's log to
/// every follower's (entries are never changed once created).
type SharedEntry = Arc<Entry>;

/// A snapshot payload: every key with its list.
type SnapData = Vec<(String, Values)>;

/// A decided-but-untransmitted snapshot: (term at decision, snapshot
/// index, payload).
type PendingSnap = (u64, u64, SnapData);

/// Wire messages.
#[derive(Debug, Clone)]
pub enum Rmsg {
    /// RequestVote.
    Vote {
        /// Candidate term.
        term: u64,
        /// Candidate's last log index.
        last: u64,
    },
    /// Vote granted.
    VoteOk {
        /// Term the vote applies to.
        term: u64,
    },
    /// AppendEntries (empty = heartbeat).
    App {
        /// Leader term.
        term: u64,
        /// Index preceding `entries`.
        prev: u64,
        /// Suffix to append.
        entries: Vec<SharedEntry>,
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
    /// Append rejected; follower needs entries from `needed`.
    AppRej {
        /// Follower term.
        term: u64,
        /// First missing index.
        needed: u64,
    },
    /// InstallSnapshot.
    Snap {
        /// Sender term (at decision time — the RedisRaft-51 staleness).
        term: u64,
        /// Snapshot index.
        idx: u64,
        /// Snapshot payload.
        data: SnapData,
    },
    /// Client append request.
    Put {
        /// Key.
        key: String,
        /// Appended value.
        val: String,
        /// Client operation id.
        id: u64,
    },
    /// Client append acknowledged.
    PutOk {
        /// Operation id.
        id: u64,
    },
    /// Client read request.
    Get {
        /// Key.
        key: String,
    },
    /// Client read reply.
    GetOk {
        /// Key.
        key: String,
        /// Current list.
        values: Values,
    },
    /// Not the leader; try elsewhere.
    Redirect {
        /// Known leader, if any.
        leader: Option<NodeId>,
    },
    /// Light keepalive gossip (cluster-membership ping); keeps every
    /// connection warm so network-delay detection reflects real faults.
    Gossip,
}

const LOG_PATH: &str = "/raft/log";
const SNAP_PATH: &str = "/raft/snapshot";
/// Entries applied beyond the log base before a snapshot is taken.
const SNAPSHOT_EVERY: u64 = 400;
/// Timer tags: snapshot transmit to peer p is `SNAP_SEND_BASE + p`.
const SNAP_SEND_BASE: u64 = 100;
const REBUILD_STAGE1: u64 = 200;
const REBUILD_STAGE2: u64 = 201;

/// The per-node application state.
pub struct RedisRaft {
    bug: Option<RedisRaftBug>,
    role: Role,
    term: u64,
    voted_in: u64,
    votes: BTreeSet<NodeId>,
    leader: Option<NodeId>,
    /// In-memory log suffix (entries with idx > `log_base`).
    log: Vec<SharedEntry>,
    /// Whether `log` holds consecutive indices, so that entry `idx` sits at
    /// offset `idx - log[0].idx`. Every in-memory mutation keeps a dense
    /// log dense (push at `last_idx() + 1`, suffix `retain`, `truncate` +
    /// push of the same index, `clear`); only `parse_log` can read one with
    /// holes, duplicates or disorder, and recomputes the bit.
    log_dense: bool,
    /// Index covered by the snapshot (and, on disk, the log file base).
    log_base: u64,
    snapshot_idx: u64,
    commit: u64,
    applied: u64,
    kv: BTreeMap<String, Values>,
    /// Operation ids applied so far; only inserted into and probed.
    applied_ids: HashSet<u64, FnvBuildHasher>,
    next_idx: BTreeMap<NodeId, u64>,
    /// Clients waiting for commit, by entry idx.
    pending_clients: BTreeMap<u64, (ClientId, u64)>,
    /// Snapshot transfers decided but not yet transmitted (RedisRaft-51).
    pending_snap: BTreeMap<NodeId, PendingSnap>,
    /// Entries a deposed leader intends to replay (RedisRaft-NEW2).
    replay_queue: Vec<SharedEntry>,
    /// The log rebuild staged after a snapshot install (RedisRaft-43 window).
    rebuild_pending: bool,
    tick: u64,
    /// The line `append_log_entry` is writing; kept for its capacity.
    line: String,
}

impl RedisRaft {
    /// A node with the given seeded defect active (or a correct node).
    pub fn new(bug: Option<RedisRaftBug>) -> Self {
        RedisRaft {
            bug,
            role: Role::Follower,
            term: 0,
            voted_in: 0,
            votes: BTreeSet::new(),
            leader: None,
            log: Vec::new(),
            log_dense: true,
            log_base: 0,
            snapshot_idx: 0,
            commit: 0,
            applied: 0,
            kv: BTreeMap::new(),
            applied_ids: HashSet::default(),
            next_idx: BTreeMap::new(),
            pending_clients: BTreeMap::new(),
            pending_snap: BTreeMap::new(),
            replay_queue: Vec::new(),
            rebuild_pending: false,
            tick: 0,
            line: String::new(),
        }
    }

    fn last_idx(&self) -> u64 {
        self.log.last().map_or(self.log_base, |e| e.idx)
    }

    fn is(&self, bug: RedisRaftBug) -> bool {
        self.bug == Some(bug)
    }

    // --- Log lookups --------------------------------------------------------

    /// Offset before which no in-memory entry has an index ≥ `idx`:
    /// `idx - log[0].idx` (clamped to the log) while the log is dense, 0
    /// for a log `parse_log` read from a damaged file. The lookups below
    /// are the linear scans they always were, started here: one step on a
    /// dense log, the whole first-match scan on one with holes, where an
    /// offset would answer with a neighbour.
    fn log_seek(&self, idx: u64) -> usize {
        match self.log.first() {
            Some(first) if self.log_dense => usize::try_from(idx.saturating_sub(first.idx))
                .map_or(self.log.len(), |off| off.min(self.log.len())),
            _ => 0,
        }
    }

    /// Position of the first entry with index `idx`.
    fn log_pos(&self, idx: u64) -> Option<usize> {
        let scan = |log: &[SharedEntry]| log.iter().position(|e| e.idx == idx);
        let from = self.log_seek(idx);
        let pos = scan(&self.log[from..]).map(|at| from + at);
        debug_assert_eq!(pos, scan(&self.log));
        pos
    }

    /// The entries one AppendEntries carries to a peer at `next`: the first
    /// 20 with an index ≥ `next`, in log order.
    fn entries_from(&self, next: u64) -> Vec<SharedEntry> {
        fn batch(log: &[SharedEntry], next: u64) -> impl Iterator<Item = &SharedEntry> {
            log.iter().filter(move |e| e.idx >= next).take(20)
        }
        let entries: Vec<SharedEntry> = batch(&self.log[self.log_seek(next)..], next)
            .cloned()
            .collect();
        debug_assert!(entries.iter().eq(batch(&self.log, next)));
        entries
    }

    // --- Persistence ------------------------------------------------------

    fn persist_log(&mut self, ctx: &mut NodeCtx<'_, Rmsg>) {
        let _ = ctx.write_file(LOG_PATH, self.log_text().as_bytes());
    }

    /// The whole on-disk log: `base <idx>`, then one line per entry.
    fn log_text(&self) -> String {
        let mut out = String::from("base ");
        let _ = write_u64(&mut out, self.log_base);
        out.push('\n');
        for e in &self.log {
            e.write_line(&mut out);
        }
        out
    }

    fn append_log_entry(&mut self, ctx: &mut NodeCtx<'_, Rmsg>, e: &Entry) {
        // While the on-disk log is being rebuilt after a snapshot install,
        // new entries stay in memory; `parseLog` persists the whole log.
        if self.rebuild_pending {
            return;
        }
        if let Ok(fd) = ctx.open(LOG_PATH, OpenFlags::Append) {
            self.line.clear();
            e.write_line(&mut self.line);
            let _ = ctx.write(fd, self.line.as_bytes());
            let _ = ctx.close(fd);
        }
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = String::from("idx ");
        let _ = write_u64(&mut out, self.applied);
        out.push('\n');
        for (k, vs) in &self.kv {
            for piece in ["kv ", k, " "] {
                out.push_str(piece);
            }
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(v);
            }
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Writes the snapshot **in place** (the RedisRaft-NEW file
    /// mismanagement: open-truncate, write, close — no tmp + rename).
    fn store_snapshot_data(&mut self, ctx: &mut NodeCtx<'_, Rmsg>) {
        let ctx = &mut ctx.function("storeSnapshotData");
        ctx.at_offset(0);
        if let Ok(fd) = ctx.open(SNAP_PATH, OpenFlags::Write) {
            ctx.at_offset(1);
            let bytes = self.snapshot_bytes();
            let _ = ctx.write(fd, &bytes);
            ctx.at_offset(2);
            let _ = ctx.close(fd);
        }
    }

    fn maybe_snapshot(&mut self, ctx: &mut NodeCtx<'_, Rmsg>) {
        if self.applied.saturating_sub(self.log_base) < SNAPSHOT_EVERY {
            return;
        }
        self.store_snapshot_data(ctx);
        self.snapshot_idx = self.applied;
        self.log_base = self.applied;
        self.log.retain(|e| e.idx > self.log_base);
        if self.is(RedisRaftBug::Rr42) {
            // DEFECT (RedisRaft-42): in-memory compaction without rewriting
            // the on-disk log — its base stays stale until the next restart
            // trips the integrity assert.
        } else {
            self.persist_log(ctx);
        }
    }

    // --- Recovery ---------------------------------------------------------

    fn recover(&mut self, ctx: &mut NodeCtx<'_, Rmsg>) {
        let ctx = &mut ctx.function("recoverState");
        match ctx.read_file(SNAP_PATH) {
            Ok(bytes) => {
                if !self.parse_snapshot(&bytes) {
                    if self.is(RedisRaftBug::RrNew) {
                        // DEFECT (RedisRaft-NEW): no tolerance for a torn
                        // snapshot — Redis itself fails to start.
                        ctx.panic("FATAL: inconsistent snapshot file");
                    }
                    // Correct behaviour: discard the unusable snapshot.
                    let _ = ctx.unlink(SNAP_PATH);
                    self.snapshot_idx = 0;
                }
            }
            Err(_) => {
                // No snapshot yet, or an unreadable one: the log alone.
            }
        }

        match ctx.read_file(LOG_PATH) {
            Ok(bytes) => {
                let _ = ctx.function("parseLog");
                let ok = self.parse_log(&bytes);
                if !ok || self.log_base != self.snapshot_idx {
                    // Integrity invariant: the on-disk log must start
                    // exactly where the snapshot ends.
                    ctx.panic(format!(
                        "PANIC assert: snapshot and log integrity (log base {} vs snapshot {})",
                        self.log_base, self.snapshot_idx
                    ));
                }
            }
            Err(Errno::Enoent) if self.snapshot_idx > 0 => {
                if self.is(RedisRaftBug::Rr43) {
                    // DEFECT (RedisRaft-43): the missing log is recreated
                    // with a rebuilt index starting at 0 instead of keeping
                    // the snapshot's index.
                    self.log_base = 0;
                    ctx.panic(format!(
                        "PANIC: snapshot index mismatch (log 0 vs snapshot {})",
                        self.snapshot_idx
                    ));
                }
                // Correct behaviour: recreate the log at the snapshot index
                // (the RedisRaft fix d1d728d keeps the stored index).
                self.log_base = self.snapshot_idx;
                self.persist_log(ctx);
            }
            Err(_) => {}
        }
        self.commit = self.snapshot_idx.max(self.commit);
        self.applied = self.applied.max(self.snapshot_idx);
    }

    fn parse_snapshot(&mut self, bytes: &[u8]) -> bool {
        let text = String::from_utf8_lossy(bytes);
        let mut lines = text.lines();
        let Some(first) = lines.next() else {
            return false;
        };
        let Some(idx) = first
            .strip_prefix("idx ")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            return false;
        };
        self.snapshot_idx = idx;
        self.applied = idx;
        self.log_base = idx;
        for l in lines {
            if let Some(rest) = l.strip_prefix("kv ") {
                if let Some((k, vs)) = rest.split_once(' ') {
                    let values: Vec<String> = vs
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect();
                    self.kv.insert(k.to_string(), Arc::new(values));
                }
            }
        }
        true
    }

    fn parse_log(&mut self, bytes: &[u8]) -> bool {
        let text = String::from_utf8_lossy(bytes);
        let mut lines = text.lines();
        let Some(base) = lines
            .next()
            .and_then(|l| l.strip_prefix("base "))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            return false;
        };
        self.log_base = base;
        self.log.clear();
        self.log_dense = true;
        for l in lines {
            let mut it = l.split_whitespace();
            if it.next() != Some("e") {
                continue;
            }
            let (Some(idx), Some(term), Some(key), Some(val), Some(id)) = (
                it.next().and_then(|s| s.parse().ok()),
                it.next().and_then(|s| s.parse().ok()),
                it.next(),
                it.next(),
                it.next().and_then(|s| s.parse().ok()),
            ) else {
                continue;
            };
            // An ignored failed `open`/`write` in `append_log_entry`, or a
            // crash inside one, leaves holes, repeats and merged lines.
            self.log_dense &= self
                .log
                .last()
                .is_none_or(|prev| prev.idx.checked_add(1) == Some(idx));
            self.log.push(Arc::new(Entry {
                idx,
                term,
                key: key.to_string(),
                val: val.to_string(),
                id,
            }));
        }
        true
    }

    // --- Roles ------------------------------------------------------------

    fn start_election(&mut self, ctx: &mut NodeCtx<'_, Rmsg>) {
        let ctx = &mut ctx.function("startElection");
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_in = self.term;
        self.votes = [ctx.node()].into_iter().collect();
        self.leader = None;
        let last = self.last_idx();
        ctx.broadcast(Rmsg::Vote {
            term: self.term,
            last,
        });
    }

    fn become_leader(&mut self, ctx: &mut NodeCtx<'_, Rmsg>) {
        let _ = ctx.function("becomeLeader");
        self.role = Role::Leader;
        self.leader = Some(ctx.node());
        let next = self.last_idx() + 1;
        for p in ctx.peers() {
            self.next_idx.insert(p, next);
        }
        self.heartbeat(ctx);
    }

    fn step_down(&mut self, term: u64, leader: Option<NodeId>) {
        let was_leader = self.role == Role::Leader;
        self.term = term;
        self.role = Role::Follower;
        if leader.is_some() {
            self.leader = leader;
        }
        self.votes.clear();
        if was_leader && self.is(RedisRaftBug::RrNew2) {
            // DEFECT (RedisRaft-NEW2): the deposed leader queues its
            // not-yet-committed entries and replays them to the new leader
            // once contact is re-established — duplicating operations that
            // the quorum already committed.
            self.replay_queue = self
                .log
                .iter()
                .filter(|e| e.idx > self.commit)
                .cloned()
                .collect();
        }
    }

    fn heartbeat(&mut self, ctx: &mut NodeCtx<'_, Rmsg>) {
        // Cheap index accessor RedisRaft calls constantly; the function-
        // frequency heuristic must filter it (paper Table 3 example).
        let _ = ctx.function("RaftLogCurrentIdx");
        let last = self.last_idx();
        for p in ctx.peers() {
            let next = *self.next_idx.entry(p).or_insert(last + 1);
            if next <= self.log_base && self.snapshot_idx > 0 {
                self.decide_snapshot(ctx, p);
                // Keep heartbeating while the transfer is in flight so the
                // peer does not starve into an election.
                let _ = ctx.send(
                    p,
                    Rmsg::App {
                        term: self.term,
                        prev: self.log_base,
                        entries: Vec::new(),
                        commit: self.commit,
                    },
                );
                continue;
            }
            let entries = self.entries_from(next);
            let prev = next - 1;
            let _ = ctx.send(
                p,
                Rmsg::App {
                    term: self.term,
                    prev,
                    entries,
                    commit: self.commit,
                },
            );
        }
    }

    /// Decides a snapshot transfer to a lagging peer; the actual
    /// transmission happens in a deferred stage (the RedisRaft-51 window).
    fn decide_snapshot(&mut self, ctx: &mut NodeCtx<'_, Rmsg>, peer: NodeId) {
        if self.pending_snap.contains_key(&peer) {
            return;
        }
        let ctx = &mut ctx.function("sendSnapshot");
        let payload: SnapData = self
            .kv
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        // Serializing and shipping a multi-megabyte snapshot takes a while
        // (size- and IO-dependent); the transmission completes
        // asynchronously.
        self.pending_snap
            .insert(peer, (self.term, self.snapshot_idx, payload));
        let ship = 1_000 + rand::Rng::gen_range(ctx.rng(), 0..3_000);
        ctx.set_timer(
            SimDuration::from_millis(ship),
            SNAP_SEND_BASE + u64::from(peer.0),
        );
    }

    fn transmit_snapshot(&mut self, ctx: &mut NodeCtx<'_, Rmsg>, peer: NodeId) {
        let Some((term, idx, data)) = self.pending_snap.remove(&peer) else {
            return;
        };
        if !self.is(RedisRaftBug::Rr51) {
            // Correct behaviour: re-validate before transmitting.
            if self.role != Role::Leader || self.term != term {
                return;
            }
        }
        // DEFECT (RedisRaft-51): transmit the decided payload regardless of
        // how much time passed or whether leadership was lost meanwhile.
        let _ = ctx.send(peer, Rmsg::Snap { term, idx, data });
        // Optimistically advance the peer's cursor so the next heartbeat
        // does not decide a second transfer before the ack returns.
        self.next_idx.insert(peer, idx + 1);
    }

    fn install_snapshot(&mut self, ctx: &mut NodeCtx<'_, Rmsg>, idx: u64, data: SnapData) {
        let ctx = &mut ctx.function("installSnapshot");
        self.kv = data.into_iter().collect();
        self.snapshot_idx = idx;
        self.applied = idx;
        self.commit = self.commit.max(idx);
        self.log.clear();
        self.log_base = idx;
        // The old log is discarded now; the fresh one is rebuilt in staged
        // deferred work (`RaftLogCreate` → `parseLog`). A crash inside this
        // window leaves the node with a snapshot but no log.
        if !self.rebuild_pending {
            let _ = ctx.unlink(LOG_PATH);
        }
        self.rebuild_pending = true;
        ctx.set_timer(SimDuration::from_millis(20), REBUILD_STAGE1);
    }

    fn apply_committed(&mut self, ctx: &mut NodeCtx<'_, Rmsg>) {
        while self.applied < self.commit {
            let next = self.applied + 1;
            let Some(pos) = self.log_pos(next) else {
                break;
            };
            let e = &self.log[pos];
            {
                let ctx = &mut ctx.function("applyEntry");
                if !self.applied_ids.insert(e.id) {
                    if self.is(RedisRaftBug::RrNew2) {
                        // DEFECT manifestation (RedisRaft-NEW2): the replayed
                        // entry reaches apply twice and Redis fails hard.
                        ctx.panic(format!("ERR repeated key: op {} applied twice", e.id));
                    }
                    // Correct behaviour: duplicates are skipped idempotently.
                    self.applied = next;
                    continue;
                }
                push_value(&mut self.kv, &e.key, e.val.clone());
                self.applied = next;
            }
            if self.role == Role::Leader {
                if let Some((client, id)) = self.pending_clients.remove(&next) {
                    let _ = ctx.reply(client, Rmsg::PutOk { id });
                }
            }
        }
        self.maybe_snapshot(ctx);
    }

    fn leader_append(
        &mut self,
        ctx: &mut NodeCtx<'_, Rmsg>,
        key: String,
        val: String,
        id: u64,
    ) -> u64 {
        let idx = self.last_idx() + 1;
        let e = Arc::new(Entry {
            idx,
            term: self.term,
            key,
            val,
            id,
        });
        self.append_log_entry(ctx, &e);
        self.log.push(e);
        idx
    }
}

impl Application for RedisRaft {
    type Msg = Rmsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Rmsg>) {
        self.recover(ctx);
        // The boot election is biased towards node 0 (staggered first
        // timeouts, as real deployments see from staggered starts); all
        // later elections use fully randomized timeouts, so post-fault
        // leadership varies by seed — the role-specific variance behind the
        // Amplification heuristic.
        let t = if ctx.generation() == 0 && self.term == 0 {
            SimDuration::from_millis(700 + 400 * u64::from(ctx.node().0))
        } else {
            election_timeout(ctx.rng())
        };
        ctx.set_timer(t, tags::ELECTION);
        ctx.set_timer(SimDuration::from_millis(150), tags::HEARTBEAT);
        ctx.set_timer(TICK_PERIOD, tags::TICK);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Rmsg>, tag: u64) {
        match tag {
            tags::ELECTION => {
                // Post-boot elections use a randomized backoff (only some
                // timeouts convert into candidacies), so the winner after a
                // leader failure is genuinely seed-random — like the
                // CPU/IO-noise races deciding real elections.
                let fire = self.term == 0 || rand::Rng::gen_bool(ctx.rng(), 0.6);
                if self.role != Role::Leader && self.leader.is_none() && fire {
                    self.start_election(ctx);
                }
                // Followers with a live leader simply re-arm; the leader
                // flag is cleared whenever a heartbeat gap is detected.
                if self.role == Role::Follower {
                    self.leader = None;
                }
                let t = election_timeout(ctx.rng());
                ctx.set_timer(t, tags::ELECTION);
            }
            tags::HEARTBEAT => {
                if self.role == Role::Leader {
                    self.heartbeat(ctx);
                }
                ctx.set_timer(SimDuration::from_millis(150), tags::HEARTBEAT);
            }
            tags::TICK => {
                background_tick(ctx, &mut self.tick, ProbeStyle::Native, 2, Rmsg::Gossip);
            }
            REBUILD_STAGE1 if self.rebuild_pending => {
                // Stage 1 of the log rebuild: allocate the structure.
                // The on-disk file only reappears in stage 2 (`parseLog`)
                // — the paper's "crashed before the invocation of
                // parseLog" window.
                let ctx = &mut ctx.function("RaftLogCreate");
                ctx.set_timer(SimDuration::from_millis(300), REBUILD_STAGE2);
            }
            REBUILD_STAGE2 if self.rebuild_pending => {
                let ctx = &mut ctx.function("parseLog");
                self.persist_log(ctx);
                self.rebuild_pending = false;
            }
            t if (SNAP_SEND_BASE..REBUILD_STAGE1).contains(&t) => {
                let peer = NodeId((t - SNAP_SEND_BASE) as u32);
                self.transmit_snapshot(ctx, peer);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Rmsg>, from: NodeId, msg: Rmsg) {
        match msg {
            Rmsg::Vote { term, last } => {
                if term > self.term {
                    self.step_down(term, None);
                }
                let grant = term == self.term && self.voted_in < term && last >= self.commit;
                if grant {
                    self.voted_in = term;
                    let _ = ctx.send(from, Rmsg::VoteOk { term });
                }
            }
            Rmsg::VoteOk { term } => {
                if self.role == Role::Candidate && term == self.term {
                    self.votes.insert(from);
                    if self.votes.len() * 2 > ctx.cluster_size() as usize {
                        self.become_leader(ctx);
                    }
                }
            }
            Rmsg::App {
                term,
                prev,
                entries,
                commit,
            } => {
                if term < self.term {
                    return;
                }
                if term > self.term || self.role != Role::Follower {
                    self.step_down(term, Some(from));
                }
                self.leader = Some(from);
                // Replay queue drains on first contact with the new leader
                // (RedisRaft-NEW2 defect path).
                if !self.replay_queue.is_empty() {
                    for e in std::mem::take(&mut self.replay_queue) {
                        let _ = ctx.send(
                            from,
                            Rmsg::Put {
                                key: e.key.clone(),
                                val: e.val.clone(),
                                id: e.id,
                            },
                        );
                    }
                }
                // The hot index accessor is consulted on every append RPC
                // (the paper's 131k-calls-per-run example).
                let _ = ctx.function("RaftLogCurrentIdx");
                let last = self.last_idx();
                if prev > last {
                    let _ = ctx.send(
                        from,
                        Rmsg::AppRej {
                            term: self.term,
                            needed: last + 1,
                        },
                    );
                    return;
                }
                // Raft conflict resolution: an existing entry whose term
                // differs from the leader's is part of a dead branch — drop
                // it and everything after it.
                let mut truncated = false;
                for e in entries {
                    if e.idx <= self.log_base {
                        continue;
                    }
                    if let Some(pos) = self.log_pos(e.idx) {
                        if self.log[pos].term != e.term {
                            self.log.truncate(pos);
                            truncated = true;
                            self.log.push(e);
                        }
                    } else if e.idx == self.last_idx() + 1 {
                        if truncated {
                            self.log.push(e);
                        } else {
                            self.append_log_entry(ctx, &e);
                            self.log.push(e);
                        }
                    }
                }
                if truncated && !self.rebuild_pending {
                    self.persist_log(ctx);
                }
                self.commit = self.commit.max(commit.min(self.last_idx()));
                self.apply_committed(ctx);
                let matched = self.last_idx();
                let _ = ctx.send(
                    from,
                    Rmsg::AppOk {
                        term: self.term,
                        matched,
                    },
                );
            }
            Rmsg::AppOk { term, matched } => {
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                let _ = ctx.function("RaftLogCurrentIdx");
                self.next_idx.insert(from, matched + 1);
                // Quorum commit: count self + peers with matched >= idx.
                let mut candidates: Vec<u64> = Vec::with_capacity(self.next_idx.len() + 1);
                candidates.push(self.last_idx());
                // Track match indexes through next_idx - 1.
                candidates.extend(self.next_idx.values().map(|next| next.saturating_sub(1)));
                candidates.sort_unstable();
                let majority_idx = candidates[candidates.len() / 2];
                if majority_idx > self.commit {
                    self.commit = majority_idx;
                    self.apply_committed(ctx);
                }
            }
            Rmsg::AppRej { term, needed } => {
                if self.role == Role::Leader && term == self.term {
                    self.next_idx.insert(from, needed);
                }
            }
            Rmsg::Snap { term, idx, data } => {
                if term < self.term {
                    // A snapshot from a deposed leader's term.
                    if self.is(RedisRaftBug::Rr51) {
                        // DEFECT (RedisRaft-51): the stale snapshot trips
                        // the cache-index integrity assert instead of being
                        // ignored.
                        ctx.panic(format!(
                            "PANIC assert: cache index integrity (term {} < {}, idx {} vs applied {})",
                            term, self.term, idx, self.applied
                        ));
                    }
                    return;
                }
                if idx <= self.snapshot_idx || idx < self.applied {
                    // Duplicate or already-covered snapshot: ignore.
                    return;
                }
                if term > self.term {
                    self.step_down(term, Some(from));
                }
                self.install_snapshot(ctx, idx, data);
                let _ = ctx.send(
                    from,
                    Rmsg::AppOk {
                        term: self.term,
                        matched: idx,
                    },
                );
            }
            Rmsg::Put { key, val, id } => {
                // Peer-forwarded replay (NEW2) arrives as a Put from a node;
                // the defect path appends without propose-side dedup.
                if self.role == Role::Leader {
                    self.leader_append(ctx, key, val, id);
                    self.heartbeat(ctx);
                }
            }
            Rmsg::PutOk { .. } | Rmsg::GetOk { .. } | Rmsg::Redirect { .. } => {}
            Rmsg::Get { .. } | Rmsg::Gossip => {}
        }
    }

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, Rmsg>, client: ClientId, req: Rmsg) {
        match req {
            Rmsg::Put { key, val, id } => {
                if self.role == Role::Leader {
                    // Propose-side dedup: client retries of an already
                    // proposed/applied operation are answered idempotently.
                    if self.applied_ids.contains(&id) {
                        let _ = ctx.reply(client, Rmsg::PutOk { id });
                        return;
                    }
                    if let Some(e) = self.log.iter().find(|e| e.id == id) {
                        self.pending_clients.insert(e.idx, (client, id));
                        return;
                    }
                    let idx = self.leader_append(ctx, key, val, id);
                    self.pending_clients.insert(idx, (client, id));
                    // Replicate immediately; the periodic heartbeat only
                    // covers idle periods and lagging peers.
                    self.heartbeat(ctx);
                } else {
                    let _ = ctx.reply(
                        client,
                        Rmsg::Redirect {
                            leader: self.leader,
                        },
                    );
                }
            }
            Rmsg::Get { key } => {
                if self.role == Role::Leader {
                    let values = read_values(&self.kv, &key);
                    let _ = ctx.reply(client, Rmsg::GetOk { key, values });
                } else {
                    let _ = ctx.reply(
                        client,
                        Rmsg::Redirect {
                            leader: self.leader,
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

/// One RedisRaft bug case bound to the Rose workflow.
#[derive(Debug, Clone)]
pub struct RedisRaftCase {
    /// Which seeded defect is active.
    pub bug: RedisRaftBug,
}

impl rose_core::TargetSystem for RedisRaftCase {
    type App = RedisRaft;

    fn name(&self) -> &str {
        match self.bug {
            RedisRaftBug::Rr42 => "RedisRaft-42",
            RedisRaftBug::Rr43 => "RedisRaft-43",
            RedisRaftBug::Rr51 => "RedisRaft-51",
            RedisRaftBug::RrNew => "RedisRaft-NEW",
            RedisRaftBug::RrNew2 => "RedisRaft-NEW2",
        }
    }

    fn cluster_size(&self) -> u32 {
        5
    }

    fn build_node(&self, _node: NodeId) -> RedisRaft {
        RedisRaft::new(Some(self.bug))
    }

    fn attach_workload(&self, sim: &mut rose_sim::Sim<RedisRaft>) {
        sim.add_client(Box::new(RaftClient::new()));
        sim.add_client(Box::new(RaftClient::new()));
        sim.add_client(Box::new(RaftClient::new()));
    }

    fn oracle(&self, sim: &rose_sim::Sim<RedisRaft>) -> bool {
        sim.core().logs.grep(self.bug.oracle_needle())
    }

    /// The binary's symbol table (the `readelf`/`objdump` analogue).
    fn symbols(&self) -> SymbolTable {
        use rose_events::SyscallId;
        SymbolTable::new()
            .function("recoverState", "raft.c", vec![site::call(0, "parseLog")])
            .function("parseLog", "raft.c", vec![site::sys(0, SyscallId::Openat)])
            .function("RaftLogCreate", "raft.c", vec![site::call(0, "parseLog")])
            .function("RaftLogCurrentIdx", "raft.c", vec![site::other(0)])
            .function("applyEntry", "raft.c", vec![site::other(0)])
            .function(
                "storeSnapshotData",
                "snapshot.c",
                vec![
                    site::sys(0, SyscallId::Openat),
                    site::sys(1, SyscallId::Write),
                    site::sys(2, SyscallId::Close),
                ],
            )
            .function("sendSnapshot", "snapshot.c", vec![site::other(0)])
            .function(
                "installSnapshot",
                "snapshot.c",
                vec![site::sys(0, SyscallId::Unlink)],
            )
            .function("startElection", "election.c", vec![site::other(0)])
            .function("becomeLeader", "election.c", vec![site::other(0)])
    }

    fn run_duration(&self) -> SimDuration {
        SimDuration::from_secs(120)
    }
}

/// How each RedisRaft bug's "production" trace is obtained (all five are
/// Jepsen-sourced in the paper; RedisRaft-NEW's trigger is so narrow —
/// a crash between two instructions — that its trace is recreated from the
/// known trigger, as the paper does for traceless bugs).
pub fn redisraft_capture(bug: RedisRaftBug) -> crate::driver::CaptureSpec {
    use crate::driver::{CaptureMethod, CaptureSpec};
    use rose_inject::{Condition, FaultAction, FaultSchedule, PartitionKind, ScheduledFault};
    use rose_jepsen::{NemesisConfig, NemesisOp};
    match bug {
        RedisRaftBug::Rr42 => {
            let cfg = NemesisConfig {
                interval: (SimDuration::from_secs(20), SimDuration::from_secs(40)),
                ..NemesisConfig::standard(5, 1)
            }
            .with_ops(vec![NemesisOp::Crash]);
            CaptureSpec::from(CaptureMethod::Nemesis(cfg))
        }
        RedisRaftBug::Rr43 => {
            let cfg = NemesisConfig {
                interval: (SimDuration::from_secs(3), SimDuration::from_secs(9)),
                duration: (SimDuration::from_secs(6), SimDuration::from_secs(10)),
                ..NemesisConfig::standard(5, 2)
            }
            .with_ops(vec![NemesisOp::Crash, NemesisOp::Partition]);
            CaptureSpec::from(CaptureMethod::Nemesis(cfg))
        }
        RedisRaftBug::Rr51 => {
            let cfg = NemesisConfig {
                start_after: SimDuration::from_secs(16),
                interval: (SimDuration::from_millis(500), SimDuration::from_secs(6)),
                duration: (SimDuration::from_secs(6), SimDuration::from_secs(10)),
                ..NemesisConfig::standard(5, 3)
            }
            .with_ops(vec![NemesisOp::Pause]);
            // Prelude: pause the boot leader long enough to depose it, so
            // the leadership at fault time is seed-random — the
            // role-specific situation that exercises Amplification.
            let mut prelude = FaultSchedule::new();
            prelude.push(
                ScheduledFault::new(
                    NodeId(0),
                    FaultAction::Pause {
                        duration: SimDuration::from_secs(6),
                    },
                )
                .after(Condition::TimeElapsed {
                    after: SimDuration::from_secs(6),
                }),
            );
            CaptureSpec::from(CaptureMethod::NemesisWithPrelude(cfg, prelude))
                .with_duration(SimDuration::from_secs(45))
        }
        RedisRaftBug::RrNew => CaptureSpec::scripted([
            ScheduledFault::new(
                NodeId(0),
                FaultAction::Partition {
                    kind: PartitionKind::IsolateNode(NodeId(0)),
                    duration: Some(SimDuration::from_secs(8)),
                },
            )
            .after(Condition::TimeElapsed {
                after: SimDuration::from_secs(10),
            }),
            ScheduledFault::new(NodeId(0), FaultAction::Crash).after(Condition::TimeElapsed {
                after: SimDuration::from_secs(25),
            }),
            ScheduledFault::new(NodeId(2), FaultAction::Crash).after(Condition::FunctionOffset {
                name: "storeSnapshotData".into(),
                offset: 1,
            }),
        ]),
        RedisRaftBug::RrNew2 => {
            // One partition per capture attempt: replaying a first-partition
            // trigger keeps the replay independent of randomized
            // post-disruption leadership.
            let cfg = NemesisConfig {
                start_after: SimDuration::from_secs(15),
                interval: (SimDuration::from_secs(500), SimDuration::from_secs(501)),
                duration: (SimDuration::from_secs(6), SimDuration::from_secs(10)),
                ..NemesisConfig::standard(5, 4)
            }
            .with_ops(vec![NemesisOp::Partition]);
            CaptureSpec::from(CaptureMethod::Nemesis(cfg)).with_duration(SimDuration::from_secs(45))
        }
    }
}

// --- Workload --------------------------------------------------------------

/// A closed-loop append/read workload (Jepsen-style append workload).
///
/// Retries a timed-out operation **with the same operation id** against the
/// next node — the idempotent-retry behaviour real Redis clients exhibit,
/// and the reason duplicated commits exist at all (RedisRaft-NEW2).
#[derive(Default)]
pub struct AppendWorkload;

/// The RedisRaft client.
pub type RaftClient = ClosedLoop<AppendWorkload>;

impl Workload for AppendWorkload {
    type Msg = Rmsg;
    const WRITE_PERIOD: SimDuration = SimDuration::from_millis(40);
    const READ_PERIOD: Option<SimDuration> = Some(SimDuration::from_millis(700));
    const TIMEOUT_US: u64 = 1_200_000;
    const SENDS: u32 = 4;
    const ROUTE: Route = Route::LeaderNextOnRetry;
    const RESEND_ON_REDIRECT: bool = true;

    fn write(&mut self, client: ClientId, n: u64) -> (String, u64, Rmsg) {
        let key = numbered("k", n % 3);
        let val = client_value("c", client.0, "n", n);
        let (op, id) = (append_op(&key, &val), client_op_id(client, n));
        (op, id, Rmsg::Put { key, val, id })
    }

    fn read(&mut self, ctx: &mut ClientCtx<'_, Rmsg>, node: NodeId) {
        let key = read_key(ctx, "k");
        ctx.send(node, Rmsg::Get { key });
    }

    fn classify(&mut self, _ctx: &mut ClientCtx<'_, Rmsg>, msg: Rmsg) -> Reply {
        match msg {
            Rmsg::PutOk { id } => Reply::Ack(id),
            Rmsg::GetOk { key, values } => Reply::Read(read_op(&key), Some(join_values(&values))),
            Rmsg::Redirect { leader } => Reply::Redirect(leader),
            _ => Reply::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use super::*;
    use crate::common::reference::edge_u64s;

    #[test]
    fn the_persisted_text_is_what_the_formatter_printed() {
        let mut node = RedisRaft::new(None);
        node.log_base = 406;
        let mut want_log = String::from("base 406\n");
        for (i, n) in edge_u64s().into_iter().enumerate() {
            let e = Entry {
                idx: n,
                term: i as u64,
                key: format!("k{}", i % 3),
                val: format!("c2n{n}"),
                id: n.rotate_left(i as u32),
            };
            let _ = writeln!(
                want_log,
                "e {} {} {} {} {}",
                e.idx, e.term, e.key, e.val, e.id
            );
            node.log.push(Arc::new(e));
        }
        assert_eq!(node.log_text(), want_log);

        node.applied = u64::MAX;
        push_value(&mut node.kv, "k0", "c1n1".into());
        push_value(&mut node.kv, "k0", "c2n1".into());
        push_value(&mut node.kv, "k2", "c1n2".into());
        let want_snapshot = format!("idx {}\nkv k0 c1n1,c2n1\nkv k2 c1n2\n", u64::MAX);
        assert_eq!(node.snapshot_bytes(), want_snapshot.as_bytes());
    }

    #[test]
    fn a_get_reply_is_the_stores_own_list() {
        crate::common::sharing::replies_share_the_stores_list_and_keep_what_they_were_sent(
            RedisRaftCase {
                bug: RedisRaftBug::Rr42,
            },
            NodeId(0),
            || Rmsg::Get { key: "k0".into() },
            |msg| match msg {
                Rmsg::GetOk { values, .. } => Some(values),
                _ => None,
            },
            |node| node.kv.get("k0"),
        );
    }

    fn parsed(file: &str) -> RedisRaft {
        let mut r = RedisRaft::new(None);
        assert!(r.parse_log(file.as_bytes()), "{file:?} has a base header");
        r
    }

    /// Both lookups against the linear scans they replaced, for every index
    /// in and around the log's range.
    fn assert_lookups_equal_the_scan(r: &RedisRaft) {
        let top = r.log.iter().map(|e| e.idx).max().unwrap_or(r.log_base);
        for idx in 0..=top + 2 {
            assert_eq!(
                r.log_pos(idx),
                r.log.iter().position(|e| e.idx == idx),
                "log_pos({idx}), dense={}",
                r.log_dense
            );
            let old: Vec<SharedEntry> = r
                .log
                .iter()
                .filter(|e| e.idx >= idx)
                .take(20)
                .cloned()
                .collect();
            assert_eq!(r.entries_from(idx), old, "entries_from({idx})");
        }
    }

    #[test]
    fn lookups_equal_the_scan_on_damaged_log_files() {
        // What `append_log_entry`'s ignored `open`/`write` failures, a failed
        // rewrite and a crash inside a `write` leave behind. A torn line
        // merges with the line appended after it and still parses (index
        // 12, value `c0ne`, id 12): damaged, yet dense by index.
        let hole = "base 0\ne 1 1 k1 c0n1 1\ne 3 1 k0 c0n3 3\n";
        let repeat =
            "base 0\ne 1 1 k1 c0n1 1\ne 2 1 k0 c0n2 2\ne 2 2 k0 c1n2 9\ne 3 2 k1 c1n3 10\n";
        let torn = "base 10\ne 11 3 k0 c0n11 76\ne 12 3 k1 c0ne 12 3 k1 c0n12 77\n\
                    e 13 3 k2 c0n13 78\n";
        let all = "base 0\ne 1 1 k1 c0n1 1\ne 3 1 k0 c0n3 3\ne 4 1 k1 c0n4 4\ne 4 2 k1 c1n4 9\n\
                   e 12 3 k1 c0ne 12 3 k1 c0n12 77\ne 13 3 k2 c0n13 78\ne 5 3 k0 c2n5 80\n";
        for (file, dense) in [(hole, false), (repeat, false), (torn, true), (all, false)] {
            let r = parsed(file);
            assert_eq!(r.log_dense, dense, "{file:?}");
            assert_lookups_equal_the_scan(&r);
        }
        let r = parsed(all);
        assert_eq!(r.log.len(), 7);
        assert_eq!((r.log[4].val.as_str(), r.log[4].id), ("c0ne", 12));
        // The first match wins, and a hole is a miss — not its neighbour.
        assert_eq!(r.log_pos(4), Some(2));
        assert_eq!(r.log_pos(2), None);
        let shipped: Vec<u64> = r.entries_from(4).iter().map(|e| e.idx).collect();
        assert_eq!(shipped, [4, 4, 12, 13, 5]);
    }

    #[test]
    fn in_memory_mutations_keep_a_dense_log_dense() {
        let mut file = String::from("base 40\n");
        for idx in 41..=90 {
            let _ = writeln!(file, "e {idx} 2 k{} c0n{idx} {idx}", idx % 3);
        }
        let mut r = parsed(&file);
        assert!(r.log_dense);
        assert_eq!(r.log_pos(41), Some(0));
        assert_eq!(r.log_pos(90), Some(49));
        assert_eq!(r.entries_from(85).len(), 6);
        assert_lookups_equal_the_scan(&r);

        // Compaction keeps a suffix.
        r.log_base = 60;
        r.log.retain(|e| e.idx > 60);
        assert_lookups_equal_the_scan(&r);
        // Conflict resolution replaces an index in place, then appends.
        let pos = r.log_pos(70).expect("70 is in the log");
        r.log.truncate(pos);
        for idx in 70..=72 {
            assert_eq!(idx, r.last_idx() + 1);
            r.log.push(Arc::new(Entry {
                idx,
                term: 3,
                key: "k0".into(),
                val: format!("c1n{idx}"),
                id: 1_000 + idx,
            }));
        }
        assert_lookups_equal_the_scan(&r);
        // A snapshot install empties it.
        r.log.clear();
        assert_lookups_equal_the_scan(&r);
    }
}
