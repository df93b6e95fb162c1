//! An HDFS-like distributed block store.
//!
//! Four roles on four nodes: a NameNode (node 0) with an edit log it rolls
//! periodically, two DataNodes (nodes 1–2) storing replicated block files
//! and sending block reports, and a Balancer (node 3) that probes namenodes
//! and datanodes every round. Carries the four HDFS bugs of the paper's
//! evaluation (all Anduril-sourced):
//!
//! | Bug | Defect | Trigger |
//! |---|---|---|
//! | `HDFS-4233` | a failed edit-log roll leaves the NN serving with zero journals | SCF on `openat` of `edits.new` |
//! | `HDFS-12070` | a failed block recovery drops the lease from the retry queue; the file stays open forever | SCF on the recovery `fstat` invocation |
//! | `HDFS-15032` | an unreachable active namenode crashes the balancer (unhandled exception) | SCF on the balancer's active-NN `connect` |
//! | `HDFS-16332` | an expired block token is never refreshed; reads retry forever | SCF on `read` of a block file with `EACCES` |

use std::collections::BTreeMap;

use rose_events::{Errno, NodeId, SimDuration, SyscallId};
use rose_profile::SymbolTable;
use rose_sim::{Application, ClientCtx, ClientDriver, ClientId, NodeCtx, OpOutcome, OpenFlags};

use crate::common::{
    append_op, background_tick, client_op_id, client_value, numbered, read_key, read_op, scf, tags,
    ClosedLoop, ProbeStyle, Reply, Route, Workload, TICK_PERIOD,
};
use crate::driver::CaptureSpec;

/// The four seeded HDFS defects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HdfsBug {
    /// HDFS-4233: NN keeps serving with no journals.
    Hdfs4233,
    /// HDFS-12070: files remain open when block recovery fails.
    Hdfs12070,
    /// HDFS-15032: balancer crashes on an unreachable namenode.
    Hdfs15032,
    /// HDFS-16332: expired block token causes endless slow reads.
    Hdfs16332,
}

/// Wire messages.
#[derive(Debug, Clone)]
pub enum Hmsg {
    /// Client write (append one value to a file).
    Write {
        /// File key.
        file: String,
        /// Value.
        val: String,
        /// Client op id.
        id: u64,
    },
    /// Write acknowledged.
    WriteOk {
        /// Client op id.
        id: u64,
    },
    /// NN → DN block replication.
    RepBlock {
        /// File key.
        file: String,
        /// Value.
        val: String,
        /// Replication id.
        rid: u64,
    },
    /// DN → NN replication ack.
    RepOk {
        /// Replication id.
        rid: u64,
    },
    /// Client read.
    Read {
        /// File key.
        file: String,
    },
    /// NN → DN read fetch.
    Fetch {
        /// File key.
        file: String,
        /// Requesting client.
        client: u32,
    },
    /// DN → NN fetched data.
    Fetched {
        /// File key.
        file: String,
        /// The block's lines, comma-joined: the read reply's wire form.
        values: String,
        /// Requesting client.
        client: u32,
        /// Token trouble: the DN wants the client to retry later.
        retry: bool,
    },
    /// Client read reply.
    ReadOk {
        /// File key.
        file: String,
        /// Values, comma-joined.
        values: String,
    },
    /// Ask the client to retry the read (token refresh path).
    ReadRetry {
        /// File key.
        file: String,
    },
    /// Writer client opens a file for writing (takes a lease).
    OpenFile {
        /// File key.
        file: String,
    },
    /// NN → DN block recovery request.
    RecoverReq {
        /// File key.
        file: String,
    },
    /// DN → NN recovery outcome.
    RecoverDone {
        /// File key.
        file: String,
        /// Whether the replica was validated.
        ok: bool,
    },
    /// Keepalive gossip.
    Gossip,
}

/// The NameNode id.
pub const NN: NodeId = NodeId(0);
/// DataNode ids.
pub const DNS: [NodeId; 2] = [NodeId(1), NodeId(2)];
/// The Balancer id.
pub const BALANCER: NodeId = NodeId(3);

const EDITS: &str = "/nn/edits";
const EDITS_NEW: &str = "/nn/edits.new";
/// Configured-but-undeployed standby namenode address.
const STANDBY_NN: NodeId = NodeId(7);

const ROLL_TIMER: u64 = 50;
const REPORT_TIMER: u64 = 51;
const LEASE_TIMER: u64 = 52;
const BALANCE_TIMER: u64 = 53;

fn block_path(file: &str) -> String {
    ["/dn/blk_", file].concat()
}

/// Sets `line` to the edit-log record `{verb} {file}\n`.
fn edit_record(line: &mut String, verb: &str, file: &str) {
    line.clear();
    for piece in [verb, " ", file, "\n"] {
        line.push_str(piece);
    }
}

/// Block placement: each file's block lives on exactly one datanode.
pub fn dn_of(file: &str) -> NodeId {
    let h: u32 = file.bytes().map(u32::from).sum();
    DNS[(h % 2) as usize]
}

/// The per-node HDFS application (role derived from the node id).
pub struct Hdfs {
    bug: Option<HdfsBug>,
    /// NN: file → values (authoritative view).
    files: BTreeMap<String, Vec<String>>,
    /// NN: pending client write acks: rid → (client, op id).
    pending: BTreeMap<u64, (ClientId, u64)>,
    next_rid: u64,
    /// NN: leases of files open for write: file → (deadline µs, opened µs).
    leases: BTreeMap<String, (u64, u64)>,
    /// DN: defect state — block token expired and never refreshed.
    token_expired: bool,
    /// Balancer: completed rounds (the crash path needs warm state).
    rounds_completed: u64,
    tick: u64,
    /// The edit record or replica line being written; kept for its
    /// capacity.
    line: String,
}

impl Hdfs {
    /// A node with the given seeded defect (or none).
    pub fn new(bug: Option<HdfsBug>) -> Self {
        Hdfs {
            bug,
            files: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_rid: 0,
            leases: BTreeMap::new(),
            token_expired: false,
            rounds_completed: 0,
            tick: 0,
            line: String::new(),
        }
    }

    fn is(&self, bug: HdfsBug) -> bool {
        self.bug == Some(bug)
    }

    /// NN: roll the edit log (the HDFS-4233 path).
    fn roll_edit_log(&mut self, ctx: &mut NodeCtx<'_, Hmsg>) {
        let ctx = &mut ctx.function("rollEditLog");
        let rolled = (|| {
            let fd = ctx.open(EDITS_NEW, OpenFlags::Write).ok()?;
            let _ = ctx.write(fd, b"EDITS-SEGMENT-V1\n");
            let _ = ctx.close(fd);
            ctx.rename(EDITS_NEW, EDITS).ok()
        })()
        .is_some();
        if !rolled {
            if self.is(HdfsBug::Hdfs4233) {
                // DEFECT (HDFS-4233): the NN keeps serving with zero
                // journals started.
                ctx.log("ERROR: no journals started while rolling edit; NN continues serving");
            } else {
                ctx.panic("rollEditLog failed with no journals; NN shutting down");
            }
        }
    }

    /// NN: append the edit record `{verb} {file}` (hot path).
    fn append_edit(&mut self, ctx: &mut NodeCtx<'_, Hmsg>, verb: &str, file: &str) {
        let ctx = &mut ctx.function("appendEdit");
        if let Ok(fd) = ctx.open(EDITS, OpenFlags::Append) {
            edit_record(&mut self.line, verb, file);
            let _ = ctx.write(fd, self.line.as_bytes());
            let _ = ctx.close(fd);
        }
    }

    /// DN: the block report (hot path, many `fstat`s).
    fn block_report(&mut self, ctx: &mut NodeCtx<'_, Hmsg>) {
        let ctx = &mut ctx.function("blockReport");
        // Block files this DN currently stores.
        let paths: Vec<String> = ctx.list_paths("/dn/");
        for p in paths {
            if let Ok(fd) = ctx.open_read(&p) {
                let _ = ctx.fstat(fd);
                let _ = ctx.close(fd);
            }
        }
    }

    /// DN: validate a replica during block recovery (HDFS-12070 path).
    fn recover_block(&mut self, ctx: &mut NodeCtx<'_, Hmsg>, file: &str) -> bool {
        let ctx = &mut ctx.function("recoverBlock");
        (|| {
            let fd = ctx.open_read(&block_path(file)).ok()?;
            let r = ctx.fstat(fd);
            let _ = ctx.close(fd);
            r.ok()
        })()
        .is_some()
    }

    /// Balancer: probe namenodes and datanodes (HDFS-15032 path).
    fn balancer_round(&mut self, ctx: &mut NodeCtx<'_, Hmsg>) {
        let ctx = &mut ctx.function("balancerRound");
        // Active namenode first.
        if let Err(e) = ctx.connect(NN) {
            if self.is(HdfsBug::Hdfs15032) && self.rounds_completed >= 1 {
                // DEFECT (HDFS-15032): once the balancer holds iteration
                // state from a completed round, the unavailable-namenode
                // path throws out of the dispatcher. (The cold first round
                // handles the same failure in its initialization path.)
                ctx.panic(format!("balancer: unhandled connect exception ({e})"));
            }
            ctx.log(format!(
                "WARN balancer: active NN unreachable ({e}); skipping round"
            ));
            return;
        }
        // Configured standby namenode: never deployed, refuses — a known,
        // handled condition in every binary.
        if let Err(e) = ctx.connect(STANDBY_NN) {
            ctx.log(format!(
                "INFO balancer: standby NN unreachable ({e}); skipping"
            ));
        }
        for dn in DNS {
            if let Err(e) = ctx.connect(dn) {
                ctx.log(format!("WARN balancer: DN {dn} unreachable ({e})"));
            }
        }
        self.rounds_completed += 1;
    }
}

impl Application for Hdfs {
    type Msg = Hmsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Hmsg>) {
        match ctx.node() {
            n if n == NN => {
                let _ = ctx.write_file(EDITS, b"EDITS-SEGMENT-V0\n");
                ctx.set_timer(SimDuration::from_secs(10), ROLL_TIMER);
                ctx.set_timer(SimDuration::from_secs(2), LEASE_TIMER);
            }
            n if n == BALANCER => {
                ctx.set_timer(SimDuration::from_secs(4), BALANCE_TIMER);
            }
            _ => {
                ctx.set_timer(SimDuration::from_secs(2), REPORT_TIMER);
            }
        }
        ctx.set_timer(TICK_PERIOD, tags::TICK);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Hmsg>, tag: u64) {
        match tag {
            tags::TICK => {
                background_tick(ctx, &mut self.tick, ProbeStyle::Jvm, 2, Hmsg::Gossip);
            }
            ROLL_TIMER => {
                self.roll_edit_log(ctx);
                ctx.set_timer(SimDuration::from_secs(10), ROLL_TIMER);
            }
            REPORT_TIMER => {
                self.block_report(ctx);
                ctx.set_timer(SimDuration::from_secs(2), REPORT_TIMER);
            }
            LEASE_TIMER => {
                let now = ctx.now().as_micros();
                let expired: Vec<String> = self
                    .leases
                    .iter()
                    .filter(|(_, (deadline, _))| now > *deadline)
                    .map(|(f, _)| f.clone())
                    .collect();
                for f in expired {
                    ctx.log(format!("INFO lease expired for {f}; recovering block"));
                    let dn = dn_of(&f);
                    let _ = ctx.send(dn, Hmsg::RecoverReq { file: f });
                }
                // The HDFS-12070 manifestation: a lease that outlives every
                // recovery attempt by far.
                for (f, (_, opened)) in &self.leases {
                    if now.saturating_sub(*opened) > 30_000_000 {
                        ctx.log(format!("ERROR file {f} stuck open (lease leaked)"));
                    }
                }
                ctx.set_timer(SimDuration::from_secs(2), LEASE_TIMER);
            }
            BALANCE_TIMER => {
                self.balancer_round(ctx);
                ctx.set_timer(SimDuration::from_secs(4), BALANCE_TIMER);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Hmsg>, from: NodeId, msg: Hmsg) {
        match msg {
            Hmsg::RepBlock { file, val, rid } => {
                // DN stores the replica.
                if let Ok(fd) = ctx.open(&block_path(&file), OpenFlags::Append) {
                    self.line.clear();
                    self.line.push_str(&val);
                    self.line.push('\n');
                    let _ = ctx.write(fd, self.line.as_bytes());
                    let _ = ctx.close(fd);
                }
                let _ = ctx.send(from, Hmsg::RepOk { rid });
            }
            Hmsg::RepOk { rid } => {
                if let Some((client, id)) = self.pending.remove(&rid) {
                    let _ = ctx.reply(client, Hmsg::WriteOk { id });
                }
            }
            Hmsg::Fetch { file, client } => {
                // DN read path, with block-token validation (HDFS-16332).
                let mut retry = false;
                let mut values = String::new();
                {
                    let ctx = &mut ctx.function("serveRead");
                    if self.token_expired {
                        // DEFECT (HDFS-16332): the expired token is never
                        // refreshed; every read is bounced.
                        retry = true;
                    } else {
                        if let Ok(fd) = ctx.open_read(&block_path(&file)) {
                            match ctx.read(fd, 4096) {
                                Ok(data) => {
                                    // The client reports the lines comma-joined;
                                    // join them here, in the one buffer that
                                    // travels DN → NN → client.
                                    for (i, line) in
                                        String::from_utf8_lossy(&data).lines().enumerate()
                                    {
                                        if i > 0 {
                                            values.push(',');
                                        }
                                        values.push_str(line);
                                    }
                                    let _ = ctx.close(fd);
                                }
                                Err(Errno::Eacces) => {
                                    let _ = ctx.close(fd);
                                    ctx.log("WARN block token expired during read");
                                    if self.is(HdfsBug::Hdfs16332) {
                                        self.token_expired = true;
                                    } else {
                                        ctx.log("INFO block token refreshed");
                                    }
                                    retry = true;
                                }
                                Err(_) => {
                                    let _ = ctx.close(fd);
                                    retry = true;
                                }
                            }
                        }
                    }
                }
                let _ = ctx.send(
                    from,
                    Hmsg::Fetched {
                        file,
                        values,
                        client,
                        retry,
                    },
                );
            }
            Hmsg::Fetched {
                file,
                values,
                client,
                retry,
            } => {
                let c = ClientId(client);
                if retry {
                    let _ = ctx.reply(c, Hmsg::ReadRetry { file });
                } else {
                    let _ = ctx.reply(c, Hmsg::ReadOk { file, values });
                }
            }
            Hmsg::RecoverReq { file } => {
                let ok = self.recover_block(ctx, &file);
                let _ = ctx.send(from, Hmsg::RecoverDone { file, ok });
            }
            Hmsg::RecoverDone { file, ok } => {
                if ok {
                    ctx.log(format!("INFO block recovery complete for {file}; closing"));
                    self.leases.remove(&file);
                    self.append_edit(ctx, "close", &file);
                } else {
                    ctx.log(format!("ERROR block recovery failed for {file}"));
                    if self.is(HdfsBug::Hdfs12070) {
                        // DEFECT (HDFS-12070): dropped from the retry queue;
                        // the lease deadline is pushed to infinity so no
                        // further recovery is ever attempted.
                        if let Some((deadline, _)) = self.leases.get_mut(&file) {
                            *deadline = u64::MAX;
                        }
                    }
                    // Correct behaviour: the lease stays expired and the
                    // next lease check retries recovery.
                }
            }
            Hmsg::Gossip => {}
            _ => {}
        }
    }

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, Hmsg>, client: ClientId, req: Hmsg) {
        // Only the NN serves clients.
        if ctx.node() != NN {
            return;
        }
        match req {
            Hmsg::Write { file, val, id } => {
                self.append_edit(ctx, "write", &file);
                self.files
                    .entry(file.clone())
                    .or_default()
                    .push(val.clone());
                self.next_rid += 1;
                let rid = self.next_rid;
                self.pending.insert(rid, (client, id));
                let dn = dn_of(&file);
                let _ = ctx.send(dn, Hmsg::RepBlock { file, val, rid });
            }
            Hmsg::Read { file } => {
                let dn = dn_of(&file);
                let _ = ctx.send(
                    dn,
                    Hmsg::Fetch {
                        file,
                        client: client.0,
                    },
                );
            }
            Hmsg::OpenFile { file } => {
                let now = ctx.now().as_micros();
                self.leases.insert(file.clone(), (now + 8_000_000, now));
                self.append_edit(ctx, "open", &file);
                self.files.entry(file.clone()).or_default();
                // Materialize the under-construction block on its DN.
                self.next_rid += 1;
                let _ = ctx.send(
                    dn_of(&file),
                    Hmsg::RepBlock {
                        file,
                        val: "uc-block".into(),
                        rid: self.next_rid,
                    },
                );
            }
            _ => {}
        }
    }
}

/// One HDFS bug case.
#[derive(Debug, Clone)]
pub struct HdfsCase {
    /// Which seeded defect is active.
    pub bug: HdfsBug,
}

impl rose_core::TargetSystem for HdfsCase {
    type App = Hdfs;

    fn name(&self) -> &str {
        match self.bug {
            HdfsBug::Hdfs4233 => "HDFS-4233",
            HdfsBug::Hdfs12070 => "HDFS-12070",
            HdfsBug::Hdfs15032 => "HDFS-15032",
            HdfsBug::Hdfs16332 => "HDFS-16332",
        }
    }

    fn cluster_size(&self) -> u32 {
        4
    }

    fn build_node(&self, _node: NodeId) -> Hdfs {
        Hdfs::new(Some(self.bug))
    }

    fn attach_workload(&self, sim: &mut rose_sim::Sim<Hdfs>) {
        sim.add_client(Box::new(HdfsClient::new()));
        sim.add_client(Box::new(HdfsClient::new()));
        sim.add_client(Box::new(WriterClient::new()));
    }

    fn oracle(&self, sim: &rose_sim::Sim<Hdfs>) -> bool {
        let logs = &sim.core().logs;
        match self.bug {
            HdfsBug::Hdfs4233 => logs.grep("no journals started while rolling edit"),
            HdfsBug::Hdfs12070 => logs.grep("stuck open (lease leaked)"),
            HdfsBug::Hdfs15032 => logs.grep("balancer: unhandled connect exception"),
            HdfsBug::Hdfs16332 => logs.grep("slow read detected"),
        }
    }

    /// The HDFS symbol table.
    fn symbols(&self) -> SymbolTable {
        SymbolTable::new()
            .function("rollEditLog", "editlog.java", vec![])
            .function("appendEdit", "editlog.java", vec![])
            .function("blockReport", "datanode.java", vec![])
            .function("recoverBlock", "datanode.java", vec![])
            .function("serveRead", "datanode.java", vec![])
            .function("balancerRound", "balancer.java", vec![])
    }
}

/// Scripted capture triggers (the Anduril test cases).
pub fn hdfs_capture(bug: HdfsBug) -> CaptureSpec {
    CaptureSpec::scripted([match bug {
        HdfsBug::Hdfs4233 => scf(NN, SyscallId::Openat, Errno::Eio, Some(EDITS_NEW), 1),
        // Fail the first fstat inside the block-recovery path (the block
        // reports fstat the same file every round, so the bare invocation
        // index varies; the Anduril test pins the recovery context).
        HdfsBug::Hdfs12070 => scf(
            dn_of("f_uc"),
            SyscallId::Fstat,
            Errno::Eio,
            Some(&block_path("f_uc")),
            1,
        )
        .after(rose_inject::Condition::FunctionEntered {
            name: "recoverBlock".into(),
        }),
        // Fail the balancer's active-NN connect in its third round
        // (4 connects per round; the first round's failure is handled by
        // the initialization path).
        HdfsBug::Hdfs15032 => scf(BALANCER, SyscallId::Connect, Errno::Etimedout, None, 9),
        HdfsBug::Hdfs16332 => scf(dn_of("f1"), SyscallId::Read, Errno::Eacces, None, 1),
    }])
}

// --- Workload ---------------------------------------------------------------

/// An append/read workload against the NameNode. Its read is tracked: a
/// read that keeps getting bounced is retried every read period, and one
/// still unfinished 10 s after it began is the HDFS-16332 manifestation.
#[derive(Default)]
pub struct HdfsWorkload {
    /// The read in flight: (history idx, file, started µs, retries).
    read_pending: Option<(usize, String, u64, u32)>,
}

/// The HDFS client.
pub type HdfsClient = ClosedLoop<HdfsWorkload>;

impl Workload for HdfsWorkload {
    type Msg = Hmsg;
    const WRITE_PERIOD: SimDuration = SimDuration::from_millis(80);
    const READ_PERIOD: Option<SimDuration> = Some(SimDuration::from_millis(900));
    const TIMEOUT_US: u64 = 1_500_000;
    const SENDS: u32 = 1;
    const ROUTE: Route = Route::Fixed(NN);

    fn write(&mut self, client: ClientId, n: u64) -> (String, u64, Hmsg) {
        let file = numbered("f", n % 3);
        let val = client_value("c", client.0, "n", n);
        let (op, id) = (append_op(&file, &val), client_op_id(client, n));
        (op, id, Hmsg::Write { file, val, id })
    }

    fn read(&mut self, ctx: &mut ClientCtx<'_, Hmsg>, node: NodeId) {
        let now = ctx.now().as_micros();
        if let Some((hidx, file, started, retries)) = self.read_pending.take() {
            if now.saturating_sub(started) > 10_000_000 {
                ctx.log(format!(
                    "ERROR slow read detected: {file} unfinished after {}s ({retries} retries)",
                    (now - started) / 1_000_000
                ));
                ctx.complete(hidx, OpOutcome::Fail("slow read".into()));
            } else {
                ctx.send(node, Hmsg::Read { file: file.clone() });
                self.read_pending = Some((hidx, file, started, retries + 1));
            }
        } else {
            let file = read_key(ctx, "f");
            let hidx = ctx.invoke(read_op(&file));
            ctx.send(node, Hmsg::Read { file: file.clone() });
            self.read_pending = Some((hidx, file, now, 0));
        }
    }

    fn classify(&mut self, ctx: &mut ClientCtx<'_, Hmsg>, msg: Hmsg) -> Reply {
        match msg {
            Hmsg::WriteOk { id } => Reply::Ack(id),
            // Another file's answer leaves the pending read as it is; a
            // `ReadRetry` keeps it for the next read tick to retry.
            Hmsg::ReadOk { file, values } => {
                if let Some((hidx, ..)) = self.read_pending.take_if(|read| read.1 == file) {
                    ctx.complete(hidx, OpOutcome::Ok(Some(values.into())));
                }
                Reply::Other
            }
            _ => Reply::Other,
        }
    }
}

/// A writer that opens a file for write and never closes it (the lease the
/// HDFS-12070 recovery path fights over).
pub struct WriterClient {
    opened: bool,
}

impl WriterClient {
    /// A fresh writer.
    pub fn new() -> Self {
        WriterClient { opened: false }
    }
}

impl Default for WriterClient {
    fn default() -> Self {
        WriterClient::new()
    }
}

impl ClientDriver<Hmsg> for WriterClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, Hmsg>) {
        ctx.set_timer(SimDuration::from_secs(1), tags::CLIENT_OP);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_, Hmsg>, _tag: u64) {
        if !self.opened {
            self.opened = true;
            ctx.send(
                NN,
                Hmsg::OpenFile {
                    file: "f_uc".into(),
                },
            );
        }
    }

    fn on_reply(&mut self, _ctx: &mut ClientCtx<'_, Hmsg>, _from: NodeId, _msg: Hmsg) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_paths_and_edit_records_are_the_format_text() {
        let mut line = String::from("stale");
        for file in ["f0", "f_uc", ""] {
            assert_eq!(block_path(file), format!("/dn/blk_{file}"));
            for verb in ["open", "write", "close"] {
                edit_record(&mut line, verb, file);
                assert_eq!(line, format!("{verb} {file}\n"));
            }
        }
    }
}
