//! An HBase-like region store with a procedure-executing master.
//!
//! Node 0 is the master: clients submit administrative procedures, the
//! master executes them asynchronously (persisting a result file) and
//! clients poll `getProcedureResult`. Carries `HBASE-19608`
//! (Anduril-sourced): a race in `MasterRpcServices.getProcedureResult` —
//! the procedure is marked complete before its result is durable, so a
//! failed result-file open returns a null result to the client.

use std::collections::BTreeMap;

use rose_events::{Errno, NodeId, SimDuration, SyscallId};
use rose_profile::{site, SymbolTable};
use rose_sim::{Application, ClientCtx, ClientDriver, ClientId, NodeCtx, OpOutcome};

use crate::common::{benign_probes, tags, ProbeStyle};
use crate::driver::{CaptureMethod, CaptureSpec};

/// The master node.
pub const MASTER: NodeId = NodeId(0);

fn proc_path(pid: u64) -> String {
    format!("/hbase/proc/{pid}")
}

/// Wire messages.
#[derive(Debug, Clone)]
pub enum Bmsg {
    /// Client submits a procedure.
    Submit {
        /// Client-chosen procedure id.
        pid: u64,
    },
    /// Submission accepted.
    SubmitOk {
        /// Procedure id.
        pid: u64,
    },
    /// Client polls the result.
    GetResult {
        /// Procedure id.
        pid: u64,
    },
    /// Result reply; `None` is the HBASE-19608 manifestation.
    Result {
        /// Procedure id.
        pid: u64,
        /// The result payload, if readable.
        payload: Option<String>,
    },
    /// Keepalive gossip.
    Gossip,
}

/// The per-node HBase application.
pub struct HBase {
    /// Whether the HBASE-19608 defect is active.
    bug: bool,
    /// Completed procedure ids (master).
    complete: BTreeMap<u64, bool>,
    tick: u64,
}

impl HBase {
    /// A node, optionally with the seeded defect.
    pub fn new(bug: bool) -> Self {
        HBase {
            bug,
            complete: BTreeMap::new(),
            tick: 0,
        }
    }
}

impl Application for HBase {
    type Msg = Bmsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Bmsg>) {
        ctx.set_timer(SimDuration::from_millis(500), tags::TICK);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Bmsg>, _tag: u64) {
        self.tick += 1;
        benign_probes(ctx, ProbeStyle::Jvm, self.tick);
        if self.tick.is_multiple_of(2) {
            ctx.broadcast(Bmsg::Gossip);
        }
        ctx.set_timer(SimDuration::from_millis(500), tags::TICK);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Bmsg>, _from: NodeId, _msg: Bmsg) {}

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, Bmsg>, client: ClientId, req: Bmsg) {
        if ctx.node() != MASTER {
            return;
        }
        match req {
            Bmsg::Submit { pid } => {
                ctx.enter_function("executeProcedure");
                let persisted = ctx
                    .write_file(&proc_path(pid), format!("result-{pid}").as_bytes())
                    .is_ok();
                if persisted || self.bug {
                    // DEFECT (HBASE-19608): completion is flagged even when
                    // the result never became durable — the race window
                    // `getProcedureResult` falls into.
                    self.complete.insert(pid, true);
                }
                if !persisted {
                    ctx.log(format!("ERROR procedure {pid} result write failed"));
                }
                ctx.exit_function();
                let _ = ctx.reply(client, Bmsg::SubmitOk { pid });
            }
            Bmsg::GetResult { pid } => {
                ctx.enter_function("getProcedureResult");
                let payload = if self.complete.get(&pid).copied().unwrap_or(false) {
                    match ctx.open_read(&proc_path(pid)) {
                        Ok(fd) => {
                            let data = ctx.read(fd, 256).unwrap_or_default();
                            let _ = ctx.close(fd);
                            Some(String::from_utf8_lossy(&data).to_string())
                        }
                        Err(e) => {
                            if self.bug {
                                // DEFECT (HBASE-19608): complete-but-unreadable
                                // returns null to the client.
                                ctx.log(format!(
                                    "ERROR getProcedureResult race: returning null ({e})"
                                ));
                                None
                            } else {
                                // Correct behaviour: report as still running
                                // so the client re-polls.
                                ctx.log(format!("WARN result not yet readable ({e}); retry"));
                                ctx.exit_function();
                                return;
                            }
                        }
                    }
                } else {
                    // Not complete yet: the client re-polls.
                    ctx.exit_function();
                    return;
                };
                ctx.exit_function();
                let _ = ctx.reply(client, Bmsg::Result { pid, payload });
            }
            _ => {}
        }
    }
}

/// The symbol table.
pub fn hbase_symbols() -> SymbolTable {
    SymbolTable::new()
        .function(
            "executeProcedure",
            "master.java",
            vec![
                site::sys(0, SyscallId::Openat),
                site::sys(1, SyscallId::Write),
            ],
        )
        .function(
            "getProcedureResult",
            "master.java",
            vec![
                site::sys(0, SyscallId::Openat),
                site::sys(1, SyscallId::Read),
            ],
        )
}

/// The developer-provided key files.
pub fn hbase_key_files() -> Vec<String> {
    vec!["master.java".into()]
}

/// The HBASE-19608 case.
#[derive(Debug, Clone)]
pub struct HbaseCase;

impl rose_core::TargetSystem for HbaseCase {
    type App = HBase;

    fn name(&self) -> &str {
        "HBASE-19608"
    }

    fn cluster_size(&self) -> u32 {
        3
    }

    fn build_node(&self, _node: NodeId) -> HBase {
        HBase::new(true)
    }

    fn attach_workload(&self, sim: &mut rose_sim::Sim<HBase>) {
        sim.add_client(Box::new(ProcClient::new()));
    }

    fn oracle(&self, sim: &rose_sim::Sim<HBase>) -> bool {
        sim.core()
            .logs
            .grep("getProcedureResult race: returning null")
            && sim.core().logs.grep("FATAL client: null procedure result")
    }

    fn symbols(&self) -> SymbolTable {
        hbase_symbols()
    }

    fn key_files(&self) -> Vec<String> {
        hbase_key_files()
    }

    fn run_duration(&self) -> SimDuration {
        SimDuration::from_secs(60)
    }
}

/// Scripted capture trigger: fail the result-file open for one poll.
pub fn hbase_capture() -> CaptureSpec {
    use rose_inject::{FaultAction, FaultSchedule, ScheduledFault};
    let mut s = FaultSchedule::new();
    s.push(ScheduledFault::new(
        MASTER,
        FaultAction::Scf {
            syscall: SyscallId::Openat,
            errno: Errno::Eio,
            path: Some(proc_path(3)),
            nth: 1,
        },
    ));
    CaptureSpec::from(CaptureMethod::Scripted(s))
}

// --- Workload ---------------------------------------------------------------

/// A procedure-submitting client that polls results.
pub struct ProcClient {
    next_pid: u64,
    polling: Option<(usize, u64, u32)>,
    /// Completed procedures.
    pub done: u64,
}

impl ProcClient {
    /// A fresh client.
    pub fn new() -> Self {
        ProcClient {
            next_pid: 0,
            polling: None,
            done: 0,
        }
    }
}

impl Default for ProcClient {
    fn default() -> Self {
        ProcClient::new()
    }
}

impl ClientDriver<Bmsg> for ProcClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, Bmsg>) {
        ctx.set_timer(SimDuration::from_millis(400), tags::CLIENT_OP);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_, Bmsg>, _tag: u64) {
        match &mut self.polling {
            Some((hidx, pid, polls)) => {
                *polls += 1;
                if *polls > 8 {
                    // The admin client gives up on a stuck procedure.
                    let hidx = *hidx;
                    ctx.complete(hidx, OpOutcome::Timeout);
                    self.polling = None;
                } else {
                    let pid = *pid;
                    ctx.send(MASTER, Bmsg::GetResult { pid });
                }
            }
            None => {
                self.next_pid += 1;
                let pid = self.next_pid;
                let hidx = ctx.invoke(format!("proc pid={pid}"));
                self.polling = Some((hidx, pid, 0));
                ctx.send(MASTER, Bmsg::Submit { pid });
            }
        }
        ctx.set_timer(SimDuration::from_millis(400), tags::CLIENT_OP);
    }

    fn on_reply(&mut self, ctx: &mut ClientCtx<'_, Bmsg>, _from: NodeId, msg: Bmsg) {
        match msg {
            Bmsg::SubmitOk { pid } => {
                // Poll shortly after submission (the racing window).
                ctx.send(MASTER, Bmsg::GetResult { pid });
            }
            Bmsg::Result { pid, payload } => {
                if let Some((hidx, want, _)) = self.polling {
                    if pid == want {
                        match payload {
                            Some(p) => {
                                ctx.complete(hidx, OpOutcome::Ok(Some(p)));
                                self.done += 1;
                            }
                            None => {
                                // The client dereferences the null result.
                                ctx.log("FATAL client: null procedure result (NPE)");
                                ctx.complete(hidx, OpOutcome::Fail("null result".into()));
                            }
                        }
                        self.polling = None;
                    }
                }
            }
            _ => {}
        }
    }
}
