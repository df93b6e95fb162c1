//! A Tendermint-like BFT validator node.
//!
//! Three validators taking turns proposing blocks. Carries
//! `Tendermint-5839` (manually selected): the validator does not validate
//! its access to the private-key file — when the key cannot be opened
//! (wrong permissions), it proceeds and signs blocks with an unvalidated
//! key instead of refusing to start.

use rose_events::{Errno, NodeId, SimDuration, SyscallId};
use rose_profile::{site, SymbolTable};
use rose_sim::{Application, ClientCtx, ClientDriver, ClientId, NodeCtx, OpOutcome};

use crate::common::{benign_probes, tags, ProbeStyle};
use crate::driver::{CaptureMethod, CaptureSpec};

const PRIV_KEY: &str = "/tm/priv_validator_key.json";

/// Wire messages.
#[derive(Debug, Clone)]
pub enum Tmsg {
    /// A proposed block.
    Proposal {
        /// Height.
        height: u64,
        /// Proposer signature tag.
        signature: String,
    },
    /// A prevote for a proposal.
    Prevote {
        /// Height.
        height: u64,
    },
    /// Client transaction submission.
    Tx {
        /// Payload.
        data: String,
        /// Client op id.
        id: u64,
    },
    /// Transaction included.
    TxOk {
        /// Client op id.
        id: u64,
    },
    /// Keepalive gossip.
    Gossip,
}

/// The per-validator application.
pub struct Tendermint {
    /// Whether the Tendermint-5839 defect is active.
    bug: bool,
    key: Option<String>,
    height: u64,
    /// Pending client acks at the current proposer.
    pending: Vec<(ClientId, u64)>,
    tick: u64,
}

impl Tendermint {
    /// A validator, optionally with the seeded defect.
    pub fn new(bug: bool) -> Self {
        Tendermint {
            bug,
            key: None,
            height: 0,
            pending: Vec::new(),
            tick: 0,
        }
    }

    /// Loads the validator key at boot (the Tendermint-5839 site).
    fn load_priv_validator(&mut self, ctx: &mut NodeCtx<'_, Tmsg>) {
        ctx.enter_function("loadPrivValidator");
        match ctx.read_file(PRIV_KEY) {
            Ok(bytes) => {
                self.key = Some(String::from_utf8_lossy(&bytes).to_string());
            }
            Err(e) => {
                ctx.log(format!("WARN cannot open validator key: {e}"));
                if self.bug {
                    // DEFECT (Tendermint-5839): no permission validation —
                    // the node proceeds with an unvalidated (empty) key.
                    self.key = None;
                } else {
                    ctx.exit_function();
                    ctx.panic("validator key unreadable; refusing to start");
                }
            }
        }
        ctx.exit_function();
    }
}

impl Application for Tendermint {
    type Msg = Tmsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Tmsg>) {
        self.load_priv_validator(ctx);
        ctx.set_timer(SimDuration::from_millis(500), tags::TICK);
        ctx.set_timer(SimDuration::from_millis(300), tags::HEARTBEAT);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Tmsg>, tag: u64) {
        match tag {
            tags::HEARTBEAT => {
                // Round-robin proposer by height.
                self.height += 1;
                let proposer = NodeId((self.height % u64::from(ctx.cluster_size())) as u32);
                if proposer == ctx.node() {
                    ctx.enter_function("signProposal");
                    let signature = match &self.key {
                        Some(k) => format!("sig:{}", &k[..6.min(k.len())]),
                        None => {
                            // The manifestation: blocks signed with an
                            // unvalidated key.
                            ctx.log("ERROR signed block with unvalidated key");
                            "sig:UNVALIDATED".to_string()
                        }
                    };
                    ctx.exit_function();
                    ctx.broadcast(Tmsg::Proposal {
                        height: self.height,
                        signature,
                    });
                    for (client, id) in std::mem::take(&mut self.pending) {
                        let _ = ctx.reply(client, Tmsg::TxOk { id });
                    }
                }
                ctx.set_timer(SimDuration::from_millis(300), tags::HEARTBEAT);
            }
            tags::TICK => {
                self.tick += 1;
                benign_probes(ctx, ProbeStyle::Native, self.tick);
                if self.tick.is_multiple_of(2) {
                    ctx.broadcast(Tmsg::Gossip);
                }
                ctx.set_timer(SimDuration::from_millis(500), tags::TICK);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Tmsg>, from: NodeId, msg: Tmsg) {
        if let Tmsg::Proposal { height, .. } = msg {
            self.height = self.height.max(height);
            let _ = ctx.send(from, Tmsg::Prevote { height });
        }
    }

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, Tmsg>, client: ClientId, req: Tmsg) {
        if let Tmsg::Tx { id, .. } = req {
            self.pending.push((client, id));
            let _ = ctx;
        }
    }
}

/// The symbol table.
pub fn tendermint_symbols() -> SymbolTable {
    SymbolTable::new()
        .function(
            "loadPrivValidator",
            "privval.go",
            vec![
                site::sys(0, SyscallId::Openat),
                site::sys(1, SyscallId::Read),
            ],
        )
        .function("signProposal", "privval.go", vec![site::other(0)])
}

/// The developer-provided key files.
pub fn tendermint_key_files() -> Vec<String> {
    vec!["privval.go".into()]
}

/// The Tendermint-5839 case.
#[derive(Debug, Clone)]
pub struct TendermintCase;

impl rose_core::TargetSystem for TendermintCase {
    type App = Tendermint;

    fn name(&self) -> &str {
        "Tendermint-5839"
    }

    fn cluster_size(&self) -> u32 {
        3
    }

    fn build_node(&self, _node: NodeId) -> Tendermint {
        Tendermint::new(true)
    }

    fn install(&self, sim: &mut rose_sim::Sim<Tendermint>) {
        for n in 0..3 {
            sim.install_file(
                NodeId(n),
                PRIV_KEY,
                b"ed25519-private-key-material".to_vec(),
            );
        }
    }

    fn attach_workload(&self, sim: &mut rose_sim::Sim<Tendermint>) {
        sim.add_client(Box::new(TxClient::new()));
    }

    fn oracle(&self, sim: &rose_sim::Sim<Tendermint>) -> bool {
        sim.core().logs.grep("signed block with unvalidated key")
    }

    fn symbols(&self) -> SymbolTable {
        tendermint_symbols()
    }

    fn key_files(&self) -> Vec<String> {
        tendermint_key_files()
    }

    fn run_duration(&self) -> SimDuration {
        SimDuration::from_secs(40)
    }
}

/// Scripted capture trigger: the key file open fails with EACCES at boot.
pub fn tendermint_capture() -> CaptureSpec {
    use rose_inject::{FaultAction, FaultSchedule, ScheduledFault};
    let mut s = FaultSchedule::new();
    s.push(ScheduledFault::new(
        NodeId(1),
        FaultAction::Scf {
            syscall: SyscallId::Openat,
            errno: Errno::Eacces,
            path: Some(PRIV_KEY.into()),
            nth: 1,
        },
    ));
    CaptureSpec::from(CaptureMethod::Scripted(s))
}

// --- Workload ---------------------------------------------------------------

/// A transaction-submitting client.
pub struct TxClient {
    counter: u64,
    outstanding: Option<(usize, u64, u64)>,
    /// Included transactions.
    pub included: u64,
}

impl TxClient {
    /// A fresh client.
    pub fn new() -> Self {
        TxClient {
            counter: 0,
            outstanding: None,
            included: 0,
        }
    }
}

impl Default for TxClient {
    fn default() -> Self {
        TxClient::new()
    }
}

impl ClientDriver<Tmsg> for TxClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, Tmsg>) {
        ctx.set_timer(SimDuration::from_millis(150), tags::CLIENT_OP);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_, Tmsg>, _tag: u64) {
        let now = ctx.now().as_micros();
        if let Some((hidx, _, deadline)) = self.outstanding {
            if now > deadline {
                ctx.complete(hidx, OpOutcome::Timeout);
                self.outstanding = None;
            }
        }
        if self.outstanding.is_none() {
            self.counter += 1;
            let id = self.counter;
            let hidx = ctx.invoke(format!("append k=txs v={id}"));
            let target = NodeId((id % 3) as u32);
            ctx.send(
                target,
                Tmsg::Tx {
                    data: format!("tx{id}"),
                    id,
                },
            );
            self.outstanding = Some((hidx, id, now + 2_000_000));
        }
        ctx.set_timer(SimDuration::from_millis(150), tags::CLIENT_OP);
    }

    fn on_reply(&mut self, ctx: &mut ClientCtx<'_, Tmsg>, _from: NodeId, msg: Tmsg) {
        if let Tmsg::TxOk { id } = msg {
            if let Some((hidx, want, _)) = self.outstanding {
                if id == want {
                    ctx.complete(hidx, OpOutcome::Ok(None));
                    self.outstanding = None;
                    self.included += 1;
                }
            }
        }
    }
}
