//! A Tendermint-like BFT validator node.
//!
//! Three validators taking turns proposing blocks. Carries
//! `Tendermint-5839` (manually selected): the validator does not validate
//! its access to the private-key file — when the key cannot be opened
//! (wrong permissions), it proceeds and signs blocks with an unvalidated
//! key instead of refusing to start.

use rose_events::{Errno, NodeId, SimDuration, SyscallId};
use rose_profile::{site, SymbolTable};
use rose_sim::{Application, ClientCtx, ClientId, NodeCtx};

use crate::common::{
    benign_probes, numbered, tags, ClosedLoop, ProbeStyle, Reply, Route, Workload,
};
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
        let ctx = &mut ctx.function("loadPrivValidator");
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
                    ctx.panic("validator key unreadable; refusing to start");
                }
            }
        }
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
                    let _ = ctx.function("signProposal");
                    let signature = match &self.key {
                        Some(k) => ["sig:", &k[..6.min(k.len())]].concat(),
                        None => {
                            // The manifestation: blocks signed with an
                            // unvalidated key.
                            ctx.log("ERROR signed block with unvalidated key");
                            "sig:UNVALIDATED".to_string()
                        }
                    };
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

    /// The symbol table.
    fn symbols(&self) -> SymbolTable {
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

/// A transaction-submitting workload: transaction `id` goes to validator
/// `id % 3`, and nothing is read.
#[derive(Default)]
pub struct TxWorkload;

/// The Tendermint client; `acked` counts included transactions.
pub type TxClient = ClosedLoop<TxWorkload>;

impl Workload for TxWorkload {
    type Msg = Tmsg;
    const WRITE_PERIOD: SimDuration = SimDuration::from_millis(150);
    const READ_PERIOD: Option<SimDuration> = None;
    const TIMEOUT_US: u64 = 2_000_000;
    const SENDS: u32 = 1;
    const ROUTE: Route = Route::Spread(3);

    fn write(&mut self, _client: ClientId, id: u64) -> (String, u64, Tmsg) {
        let tx = Tmsg::Tx {
            data: numbered("tx", id),
            id,
        };
        (numbered("append k=txs v=", id), id, tx)
    }

    fn classify(&mut self, _ctx: &mut ClientCtx<'_, Tmsg>, msg: Tmsg) -> Reply {
        match msg {
            Tmsg::TxOk { id } => Reply::Ack(id),
            _ => Reply::Other,
        }
    }
}
