//! Bring your own system: reproduce a bug in an application you define.
//!
//! This is the downstream-user story: write a distributed application
//! against the simulated kernel, give Rose the developer inputs the paper
//! asks for (binary symbols, a workload, a bug oracle), and let the
//! workflow find the reproducing fault schedule. The paper's key files
//! default to every file the symbol table names; a system overrides
//! `TargetSystem::key_files` only to monitor fewer of them.
//!
//! The toy system here is a two-node "config store" whose reload path
//! mishandles a failed `rename`: the store keeps serving the *old* config
//! while reporting the new one as active.
//!
//! ```sh
//! cargo run --release --example custom_system
//! ```

use rose::core::{Rose, TargetSystem};
use rose::events::{Errno, NodeId, SimDuration, SyscallId};
use rose::inject::{Executor, FaultAction, FaultSchedule, ScheduledFault};
use rose::profile::{site, SymbolTable};
use rose::sim::{Application, ClientCtx, ClientDriver, ClientId, NodeCtx};

const ACTIVE: &str = "/store/config.active";
const STAGED: &str = "/store/config.staged";

/// Messages of the toy config store.
#[derive(Clone, Debug)]
enum Msg {
    /// Client: stage and activate a new config version.
    Reload { version: u64 },
    /// Server: acknowledged with the version it now *claims* to serve.
    ReloadOk { version: u64 },
    /// Client: which version is actually served?
    Query,
    /// Server: the version read back from the active file.
    Version { version: u64 },
}

/// The config store node.
struct ConfigStore;

impl Application for ConfigStore {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Msg>) {
        let _ = ctx.write_file(ACTIVE, b"0");
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, Msg>, _tag: u64) {}
    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Msg>, _from: NodeId, _msg: Msg) {}

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, Msg>, client: ClientId, req: Msg) {
        match req {
            Msg::Reload { version } => {
                {
                    // An instrumented function is a scope: its uprobe fires
                    // here, and the function returns where the block ends.
                    let ctx = &mut ctx.function("reloadConfig");
                    let _ = ctx.write_file(STAGED, version.to_string().as_bytes());
                    // THE BUG: a failed rename is ignored — the node replies
                    // with the new version while the active file still
                    // holds the old one.
                    let _ = ctx.rename(STAGED, ACTIVE);
                }
                let _ = ctx.reply(client, Msg::ReloadOk { version });
            }
            Msg::Query => {
                let v = ctx
                    .read_file(ACTIVE)
                    .ok()
                    .and_then(|b| String::from_utf8_lossy(&b).parse().ok())
                    .unwrap_or(0);
                let _ = ctx.reply(client, Msg::Version { version: v });
            }
            _ => {}
        }
    }
}

/// A client that reloads configs and cross-checks the served version.
struct Admin {
    next: u64,
    claimed: u64,
    /// Set when the served version disagrees with an acknowledged reload.
    mismatch: bool,
}

impl ClientDriver<Msg> for Admin {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, Msg>) {
        ctx.set_timer(SimDuration::from_millis(200), 1);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_, Msg>, _tag: u64) {
        self.next += 1;
        let h = ctx.invoke(format!("append k=cfg v={}", self.next));
        let _ = h;
        ctx.send(NodeId(0), Msg::Reload { version: self.next });
        ctx.set_timer(SimDuration::from_millis(200), 1);
    }

    fn on_reply(&mut self, ctx: &mut ClientCtx<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::ReloadOk { version } => {
                self.claimed = version;
                ctx.send(NodeId(0), Msg::Query);
            }
            Msg::Version { version } if version != self.claimed => {
                ctx.log(format!(
                    "ERROR config mismatch: claimed {} but serving {version}",
                    self.claimed
                ));
                self.mismatch = true;
            }
            _ => {}
        }
    }
}

/// The developer inputs Rose asks for, bundled as a [`TargetSystem`].
#[derive(Clone)]
struct ConfigStoreCase;

impl TargetSystem for ConfigStoreCase {
    type App = ConfigStore;

    fn name(&self) -> &str {
        "config-store/stale-reload"
    }
    fn cluster_size(&self) -> u32 {
        2
    }
    fn build_node(&self, _n: NodeId) -> ConfigStore {
        ConfigStore
    }
    fn attach_workload(&self, sim: &mut rose::sim::Sim<ConfigStore>) {
        sim.add_client(Box::new(Admin {
            next: 0,
            claimed: 0,
            mismatch: false,
        }));
    }
    fn oracle(&self, sim: &rose::sim::Sim<ConfigStore>) -> bool {
        sim.core().logs.grep("config mismatch")
    }
    fn symbols(&self) -> SymbolTable {
        SymbolTable::new().function(
            "reloadConfig",
            "reload.rs",
            vec![
                site::sys(0, SyscallId::Openat),
                site::sys(1, SyscallId::Write),
                site::sys(2, SyscallId::Rename),
            ],
        )
    }
    fn run_duration(&self) -> SimDuration {
        SimDuration::from_secs(30)
    }
}

fn main() {
    let rose = Rose::new(ConfigStoreCase);
    let profile = rose.profile();

    // The "production" incident: a rename failure during some reload.
    let mut trigger = FaultSchedule::new();
    trigger.push(ScheduledFault::new(
        NodeId(0),
        FaultAction::Scf {
            syscall: SyscallId::Rename,
            errno: Errno::Eio,
            path: Some(STAGED.into()),
            nth: 3,
        },
    ));
    let cap = rose.capture_trace(
        &profile,
        vec![Box::new(Executor::new(trigger))],
        7,
        SimDuration::from_secs(30),
    );
    assert!(cap.bug, "the incident trace shows the mismatch");
    println!("captured an incident trace with {} events", cap.trace.len());

    // Hand it to Rose.
    let report = rose.reproduce(&profile, &cap.trace);
    println!(
        "reproduced={} at {:.0}% replay rate ({} schedules, {} runs)",
        report.reproduced, report.replay_rate, report.schedules_generated, report.runs
    );
    println!("\nschedule:\n{}", report.schedule.unwrap().to_yaml());
}
