//! The target-system contract: what a developer provides to Rose.
//!
//! The paper (§4): "Rose requires developers to provide the system binaries,
//! a representative workload and a bug oracle." Plus, for the profiling
//! phase, "a list of functions or files that control critical system
//! functionalities". [`TargetSystem`] packages exactly those inputs for one
//! system (or one bug case).

use rose_events::{NodeId, SimDuration};
use rose_profile::SymbolTable;
use rose_sim::{Application, Sim};

/// One target system under study: binaries (the [`Application`] and its
/// [`SymbolTable`]), deployment shape, a representative workload, and a bug
/// oracle.
///
/// Implementations must be `Clone` (they are small configuration values):
/// node factories capture a clone so restarted nodes can be rebuilt at any
/// point of the run. They must also be `Send + Sync` so replay and
/// speculation workers can share one system description across threads —
/// each worker deploys its own fresh [`Sim`] from it.
pub trait TargetSystem: Clone + Send + Sync + 'static {
    /// The application type run on every node.
    type App: Application;

    /// Human-readable system/bug name.
    fn name(&self) -> &str;

    /// Cluster size.
    fn cluster_size(&self) -> u32;

    /// Builds a node's application state (used at boot and on restart).
    fn build_node(&self, node: NodeId) -> Self::App;

    /// Pre-populates node disks and other deployment state. Default: none.
    fn install(&self, sim: &mut Sim<Self::App>) {
        let _ = sim;
    }

    /// Attaches the representative workload (clients) to the cluster.
    fn attach_workload(&self, sim: &mut Sim<Self::App>);

    /// The bug oracle: log parsing, invariant checkers (Elle-style), or
    /// health checks (§4.6). A run is polled with it every few simulated
    /// seconds until it first fires, and `self` is shared by every run of a
    /// campaign, so what a checker wants to keep between two polls of one
    /// run (how far it has read) goes on the run:
    /// [`rose_sim::SimCore::oracle_state`].
    fn oracle(&self, sim: &Sim<Self::App>) -> bool;

    /// The binary's symbol table (the `readelf`/`objdump` output analogue).
    fn symbols(&self) -> SymbolTable;

    /// Developer-provided source files controlling critical functionality
    /// (snapshotting, recovery, elections, …); resolved to candidate
    /// functions during profiling. Default: every file [`Self::symbols`]
    /// names, in first-seen order, so a function added to the table is
    /// monitored without a second edit. An override narrows the candidates
    /// to the functions of the files it lists.
    fn key_files(&self) -> Vec<String> {
        self.symbols().files()
    }

    /// How long one testing run lasts.
    fn run_duration(&self) -> SimDuration {
        SimDuration::from_secs(60)
    }

    /// Wall-clock cost of evaluating the oracle once (e.g. Elle needs about
    /// two minutes to analyze a full transaction history, §6.2). Added to
    /// each run's accounted time.
    fn oracle_cost(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// One line describing what the oracle checks — a scripted symptom
    /// grep, an Elle history analysis, or an invariant checker. Surfaced in
    /// registry listings and coverage reports.
    fn oracle_description(&self) -> String {
        format!("scripted symptom oracle for {}", self.name())
    }
}
