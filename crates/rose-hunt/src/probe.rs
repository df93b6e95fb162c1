//! The site probe: lightweight observation of *where faults could go*.
//!
//! Co-evolving exploration (Box-of-Pain) needs each run to report every
//! execution context it reached, so the next round can aim faults at the
//! contexts this round newly revealed — crash a node and its recovery
//! functions appear; fail a write and the retry path appears. The probe
//! is a zero-charge [`KernelHook`] riding alongside the executor and
//! tracer: at every `sys_enter` it records the execution-index context
//! (node, live call chain, syscall), at every function-entry uprobe the
//! (node, function) site. Charging nothing keeps an exploration run
//! bit-identical to a scripted capture of its schedule (the same hook
//! stack minus the probe), so the hand-off can diagnose the discovery
//! run's own dump.

use std::collections::{BTreeMap, BTreeSet};

use rose_events::{NodeId, SyscallId};
use rose_inject::{InjectionSite, SiteKind};
use rose_sim::{ChainId, HookEffects, HookEnv, KernelHook};

/// Collects the observed injection sites of one run.
#[derive(Debug, Default)]
pub struct SiteProbe {
    /// Observed (node, chain, syscall) contexts, keyed by the kernel's
    /// interned chain id: a context already seen costs one integer-keyed
    /// probe and no allocation.
    syscalls: BTreeSet<(NodeId, ChainId, SyscallId)>,
    /// The function names of every chain in `syscalls`, resolved when the
    /// chain was first seen ([`SiteProbe::sites`] runs without the kernel).
    chain_names: BTreeMap<ChainId, Vec<String>>,
    /// Observed function entry sites per node.
    functions: BTreeMap<NodeId, BTreeSet<String>>,
}

impl SiteProbe {
    /// A fresh probe.
    pub fn new() -> Self {
        SiteProbe::default()
    }

    /// The observed sites, deduped, in a stable order. Syscall contexts
    /// come out keyed at per-context count 1 — the earliest reachable
    /// invocation — which is also what makes two runs that reached the
    /// same context agree on the site regardless of how often each hit it.
    pub fn sites(&self) -> Vec<InjectionSite> {
        let mut out = Vec::with_capacity(self.context_count());
        for (node, functions) in &self.functions {
            for function in functions {
                out.push(InjectionSite {
                    node: *node,
                    kind: SiteKind::Function {
                        name: function.clone(),
                    },
                });
            }
        }
        for (node, chain, syscall) in &self.syscalls {
            out.push(InjectionSite {
                node: *node,
                kind: SiteKind::SyscallContext {
                    chain: self.chain_names[chain].clone(),
                    syscall: *syscall,
                    count: 1,
                },
            });
        }
        // Chain ids are in first-seen order; the names decide the order.
        out.sort();
        out
    }

    /// How many distinct contexts the run touched.
    pub fn context_count(&self) -> usize {
        self.syscalls.len() + self.functions.values().map(BTreeSet::len).sum::<usize>()
    }
}

impl KernelHook for SiteProbe {
    fn name(&self) -> &'static str {
        "rose-hunt-probe"
    }

    fn sys_enter(&mut self, env: &HookEnv, args: &rose_sim::SyscallArgs) -> HookEffects {
        if self.syscalls.insert((env.node, env.chain, args.call)) {
            self.chain_names
                .entry(env.chain)
                .or_insert_with(|| env.call_chain().to_vec());
        }
        HookEffects::none()
    }

    fn uprobe(&mut self, env: &HookEnv, function: &str, offset: Option<u32>) -> HookEffects {
        if offset.is_none() {
            let seen = self.functions.entry(env.node).or_default();
            if !seen.contains(function) {
                seen.insert(function.to_string());
            }
        }
        HookEffects::none()
    }
}

#[cfg(test)]
mod tests {
    use rose_events::{Pid, SimTime};
    use rose_sim::{ChainTable, SyscallArgs};

    use super::*;

    fn env(node: u32, chain: ChainId, chains: &ChainTable) -> HookEnv<'_> {
        HookEnv {
            now: SimTime::ZERO,
            node: NodeId(node),
            pid: Pid(1),
            chain,
            chains,
        }
    }

    #[test]
    fn probe_dedupes_and_orders_sites() {
        let mut probe = SiteProbe::new();
        let mut chains = ChainTable::new();
        let chain = chains.enter(ChainId::ROOT, "applyEntry");
        let empty = ChainId::ROOT;
        let t = &chains;
        probe.sys_enter(&env(0, chain, t), &SyscallArgs::bare(SyscallId::Write));
        probe.sys_enter(&env(0, chain, t), &SyscallArgs::bare(SyscallId::Write));
        probe.sys_enter(&env(1, empty, t), &SyscallArgs::bare(SyscallId::Fsync));
        probe.uprobe(&env(0, empty, t), "applyEntry", None);
        probe.uprobe(&env(0, empty, t), "applyEntry", None);
        probe.uprobe(&env(0, empty, t), "applyEntry", Some(2)); // offsets skipped
        assert_eq!(probe.context_count(), 3);
        let sites = probe.sites();
        assert_eq!(sites.len(), 3);
        assert!(sites.contains(&InjectionSite {
            node: NodeId(0),
            kind: SiteKind::SyscallContext {
                chain: vec!["applyEntry".to_string()],
                syscall: SyscallId::Write,
                count: 1,
            },
        }));
        assert_eq!(sites, {
            let mut sorted = sites.clone();
            sorted.sort();
            sorted
        });
        assert!(sites.iter().all(|s| match &s.kind {
            SiteKind::SyscallContext { count, .. } => *count == 1,
            SiteKind::Function { .. } => true,
        }));
    }
}
