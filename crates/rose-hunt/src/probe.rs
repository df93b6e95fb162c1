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

use std::collections::BTreeMap;

use rose_events::{NodeId, SyscallId};
use rose_inject::{InjectionSite, SiteKind};
use rose_sim::{ChainId, HookEffects, HookEnv, KernelHook};

/// Collects the observed injection sites of one run.
#[derive(Debug, Default)]
pub struct SiteProbe {
    /// Observed contexts as `seen[node][chain]`, indexed by the kernel's
    /// interned chain id (chain ids are dense): one bit per syscall made
    /// under the chain, and [`ENTERED`] for the entry of its innermost
    /// function. A context already seen — nearly every probe of a run —
    /// costs two index operations and no string.
    seen: Vec<Vec<u32>>,
    /// The function names of every chain in `seen`, resolved when the
    /// chain was first seen ([`SiteProbe::sites`] runs without the kernel).
    chain_names: BTreeMap<ChainId, Vec<String>>,
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
        let marks = self.seen.iter().flatten().map(|bits| bits.count_ones());
        let mut out = Vec::with_capacity(marks.sum::<u32>() as usize);
        for (node, per_chain) in self.seen.iter().enumerate() {
            let node = NodeId(node as u32);
            for (chain, names) in &self.chain_names {
                let bits = per_chain.get(chain.index()).copied().unwrap_or(0);
                // A function site is the function, whatever called it.
                if let (true, Some(function)) = (bits & ENTERED != 0, names.last()) {
                    out.push(InjectionSite {
                        node,
                        kind: SiteKind::Function {
                            name: function.clone(),
                        },
                    });
                }
                for syscall in SyscallId::ALL {
                    if bits & syscall.bit() != 0 {
                        out.push(InjectionSite {
                            node,
                            kind: SiteKind::SyscallContext {
                                chain: names.clone(),
                                syscall,
                                count: 1,
                            },
                        });
                    }
                }
            }
        }
        // Chain ids are in first-seen order; the names decide the order.
        // Only function sites repeat: once per chain that ends in them.
        out.sort();
        out.dedup();
        out
    }

    /// Marks `bit` at the probe's (node, chain).
    fn mark(&mut self, env: &HookEnv, bit: u32) {
        let (node, chain) = (env.node.0 as usize, env.chain.index());
        if self.seen.len() <= node {
            self.seen.resize_with(node + 1, Vec::new);
        }
        let per_chain = &mut self.seen[node];
        if per_chain.len() <= chain {
            per_chain.resize(chain + 1, 0);
        }
        if per_chain[chain] & bit != 0 {
            return;
        }
        per_chain[chain] |= bit;
        self.chain_names
            .entry(env.chain)
            .or_insert_with(|| env.call_chain().to_vec());
    }
}

/// The bit of a function entry in a `seen` entry, above every syscall's.
const ENTERED: u32 = 1 << SyscallId::ALL.len();

impl KernelHook for SiteProbe {
    fn sys_enter(&mut self, env: &HookEnv, args: &rose_sim::SyscallArgs, _fx: &mut HookEffects) {
        self.mark(env, args.call.bit());
    }

    fn uprobe(
        &mut self,
        env: &HookEnv,
        _function: &str,
        offset: Option<u32>,
        _fx: &mut HookEffects,
    ) {
        // The entered function is the innermost name of `env.chain`.
        if offset.is_none() {
            self.mark(env, ENTERED);
        }
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
        let flush = chains.enter(chain, "flushLog");
        let nested = chains.enter(flush, "applyEntry");
        let empty = ChainId::ROOT;
        let t = &chains;
        let fx = &mut HookEffects::none();
        let mut call = |node, chain, call| {
            probe.sys_enter(&env(node, chain, t), &SyscallArgs::bare(call), fx);
        };
        call(0, chain, SyscallId::Write);
        call(0, chain, SyscallId::Write); // a second call: still count 1
        call(1, empty, SyscallId::Fsync);
        probe.uprobe(&env(0, chain, t), "applyEntry", None, fx);
        probe.uprobe(&env(0, chain, t), "applyEntry", None, fx);
        probe.uprobe(&env(0, nested, t), "applyEntry", None, fx); // one site per function
        probe.uprobe(&env(1, flush, t), "flushLog", Some(2), fx); // offsets skipped
        assert_eq!(*fx, HookEffects::none(), "the probe charges nothing");
        assert_eq!(probe.sites().len(), 3);
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

    #[test]
    fn a_repeated_context_changes_nothing() {
        let mut chains = ChainTable::new();
        let apply = chains.enter(ChainId::ROOT, "applyEntry");
        let flush = chains.enter(apply, "flush");
        let t = &chains;
        let contexts = [
            (0, apply, SyscallId::Write),
            (1, flush, SyscallId::Fsync),
            (0, ChainId::ROOT, SyscallId::Send),
            (0, apply, SyscallId::Fsync),
        ];
        let fx = &mut HookEffects::none();
        let mut once = SiteProbe::new();
        let mut often = SiteProbe::new();
        for (node, chain, call) in contexts {
            once.sys_enter(&env(node, chain, t), &SyscallArgs::bare(call), fx);
        }
        for (node, chain, call) in contexts.into_iter().chain(contexts).rev().chain(contexts) {
            often.sys_enter(&env(node, chain, t), &SyscallArgs::bare(call), fx);
        }
        assert_eq!(once.sites().len(), 4);
        assert_eq!(often.sites().len(), 4);
        assert_eq!(once.sites(), often.sites());
    }
}
