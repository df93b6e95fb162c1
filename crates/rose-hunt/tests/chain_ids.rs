//! Differential oracle for interned calling contexts.
//!
//! The kernel hands hooks a [`ChainId`] instead of a vector of function
//! names; the tracer's execution-index counts and the site probe key on it.
//! This test drives random sequences of function entries and exits, failing
//! and succeeding syscalls, forked child helpers and crash-and-restart
//! cycles on three nodes, with a reference hook riding along that keys the
//! same bookkeeping on the resolved **names** — the representation the ids
//! replaced. Ids and names must agree everywhere: equal ids exactly when
//! equal names, the same per-context invocation count on every recorded
//! SCF, and the same site list. (It lives in `rose-hunt` because that is
//! the one crate that sees the kernel, the tracer and the probe.)

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use proptest::prelude::*;
use rose_events::{EventKind, NodeId, SimDuration, SyscallId};
use rose_hunt::SiteProbe;
use rose_inject::{InjectionSite, SiteKind};
use rose_sim::{
    Application, ChainId, HookEffects, HookEnv, KernelHook, NodeCtx, Sim, SimConfig, SysResult,
    SyscallArgs,
};
use rose_trace::{Tracer, TracerConfig};

const FUNCTIONS: [&str; 4] = ["recover", "applyEntry", "flushLog", "sync"];

/// One step of a scripted callback.
#[derive(Debug, Clone)]
enum Op {
    Enter(usize),
    Exit,
    /// A syscall that fails (recorded as an SCF with its execution index).
    Fail(usize),
    /// Syscalls that succeed (counted, not recorded).
    Succeed(usize),
    /// The nested ops run under a freshly forked child pid.
    Child(Vec<Op>),
    /// The process aborts here, mid-function; the supervisor restarts it.
    Crash,
}

fn arb_leaf() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..FUNCTIONS.len()).prop_map(Op::Enter),
        (0..FUNCTIONS.len()).prop_map(Op::Enter),
        Just(Op::Exit),
        (0usize..4).prop_map(Op::Fail),
        (0usize..4).prop_map(Op::Fail),
        (0usize..2).prop_map(Op::Succeed),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Mostly leaves; a fork in ten ops, a crash in twenty.
    (
        0u8..20,
        arb_leaf(),
        proptest::collection::vec(arb_leaf(), 0..6),
    )
        .prop_map(|(pick, leaf, child)| match pick {
            0 => Op::Crash,
            1 | 2 => Op::Child(child),
            _ => leaf,
        })
}

/// One node's script: a list of callbacks, each a list of ops.
fn arb_script() -> impl Strategy<Value = Vec<Vec<Op>>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 0..16), 1..6)
}

/// Runs one callback's ops, leaving the function stack as it found it (the
/// kernel asserts that of every callback that returns).
fn run_ops(ctx: &mut NodeCtx<'_, ()>, ops: &[Op]) {
    let mut depth = 0usize;
    for op in ops {
        match op {
            Op::Enter(f) => {
                ctx.enter_function(FUNCTIONS[*f]);
                depth += 1;
            }
            Op::Exit => {
                if depth > 0 {
                    ctx.exit_function();
                    depth -= 1;
                }
            }
            Op::Fail(0) => {
                let _ = ctx.stat("/missing");
            }
            Op::Fail(1) => {
                let _ = ctx.readlink("/missing");
            }
            Op::Fail(2) => {
                let _ = ctx.open_read("/missing");
            }
            Op::Fail(_) => {
                let _ = ctx.unlink("/missing");
            }
            Op::Succeed(0) => {
                let _ = ctx.accept();
            }
            Op::Succeed(_) => {
                let _ = ctx.write_file("/state", b"x");
            }
            Op::Child(ops) => ctx.as_child(|child| run_ops(child, ops)),
            Op::Crash => ctx.panic("scripted crash"),
        }
    }
    for _ in 0..depth {
        ctx.exit_function();
    }
}

/// Plays its node's script one callback per tick. The position outlives
/// the process, so a restarted node carries on with the next callback.
struct ScriptNode {
    script: Rc<Vec<Vec<Op>>>,
    next: Rc<Cell<usize>>,
}

impl Application for ScriptNode {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, ()>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }

    fn on_message(&mut self, _: &mut NodeCtx<'_, ()>, _: NodeId, _: ()) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, ()>, _tag: u64) {
        let i = self.next.get();
        let Some(ops) = self.script.get(i) else {
            return;
        };
        self.next.set(i + 1);
        ctx.set_timer(SimDuration::from_millis(1), 0);
        run_ops(ctx, ops);
    }
}

/// The reference: the tracer's and the probe's bookkeeping keyed on the
/// resolved names, plus the id ⇔ names bijection check.
#[derive(Default)]
struct NameKeyed {
    counts: BTreeMap<(NodeId, Vec<String>, SyscallId), u32>,
    /// `(node, chain, syscall, per-context count)` of every failed call.
    failures: Vec<(NodeId, Vec<String>, SyscallId, u32)>,
    contexts: BTreeSet<(NodeId, Vec<String>, SyscallId)>,
    functions: BTreeSet<(NodeId, String)>,
    names_of: BTreeMap<ChainId, Vec<String>>,
    id_of: BTreeMap<Vec<String>, ChainId>,
    /// A panic inside a hook would be swallowed as a node crash, so
    /// violations are collected and asserted after the run.
    violations: Vec<String>,
}

impl NameKeyed {
    fn check_bijection(&mut self, env: &HookEnv) {
        let names = env.call_chain().to_vec();
        let by_id = self
            .names_of
            .entry(env.chain)
            .or_insert_with(|| names.clone());
        if *by_id != names {
            self.violations.push(format!(
                "{:?} named both {by_id:?} and {names:?}",
                env.chain
            ));
        }
        let by_names = *self.id_of.entry(names.clone()).or_insert(env.chain);
        if by_names != env.chain {
            self.violations.push(format!(
                "{names:?} is both {by_names:?} and {:?}",
                env.chain
            ));
        }
        if env.chains.lookup(&names) != Some(env.chain) {
            self.violations
                .push(format!("lookup({names:?}) is not {:?}", env.chain));
        }
    }
}

impl KernelHook for NameKeyed {
    fn name(&self) -> &'static str {
        "name-keyed-reference"
    }

    fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, _fx: &mut HookEffects) {
        self.check_bijection(env);
        self.contexts
            .insert((env.node, env.call_chain().to_vec(), args.call));
    }

    fn sys_exit(
        &mut self,
        env: &HookEnv,
        args: &SyscallArgs,
        result: &SysResult,
        _fx: &mut HookEffects,
    ) {
        self.check_bijection(env);
        let chain = env.call_chain().to_vec();
        let count = self
            .counts
            .entry((env.node, chain.clone(), args.call))
            .or_insert(0);
        *count += 1;
        if result.is_err() {
            self.failures.push((env.node, chain, args.call, *count));
        }
    }

    fn uprobe(
        &mut self,
        env: &HookEnv,
        function: &str,
        offset: Option<u32>,
        _fx: &mut HookEffects,
    ) {
        self.check_bijection(env);
        if env.call_chain().last().map(String::as_str) != Some(function) {
            self.violations
                .push(format!("uprobe of {function} under {:?}", env.call_chain()));
        }
        if offset.is_none() {
            self.functions.insert((env.node, function.to_string()));
        }
    }
}

proptest! {
    #[test]
    fn chain_ids_agree_with_name_keyed_bookkeeping(
        scripts in (arb_script(), arb_script(), arb_script()),
        seed in 0u64..1_000,
    ) {
        let scripts = [Rc::new(scripts.0), Rc::new(scripts.1), Rc::new(scripts.2)];
        let positions = [Rc::new(Cell::new(0)), Rc::new(Cell::new(0)), Rc::new(Cell::new(0))];
        let mut sim = Sim::new(SimConfig::new(3, seed), move |node| ScriptNode {
            script: scripts[node.0 as usize].clone(),
            next: positions[node.0 as usize].clone(),
        });
        sim.add_hook(Box::new(NameKeyed::default()));
        sim.add_hook(Box::new(Tracer::new(
            TracerConfig::rose(std::iter::empty()).with_window(100_000),
        )));
        sim.add_hook(Box::new(SiteProbe::new()));
        sim.start();
        // Five callbacks a node, each possibly a crash and a 2–2.5 s restart.
        sim.run_for(SimDuration::from_secs(30));

        let now = sim.now();
        let trace = sim.hook_mut::<Tracer>().unwrap().dump(now);
        let reference = sim.hook_ref::<NameKeyed>().unwrap();
        prop_assert!(reference.violations.is_empty(), "{:?}", reference.violations);

        // Per-context invocation counts: the id-keyed table stamped the
        // same execution index on every failed call as the name-keyed map.
        let recorded: Vec<_> = trace
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Scf { syscall, ei, .. } => {
                    let ei = ei.as_ref().expect("the tracer stamps every SCF");
                    Some((e.node, ei.chain.clone(), *syscall, ei.count))
                }
                _ => None,
            })
            .collect();
        let mut expected = reference.failures.clone();
        // The dump is ordered by (time, node); the hook saw kernel order.
        // Counts within one context only ever grow, so sorting both sides
        // the same way loses nothing.
        let mut recorded_sorted = recorded;
        recorded_sorted.sort();
        expected.sort();
        prop_assert_eq!(recorded_sorted, expected);

        // The probe's sites are the name-keyed probe's.
        let mut want: Vec<InjectionSite> = reference
            .functions
            .iter()
            .map(|(node, name)| InjectionSite {
                node: *node,
                kind: SiteKind::Function { name: name.clone() },
            })
            .chain(reference.contexts.iter().map(|(node, chain, syscall)| InjectionSite {
                node: *node,
                kind: SiteKind::SyscallContext {
                    chain: chain.clone(),
                    syscall: *syscall,
                    count: 1,
                },
            }))
            .collect();
        want.sort();
        let probe = sim.hook_ref::<SiteProbe>().unwrap();
        prop_assert_eq!(probe.sites().len(), want.len());
        prop_assert_eq!(probe.sites(), want);
    }
}
