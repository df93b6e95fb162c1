//! Execution-index stability under workload perturbation.
//!
//! The Level-2 flat counter keys an injection on "the nth invocation of
//! syscall X", which drifts as soon as the interleaving adds or removes
//! unrelated invocations earlier in the run. An execution-index condition
//! ([`Condition::ExecutionIndex`]) keys on (calling context, per-context
//! count) instead. These properties perturb a scripted workload — gossip
//! blocks reordered and resized, timers jittered, extra benign syscalls
//! inserted — and assert that the EI-keyed condition keeps hitting the same
//! logical injection site while the flat-counter condition misses it
//! whenever the benign prefix changed.

use proptest::prelude::*;
use rose_events::{Errno, NodeId, SimDuration, SyscallId};
use rose_inject::{Condition, Executor, FaultAction, FaultSchedule, ScheduledFault};
use rose_sim::{
    Application, HookEffects, HookEnv, KernelHook, NodeCtx, Sim, SimConfig, SysResult, SyscallArgs,
};

/// One step of node 0's scripted workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A benign block: `k` gossip sends under `gossip`.
    Gossip(u8),
    /// The injection-relevant block: one send under `replicateEntry`.
    Replicate,
}

#[derive(Clone, Debug)]
struct Beat;

const TICK: u64 = 1;

/// Node 0 executes one [`Op`] per timer tick; other nodes are passive.
struct ScriptApp {
    ops: Vec<Op>,
    next: usize,
    jitter: Vec<u64>,
}

impl Application for ScriptApp {
    type Msg = Beat;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Beat>) {
        if !self.ops.is_empty() {
            ctx.set_timer(SimDuration::from_millis(1), TICK);
        }
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Beat>, _from: NodeId, _msg: Beat) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Beat>, _tag: u64) {
        match self.ops[self.next] {
            Op::Gossip(k) => {
                let ctx = &mut ctx.function("gossip");
                for _ in 0..k {
                    let _ = ctx.send(NodeId(1), Beat);
                }
            }
            Op::Replicate => {
                let ctx = &mut ctx.function("replicateEntry");
                let _ = ctx.send(NodeId(1), Beat);
            }
        }
        self.next += 1;
        if self.next < self.ops.len() {
            let jitter = self.jitter[self.next % self.jitter.len()];
            ctx.set_timer(SimDuration::from_micros(1_000 + jitter), TICK);
        }
    }
}

/// Observes node 0's `send` invocations: a flat running ordinal bumped on
/// every `sys_exit`, plus the per-(calling context) count the kernel hands
/// the call, which the tracer stamps. Injected failures (ETIMEDOUT) are
/// recorded as hits.
#[derive(Default)]
struct SendSpy {
    flat_ordinal: u64,
    /// Every node-0 send: `(flat ordinal, chain, per-context count)`.
    sends: Vec<(u64, Vec<String>, u32)>,
    /// The overridden sends among them.
    hits: Vec<(u64, Vec<String>, u32)>,
}

impl KernelHook for SendSpy {
    fn sys_exit(
        &mut self,
        env: &HookEnv,
        args: &SyscallArgs,
        result: &SysResult,
        _fx: &mut HookEffects,
    ) {
        if env.node == NodeId(0) && args.call == SyscallId::Send {
            self.flat_ordinal += 1;
            let chain = env.call_chain().to_vec();
            self.sends.push((self.flat_ordinal, chain.clone(), args.ei));
            if matches!(result, Err(Errno::Etimedout)) {
                self.hits.push((self.flat_ordinal, chain, args.ei));
            }
        }
    }
}

/// Runs the scripted workload (2 nodes), optionally under an injection
/// schedule, and returns the spy.
fn run(ops: &[Op], jitter: &[u64], schedule: Option<FaultSchedule>) -> SendSpy {
    let ops_owned = ops.to_vec();
    let jitter_owned = if jitter.is_empty() {
        vec![0]
    } else {
        jitter.to_vec()
    };
    let mut sim = Sim::new(SimConfig::new(2, 77), move |node| ScriptApp {
        ops: if node == NodeId(0) {
            ops_owned.clone()
        } else {
            Vec::new()
        },
        next: 0,
        jitter: jitter_owned.clone(),
    });
    if let Some(s) = schedule {
        sim.add_hook(Box::new(Executor::new(s)));
    }
    sim.add_hook(Box::new(SendSpy::default()));
    sim.start();
    sim.run_for(SimDuration::from_secs(2));
    let mut sims = sim;
    std::mem::take(sims.hook_mut::<SendSpy>().unwrap())
}

/// The baseline workload the "production trace" came from.
fn baseline_ops() -> Vec<Op> {
    vec![
        Op::Gossip(2),
        Op::Replicate,
        Op::Gossip(1),
        Op::Replicate,
        Op::Gossip(1),
    ]
}

const TARGET_CHAIN: &[&str] = &["replicateEntry"];
/// The injection site: the 2nd send made under `replicateEntry`.
const TARGET_COUNT: u32 = 2;

fn target_chain() -> Vec<String> {
    TARGET_CHAIN.iter().map(|s| s.to_string()).collect()
}

/// The flat invocation ordinal of the injection site on the baseline
/// interleaving — what a Level-2 sweep would have discovered.
fn baseline_flat_nth() -> u64 {
    let spy = run(&baseline_ops(), &[], None);
    spy.sends
        .iter()
        .find(|(_, chain, count)| chain == &target_chain() && *count == TARGET_COUNT)
        .expect("baseline contains the target send")
        .0
}

fn ei_schedule() -> FaultSchedule {
    let mut s = FaultSchedule::new();
    let fault = ScheduledFault::new(
        NodeId(0),
        FaultAction::Scf {
            syscall: SyscallId::Send,
            errno: Errno::Etimedout,
            path: None,
            nth: 1,
        },
    )
    .after(Condition::ExecutionIndex {
        chain: target_chain(),
        syscall: SyscallId::Send,
        count: u64::from(TARGET_COUNT),
    });
    s.push(fault);
    s
}

fn flat_schedule(nth: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    s.push(ScheduledFault::new(
        NodeId(0),
        FaultAction::Scf {
            syscall: SyscallId::Send,
            errno: Errno::Etimedout,
            path: None,
            nth,
        },
    ));
    s
}

/// A perturbed workload: gossip blocks of arbitrary sizes before, between,
/// and after the two replicates, plus timer jitter.
fn perturbed(before: &[u8], between: &[u8], after: &[u8]) -> (Vec<Op>, u64) {
    let mut ops = Vec::new();
    let mut benign_prefix = 0u64;
    for &k in before {
        ops.push(Op::Gossip(k));
        benign_prefix += u64::from(k);
    }
    ops.push(Op::Replicate);
    for &k in between {
        ops.push(Op::Gossip(k));
        benign_prefix += u64::from(k);
    }
    ops.push(Op::Replicate);
    for &k in after {
        ops.push(Op::Gossip(k));
    }
    (ops, benign_prefix)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The EI-keyed condition fires on the 2nd `replicateEntry` send on
    /// every perturbation of the workload: reordered/resized gossip blocks,
    /// jittered timers, extra benign sends.
    #[test]
    fn ei_condition_is_stable_under_perturbation(
        before in proptest::collection::vec(1u8..4, 0..3),
        between in proptest::collection::vec(1u8..4, 0..3),
        after in proptest::collection::vec(1u8..4, 0..2),
        jitter in proptest::collection::vec(0u64..4_000, 1..8),
    ) {
        let (ops, _) = perturbed(&before, &between, &after);
        let spy = run(&ops, &jitter, Some(ei_schedule()));
        prop_assert_eq!(
            spy.hits.len(), 1,
            "EI condition must fire exactly once: {:?}", spy.hits
        );
        let (_, chain, count) = &spy.hits[0];
        prop_assert_eq!(chain, &target_chain());
        prop_assert_eq!(*count, TARGET_COUNT);
    }

    /// The flat-counter condition discovered on the baseline interleaving
    /// misses the injection site as soon as the benign prefix changes size,
    /// while the EI-keyed condition (previous property) does not.
    #[test]
    fn flat_condition_drifts_when_the_benign_prefix_changes(
        before in proptest::collection::vec(1u8..4, 0..3),
        between in proptest::collection::vec(1u8..4, 0..3),
        jitter in proptest::collection::vec(0u64..4_000, 1..8),
    ) {
        let baseline_prefix = 2 + 1; // Gossip(2) + Gossip(1) in baseline_ops
        let (ops, benign_prefix) = perturbed(&before, &between, &[3]);
        // Only prefixes that actually changed size can demonstrate drift.
        if benign_prefix != baseline_prefix {
            let nth = baseline_flat_nth();
            let spy = run(&ops, &jitter, Some(flat_schedule(nth)));
            // The flat index either lands on a different send (most often a
            // benign gossip one) or never fires at all — never the target.
            for (_, chain, count) in &spy.hits {
                prop_assert!(
                    !(chain == &target_chain() && *count == TARGET_COUNT),
                    "flat counter unexpectedly still hit the target site"
                );
            }
        }
    }
}
