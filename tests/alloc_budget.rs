//! Allocation budgets of the run path: the per-syscall hook chain, the
//! target systems' own callbacks, and the oracle that polls them.
//!
//! Rose runs hundreds of testing runs per bug, and every one of them pushes
//! each simulated syscall through executor `sys_enter` → body → tracer
//! `sys_exit` → site probe. That path keys on interned chain ids, borrowed
//! arguments and the kernel's own descriptor table, so what the hooks add
//! on top of a bare run must stay a small fraction of an allocation per
//! syscall (recording a failed call or first seeing a context is allowed to
//! allocate; a steady-state probe is not). The targets are where a
//! campaign's wall time lives: RedisRaft (Table 1's heavy cases), RoseRaft
//! (the hunt), Redpanda (an Elle-checked list store) and the client-heavy
//! ZooKeeper, HDFS and MongoDB share value lists and log entries from store
//! to wire, write their journal lines into reused buffers and build their
//! per-operation text without the formatter, so a whole fault-free run
//! stays within two and a half allocations per simulated event; and the
//! Elle checker a run is polled with borrows from the history, so
//! one call on a finished run allocates next to nothing beside the run it
//! judges. This binary owns its global allocator, so it holds exactly one
//! test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rose::apps::hdfs::{HdfsBug, HdfsCase};
use rose::apps::mongodb::{MongoBug, MongoCase};
use rose::apps::raft::{RaftScenario, RoseRaftCase};
use rose::apps::redisraft::{RedisRaftBug, RedisRaftCase};
use rose::apps::redpanda::{RedpandaBug, RedpandaCase};
use rose::apps::zookeeper::{ZkBug, ZkCase};
use rose::events::{NodeId, SimDuration, SyscallId};
use rose::hunt::SiteProbe;
use rose::inject::{
    Condition, Executor, FaultAction, FaultSchedule, PartitionKind, ScheduledFault,
};
use rose::sim::{KernelHook, NodeCtx};
use rose::trace::Tracer;
use rose::{Rose, TargetSystem};

/// Counts the allocations of the thread that switched counting on.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` and destructor-free: reading it never allocates.
    static ON: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed atomic statistic and the
// thread-local is a plain `Cell<bool>` that needs no allocation or drop.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`/`dealloc`, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn hook_chain_stays_within_its_allocation_budget() {
    let system = ZkCase { bug: ZkBug::Zk2247 };
    let duration = system.run_duration();
    let rose = Rose::new(system);
    let profile = rose.profile();
    let tracer_cfg = rose.tracer_config(&profile);

    // A fault-free run of one testing-run length, bare and then under the
    // stack an exploration run loads.
    let run = |hooks: Vec<Box<dyn KernelHook>>| {
        let mut sim = rose.deploy(11, hooks);
        sim.start();
        let (allocations, ()) = allocations_of(|| sim.run_for(duration));
        (allocations, sim)
    };
    let (bare, _) = run(vec![]);
    // A schedule that stays pending to the end of the run without touching
    // it: a split with an empty side fires — the executor arms it, injects
    // it, re-derives its probe filter — and cuts nothing; the crash behind
    // it waits for a function nobody enters, and for a write under a chain
    // nobody reaches. Every probe of the run goes through the filter.
    let mut pending = FaultSchedule::new();
    pending.push(
        ScheduledFault::new(
            NodeId(0),
            FaultAction::Partition {
                kind: PartitionKind::Split {
                    group_a: vec![],
                    group_b: vec![NodeId(1)],
                },
                duration: None,
            },
        )
        .after(Condition::TimeElapsed {
            after: SimDuration::from_secs(10),
        }),
    );
    pending.push(
        ScheduledFault::new(NodeId(1), FaultAction::Crash)
            .after(Condition::FunctionEntered {
                name: "allocBudgetNoSuchFunction".into(),
            })
            .after(Condition::ExecutionIndex {
                chain: vec!["allocBudgetNoSuchFunction".into()],
                syscall: SyscallId::Write,
                count: 1,
            }),
    );
    let mut last = None;
    for (what, schedule, fired) in [("spent", FaultSchedule::new(), 0), ("pending", pending, 1)] {
        let (hooked, sim) = run(vec![
            Box::new(Executor::new(schedule)),
            Box::new(Tracer::new(tracer_cfg.clone())),
            Box::new(SiteProbe::new()),
        ]);
        let executor = sim.hook_ref::<Executor>().expect("executor attached");
        assert_eq!(executor.feedback().injected.len(), fired, "{what} executor");
        let syscalls = sim.core().stats.syscalls;
        assert!(
            syscalls > 1_000,
            "a ZooKeeper run makes syscalls: {syscalls}"
        );
        let per_syscall = hooked.saturating_sub(bare) as f64 / syscalls as f64;
        println!(
            "allocations: bare {bare}, hooked {hooked} ({what} executor), {syscalls} syscalls, \
             hooks add {per_syscall:.3} per syscall"
        );
        assert!(
            per_syscall <= 0.1,
            "{what} executor + tracer + probe add {per_syscall:.3} allocations per syscall \
             (bare {bare}, hooked {hooked}, {syscalls} syscalls); the budget is 0.1"
        );
        last = Some(sim);
    }
    let mut sim = last.expect("two runs");

    // Entering a chain the run has already seen is a lookup, under the
    // whole hook stack.
    let pid = sim.core().procs.main_pid(NodeId(0)).expect("node 0 is up");
    let mut ctx = NodeCtx::scratch(sim.core_mut(), NodeId(0), pid);
    ctx.enter_function("allocBudgetProbe");
    ctx.exit_function();
    let (second, ()) = allocations_of(|| {
        ctx.enter_function("allocBudgetProbe");
        ctx.exit_function();
    });
    assert_eq!(second, 0, "re-entering a seen chain must not allocate");

    // Bare fault-free runs, kernel and target together.
    let redisraft = RedisRaftCase {
        bug: RedisRaftBug::Rr42,
    };
    bare_run_stays_within(redisraft, 2.5);
    let roseraft = RoseRaftCase {
        scenario: RaftScenario::CompactionLoss,
    };
    bare_run_stays_within(roseraft, 1.5);
    let redpanda = RedpandaCase {
        bug: RedpandaBug::Rp3003,
    };
    let sim = bare_run_stays_within(redpanda.clone(), 1.75);
    bare_run_stays_within(ZkCase { bug: ZkBug::Zk2247 }, 1.25);
    bare_run_stays_within(
        HdfsCase {
            bug: HdfsBug::Hdfs4233,
        },
        1.5,
    );
    bare_run_stays_within(
        MongoCase {
            bug: MongoBug::Mongo243,
        },
        2.0,
    );

    // One oracle poll on the finished run: the Elle checker over the whole
    // history.
    let (allocations, verdict) = allocations_of(|| redpanda.oracle(&sim));
    let ops = sim.core().history.len();
    println!("Redpanda-3003 oracle: {allocations} allocations over {ops} operations");
    assert!(!verdict, "a fault-free run has no anomaly");
    assert!(
        allocations <= 2_000,
        "one oracle call on a finished Redpanda run makes {allocations} allocations \
         ({ops} operations in the history); the ceiling is 2000"
    );
}

/// Runs `system` fault-free and bare for its testing-run length and holds
/// it to `ceiling` allocations per simulated event.
fn bare_run_stays_within<S: TargetSystem>(system: S, ceiling: f64) -> rose::sim::Sim<S::App> {
    let name = system.name().to_string();
    let duration = system.run_duration();
    let mut sim = Rose::new(system).deploy(11, vec![]);
    sim.start();
    let (allocations, ()) = allocations_of(|| sim.run_for(duration));
    let events = sim.core().events_executed();
    let per_event = allocations as f64 / events as f64;
    println!("{name}: {allocations} allocations, {events} events, {per_event:.2} per event");
    assert!(
        per_event <= ceiling,
        "a fault-free {name} run makes {per_event:.2} allocations per simulated event \
         ({allocations} over {events} events); the ceiling is {ceiling}"
    );
    sim
}
