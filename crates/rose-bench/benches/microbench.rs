//! Criterion microbenches of Rose's hot paths: the simulator kernel itself
//! (events/s on an idle and on a loaded cluster), the per-syscall hook chain,
//! the tracer's per-event cost, the sliding window, trace merging, the
//! `.rosetrace` codec against the JSON baseline, the streaming store merge,
//! fault extraction, and the executor's condition matching.

use std::io::Cursor;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rose_bench::rediskv::run_ycsb;
use rose_events::{
    Errno, Event, EventKind, FunctionId, NodeId, Pid, SimDuration, SimTime, SlidingWindow,
    SyscallId, Trace,
};
use rose_hunt::SiteProbe;
use rose_inject::{Condition, Executor, FaultAction, FaultSchedule, ScheduledFault};
use rose_profile::Profile;
use rose_sim::{
    Application, ChainId, ChainTable, HookEffects, HookEnv, KernelHook, NodeCtx, Sim, SimConfig,
    SysRet, SyscallArgs,
};
use rose_trace::{Tracer, TracerConfig};

fn af(ts: u64, node: u32, f: u32) -> Event {
    Event::new(
        SimTime::from_micros(ts),
        NodeId(node),
        EventKind::Af {
            pid: Pid(node + 100),
            function: FunctionId(f),
        },
    )
}

fn scf(ts: u64, node: u32) -> Event {
    Event::new(
        SimTime::from_micros(ts),
        NodeId(node),
        EventKind::Scf {
            pid: Pid(node + 100),
            syscall: SyscallId::Read,
            fd: None,
            path: Some("/data/file".into()),
            errno: Errno::Eio,
            ei: None,
        },
    )
}

fn bench_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("sliding_window");
    g.throughput(Throughput::Elements(1));
    g.bench_function("push_evicting", |b| {
        let mut w = SlidingWindow::with_capacity(100_000);
        let mut i = 0u64;
        b.iter(|| {
            w.push(af(i, (i % 5) as u32, (i % 64) as u32));
            i += 1;
        });
    });
    // SCF events carry long path strings; `push` now budgets them via the
    // wire size cached at construction instead of re-walking the string on
    // every insert and eviction.
    g.bench_function("push_cached_wire_size", |b| {
        let mut w = SlidingWindow::with_capacity(64 * 1024);
        let mut i = 0u64;
        b.iter(|| {
            let mut e = scf(i, (i % 5) as u32);
            if i.is_multiple_of(2) {
                e = Event::new(
                    SimTime::from_micros(i),
                    NodeId((i % 5) as u32),
                    EventKind::Scf {
                        pid: Pid(100),
                        syscall: SyscallId::Openat,
                        fd: None,
                        path: Some(
                            "/var/lib/cluster/node-0/data/snapshots/0000000017/segment.log".into(),
                        ),
                        errno: Errno::Enoent,
                        ei: None,
                    },
                );
            }
            w.push(e);
            i += 1;
        });
    });
    g.finish();
}

fn bench_window_growth(c: &mut Criterion) {
    let mut g = c.benchmark_group("sliding_window");
    // Guard for the growth fix: filling a fresh window up to a large
    // configured capacity must grow the buffer in bounded chunks (amortized
    // doubling clamped to the capacity), not one reallocation per push.
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("fill_50k_from_empty", |b| {
        b.iter(|| {
            let mut w = SlidingWindow::with_capacity(50_000);
            for i in 0..50_000u64 {
                w.push(af(i, (i % 5) as u32, (i % 64) as u32));
            }
            black_box(w.len())
        });
    });
    g.finish();
}

/// A probe firing outside any instrumented function.
fn root_env(chains: &ChainTable, node: u32, pid: u32) -> HookEnv<'_> {
    HookEnv {
        now: SimTime::from_secs(1),
        node: NodeId(node),
        pid: Pid(pid),
        chain: ChainId::ROOT,
        chains,
    }
}

/// A node that only services a 10 ms heartbeat timer: what the kernel costs
/// when the application does nothing.
struct IdleNode;

impl Application for IdleNode {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, ()>) {
        ctx.set_timer(SimDuration::from_millis(10), 0);
    }

    fn on_message(&mut self, _: &mut NodeCtx<'_, ()>, _: NodeId, _: ()) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, ()>, tag: u64) {
        ctx.set_timer(SimDuration::from_millis(10), tag);
    }
}

fn idle_cluster() -> Sim<IdleNode> {
    let mut sim = Sim::new(SimConfig::new(3, 7), |_| IdleNode);
    sim.start();
    sim
}

/// The simulator kernel, the layer every run spends most of its time in:
/// queue items executed per wall second with no hook attached.
fn bench_sim_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_kernel");
    // Both clusters are deterministic, so one probe run gives the event
    // count every iteration executes.
    let idle_secs = SimDuration::from_secs(60);
    let mut probe = idle_cluster();
    probe.run_for(idle_secs);
    g.throughput(Throughput::Elements(probe.core().events_executed()));
    g.bench_function("idle_3_nodes_60s", |b| {
        b.iter(|| {
            let mut sim = idle_cluster();
            sim.run_for(idle_secs);
            black_box(sim.core().events_executed())
        });
    });
    let (probe, _) = run_ycsb(vec![], 4, 1, 42);
    g.throughput(Throughput::Elements(probe.core().events_executed()));
    g.bench_function("ycsb_a_4_clients_1s", |b| {
        b.iter(|| black_box(run_ycsb(vec![], 4, 1, 42).1));
    });
    g.finish();
}

/// One `enter_function` → syscall → `exit_function` round through the whole
/// chain a hunt run loads: executor `sys_enter`, body, tracer `sys_exit`,
/// site probe, and the uprobe fan-out of the function entry.
fn bench_hook_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("hook_chain");
    g.throughput(Throughput::Elements(1));
    let mut sched = FaultSchedule::new();
    sched.push(ScheduledFault::new(NodeId(0), FaultAction::Crash).after(
        Condition::ExecutionIndex {
            chain: vec!["applyEntry".into()],
            syscall: SyscallId::Stat,
            count: u64::MAX,
        },
    ));
    let mut sim = Sim::new(SimConfig::new(3, 7), |_| IdleNode);
    sim.add_hook(Box::new(Executor::new(sched)));
    sim.add_hook(Box::new(Tracer::new(
        TracerConfig::rose(std::iter::empty()),
    )));
    sim.add_hook(Box::new(SiteProbe::new()));
    // The call succeeds, so this is the steady state: nothing is recorded.
    sim.install_file(NodeId(0), "/etc/app.conf", Vec::new());
    sim.start();
    sim.run_for(SimDuration::from_millis(100));
    let pid = sim.core().procs.main_pid(NodeId(0)).expect("node 0 is up");
    let mut ctx = NodeCtx::scratch(sim.core_mut(), NodeId(0), pid);
    g.bench_function("enter_stat_exit_executor_tracer_probe", |b| {
        b.iter(|| {
            ctx.enter_function("applyEntry");
            black_box(ctx.stat("/etc/app.conf").is_ok());
            ctx.exit_function();
        });
    });
    g.finish();
}

fn bench_tracer_hot_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracer");
    g.throughput(Throughput::Elements(1));
    let chains = ChainTable::new();
    // The production fast path: a successful syscall is filtered out.
    g.bench_function("sys_exit_success_filtered", |b| {
        let mut t = Tracer::new(TracerConfig::rose(std::iter::empty()));
        let env = root_env(&chains, 0, 100);
        let args = SyscallArgs::bare(SyscallId::Read)
            .with_fd(rose_events::Fd(3))
            .with_len(64);
        let ok: rose_sim::SysResult = Ok(SysRet::Len(64));
        let mut fx = HookEffects::none();
        b.iter(|| {
            t.sys_exit(&env, &args, &ok, black_box(&mut fx));
        });
    });
    // The slow path: a failure is recorded into the window.
    g.bench_function("sys_exit_failure_recorded", |b| {
        let mut t = Tracer::new(TracerConfig::rose(std::iter::empty()).with_window(100_000));
        let env = root_env(&chains, 0, 100);
        let args = SyscallArgs::bare(SyscallId::Stat).with_path("/etc/missing");
        let err: rose_sim::SysResult = Err(Errno::Enoent);
        let mut fx = HookEffects::none();
        b.iter(|| {
            t.sys_exit(&env, &args, &err, black_box(&mut fx));
        });
    });
    g.finish();
}

fn bench_trace_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    let dumps: Vec<Vec<Event>> = (0..5u32)
        .map(|n| {
            (0..20_000u64)
                .map(|i| af(i * 7 + u64::from(n), n, 3))
                .collect()
        })
        .collect();
    g.throughput(Throughput::Elements(100_000));
    // `Trace::merge` is now a k-way heap merge of the per-node dumps (each
    // already sorted by dump construction).
    g.bench_function("merge_kway_5x20k", |b| {
        b.iter(|| black_box(Trace::merge(dumps.clone())));
    });
    // The old implementation, inlined as the comparison baseline: concatenate
    // every dump and globally stable-sort.
    g.bench_function("merge_concat_sort_baseline_5x20k", |b| {
        b.iter(|| {
            let mut all: Vec<Event> = dumps.clone().into_iter().flatten().collect();
            all.sort_by_key(|e| (e.ts, e.node));
            black_box(all)
        });
    });
    g.finish();
}

/// A Rose-dump-shaped trace: mostly SCF with recurring paths plus AF.
fn store_trace(n: u64) -> Trace {
    let mut events = Vec::new();
    for i in 0..n {
        events.push(scf(i * 50, (i % 5) as u32));
        events.push(af(i * 50 + 3, (i % 5) as u32, (i % 32) as u32));
    }
    Trace::from_events(events)
}

fn bench_store_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    let trace = store_trace(10_000);
    let n = trace.len() as u64;
    g.throughput(Throughput::Elements(n));
    // Encode: the binary codec versus the JSON dump it replaces.
    g.bench_function("encode_20k_binary", |b| {
        b.iter(|| black_box(rose_store::encoded_trace_bytes(&trace)));
    });
    g.bench_function("encode_20k_json_baseline", |b| {
        b.iter(|| black_box(trace.to_json().len()));
    });
    // Decode: full read of a finished in-memory file versus JSON parsing.
    let mut bin = Vec::new();
    let mut w = rose_store::TraceWriter::new(&mut bin).unwrap();
    for e in trace.events() {
        w.append(e).unwrap();
    }
    w.finish().unwrap();
    let json = trace.to_json();
    g.bench_function("decode_20k_binary", |b| {
        b.iter(|| {
            let mut r = rose_store::TraceReader::new(Cursor::new(bin.clone())).unwrap();
            black_box(r.read_all().unwrap())
        });
    });
    g.bench_function("decode_20k_json_baseline", |b| {
        b.iter(|| black_box(Trace::from_json(&json).unwrap()));
    });
    g.finish();
}

fn bench_store_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    // 5 sorted per-node files × 20k events, merged while streaming at most
    // one frame per input; the in-memory Trace::merge over the same dumps
    // is the baseline (it holds all 100k events at once).
    let dumps: Vec<Vec<Event>> = (0..5u32)
        .map(|node| {
            (0..20_000u64)
                .map(|i| af(i * 7 + u64::from(node), node, 3))
                .collect()
        })
        .collect();
    let files: Vec<Vec<u8>> = dumps
        .iter()
        .map(|d| {
            let mut buf = Vec::new();
            let mut w = rose_store::TraceWriter::new(&mut buf).unwrap();
            for e in d {
                w.append(e).unwrap();
            }
            w.finish().unwrap();
            buf
        })
        .collect();
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("merge_readers_5x20k", |b| {
        b.iter(|| {
            let readers: Vec<_> = files
                .iter()
                .map(|f| rose_store::TraceReader::new(Cursor::new(f.clone())).unwrap())
                .collect();
            black_box(rose_store::merge_readers(readers).unwrap())
        });
    });
    g.bench_function("merge_in_memory_baseline_5x20k", |b| {
        b.iter(|| black_box(Trace::merge(dumps.clone())));
    });
    g.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let mut g = c.benchmark_group("analyze");
    let mut events = Vec::new();
    for i in 0..20_000u64 {
        events.push(af(i * 50, (i % 5) as u32, (i % 8) as u32));
        if i % 100 == 0 {
            events.push(scf(i * 50 + 1, (i % 5) as u32));
        }
    }
    let trace = Trace::from_events(events);
    let profile = Profile::default();
    let names = (0..8u32)
        .map(|i| (FunctionId(i), format!("fn{i}")))
        .collect();
    g.bench_function("extract_20k_events", |b| {
        b.iter(|| black_box(rose_analyze::extract_faults(&trace, &profile, &names)));
    });
    g.finish();
}

fn bench_executor_matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor");
    g.throughput(Throughput::Elements(1));
    let mut sched = FaultSchedule::new();
    for i in 0..8 {
        sched.push(ScheduledFault::new(NodeId(0), FaultAction::Crash).after(
            Condition::FunctionEntered {
                name: format!("never{i}"),
            },
        ));
    }
    sched.push(ScheduledFault::new(
        NodeId(1),
        FaultAction::Scf {
            syscall: SyscallId::Write,
            errno: Errno::Eio,
            path: Some("/hot/path".into()),
            nth: u64::MAX,
        },
    ));
    let mut ex = Executor::new(sched);
    let chains = ChainTable::new();
    let env = root_env(&chains, 1, 101);
    let args = SyscallArgs::bare(SyscallId::Write)
        .with_fd(rose_events::Fd(4))
        .with_len(128);
    let mut fx = HookEffects::none();
    g.bench_function("sys_enter_9_faults_armed", |b| {
        b.iter(|| {
            ex.sys_enter(&env, &args, black_box(&mut fx));
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sim_kernel,
    bench_hook_chain,
    bench_window,
    bench_window_growth,
    bench_tracer_hot_path,
    bench_trace_merge,
    bench_store_codec,
    bench_store_merge,
    bench_extraction,
    bench_executor_matching
);
criterion_main!(benches);
