//! End-to-end tests of the tracer against the simulated cluster.

use rose_events::{Errno, EventKind, NodeId, ProcState, SimDuration, SyscallId};
use rose_sim::{Application, NodeCtx, OpenFlags, Sim, SimConfig};
use rose_trace::{Tracer, TracerConfig, TracerMode};

/// An app that periodically stats a missing file (benign SCF), appends to a
/// log (fd-based I/O), enters a monitored function, and pings peers.
#[derive(Default)]
struct Chatty;

#[derive(Clone, Debug)]
struct Ping;

impl Application for Chatty {
    type Msg = Ping;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Ping>) {
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Ping>, _tag: u64) {
        // Benign failure, common in JVM deployments (paper §6.2).
        let _ = ctx.stat("/proc/does-not-exist");
        // Normal I/O on a real file.
        {
            let ctx = &mut ctx.function("appendLog");
            let fd = ctx.open("/data/log", OpenFlags::Append).unwrap();
            let _ = ctx.write(fd, b"entry");
            let _ = ctx.close(fd);
        }
        // Unmonitored hot function.
        let _ = ctx.function("hotPath");
        ctx.broadcast(Ping);
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Ping>, _from: NodeId, _msg: Ping) {}
}

fn sim_with(mode: TracerMode, seed: u64) -> Sim<Chatty> {
    let mut cfg = match mode {
        TracerMode::Rose => TracerConfig::rose(["appendLog".to_string()]),
        TracerMode::Full => TracerConfig::full(),
        TracerMode::IoContent => TracerConfig::io_content(["appendLog".to_string()]),
    };
    cfg.window_capacity = 100_000;
    let mut sim = Sim::new(SimConfig::new(3, seed), |_| Chatty);
    sim.add_hook(Box::new(Tracer::new(cfg)));
    sim.start();
    sim
}

fn dump(sim: &mut Sim<Chatty>) -> rose_events::Trace {
    let now = sim.now();
    sim.hook_mut::<Tracer>().unwrap().dump(now)
}

#[test]
fn rose_mode_records_failures_only() {
    let mut sim = sim_with(TracerMode::Rose, 1);
    sim.run_for(SimDuration::from_secs(5));
    let trace = dump(&mut sim);
    let counts = trace.type_counts();
    assert!(
        counts.scf > 50,
        "periodic stat failures expected, got {counts:?}"
    );
    assert_eq!(counts.ok, 0, "rose mode must not record successes");
    assert!(counts.af > 50, "monitored appendLog entries expected");
    // The unmonitored function never shows up.
    assert!(trace.events().iter().all(|e| match &e.kind {
        EventKind::Af { function, .. } => function.0 == 0,
        _ => true,
    }));
}

#[test]
fn scf_events_carry_path_and_errno() {
    let mut sim = sim_with(TracerMode::Rose, 2);
    sim.run_for(SimDuration::from_secs(1));
    let trace = dump(&mut sim);
    let scf = trace
        .events()
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Scf(scf) if scf.syscall == SyscallId::Stat => {
                Some((scf.path.clone(), scf.errno))
            }
            _ => None,
        })
        .expect("stat failure recorded");
    assert_eq!(scf.0.as_deref(), Some("/proc/does-not-exist"));
    assert_eq!(scf.1, Errno::Enoent);
}

#[test]
fn fd_based_failures_resolve_paths_via_fd_map() {
    // Inject a write failure through a second hook that fails the 5th write.
    use rose_sim::{HookEffects, HookEnv, KernelHook, SyscallArgs};
    #[derive(Default)]
    struct FailWrite {
        seen: u32,
    }
    impl KernelHook for FailWrite {
        fn sys_enter(&mut self, _env: &HookEnv, args: &SyscallArgs, fx: &mut HookEffects) {
            if args.call == SyscallId::Write {
                self.seen += 1;
                if self.seen == 5 {
                    fx.set_override(Errno::Enospc);
                }
            }
        }
    }

    let mut cfg = TracerConfig::rose(["appendLog".to_string()]);
    cfg.window_capacity = 100_000;
    let mut sim = Sim::new(SimConfig::new(3, 3), |_| Chatty);
    // Injector first (overrides at sys_enter), tracer second (sees result).
    sim.add_hook(Box::new(FailWrite::default()));
    sim.add_hook(Box::new(Tracer::new(cfg)));
    sim.start();
    sim.run_for(SimDuration::from_secs(2));
    let trace = dump(&mut sim);
    let ev = trace
        .events()
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Scf(scf) if scf.syscall == SyscallId::Write => {
                Some((scf.path.clone(), scf.errno, scf.fd))
            }
            _ => None,
        })
        .expect("write failure recorded");
    assert_eq!(
        ev.0.as_deref(),
        Some("/data/log"),
        "fd resolved through the fd→path map"
    );
    assert_eq!(ev.1, Errno::Enospc);
    assert!(ev.2.is_some());
}

#[test]
fn full_mode_records_every_syscall() {
    let mut rose = sim_with(TracerMode::Rose, 4);
    rose.run_for(SimDuration::from_secs(3));
    let rose_matched = rose.hook_ref::<Tracer>().unwrap().report().events_matched;

    let mut full = sim_with(TracerMode::Full, 4);
    full.run_for(SimDuration::from_secs(3));
    let full_matched = full.hook_ref::<Tracer>().unwrap().report().events_matched;

    assert!(
        full_matched > rose_matched * 3,
        "full ({full_matched}) should dwarf rose ({rose_matched})"
    );
    let trace = dump(&mut full);
    assert!(trace.type_counts().ok > 0);
}

#[test]
fn io_content_mode_captures_write_payloads() {
    let mut sim = sim_with(TracerMode::IoContent, 5);
    sim.run_for(SimDuration::from_secs(2));
    let trace = dump(&mut sim);
    let content = trace
        .events()
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::SyscallOk {
                syscall: SyscallId::Write,
                content: Some(c),
                ..
            } => Some(c.clone()),
            _ => None,
        })
        .expect("write content captured");
    assert_eq!(*content, *b"entry");
}

#[test]
fn nd_event_emitted_after_partition_heals() {
    let mut sim = sim_with(TracerMode::Rose, 6);
    sim.run_for(SimDuration::from_secs(2));
    sim.inject_partition(
        &[NodeId(0)],
        &[NodeId(1), NodeId(2)],
        Some(SimDuration::from_secs(8)),
    );
    sim.run_for(SimDuration::from_secs(15));
    let trace = dump(&mut sim);
    let nd: Vec<_> = trace
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Nd(nd) => Some((nd.duration, nd.src, nd.dst, nd.packet_count)),
            _ => None,
        })
        .collect();
    assert!(
        !nd.is_empty(),
        "partition silence must surface as ND events"
    );
    assert!(nd.iter().all(|(d, ..)| *d >= SimDuration::from_secs(5)));
    assert!(nd.iter().any(|(.., pc)| *pc > 0));
}

#[test]
fn ongoing_partition_flushed_at_dump() {
    let mut sim = sim_with(TracerMode::Rose, 7);
    sim.run_for(SimDuration::from_secs(2));
    // Partition that never heals before the dump.
    sim.inject_partition(&[NodeId(0)], &[NodeId(1), NodeId(2)], None);
    sim.run_for(SimDuration::from_secs(10));
    let trace = dump(&mut sim);
    assert!(
        trace
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::Nd { .. })),
        "silent connections must be flushed into the dump"
    );
}

#[test]
fn pause_detected_by_polling_above_threshold_only() {
    let mut sim = sim_with(TracerMode::Rose, 8);
    sim.run_for(SimDuration::from_secs(1));
    // Short pause: below the 3 s threshold, must NOT be recorded.
    sim.inject_pause(NodeId(1), SimDuration::from_secs(1));
    sim.run_for(SimDuration::from_secs(3));
    // Long pause: must be recorded with its duration.
    sim.inject_pause(NodeId(2), SimDuration::from_secs(6));
    sim.run_for(SimDuration::from_secs(10));
    let trace = dump(&mut sim);
    let waits: Vec<SimDuration> = trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Ps {
                state: ProcState::Waiting,
                duration,
                ..
            } => Some(duration),
            _ => None,
        })
        .collect();
    assert_eq!(
        waits.len(),
        1,
        "only the long pause is a PS event: {waits:?}"
    );
    assert!(waits[0] >= SimDuration::from_secs(6));
    assert!(waits[0] <= SimDuration::from_secs(8));
}

#[test]
fn crash_and_restart_recorded() {
    let mut sim = sim_with(TracerMode::Rose, 9);
    sim.run_for(SimDuration::from_secs(1));
    sim.inject_crash(NodeId(0));
    sim.run_for(SimDuration::from_secs(5));
    let trace = dump(&mut sim);
    assert!(trace.events().iter().any(|e| matches!(
        e.kind,
        EventKind::Ps {
            state: ProcState::Crashed,
            ..
        }
    )));
    assert!(trace.events().iter().any(|e| matches!(
        e.kind,
        EventKind::Ps {
            state: ProcState::Restarted,
            ..
        }
    )));
}

#[test]
fn window_eviction_bounds_memory() {
    let mut cfg = TracerConfig::full();
    cfg.window_capacity = 500;
    let mut sim = Sim::new(SimConfig::new(3, 10), |_| Chatty);
    sim.add_hook(Box::new(Tracer::new(cfg)));
    sim.start();
    sim.run_for(SimDuration::from_secs(10));
    let rep = sim.hook_ref::<Tracer>().unwrap().report();
    assert_eq!(rep.events_saved, 500);
    assert!(rep.events_matched > 500);
    assert!(rep.peak_bytes < 500 * 200, "peak bytes bounded by window");
}

#[test]
fn tracer_charges_more_in_full_mode() {
    // Compare pure syscall-path costs: no uprobes monitored in either mode.
    let charged = |cfg: TracerConfig, seed| {
        let mut sim = Sim::new(SimConfig::new(3, seed), |_| Chatty);
        sim.add_hook(Box::new(Tracer::new(cfg)));
        sim.start();
        sim.run_for(SimDuration::from_secs(3));
        sim.hook_ref::<Tracer>().unwrap().total_charged
    };
    let rose = charged(TracerConfig::rose(std::iter::empty()), 11);
    let full = charged(TracerConfig::full(), 11);
    assert!(
        full > rose,
        "full tracing must cost more: rose={rose} full={full}"
    );
}

#[test]
fn dump_processing_time_scales_with_saved_events() {
    let mut sim = sim_with(TracerMode::Rose, 12);
    sim.run_for(SimDuration::from_secs(5));
    let t = dump(&mut sim);
    let rep = sim.hook_ref::<Tracer>().unwrap().report();
    assert!(rep.processing_us >= t.len() as u64);
}

#[test]
fn a_dump_takes_the_window_and_the_report_still_describes_it() {
    let mut sim = sim_with(TracerMode::Full, 14);
    sim.run_for(SimDuration::from_secs(2));
    let before = sim.hook_ref::<Tracer>().unwrap().report();
    assert!(before.events_saved > 0);

    // One dump, as every caller makes: the report reads as it did when the
    // dump was a copy and the window still held the events.
    let first = dump(&mut sim);
    let after = sim.hook_ref::<Tracer>().unwrap().report();
    assert_eq!(first.len(), before.events_saved);
    assert_eq!(after.events_saved, before.events_saved);
    assert_eq!(after.events_matched, before.events_matched);
    assert_eq!(after.peak_bytes, before.peak_bytes);

    // The emptied window keeps tracing: a second dump carries what was
    // recorded in between and nothing of the first.
    sim.run_for(SimDuration::from_secs(1));
    let second = dump(&mut sim);
    let rep = sim.hook_ref::<Tracer>().unwrap().report();
    assert!(!second.is_empty());
    assert!(second.start() > first.end());
    assert_eq!(rep.events_saved, second.len());
    assert_eq!(
        rep.events_matched,
        (first.len() + second.len()) as u64,
        "every matched event left in exactly one dump"
    );
    assert_eq!(rep.peak_bytes, before.peak_bytes, "the peak is monotone");
}

#[test]
fn dump_processing_time_is_populated_on_every_dump_path() {
    // Before any dump the counter is zero; after *any* dump — even one
    // with an empty window — it must be populated (the fixed dump cost).
    let mut bare = Tracer::new(TracerConfig::rose(std::iter::empty()));
    assert_eq!(bare.report().processing_us, 0);
    let t = bare.dump(rose_events::SimTime::ZERO);
    assert!(t.is_empty());
    let empty_us = bare.report().processing_us;
    assert!(empty_us > 0, "empty dump must still charge processing time");

    let mut sim = sim_with(TracerMode::Rose, 13);
    sim.run_for(SimDuration::from_secs(5));
    let t = dump(&mut sim);
    assert!(!t.is_empty());
    let rep = sim.hook_ref::<Tracer>().unwrap().report();
    assert!(
        rep.processing_us > empty_us,
        "a loaded dump costs more than an empty one"
    );
}
