//! The tracer: a [`KernelHook`] that records SCF/AF/ND/PS events into a
//! sliding window and dumps them on demand.

use std::collections::BTreeMap;

use rose_events::{
    Event, EventKind, ExecutionIndex, IpAddr, Nd, NodeId, Pid, ProcState, Scf, SimDuration,
    SimTime, SlidingWindow, SyscallId, ThinBytes, ThinStr, Trace,
};
use rose_sim::{HookEffects, HookEnv, KernelHook, ProcEvent, ProcTable, RunState, SyscallArgs};

use crate::config::{TracerConfig, TracerMode};

/// Network-silence threshold for ND events (paper §4.4: 5 s).
pub const ND_THRESHOLD: SimDuration = SimDuration::from_secs(5);

/// Waiting-state threshold for PS events (paper §4.4: 3 s).
pub const PS_WAIT_THRESHOLD: SimDuration = SimDuration::from_secs(3);

/// Max bytes of I/O payload captured per event in IO-content mode (the
/// paper's `IO content` baseline: 128).
pub const CONTENT_CAP: usize = 128;

// CPU cost charged per probe firing, the source of the tracer's overhead.
// Calibrated so that relative overheads land in the paper's regime
// (Rose ≈ 2.6 %, Full ≈ 3.9 %, IO content ≈ 4.9 % on a CPU-bound
// key-value workload); see `EXPERIMENTS.md`.

/// `sys_exit` tracepoint entry + return-value filter, paid on **every**
/// system call while any syscall probe is loaded.
const PROBE_FILTER_COST: SimDuration = SimDuration::from_nanos(320);

/// Appending one event to the in-kernel ring buffer.
const RECORD_EVENT_COST: SimDuration = SimDuration::from_nanos(140);

/// A uprobe firing (user→kernel transition), paid per **monitored**
/// function entry.
const UPROBE_FIRE_COST: SimDuration = SimDuration::from_micros(3);

/// XDP per-packet processing.
const XDP_PACKET_COST: SimDuration = SimDuration::from_nanos(30);

/// Copying I/O payload bytes (IO-content mode), per byte.
const COPY_PER_BYTE_COST: SimDuration = SimDuration::from_nanos(14);

/// Post-processing a dumped trace, per saved event (path reconstruction,
/// serialization).
const PROCESS_PER_EVENT_COST: SimDuration = SimDuration::from_micros(12);

/// Fixed cost of any dump, regardless of how many events it carries
/// (spawning the userspace dumper, walking the fd → path map). Ensures
/// `processing_us` is populated even for an empty window.
const PROCESS_DUMP_BASE_COST: SimDuration = SimDuration::from_micros(50);

/// Counters reported by a tracer (paper Table 2 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TracerReport {
    /// Events that matched the tracer's criteria (`Events` column).
    pub events_matched: u64,
    /// Events the last dump carried; before any dump, events currently held
    /// in the window (`Saved` column).
    pub events_saved: usize,
    /// Peak window memory in bytes (`Memory` column). Monotone over the
    /// tracer's lifetime.
    pub peak_bytes: usize,
    /// Simulated time to post-process the last dump (`Time` column), µs.
    pub processing_us: u64,
}

/// The Rose tracer (and its Full / IO-content baseline variants).
///
/// Attach to a [`rose_sim::Sim`] with `sim.add_hook(Box::new(tracer))`; read
/// it back with `sim.hook_mut::<Tracer>()` to call [`Tracer::dump`] when the
/// bug oracle fires.
pub struct Tracer {
    cfg: TracerConfig,
    window: SlidingWindow,
    /// Receiver-side connection table for network-delay detection.
    conns: rose_sim::ConnTable,
    /// Pauses in progress: pid → (node, since), discovered by polling.
    ongoing_pauses: BTreeMap<Pid, (rose_events::NodeId, SimTime)>,
    /// The monitored-function id of each chain's innermost function
    /// (`Some(None)`: not monitored), looked up by name the first time a
    /// uprobe fires under the chain and by chain id from then on.
    af_by_chain: Vec<Option<Option<rose_events::FunctionId>>>,
    events_matched: u64,
    /// How many events the last dump took out of the window.
    last_dump_events: Option<usize>,
    last_processing_us: u64,
    /// Sum of all CPU time this tracer charged (for overhead reporting).
    pub total_charged: SimDuration,
}

impl Tracer {
    /// Creates a tracer with the given configuration.
    pub fn new(cfg: TracerConfig) -> Self {
        Tracer {
            window: SlidingWindow::with_capacity(cfg.window_capacity),
            cfg,
            conns: rose_sim::ConnTable::new(),
            ongoing_pauses: BTreeMap::new(),
            af_by_chain: Vec::new(),
            events_matched: 0,
            last_dump_events: None,
            last_processing_us: 0,
            total_charged: SimDuration::ZERO,
        }
    }

    /// Current counters.
    pub fn report(&self) -> TracerReport {
        TracerReport {
            events_matched: self.events_matched,
            events_saved: self.last_dump_events.unwrap_or(self.window.len()),
            peak_bytes: self.window.peak_bytes(),
            processing_us: self.last_processing_us,
        }
    }

    /// The `dump` primitive: flushes in-progress pauses and silent
    /// connections (paper §4.4 "Event Duration"), then moves the window's
    /// events into a [`Trace`] — the tracer keeps no second copy of what it
    /// wrote out. The emptied window keeps tracing, so a later dump carries
    /// what was recorded since this one.
    pub fn dump(&mut self, now: SimTime) -> Trace {
        // Flush pauses that have not yet ended.
        let paused: Vec<(Pid, (NodeId, SimTime))> =
            self.ongoing_pauses.iter().map(|(p, v)| (*p, *v)).collect();
        for (pid, (node, since)) in paused {
            self.record_pause(now, node, pid, since);
        }
        // Flush connections that are silent right now.
        let silent: Vec<Event> = self
            .conns
            .iter()
            .filter_map(|((src, dst), entry)| {
                let gap = now.since(entry.last_seen);
                (gap >= ND_THRESHOLD).then(|| {
                    Event::new(
                        now,
                        dst.node().unwrap_or_default(),
                        EventKind::from(Nd {
                            dst: *dst,
                            src: *src,
                            duration: gap,
                            packet_count: entry.packets,
                        }),
                    )
                })
            })
            .collect();
        for e in silent {
            self.record(e);
        }

        let events = self.window.drain();
        self.last_dump_events = Some(events.len());
        // Every dump pays the fixed post-processing setup (spawning the
        // userspace dumper, walking the fd → path map) plus a per-event
        // cost, so `processing_us` is non-zero even for an empty window.
        self.last_processing_us = PROCESS_DUMP_BASE_COST.as_micros()
            + events.len() as u64 * PROCESS_PER_EVENT_COST.as_micros();
        Trace::from_events(events)
    }

    fn record(&mut self, event: Event) {
        self.events_matched += 1;
        self.window.push(event);
    }

    /// Records the PS(Waiting) event of `pid`'s pause on `node`, begun at
    /// `since` and flushed at `now`, if it lasted [`PS_WAIT_THRESHOLD`].
    fn record_pause(&mut self, now: SimTime, node: NodeId, pid: Pid, since: SimTime) {
        let duration = now.since(since);
        if duration >= PS_WAIT_THRESHOLD {
            let ev = EventKind::Ps {
                pid,
                state: ProcState::Waiting,
                duration,
            };
            self.record(Event::new(now, node, ev));
        }
    }

    fn charge(&mut self, d: SimDuration, fx: &mut HookEffects) {
        self.total_charged += d;
        fx.add_charge(d);
    }
}

impl KernelHook for Tracer {
    fn sys_exit(
        &mut self,
        env: &HookEnv,
        args: &SyscallArgs,
        result: &rose_sim::SysResult,
        fx: &mut HookEffects,
    ) {
        let mut charge = PROBE_FILTER_COST;

        // A failing call is stamped with the index the kernel counted for
        // it; names are resolved only here, when the call is recorded.
        let ei = || Some(ExecutionIndex::new(env.call_chain().to_vec(), args.ei));

        match self.cfg.mode {
            TracerMode::Rose | TracerMode::IoContent => {
                if let Err(errno) = result {
                    charge += RECORD_EVENT_COST;
                    // The path is copied only now that the call failed. For
                    // an fd-based call the kernel resolved it from its
                    // descriptor table; the paper's tracer keeps that
                    // fd → path map itself, here a `PROBE_FILTER_COST`
                    // charge, not work.
                    let ev = EventKind::from(Scf {
                        pid: env.pid,
                        syscall: args.call,
                        fd: args.fd,
                        path: args.subject_path().map(ThinStr::from),
                        errno: *errno,
                        ei: ei(),
                    });
                    self.record(Event::new(env.now, env.node, ev));
                }
                // IO-content additionally captures read/write payloads.
                if self.cfg.mode == TracerMode::IoContent
                    && matches!(args.call, SyscallId::Read | SyscallId::Write)
                {
                    let payload: &[u8] = match (args.call, result) {
                        (SyscallId::Write, _) => args.data_prefix.unwrap_or(&[]),
                        (SyscallId::Read, Ok(rose_sim::SysRet::Bytes(b))) => b,
                        _ => &[],
                    };
                    let content = ThinBytes::from(&payload[..payload.len().min(CONTENT_CAP)]);
                    charge += RECORD_EVENT_COST;
                    charge += SimDuration::from_nanos(
                        content.len() as u64 * COPY_PER_BYTE_COST.as_nanos(),
                    );
                    let ev = EventKind::SyscallOk {
                        pid: env.pid,
                        syscall: args.call,
                        content: Some(content),
                    };
                    self.record(Event::new(env.now, env.node, ev));
                }
            }
            TracerMode::Full => {
                charge += RECORD_EVENT_COST;
                let ev = match result {
                    Err(errno) => EventKind::from(Scf {
                        pid: env.pid,
                        syscall: args.call,
                        fd: args.fd,
                        path: args.subject_path().map(ThinStr::from),
                        errno: *errno,
                        ei: ei(),
                    }),
                    Ok(_) => EventKind::SyscallOk {
                        pid: env.pid,
                        syscall: args.call,
                        content: None,
                    },
                };
                self.record(Event::new(env.now, env.node, ev));
            }
        }

        self.charge(charge, fx);
    }

    fn uprobe(&mut self, env: &HookEnv, function: &str, offset: Option<u32>, fx: &mut HookEffects) {
        // Only entries of monitored functions have probes attached;
        // everything else costs nothing (no probe, no transition).
        if offset.is_some() {
            return;
        }
        // `function` is the innermost entry of `env.chain`, which the
        // kernel has already resolved: the name is walked once per chain.
        let slot = env.chain.index();
        if self.af_by_chain.len() <= slot {
            self.af_by_chain.resize(slot + 1, None);
        }
        let Some(id) =
            *self.af_by_chain[slot].get_or_insert_with(|| self.cfg.function_id(function))
        else {
            return;
        };
        let ev = EventKind::Af {
            pid: env.pid,
            function: id,
        };
        self.record(Event::new(env.now, env.node, ev));
        self.charge(UPROBE_FIRE_COST + RECORD_EVENT_COST, fx);
    }

    fn packet_in(&mut self, env: &HookEnv, src: IpAddr, dst: IpAddr, fx: &mut HookEffects) {
        if let Some(prev) = self.conns.record(src, dst, env.now) {
            let gap = env.now.since(prev.last_seen);
            if gap >= ND_THRESHOLD {
                let ev = EventKind::from(Nd {
                    dst,
                    src,
                    duration: gap,
                    packet_count: prev.packets,
                });
                self.record(Event::new(env.now, env.node, ev));
            }
        }
        self.charge(XDP_PACKET_COST, fx);
    }

    fn poll(&mut self, now: SimTime, procs: &ProcTable, _fx: &mut HookEffects) {
        // Pause detection by procfs polling: remember when a process enters
        // `waiting`; when it leaves (or at dump), emit a PS event if the
        // pause exceeded the threshold.
        let mut still_paused: BTreeMap<Pid, (rose_events::NodeId, SimTime)> = BTreeMap::new();
        for e in procs.live() {
            if let RunState::Paused { since } = e.state {
                still_paused.insert(e.pid, (e.node, since));
            }
        }
        let ended: Vec<(Pid, (rose_events::NodeId, SimTime))> = self
            .ongoing_pauses
            .iter()
            .filter(|(pid, _)| !still_paused.contains_key(pid))
            .map(|(p, v)| (*p, *v))
            .collect();
        for (pid, (node, since)) in ended {
            self.record_pause(now, node, pid, since);
        }
        self.ongoing_pauses = still_paused;
    }

    fn proc_event(&mut self, now: SimTime, event: &ProcEvent) {
        match event {
            ProcEvent::Crashed { node, pid, aborted } => {
                // A crash ends any pause the poller was tracking: flush it
                // first so the pause is not lost from the window.
                if let Some((pnode, since)) = self.ongoing_pauses.remove(pid) {
                    self.record_pause(now, pnode, *pid, since);
                }
                let ev = EventKind::Ps {
                    pid: *pid,
                    state: if *aborted {
                        ProcState::Aborted
                    } else {
                        ProcState::Crashed
                    },
                    duration: SimDuration::ZERO,
                };
                self.record(Event::new(now, *node, ev));
            }
            ProcEvent::Restarted { node, pid } => {
                let ev = EventKind::Ps {
                    pid: *pid,
                    state: ProcState::Restarted,
                    duration: SimDuration::ZERO,
                };
                self.record(Event::new(now, *node, ev));
            }
        }
    }
}
