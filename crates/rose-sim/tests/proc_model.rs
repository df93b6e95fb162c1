//! The process table against a naive model: a running cluster is driven
//! through random crashes and pauses, and after every step each node is
//! checked against a plain per-node state machine — up, paused or down,
//! its restart generation, and which pid is its process. A pause ends at
//! the resume (SIGCONT) it scheduled; a crashed node comes back through the
//! supervisor 2 s ± 25 % later with a fresh pid and the next generation.
//! Every application callback is held to the model too: none runs on a
//! paused or crashed node, and each runs as the node's current process.
//! Pauses run up to 4 s, past the restart delay, so the resume of a process
//! that crashed while stopped can come due while its successor is paused:
//! it must leave the successor alone.
//!
//! Nodes tick every 100 ms. Steps end, and commands land, half-way between
//! two ticks, and every resume a quarter of a tick after one, so no
//! callback shares an instant with a state change.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rose_events::{NodeId, Pid, SimDuration, SimTime};
use rose_sim::{Application, ClientId, NodeCtx, RunState, Sim, SimConfig};

const NODES: u32 = 4;
const TICK_US: u64 = 100_000;
/// The supervisor's restart delay and its ± 25 % jitter.
const RESTART_MIN: SimDuration = SimDuration::from_micros(1_500_000);
const RESTART_MAX: SimDuration = SimDuration::from_micros(2_500_000);

/// One application callback, as the process that ran it saw itself.
#[derive(Debug, Clone, Copy)]
struct Callback {
    node: NodeId,
    pid: Pid,
    generation: u32,
    at: SimTime,
}

type Journal = Rc<RefCell<Vec<Callback>>>;

/// Pings every peer on each tick and journals every callback it gets,
/// outside itself: a crash drops the application, not the journal.
struct Beat {
    journal: Journal,
}

impl Beat {
    fn note(&self, ctx: &NodeCtx<'_, u64>) {
        self.journal.borrow_mut().push(Callback {
            node: ctx.node(),
            pid: ctx.pid(),
            generation: ctx.generation(),
            at: ctx.now(),
        });
    }
}

impl Application for Beat {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        self.note(ctx);
        let to_tick = TICK_US - ctx.now().as_micros() % TICK_US;
        ctx.set_timer(SimDuration::from_micros(to_tick), 0);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, u64>, _tag: u64) {
        self.note(ctx);
        for peer in ctx.peers() {
            ctx.send(peer, 0).expect("no hook fails a send");
        }
        ctx.set_timer(SimDuration::from_micros(TICK_US), 0);
    }

    fn on_message(&mut self, ctx: &mut NodeCtx<'_, u64>, _from: NodeId, _msg: u64) {
        self.note(ctx);
    }

    fn on_client_request(&mut self, _ctx: &mut NodeCtx<'_, u64>, _client: ClientId, _req: u64) {}
}

/// One command, applied at a step boundary; the run then goes on for
/// `wait` steps.
#[derive(Debug, Clone)]
enum Cmd {
    /// Kill `node`'s process.
    Crash { node: u32, wait: u64 },
    /// Stop `node`'s process for `ticks` ticks and a quarter.
    Pause { node: u32, ticks: u64, wait: u64 },
}

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        (0..NODES, 0u64..30).prop_map(|(node, wait)| Cmd::Crash { node, wait }),
        (0..NODES, 0u64..40, 0u64..6).prop_map(|(node, ticks, wait)| Cmd::Pause {
            node,
            ticks,
            wait
        }),
    ]
}

fn ticks(n: u64) -> SimDuration {
    SimDuration::from_micros(n * TICK_US)
}

/// What the model says a node is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Up,
    Paused,
    Down { since: SimTime },
}

/// The naive per-node state machine.
struct NodeModel {
    state: State,
    /// The node's current process; its last one while down.
    pid: Pid,
    generation: u32,
    /// Scheduled resumes `(at, pid)`, each for the process it paused.
    resumes: Vec<(SimTime, Pid)>,
    /// `(from, pid, generation)`: from that instant on, the node is up as
    /// that process, until the next entry; `None` while paused or down.
    timeline: Vec<(SimTime, Option<(Pid, u32)>)>,
}

impl NodeModel {
    fn enter(&mut self, at: SimTime, state: State) {
        self.state = state;
        let running = (state == State::Up).then_some((self.pid, self.generation));
        self.timeline.push((at, running));
    }

    /// Who ran the node's callbacks at `at`, if anyone could.
    fn running_at(&self, at: SimTime) -> Option<(Pid, u32)> {
        let i = self.timeline.partition_point(|&(from, _)| from <= at);
        self.timeline[..i].last().and_then(|&(_, running)| running)
    }
}

/// Holds every journalled callback, taken after `after`, to the model: none
/// ran on a paused or crashed node, and each ran as the node's process of
/// the moment. Returns how many it checked.
fn check_callbacks(
    journal: &Journal,
    model: &[NodeModel],
    after: SimTime,
) -> Result<usize, TestCaseError> {
    let mut checked = 0;
    for c in journal.borrow_mut().drain(..) {
        prop_assert!(after < c.at, "callback at {} is older than its step", c.at);
        prop_assert_eq!(
            model[c.node.0 as usize].running_at(c.at),
            Some((c.pid, c.generation)),
            "callback on {} at {}",
            c.node,
            c.at
        );
        checked += 1;
    }
    Ok(checked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn process_table_matches_a_naive_state_machine(
        seed in any::<u64>(),
        cmds in proptest::collection::vec(arb_cmd(), 1..16),
    ) {
        let journal: Journal = Rc::default();
        let shared = journal.clone();
        let mut sim = Sim::new(SimConfig::new(NODES, seed), move |_| Beat {
            journal: shared.clone(),
        });
        sim.start();
        sim.run_for(ticks(1) + SimDuration::from_micros(TICK_US / 2));

        let mut pids_seen = BTreeSet::new();
        let mut model: Vec<NodeModel> = (0..NODES)
            .map(|n| {
                let pid = sim.core().procs.main_pid(NodeId(n)).expect("every node booted");
                pids_seen.insert(pid);
                let started = sim.core().procs.get(pid).expect("pid in the table").started;
                NodeModel {
                    state: State::Up,
                    pid,
                    generation: 0,
                    resumes: Vec::new(),
                    timeline: vec![(started, Some((pid, 0)))],
                }
            })
            .collect();
        let (mut crashes, mut restarts) = (0u64, 0u64);
        let mut checked = check_callbacks(&journal, &model, SimTime::ZERO)?;

        // One step per command wait, then enough for every crashed node to
        // come back.
        let plan = cmds
            .iter()
            .map(|cmd| (Some(cmd), match *cmd {
                Cmd::Crash { wait, .. } | Cmd::Pause { wait, .. } => wait,
            }))
            .chain([(None, 30)]);
        for (cmd, wait) in plan {
            let now = sim.now();
            match cmd {
                Some(&Cmd::Crash { node, .. }) => {
                    sim.inject_crash(NodeId(node));
                    let m = &mut model[node as usize];
                    if !matches!(m.state, State::Down { .. }) {
                        m.enter(now, State::Down { since: now });
                        crashes += 1;
                    }
                }
                Some(&Cmd::Pause { node, ticks: d, .. }) => {
                    let d = ticks(d) + SimDuration::from_micros(TICK_US / 4);
                    sim.inject_pause(NodeId(node), d);
                    let m = &mut model[node as usize];
                    if m.state == State::Up {
                        m.enter(now, State::Paused);
                    }
                    if !matches!(m.state, State::Down { .. }) {
                        m.resumes.push((now + d, m.pid));
                    }
                }
                None => {}
            }
            for _ in 0..wait.max(1) {
                let from = sim.now();
                sim.run_for(ticks(1));
                let now = sim.now();
                let core = sim.core();
                for (n, m) in model.iter_mut().enumerate() {
                    let node = NodeId(n as u32);
                    // The resumes that came due, in time order; one for a
                    // process that is no longer paused does nothing.
                    m.resumes.sort();
                    let due = m.resumes.partition_point(|&(at, _)| at <= now);
                    for (at, pid) in m.resumes.drain(..due).collect::<Vec<_>>() {
                        if m.state == State::Paused && pid == m.pid {
                            m.enter(at, State::Up);
                        }
                    }
                    // A restart, which the model times but does not predict.
                    if let State::Down { since } = m.state {
                        if let Some(pid) = core.procs.main_pid(node) {
                            let entry = core.procs.get(pid).expect("main pid in the table");
                            let delay = entry.started.since(since);
                            prop_assert!(
                                (RESTART_MIN..=RESTART_MAX).contains(&delay),
                                "{} restarted {} after its crash", node, delay
                            );
                            prop_assert!(pids_seen.insert(pid), "{} reused {}", node, pid);
                            prop_assert!(entry.parent.is_none());
                            m.pid = pid;
                            m.generation += 1;
                            m.enter(entry.started, State::Up);
                            restarts += 1;
                        } else {
                            prop_assert!(
                                now.since(since) < RESTART_MAX,
                                "{} still down {} after its crash", node, now.since(since)
                            );
                        }
                    }
                    // The kernel's view of the node equals the model's.
                    let up = !matches!(m.state, State::Down { .. });
                    prop_assert_eq!(core.procs.main_pid(node), up.then_some(m.pid), "{}", node);
                    prop_assert_eq!(
                        core.procs.is_paused(node),
                        m.state == State::Paused,
                        "{} at {}", node, now
                    );
                    let entry = core.procs.get(m.pid).expect("model pid in the table");
                    prop_assert_eq!(entry.node, node);
                    let state_matches = matches!(
                        (m.state, entry.state),
                        (State::Up, RunState::Running)
                            | (State::Paused, RunState::Paused { .. })
                            | (State::Down { .. }, RunState::Exited)
                    );
                    prop_assert!(state_matches, "{} is {:?}, its pid {:?}", node, m.state, entry.state);
                }
                // Every pid the run ever had stays with its node, and only
                // a node's current process is alive.
                for &pid in &pids_seen {
                    let entry = core.procs.get(pid).expect("pid in the table");
                    prop_assert_eq!(core.procs.node_of(pid), Some(entry.node));
                    let current = model[entry.node.0 as usize].pid == pid;
                    prop_assert!(current || entry.state == RunState::Exited, "{} outlived its node's restart", pid);
                }
                prop_assert_eq!(core.stats.crashes, crashes);
                prop_assert_eq!(core.stats.restarts, restarts);
                checked += check_callbacks(&journal, &model, from)?;
            }
        }
        prop_assert!(checked > 0);
    }
}
