//! A Jepsen-style nemesis: randomized fault injection.
//!
//! The paper obtains its "production" traces by subjecting the target
//! systems to Jepsen's randomized faults (§6.1) and uses the same random
//! injection as the baseline that motivates precise reproduction (§3: the
//! manually extracted RedisRaft-43 sequence replays at ~1 %). The nemesis is
//! a [`KernelHook`] that acts on the kernel's periodic poll, picking random
//! fault kinds, targets, and durations from a seeded RNG. It only chooses:
//! what it picked is a [`FaultAction`], injected the way the executor
//! injects one ([`FaultAction::apply`]).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rose_events::{NodeId, SimDuration, SimTime};
use rose_inject::{FaultAction, PartitionKind};
use rose_sim::{HookEffects, KernelHook, ProcTable};

/// Fault kinds the nemesis may inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NemesisOp {
    /// Kill a random node (the supervisor restarts it).
    Crash,
    /// SIGSTOP a random node for a random duration.
    Pause,
    /// Isolate a random node from all peers for a random duration.
    Partition,
    /// Cut the cluster into a random minority/majority split (Jepsen's
    /// `partition-random-halves`) for a random duration.
    Split,
}

/// Nemesis configuration.
#[derive(Debug, Clone)]
pub struct NemesisConfig {
    /// Nemesis RNG seed (independent of the run seed, like a separate
    /// Jepsen control node).
    pub seed: u64,
    /// Cluster size to pick targets from.
    pub nodes: u32,
    /// Allowed operations.
    pub ops: Vec<NemesisOp>,
    /// Quiet period before the first fault.
    pub start_after: SimDuration,
    /// Uniform range between consecutive faults.
    pub interval: (SimDuration, SimDuration),
    /// Uniform range of pause/partition durations.
    pub duration: (SimDuration, SimDuration),
}

impl NemesisConfig {
    /// A typical Jepsen mix: crashes, pauses, and partitions every few
    /// seconds.
    pub fn standard(nodes: u32, seed: u64) -> Self {
        NemesisConfig {
            seed,
            nodes,
            ops: vec![NemesisOp::Crash, NemesisOp::Pause, NemesisOp::Partition],
            start_after: SimDuration::from_secs(5),
            interval: (SimDuration::from_secs(3), SimDuration::from_secs(10)),
            duration: (SimDuration::from_secs(4), SimDuration::from_secs(10)),
        }
    }

    /// Restricts the mix to the given operations.
    pub fn with_ops(mut self, ops: Vec<NemesisOp>) -> Self {
        self.ops = ops;
        self
    }
}

/// The nemesis hook.
pub struct Nemesis {
    cfg: NemesisConfig,
    rng: SmallRng,
    next_at: Option<SimTime>,
}

impl Nemesis {
    /// Creates a nemesis from its configuration.
    pub fn new(cfg: NemesisConfig) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        Nemesis {
            cfg,
            rng,
            next_at: None,
        }
    }

    fn sample(&mut self, range: (SimDuration, SimDuration)) -> SimDuration {
        let lo = range.0.as_micros();
        let hi = range.1.as_micros().max(lo + 1);
        SimDuration::from_micros(self.rng.gen_range(lo..hi))
    }
}

impl KernelHook for Nemesis {
    fn poll(&mut self, now: SimTime, _procs: &ProcTable, fx: &mut HookEffects) {
        let next = *self
            .next_at
            .get_or_insert(SimTime::ZERO + self.cfg.start_after);
        if now < next || self.cfg.ops.is_empty() {
            return;
        }
        let op = self.cfg.ops[self.rng.gen_range(0..self.cfg.ops.len())];
        let node = NodeId(self.rng.gen_range(0..self.cfg.nodes));
        let duration = self.sample(self.cfg.duration);
        // Jepsen-style sequencing: the next fault starts only after this one
        // has healed (plus the configured quiet gap) — faults never overlap.
        let gap = self.sample(self.cfg.interval);
        let healed = match op {
            NemesisOp::Crash => SimDuration::from_secs(3),
            _ => duration,
        };
        self.next_at = Some(now + healed + gap);

        let partition = |kind| FaultAction::Partition {
            kind,
            duration: Some(duration),
        };
        let action = match op {
            NemesisOp::Crash => FaultAction::Crash,
            NemesisOp::Pause => FaultAction::Pause { duration },
            NemesisOp::Partition => partition(PartitionKind::IsolateNode(node)),
            NemesisOp::Split => {
                // A random minority group, seeded by `node`, is cut from the
                // rest in both directions.
                let minority = (self.cfg.nodes / 2).max(1);
                let mut members = vec![node];
                while members.len() < minority as usize {
                    let next = NodeId(self.rng.gen_range(0..self.cfg.nodes));
                    if !members.contains(&next) {
                        members.push(next);
                    }
                }
                let rest = (0..self.cfg.nodes).map(NodeId);
                partition(PartitionKind::Split {
                    group_a: rest.filter(|n| !members.contains(n)).collect(),
                    group_b: members,
                })
            }
        };
        action.apply(node, fx);
    }
}
