//! Simulation configuration.

use rose_events::SimDuration;
use serde::{Deserialize, Serialize};

/// Configuration for one simulated cluster run.
///
/// Every run is fully determined by this configuration plus the `seed`; two
/// runs with identical configuration and seed produce identical traces.
/// Replay-rate experiments vary only the seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed; the single source of nondeterminism.
    pub seed: u64,
    /// Number of server nodes in the cluster.
    pub nodes: u32,
    /// Minimum one-way message latency.
    pub net_latency_min: SimDuration,
    /// Maximum one-way message latency (uniformly sampled).
    pub net_latency_max: SimDuration,
    /// Delay before the supervisor restarts a crashed node, plus up to 25 %
    /// jitter.
    pub restart_delay: SimDuration,
    /// Whether crashed nodes are restarted at all.
    pub auto_restart: bool,
    /// Interval of the process-state poller (paper default: 1 s).
    pub proc_poll_interval: SimDuration,
    /// Base CPU cost charged per executed system call, feeding the overhead
    /// model.
    pub syscall_exec_cost: SimDuration,
}

impl SimConfig {
    /// A configuration with the paper's defaults for an `n`-node cluster.
    pub fn new(n: u32, seed: u64) -> Self {
        SimConfig {
            seed,
            nodes: n,
            net_latency_min: SimDuration::from_micros(300),
            net_latency_max: SimDuration::from_micros(1_800),
            restart_delay: SimDuration::from_secs(2),
            auto_restart: true,
            proc_poll_interval: SimDuration::from_secs(1),
            syscall_exec_cost: SimDuration::from_micros(2),
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new(3, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_thresholds() {
        let c = SimConfig::default();
        assert_eq!(c.proc_poll_interval, SimDuration::from_secs(1));
        assert!(c.auto_restart);
        assert_eq!(c.nodes, 3);
    }
}
