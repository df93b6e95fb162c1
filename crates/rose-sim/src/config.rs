//! Simulation configuration.

use rose_events::SimDuration;

/// Configuration for one simulated cluster run.
///
/// Every run is fully determined by this configuration plus the `seed`; two
/// runs with identical configuration and seed produce identical traces.
/// Replay-rate experiments vary only the seed.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; the single source of nondeterminism.
    pub seed: u64,
    /// Number of server nodes in the cluster.
    pub nodes: u32,
    /// Minimum one-way message latency.
    pub net_latency_min: SimDuration,
    /// Maximum one-way message latency (uniformly sampled).
    pub net_latency_max: SimDuration,
    /// Whether crashed nodes are restarted at all.
    pub auto_restart: bool,
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
            auto_restart: true,
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
        assert_eq!(crate::sim::PROC_POLL_INTERVAL, SimDuration::from_secs(1));
        assert_eq!(crate::sim::RESTART_DELAY, SimDuration::from_secs(2));
        assert!(c.auto_restart);
        assert_eq!(c.nodes, 3);
    }
}
