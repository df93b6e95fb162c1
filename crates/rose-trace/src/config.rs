//! Tracer configuration and probe cost model.

use std::collections::BTreeMap;

use rose_events::{FunctionId, SimDuration, DEFAULT_WINDOW_CAPACITY};

/// Which events a tracer records — the three columns of the paper's
/// overhead study (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracerMode {
    /// The production Rose tracer: system-call **failures** only, plus AF,
    /// ND, and PS events.
    Rose,
    /// Baseline: record **every** system-call invocation.
    Full,
    /// Baseline: Rose events plus the contents (≤ 128 bytes) of every
    /// `read` and `write`.
    IoContent,
}

/// CPU cost charged per probe firing, the source of the tracer's overhead.
///
/// Calibrated so that relative overheads land in the paper's regime
/// (Rose ≈ 2.6 %, Full ≈ 3.9 %, IO content ≈ 4.9 % on a CPU-bound
/// key-value workload); see `EXPERIMENTS.md`.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// `sys_exit` tracepoint entry + return-value filter, paid on **every**
    /// system call while any syscall probe is loaded.
    pub probe_filter: SimDuration,
    /// Appending one event to the in-kernel ring buffer.
    pub record_event: SimDuration,
    /// A uprobe firing (user→kernel transition), paid per **monitored**
    /// function entry.
    pub uprobe_fire: SimDuration,
    /// XDP per-packet processing.
    pub xdp_packet: SimDuration,
    /// Copying I/O payload bytes (IO-content mode), per byte.
    pub copy_per_byte: SimDuration,
    /// Post-processing a dumped trace, per saved event (path
    /// reconstruction, serialization).
    pub process_per_event: SimDuration,
    /// Fixed cost of any dump, regardless of how many events it carries
    /// (spawning the userspace dumper, walking the fd → path map). Ensures
    /// `processing_us` is populated even for an empty window.
    pub process_dump_base: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            probe_filter: SimDuration::from_nanos(320),
            record_event: SimDuration::from_nanos(140),
            uprobe_fire: SimDuration::from_micros(3),
            xdp_packet: SimDuration::from_nanos(30),
            copy_per_byte: SimDuration::from_nanos(14),
            process_per_event: SimDuration::from_micros(12),
            process_dump_base: SimDuration::from_micros(50),
        }
    }
}

/// Tracer configuration (paper defaults throughout).
#[derive(Debug, Clone)]
pub struct TracerConfig {
    /// What to record.
    pub mode: TracerMode,
    /// Sliding-window capacity (paper: 1 million events).
    pub window_capacity: usize,
    /// Monitored (infrequent) application functions from the profiling
    /// phase: name → trace id. Uprobes are attached only to these.
    pub monitored_functions: BTreeMap<String, FunctionId>,
    /// Probe costs.
    pub costs: CostModel,
}

impl TracerConfig {
    /// The production Rose tracer with the given monitored functions.
    pub fn rose(monitored: impl IntoIterator<Item = String>) -> Self {
        let monitored_functions = monitored
            .into_iter()
            .enumerate()
            .map(|(i, name)| (name, FunctionId(i as u32)))
            .collect();
        TracerConfig {
            mode: TracerMode::Rose,
            window_capacity: DEFAULT_WINDOW_CAPACITY,
            monitored_functions,
            costs: CostModel::default(),
        }
    }

    /// The `Full` baseline (records every syscall; no AF monitoring).
    pub fn full() -> Self {
        let mut c = TracerConfig::rose(std::iter::empty());
        c.mode = TracerMode::Full;
        c
    }

    /// The `IO content` baseline.
    pub fn io_content(monitored: impl IntoIterator<Item = String>) -> Self {
        let mut c = TracerConfig::rose(monitored);
        c.mode = TracerMode::IoContent;
        c
    }

    /// Overrides the window capacity.
    pub fn with_window(mut self, capacity: usize) -> Self {
        self.window_capacity = capacity;
        self
    }

    /// Looks up a monitored function's id.
    pub fn function_id(&self, name: &str) -> Option<FunctionId> {
        self.monitored_functions.get(name).copied()
    }

    /// Reverse lookup: id → name.
    pub fn function_name(&self, id: FunctionId) -> Option<&str> {
        self.monitored_functions
            .iter()
            .find_map(|(n, i)| (*i == id).then_some(n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitored_functions_get_dense_ids() {
        let c = TracerConfig::rose(["snap".to_string(), "elect".to_string()]);
        assert_eq!(c.function_id("snap"), Some(FunctionId(0)));
        assert_eq!(c.function_name(FunctionId(1)), Some("elect"));
        assert_eq!(c.function_id("missing"), None);
    }
}
