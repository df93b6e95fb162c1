//! Tracer configuration.

use std::collections::BTreeMap;

use rose_events::{FunctionId, DEFAULT_WINDOW_CAPACITY};

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
