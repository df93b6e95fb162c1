//! Chrome `trace_event` output for the causal flow export.
//!
//! Emits the JSON Object Format understood by `about://tracing` and
//! Perfetto (`ui.perfetto.dev`): `{"traceEvents": [...]}` where each event
//! carries `name`, `ph` (phase), `ts` (microseconds), `pid`, `tid`, and
//! optionally `dur`/`args`. The one file written in it is `<bug>.flow.json`
//! ([`crate::causal::export_flow`]), which maps the simulated cluster onto
//! it:
//!
//! - **pid 0** is the campaign itself (the oracle hop of a chain);
//! - **pid n+1** is cluster node `n`, whose causal lane holds the anchors
//!   the flow arrows attach to.

use std::collections::BTreeMap;

use rose_events::NodeId;
use serde::Serialize;

/// The campaign track.
pub const CAMPAIGN_PID: u32 = 0;
/// Causal-propagation lane (flow-event anchors).
pub const TID_CAUSAL: u32 = 6;

/// The trace-track pid for a cluster node.
pub const fn node_pid(node: NodeId) -> u32 {
    node.0 + 1
}

/// One Chrome `trace_event` record.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct TraceEvent {
    /// Event name, shown on the slice.
    pub name: String,
    /// Phase: `"X"` complete, `"M"` metadata, `"s"`/`"t"`/`"f"` flow.
    pub ph: String,
    /// Timestamp in microseconds of simulated time.
    pub ts: u64,
    /// Duration in microseconds (complete events only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dur: Option<u64>,
    /// Process track.
    pub pid: u32,
    /// Thread lane.
    pub tid: u32,
    /// Comma-separated category list.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cat: Option<String>,
    /// Free-form arguments shown in the selection panel.
    #[serde(skip_serializing_if = "BTreeMap::is_empty")]
    pub args: BTreeMap<String, String>,
    /// Flow id binding `"s"`/`"t"`/`"f"` steps together (flow events only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub id: Option<u64>,
    /// Flow binding point; `"e"` attaches a step to the enclosing slice.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub bp: Option<String>,
}

/// A Perfetto-loadable trace: `{"traceEvents": [...]}`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct ChromeTrace {
    /// The events, in emission order (viewers sort by `ts` themselves).
    #[serde(rename = "traceEvents")]
    pub trace_events: Vec<TraceEvent>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Names a thread lane (metadata event).
    pub fn set_thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.trace_events.push(TraceEvent {
            name: "thread_name".into(),
            ph: "M".into(),
            pid,
            tid,
            args: BTreeMap::from([("name".to_owned(), name.to_owned())]),
            ..TraceEvent::default()
        });
    }

    /// Adds a 1 µs complete ("X") anchor slice on a track's causal lane.
    /// Flow steps must coincide with a slice; these anchors are what the
    /// arrows attach to.
    pub fn add_flow_anchor(&mut self, name: impl Into<String>, ts_us: u64, pid: u32) {
        self.trace_events.push(TraceEvent {
            name: name.into(),
            ph: "X".into(),
            ts: ts_us,
            dur: Some(1),
            pid,
            tid: TID_CAUSAL,
            cat: Some("causal".to_owned()),
            ..TraceEvent::default()
        });
    }

    /// Adds one step of a flow: `ph` is `"s"` (start), `"t"` (step), or
    /// `"f"` (finish); all steps of one arrow share `flow_id`.
    pub fn add_flow_step(
        &mut self,
        name: impl Into<String>,
        ts_us: u64,
        pid: u32,
        ph: &str,
        flow_id: u64,
    ) {
        debug_assert!(matches!(ph, "s" | "t" | "f"), "not a flow phase: {ph}");
        self.trace_events.push(TraceEvent {
            name: name.into(),
            ph: ph.to_owned(),
            ts: ts_us,
            pid,
            tid: TID_CAUSAL,
            cat: Some("flow".to_owned()),
            id: Some(flow_id),
            // Bind the finish step to its enclosing anchor slice.
            bp: (ph == "f").then(|| "e".to_owned()),
            ..TraceEvent::default()
        });
    }

    /// Serializes to the Chrome JSON Object Format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("chrome trace serialization")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_chrome_json() {
        // Golden file for the serialized form of a flow file's events.
        let mut chrome = ChromeTrace::new();
        chrome.set_thread_name(1, TID_CAUSAL, "causal");
        chrome.add_flow_anchor("write -> EIO", 1_500_000, 1);
        chrome.add_flow_step("f0 SCF(write)", 1_500_000, 1, "f", 3);
        assert_eq!(
            chrome.to_json(),
            "{\"traceEvents\":[\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":6,\
             \"args\":{\"name\":\"causal\"}},\
             {\"name\":\"write -> EIO\",\"ph\":\"X\",\"ts\":1500000,\"dur\":1,\"pid\":1,\
             \"tid\":6,\"cat\":\"causal\"},\
             {\"name\":\"f0 SCF(write)\",\"ph\":\"f\",\"ts\":1500000,\"pid\":1,\
             \"tid\":6,\"cat\":\"flow\",\"id\":3,\"bp\":\"e\"}]}"
        );
    }

    #[test]
    fn output_loads_as_json_with_escaping_and_unique_tracks() {
        // Load-check (never string-compare): hostile names must survive
        // serialization, and every simulated node must land on its own pid.
        let nasty = "wal \"seg\\1\"\npath\twith\u{7f}ctrl";
        let mut chrome = ChromeTrace::new();
        chrome.add_flow_anchor(nasty, 1_000_000, node_pid(NodeId(0)));
        chrome.add_flow_step("f0 SCF(write)", 1_000_000, node_pid(NodeId(0)), "s", 1);
        let json = chrome.to_json();

        // 1. The bytes parse as JSON at all.
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = value["traceEvents"].as_array().unwrap();

        // 2. Escaped names decode back to the original strings.
        assert!(events.iter().any(|e| e["name"].as_str() == Some(nasty)));

        // 3. Each simulated node owns a unique pid, none the campaign's.
        let pids: Vec<u32> = [NodeId(0), NodeId(1), NodeId(2)]
            .iter()
            .map(|n| node_pid(*n))
            .collect();
        let mut unique = pids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), pids.len(), "node pids collide");
        assert!(
            !pids.contains(&CAMPAIGN_PID),
            "node pid collides with campaign"
        );
    }
}
