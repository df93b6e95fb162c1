//! Chrome `trace_event` export of the simulated timeline.
//!
//! Emits the JSON Object Format understood by `about://tracing` and
//! Perfetto (`ui.perfetto.dev`): `{"traceEvents": [...]}` where each event
//! carries `name`, `ph` (phase), `ts` (microseconds), `pid`, `tid`, and
//! optionally `dur`/`args`. We map the simulated cluster onto it:
//!
//! - **pid 0** is the campaign itself (workflow phase spans);
//! - **pid n+1** is cluster node `n`, with one thread lane per event
//!   family: syscall failures, process state, network silence, application
//!   functions, and injections.
//!
//! Loading a captured buggy trace and a failed reproduction side by side
//! makes the schedule/timeline diff visual instead of archaeological.

use std::collections::BTreeMap;
use std::path::Path;

use rose_events::{Event, EventKind, FunctionId, NodeId, SimDuration, SimTime, Trace};
use serde::{Deserialize, Serialize};

use crate::metrics::Obs;

/// The campaign (phase-span) track.
pub const CAMPAIGN_PID: u32 = 0;
/// Syscall-failure lane within a node track.
pub const TID_SYSCALLS: u32 = 1;
/// Process-state (pause/crash/restart) lane.
pub const TID_PROCESS: u32 = 2;
/// Network-silence lane.
pub const TID_NETWORK: u32 = 3;
/// Application-function (uprobe) lane.
pub const TID_FUNCTIONS: u32 = 4;
/// Fault-injection lane.
pub const TID_INJECT: u32 = 5;
/// Causal-propagation lane (flow-event anchors).
pub const TID_CAUSAL: u32 = 6;

/// The trace-track pid for a cluster node.
pub const fn node_pid(node: NodeId) -> u32 {
    node.0 + 1
}

/// One Chrome `trace_event` record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Event name, shown on the slice.
    pub name: String,
    /// Phase: `"X"` complete, `"i"` instant, `"M"` metadata.
    pub ph: String,
    /// Timestamp in microseconds of simulated time.
    pub ts: u64,
    /// Duration in microseconds (complete events only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dur: Option<u64>,
    /// Process track.
    pub pid: u32,
    /// Thread lane.
    pub tid: u32,
    /// Comma-separated category list.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cat: Option<String>,
    /// Instant scope (`"t"` thread), instant events only.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub s: Option<String>,
    /// Free-form arguments shown in the selection panel.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub args: BTreeMap<String, String>,
    /// Flow id binding `"s"`/`"t"`/`"f"` steps together (flow events only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub id: Option<u64>,
    /// Flow binding point; `"e"` attaches a step to the enclosing slice.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub bp: Option<String>,
}

/// A Perfetto-loadable trace: `{"traceEvents": [...]}`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChromeTrace {
    /// The events, in emission order (viewers sort by `ts` themselves).
    #[serde(rename = "traceEvents")]
    pub trace_events: Vec<TraceEvent>,
}

fn us(t: SimTime) -> u64 {
    t.as_micros()
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Names a process track (metadata event).
    pub fn set_process_name(&mut self, pid: u32, name: &str) {
        self.trace_events.push(TraceEvent {
            name: "process_name".into(),
            ph: "M".into(),
            ts: 0,
            dur: None,
            pid,
            tid: 0,
            cat: None,
            s: None,
            args: BTreeMap::from([("name".to_owned(), name.to_owned())]),
            id: None,
            bp: None,
        });
    }

    /// Names a thread lane (metadata event).
    pub fn set_thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.trace_events.push(TraceEvent {
            name: "thread_name".into(),
            ph: "M".into(),
            ts: 0,
            dur: None,
            pid,
            tid,
            cat: None,
            s: None,
            args: BTreeMap::from([("name".to_owned(), name.to_owned())]),
            id: None,
            bp: None,
        });
    }

    /// Adds a thread-scoped instant event.
    pub fn add_instant(
        &mut self,
        name: impl Into<String>,
        ts: SimTime,
        pid: u32,
        tid: u32,
        cat: &str,
        args: BTreeMap<String, String>,
    ) {
        self.trace_events.push(TraceEvent {
            name: name.into(),
            ph: "i".into(),
            ts: us(ts),
            dur: None,
            pid,
            tid,
            cat: Some(cat.to_owned()),
            s: Some("t".to_owned()),
            args,
            id: None,
            bp: None,
        });
    }

    /// Adds a complete ("X") span event on the `(pid, tid)` lane.
    pub fn add_span(
        &mut self,
        name: impl Into<String>,
        start: SimTime,
        dur: SimDuration,
        lane: (u32, u32),
        cat: &str,
        args: BTreeMap<String, String>,
    ) {
        self.trace_events.push(TraceEvent {
            name: name.into(),
            ph: "X".into(),
            ts: us(start),
            // Viewers drop zero-length slices; clamp to 1 µs.
            dur: Some(dur.as_micros().max(1)),
            pid: lane.0,
            tid: lane.1,
            cat: Some(cat.to_owned()),
            s: None,
            args,
            id: None,
            bp: None,
        });
    }

    /// Marks a fault injection on a node's injection lane.
    pub fn add_injection(&mut self, name: impl Into<String>, ts: SimTime, node: NodeId) {
        self.add_instant(
            name,
            ts,
            node_pid(node),
            TID_INJECT,
            "inject",
            BTreeMap::new(),
        );
    }

    /// Adds a 1 µs anchor slice on a track's causal lane. Flow steps must
    /// coincide with a slice; these anchors are what the arrows attach to.
    pub fn add_flow_anchor(&mut self, name: impl Into<String>, ts_us: u64, pid: u32) {
        self.add_span(
            name,
            SimTime::from_micros(ts_us),
            SimDuration::from_micros(1),
            (pid, TID_CAUSAL),
            "causal",
            BTreeMap::new(),
        );
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
            dur: None,
            pid,
            tid: TID_CAUSAL,
            cat: Some("flow".to_owned()),
            s: None,
            args: BTreeMap::new(),
            id: Some(flow_id),
            // Bind the finish step to its enclosing anchor slice.
            bp: (ph == "f").then(|| "e".to_owned()),
        });
    }

    /// Appends the campaign phase spans from an [`Obs`] registry onto the
    /// campaign track (pid 0).
    pub fn add_phase_track(&mut self, obs: &Obs) {
        self.set_process_name(CAMPAIGN_PID, "campaign");
        self.set_thread_name(CAMPAIGN_PID, TID_SYSCALLS, "phases");
        for span in obs.phases() {
            let end = span.end.unwrap_or(span.start);
            self.add_span(
                span.name.clone(),
                SimTime(span.start.0),
                SimDuration(end.0.saturating_sub(span.start.0)),
                (CAMPAIGN_PID, TID_SYSCALLS),
                "phase",
                BTreeMap::new(),
            );
        }
    }

    /// Renders a captured [`Trace`] onto per-node tracks. `functions` maps
    /// profiled function ids back to symbol names for the AF lane.
    pub fn from_trace(trace: &Trace, functions: &BTreeMap<FunctionId, String>) -> Self {
        let mut out = ChromeTrace::new();
        let mut named_nodes: Vec<NodeId> = trace.events().iter().map(|e| e.node).collect();
        named_nodes.sort_unstable();
        named_nodes.dedup();
        for node in &named_nodes {
            let pid = node_pid(*node);
            out.set_process_name(pid, &format!("{node} ({})", node.ip()));
            out.set_thread_name(pid, TID_SYSCALLS, "syscall failures");
            out.set_thread_name(pid, TID_PROCESS, "process state");
            out.set_thread_name(pid, TID_NETWORK, "network silence");
            out.set_thread_name(pid, TID_FUNCTIONS, "functions");
            out.set_thread_name(pid, TID_INJECT, "injections");
        }
        for event in trace.events() {
            out.add_trace_event(event, functions);
        }
        out
    }

    /// Renders one trace event onto the right lane.
    pub fn add_trace_event(&mut self, event: &Event, functions: &BTreeMap<FunctionId, String>) {
        let pid = node_pid(event.node);
        match &event.kind {
            EventKind::Scf {
                pid: p,
                syscall,
                fd,
                path,
                errno,
                ei,
            } => {
                let mut args = BTreeMap::from([("pid".to_owned(), p.to_string())]);
                if let Some(fd) = fd {
                    args.insert("fd".to_owned(), fd.to_string());
                }
                if let Some(path) = path {
                    args.insert("path".to_owned(), path.to_string());
                }
                if let Some(ei) = ei {
                    args.insert("ei".to_owned(), ei.to_string());
                }
                self.add_instant(
                    format!("{syscall} -> {errno}"),
                    event.ts,
                    pid,
                    TID_SYSCALLS,
                    "scf",
                    args,
                );
            }
            EventKind::Af { pid: p, function } => {
                let name = functions
                    .get(function)
                    .cloned()
                    .unwrap_or_else(|| function.to_string());
                self.add_instant(
                    name,
                    event.ts,
                    pid,
                    TID_FUNCTIONS,
                    "af",
                    BTreeMap::from([("pid".to_owned(), p.to_string())]),
                );
            }
            EventKind::Nd {
                dst,
                src,
                duration,
                packet_count,
            } => {
                // The silence interval ended at `ts`; draw it as a span.
                let start = SimTime(event.ts.0.saturating_sub(duration.0));
                self.add_span(
                    format!("silence from {src}"),
                    start,
                    *duration,
                    (pid, TID_NETWORK),
                    "nd",
                    BTreeMap::from([
                        ("dst".to_owned(), dst.to_string()),
                        ("packets_before".to_owned(), packet_count.to_string()),
                    ]),
                );
            }
            EventKind::Ps {
                pid: p,
                state,
                duration,
            } => {
                let args = BTreeMap::from([("pid".to_owned(), p.to_string())]);
                if duration.0 > 0 {
                    let start = SimTime(event.ts.0.saturating_sub(duration.0));
                    self.add_span(
                        state.to_string(),
                        start,
                        *duration,
                        (pid, TID_PROCESS),
                        "ps",
                        args,
                    );
                } else {
                    self.add_instant(state.to_string(), event.ts, pid, TID_PROCESS, "ps", args);
                }
            }
            EventKind::SyscallOk {
                pid: p, syscall, ..
            } => {
                self.add_instant(
                    format!("{syscall} ok"),
                    event.ts,
                    pid,
                    TID_SYSCALLS,
                    "ok",
                    BTreeMap::from([("pid".to_owned(), p.to_string())]),
                );
            }
        }
    }

    /// Serializes to the Chrome JSON Object Format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("chrome trace serialization")
    }

    /// Parses a trace back (for tests and tooling).
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Writes the trace to a file, replacing it.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use rose_events::{Errno, Fd, Pid, ProcState, SyscallId};

    use super::*;

    fn sample_trace() -> Trace {
        Trace::from_events(vec![
            Event::new(
                SimTime::from_secs(1),
                NodeId(0),
                EventKind::Scf {
                    pid: Pid(10),
                    syscall: SyscallId::Write,
                    fd: Some(Fd(3)),
                    path: Some("/data/wal".into()),
                    errno: Errno::Eio,
                    ei: None,
                },
            ),
            Event::new(
                SimTime::from_secs(2),
                NodeId(1),
                EventKind::Af {
                    pid: Pid(11),
                    function: FunctionId(7),
                },
            ),
            Event::new(
                SimTime::from_secs(9),
                NodeId(0),
                EventKind::Nd {
                    dst: NodeId(0).ip(),
                    src: NodeId(1).ip(),
                    duration: SimDuration::from_secs(6),
                    packet_count: 42,
                },
            ),
            Event::new(
                SimTime::from_secs(12),
                NodeId(1),
                EventKind::Ps {
                    pid: Pid(11),
                    state: ProcState::Waiting,
                    duration: SimDuration::from_secs(4),
                },
            ),
            Event::new(
                SimTime::from_secs(13),
                NodeId(1),
                EventKind::Ps {
                    pid: Pid(11),
                    state: ProcState::Crashed,
                    duration: SimDuration::ZERO,
                },
            ),
        ])
    }

    #[test]
    fn schema_has_required_fields() {
        let functions = BTreeMap::from([(FunctionId(7), "applyEntry".to_owned())]);
        let chrome = ChromeTrace::from_trace(&sample_trace(), &functions);
        let json = chrome.to_json();
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = value["traceEvents"].as_array().unwrap();
        assert!(!events.is_empty());
        for e in events {
            for field in ["ph", "ts", "pid", "tid", "name"] {
                assert!(e.get(field).is_some(), "missing {field} in {e}");
            }
            let ph = e["ph"].as_str().unwrap();
            assert!(matches!(ph, "X" | "i" | "M"), "unexpected ph {ph}");
            if ph == "X" {
                assert!(e["dur"].as_u64().unwrap() >= 1);
            }
            if ph == "i" {
                assert_eq!(e["s"], "t");
            }
        }
    }

    #[test]
    fn trace_events_land_on_the_right_lanes() {
        let functions = BTreeMap::from([(FunctionId(7), "applyEntry".to_owned())]);
        let chrome = ChromeTrace::from_trace(&sample_trace(), &functions);
        let find = |name: &str| {
            chrome
                .trace_events
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("no event named {name}"))
        };
        let scf = find("write -> EIO");
        assert_eq!((scf.pid, scf.tid, scf.ph.as_str()), (1, TID_SYSCALLS, "i"));
        assert_eq!(scf.args["path"], "/data/wal");
        let af = find("applyEntry");
        assert_eq!((af.pid, af.tid), (2, TID_FUNCTIONS));
        let nd = find("silence from 10.0.0.2");
        assert_eq!((nd.pid, nd.tid, nd.ph.as_str()), (1, TID_NETWORK, "X"));
        assert_eq!(nd.ts, SimTime::from_secs(3).as_micros());
        assert_eq!(nd.dur, Some(SimDuration::from_secs(6).as_micros()));
        let pause = find("waiting");
        assert_eq!((pause.ph.as_str(), pause.tid), ("X", TID_PROCESS));
        let crash = find("crashed");
        assert_eq!((crash.ph.as_str(), crash.tid), ("i", TID_PROCESS));
    }

    #[test]
    fn phase_track_renders_spans() {
        let obs = Obs::new();
        let s = obs.begin_phase("profiling");
        obs.end_phase(s, SimDuration::from_secs(60));
        let mut chrome = ChromeTrace::new();
        chrome.add_phase_track(&obs);
        let span = chrome
            .trace_events
            .iter()
            .find(|e| e.name == "profiling")
            .unwrap();
        assert_eq!(
            (span.ph.as_str(), span.pid, span.ts),
            ("X", CAMPAIGN_PID, 0)
        );
        assert_eq!(span.dur, Some(60_000_000));
    }

    #[test]
    fn golden_chrome_json() {
        // Golden file for the exporter's serialized form.
        let mut chrome = ChromeTrace::new();
        chrome.set_process_name(1, "n0 (10.0.0.1)");
        chrome.add_instant(
            "stat -> ENOENT",
            SimTime::from_millis(1500),
            1,
            TID_SYSCALLS,
            "scf",
            BTreeMap::from([("pid".to_owned(), "pid:9".to_owned())]),
        );
        assert_eq!(
            chrome.to_json(),
            "{\"traceEvents\":[\
             {\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"n0 (10.0.0.1)\"}},\
             {\"name\":\"stat -> ENOENT\",\"ph\":\"i\",\"ts\":1500000,\"pid\":1,\
             \"tid\":1,\"cat\":\"scf\",\"s\":\"t\",\
             \"args\":{\"pid\":\"pid:9\"}}]}"
        );
    }

    #[test]
    fn output_loads_as_json_with_escaping_and_unique_tracks() {
        // Load-check (never string-compare): hostile names and paths must
        // survive serialization, and every simulated node must land on its
        // own pid with distinct tids per lane.
        let nasty = "wal \"seg\\1\"\npath\twith\u{7f}ctrl";
        let trace = Trace::from_events(vec![
            Event::new(
                SimTime::from_secs(1),
                NodeId(0),
                EventKind::Scf {
                    pid: Pid(1),
                    syscall: SyscallId::Write,
                    fd: Some(Fd(3)),
                    path: Some(nasty.into()),
                    errno: Errno::Eio,
                    ei: None,
                },
            ),
            Event::new(
                SimTime::from_secs(2),
                NodeId(1),
                EventKind::Ps {
                    pid: Pid(2),
                    state: ProcState::Crashed,
                    duration: SimDuration::ZERO,
                },
            ),
            Event::new(
                SimTime::from_secs(3),
                NodeId(2),
                EventKind::Af {
                    pid: Pid(3),
                    function: FunctionId(9),
                },
            ),
        ]);
        let functions = BTreeMap::from([(FunctionId(9), "apply\"entry\"".to_owned())]);
        let mut chrome = ChromeTrace::from_trace(&trace, &functions);
        chrome.add_flow_anchor(nasty, 1_000_000, node_pid(NodeId(0)));
        chrome.add_flow_step("f0 SCF(write)", 1_000_000, node_pid(NodeId(0)), "s", 1);
        let json = chrome.to_json();

        // 1. The bytes parse as JSON at all.
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = value["traceEvents"].as_array().unwrap();

        // 2. Escaped names/paths decode back to the original strings.
        assert!(events
            .iter()
            .any(|e| e["args"]["path"].as_str() == Some(nasty)));
        assert!(events
            .iter()
            .any(|e| e["name"].as_str() == Some("apply\"entry\"")));
        assert!(events.iter().any(|e| e["name"].as_str() == Some(nasty)));

        // 3. Each simulated node owns a unique pid, and lanes within a
        //    node's track use distinct tids.
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
        let mut lanes: std::collections::BTreeSet<(u64, u64)> = Default::default();
        for e in events {
            if e["ph"] == "M" {
                continue;
            }
            lanes.insert((e["pid"].as_u64().unwrap(), e["tid"].as_u64().unwrap()));
        }
        // scf on (1, syscalls), ps on (2, process), af on (3, functions),
        // causal anchors on (1, causal): all distinct lanes.
        assert!(lanes.len() >= 4, "expected distinct lanes, got {lanes:?}");

        // 4. And the typed round-trip is lossless.
        assert_eq!(ChromeTrace::from_json(&json).unwrap(), chrome);
    }

    #[test]
    fn json_round_trips() {
        let functions = BTreeMap::new();
        let chrome = ChromeTrace::from_trace(&sample_trace(), &functions);
        let back = ChromeTrace::from_json(&chrome.to_json()).unwrap();
        assert_eq!(chrome, back);
    }
}
