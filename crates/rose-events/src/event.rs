//! Trace events.
//!
//! The paper (§4.4.1) represents a trace as a sequence of events
//! `E_i = {ts, type, I}` with four types: system-call failures (SCF),
//! application functions (AF), network delays (ND) and process states (PS).
//! The `I` payload is type-specific and intentionally minimal — the tracer
//! must stay below a few percent overhead in production.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::{Fd, FunctionId, IpAddr, NodeId, Pid};
use crate::syscall::{Errno, SyscallId};
use crate::time::{SimDuration, SimTime};

/// The observed state of a process, for PS events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcState {
    /// The process has been in the kernel `waiting` state past the detection
    /// threshold — a likely pause.
    Waiting,
    /// The process was killed externally (SIGKILL-style exit status) — an
    /// external fault.
    Crashed,
    /// The process exited through its own abort path (failed assertion,
    /// uncaught exception). Observable black-box via the `wait(2)` status;
    /// a failure *manifestation*, not an injectable external fault.
    Aborted,
    /// The process came back after a crash (a fresh pid was observed for the
    /// node).
    Restarted,
}

impl fmt::Display for ProcState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProcState::Waiting => "waiting",
            ProcState::Crashed => "crashed",
            ProcState::Aborted => "aborted",
            ProcState::Restarted => "restarted",
        };
        f.write_str(s)
    }
}

/// The execution index of a system-call invocation: its live calling
/// context (the chain of monitored function entries active on the issuing
/// process, outermost first) plus how many invocations of the same syscall
/// the node had already issued *under that exact chain*, this one included.
///
/// Unlike the flat "nth invocation of syscall X" counter, the pair
/// `(chain, count)` survives interleaving drift: reordered client ops or
/// extra benign syscalls elsewhere do not advance the per-context count, so
/// a condition keyed on it keeps firing at the same injection site
/// (distributed execution indexing, Meiklejohn et al.).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExecutionIndex {
    /// Monitored function entries active when the call was issued,
    /// outermost (oldest) first. Empty when the call was issued outside any
    /// monitored function.
    pub chain: Vec<String>,
    /// 1-based invocation count of the syscall within this exact chain on
    /// the issuing node.
    pub count: u32,
}

impl ExecutionIndex {
    /// Builds an execution index.
    pub fn new(chain: Vec<String>, count: u32) -> Self {
        ExecutionIndex { chain, count }
    }

    /// Approximate in-buffer size of the index payload in bytes.
    pub fn wire_size(&self) -> usize {
        8 + self.chain.iter().map(|f| 8 + f.len()).sum::<usize>()
    }
}

impl fmt::Display for ExecutionIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]#{}", self.chain.join(">"), self.count)
    }
}

/// The type-specific payload `I` of an event.
///
/// Layout rule: a tracer window holds hundreds of thousands of these, nearly
/// all of them the small fixed-size variants, so the rare variable-length
/// payloads (an SCF's path and execution index, an IO-content prefix) sit
/// behind one pointer each instead of sizing every event by the largest.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// System Call Failure: `{pid, syscall_id, fd, filename, errno}`.
    ///
    /// `fd` is present for fd-based I/O calls, `path` for path-based calls
    /// (captured lazily, only when the call fails) or reconstructed from the
    /// fd → path map in post-processing.
    Scf {
        /// Process that issued the failing call.
        pid: Pid,
        /// Which system call failed.
        syscall: SyscallId,
        /// File descriptor operated on, for fd-based calls.
        fd: Option<Fd>,
        /// Path operated on, when known.
        path: Option<Box<str>>,
        /// The error returned.
        errno: Errno,
        /// The call's execution index, when the tracer recorded one.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        ei: Option<Box<ExecutionIndex>>,
    },
    /// Application Function: `{pid, function_id}` — an infrequent profiled
    /// function was entered (uprobe fired).
    Af {
        /// Process that executed the function.
        pid: Pid,
        /// Profile-assigned function id.
        function: FunctionId,
    },
    /// Network Delay: `{dst_ip, src_ip, duration, packet_count}` — a tracked
    /// connection went silent for longer than the detection threshold.
    Nd {
        /// Destination (receiver-side, where the XDP tap runs).
        dst: IpAddr,
        /// Source address of the silent peer.
        src: IpAddr,
        /// Length of the silence.
        duration: SimDuration,
        /// Packets seen on the connection before the silence.
        packet_count: u64,
    },
    /// Process State: `{pid, state, duration}` — a pause, crash, or restart.
    Ps {
        /// Affected process.
        pid: Pid,
        /// Observed state.
        state: ProcState,
        /// For pauses, how long the process stayed paused; zero otherwise.
        duration: SimDuration,
    },
    /// Full-tracing record of a *successful* system call.
    ///
    /// Never produced by the production Rose tracer; used by the `Full` and
    /// `IO content` baselines of the overhead study (paper Table 2).
    SyscallOk {
        /// Process that issued the call.
        pid: Pid,
        /// Which call.
        syscall: SyscallId,
        /// Captured I/O payload prefix (`IO content` baseline only, ≤128 B).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        content: Option<Box<[u8]>>,
    },
}

impl EventKind {
    /// Whether this event describes a potential external fault (SCF, ND, or
    /// a PS pause/crash) as opposed to plain observability data.
    pub fn is_fault(&self) -> bool {
        match self {
            EventKind::Scf { .. } | EventKind::Nd { .. } => true,
            // Aborts are the failure showing, not an external fault.
            EventKind::Ps { state, .. } => {
                matches!(state, ProcState::Waiting | ProcState::Crashed)
            }
            EventKind::Af { .. } | EventKind::SyscallOk { .. } => false,
        }
    }

    /// The pid the event is attributed to, when it has one.
    pub fn pid(&self) -> Option<Pid> {
        match self {
            EventKind::Scf { pid, .. }
            | EventKind::Af { pid, .. }
            | EventKind::Ps { pid, .. }
            | EventKind::SyscallOk { pid, .. } => Some(*pid),
            EventKind::Nd { .. } => None,
        }
    }

    /// A short tag for display and statistics.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Scf { .. } => "SCF",
            EventKind::Af { .. } => "AF",
            EventKind::Nd { .. } => "ND",
            EventKind::Ps { .. } => "PS",
            EventKind::SyscallOk { .. } => "OK",
        }
    }

    /// Approximate in-buffer size of the event in bytes, used by the
    /// tracer's memory accounting (paper Table 2, `Memory` column).
    pub fn wire_size(&self) -> usize {
        // Fixed header: timestamp + node + discriminant.
        let base = 24;
        base + match self {
            EventKind::Scf { path, ei, .. } => {
                32 + path.as_ref().map_or(0, |p| p.len())
                    + ei.as_ref().map_or(0, |ei| ei.wire_size())
            }
            EventKind::Af { .. } => 8,
            EventKind::Nd { .. } => 24,
            EventKind::Ps { .. } => 16,
            EventKind::SyscallOk { content, .. } => {
                // Full-tracing records carry the argument/register snapshot
                // (~140 B, like the paper's full tracer) plus any captured
                // payload.
                140 + content.as_ref().map_or(0, |c| c.len())
            }
        }
    }
}

/// One trace event: timestamp, originating node, and payload.
///
/// Equality and hashing ignore the cached wire size (it is a pure function
/// of `kind`), and the JSON dump format carries only the three semantic
/// fields.
#[derive(Debug, Clone)]
pub struct Event {
    /// When the event was recorded.
    pub ts: SimTime,
    /// The node whose tracer recorded it.
    pub node: NodeId,
    /// Type-specific payload.
    pub kind: EventKind,
    /// [`EventKind::wire_size`], computed once at construction: the sliding
    /// window re-reads the size of both the incoming and the evicted event
    /// on every push, and recomputing it would re-walk SCF path strings and
    /// `SyscallOk` payloads on the hot path. This is Table 2's accounting
    /// figure, not the in-memory layout.
    wire: u32,
}

// A dump holds one `Event` per window slot and every store and merge stage
// moves them by value: the record stays within 56 bytes.
const _: () = assert!(size_of::<Event>() <= 56 && size_of::<EventKind>() <= 40);

impl Event {
    /// Builds an event.
    pub fn new(ts: SimTime, node: NodeId, kind: EventKind) -> Self {
        // Saturates rather than panics: a decoded file may describe an
        // absurd payload, and accounting is all this feeds.
        let wire = u32::try_from(kind.wire_size()).unwrap_or(u32::MAX);
        Event {
            ts,
            node,
            kind,
            wire,
        }
    }

    /// The event's in-buffer size in bytes ([`EventKind::wire_size`]),
    /// cached at construction.
    pub fn wire_size(&self) -> usize {
        self.wire as usize
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.ts == other.ts && self.node == other.node && self.kind == other.kind
    }
}

impl Eq for Event {}

impl core::hash::Hash for Event {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.ts.hash(state);
        self.node.hash(state);
        self.kind.hash(state);
    }
}

impl Serialize for Event {
    fn ser(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("ts".to_string(), self.ts.ser()),
            ("node".to_string(), self.node.ser()),
            ("kind".to_string(), self.kind.ser()),
        ])
    }
}

impl Deserialize for Event {
    fn de(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            serde::__field(value, name)
                .ok_or_else(|| serde::Error::msg(format!("missing field `{name}`")))
        };
        Ok(Event::new(
            SimTime::de(field("ts")?)?,
            NodeId::de(field("node")?)?,
            EventKind::de(field("kind")?)?,
        ))
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {} {}] ", self.ts, self.node, self.kind.tag())?;
        match &self.kind {
            EventKind::Scf {
                pid,
                syscall,
                fd,
                path,
                errno,
                ei,
            } => {
                write!(f, "{pid} {syscall} -> {errno}")?;
                if let Some(fd) = fd {
                    write!(f, " {fd}")?;
                }
                if let Some(p) = path {
                    write!(f, " {p:?}")?;
                }
                if let Some(ei) = ei {
                    write!(f, " ei={ei}")?;
                }
                Ok(())
            }
            EventKind::Af { pid, function } => write!(f, "{pid} {function}"),
            EventKind::Nd {
                dst,
                src,
                duration,
                packet_count,
            } => {
                write!(
                    f,
                    "{src} -> {dst} silent {duration} after {packet_count} pkts"
                )
            }
            EventKind::Ps {
                pid,
                state,
                duration,
            } => {
                write!(f, "{pid} {state} {duration}")
            }
            EventKind::SyscallOk { pid, syscall, .. } => write!(f, "{pid} {syscall} ok"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scf(errno: Errno) -> EventKind {
        EventKind::Scf {
            pid: Pid(1),
            syscall: SyscallId::Read,
            fd: Some(Fd(3)),
            path: Some("/data/snap".into()),
            errno,
            ei: None,
        }
    }

    #[test]
    fn scf_without_ei_serializes_without_the_field() {
        let e = Event::new(SimTime::from_secs(1), NodeId(0), scf(Errno::Eio));
        let json = serde_json::to_string(&e).unwrap();
        assert!(!json.contains("\"ei\""), "{json}");
    }

    #[test]
    fn scf_ei_round_trips_and_counts_in_wire_size() {
        let bare = scf(Errno::Eio);
        let mut kind = bare.clone();
        if let EventKind::Scf { ei, .. } = &mut kind {
            *ei = Some(Box::new(ExecutionIndex::new(
                vec!["applyEntry".into(), "storeSnapshotData".into()],
                3,
            )));
        }
        assert!(kind.wire_size() > bare.wire_size());
        let e = Event::new(SimTime::from_secs(1), NodeId(0), kind);
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
        assert!(e
            .to_string()
            .contains("ei=[applyEntry>storeSnapshotData]#3"));
    }

    #[test]
    fn fault_classification() {
        assert!(scf(Errno::Eio).is_fault());
        assert!(EventKind::Nd {
            dst: IpAddr(1),
            src: IpAddr(2),
            duration: SimDuration::from_secs(6),
            packet_count: 10,
        }
        .is_fault());
        assert!(!EventKind::Af {
            pid: Pid(1),
            function: FunctionId(0)
        }
        .is_fault());
        assert!(!EventKind::Ps {
            pid: Pid(1),
            state: ProcState::Restarted,
            duration: SimDuration::ZERO,
        }
        .is_fault());
        assert!(EventKind::Ps {
            pid: Pid(1),
            state: ProcState::Crashed,
            duration: SimDuration::ZERO,
        }
        .is_fault());
    }

    #[test]
    fn wire_size_counts_payload() {
        let small = EventKind::Af {
            pid: Pid(1),
            function: FunctionId(9),
        };
        let big = EventKind::SyscallOk {
            pid: Pid(1),
            syscall: SyscallId::Write,
            content: Some(vec![0u8; 128].into()),
        };
        assert!(big.wire_size() > small.wire_size() + 100);
    }

    #[test]
    fn wire_size_is_the_papers_accounting_not_the_layout() {
        // Table 2's `Memory` column sums these. They were fixed while the
        // rare payloads still lay inline in a 96-byte event and must not
        // follow the layout down.
        let ei = ExecutionIndex::new(vec!["applyEntry".into(), "fsync".into()], 3);
        assert_eq!(ei.wire_size(), 8 + (8 + 10) + (8 + 5));
        let scf = |path: Option<&str>, ei: Option<&ExecutionIndex>| EventKind::Scf {
            pid: Pid(1),
            syscall: SyscallId::Read,
            fd: Some(Fd(3)),
            path: path.map(Box::from),
            errno: Errno::Eio,
            ei: ei.cloned().map(Box::new),
        };
        let ok = |content: Option<&[u8]>| EventKind::SyscallOk {
            pid: Pid(1),
            syscall: SyscallId::Write,
            content: content.map(Box::from),
        };
        let table = [
            (scf(None, None), 56),
            (scf(Some("/data/snap"), None), 66),
            (scf(Some("/data/snap"), Some(&ei)), 105),
            (
                EventKind::Af {
                    pid: Pid(1),
                    function: FunctionId(9),
                },
                32,
            ),
            (
                EventKind::Nd {
                    dst: IpAddr(1),
                    src: IpAddr(2),
                    duration: SimDuration::from_secs(6),
                    packet_count: 10,
                },
                48,
            ),
            (
                EventKind::Ps {
                    pid: Pid(1),
                    state: ProcState::Waiting,
                    duration: SimDuration::from_secs(4),
                },
                40,
            ),
            (ok(None), 164),
            (ok(Some(&[])), 164),
            (ok(Some(&[7; 128])), 292),
        ];
        for (kind, bytes) in table {
            assert_eq!(kind.wire_size(), bytes, "{kind:?}");
            let cached = Event::new(SimTime::ZERO, NodeId(0), kind).wire_size();
            assert_eq!(cached, bytes);
        }
    }

    #[test]
    fn serde_round_trip() {
        let e = Event::new(SimTime::from_millis(42), NodeId(3), scf(Errno::Enoent));
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn display_is_readable() {
        let e = Event::new(SimTime::from_secs(1), NodeId(0), scf(Errno::Eio));
        let s = e.to_string();
        assert!(s.contains("SCF"), "{s}");
        assert!(s.contains("EIO"), "{s}");
        assert!(s.contains("/data/snap"), "{s}");
    }
}
