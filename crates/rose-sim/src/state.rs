//! Run state shared with oracles and checkers: logs, client-operation
//! history, and statistics.

use std::cell::{Ref, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use rose_events::{NodeId, SimTime, SyscallId};

/// One application log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLine {
    /// When it was written.
    pub ts: SimTime,
    /// Which node wrote it.
    pub node: NodeId,
    /// The text.
    pub line: String,
}

/// The cluster-wide application log, the input of log-grep bug oracles.
#[derive(Debug, Clone, Default)]
pub struct Logs {
    lines: Vec<LogLine>,
}

impl Logs {
    /// Appends a line.
    pub fn push(&mut self, ts: SimTime, node: NodeId, line: String) {
        self.lines.push(LogLine { ts, node, line });
    }

    /// All lines in write order.
    pub fn lines(&self) -> &[LogLine] {
        &self.lines
    }

    /// Whether any line contains `needle` (the paper's log-grep oracle).
    pub fn grep(&self, needle: &str) -> bool {
        self.lines.iter().any(|l| l.line.contains(needle))
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no line was written.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// A client identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u32);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// What a read returned: the first `len` bytes of an append-only log text.
///
/// A list store keeps one view per key, its values joined by commas
/// (`v1,v2,v3`), and appends through it ([`ListView::push`]): in place
/// while the view ends where its log does, otherwise into a fresh log that
/// starts with the view's own text. A read reply, a snapshot payload and
/// the history's [`OpOutcome::Ok`] are clones of the store's view — a
/// pointer and a length — so a run keeps one copy of each list, however
/// often it is read. Appends only add bytes past a log's end, so no view's
/// text ever changes. A run never leaves its thread, hence `Rc`.
///
/// A value is non-empty and holds no comma: the joined text could not tell
/// such a value apart, and the checkers split on commas.
#[derive(Clone, Default)]
pub struct ListView {
    log: Rc<RefCell<String>>,
    len: usize,
}

impl ListView {
    /// A fresh log of `values`, joined by commas.
    pub fn from_values<'a>(values: impl IntoIterator<Item = &'a str>) -> ListView {
        let mut view = ListView::default();
        for value in values {
            view.push(value);
        }
        view
    }

    /// The text: the values joined by commas, `""` for no value.
    pub fn text(&self) -> Ref<'_, str> {
        Ref::map(self.log.borrow(), |log| &log[..self.len])
    }

    /// The text's length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list holds no value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `self` reads `earlier`'s log, not shorter: its text is then
    /// `earlier`'s followed by what was appended since, without comparing
    /// a byte.
    pub fn continues(&self, earlier: &ListView) -> bool {
        Rc::ptr_eq(&self.log, &earlier.log) && self.len >= earlier.len
    }

    /// Appends `value`: in place if this view ends where its log does,
    /// otherwise into a fresh log holding this view's text first.
    ///
    /// # Panics
    ///
    /// If a [`ListView::text`] of the same log is still borrowed: the run
    /// reads a text only while nothing appends (one oracle call).
    pub fn push(&mut self, value: &str) {
        if self.log.borrow().len() != self.len {
            let mut text = String::with_capacity(self.len + 1 + value.len());
            text.push_str(&self.text());
            self.log = Rc::new(RefCell::new(text));
        }
        let mut log = self.log.borrow_mut();
        if !log.is_empty() {
            log.push(',');
        }
        log.push_str(value);
        self.len = log.len();
    }

    /// Keeps the values `keep` accepts; a fresh log if it drops any.
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        let kept = ListView::from_values(
            self.text()
                .split(',')
                .filter(|value| !value.is_empty() && keep(value)),
        );
        if kept.len != self.len {
            *self = kept;
        }
    }
}

/// A one-off read text, in a log of its own.
impl From<String> for ListView {
    fn from(text: String) -> ListView {
        ListView {
            len: text.len(),
            log: Rc::new(RefCell::new(text)),
        }
    }
}

impl PartialEq for ListView {
    fn eq(&self, other: &ListView) -> bool {
        *self.text() == *other.text()
    }
}

impl Eq for ListView {}

/// Prints the text, quoted like a `str`.
impl fmt::Debug for ListView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text(), f)
    }
}

/// Outcome of a client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// Acknowledged with an optional value (reads carry the value read).
    Ok(Option<ListView>),
    /// Explicit failure.
    Fail(String),
    /// No response within the client timeout — outcome unknown (may or may
    /// not have taken effect; checkers must treat it as indeterminate).
    Timeout,
}

/// One operation in the Jepsen-style history consumed by the Elle-like
/// checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryOp {
    /// Issuing client.
    pub client: ClientId,
    /// Operation description, e.g. `append k=3 v=17` or `read k=3`.
    pub op: String,
    /// Invocation time.
    pub invoked: SimTime,
    /// Completion time, if completed.
    pub completed: Option<SimTime>,
    /// Result.
    pub outcome: OpOutcome,
}

/// The run history: invoked and completed client operations.
#[derive(Debug, Clone, Default)]
pub struct History {
    ops: Vec<HistoryOp>,
}

impl History {
    /// Records an invocation, returning its index for later completion.
    pub fn invoke(&mut self, client: ClientId, op: String, now: SimTime) -> usize {
        self.ops.push(HistoryOp {
            client,
            op,
            invoked: now,
            completed: None,
            outcome: OpOutcome::Timeout,
        });
        self.ops.len() - 1
    }

    /// Completes a previously invoked operation.
    pub fn complete(&mut self, idx: usize, now: SimTime, outcome: OpOutcome) {
        if let Some(op) = self.ops.get_mut(idx) {
            op.completed = Some(now);
            op.outcome = outcome;
        }
    }

    /// All operations in invocation order.
    pub fn ops(&self) -> &[HistoryOp] {
        &self.ops
    }

    /// Completed, acknowledged-ok operations.
    pub fn acknowledged(&self) -> impl Iterator<Item = &HistoryOp> {
        self.ops
            .iter()
            .filter(|o| matches!(o.outcome, OpOutcome::Ok(_)))
    }

    /// Number of operations invoked.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing was invoked.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Counters collected during a run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Total system calls executed (including overridden ones).
    pub syscalls: u64,
    /// System calls that returned an error.
    pub syscall_failures: u64,
    /// Per-call-id invocation counts, indexed by the id's discriminant.
    per_syscall: [u64; SyscallId::ALL.len()],
    /// Node-to-node packets delivered.
    pub packets: u64,
    /// Process crashes (injected or application panics).
    pub crashes: u64,
    /// Node restarts performed by the supervisor.
    pub restarts: u64,
}

impl SimStats {
    /// Records one syscall invocation.
    pub fn count_syscall(&mut self, id: SyscallId, failed: bool) {
        self.syscalls += 1;
        self.per_syscall[id as usize] += 1;
        if failed {
            self.syscall_failures += 1;
        }
    }

    /// Invocation counts of the calls that ran at least once.
    pub fn per_syscall(&self) -> BTreeMap<SyscallId, u64> {
        SyscallId::ALL
            .into_iter()
            .map(|id| (id, self.per_syscall[id as usize]))
            .filter(|(_, count)| *count > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn an_append_at_the_tip_extends_the_log_in_place() {
        let mut store = ListView::default();
        assert_eq!(&*store.text(), "");
        store.push("v1");
        let first = store.clone();
        store.push("v2");
        let second = store.clone();
        store.push("v3");
        assert!(store.continues(&first) && store.continues(&second));
        assert!(
            !first.continues(&second),
            "a shorter view does not continue"
        );
        assert_eq!(
            [&*first.text(), &*second.text(), &*store.text()],
            ["v1", "v1,v2", "v1,v2,v3"]
        );
    }

    #[test]
    fn an_append_through_an_older_view_or_a_removal_starts_a_new_log() {
        let mut store = ListView::from_values(["v1", "v2"]);
        let old = store.clone();
        store.push("v3");
        let mut follower = old.clone();
        follower.push("v9");
        assert!(!follower.continues(&old), "the tip had moved on");
        assert_eq!(&*follower.text(), "v1,v2,v9");
        assert_eq!(&*store.text(), "v1,v2,v3");
        // The fork is the follower's own: it appends there in place.
        let forked = follower.clone();
        follower.push("v10");
        assert!(follower.continues(&forked));

        let mut rolled_back = store.clone();
        rolled_back.retain(|v| v != "v2");
        assert!(!rolled_back.continues(&store));
        assert_eq!(&*rolled_back.text(), "v1,v3");
        let mut kept = store.clone();
        kept.retain(|_| true);
        assert!(kept.continues(&store) && store.continues(&kept));
        let mut emptied = store.clone();
        emptied.retain(|_| false);
        assert!(emptied.is_empty() && !emptied.continues(&store));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Three stores, each a view beside the values pushed to it, step
        /// by step: append to one, remove a value from one, install one's
        /// view in another (a snapshot), or read one.
        #[test]
        fn a_view_reads_the_joined_values_and_never_changes(
            steps in proptest::collection::vec((0u8..8, 0u8..3, 0u8..3, 0u8..32), 0..60)
        ) {
            let mut stores: [(ListView, Vec<String>); 3] = Default::default();
            let mut reads: Vec<(ListView, String)> = Vec::new();
            for (kind, at, from, val) in steps {
                let (at, from) = (usize::from(at), usize::from(from));
                match kind {
                    0..=3 => {
                        let value = format!("v{val}");
                        stores[at].0.push(&value);
                        stores[at].1.push(value);
                    }
                    4 => {
                        let drop = format!("v{val}");
                        stores[at].0.retain(|v| v != drop);
                        stores[at].1.retain(|v| *v != drop);
                    }
                    5 => stores[at] = stores[from].clone(),
                    _ => {
                        let view = stores[at].0.clone();
                        let text = view.text().to_string();
                        reads.push((view, text));
                    }
                }
                for (view, values) in &stores {
                    prop_assert_eq!(&*view.text(), values.join(","));
                    prop_assert_eq!(view.len(), view.text().len());
                }
            }
            for (view, text) in &reads {
                prop_assert_eq!(&*view.text(), text.as_str());
            }
        }
    }

    #[test]
    fn grep_finds_substrings() {
        let mut logs = Logs::default();
        logs.push(SimTime::ZERO, NodeId(0), "boot ok".into());
        logs.push(
            SimTime::from_secs(1),
            NodeId(1),
            "PANIC: snapshot index mismatch".into(),
        );
        assert!(logs.grep("snapshot index mismatch"));
        assert!(!logs.grep("unrelated"));
    }

    #[test]
    fn history_invoke_complete_cycle() {
        let mut h = History::default();
        let i = h.invoke(ClientId(0), "append k=1 v=2".into(), SimTime::ZERO);
        assert_eq!(h.acknowledged().count(), 0);
        h.complete(i, SimTime::from_millis(3), OpOutcome::Ok(None));
        assert_eq!(h.acknowledged().count(), 1);
        assert_eq!(h.ops()[i].completed, Some(SimTime::from_millis(3)));
    }

    #[test]
    fn incomplete_ops_are_timeouts() {
        let mut h = History::default();
        h.invoke(ClientId(1), "read k=1".into(), SimTime::ZERO);
        assert_eq!(h.ops()[0].outcome, OpOutcome::Timeout);
    }

    #[test]
    fn stats_count_failures_separately() {
        let mut s = SimStats::default();
        s.count_syscall(SyscallId::Read, false);
        s.count_syscall(SyscallId::Read, true);
        assert_eq!(s.syscalls, 2);
        assert_eq!(s.syscall_failures, 1);
        assert_eq!(s.per_syscall(), BTreeMap::from([(SyscallId::Read, 2)]));
    }
}
