//! An Elle-style consistency checker over Jepsen-like operation histories.
//!
//! Jepsen uses Elle as its bug oracle for the Redpanda analyses the paper
//! reproduces (§6.1); Rose runs the checker after each testing run. This
//! implementation checks append-only-list histories — the same workload
//! family Jepsen uses — for:
//!
//! - **duplicate appends**: an acknowledged value appears more than once in
//!   a read (Redpanda-3003: lost deduplication);
//! - **offset inconsistencies**: two reads of the same key disagree on a
//!   prefix (Redpanda-3039: inconsistent offsets);
//! - **lost writes**: an acknowledged append missing from the final read
//!   (MongoDB 2.4.3: acknowledged-write rollback).
//!
//! History string format (produced by the workload clients):
//! `append k=<key> v=<value>` and `read k=<key>` with the read outcome
//! carrying the comma-separated list.

use std::cell::Ref;
use std::collections::{BTreeMap, HashSet};

use rose_events::FnvBuildHasher;
use rose_sim::{History, ListView, OpOutcome};

/// One detected anomaly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anomaly {
    /// A value occurs more than once in a read of `key`.
    Duplicate {
        /// Affected key.
        key: String,
        /// The repeated value.
        value: String,
    },
    /// Two reads of `key` are not prefix-consistent.
    InconsistentOffsets {
        /// Affected key.
        key: String,
    },
    /// An acknowledged append of `value` is missing from the final read.
    LostWrite {
        /// Affected key.
        key: String,
        /// The lost value.
        value: String,
    },
    /// A read returned an older state than a previously acknowledged read
    /// (stale read).
    StaleRead {
        /// Affected key.
        key: String,
    },
}

/// The checker verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElleReport {
    /// All anomalies found.
    pub anomalies: Vec<Anomaly>,
}

impl ElleReport {
    /// Whether the history is anomaly-free.
    pub fn ok(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Whether a duplicate-append anomaly exists.
    pub fn has_duplicates(&self) -> bool {
        self.anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::Duplicate { .. }))
    }

    /// Whether reads disagree on offsets/prefixes.
    pub fn has_inconsistent_offsets(&self) -> bool {
        self.anomalies.iter().any(|a| {
            matches!(
                a,
                Anomaly::InconsistentOffsets { .. } | Anomaly::StaleRead { .. }
            )
        })
    }

    /// Whether an acknowledged write was lost.
    pub fn has_lost_writes(&self) -> bool {
        self.anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::LostWrite { .. }))
    }
}

fn parse_kv<'a>(op: &'a str, verb: &str) -> Option<(&'a str, Option<&'a str>)> {
    let rest = op.strip_prefix(verb)?.trim();
    let mut key = None;
    let mut value = None;
    for tok in rest.split_whitespace() {
        if let Some(k) = tok.strip_prefix("k=") {
            key = Some(k);
        } else if let Some(v) = tok.strip_prefix("v=") {
            value = Some(v);
        }
    }
    key.map(|k| (k, value))
}

/// What one key's acknowledged operations say, borrowed from the history.
#[derive(Default)]
struct KeyOps<'h> {
    /// Acked appends: (value, ack time µs).
    acked: Vec<(&'h str, u64)>,
    /// Ok reads in history order.
    reads: Vec<Read<'h>>,
}

/// One ok read, borrowed from the history.
struct Read<'h> {
    /// The list read, if the read returned one.
    list: Option<&'h ListView>,
    /// Its text, borrowed while the check runs.
    text: Option<Ref<'h, str>>,
    /// Invocation time µs.
    invoked: u64,
}

impl<'h> Read<'h> {
    fn new(list: Option<&'h ListView>, invoked: u64) -> Read<'h> {
        let text = list.map(ListView::text);
        Read {
            list,
            text,
            invoked,
        }
    }

    /// The list as recorded, comma-separated.
    fn text(&self) -> &str {
        self.text.as_deref().unwrap_or("")
    }

    /// What [`appended`] says of `self` read after `earlier`. Two views of
    /// one log, the later not shorter, continue each other without a byte
    /// compared; reads of different logs compare their texts.
    fn appended_to(&self, earlier: &Read<'_>) -> Option<&str> {
        let same_log = match (earlier.list, self.list) {
            (Some(a), Some(b)) => b.continues(a),
            _ => false,
        };
        appended(earlier.text(), self.text(), same_log)
    }
}

/// The values of a recorded read.
fn values_of(list: &str) -> impl Iterator<Item = &str> {
    list.split(',').filter(|s| !s.is_empty())
}

/// If the recorded list `b` is the recorded list `a` with more appended —
/// the same text, continued at a comma — the appended part: the values of
/// `b` are then those of `a` followed by those of the result. This is how
/// successive reads of a healthy store relate. `same_log` says that `b`
/// already starts with `a` (both view one log); otherwise one `memcmp`
/// decides. `None` only says the texts differ, not that the values do.
fn appended<'h>(a: &str, b: &'h str, same_log: bool) -> Option<&'h str> {
    if !same_log && !b.starts_with(a) {
        return None;
    }
    let rest = &b[a.len()..];
    if a.is_empty() || rest.is_empty() {
        Some(rest)
    } else {
        rest.strip_prefix(',')
    }
}

/// Checks an append-list history.
///
/// A pure function of the history, called again on the whole history at
/// every oracle poll of a run: it copies nothing — keys, values and read
/// lists stay `&str`s into `history` until one lands in an [`Anomaly`] —
/// and a read that continues the previous one's log is looked at only
/// past the previous one's end.
pub fn check_appends(history: &History) -> ElleReport {
    let mut report = ElleReport::default();
    let mut keys: BTreeMap<&str, KeyOps<'_>> = BTreeMap::new();
    for op in history.ops() {
        let OpOutcome::Ok(out) = &op.outcome else {
            continue;
        };
        if let Some((k, Some(v))) = parse_kv(&op.op, "append") {
            let at = op.completed.map(|t| t.as_micros()).unwrap_or(u64::MAX);
            keys.entry(k).or_default().acked.push((v, at));
        } else if let Some((k, _)) = parse_kv(&op.op, "read") {
            let read = Read::new(out.as_ref(), op.invoked.as_micros());
            keys.entry(k).or_default().reads.push(read);
        }
    }

    // The values of one read at a time.
    let mut seen: HashSet<&str, FnvBuildHasher> = HashSet::default();
    for (key, ops) in &keys {
        // Duplicates within any single read. A read that continues a
        // duplicate-free one repeats none of its values either, so only
        // what it appended is looked at, against the values already seen.
        let mut clean_prev: Option<&Read<'_>> = None;
        for read in &ops.reads {
            let unseen = clean_prev
                .and_then(|prev| read.appended_to(prev))
                .unwrap_or_else(|| {
                    seen.clear();
                    read.text()
                });
            let found = report.anomalies.len();
            for v in values_of(unseen) {
                if !seen.insert(v) {
                    report.anomalies.push(Anomaly::Duplicate {
                        key: key.to_string(),
                        value: v.to_string(),
                    });
                }
            }
            clean_prev = (report.anomalies.len() == found).then_some(read);
        }
        // Prefix consistency between successive reads.
        for w in ops.reads.windows(2) {
            if w[1].appended_to(&w[0]).is_some() {
                continue;
            }
            let (a, b) = (w[0].text(), w[1].text());
            let a_len = values_of(a).count();
            if values_of(b).count() < a_len {
                report.anomalies.push(Anomaly::StaleRead {
                    key: key.to_string(),
                });
            } else if !values_of(a).eq(values_of(b).take(a_len)) {
                report.anomalies.push(Anomaly::InconsistentOffsets {
                    key: key.to_string(),
                });
            }
        }
        // Lost acknowledged appends, judged against the final read — but
        // only appends acknowledged a round-trip before that read was
        // issued (appends racing the read on the wire are not losses).
        // `seen` holds that read's values: the duplicate scan ended on it.
        const RTT_GUARD_US: u64 = 10_000;
        let Some(final_invoked) = ops.reads.last().map(|read| read.invoked) else {
            continue;
        };
        for &(v, acked_at) in &ops.acked {
            let settled = acked_at.saturating_add(RTT_GUARD_US) < final_invoked;
            if settled && !seen.contains(v) {
                report.anomalies.push(Anomaly::LostWrite {
                    key: key.to_string(),
                    value: v.to_string(),
                });
            }
        }
    }
    report
}

/// Write-availability check: true when append operations were invoked but
/// none was acknowledged in the trailing `window_us` microseconds of the
/// history — the service went (write-)unavailable (ZooKeeper-2247,
/// MongoDB 3.2.10). Reads are ignored: a leader that serves reads while
/// silently dropping writes is still an outage.
pub fn unavailable_tail(history: &History, window_us: u64) -> bool {
    let appends = || history.ops().iter().filter(|o| o.op.starts_with("append"));
    let Some(last_invoked) = appends().map(|o| o.invoked).max() else {
        return false;
    };
    let cutoff = last_invoked.as_micros().saturating_sub(window_us);
    let invoked_in_tail = appends()
        .filter(|o| o.invoked.as_micros() >= cutoff)
        .count();
    let acked_in_tail = appends()
        .filter(|o| {
            matches!(o.outcome, OpOutcome::Ok(_))
                && o.completed.is_some_and(|c| c.as_micros() >= cutoff)
        })
        .count();
    invoked_in_tail > 3 && acked_in_tail == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rose_events::{SimDuration, SimTime};
    use rose_sim::ClientId;

    fn hist(entries: &[(&str, OpOutcome)]) -> History {
        let mut h = History::default();
        for (i, (op, out)) in entries.iter().enumerate() {
            // Seconds apart: comfortably beyond the in-flight RTT guard.
            let idx = h.invoke(ClientId(0), op.to_string(), SimTime::from_secs(i as u64));
            h.complete(
                idx,
                SimTime::from_secs(i as u64) + SimDuration::from_millis(1),
                out.clone(),
            );
        }
        h
    }

    fn ok(v: &str) -> OpOutcome {
        OpOutcome::Ok(Some(v.to_string().into()))
    }

    /// `check_appends` as it was while it copied: a `String` per key, value
    /// and read element, at every poll. Kept as the reference the
    /// borrowing checker must equal, anomaly for anomaly and in order.
    fn check_appends_copying(history: &History) -> ElleReport {
        let mut report = ElleReport::default();
        // Acked appends per key: (value, ack time µs).
        let mut acked: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
        // All reads per key, in completion order: (values list).
        let mut reads: BTreeMap<String, Vec<Vec<String>>> = BTreeMap::new();
        // Read invocation times per key, aligned with `reads`.
        let mut read_invokes: BTreeMap<String, Vec<u64>> = BTreeMap::new();

        for op in history.ops() {
            match &op.outcome {
                OpOutcome::Ok(out) => {
                    if let Some((k, Some(v))) = parse_kv(&op.op, "append") {
                        let at = op.completed.map(|t| t.as_micros()).unwrap_or(u64::MAX);
                        acked
                            .entry(k.to_string())
                            .or_default()
                            .push((v.to_string(), at));
                    } else if let Some((k, _)) = parse_kv(&op.op, "read") {
                        let text = out.as_ref().map(|list| list.text().to_string());
                        let values: Vec<String> = text
                            .as_deref()
                            .unwrap_or("")
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect();
                        reads.entry(k.to_string()).or_default().push(values);
                        read_invokes
                            .entry(k.to_string())
                            .or_default()
                            .push(op.invoked.as_micros());
                    }
                }
                OpOutcome::Fail(_) | OpOutcome::Timeout => {}
            }
        }

        for (key, rs) in &reads {
            // Duplicates within any single read.
            for r in rs {
                let mut seen = std::collections::BTreeSet::new();
                for v in r {
                    if !seen.insert(v) {
                        report.anomalies.push(Anomaly::Duplicate {
                            key: key.clone(),
                            value: v.clone(),
                        });
                    }
                }
            }
            // Prefix consistency between successive reads.
            for w in rs.windows(2) {
                let (a, b) = (&w[0], &w[1]);
                if b.len() < a.len() {
                    report
                        .anomalies
                        .push(Anomaly::StaleRead { key: key.clone() });
                } else if b[..a.len()] != a[..] {
                    report
                        .anomalies
                        .push(Anomaly::InconsistentOffsets { key: key.clone() });
                }
            }
            // Lost acknowledged appends, judged against the final read — but
            // only appends acknowledged a round-trip before that read was
            // issued (appends racing the read on the wire are not losses).
            const RTT_GUARD_US: u64 = 10_000;
            if let (Some(final_read), Some(appends)) = (rs.last(), acked.get(key)) {
                for (v, acked_at) in appends {
                    let settled = read_invokes
                        .get(key)
                        .and_then(|t| t.last())
                        .is_some_and(|t| acked_at + RTT_GUARD_US < *t);
                    if settled && !final_read.contains(v) {
                        report.anomalies.push(Anomaly::LostWrite {
                            key: key.clone(),
                            value: v.clone(),
                        });
                    }
                }
            }
        }
        report
    }

    /// One generated operation: kind, key, value, µs since the previous
    /// invocation, µs until completion, and dice for everything else.
    type GenOp = (u8, u8, u8, u64, u64, u64);

    fn gen_ops() -> impl Strategy<Value = Vec<GenOp>> {
        proptest::collection::vec(
            (
                0u8..10,
                0u8..3,
                0u8..128,
                0u64..30_000,
                0u64..25_000,
                0u64..u64::MAX,
            ),
            0..80,
        )
    }

    /// Plays generated operations against a per-key model list and records
    /// what a faulty store might answer: reads that are stale, diverge in
    /// their prefix, repeat or drop a value or carry empty segments;
    /// appends that fail, time out, stay pending, land without an ack or
    /// are acked without landing, some inside the 10 ms guard before the
    /// next read and some outside; malformed operation strings; and
    /// completions out of invocation order.
    fn history_of(ops: &[GenOp]) -> History {
        let mut h = History::default();
        let mut model: [Vec<String>; 3] = Default::default();
        let mut now = 0u64;
        let mut completions: Vec<(u64, usize, OpOutcome)> = Vec::new();
        for &(kind, key, val, gap, latency, dice) in ops {
            now += gap;
            let k = ["a", "b", "c"][usize::from(key)];
            let list = &mut model[usize::from(key)];
            let unacked = match dice % 8 {
                0 => Some(Some(OpOutcome::Fail("refused".into()))),
                1 => Some(Some(OpOutcome::Timeout)),
                2 => Some(None),
                _ => None,
            };
            let (op, outcome) = match kind {
                0..=4 => {
                    let v = format!("v{val}");
                    let landed = match &unacked {
                        Some(Some(OpOutcome::Fail(_))) => false,
                        _ => (dice >> 8) % 8 != 0,
                    };
                    if landed {
                        list.push(v.clone());
                    }
                    let outcome = unacked.unwrap_or(Some(OpOutcome::Ok(None)));
                    (format!("append k={k} v={v}"), outcome)
                }
                5..=8 => {
                    let mut seen = list.clone();
                    let at = (dice >> 16) as usize % seen.len().max(1);
                    match (dice >> 8) % 8 {
                        0 => seen.truncate(at),
                        1 if !seen.is_empty() => seen[at] = "vX".into(),
                        2 if !seen.is_empty() => seen.insert(at, seen[at].clone()),
                        3 if !seen.is_empty() => drop(seen.remove(at)),
                        _ => {}
                    }
                    let mut text = seen.join(",");
                    if (dice >> 32) % 8 == 0 {
                        text = format!(",{text},,");
                    }
                    let answer = if (dice >> 40) % 16 == 0 {
                        None
                    } else {
                        Some(text.into())
                    };
                    let outcome = unacked.unwrap_or(Some(OpOutcome::Ok(answer)));
                    (format!("read k={k}"), outcome)
                }
                _ => {
                    let junk = [
                        "append k=a",
                        "read",
                        "update a=1",
                        "append v=v1",
                        "read k=b v=9",
                        "append  k=c  v=v2 v=v3",
                    ];
                    let op = junk[(dice >> 8) as usize % junk.len()].to_string();
                    (op, Some(ok("v1,v1")))
                }
            };
            let idx = h.invoke(ClientId(u32::from(key)), op, SimTime::from_micros(now));
            if let Some(outcome) = outcome {
                completions.push((now + latency, idx, outcome));
            }
        }
        completions.sort_by_key(|c| (c.0, c.1));
        for (at, idx, outcome) in completions {
            h.complete(idx, SimTime::from_micros(at), outcome);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn the_borrowing_checker_equals_the_copying_one(ops in gen_ops()) {
            let h = history_of(&ops);
            prop_assert_eq!(check_appends(&h), check_appends_copying(&h));
        }
    }

    /// One operation of a history over shared logs: (client, op, invoked
    /// µs, completion µs and outcome if it completed).
    type Entry = (u32, String, u64, Option<(u64, OpOutcome)>);

    /// Plays generated operations against two stores of three keys, as a
    /// replicated list store does, and records every read as a view of the
    /// store's own log: appends land in one store or both, a rollback
    /// drops a value (a fresh log), an install hands one store the other's
    /// view (one log, two stores), and a corrupted read is a text of its
    /// own. Outcomes, latencies and guards vary as in [`history_of`].
    fn shared_log_entries(ops: &[GenOp]) -> Vec<Entry> {
        let mut stores: [[ListView; 3]; 2] = Default::default();
        let mut now = 0u64;
        let mut entries = Vec::new();
        for &(kind, key, val, gap, latency, dice) in ops {
            now += gap;
            let (k, key) = (["a", "b", "c"][usize::from(key)], usize::from(key));
            let (at, other) = ((dice & 1) as usize, 1 - (dice & 1) as usize);
            let v = format!("v{}", val % 16);
            let unacked = match (dice >> 1) % 8 {
                0 => Some(Some(OpOutcome::Fail("refused".into()))),
                1 => Some(Some(OpOutcome::Timeout)),
                2 => Some(None),
                _ => None,
            };
            let (op, outcome) = match kind {
                0..=3 => {
                    if !matches!(unacked, Some(Some(OpOutcome::Fail(_)))) {
                        stores[at][key].push(&v);
                        if (dice >> 8) % 2 == 0 {
                            stores[other][key].push(&v);
                        }
                    }
                    let outcome = unacked.unwrap_or(Some(OpOutcome::Ok(None)));
                    (format!("append k={k} v={v}"), outcome)
                }
                4 => {
                    stores[at][key].retain(|x| x != v);
                    continue;
                }
                5 => {
                    stores[at][key] = stores[other][key].clone();
                    continue;
                }
                _ => {
                    let mut list = stores[at][key].clone();
                    if (dice >> 8) % 8 == 0 {
                        let text = list.text().replacen(&v, "vX", 1);
                        list = text.into();
                    }
                    let outcome = unacked.unwrap_or(Some(OpOutcome::Ok(Some(list))));
                    (format!("read k={k}"), outcome)
                }
            };
            let done = outcome.map(|outcome| (now + latency, outcome));
            entries.push((u32::from(kind), op, now, done));
        }
        entries
    }

    /// The history of `entries`.
    fn history_of_entries(entries: &[Entry]) -> History {
        let mut h = History::default();
        for (client, op, invoked, done) in entries {
            let idx = h.invoke(
                ClientId(*client),
                op.clone(),
                SimTime::from_micros(*invoked),
            );
            if let Some((at, outcome)) = done {
                h.complete(idx, SimTime::from_micros(*at), outcome.clone());
            }
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn reads_of_shared_logs_are_judged_as_their_texts(ops in gen_ops()) {
            let entries = shared_log_entries(&ops);
            for n in 0..=entries.len() {
                let h = history_of_entries(&entries[..n]);
                prop_assert_eq!(check_appends(&h), check_appends_copying(&h), "prefix {}", n);
            }
        }
    }

    #[test]
    fn the_shared_log_histories_continue_logs_and_reach_every_anomaly() {
        let mut rng = proptest::test_runner::TestRng::deterministic();
        let (mut continued, mut forked) = (0, 0);
        let mut found = [0; 4];
        for _ in 0..256 {
            let h = history_of_entries(&shared_log_entries(&gen_ops().generate(&mut rng)));
            let mut last: BTreeMap<&str, &ListView> = BTreeMap::new();
            for op in h.ops() {
                if let (Some((k, _)), OpOutcome::Ok(Some(list))) =
                    (parse_kv(&op.op, "read"), &op.outcome)
                {
                    if let Some(prev) = last.insert(k, list) {
                        match list.continues(prev) {
                            true => continued += 1,
                            false if list.text().starts_with(&*prev.text()) => forked += 1,
                            false => {}
                        }
                    }
                }
            }
            for a in &check_appends(&h).anomalies {
                found[match a {
                    Anomaly::Duplicate { .. } => 0,
                    Anomaly::InconsistentOffsets { .. } => 1,
                    Anomaly::StaleRead { .. } => 2,
                    Anomaly::LostWrite { .. } => 3,
                }] += 1;
            }
        }
        assert!(
            continued > 100 && forked > 10 && found.iter().all(|&n| n > 0),
            "continued {continued}, text-only continuations {forked}, anomalies {found:?}"
        );
    }

    #[test]
    fn the_generated_histories_reach_every_anomaly() {
        let mut rng = proptest::test_runner::TestRng::deterministic();
        let (mut dup, mut offsets, mut stale, mut lost, mut clean) = (0, 0, 0, 0, 0);
        for _ in 0..256 {
            let report = check_appends(&history_of(&gen_ops().generate(&mut rng)));
            clean += usize::from(report.ok());
            for a in &report.anomalies {
                match a {
                    Anomaly::Duplicate { .. } => dup += 1,
                    Anomaly::InconsistentOffsets { .. } => offsets += 1,
                    Anomaly::StaleRead { .. } => stale += 1,
                    Anomaly::LostWrite { .. } => lost += 1,
                }
            }
        }
        assert!(
            dup > 0 && offsets > 0 && stale > 0 && lost > 0 && clean > 0,
            "duplicates {dup}, offsets {offsets}, stale {stale}, lost {lost}, clean {clean}"
        );
    }

    #[test]
    fn appended_is_decided_at_a_comma() {
        let by_text = |a, b| appended(a, b, false);
        assert_eq!(by_text("", ""), Some(""));
        assert_eq!(by_text("", "v1,v2"), Some("v1,v2"));
        assert_eq!(by_text("v1", "v1"), Some(""));
        assert_eq!(by_text("v1", "v1,v2,v3"), Some("v2,v3"));
        assert_eq!(by_text("v1,v2", "v1,v2,"), Some(""));
        // The same bytes, but inside a value or not at the front.
        assert_eq!(by_text("v1", "v12,v2"), None);
        assert_eq!(by_text("v1,v2", "v1"), None);
        assert_eq!(by_text("v2", "v1,v2"), None);
        // Views of one log: the later one's text starts with the earlier's.
        let mut store = ListView::from_values(["v1"]);
        let earlier = store.clone();
        store.push("v2");
        let (a, b) = (Read::new(Some(&earlier), 0), Read::new(Some(&store), 1));
        assert_eq!(b.appended_to(&a), Some("v2"));
        assert_eq!(a.appended_to(&b), None, "shorter: judged by text");
    }

    #[test]
    fn a_continuing_read_is_judged_like_a_first_one() {
        // Every read continues the one before; what each repeats is
        // reported for each, whether the repeat was already there (third
        // read), arrives with the continuation (second) or sits inside a
        // value that merely starts like the previous text (fourth).
        let h = hist(&[
            ("read k=a", ok("v1,v2")),
            ("read k=a", ok("v1,v2,v3,v1")),
            ("read k=a", ok("v1,v2,v3,v1,v4")),
            ("read k=a", ok("v1,v2,v3,v1,v44,v44")),
            ("append k=a v=v44", OpOutcome::Ok(None)),
            ("append k=a v=v4", OpOutcome::Ok(None)),
            ("read k=a", ok("v1,v2,v3,v1,v44,v44")),
        ]);
        let r = check_appends(&h);
        assert_eq!(r, check_appends_copying(&h));
        let dups = |v: &str| {
            let value = v.to_string();
            let key = "a".to_string();
            let dup = Anomaly::Duplicate { key, value };
            r.anomalies.iter().filter(|a| **a == dup).count()
        };
        assert_eq!((dups("v1"), dups("v44")), (4, 2));
        assert!(r.has_inconsistent_offsets());
        assert_eq!(
            r.anomalies.last(),
            Some(&Anomaly::LostWrite {
                key: "a".into(),
                value: "v4".into()
            })
        );
    }

    #[test]
    fn clean_history_passes() {
        let h = hist(&[
            ("append k=a v=1", OpOutcome::Ok(None)),
            ("append k=a v=2", OpOutcome::Ok(None)),
            ("read k=a", ok("1,2")),
        ]);
        let r = check_appends(&h);
        assert!(r.ok(), "{r:?}");
    }

    #[test]
    fn duplicates_detected() {
        let h = hist(&[
            ("append k=a v=1", OpOutcome::Ok(None)),
            ("read k=a", ok("1,1")),
        ]);
        let r = check_appends(&h);
        assert!(r.has_duplicates());
        assert!(!r.has_lost_writes());
    }

    #[test]
    fn lost_write_detected() {
        let h = hist(&[
            ("append k=a v=1", OpOutcome::Ok(None)),
            ("append k=a v=2", OpOutcome::Ok(None)),
            ("read k=a", ok("1")),
        ]);
        let r = check_appends(&h);
        assert!(r.has_lost_writes());
    }

    #[test]
    fn unacknowledged_append_is_not_lost() {
        let h = hist(&[
            ("append k=a v=1", OpOutcome::Ok(None)),
            ("append k=a v=2", OpOutcome::Timeout),
            ("read k=a", ok("1")),
        ]);
        let r = check_appends(&h);
        assert!(r.ok(), "timeout writes may legally vanish: {r:?}");
    }

    #[test]
    fn prefix_divergence_detected() {
        let h = hist(&[("read k=a", ok("1,2")), ("read k=a", ok("1,3"))]);
        assert!(check_appends(&h).has_inconsistent_offsets());
    }

    #[test]
    fn shrinking_read_is_stale() {
        let h = hist(&[("read k=a", ok("1,2")), ("read k=a", ok("1"))]);
        assert!(check_appends(&h).has_inconsistent_offsets());
    }

    #[test]
    fn unavailability_tail_detection() {
        let mut h = History::default();
        for i in 0..10u64 {
            let idx = h.invoke(ClientId(0), "append k=a v=1".into(), SimTime::from_secs(i));
            if i < 3 {
                h.complete(idx, SimTime::from_secs(i), OpOutcome::Ok(None));
            }
        }
        // Tail window of 5 s: ops 5..=9 invoked, none acknowledged.
        assert!(unavailable_tail(&h, 5_000_000));
        // A fully acknowledged history is available.
        let entries: Vec<(&str, OpOutcome)> = (0..5)
            .map(|_| ("append k=a v=1", OpOutcome::Ok(None)))
            .collect();
        let h2 = hist(&entries);
        assert!(!unavailable_tail(&h2, 5_000_000));
    }
}
