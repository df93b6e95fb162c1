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

use std::collections::{BTreeMap, HashSet};

use rose_events::FnvBuildHasher;
use rose_sim::{History, OpOutcome};

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
    /// Ok reads in history order: (the list as recorded, comma-separated;
    /// invocation time µs).
    reads: Vec<(&'h str, u64)>,
}

/// The values of a recorded read.
fn values_of(list: &str) -> impl Iterator<Item = &str> {
    list.split(',').filter(|s| !s.is_empty())
}

/// If the recorded list `b` is the recorded list `a` with more appended —
/// the same text, continued at a comma — the appended part: the values of
/// `b` are then those of `a` followed by those of the result. This is how
/// successive reads of a healthy store relate, and it is decided by one
/// `memcmp`; `None` only says the texts differ, not that the values do.
fn appended<'h>(a: &str, b: &'h str) -> Option<&'h str> {
    if a.is_empty() {
        return Some(b);
    }
    let rest = b.strip_prefix(a)?;
    if rest.is_empty() {
        Some(rest)
    } else {
        rest.strip_prefix(',')
    }
}

/// Checks an append-list history.
///
/// A pure function of the history, called again on the whole history at
/// every oracle poll of a run: it copies nothing — keys, values and read
/// lists stay `&str`s into `history` until one lands in an [`Anomaly`].
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
            let list = out.as_deref().unwrap_or("");
            let read = (list, op.invoked.as_micros());
            keys.entry(k).or_default().reads.push(read);
        }
    }

    // The values of one read at a time.
    let mut seen: HashSet<&str, FnvBuildHasher> = HashSet::default();
    for (key, ops) in &keys {
        // Duplicates within any single read. A read that continues a
        // duplicate-free one repeats none of its values either, so only
        // what it appended is looked at, against the values already seen.
        let mut clean_prev: Option<&str> = None;
        for &(list, _) in &ops.reads {
            let unseen = clean_prev
                .and_then(|prev| appended(prev, list))
                .unwrap_or_else(|| {
                    seen.clear();
                    list
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
            clean_prev = (report.anomalies.len() == found).then_some(list);
        }
        // Prefix consistency between successive reads.
        for w in ops.reads.windows(2) {
            let (a, b) = (w[0].0, w[1].0);
            if appended(a, b).is_some() {
                continue;
            }
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
        let Some(&(_, final_invoked)) = ops.reads.last() else {
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
        OpOutcome::Ok(Some(v.to_string()))
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
                        let values: Vec<String> = out
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
                        Some(text)
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
                    (op, Some(OpOutcome::Ok(Some("v1,v1".into()))))
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
        assert_eq!(appended("", ""), Some(""));
        assert_eq!(appended("", "v1,v2"), Some("v1,v2"));
        assert_eq!(appended("v1", "v1"), Some(""));
        assert_eq!(appended("v1", "v1,v2,v3"), Some("v2,v3"));
        assert_eq!(appended("v1,v2", "v1,v2,"), Some(""));
        // The same bytes, but inside a value or not at the front.
        assert_eq!(appended("v1", "v12,v2"), None);
        assert_eq!(appended("v1,v2", "v1"), None);
        assert_eq!(appended("v2", "v1,v2"), None);
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
