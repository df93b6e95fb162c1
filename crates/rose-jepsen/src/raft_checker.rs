//! Raft safety-invariant checker.
//!
//! The scripted targets detect their bugs by grepping for a symptom line
//! that the behaviour model itself emits. The in-repo Raft target
//! (`rose-apps::raft`) has no scripted symptoms: nodes journal structured
//! checkpoint lines (`raft: APPLY idx=… term=… chain=…`, leadership and
//! snapshot events) and this checker decides, from the journal alone,
//! whether one of the four Raft safety invariants (§5.4 of the Raft paper)
//! was violated:
//!
//! * **Election safety** — at most one leader per term
//!   ([`RaftViolation::DualLeaders`]);
//! * **Leader append-only** — a leader never shrinks its own log
//!   ([`RaftViolation::AppendRegression`]);
//! * **Log matching / state-machine safety** — no two nodes apply entries
//!   of different terms at the same index
//!   ([`RaftViolation::ConflictingCommit`]), and nodes applying the same
//!   entry agree on the rolling history hash
//!   ([`RaftViolation::ChainDivergence`]);
//! * **Snapshot integrity** — a restored snapshot carries the same state
//!   digest its creator recorded ([`RaftViolation::SnapshotDivergence`]).
//!
//! Like [`elle`](crate::elle), the checker is a pure function over
//! observable history; it never inspects node internals, so it plays the
//! role of production health monitoring in the Rose workflow.

use rose_events::NodeId;
use rose_sim::Logs;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RaftViolation {
    /// Two distinct nodes won the same term (election safety).
    DualLeaders {
        /// The doubly-won term.
        term: u64,
        /// First winner observed.
        a: NodeId,
        /// Second winner observed.
        b: NodeId,
    },
    /// A leader's journaled append index went backwards within one term
    /// (leader append-only).
    AppendRegression {
        /// The regressing leader.
        node: NodeId,
        /// Its term.
        term: u64,
        /// The index that was not an advance.
        idx: u64,
    },
    /// Two nodes applied entries of different terms at the same index
    /// (log matching / state-machine safety).
    ConflictingCommit {
        /// The conflicting index.
        idx: u64,
        /// Term applied by one node.
        term_a: u64,
        /// Term applied by another.
        term_b: u64,
    },
    /// Two nodes applied the same entry (same index and term) but disagree
    /// on the rolling history hash — their state machines diverged earlier
    /// (state-machine safety).
    ChainDivergence {
        /// The index at which the divergence became visible.
        idx: u64,
        /// Term of the entry.
        term: u64,
    },
    /// A snapshot was restored with a state digest different from what its
    /// creator recorded for the same (index, chain) snapshot.
    SnapshotDivergence {
        /// Snapshot index.
        idx: u64,
    },
}

impl RaftViolation {
    /// Short tag for logs and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            RaftViolation::DualLeaders { .. } => "dual-leaders",
            RaftViolation::AppendRegression { .. } => "append-regression",
            RaftViolation::ConflictingCommit { .. } => "conflicting-commit",
            RaftViolation::ChainDivergence { .. } => "chain-divergence",
            RaftViolation::SnapshotDivergence { .. } => "snapshot-divergence",
        }
    }
}

/// The checker verdict over one run's journal.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RaftReport {
    /// Everything found, in journal order.
    pub violations: Vec<RaftViolation>,
}

impl RaftReport {
    /// No violation found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Any violation of the given tag present?
    pub fn has(&self, tag: &str) -> bool {
        self.violations.iter().any(|v| v.tag() == tag)
    }
}

/// The `key=value` fields of a checkpoint line, read in one pass.
///
/// `idx` and `term` are decimal; `chain` and `digest` are hexadecimal, the
/// way the nodes print them (`{:x}`) — never guessed from the digits, or
/// `chain=10` and `chain=a` would be the same hash. The first token that
/// spells a key decides its field, parseable or not; `terms=3` or a bare
/// `term` spell no key.
struct Fields {
    idx: Option<u64>,
    term: Option<u64>,
    chain: Option<u64>,
    digest: Option<u64>,
}

fn fields(line: &str) -> Fields {
    // Per key, what its first token said: `Some(None)` is "unparseable".
    let mut first: [Option<Option<u64>>; 4] = [None; 4];
    for tok in line.split_whitespace() {
        let Some((key, v)) = tok.split_once('=') else {
            continue;
        };
        let (slot, radix) = match key {
            "idx" => (0, 10),
            "term" => (1, 10),
            "chain" => (2, 16),
            "digest" => (3, 16),
            _ => continue,
        };
        first[slot].get_or_insert_with(|| u64::from_str_radix(v, radix).ok());
    }
    let [idx, term, chain, digest] = first.map(Option::flatten);
    Fields {
        idx,
        term,
        chain,
        digest,
    }
}

/// The four invariant checks as a resumable reader of one journal; the
/// default has read nothing.
///
/// A run is polled every few seconds of a journal that only grows; the
/// checker keeps what the lines so far established and a cursor behind
/// them, so each line is parsed once per run however often the run is
/// polled. [`check_raft`] is the same checker fed a journal in one piece.
#[derive(Debug, Default)]
pub struct RaftChecker {
    /// Journal lines read so far.
    seen: usize,
    /// term -> first winner
    leaders: BTreeMap<u64, NodeId>,
    /// (node, term) -> highest journaled append idx
    appends: BTreeMap<(NodeId, u64), u64>,
    /// idx -> (term, chain) first applier observed
    applied: BTreeMap<u64, (u64, u64)>,
    /// (idx, chain) -> digest recorded by the snapshot creator
    snap_notes: BTreeMap<(u64, u64), u64>,
    /// Restore records, judged at report time: a restore may be journaled
    /// before the creator's note when log order interleaves across nodes.
    restores: Vec<(u64, u64, u64)>,
    /// Violations of the first three invariants, in journal order, each
    /// (tag, idx/term) once however often its checkpoint repeats.
    violations: Vec<RaftViolation>,
}

impl RaftChecker {
    /// Reads the lines `logs` gained since the last call. A checker follows
    /// one journal, which only grows.
    pub fn feed(&mut self, logs: &Logs) {
        let lines = &logs.lines()[self.seen..];
        self.seen += lines.len();
        for l in lines {
            let Some(event) = l.line.strip_prefix("raft: ") else {
                continue;
            };
            if event.starts_with("BECAME_LEADER") {
                let Some(term) = fields(event).term else {
                    continue;
                };
                match self.leaders.get(&term) {
                    None => {
                        self.leaders.insert(term, l.node);
                    }
                    Some(&first) if first != l.node => {
                        push_unique(
                            &mut self.violations,
                            RaftViolation::DualLeaders {
                                term,
                                a: first,
                                b: l.node,
                            },
                        );
                    }
                    Some(_) => {}
                }
            } else if event.starts_with("LEADER_APPEND") {
                let Fields {
                    term: Some(term),
                    idx: Some(idx),
                    ..
                } = fields(event)
                else {
                    continue;
                };
                let high = self.appends.entry((l.node, term)).or_insert(0);
                if idx <= *high {
                    push_unique(
                        &mut self.violations,
                        RaftViolation::AppendRegression {
                            node: l.node,
                            term,
                            idx,
                        },
                    );
                } else {
                    *high = idx;
                }
            } else if event.starts_with("APPLY") {
                let Fields {
                    idx: Some(idx),
                    term: Some(term),
                    chain: Some(chain),
                    ..
                } = fields(event)
                else {
                    continue;
                };
                match self.applied.get(&idx) {
                    None => {
                        self.applied.insert(idx, (term, chain));
                    }
                    Some(&(t0, c0)) => {
                        if t0 != term {
                            push_unique(
                                &mut self.violations,
                                RaftViolation::ConflictingCommit {
                                    idx,
                                    term_a: t0.min(term),
                                    term_b: t0.max(term),
                                },
                            );
                        } else if c0 != chain {
                            push_unique(
                                &mut self.violations,
                                RaftViolation::ChainDivergence { idx, term },
                            );
                        }
                    }
                }
            } else {
                let note = event.starts_with("SNAP_NOTE");
                if !note && !event.starts_with("SNAP_RESTORE") {
                    continue;
                }
                let Fields {
                    idx: Some(idx),
                    chain: Some(chain),
                    digest: Some(digest),
                    ..
                } = fields(event)
                else {
                    continue;
                };
                if note {
                    self.snap_notes.entry((idx, chain)).or_insert(digest);
                } else {
                    self.restores.push((idx, chain, digest));
                }
            }
        }
    }

    /// The verdict over everything read so far: journal-order violations,
    /// then each restore (a handful per run) against the notes known now.
    pub fn report(&self) -> RaftReport {
        let mut violations = self.violations.clone();
        for (idx, chain, digest) in &self.restores {
            if let Some(noted) = self.snap_notes.get(&(*idx, *chain)) {
                if noted != digest {
                    push_unique(
                        &mut violations,
                        RaftViolation::SnapshotDivergence { idx: *idx },
                    );
                }
            }
        }
        RaftReport { violations }
    }
}

/// Runs the four invariant checks over a cluster journal, from scratch.
pub fn check_raft(logs: &Logs) -> RaftReport {
    let mut checker = RaftChecker::default();
    checker.feed(logs);
    checker.report()
}

fn push_unique(violations: &mut Vec<RaftViolation>, v: RaftViolation) {
    if !violations.contains(&v) {
        violations.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rose_events::SimTime;

    fn logs(lines: &[(u32, &str)]) -> Logs {
        let mut l = Logs::default();
        for (node, line) in lines {
            l.push(SimTime::ZERO, NodeId(*node), line.to_string());
        }
        l
    }

    /// The field reader as it was: one scan of the line per key, and every
    /// value tried as decimal before hexadecimal.
    fn field(line: &str, key: &str) -> Option<u64> {
        for tok in line.split_whitespace() {
            if let Some(v) = tok.strip_prefix(key) {
                if let Some(v) = v.strip_prefix('=') {
                    return v.parse().ok().or_else(|| u64::from_str_radix(v, 16).ok());
                }
            }
        }
        None
    }

    /// `check_raft` over that reader, kept as the reference: the one-pass,
    /// radix-by-key reader must give the same verdict on every journal whose
    /// `idx`/`term` values are decimal (or nothing) and whose `chain`/`digest`
    /// values are not all decimal digits.
    fn check_raft_decimal_first(logs: &Logs) -> RaftReport {
        let mut report = RaftReport::default();
        // term -> first winner
        let mut leaders: BTreeMap<u64, NodeId> = BTreeMap::new();
        // (node, term) -> highest journaled append idx
        let mut appends: BTreeMap<(NodeId, u64), u64> = BTreeMap::new();
        // idx -> (term, chain) first applier observed
        let mut applied: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        // (idx, chain) -> digest recorded by the snapshot creator
        let mut snap_notes: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        // Deferred restore records: a restore may be journaled before the
        // creator's note when log order interleaves across nodes.
        let mut restores: Vec<(u64, u64, u64)> = Vec::new();
        for l in logs.lines() {
            let line = l.line.as_str();
            if !line.starts_with("raft: ") {
                continue;
            }
            if line.starts_with("raft: BECAME_LEADER") {
                let Some(term) = field(line, "term") else {
                    continue;
                };
                match leaders.get(&term) {
                    None => {
                        leaders.insert(term, l.node);
                    }
                    Some(&first) if first != l.node => {
                        push_unique(
                            &mut report.violations,
                            RaftViolation::DualLeaders {
                                term,
                                a: first,
                                b: l.node,
                            },
                        );
                    }
                    Some(_) => {}
                }
            } else if line.starts_with("raft: LEADER_APPEND") {
                let (Some(term), Some(idx)) = (field(line, "term"), field(line, "idx")) else {
                    continue;
                };
                let high = appends.entry((l.node, term)).or_insert(0);
                if idx <= *high {
                    push_unique(
                        &mut report.violations,
                        RaftViolation::AppendRegression {
                            node: l.node,
                            term,
                            idx,
                        },
                    );
                } else {
                    *high = idx;
                }
            } else if line.starts_with("raft: APPLY") {
                let (Some(idx), Some(term), Some(chain)) = (
                    field(line, "idx"),
                    field(line, "term"),
                    field(line, "chain"),
                ) else {
                    continue;
                };
                match applied.get(&idx) {
                    None => {
                        applied.insert(idx, (term, chain));
                    }
                    Some(&(t0, c0)) => {
                        if t0 != term {
                            push_unique(
                                &mut report.violations,
                                RaftViolation::ConflictingCommit {
                                    idx,
                                    term_a: t0.min(term),
                                    term_b: t0.max(term),
                                },
                            );
                        } else if c0 != chain {
                            push_unique(
                                &mut report.violations,
                                RaftViolation::ChainDivergence { idx, term },
                            );
                        }
                    }
                }
            } else if line.starts_with("raft: SNAP_NOTE") {
                let (Some(idx), Some(chain), Some(digest)) = (
                    field(line, "idx"),
                    field(line, "chain"),
                    field(line, "digest"),
                ) else {
                    continue;
                };
                snap_notes.entry((idx, chain)).or_insert(digest);
            } else if line.starts_with("raft: SNAP_RESTORE") {
                let (Some(idx), Some(chain), Some(digest)) = (
                    field(line, "idx"),
                    field(line, "chain"),
                    field(line, "digest"),
                ) else {
                    continue;
                };
                restores.push((idx, chain, digest));
            }
        }

        for (idx, chain, digest) in restores {
            if let Some(&noted) = snap_notes.get(&(idx, chain)) {
                if noted != digest {
                    push_unique(
                        &mut report.violations,
                        RaftViolation::SnapshotDivergence { idx },
                    );
                }
            }
        }
        report
    }

    /// One generated journal line: node, event, idx, term, chain, dice.
    type GenLine = (u32, u8, u64, u64, u8, u64);

    fn gen_journal() -> impl Strategy<Value = Vec<GenLine>> {
        proptest::collection::vec(
            (0u32..4, 0u8..7, 0u64..5, 1u64..4, 0u8..6, 0u64..u64::MAX),
            0..40,
        )
    }

    /// Renders generated lines the way nodes journal them, and the ways a
    /// reader must not trip over: fields in any order, repeated keys (the
    /// first decides), keys that only start like one (`terms=3`), empty and
    /// unparseable values (`term=`, `term=zz`), a line of another prefix.
    /// Small ranges make indexes, terms and hashes collide across nodes.
    fn journal_of(lines: &[GenLine]) -> Logs {
        // Hashes as `{:x}` prints them, each with a letter in it: read as
        // decimal first or as hex only, they are the same numbers.
        const HASHES: [&str; 6] = ["a", "1a", "abc1", "dead", "cbf29ce484222325", "0a"];
        let mut logs = Logs::default();
        for &(node, event, idx, term, hash, dice) in lines {
            let idx = idx * 16;
            let chain = HASHES[usize::from(hash)];
            let digest = HASHES[(dice >> 8) as usize % HASHES.len()];
            let mut fields = match event {
                0 | 1 => vec![format!("term={term}"), format!("idx={idx}")],
                2..=4 => vec![
                    format!("idx={idx}"),
                    format!("term={term}"),
                    format!("chain={chain}"),
                ],
                _ => vec![
                    format!("idx={idx}"),
                    format!("chain={chain}"),
                    format!("digest={digest}"),
                ],
            };
            let turn = (dice >> 16) as usize % fields.len();
            fields.rotate_left(turn);
            match (dice >> 24) % 12 {
                0 => fields.insert(0, "terms=3".into()),
                1 => fields.insert(0, "term=".into()),
                2 => fields.insert(0, "term=zz".into()),
                3 => fields.push(format!("idx={}", idx + 16)),
                4 => fields.push("chain=beef chain".into()),
                5 => fields.insert(0, "idx".into()),
                6 => fields.insert(0, "=7 digest=g0".into()),
                _ => {}
            }
            let event = [
                "BECAME_LEADER",
                "LEADER_APPEND",
                "APPLY",
                "APPLY",
                "APPLY",
                "SNAP_NOTE",
                "SNAP_RESTORE",
            ][usize::from(event)];
            let prefix = if (dice >> 32) % 16 == 0 {
                "raft "
            } else {
                "raft: "
            };
            let line = format!("{prefix}{event} {}", fields.join(" "));
            logs.push(SimTime::ZERO, NodeId(node), line);
        }
        logs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn one_pass_fields_give_the_verdict_of_the_per_key_scans(lines in gen_journal()) {
            let logs = journal_of(&lines);
            prop_assert_eq!(
                check_raft(&logs).violations,
                check_raft_decimal_first(&logs).violations
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn a_journal_read_in_pieces_gives_the_verdict_of_each_prefix(
            lines in gen_journal(),
            cuts in proptest::collection::vec(0usize..8, 0..12),
        ) {
            // Violations, their order and their dedup: a restore ahead of
            // its note, or a repeat across two polls, must not show.
            let whole = journal_of(&lines);
            let mut prefix = Logs::default();
            let mut checker = RaftChecker::default();
            let mut cuts = cuts.into_iter();
            let mut rest = whole.lines();
            loop {
                let (now, later) = rest.split_at(cuts.next().unwrap_or(rest.len()).min(rest.len()));
                for l in now {
                    prefix.push(l.ts, l.node, l.line.clone());
                }
                checker.feed(&prefix);
                let report = checker.report();
                prop_assert_eq!(&report.violations, &check_raft(&prefix).violations);
                // … and of the loop `check_raft` was before it had a cursor.
                prop_assert_eq!(report.violations, check_raft_decimal_first(&prefix).violations);
                rest = later;
                if rest.is_empty() {
                    break;
                }
            }
            prop_assert_eq!(prefix.len(), whole.len());
        }
    }

    #[test]
    fn the_generated_journals_reach_every_violation() {
        let mut rng = proptest::test_runner::TestRng::deterministic();
        let mut tags = std::collections::BTreeSet::new();
        let mut clean = 0;
        for _ in 0..512 {
            let report = check_raft(&journal_of(&gen_journal().generate(&mut rng)));
            clean += usize::from(report.ok());
            tags.extend(report.violations.iter().map(RaftViolation::tag));
        }
        assert_eq!(tags.len(), 5, "{tags:?}");
        assert!(clean > 0);
    }

    #[test]
    fn hashes_are_hex_whatever_their_digits() {
        // `10` and `a` are different hashes; read decimal-first they were
        // both ten, and two diverged state machines passed.
        let l = logs(&[
            (0, "raft: APPLY idx=48 term=4 chain=10"),
            (3, "raft: APPLY idx=48 term=4 chain=a"),
        ]);
        assert!(check_raft(&l).has("chain-divergence"));
        assert!(
            check_raft_decimal_first(&l).ok(),
            "the collision this fixes"
        );
        let l = logs(&[
            (0, "raft: SNAP_NOTE idx=400 chain=aa digest=16"),
            (2, "raft: SNAP_RESTORE idx=400 chain=aa digest=10"),
        ]);
        assert!(check_raft(&l).has("snapshot-divergence"));
        // A hash that happens to print without a letter is still one hash.
        let l = logs(&[
            (0, "raft: APPLY idx=64 term=2 chain=1234567890123456"),
            (1, "raft: APPLY idx=64 term=2 chain=1234567890123456"),
            (0, "raft: SNAP_NOTE idx=400 chain=77 digest=90"),
            (1, "raft: SNAP_RESTORE idx=400 chain=77 digest=90"),
        ]);
        assert!(check_raft(&l).ok());
    }

    #[test]
    fn indexes_and_terms_are_decimal_only() {
        // `term=ff` is not a term; the line carries no usable checkpoint.
        let l = logs(&[
            (0, "raft: BECAME_LEADER term=ff idx=0"),
            (1, "raft: BECAME_LEADER term=ff idx=0"),
            (0, "raft: APPLY idx=1a term=1 chain=aa"),
            (1, "raft: APPLY idx=1a term=1 chain=bb"),
        ]);
        assert!(check_raft(&l).ok());
        assert!(!check_raft_decimal_first(&l).ok());
    }

    #[test]
    fn clean_history_passes() {
        let l = logs(&[
            (0, "raft: BECAME_LEADER term=1 idx=0"),
            (0, "raft: LEADER_APPEND term=1 idx=16"),
            (0, "raft: APPLY idx=16 term=1 chain=abc1"),
            (1, "raft: APPLY idx=16 term=1 chain=abc1"),
            (0, "raft: LEADER_APPEND term=1 idx=32"),
            (1, "raft: BECAME_LEADER term=2 idx=32"),
        ]);
        assert!(check_raft(&l).ok());
    }

    #[test]
    fn dual_leaders_same_term_detected() {
        let l = logs(&[
            (0, "raft: BECAME_LEADER term=3 idx=10"),
            (2, "raft: BECAME_LEADER term=3 idx=8"),
        ]);
        let r = check_raft(&l);
        assert!(r.has("dual-leaders"), "{r:?}");
        // Re-announcement by the same node is not a violation.
        let l = logs(&[
            (0, "raft: BECAME_LEADER term=3 idx=10"),
            (0, "raft: BECAME_LEADER term=3 idx=10"),
        ]);
        assert!(check_raft(&l).ok());
    }

    #[test]
    fn append_regression_detected() {
        let l = logs(&[
            (0, "raft: LEADER_APPEND term=1 idx=32"),
            (0, "raft: LEADER_APPEND term=1 idx=16"),
        ]);
        assert!(check_raft(&l).has("append-regression"));
        // A new term may legitimately restart lower on another node.
        let l = logs(&[
            (0, "raft: LEADER_APPEND term=1 idx=32"),
            (1, "raft: LEADER_APPEND term=2 idx=16"),
        ]);
        assert!(check_raft(&l).ok());
    }

    #[test]
    fn conflicting_commit_detected() {
        let l = logs(&[
            (0, "raft: APPLY idx=48 term=4 chain=11"),
            (3, "raft: APPLY idx=48 term=5 chain=99"),
        ]);
        let r = check_raft(&l);
        assert!(r.has("conflicting-commit"), "{r:?}");
        assert!(!r.has("chain-divergence"));
    }

    #[test]
    fn chain_divergence_detected() {
        let l = logs(&[
            (0, "raft: APPLY idx=48 term=4 chain=11"),
            (3, "raft: APPLY idx=48 term=4 chain=12"),
        ]);
        assert!(check_raft(&l).has("chain-divergence"));
    }

    #[test]
    fn snapshot_divergence_detected_regardless_of_order() {
        // Restore journaled before the creator's note still pairs up.
        let l = logs(&[
            (2, "raft: SNAP_RESTORE idx=400 chain=aa digest=dead"),
            (0, "raft: SNAP_NOTE idx=400 chain=aa digest=beef"),
        ]);
        assert!(check_raft(&l).has("snapshot-divergence"));
        let l = logs(&[
            (0, "raft: SNAP_NOTE idx=400 chain=aa digest=beef"),
            (2, "raft: SNAP_RESTORE idx=400 chain=aa digest=beef"),
        ]);
        assert!(check_raft(&l).ok());
    }

    #[test]
    fn violations_deduplicate() {
        let l = logs(&[
            (0, "raft: APPLY idx=48 term=4 chain=11"),
            (3, "raft: APPLY idx=48 term=4 chain=12"),
            (4, "raft: APPLY idx=48 term=4 chain=12"),
            (3, "raft: APPLY idx=48 term=4 chain=12"),
        ]);
        assert_eq!(check_raft(&l).violations.len(), 1);
    }

    #[test]
    fn unrelated_lines_ignored() {
        let l = logs(&[
            (0, "booting"),
            (0, "raft: APPLY idx=nonsense"),
            (1, "PANIC: something"),
        ]);
        assert!(check_raft(&l).ok());
    }
}
