//! Replicated log: entries, commands, and the durable text codec.
//!
//! The log file (`/raft/log`) is a header line `base <idx> <term>` followed
//! by one `e <idx> <term> <cmd…>` line per entry. Rewrites (truncation,
//! compaction) go through a tmp-file + rename; normal appends extend the
//! file in place. Malformed trailing lines (a write torn by a crash) are
//! dropped on parse, like a length-prefixed journal would drop a short
//! record.
//!
//! Encoders write into the caller's sink (`fmt::Write`): the node's reused
//! line buffer on the append path, the chain hasher on the apply path.

use std::fmt::{self, Write as _};
use std::sync::Arc;

/// A state-machine command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cmd {
    /// Client write.
    Put {
        /// Key.
        key: String,
        /// Value.
        val: u64,
        /// Client-chosen operation id (idempotent retries).
        id: u64,
    },
    /// Leader no-op, appended on election to commit prior-term entries.
    Noop,
    /// Joint membership entry: transition `old` → `new` begins.
    Joint {
        /// Outgoing voter set.
        old: Vec<u32>,
        /// Incoming voter set.
        new: Vec<u32>,
    },
    /// Final membership entry: transition completes on `new`.
    Final {
        /// The now-active voter set.
        new: Vec<u32>,
    },
}

impl Cmd {
    /// Writes the one-line wire/disk encoding.
    pub fn encode_into(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Cmd::Put { key, val, id } => write!(out, "put {key} {val} {id}"),
            Cmd::Noop => out.write_str("noop"),
            Cmd::Joint { old, new } => {
                out.write_str("joint ")?;
                csv_into(old, out)?;
                out.write_char(' ')?;
                csv_into(new, out)
            }
            Cmd::Final { new } => {
                out.write_str("final ")?;
                csv_into(new, out)
            }
        }
    }

    /// Parses [`Cmd::encode_into`] output.
    pub fn decode(s: &str) -> Option<Cmd> {
        let mut it = s.split_whitespace();
        match it.next()? {
            "put" => Some(Cmd::Put {
                key: it.next()?.to_string(),
                val: it.next()?.parse().ok()?,
                id: it.next()?.parse().ok()?,
            }),
            "noop" => Some(Cmd::Noop),
            "joint" => Some(Cmd::Joint {
                old: parse_csv(it.next()?)?,
                new: parse_csv(it.next()?)?,
            }),
            "final" => Some(Cmd::Final {
                new: parse_csv(it.next()?)?,
            }),
            _ => None,
        }
    }

    /// Is this a membership entry?
    pub fn is_config(&self) -> bool {
        matches!(self, Cmd::Joint { .. } | Cmd::Final { .. })
    }
}

fn csv_into(v: &[u32], out: &mut impl fmt::Write) -> fmt::Result {
    for (i, n) in v.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(out, "{n}")?;
    }
    Ok(())
}

fn parse_csv(s: &str) -> Option<Vec<u32>> {
    s.split(',').map(|p| p.parse().ok()).collect()
}

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Log index (1-based; 0 is the empty-log sentinel).
    pub idx: u64,
    /// Leader term that created the entry.
    pub term: u64,
    /// The command.
    pub cmd: Cmd,
}

impl Entry {
    /// Writes the entry's log-file line, without the newline.
    pub fn encode_into(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(out, "e {} {} ", self.idx, self.term)?;
        self.cmd.encode_into(out)
    }

    fn decode(line: &str) -> Option<Entry> {
        let rest = line.strip_prefix("e ")?;
        let mut it = rest.splitn(3, ' ');
        Some(Entry {
            idx: it.next()?.parse().ok()?,
            term: it.next()?.parse().ok()?,
            cmd: Cmd::decode(it.next()?)?,
        })
    }
}

/// The in-memory log: a compaction base plus the live suffix.
#[derive(Debug, Clone, Default)]
pub struct RaftLog {
    /// Index of the last compacted-away entry (0 = nothing compacted).
    pub base_idx: u64,
    /// Term of the entry at `base_idx`.
    pub base_term: u64,
    /// Entries `base_idx + 1 ..= last_idx`, in order. An entry is created
    /// once, by the leader that appends it or by `parse`, and shared from
    /// there: with the AppendEntries messages that carry it and with every
    /// follower log it lands in.
    pub entries: Vec<Arc<Entry>>,
}

impl RaftLog {
    /// Highest index present (the base if the suffix is empty).
    pub fn last_idx(&self) -> u64 {
        self.entries.last().map_or(self.base_idx, |e| e.idx)
    }

    /// Term of the highest entry.
    pub fn last_term(&self) -> u64 {
        self.entries.last().map_or(self.base_term, |e| e.term)
    }

    /// Term of the entry at `idx`, if known (the base counts).
    pub fn term_at(&self, idx: u64) -> Option<u64> {
        if idx == self.base_idx {
            return Some(self.base_term);
        }
        self.get(idx).map(|e| e.term)
    }

    /// The entry at `idx`, if present in the suffix.
    pub fn get(&self, idx: u64) -> Option<&Entry> {
        if idx <= self.base_idx {
            return None;
        }
        self.entries
            .get((idx - self.base_idx - 1) as usize)
            .map(|e| &**e)
    }

    /// The entries one AppendEntries carries from index `from` on: at most
    /// `max`, none when `from` lies outside the suffix.
    pub fn batch_from(&self, from: u64, max: usize) -> &[Arc<Entry>] {
        let len = self.entries.len();
        let start = match from.checked_sub(self.base_idx + 1) {
            Some(off) => usize::try_from(off).map_or(len, |off| off.min(len)),
            None => len,
        };
        &self.entries[start..start.saturating_add(max).min(len)]
    }

    /// Appends one entry (caller assigns contiguous indexes).
    pub fn append(&mut self, e: Arc<Entry>) {
        debug_assert_eq!(e.idx, self.last_idx() + 1);
        self.entries.push(e);
    }

    /// Drops every entry with index ≥ `idx` (conflict truncation).
    pub fn truncate_from(&mut self, idx: u64) {
        let keep = idx.saturating_sub(self.base_idx + 1) as usize;
        self.entries.truncate(keep);
    }

    /// Drops every entry with index ≤ `idx`, making it the new base.
    pub fn compact_to(&mut self, idx: u64, term: u64) {
        if idx <= self.base_idx {
            return;
        }
        let drop = (idx - self.base_idx).min(self.entries.len() as u64) as usize;
        self.entries.drain(..drop);
        self.base_idx = idx;
        self.base_term = term;
    }

    /// The most recent membership command in the suffix, if any.
    pub fn latest_config(&self) -> Option<&Cmd> {
        self.entries
            .iter()
            .rev()
            .map(|e| &e.cmd)
            .find(|c| c.is_config())
    }

    /// Full-file encoding (header + every entry).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "base {} {}", self.base_idx, self.base_term);
        for e in &self.entries {
            Self::encode_entry(e, &mut out);
        }
        out
    }

    /// Appends one entry's file line (newline included) to `out`.
    pub fn encode_entry(e: &Entry, out: &mut String) {
        let _ = e.encode_into(out);
        out.push('\n');
    }

    /// Parses a log file, dropping any malformed (torn) trailing lines.
    pub fn parse(data: &[u8]) -> RaftLog {
        let text = String::from_utf8_lossy(data);
        let mut log = RaftLog::default();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("base ") {
                let mut it = rest.split_whitespace();
                if let (Some(i), Some(t)) = (
                    it.next().and_then(|v| v.parse().ok()),
                    it.next().and_then(|v| v.parse().ok()),
                ) {
                    log.base_idx = i;
                    log.base_term = t;
                }
            } else if let Some(e) = Entry::decode(line) {
                if e.idx == log.last_idx() + 1 {
                    log.entries.push(Arc::new(e));
                }
            }
        }
        log
    }
}

/// The encoders as they were before they streamed — three nested
/// `format!`s per entry — kept as the reference the tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Cmd, Entry, RaftLog};

    fn csv(v: &[u32]) -> String {
        v.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    pub(crate) fn cmd(c: &Cmd) -> String {
        match c {
            Cmd::Put { key, val, id } => format!("put {key} {val} {id}"),
            Cmd::Noop => "noop".to_string(),
            Cmd::Joint { old, new } => format!("joint {} {}", csv(old), csv(new)),
            Cmd::Final { new } => format!("final {}", csv(new)),
        }
    }

    pub(crate) fn entry(e: &Entry) -> String {
        format!("e {} {} {}", e.idx, e.term, cmd(&e.cmd))
    }

    pub(crate) fn entry_line(e: &Entry) -> String {
        format!("{}\n", entry(e))
    }

    /// One command of every variant, with the empty and one-element voter
    /// lists the csv writer has to get right.
    pub(crate) fn every_cmd() -> Vec<Cmd> {
        vec![
            Cmd::Put {
                key: "k7".into(),
                val: 0,
                id: u64::MAX,
            },
            Cmd::Put {
                key: String::new(),
                val: 18_446_744_073_709_551_615,
                id: (3 << 32) | 41,
            },
            Cmd::Noop,
            Cmd::Joint {
                old: vec![0, 1, 2, 3, 4],
                new: vec![0, 1, 2],
            },
            Cmd::Joint {
                old: vec![],
                new: vec![4],
            },
            Cmd::Final { new: vec![0, 1, 2] },
            Cmd::Final { new: vec![] },
        ]
    }

    pub(crate) fn log(log: &RaftLog) -> String {
        let mut out = format!("base {} {}\n", log.base_idx, log.base_term);
        for e in &log.entries {
            out.push_str(&entry(e));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::reference::every_cmd;
    use super::*;

    fn entry(idx: u64, term: u64) -> Arc<Entry> {
        Arc::new(Entry {
            idx,
            term,
            cmd: Cmd::Put {
                key: format!("k{idx}"),
                val: idx,
                id: idx,
            },
        })
    }

    #[test]
    fn streamed_encoders_write_the_nested_format_text() {
        let mut log = RaftLog {
            base_idx: 400,
            base_term: 3,
            entries: vec![],
        };
        for (i, cmd) in every_cmd().into_iter().enumerate() {
            let mut text = String::new();
            cmd.encode_into(&mut text).unwrap();
            assert_eq!(text, reference::cmd(&cmd));

            let e = Arc::new(Entry {
                idx: 401 + i as u64,
                term: 3 + i as u64 % 2,
                cmd,
            });
            // Appended to a buffer that already holds a line, like the
            // node's reused one after `clear` — and like `encode`'s.
            let mut line = String::from("kept\n");
            RaftLog::encode_entry(&e, &mut line);
            assert_eq!(line, format!("kept\n{}", reference::entry_line(&e)));
            log.append(e);
        }
        assert_eq!(log.encode(), reference::log(&log));
        assert_eq!(RaftLog::default().encode(), "base 0 0\n");
    }

    #[test]
    fn a_batch_is_the_entries_a_get_loop_would_collect() {
        let mut log = RaftLog {
            base_idx: 10,
            base_term: 1,
            entries: vec![],
        };
        for i in 11..=20 {
            log.append(entry(i, 1));
        }
        for from in 0..=23 {
            for max in [0, 1, 3, 60] {
                let mut want = Vec::new();
                let mut idx = from;
                while want.len() < max {
                    match log.get(idx) {
                        Some(e) => want.push(e.clone()),
                        None => break,
                    }
                    idx += 1;
                }
                let got: Vec<Entry> = log
                    .batch_from(from, max)
                    .iter()
                    .map(|e| (**e).clone())
                    .collect();
                assert_eq!(got, want, "from {from}, max {max}");
            }
        }
        assert!(log.batch_from(u64::MAX, usize::MAX).is_empty());
        // A batch shares the log's entries; it does not copy them.
        assert!(Arc::ptr_eq(&log.batch_from(11, 1)[0], &log.entries[0]));
    }

    #[test]
    fn codec_roundtrips() {
        let mut log = RaftLog {
            base_idx: 4,
            base_term: 2,
            entries: vec![],
        };
        log.append(entry(5, 2));
        log.append(Arc::new(Entry {
            idx: 6,
            term: 3,
            cmd: Cmd::Joint {
                old: vec![0, 1, 2, 3, 4],
                new: vec![0, 1, 2],
            },
        }));
        log.append(Arc::new(Entry {
            idx: 7,
            term: 3,
            cmd: Cmd::Noop,
        }));
        let parsed = RaftLog::parse(log.encode().as_bytes());
        assert_eq!(parsed.base_idx, 4);
        assert_eq!(parsed.base_term, 2);
        assert_eq!(parsed.entries, log.entries);
    }

    #[test]
    fn torn_tail_line_dropped() {
        let mut text = RaftLog {
            base_idx: 0,
            base_term: 0,
            entries: vec![entry(1, 1), entry(2, 1)],
        }
        .encode();
        text.push_str("e 3 1 put k");
        let parsed = RaftLog::parse(text.as_bytes());
        assert_eq!(parsed.last_idx(), 2);
    }

    #[test]
    fn truncate_and_compact() {
        let mut log = RaftLog::default();
        for i in 1..=10 {
            log.append(entry(i, 1));
        }
        log.truncate_from(8);
        assert_eq!(log.last_idx(), 7);
        log.compact_to(5, 1);
        assert_eq!(log.base_idx, 5);
        assert_eq!(log.get(5), None);
        assert_eq!(log.get(6).unwrap().idx, 6);
        assert_eq!(log.term_at(5), Some(1));
        assert_eq!(log.last_idx(), 7);
    }
}
