//! The replicated KV state machine and the snapshot codec.
//!
//! Besides the key/value map the machine keeps a rolling *chain hash* over
//! every applied entry (seeded from the snapshot it was restored from) and
//! can compute a *content digest* over the full map. Both are journaled at
//! checkpoints so the [`rose_jepsen::raft_checker`] can detect state
//! divergence from the outside without reading node internals.
//!
//! The snapshot file (`/raft/snapshot`) is a header line
//! `snap <idx> <term> <chain:x> <digest:x> <voters csv>`, one `k <key> <val>`
//! line per pair, and an `end` trailer that marks the image complete.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::Hasher as _;

use rose_events::FnvHasher;

use super::log::{Cmd, Entry};

/// The state machine.
#[derive(Debug, Clone, Default)]
pub struct KvState {
    /// The materialized map.
    pub map: BTreeMap<String, u64>,
    /// Index of the last applied entry.
    pub applied: u64,
    /// Term of the last applied entry.
    pub applied_term: u64,
    /// Rolling hash over the applied history.
    pub chain: u64,
}

impl KvState {
    /// Applies one committed entry, advancing the chain.
    pub fn apply(&mut self, e: &Entry) {
        if let Cmd::Put { key, val, .. } = &e.cmd {
            match self.map.get_mut(key) {
                Some(slot) => *slot = *val,
                None => {
                    self.map.insert(key.clone(), *val);
                }
            }
        }
        // FNV-1a (the repo's stock content hash) of the text
        // `{chain:x}|{idx}|{term}|{cmd}`, hashed as it is formatted.
        let mut mix = FnvHasher::default();
        let _ = write!(mix, "{:x}|{}|{}|", self.chain, e.idx, e.term);
        let _ = e.cmd.encode_into(&mut mix);
        self.chain = mix.finish();
        self.applied = e.idx;
        self.applied_term = e.term;
    }

    /// Content digest over the full map.
    pub fn digest(&self) -> u64 {
        digest_of(&self.map)
    }
}

/// Digest of an arbitrary map (used on restore, over what was actually
/// reconstructed from disk).
pub fn digest_of(map: &BTreeMap<String, u64>) -> u64 {
    // FNV-1a of every `{k}={v};`, in key order.
    let mut h = FnvHasher::default();
    for (k, v) in map {
        let _ = write!(h, "{k}={v};");
    }
    h.finish()
}

/// A materialized snapshot image.
#[derive(Debug, Clone, Default)]
pub struct SnapImage {
    /// Last log index the image covers.
    pub idx: u64,
    /// Its term.
    pub term: u64,
    /// Chain hash at `idx`.
    pub chain: u64,
    /// Content digest the writer computed.
    pub digest: u64,
    /// Voter set active at `idx`.
    pub voters: Vec<u32>,
    /// The map itself.
    pub map: BTreeMap<String, u64>,
    /// Whether the `end` trailer was present on parse.
    pub complete: bool,
}

impl SnapImage {
    /// Captures the machine's current state as an image.
    pub fn of(kv: &KvState, voters: &[u32]) -> SnapImage {
        SnapImage {
            idx: kv.applied,
            term: kv.applied_term,
            chain: kv.chain,
            digest: kv.digest(),
            voters: voters.to_vec(),
            map: kv.map.clone(),
            complete: true,
        }
    }

    /// Header line (without the KV body).
    pub fn encode_header(&self) -> String {
        let voters = self
            .voters
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "snap {} {} {:x} {:x} {}\n",
            self.idx, self.term, self.chain, self.digest, voters
        )
    }

    /// Full-file encoding: header, pairs, `end` trailer.
    pub fn encode(&self) -> String {
        let mut out = self.encode_header();
        out.push_str(&Self::encode_items(
            self.map.iter().map(|(k, v)| (k.as_str(), *v)),
        ));
        out.push_str("end\n");
        out
    }

    /// Encodes a batch of `k` lines (one transfer chunk's payload).
    pub fn encode_items<'a>(items: impl Iterator<Item = (&'a str, u64)>) -> String {
        let mut out = String::new();
        for (k, v) in items {
            let _ = writeln!(out, "k {k} {v}");
        }
        out
    }

    /// Parses a snapshot file. Returns `None` only when the header itself
    /// is unreadable; a missing `end` trailer yields `complete == false`
    /// with whatever pairs were present.
    pub fn parse(data: &[u8]) -> Option<SnapImage> {
        let text = String::from_utf8_lossy(data);
        let mut lines = text.lines();
        let header = lines.next()?.strip_prefix("snap ")?.to_string();
        let mut it = header.split_whitespace();
        let idx = it.next()?.parse().ok()?;
        let term = it.next()?.parse().ok()?;
        let chain = u64::from_str_radix(it.next()?, 16).ok()?;
        let digest = u64::from_str_radix(it.next()?, 16).ok()?;
        let voters = it
            .next()
            .map(|csv| csv.split(',').filter_map(|p| p.parse().ok()).collect())
            .unwrap_or_default();
        let mut map = BTreeMap::new();
        let mut complete = false;
        for line in lines {
            if line == "end" {
                complete = true;
            } else if let Some(rest) = line.strip_prefix("k ") {
                let mut kv = rest.split_whitespace();
                if let (Some(k), Some(v)) = (kv.next(), kv.next().and_then(|v| v.parse().ok())) {
                    map.insert(k.to_string(), v);
                }
            }
        }
        Some(SnapImage {
            idx,
            term,
            chain,
            digest,
            voters,
            map,
            complete,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raft::log::reference::{self, every_cmd};

    /// FNV-1a over a byte slice, as `apply` and `digest_of` called it on
    /// the strings they used to build.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn the_streamed_chain_is_the_hash_of_the_formatted_mix() {
        let mut kv = KvState::default();
        let mut chain = 0u64;
        for round in 0..3u64 {
            for (i, cmd) in every_cmd().into_iter().enumerate() {
                let e = Entry {
                    idx: round * 1_000 + i as u64 + 1,
                    term: round + 1,
                    cmd,
                };
                let mix = format!("{chain:x}|{}|{}|{}", e.idx, e.term, reference::cmd(&e.cmd));
                chain = fnv1a(mix.as_bytes());
                kv.apply(&e);
                assert_eq!(kv.chain, chain, "after {e:?}");
                assert_eq!((kv.applied, kv.applied_term), (e.idx, e.term));
            }
        }
        // Re-putting a key overwrites it; the map is what `insert` left.
        assert_eq!(kv.map.get("k7"), Some(&0));
        assert_eq!(kv.map.len(), 2);
    }

    #[test]
    fn the_streamed_digest_is_the_hash_of_the_built_string() {
        let mut map = BTreeMap::new();
        assert_eq!(digest_of(&map), fnv1a(b""));
        for (k, v) in [("k0", 7u64), ("k1", 0), ("", u64::MAX), ("k10", 10)] {
            map.insert(k.to_string(), v);
            let mut buf = String::new();
            for (k, v) in &map {
                buf.push_str(k);
                buf.push('=');
                buf.push_str(&v.to_string());
                buf.push(';');
            }
            assert_eq!(digest_of(&map), fnv1a(buf.as_bytes()));
        }
    }

    fn put(idx: u64, key: &str, val: u64) -> Entry {
        Entry {
            idx,
            term: 1,
            cmd: Cmd::Put {
                key: key.to_string(),
                val,
                id: idx,
            },
        }
    }

    #[test]
    fn chain_depends_on_history_not_just_state() {
        let mut a = KvState::default();
        a.apply(&put(1, "x", 1));
        a.apply(&put(2, "x", 2));
        let mut b = KvState::default();
        b.apply(&put(1, "x", 2));
        b.apply(&put(2, "x", 2));
        assert_eq!(a.map, b.map);
        assert_ne!(a.chain, b.chain);
    }

    #[test]
    fn snapshot_roundtrips() {
        let mut kv = KvState::default();
        kv.apply(&put(1, "k0", 7));
        kv.apply(&put(2, "k1", 9));
        let img = SnapImage::of(&kv, &[0, 1, 2]);
        let parsed = SnapImage::parse(img.encode().as_bytes()).unwrap();
        assert!(parsed.complete);
        assert_eq!(parsed.idx, 2);
        assert_eq!(parsed.chain, kv.chain);
        assert_eq!(parsed.map, kv.map);
        assert_eq!(parsed.voters, vec![0, 1, 2]);
        assert_eq!(digest_of(&parsed.map), img.digest);
    }

    #[test]
    fn truncated_snapshot_parses_incomplete() {
        let mut kv = KvState::default();
        for i in 1..=6 {
            kv.apply(&put(i, &format!("k{i}"), i));
        }
        let full = SnapImage::of(&kv, &[0, 1]).encode();
        // Cut after the third pair: header + 3 lines survive, no trailer.
        let cut: String = full.lines().take(4).map(|l| format!("{l}\n")).collect();
        let parsed = SnapImage::parse(cut.as_bytes()).unwrap();
        assert!(!parsed.complete);
        assert_eq!(parsed.map.len(), 3);
        assert_eq!(parsed.idx, 6, "header still claims full coverage");
        assert_ne!(digest_of(&parsed.map), parsed.digest);
    }
}
