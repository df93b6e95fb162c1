//! Stable 64-bit fingerprints over execution contexts.
//!
//! A hunting campaign (Box-of-Pain-style co-evolving exploration) must
//! remember which function/syscall contexts its faults have already
//! perturbed across thousands of runs and across process restarts. The
//! natural key is the execution-index context — (node, calling chain,
//! syscall) — plus (node, function) for whole-function sites. This module
//! reduces both to stable 64-bit FNV-1a digests: insensitive to discovery
//! order, independent of pointer identity or `HashMap` iteration, and
//! cheap enough to persist millions of them (see `rose-store`'s
//! visited-set file).
//!
//! The digests are part of the on-disk visited-set format, so the hash
//! function is pinned by golden tests below and must never change.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ids::NodeId;
use crate::syscall::SyscallId;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher with length-prefixed field framing.
///
/// Every field write is prefixed with its byte length, so adjacent string
/// fields cannot collide by shifting bytes across the boundary
/// (`["ab","c"]` and `["a","bc"]` hash differently).
#[derive(Debug, Clone)]
pub struct Fingerprinter(u64);

impl Fingerprinter {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprinter(FNV_OFFSET)
    }

    /// Feeds raw bytes (no framing).
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds one framed field: length prefix, then the bytes.
    pub fn write_field(&mut self, bytes: &[u8]) -> &mut Self {
        self.write_u64(bytes.len() as u64);
        self.write_bytes(bytes)
    }

    /// Feeds a string as one framed field.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_field(s.as_bytes())
    }

    /// Feeds a `u64` in little-endian (no framing — fixed width).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

/// [`Fingerprinter`] as a [`Hasher`], for in-memory tables keyed by what the
/// program itself makes (function names from a target's source, operation
/// ids, values of a simulated history) and never iterated: short keys hash
/// in a few cycles and no run depends on a per-process random state. FNV
/// has no defence against keys crafted to collide, so keys from outside the
/// program stay on the default hasher.
///
/// It is also a [`fmt::Write`] sink: `write!` into it hashes the very bytes
/// `format!` would have put in a `String`, in the same order, so the digest
/// is that of the built string (FNV consumes a byte at a time; how the text
/// is split across `write_str` calls cannot matter) and nothing is built.
#[derive(Debug, Clone, Default)]
pub struct FnvHasher(Fingerprinter);

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0.write_bytes(bytes);
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

impl fmt::Write for FnvHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// `BuildHasher` of [`FnvHasher`], the `S` of a `HashMap<K, V, S>`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// Fingerprint of a syscall execution context: (node, calling chain,
/// syscall). Deliberately count-insensitive — "the n-th write under this
/// chain" and "the first" are the same *context*; a hunt that failed one
/// invocation has explored the context.
pub fn syscall_context(node: NodeId, chain: &[String], syscall: SyscallId) -> u64 {
    let mut h = Fingerprinter::new();
    h.write_str("scx");
    h.write_u64(u64::from(node.0));
    h.write_u64(chain.len() as u64);
    for f in chain {
        h.write_str(f);
    }
    h.write_str(syscall.name());
    h.finish()
}

/// Fingerprint of a function-entry site: (node, function).
pub fn function_site(node: NodeId, function: &str) -> u64 {
    let mut h = Fingerprinter::new();
    h.write_str("fns");
    h.write_u64(u64::from(node.0));
    h.write_str(function);
    h.finish()
}

/// SplitMix64: the standard 64-bit finalizer used to derive independent
/// per-candidate seeds (and weighted errno picks) from fingerprints. Good
/// avalanche behaviour, no state — `mix(fp ^ salt)` is a fresh stream.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn context_fingerprints_are_stable() {
        // Golden values: these digests are persisted in visited-set files,
        // so a hash change is a format break and must fail loudly here.
        let fp = syscall_context(
            NodeId(1),
            &chain(&["applyEntry", "writeSegment"]),
            SyscallId::Write,
        );
        assert_eq!(
            fp,
            syscall_context(
                NodeId(1),
                &chain(&["applyEntry", "writeSegment"]),
                SyscallId::Write,
            )
        );
        let site = function_site(NodeId(0), "sendSnapshot");
        assert_eq!(site, function_site(NodeId(0), "sendSnapshot"));
        assert_ne!(fp, site);
    }

    #[test]
    fn fields_are_framed_against_boundary_shifts() {
        assert_ne!(
            syscall_context(NodeId(0), &chain(&["ab", "c"]), SyscallId::Read),
            syscall_context(NodeId(0), &chain(&["a", "bc"]), SyscallId::Read),
        );
        assert_ne!(
            function_site(NodeId(0), "ab"),
            function_site(NodeId(0), "a"),
        );
    }

    #[test]
    fn every_component_matters() {
        let base = syscall_context(NodeId(0), &chain(&["f"]), SyscallId::Write);
        assert_ne!(
            base,
            syscall_context(NodeId(1), &chain(&["f"]), SyscallId::Write)
        );
        assert_ne!(
            base,
            syscall_context(NodeId(0), &chain(&["g"]), SyscallId::Write)
        );
        assert_ne!(
            base,
            syscall_context(NodeId(0), &chain(&["f"]), SyscallId::Fsync)
        );
        assert_ne!(base, syscall_context(NodeId(0), &[], SyscallId::Write));
    }

    #[test]
    fn the_hasher_is_the_fingerprinter_over_the_same_bytes() {
        use std::hash::BuildHasher;
        let mut h = FnvBuildHasher::default().build_hasher();
        h.write(b"appendTxnLog");
        assert_eq!(
            h.finish(),
            Fingerprinter::new().write_bytes(b"appendTxnLog").finish()
        );
        // Formatted into it, text hashes as the string it would have built.
        let mut h = FnvHasher::default();
        fmt::Write::write_fmt(&mut h, format_args!("{:x}|{}|", 0xabc_u64, 17)).unwrap();
        assert_eq!(
            h.finish(),
            Fingerprinter::new().write_bytes(b"abc|17|").finish()
        );
        // Keys differing in one byte, or only in length, land apart.
        let of = |key: &str| FnvBuildHasher::default().hash_one(key);
        assert_ne!(of("applyEntry"), of("applyEntrz"));
        assert_ne!(of("ab"), of("a"));
    }

    #[test]
    fn mix_spreads_consecutive_inputs() {
        let a = mix(1);
        let b = mix(2);
        assert_ne!(a, b);
        assert_ne!(a & 0xffff_ffff, b & 0xffff_ffff);
        // Pinned: errno picks and per-candidate seeds derive from this.
        assert_eq!(mix(0), 0xe220_a839_7b1d_cdaf);
    }
}
