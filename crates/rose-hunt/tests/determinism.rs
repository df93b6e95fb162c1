//! Determinism properties of the hunt's search state.
//!
//! The `--jobs`-independence claim rests on two pure functions: the
//! frontier's exploration order is a function of the candidate *set*
//! (workers finish in whatever order the OS schedules them, so arrival
//! order must never matter), and the errno model's pick is a function of
//! (syscall, salt) alone. These properties pin both down over arbitrary
//! candidate sets, permutations, batch shapes, and salts.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rose_events::{fingerprint, SyscallId};
use rose_hunt::{Candidate, ErrnoModel, Frontier};
use rose_inject::FaultSchedule;

fn cand(score: u64, fp: u64) -> Candidate {
    Candidate {
        schedule: FaultSchedule::new(),
        fingerprint: fp,
        depth: 1,
        score,
    }
}

/// Distinct-fingerprint candidate sets: fingerprint → score. The hunt
/// enumerates each schedule fingerprint once (the sequential fold dedupes
/// before workers ever see a candidate), so distinct fingerprints are the
/// domain the permutation property holds over.
fn arb_candidates() -> impl Strategy<Value = BTreeMap<u64, u64>> {
    proptest::collection::vec((any::<u64>(), 1u64..1_000), 0..40)
        .prop_map(|pairs| pairs.into_iter().collect())
}

/// A deterministic permutation of the candidate set keyed by `key`:
/// sorting on a SplitMix64 hash of (fingerprint ^ key) walks the whole
/// permutation family as `key` varies.
fn permuted(set: &BTreeMap<u64, u64>, key: u64) -> Vec<(u64, u64)> {
    let mut items: Vec<(u64, u64)> = set.iter().map(|(fp, s)| (*fp, *s)).collect();
    items.sort_by_key(|(fp, _)| fingerprint::mix(*fp ^ key));
    items
}

proptest! {
    /// Pushing the same candidate set in any arrival order yields the
    /// same frontier order and the same tried-set size — the visited-set
    /// accounting is insensitive to worker completion order.
    #[test]
    fn frontier_order_is_permutation_insensitive(
        set in arb_candidates(),
        key_a in any::<u64>(),
        key_b in any::<u64>(),
    ) {
        let mut a = Frontier::new();
        for (fp, score) in permuted(&set, key_a) {
            prop_assert!(a.push(cand(score, fp)));
        }
        let mut b = Frontier::new();
        for (fp, score) in permuted(&set, key_b) {
            prop_assert!(b.push(cand(score, fp)));
        }
        prop_assert_eq!(a.order(), b.order());
        prop_assert_eq!(a.seen(), b.seen());
        prop_assert_eq!(a.len(), set.len());
    }

    /// Popping in batches of any shape walks the same sequence the
    /// frontier reported up front: batch size moves
    /// wall-clock, never which schedules run in which order.
    #[test]
    fn batch_shape_never_changes_the_exploration_sequence(
        set in arb_candidates(),
        key in any::<u64>(),
        batches in proptest::collection::vec(1usize..8, 0..20),
    ) {
        let mut f = Frontier::new();
        for (fp, score) in permuted(&set, key) {
            f.push(cand(score, fp));
        }
        let announced = f.order();
        let mut walked = Vec::new();
        for n in batches {
            for c in f.pop_batch(n) {
                walked.push((c.score, c.fingerprint));
            }
        }
        while !f.is_empty() {
            for c in f.pop_batch(1) {
                walked.push((c.score, c.fingerprint));
            }
        }
        prop_assert_eq!(walked, announced);
    }

    /// Once a fingerprint has been enumerated it never re-enters the
    /// frontier — not after popping, not at a higher score — so every
    /// schedule is explored at most once per campaign.
    #[test]
    fn enumerated_fingerprints_are_rejected_forever(
        set in arb_candidates(),
        key in any::<u64>(),
        bump in 1u64..500,
    ) {
        let mut f = Frontier::new();
        let items = permuted(&set, key);
        for (fp, score) in &items {
            f.push(cand(*score, *fp));
        }
        let popped = f.pop_batch(set.len() / 2);
        let remaining = f.order();
        for c in &popped {
            prop_assert!(!f.push(cand(c.score + bump, c.fingerprint)));
        }
        for (fp, score) in &items {
            prop_assert!(!f.push(cand(*score + bump, *fp)));
        }
        prop_assert_eq!(f.order(), remaining);
        prop_assert_eq!(f.seen(), set.len());
    }
}

proptest! {
    /// The errno model is a pure function of (syscall, salt), and every
    /// pick comes from that syscall's weighted table — the hunt never
    /// injects an errno the realism model does not list for the call.
    #[test]
    fn errno_picks_are_pure_and_table_bounded(
        salt in any::<u64>(),
        idx in 0..SyscallId::ALL.len(),
    ) {
        let model = ErrnoModel;
        let call = SyscallId::ALL[idx];
        let pick = model.pick(call, salt);
        prop_assert_eq!(pick, model.pick(call, salt));
        prop_assert!(
            model.weights(call).iter().any(|(e, _)| *e == pick),
            "{} picked {:?} outside its table", call, pick
        );
    }

    /// Per-seed determinism of the site-level pick: the same site under
    /// the same campaign seed always fails the same way, and two salts
    /// that differ agree only when the weighted walk lands them in the
    /// same bucket — never because the salt was ignored.
    #[test]
    fn errno_salt_actually_drives_the_pick(seed in any::<u64>()) {
        // Over a window of sites under one campaign seed, Write must show
        // more than one distinct errno: with weights 40/35/15/10 the odds
        // of 64 uniform rolls landing in one bucket are < 1e-25.
        let model = ErrnoModel;
        let mut distinct = std::collections::BTreeSet::new();
        for site in 0u64..64 {
            distinct.insert(model.pick(SyscallId::Write, seed ^ fingerprint::mix(site)));
        }
        prop_assert!(distinct.len() > 1, "salt is being ignored");
    }
}
