//! What the nemesis asks the kernel to do, pinned.
//!
//! The nemesis is a [`KernelHook`] whose only output is the effects it writes
//! at the kernel's periodic poll. This drives it directly — every operation
//! it knows, a five-node cluster, a poll every 100 ms for 300 virtual
//! seconds — and hashes the signal and traffic-control commands of each
//! non-empty [`HookEffects`], all a nemesis can write, with the time it was
//! written. A change in how the nemesis draws or writes a fault moves the
//! hash; if the change meant that, paste the value the test prints.

use std::fmt::Write;

use rose_events::{FnvHasher, SimDuration, SimTime};
use rose_jepsen::{Nemesis, NemesisConfig, NemesisOp};
use rose_sim::{HookEffects, KernelHook, NetCmd, ProcTable, SignalKind};

const EXPECTED: u64 = 0xd2f387950129787f;

/// Which operation wrote `fx`, as an index into the op list below.
fn op_of(fx: &HookEffects) -> usize {
    match (fx.signal().map(|s| s.kind), fx.net().first()) {
        (Some(SignalKind::Crash), _) => 0,
        (Some(SignalKind::Pause(_)), _) => 1,
        (None, Some(NetCmd::Isolate { .. })) => 2,
        (None, Some(NetCmd::Install { .. })) => 3,
        other => panic!("the nemesis wrote {other:?}"),
    }
}

#[test]
fn the_nemesis_writes_the_recorded_effects() {
    let ops = vec![
        NemesisOp::Crash,
        NemesisOp::Pause,
        NemesisOp::Partition,
        NemesisOp::Split,
    ];
    let mut nemesis = Nemesis::new(NemesisConfig::standard(5, 17).with_ops(ops));
    let procs = ProcTable::new();
    let mut hash = FnvHasher::default();
    let mut faults = [0; 4];
    let mut now = SimTime::ZERO;
    while now <= SimTime::from_secs(300) {
        let mut fx = HookEffects::none();
        nemesis.poll(now, &procs, &mut fx);
        if fx != HookEffects::none() {
            let (signal, net) = (fx.signal(), fx.net());
            write!(hash, "{now:?} {signal:?} {net:?};").expect("hashing cannot fail");
            faults[op_of(&fx)] += 1;
        }
        now += SimDuration::from_millis(100);
    }
    let actual = std::hash::Hasher::finish(&hash);
    assert!(faults.iter().all(|n| *n > 0), "faults per op: {faults:?}");
    assert_eq!(
        actual, EXPECTED,
        "the nemesis no longer writes the recorded effects (faults per op: {faults:?}); \
         the hash as it is now is const EXPECTED: u64 = {actual:#018x};"
    );
}
