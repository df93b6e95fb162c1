//! Property-based tests of the Elle-style checker: well-formed histories
//! never produce anomalies, and seeded corruptions always do.

use proptest::prelude::*;
use rose_events::SimTime;
use rose_jepsen::check_appends;
use rose_sim::{ClientId, History, OpOutcome};

/// Builds a clean single-key history: `n` acked appends with interleaved
/// prefix-consistent reads, all spaced a second apart (beyond the RTT
/// guard), plus a final read of everything.
fn clean_history(n: usize, read_every: usize) -> History {
    let mut h = History::default();
    let mut t = 0u64;
    let mut log: Vec<String> = Vec::new();
    for i in 0..n {
        t += 1;
        let v = format!("v{i}");
        let idx = h.invoke(
            ClientId(0),
            format!("append k=a v={v}"),
            SimTime::from_secs(t),
        );
        h.complete(idx, SimTime::from_secs(t), OpOutcome::Ok(None));
        log.push(v);
        if read_every > 0 && i % read_every == 0 {
            t += 1;
            let idx = h.invoke(ClientId(1), "read k=a".into(), SimTime::from_secs(t));
            h.complete(
                idx,
                SimTime::from_secs(t),
                OpOutcome::Ok(Some(log.join(",").into())),
            );
        }
    }
    t += 1;
    let idx = h.invoke(ClientId(1), "read k=a".into(), SimTime::from_secs(t));
    h.complete(
        idx,
        SimTime::from_secs(t),
        OpOutcome::Ok(Some(log.join(",").into())),
    );
    h
}

proptest! {
    #[test]
    fn clean_histories_have_no_anomalies(n in 1usize..40, read_every in 1usize..8) {
        let h = clean_history(n, read_every);
        let rep = check_appends(&h);
        prop_assert!(rep.ok(), "{:?}", rep.anomalies);
    }

    #[test]
    fn dropping_a_settled_value_is_lost(n in 3usize..30, victim in 0usize..3) {
        let mut h = History::default();
        let mut log: Vec<String> = Vec::new();
        for i in 0..n {
            let idx = h.invoke(ClientId(0), format!("append k=a v=v{i}"), SimTime::from_secs(i as u64 + 1));
            h.complete(idx, SimTime::from_secs(i as u64 + 1), OpOutcome::Ok(None));
            log.push(format!("v{i}"));
        }
        let victim = victim % n;
        log.remove(victim);
        let idx = h.invoke(ClientId(1), "read k=a".into(), SimTime::from_secs(n as u64 + 10));
        h.complete(idx, SimTime::from_secs(n as u64 + 10), OpOutcome::Ok(Some(log.join(",").into())));
        prop_assert!(check_appends(&h).has_lost_writes());
    }

    #[test]
    fn duplicating_any_value_is_detected(n in 2usize..30, dup in 0usize..3) {
        let mut h = History::default();
        let mut log: Vec<String> = Vec::new();
        for i in 0..n {
            let idx = h.invoke(ClientId(0), format!("append k=a v=v{i}"), SimTime::from_secs(i as u64 + 1));
            h.complete(idx, SimTime::from_secs(i as u64 + 1), OpOutcome::Ok(None));
            log.push(format!("v{i}"));
        }
        let dup = dup % n;
        let v = log[dup].clone();
        log.push(v);
        let idx = h.invoke(ClientId(1), "read k=a".into(), SimTime::from_secs(n as u64 + 10));
        h.complete(idx, SimTime::from_secs(n as u64 + 10), OpOutcome::Ok(Some(log.join(",").into())));
        prop_assert!(check_appends(&h).has_duplicates());
    }

    #[test]
    fn timeout_ops_never_count_as_lost(n in 1usize..20) {
        let mut h = History::default();
        for i in 0..n {
            let _ = h.invoke(ClientId(0), format!("append k=a v=v{i}"), SimTime::from_secs(i as u64 + 1));
            // Never completed: stays a Timeout.
        }
        let idx = h.invoke(ClientId(1), "read k=a".into(), SimTime::from_secs(n as u64 + 10));
        h.complete(idx, SimTime::from_secs(n as u64 + 10), OpOutcome::Ok(Some(String::new().into())));
        prop_assert!(check_appends(&h).ok());
    }
}
