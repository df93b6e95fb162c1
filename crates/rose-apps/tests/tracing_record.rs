//! A campaign's tracing record describes the trace it reports: its dump
//! sizes are the JSON length and the `.rosetrace` size of that very trace —
//! the capture that showed the bug when one did, else the last failed
//! attempt's.

use rose_apps::driver::{
    capture_buggy_trace, capture_spec, visit_case, DriverOptions, SystemVisitor, CAPTURE_DURATION,
};
use rose_apps::registry::BugId;
use rose_core::{Rose, TargetSystem};
use rose_events::Trace;
use rose_obs::{Obs, PhaseRecord, TracingStats};

/// One capture campaign under `opts`: its only tracing record, the number
/// of attempts it made, and the trace that record describes, taken again
/// from a fresh run of that attempt when no capture showed the bug.
struct Campaign {
    opts: DriverOptions,
}

impl SystemVisitor for Campaign {
    type Out = (TracingStats, u32, Trace);

    fn visit<S: TargetSystem>(self, id: BugId, system: S) -> Self::Out {
        let spec = capture_spec(id);
        let mut rose = Rose::new(system);
        rose.attach_obs(Obs::new());
        let profile = rose.profile();
        let (captured, attempts) = capture_buggy_trace(&rose, &profile, &spec, &self.opts);
        let mut records = rose.obs().records().into_iter().filter_map(|r| match r {
            PhaseRecord::Tracing(t) => Some(t),
            _ => None,
        });
        let record = records.next().expect("a tracing record");
        assert!(records.next().is_none(), "{id}: one tracing record");
        let trace = match captured {
            Some(cap) => cap.trace,
            None => {
                let last = attempts - 1;
                let duration = spec.duration.unwrap_or(CAPTURE_DURATION);
                // Attempt n of a campaign runs at `capture_seed + 13·n`.
                let seed = self.opts.capture_seed + 13 * u64::from(last);
                let again = rose.capture_trace(&profile, spec.hooks(last), seed, duration);
                assert!(!again.bug, "{id}: attempt {last} failed in the campaign");
                again.trace
            }
        };
        (record, attempts, trace)
    }
}

fn assert_sized(record: &TracingStats, trace: &Trace) {
    assert_eq!(record.trace_events, trace.len());
    assert_eq!(record.dump_json_bytes, trace.json_len() as u64);
    assert_eq!(
        record.dump_store_bytes,
        rose_store::encoded_trace_bytes(trace)
    );
}

#[test]
fn a_later_attempt_that_shows_the_bug_is_the_one_sized() {
    // MongoDB:2.4.3's first capture misses the bug; its second shows it.
    let opts = DriverOptions::default();
    let (record, attempts, trace) = visit_case(BugId::Mongo243, Campaign { opts });
    assert_eq!(attempts, 2);
    assert!(record.bug_detected);
    assert_eq!(record.attempts, 2);
    assert_sized(&record, &trace);
}

#[test]
fn a_campaign_that_never_shows_the_bug_sizes_its_last_attempt() {
    // RedisRaft-43's capture first shows the bug on attempt 26.
    let opts = DriverOptions {
        max_capture_attempts: 2,
        ..DriverOptions::default()
    };
    let (record, attempts, trace) = visit_case(BugId::RedisRaft43, Campaign { opts });
    assert_eq!(attempts, 2);
    assert!(!record.bug_detected);
    assert_eq!(record.attempts, 2);
    assert_sized(&record, &trace);
}
