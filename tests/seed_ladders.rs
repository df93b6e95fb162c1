//! Every derived-seed ladder wraps: capture attempts (`capture_seed + 13·i`),
//! re-capture rounds, replay fan-out (`base_seed + 31·i`) and the diagnosis
//! stream all use wrapping arithmetic, like the nemesis and confirmation
//! seeds next to them. A campaign seeded at the top of the `u64` range must
//! run, not panic with "attempt to add with overflow" (debug builds) or
//! behave differently per profile.

use rose::apps::driver::{
    capture_and_diagnose, capture_buggy_trace, capture_spec, visit_case, CaptureMethod,
    CaptureSpec, DriverOptions, SystemVisitor,
};
use rose::apps::registry::BugId;
use rose::core::{Rose, RoseConfig, TargetSystem};
use rose::events::SimDuration;
use rose::inject::FaultSchedule;

struct TopOfTheSeedSpace;

impl SystemVisitor for TopOfTheSeedSpace {
    type Out = ();

    fn visit<S: TargetSystem>(self, id: BugId, system: S) {
        let mut cfg = RoseConfig {
            profiling_duration: SimDuration::from_secs(10),
            ..RoseConfig::default()
        };
        // One schedule and an unreachable target: every diagnosis round
        // fails fast and sends the driver back to capture.
        cfg.diagnosis.base_seed = u64::MAX;
        cfg.diagnosis.max_schedules = 1;
        cfg.diagnosis.target_replay_rate = 101.0;
        let rose = Rose::with_config(system, cfg);
        let profile = rose.profile();
        let opts = DriverOptions {
            capture_seed: u64::MAX,
            max_capture_attempts: 4,
            max_diagnosis_rounds: 2,
            ..DriverOptions::default()
        };

        // The attempt ladder: a fault-free "capture" never fires the oracle,
        // so the second attempt runs at `u64::MAX + 13`.
        let quiet = CaptureSpec::from(CaptureMethod::Scripted(FaultSchedule::new()))
            .with_duration(SimDuration::from_secs(10));
        let (missed, attempts) = capture_buggy_trace(&rose, &profile, &quiet, &opts);
        assert!(
            missed.is_none(),
            "{id}: a fault-free run tripped the oracle"
        );
        assert_eq!(attempts, 4);

        // The round ladder: the first diagnosis fails, so the driver
        // re-captures from `capture_seed + 13 · attempts so far`.
        let (capture, report, attempts) =
            capture_and_diagnose(&rose, &profile, &capture_spec(id), &opts);
        let capture = capture.expect("the scripted trigger captures at any seed");
        assert!(attempts >= 2, "{id}: the second round never captured");
        let report = report.expect("diagnosis ran");
        assert!(!report.reproduced, "a 101 % target cannot be met");

        // The replay ladder, on the schedule the diagnosis settled on.
        let schedule = report.schedule.unwrap_or_default();
        let replays = rose.run_replays(&profile, &schedule, 3, u64::MAX);
        assert_eq!(replays.len(), 3);
        assert!(!capture.trace.is_empty());
    }
}

#[test]
fn seeds_wrap_at_the_top_of_the_u64_range() {
    visit_case(BugId::Tendermint5839, TopOfTheSeedSpace);
}
