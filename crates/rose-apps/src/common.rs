//! Shared helpers for the simulated target systems.

use rand::Rng;
use rose_events::SimDuration;
use rose_sim::NodeCtx;

/// Samples a randomized election timeout (Raft-style).
pub fn election_timeout(rng: &mut impl Rng) -> SimDuration {
    SimDuration::from_millis(rng.gen_range(800..1_600))
}

/// The flavour of benign environment probing a system performs.
///
/// JVM deployments are notorious for steady streams of failing `stat` and
/// `readlink` calls (class loading, /proc probing); the paper's §6.2 notes
/// that removing these via the trace diff is where most of the `FR%`
/// reduction comes from in the Java systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeStyle {
    /// Java-style: frequent stat/readlink probing of missing paths.
    Jvm,
    /// Native (C/C++/Go): occasional config stat only.
    Native,
}

/// Emits benign failing system calls, to be called from a periodic timer.
/// `tick` lets the pattern vary deterministically.
pub fn benign_probes<M: Clone + std::fmt::Debug + 'static>(
    ctx: &mut NodeCtx<'_, M>,
    style: ProbeStyle,
    tick: u64,
) {
    match style {
        ProbeStyle::Jvm => {
            let _ = ctx.stat(&format!("/proc/self/task/{}/stat", 100 + tick % 7));
            let _ = ctx.readlink(&format!("/tmp/hsperfdata/{}", tick % 5));
            if tick.is_multiple_of(3) {
                let _ = ctx.stat("/etc/jvm.options");
            }
        }
        ProbeStyle::Native => {
            if tick.is_multiple_of(5) {
                let _ = ctx.stat("/etc/app.local.conf");
            }
        }
    }
}

/// Serializes an append-list value set into the wire form used by read
/// replies and the Elle checker (`"v1,v2,v3"`).
pub fn join_values(values: &[String]) -> String {
    values.join(",")
}

/// Timer tag allocator: systems build their tags from these bases to keep
/// callback dispatch readable.
pub mod tags {
    /// Periodic main tick.
    pub const TICK: u64 = 1;
    /// Election timeout.
    pub const ELECTION: u64 = 2;
    /// Leader heartbeat.
    pub const HEARTBEAT: u64 = 3;
    /// Deferred work stage B.
    pub const STAGE_B: u64 = 11;
    /// Client request pacing.
    pub const CLIENT_OP: u64 = 20;
    /// Client final read.
    pub const CLIENT_READ: u64 = 22;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn election_timeouts_are_in_range_and_jittered() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = election_timeout(&mut rng);
        let b = election_timeout(&mut rng);
        for t in [a, b] {
            assert!(t >= SimDuration::from_millis(800));
            assert!(t < SimDuration::from_millis(1_600));
        }
        assert_ne!(a, b);
    }

    #[test]
    fn join_values_formats_elle_wire_form() {
        assert_eq!(join_values(&["1".into(), "2".into()]), "1,2");
        assert_eq!(join_values(&[]), "");
    }
}
