//! Shared helpers for the simulated target systems.

use std::collections::BTreeMap;
use std::sync::Arc;

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

/// A key's append list. The store owns it; a read reply (and a snapshot
/// payload) is another reference to the same list, not a copy. The store
/// copies the list only when it changes it while a reference it handed out
/// is still alive (`Arc::make_mut`), so a reply in flight keeps the list it
/// was sent — exactly what the per-read deep copy used to buy.
pub type Values = Arc<Vec<String>>;

/// Appends `val` to `key`'s list in an append-list store.
pub fn push_value(store: &mut BTreeMap<String, Values>, key: &str, val: String) {
    match store.get_mut(key) {
        Some(values) => Arc::make_mut(values).push(val),
        None => {
            store.insert(key.to_string(), Arc::new(vec![val]));
        }
    }
}

/// The list a read of `key` is answered with: the store's own, shared.
pub fn read_values(store: &BTreeMap<String, Values>, key: &str) -> Values {
    store.get(key).cloned().unwrap_or_default()
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

/// The one-copy rule, checked from outside a running store: shared by the
/// tests of every target that answers reads with [`Values`].
#[cfg(test)]
pub(crate) mod sharing {
    use std::sync::Arc;

    use rose_core::{Rose, TargetSystem};
    use rose_events::{NodeId, SimDuration};
    use rose_sim::{Application, ClientCtx, ClientDriver};

    use super::{join_values, Values};

    /// A client that reads one key every 10 ms and keeps every list it is
    /// answered with, beside the text the list joined to on arrival.
    struct Reader<M> {
        node: NodeId,
        ask: fn() -> M,
        list_of: fn(M) -> Option<Values>,
        replies: Vec<(Values, String)>,
    }

    impl<M: Clone + std::fmt::Debug + 'static> ClientDriver<M> for Reader<M> {
        fn on_start(&mut self, ctx: &mut ClientCtx<'_, M>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }

        fn on_timer(&mut self, ctx: &mut ClientCtx<'_, M>, _tag: u64) {
            ctx.send(self.node, (self.ask)());
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }

        fn on_reply(&mut self, _ctx: &mut ClientCtx<'_, M>, _from: NodeId, msg: M) {
            if let Some(list) = (self.list_of)(msg) {
                let text = join_values(&list);
                self.replies.push((list, text));
            }
        }
    }

    /// Runs `system` fault-free for 30 s under its own workload plus a
    /// [`Reader`] of one key at `node`, a millisecond at a time, and checks
    /// that
    ///
    /// - a reply that arrives while the store's list is as long as it is
    ///   the store's list (`Arc::ptr_eq`), and so are two replies with
    ///   nothing appended between them;
    /// - every reply, however many appends later, still reads as it did
    ///   when it arrived.
    pub(crate) fn replies_share_the_stores_list_and_keep_what_they_were_sent<S: TargetSystem>(
        system: S,
        node: NodeId,
        ask: fn() -> <S::App as Application>::Msg,
        list_of: fn(<S::App as Application>::Msg) -> Option<Values>,
        stored: fn(&S::App) -> Option<&Values>,
    ) {
        let mut sim = Rose::new(system).deploy(5, Vec::new());
        let reader = sim.add_client(Box::new(Reader {
            node,
            ask,
            list_of,
            replies: Vec::new(),
        }));
        sim.start();
        let (mut judged, mut shared_with_store) = (0, 0);
        for _ in 0..30_000 {
            sim.run_for(SimDuration::from_millis(1));
            let replies = &sim
                .client_ref::<Reader<<S::App as Application>::Msg>>(reader)
                .expect("the reader is attached")
                .replies;
            for (reply, _) in &replies[judged..] {
                let store = sim.app(node).and_then(stored);
                if let Some(store) = store.filter(|s| s.len() == reply.len()) {
                    assert!(Arc::ptr_eq(store, reply), "an unchanged list was copied");
                    shared_with_store += 1;
                }
            }
            judged = replies.len();
        }
        let replies = &sim
            .client_ref::<Reader<<S::App as Application>::Msg>>(reader)
            .expect("the reader is attached")
            .replies;
        assert!(shared_with_store > 100, "{shared_with_store} of {judged}");
        let (first, last) = (&replies[0].0, &replies[judged - 1].0);
        assert!(first.len() + 10 < last.len(), "the workload appended");
        // (A key nobody appended to yet has no list to share.)
        for pair in replies.windows(2) {
            let (a, b) = (&pair[0].0, &pair[1].0);
            assert_eq!(Arc::ptr_eq(a, b), a.len() == b.len() && !a.is_empty());
        }
        for (list, on_arrival) in replies {
            assert_eq!(join_values(list), *on_arrival);
        }
    }
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
    fn a_list_is_copied_only_while_a_reference_is_out() {
        let mut store = BTreeMap::new();
        push_value(&mut store, "k", "1".into());
        let own = Arc::as_ptr(&store["k"]);
        push_value(&mut store, "k", "2".into());
        assert_eq!(Arc::as_ptr(&store["k"]), own, "nobody else holds it");
        let reply = read_values(&store, "k");
        assert!(Arc::ptr_eq(&reply, &store["k"]));
        push_value(&mut store, "k", "3".into());
        assert_eq!(*reply, ["1", "2"]);
        assert_eq!(*store["k"], ["1", "2", "3"]);
        assert!(read_values(&store, "missing").is_empty());
    }

    #[test]
    fn join_values_formats_elle_wire_form() {
        assert_eq!(join_values(&["1".into(), "2".into()]), "1,2");
        assert_eq!(join_values(&[]), "");
    }
}
