//! Shared helpers for the simulated target systems.
//!
//! The models and their clients build some text on every operation: keys,
//! values, history ops, journal lines, block paths. They build it from
//! string pieces and the one integer writer here ([`write_u64`],
//! [`write_hex`]), not through `core::fmt`: the formatter was the largest
//! single slice of a short run's profile. The text is byte for byte what
//! `format!` wrote; the tests below hold each builder to its `format!`
//! original.
//!
//! [`ClosedLoop`] is the workload client of every model but HBase: the
//! retry, timeout and leader policy every history oracle depends on, once.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rand::Rng;
use rose_events::{Errno, NodeId, SimDuration, SyscallId};
use rose_inject::{FaultAction, ScheduledFault};
use rose_sim::{ClientCtx, ClientDriver, ClientId, NodeCtx, OpOutcome};

/// The digits of one `u64`, right-aligned in a stack buffer (20 decimal
/// digits is `u64::MAX`'s length).
struct Digits {
    buf: [u8; 20],
    at: usize,
}

impl Digits {
    fn decimal(n: u64) -> Digits {
        Digits::new(n, 10)
    }

    fn hex(n: u64) -> Digits {
        Digits::new(n, 16)
    }

    #[inline(always)]
    fn new(mut n: u64, radix: u64) -> Digits {
        let mut d = Digits {
            buf: [0; 20],
            at: 20,
        };
        loop {
            d.at -= 1;
            d.buf[d.at] = b"0123456789abcdef"[(n % radix) as usize];
            n /= radix;
            if n == 0 {
                return d;
            }
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.at..]).expect("ASCII digits")
    }
}

/// Writes `n` in decimal: the text `{n}` formats.
pub fn write_u64(out: &mut impl fmt::Write, n: u64) -> fmt::Result {
    out.write_str(Digits::decimal(n).as_str())
}

/// Writes `n` in lower-case hex, without a prefix: the text `{n:x}` formats.
pub fn write_hex(out: &mut impl fmt::Write, n: u64) -> fmt::Result {
    out.write_str(Digits::hex(n).as_str())
}

/// `prefix` followed by `n` in decimal (`format!("{prefix}{n}")`): a key
/// such as `k2`, a path such as `/hbase/proc/7`.
pub fn numbered(prefix: &str, n: u64) -> String {
    [prefix, Digits::decimal(n).as_str()].concat()
}

/// A client's value for its `n`-th write, `{tag}{client}{sep}{n}`: `c3n17`
/// is client 3's 17th append.
pub fn client_value(tag: &str, client: u32, sep: &str, n: u64) -> String {
    let client = Digits::decimal(u64::from(client));
    [tag, client.as_str(), sep, Digits::decimal(n).as_str()].concat()
}

/// The history op of an append, `append k={key} v={val}`.
pub fn append_op(key: &str, val: &str) -> String {
    ["append k=", key, " v=", val].concat()
}

/// The history op of a read, `read k={key}`.
pub fn read_op(key: &str) -> String {
    ["read k=", key].concat()
}

/// Appends the journal record `{n} {key} {val}\n` (a txn-log or oplog
/// line) to `out`.
pub fn push_record(out: &mut String, n: u64, key: &str, val: &str) {
    let _ = write_u64(out, n);
    for piece in [" ", key, " ", val, "\n"] {
        out.push_str(piece);
    }
}

/// Appends the record `{key}={val}\n` (a segment or changelog line) to
/// `out`.
pub fn push_kv_record(out: &mut String, key: &str, val: &str) {
    for piece in [key, "=", val, "\n"] {
        out.push_str(piece);
    }
}

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

/// How often a target model's background loop ([`background_tick`]) runs.
pub const TICK_PERIOD: SimDuration = SimDuration::from_millis(500);

/// One pass of a target model's background loop, run on each
/// [`tags::TICK`] (`on_start` arms the first, [`TICK_PERIOD`] after boot):
/// bumps `tick`, probes the environment the way the runtime does
/// ([`ProbeStyle`]), broadcasts `keepalive` on every `every`-th tick so
/// each link stays visible to the network tap, and re-arms the timer.
pub fn background_tick<M: Clone + fmt::Debug + 'static>(
    ctx: &mut NodeCtx<'_, M>,
    tick: &mut u64,
    style: ProbeStyle,
    every: u64,
    keepalive: M,
) {
    *tick += 1;
    benign_probes(ctx, style, *tick);
    if tick.is_multiple_of(every) {
        ctx.broadcast(keepalive);
    }
    ctx.set_timer(TICK_PERIOD, tags::TICK);
}

/// Emits benign failing system calls; `tick` lets the pattern vary
/// deterministically.
fn benign_probes<M: Clone + fmt::Debug + 'static>(
    ctx: &mut NodeCtx<'_, M>,
    style: ProbeStyle,
    tick: u64,
) {
    match style {
        ProbeStyle::Jvm => {
            let (task, perf) = jvm_probe_paths(tick);
            let _ = ctx.stat(&task);
            let _ = ctx.readlink(&perf);
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

/// The two missing paths a JVM probes at `tick`: a task's `stat` file and
/// a perf-data link.
fn jvm_probe_paths(tick: u64) -> (String, String) {
    let task = Digits::decimal(100 + tick % 7);
    (
        ["/proc/self/task/", task.as_str(), "/stat"].concat(),
        numbered("/tmp/hsperfdata/", tick % 5),
    )
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

/// One fault of a scripted capture: the `nth` `syscall` on `node` (on
/// `path`, when one is named) fails with `errno`.
pub fn scf(
    node: NodeId,
    syscall: SyscallId,
    errno: Errno,
    path: Option<&str>,
    nth: u64,
) -> ScheduledFault {
    ScheduledFault::new(
        node,
        FaultAction::Scf {
            syscall,
            errno,
            path: path.map(str::to_owned),
            nth,
        },
    )
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

/// Where a [`Workload`]'s client sends its writes and reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Always this node.
    Fixed(NodeId),
    /// Write `id` to node `id % n`.
    Spread(u32),
    /// The leader, starting at node 0: learned from each ack and redirect,
    /// and the next node once the client gives up on a write.
    LeaderNextOnGiveUp,
    /// The same, except that the client moves to the next node on each
    /// retry instead.
    LeaderNextOnRetry,
}

/// What a reply means to the [`ClosedLoop`].
#[derive(Debug)]
pub enum Reply {
    /// The write with this op id was applied.
    Ack(u64),
    /// A read was answered: the history op it records and the value read.
    Read(String, Option<String>),
    /// Not the leader; the leader, if the node knows it.
    Redirect(Option<NodeId>),
    /// Nothing the loop acts on.
    Other,
}

/// One system's side of the closed-loop workload: what its client writes
/// and reads, and what it makes of a reply. [`ClosedLoop`] runs it.
pub trait Workload: 'static {
    /// The system's message type.
    type Msg: Clone + fmt::Debug + 'static;
    /// How often the client expires, retries or issues a write.
    const WRITE_PERIOD: SimDuration;
    /// How often the client reads, if it reads.
    const READ_PERIOD: Option<SimDuration>;
    /// How long one send of a write waits for its ack, in µs.
    const TIMEOUT_US: u64;
    /// Each send also waits a uniform draw below this many µs (0: no draw).
    const JITTER_US: u64 = 0;
    /// Sends of one write before the client records a `Timeout`.
    const SENDS: u32;
    /// Where writes and reads go.
    const ROUTE: Route;
    /// Whether a redirect that names the leader resends the write in flight.
    const RESEND_ON_REDIRECT: bool = false;

    /// `client`'s `n`-th write: its history op, its op id and its message.
    fn write(&mut self, client: ClientId, n: u64) -> (String, u64, Self::Msg);

    /// The message that sends write `n` again: by default the write's own.
    fn resend(&mut self, client: ClientId, n: u64) -> Self::Msg {
        self.write(client, n).2
    }

    /// The periodic read, sent to `node`.
    fn read(&mut self, ctx: &mut ClientCtx<'_, Self::Msg>, node: NodeId) {
        let _ = (ctx, node);
    }

    /// Classifies a reply. A read the workload tracks itself completes
    /// here and is [`Reply::Other`] to the loop.
    fn classify(&mut self, ctx: &mut ClientCtx<'_, Self::Msg>, msg: Self::Msg) -> Reply;
}

/// The op id of `client`'s `n`-th write where several clients write: the
/// client in the high 32 bits.
pub fn client_op_id(client: ClientId, n: u64) -> u64 {
    (u64::from(client.0) << 32) | n
}

/// The key a periodic read asks for: `prefix` and a uniform draw of 0..3.
pub fn read_key(
    ctx: &mut ClientCtx<'_, impl Clone + fmt::Debug + 'static>,
    prefix: &str,
) -> String {
    numbered(prefix, u64::from(ctx.rng().gen_range(0..3u32)))
}

/// The write in flight.
struct InFlight {
    hidx: usize,
    id: u64,
    deadline_us: u64,
    sends: u32,
}

/// The Jepsen-style closed-loop client of every target model but HBase:
/// one write in flight, retried with the same op id until the workload's
/// send count runs out, and a periodic read.
pub struct ClosedLoop<W> {
    workload: W,
    /// Writes issued; the one in flight is the latest.
    issued: u64,
    /// The node writes and reads go to.
    node: NodeId,
    outstanding: Option<InFlight>,
    /// Writes acknowledged.
    pub acked: u64,
}

impl<W: Workload + Default> ClosedLoop<W> {
    /// A fresh client.
    pub fn new() -> Self {
        ClosedLoop {
            workload: W::default(),
            issued: 0,
            node: match W::ROUTE {
                Route::Fixed(node) => node,
                _ => NodeId(0),
            },
            outstanding: None,
            acked: 0,
        }
    }
}

impl<W: Workload + Default> Default for ClosedLoop<W> {
    fn default() -> Self {
        ClosedLoop::new()
    }
}

impl<W: Workload> ClosedLoop<W> {
    fn deadline(ctx: &mut ClientCtx<'_, W::Msg>, now: u64) -> u64 {
        let jitter = match W::JITTER_US {
            0 => 0,
            bound => ctx.rng().gen_range(0..bound),
        };
        now + W::TIMEOUT_US + jitter
    }

    fn target(&self, id: u64) -> NodeId {
        match W::ROUTE {
            Route::Spread(n) => NodeId((id % u64::from(n)) as u32),
            _ => self.node,
        }
    }

    fn next_node(&mut self, ctx: &ClientCtx<'_, W::Msg>, after: NodeId) {
        self.node = NodeId((after.0 + 1) % ctx.cluster_size());
    }

    /// Expires, retries or gives up on the write in flight, then issues the
    /// next write if none is in flight.
    fn write_tick(&mut self, ctx: &mut ClientCtx<'_, W::Msg>) {
        let now = ctx.now().as_micros();
        if let Some(mut op) = self.outstanding.take() {
            if now <= op.deadline_us {
                self.outstanding = Some(op);
            } else if op.sends < W::SENDS {
                op.sends += 1;
                if W::ROUTE == Route::LeaderNextOnRetry {
                    self.next_node(ctx, self.node);
                }
                let msg = self.workload.resend(ctx.id(), self.issued);
                op.deadline_us = Self::deadline(ctx, now);
                ctx.send(self.target(op.id), msg);
                self.outstanding = Some(op);
            } else {
                ctx.complete(op.hidx, OpOutcome::Timeout);
                if W::ROUTE == Route::LeaderNextOnGiveUp {
                    self.next_node(ctx, self.node);
                }
            }
        }
        if self.outstanding.is_none() {
            self.issued += 1;
            let (op, id, msg) = self.workload.write(ctx.id(), self.issued);
            let hidx = ctx.invoke(op);
            let deadline_us = Self::deadline(ctx, now);
            ctx.send(self.target(id), msg);
            self.outstanding = Some(InFlight {
                hidx,
                id,
                deadline_us,
                sends: 1,
            });
        }
    }
}

impl<W: Workload> ClientDriver<W::Msg> for ClosedLoop<W> {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, W::Msg>) {
        ctx.set_timer(W::WRITE_PERIOD, tags::CLIENT_OP);
        if let Some(period) = W::READ_PERIOD {
            ctx.set_timer(period, tags::CLIENT_READ);
        }
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_, W::Msg>, tag: u64) {
        match (tag, W::READ_PERIOD) {
            (tags::CLIENT_OP, _) => {
                self.write_tick(ctx);
                ctx.set_timer(W::WRITE_PERIOD, tags::CLIENT_OP);
            }
            (tags::CLIENT_READ, Some(period)) => {
                self.workload.read(ctx, self.node);
                ctx.set_timer(period, tags::CLIENT_READ);
            }
            _ => {}
        }
    }

    fn on_reply(&mut self, ctx: &mut ClientCtx<'_, W::Msg>, from: NodeId, msg: W::Msg) {
        let follows_leader = matches!(
            W::ROUTE,
            Route::LeaderNextOnGiveUp | Route::LeaderNextOnRetry
        );
        match self.workload.classify(ctx, msg) {
            Reply::Ack(id) => {
                if let Some(op) = self.outstanding.take_if(|op| op.id == id) {
                    ctx.complete(op.hidx, OpOutcome::Ok(None));
                    self.acked += 1;
                    if follows_leader {
                        self.node = from;
                    }
                }
            }
            Reply::Read(op, value) => {
                let hidx = ctx.invoke(op);
                ctx.complete(hidx, OpOutcome::Ok(value));
            }
            Reply::Redirect(Some(leader)) => {
                self.node = leader;
                if W::RESEND_ON_REDIRECT && self.outstanding.is_some() {
                    let msg = self.workload.resend(ctx.id(), self.issued);
                    ctx.send(leader, msg);
                }
            }
            Reply::Redirect(None) => self.next_node(ctx, from),
            Reply::Other => {}
        }
    }
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

/// The per-operation text as the models used to build it, through
/// `format!`: the reference the tests hold the builders to.
#[cfg(test)]
pub(crate) mod reference {
    pub(crate) fn numbered(prefix: &str, n: u64) -> String {
        format!("{prefix}{n}")
    }

    pub(crate) fn client_value(tag: &str, client: u32, sep: &str, n: u64) -> String {
        format!("{tag}{client}{sep}{n}")
    }

    pub(crate) fn append_op(key: &str, val: &str) -> String {
        format!("append k={key} v={val}")
    }

    pub(crate) fn read_op(key: &str) -> String {
        format!("read k={key}")
    }

    pub(crate) fn record(n: u64, key: &str, val: &str) -> String {
        format!("{n} {key} {val}\n")
    }

    pub(crate) fn kv_record(key: &str, val: &str) -> String {
        format!("{key}={val}\n")
    }

    pub(crate) fn jvm_probe_paths(tick: u64) -> (String, String) {
        (
            format!("/proc/self/task/{}/stat", 100 + tick % 7),
            format!("/tmp/hsperfdata/{}", tick % 5),
        )
    }

    /// The numbers where a digit writer goes wrong if it does: 0, every
    /// power of ten and its neighbours, and the ends of `u32` and `u64`.
    pub(crate) fn edge_u64s() -> Vec<u64> {
        let mut ns = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        let mut power = 1u64;
        loop {
            ns.extend([power - 1, power, power + 1]);
            match power.checked_mul(10) {
                Some(next) => power = next,
                None => return ns,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rose_events::{IpAddr, SimTime, SyscallId};
    use rose_sim::{
        Application, ChainId, HookEffects, HookEnv, KernelHook, Sim, SimConfig, SyscallArgs,
    };

    fn written(n: u64) -> (String, String) {
        let (mut dec, mut hex) = (String::from("x"), String::from("x"));
        write_u64(&mut dec, n).unwrap();
        write_hex(&mut hex, n).unwrap();
        (dec, hex)
    }

    #[test]
    fn the_writer_prints_the_formatters_digits_at_the_edges() {
        for n in reference::edge_u64s() {
            assert_eq!(written(n), (format!("x{n}"), format!("x{n:x}")));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn the_writer_prints_the_formatters_digits(n in any::<u64>(), shift in 0..64u32) {
            for n in [n, n >> shift] {
                let (dec, hex) = written(n);
                prop_assert_eq!(dec, format!("x{n}"));
                prop_assert_eq!(hex, format!("x{n:x}"));
            }
        }
    }

    #[test]
    fn the_text_builders_write_the_format_text() {
        for n in reference::edge_u64s().into_iter().chain(0..1_000) {
            assert_eq!(numbered("k", n), reference::numbered("k", n));
            assert_eq!(numbered("", n), reference::numbered("", n));
            let client = n as u32;
            let value = client_value("c", client, "n", n);
            assert_eq!(value, reference::client_value("c", client, "n", n));
            let key = numbered("z", n % 3);
            assert_eq!(append_op(&key, &value), reference::append_op(&key, &value));
            assert_eq!(read_op(&key), reference::read_op(&key));
            let mut line = String::from("kept\n");
            push_record(&mut line, n, &key, &value);
            assert_eq!(
                line,
                ["kept\n", &reference::record(n, &key, &value)].concat()
            );
            line.clear();
            push_kv_record(&mut line, &key, &value);
            assert_eq!(line, reference::kv_record(&key, &value));
            assert_eq!(jvm_probe_paths(n), reference::jvm_probe_paths(n));
        }
        assert_eq!(append_op("", ""), reference::append_op("", ""));
    }

    /// The keepalive period of the loop under test, in passes.
    const EVERY: u64 = 4;

    /// A node that runs only the background loop and logs `(now, node,
    /// tick)` after each pass, and `(now, node, 0)` at each start.
    struct Looper {
        style: ProbeStyle,
        tick: u64,
        log: Rc<RefCell<Vec<(SimTime, NodeId, u64)>>>,
    }

    #[derive(Clone, Debug)]
    struct Keepalive;

    impl Application for Looper {
        type Msg = Keepalive;

        fn on_start(&mut self, ctx: &mut NodeCtx<'_, Keepalive>) {
            self.log.borrow_mut().push((ctx.now(), ctx.node(), 0));
            ctx.set_timer(TICK_PERIOD, tags::TICK);
        }

        fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Keepalive>, tag: u64) {
            assert_eq!(tag, tags::TICK);
            background_tick(ctx, &mut self.tick, self.style, EVERY, Keepalive);
            self.log
                .borrow_mut()
                .push((ctx.now(), ctx.node(), self.tick));
        }

        fn on_message(&mut self, _: &mut NodeCtx<'_, Keepalive>, _: NodeId, _: Keepalive) {}
    }

    /// One probe or send: when, where, the call, its path or peer, and
    /// whether it fired outside every instrumented function.
    type Call = (
        SimTime,
        NodeId,
        SyscallId,
        Option<String>,
        Option<IpAddr>,
        bool,
    );

    /// Records every probe and send the cluster makes.
    #[derive(Default)]
    struct Recorder(Vec<Call>);

    impl KernelHook for Recorder {
        fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, _: &mut HookEffects) {
            if matches!(
                args.call,
                SyscallId::Stat | SyscallId::Readlink | SyscallId::Send
            ) {
                self.0.push((
                    env.now,
                    env.node,
                    args.call,
                    args.path.map(str::to_string),
                    args.peer,
                    env.chain == ChainId::ROOT,
                ));
            }
        }
    }

    /// What `node`'s loop calls on its `tick`-th pass, at `now`: its
    /// style's probes, then on every [`EVERY`]-th pass a keepalive to each
    /// peer of the three.
    fn expected_pass(now: SimTime, node: NodeId, style: ProbeStyle, tick: u64) -> Vec<Call> {
        let at = |call, path: &str| (now, node, call, Some(path.to_string()), None, true);
        let mut calls = Vec::new();
        match style {
            ProbeStyle::Jvm => {
                let (task, perf) = reference::jvm_probe_paths(tick);
                calls.push(at(SyscallId::Stat, &task));
                calls.push(at(SyscallId::Readlink, &perf));
                if tick.is_multiple_of(3) {
                    calls.push(at(SyscallId::Stat, "/etc/jvm.options"));
                }
            }
            ProbeStyle::Native => {
                if tick.is_multiple_of(5) {
                    calls.push(at(SyscallId::Stat, "/etc/app.local.conf"));
                }
            }
        }
        if tick.is_multiple_of(EVERY) {
            for peer in (0..3).map(NodeId).filter(|&p| p != node) {
                calls.push((now, node, SyscallId::Send, None, Some(peer.ip()), true));
            }
        }
        calls
    }

    #[test]
    fn the_background_loop_probes_every_pass_and_keeps_alive_every_nth() {
        let style = |n: NodeId| match n.0 {
            0 => ProbeStyle::Native,
            _ => ProbeStyle::Jvm,
        };
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::new(3, 7), {
            let log = log.clone();
            move |n| Looper {
                style: style(n),
                tick: 0,
                log: log.clone(),
            }
        });
        sim.add_hook(Box::<Recorder>::default());
        sim.start();
        sim.run_for(SimDuration::from_millis(3_200));
        sim.inject_crash(NodeId(1));
        sim.run_for(SimDuration::from_millis(8_800));

        let log = log.take();
        // Every pass probes and sends exactly what its tick calls for, at
        // the root calling context, and nothing else probes or sends.
        let mut expected = Vec::new();
        for &(now, node, tick) in log.iter().filter(|(_, _, tick)| *tick > 0) {
            expected.extend(expected_pass(now, node, style(node), tick));
        }
        let recorded = &sim.hook_ref::<Recorder>().expect("attached").0;
        assert_eq!(*recorded, expected);
        assert!(recorded.iter().any(|c| c.2 == SyscallId::Send));
        // Each start arms the first pass a period later, each pass the
        // next; a restarted node counts from 1 again.
        let mut starts = [0; 3];
        for n in (0..3).map(NodeId) {
            let mine: Vec<_> = log.iter().filter(|(_, node, _)| *node == n).collect();
            for pair in mine.windows(2) {
                let ((before, _, t0), (after, _, t1)) = (pair[0], pair[1]);
                if *t1 == 0 {
                    starts[n.0 as usize] += 1;
                    continue;
                }
                assert_eq!((*t1, *after), (t0 + 1, *before + TICK_PERIOD), "{n}");
            }
        }
        assert_eq!(starts, [0, 1, 0], "only node 1 restarted");
        let node1: Vec<u64> = log
            .iter()
            .filter(|e| e.1 == NodeId(1))
            .map(|e| e.2)
            .collect();
        let restart = node1.iter().rposition(|&t| t == 0).unwrap();
        assert_eq!(&node1[..restart], [0, 1, 2, 3, 4, 5, 6]);
        assert!(node1.len() > restart + 5, "{node1:?}");
    }

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
