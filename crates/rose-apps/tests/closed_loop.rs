//! The shared closed-loop client at its edges, for each of the eight
//! workloads it runs, against scripted nodes that never run the system.

use std::sync::Arc;

use rose_apps::common::{ClosedLoop, Workload};
use rose_apps::hdfs::{HdfsWorkload, Hmsg};
use rose_apps::kafka::{KafkaWorkload, Kmsg};
use rose_apps::mongodb::{Mmsg, MongoWorkload};
use rose_apps::raft::client::KvWorkload;
use rose_apps::raft::RaftMsg;
use rose_apps::redisraft::{AppendWorkload, Rmsg};
use rose_apps::redpanda::{Pmsg, RedpandaWorkload};
use rose_apps::tendermint::{Tmsg, TxWorkload};
use rose_apps::zookeeper::{ZkWorkload, Zmsg};
use rose_events::{NodeId, SimDuration};
use rose_sim::{Application, ClientId, NodeCtx, OpOutcome, Sim, SimConfig};

/// How the tests speak one workload's messages.
trait Spoken: Workload + Default {
    /// The op id of a write request; `None` for anything else.
    fn write_id(msg: &Self::Msg) -> Option<u64>;
    /// The ack of write `id`.
    fn ack(id: u64) -> Self::Msg;
    /// A redirect that names `leader`, where the system has one.
    fn redirect(_leader: NodeId) -> Option<Self::Msg> {
        None
    }
    /// Whether such a redirect resends the write in flight: MongoDB and
    /// both Raft clients do, ZooKeeper does not.
    const RESENDS_ON_REDIRECT: bool = false;
    /// The answer to a read request, with the history op and the value the
    /// client must record for it.
    fn answer(_req: &Self::Msg) -> Option<(Self::Msg, String, Option<String>)> {
        None
    }
    /// The nodes a silent cluster sees the first write's sends at, then the
    /// second write's first send.
    const FIRST_SENDS_AT: &'static [u32];
}

fn values(text: &str) -> Arc<Vec<String>> {
    Arc::new(text.split(',').map(str::to_string).collect())
}

impl Spoken for KafkaWorkload {
    fn write_id(msg: &Kmsg) -> Option<u64> {
        match msg {
            Kmsg::Update { id, .. } => Some(*id),
            _ => None,
        }
    }
    fn ack(id: u64) -> Kmsg {
        Kmsg::UpdateOk { id }
    }
    fn answer(req: &Kmsg) -> Option<(Kmsg, String, Option<String>)> {
        let Kmsg::Read { key } = req else { return None };
        let val = Some("v7".to_string());
        let reply = Kmsg::ReadOk {
            key: key.clone(),
            val: val.clone(),
        };
        Some((reply, format!("view {key}"), val))
    }
    const FIRST_SENDS_AT: &'static [u32] = &[0, 0];
}

impl Spoken for RedpandaWorkload {
    fn write_id(msg: &Pmsg) -> Option<u64> {
        match msg {
            Pmsg::Produce { seq, .. } => Some(*seq),
            _ => None,
        }
    }
    fn ack(seq: u64) -> Pmsg {
        Pmsg::ProduceOk { seq }
    }
    fn answer(req: &Pmsg) -> Option<(Pmsg, String, Option<String>)> {
        let Pmsg::Consume { key } = req else {
            return None;
        };
        let reply = Pmsg::ConsumeOk {
            key: key.clone(),
            values: values("a,b"),
        };
        Some((reply, format!("read k={key}"), Some("a,b".into())))
    }
    const FIRST_SENDS_AT: &'static [u32] = &[0, 0, 0, 0, 0];
}

impl Spoken for MongoWorkload {
    fn write_id(msg: &Mmsg) -> Option<u64> {
        match msg {
            Mmsg::Insert { id, .. } => Some(*id),
            _ => None,
        }
    }
    fn ack(id: u64) -> Mmsg {
        Mmsg::InsertOk { id }
    }
    const RESENDS_ON_REDIRECT: bool = true;
    fn redirect(leader: NodeId) -> Option<Mmsg> {
        Some(Mmsg::NotPrimary {
            primary: Some(leader),
        })
    }
    fn answer(req: &Mmsg) -> Option<(Mmsg, String, Option<String>)> {
        let Mmsg::Find { key } = req else { return None };
        let reply = Mmsg::FindOk {
            key: key.clone(),
            values: values("a,b"),
        };
        Some((reply, format!("read k={key}"), Some("a,b".into())))
    }
    const FIRST_SENDS_AT: &'static [u32] = &[0, 1];
}

impl Spoken for ZkWorkload {
    fn write_id(msg: &Zmsg) -> Option<u64> {
        match msg {
            Zmsg::Create { id, .. } => Some(*id),
            _ => None,
        }
    }
    fn ack(id: u64) -> Zmsg {
        Zmsg::CreateOk { id }
    }
    fn redirect(leader: NodeId) -> Option<Zmsg> {
        Some(Zmsg::Redirect {
            leader: Some(leader),
        })
    }
    fn answer(req: &Zmsg) -> Option<(Zmsg, String, Option<String>)> {
        let Zmsg::Read { key } = req else { return None };
        let reply = Zmsg::ReadOk {
            key: key.clone(),
            values: values("a,b"),
        };
        Some((reply, format!("read k={key}"), Some("a,b".into())))
    }
    const FIRST_SENDS_AT: &'static [u32] = &[0, 1];
}

impl Spoken for HdfsWorkload {
    fn write_id(msg: &Hmsg) -> Option<u64> {
        match msg {
            Hmsg::Write { id, .. } => Some(*id),
            _ => None,
        }
    }
    fn ack(id: u64) -> Hmsg {
        Hmsg::WriteOk { id }
    }
    fn answer(req: &Hmsg) -> Option<(Hmsg, String, Option<String>)> {
        let Hmsg::Read { file } = req else {
            return None;
        };
        let reply = Hmsg::ReadOk {
            file: file.clone(),
            values: "a,b".into(),
        };
        Some((reply, format!("read k={file}"), Some("a,b".into())))
    }
    const FIRST_SENDS_AT: &'static [u32] = &[0, 0];
}

impl Spoken for TxWorkload {
    fn write_id(msg: &Tmsg) -> Option<u64> {
        match msg {
            Tmsg::Tx { id, .. } => Some(*id),
            _ => None,
        }
    }
    fn ack(id: u64) -> Tmsg {
        Tmsg::TxOk { id }
    }
    // Transaction `id` goes to validator `id % 3`.
    const FIRST_SENDS_AT: &'static [u32] = &[1, 2];
}

impl Spoken for AppendWorkload {
    fn write_id(msg: &Rmsg) -> Option<u64> {
        match msg {
            Rmsg::Put { id, .. } => Some(*id),
            _ => None,
        }
    }
    fn ack(id: u64) -> Rmsg {
        Rmsg::PutOk { id }
    }
    const RESENDS_ON_REDIRECT: bool = true;
    fn redirect(leader: NodeId) -> Option<Rmsg> {
        Some(Rmsg::Redirect {
            leader: Some(leader),
        })
    }
    fn answer(req: &Rmsg) -> Option<(Rmsg, String, Option<String>)> {
        let Rmsg::Get { key } = req else { return None };
        let reply = Rmsg::GetOk {
            key: key.clone(),
            values: values("a,b"),
        };
        Some((reply, format!("read k={key}"), Some("a,b".into())))
    }
    const FIRST_SENDS_AT: &'static [u32] = &[0, 1, 2, 3, 3];
}

impl Spoken for KvWorkload {
    fn write_id(msg: &RaftMsg) -> Option<u64> {
        match msg {
            RaftMsg::Put { id, .. } => Some(*id),
            _ => None,
        }
    }
    fn ack(id: u64) -> RaftMsg {
        RaftMsg::PutOk { id }
    }
    const RESENDS_ON_REDIRECT: bool = true;
    fn redirect(leader: NodeId) -> Option<RaftMsg> {
        Some(RaftMsg::Redirect {
            leader: Some(leader),
        })
    }
    fn answer(req: &RaftMsg) -> Option<(RaftMsg, String, Option<String>)> {
        let RaftMsg::Get { key } = req else {
            return None;
        };
        let reply = RaftMsg::GetOk {
            key: key.clone(),
            val: Some(42),
        };
        Some((reply, format!("read k={key}"), Some("42".into())))
    }
    const FIRST_SENDS_AT: &'static [u32] = &[0, 1, 2, 3, 3];
}

/// What every scripted node does with a client's request.
#[derive(Clone, Copy)]
enum Script {
    /// Answers nothing.
    Silent,
    /// Acks each write with the op id before its own.
    StaleAck,
    /// Node 0 redirects each write to this node; the others are silent.
    Redirect(NodeId),
    /// Answers each read; silent on writes.
    AnswerReads,
}

/// A node that records every client request and answers as its script says.
struct Scripted<W: Spoken> {
    script: Script,
    /// Every client request, with the µs it arrived at.
    seen: Vec<(u64, W::Msg)>,
}

impl<W: Spoken> Application for Scripted<W> {
    type Msg = W::Msg;

    fn on_start(&mut self, _ctx: &mut NodeCtx<'_, W::Msg>) {}

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, W::Msg>, _from: NodeId, _msg: W::Msg) {}

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, W::Msg>, _tag: u64) {}

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, W::Msg>, client: ClientId, req: W::Msg) {
        let reply = match (self.script, W::write_id(&req)) {
            (Script::StaleAck, Some(id)) => Some(W::ack(id - 1)),
            (Script::Redirect(leader), Some(_)) if ctx.node() == NodeId(0) => W::redirect(leader),
            (Script::AnswerReads, None) => W::answer(&req).map(|(reply, ..)| reply),
            _ => None,
        };
        if let Some(reply) = reply {
            let _ = ctx.reply(client, reply);
        }
        self.seen.push((ctx.now().as_micros(), req));
    }
}

/// One client of `W` against five scripted nodes, run for `run`.
fn run<W: Spoken>(script: Script, run: SimDuration) -> Sim<Scripted<W>> {
    let mut sim = Sim::new(SimConfig::new(5, 1), move |_| Scripted::<W> {
        script,
        seen: Vec::new(),
    });
    sim.add_client(Box::new(ClosedLoop::<W>::new()));
    sim.start();
    sim.run_for(run);
    sim
}

/// Every request the nodes saw, in arrival order: (µs, node, request).
fn requests<W: Spoken>(sim: &Sim<Scripted<W>>) -> Vec<(u64, u32, W::Msg)> {
    let mut all: Vec<_> = (0..5)
        .flat_map(|n| {
            let seen = &sim.app(NodeId(n)).expect("nodes never crash here").seen;
            seen.iter().map(move |(at, msg)| (*at, n, msg.clone()))
        })
        .collect();
    all.sort_by_key(|(at, n, _)| (*at, *n));
    all
}

/// The writes the nodes saw, in arrival order: (µs, node, op id).
fn writes<W: Spoken>(sim: &Sim<Scripted<W>>) -> Vec<(u64, u32, u64)> {
    requests(sim)
        .into_iter()
        .filter_map(|(at, n, msg)| W::write_id(&msg).map(|id| (at, n, id)))
        .collect()
}

fn client<W: Spoken>(sim: &Sim<Scripted<W>>) -> &ClosedLoop<W> {
    sim.client_ref(ClientId(0)).expect("one client")
}

macro_rules! for_each_workload {
    ($check:ident) => {
        $check::<KafkaWorkload>();
        $check::<RedpandaWorkload>();
        $check::<MongoWorkload>();
        $check::<ZkWorkload>();
        $check::<HdfsWorkload>();
        $check::<TxWorkload>();
        $check::<AppendWorkload>();
        $check::<KvWorkload>();
    };
}

fn silent_cluster_sees_the_send_count_then_one_timeout<W: Spoken>() {
    let name = std::any::type_name::<W>();
    let give_up = u64::from(W::SENDS) * (W::TIMEOUT_US + W::JITTER_US);
    let sim = run::<W>(
        Script::Silent,
        SimDuration::from_micros(give_up + 2_000_000),
    );
    let writes = writes(&sim);
    let sends = W::SENDS as usize;
    assert_eq!(W::FIRST_SENDS_AT.len(), sends + 1, "{name}");
    let first = writes[0].2;
    assert!(
        writes[..sends].iter().all(|w| w.2 == first),
        "{name}: {writes:?}"
    );
    assert_ne!(writes[sends].2, first, "{name}: one send too many");
    let nodes: Vec<u32> = writes[..=sends].iter().map(|w| w.1).collect();
    assert_eq!(nodes, W::FIRST_SENDS_AT, "{name}");

    let history = sim.core().history.ops();
    let timed_out = &history[0];
    assert_eq!(timed_out.outcome, OpOutcome::Timeout, "{name}");
    let gave_up = timed_out.completed.expect("the first write was given up");
    assert!(writes[sends - 1].0 < gave_up.as_micros(), "{name}");
    assert!(gave_up.as_micros() <= writes[sends].0, "{name}");
    assert_eq!(client(&sim).acked, 0, "{name}");
}

#[test]
fn a_silent_cluster_sees_the_send_count_then_one_timeout() {
    for_each_workload!(silent_cluster_sees_the_send_count_then_one_timeout);
}

fn a_stale_ack_completes_nothing<W: Spoken>() {
    let name = std::any::type_name::<W>();
    let sim = run::<W>(Script::StaleAck, SimDuration::from_secs(10));
    assert!(writes(&sim).len() > 1, "{name}");
    assert_eq!(client(&sim).acked, 0, "{name}");
    let history = sim.core().history.ops();
    assert!(
        history.iter().all(|op| op.outcome == OpOutcome::Timeout),
        "{name}: {history:?}"
    );
}

#[test]
fn an_ack_with_a_stale_id_completes_nothing() {
    for_each_workload!(a_stale_ack_completes_nothing);
}

fn a_redirect_hint_resends_as_the_workload_says<W: Spoken>() {
    let name = std::any::type_name::<W>();
    let Some(_) = W::redirect(NodeId(3)) else {
        return;
    };
    // Well inside the first write's timeout.
    let sim = run::<W>(Script::Redirect(NodeId(3)), SimDuration::from_millis(1_000));
    let writes = writes(&sim);
    let first = writes[0];
    let want = 1 + usize::from(W::RESENDS_ON_REDIRECT);
    assert_eq!((first.1, writes.len()), (0, want), "{name}: {writes:?}");
    if W::RESENDS_ON_REDIRECT {
        assert_eq!((writes[1].1, writes[1].2), (3, first.2), "{name}");
    }
}

#[test]
fn a_redirect_hint_resends_or_not_as_the_workload_says() {
    for_each_workload!(a_redirect_hint_resends_as_the_workload_says);
}

fn a_read_reply_records_the_op_and_value<W: Spoken>() {
    let name = std::any::type_name::<W>();
    let sim = run::<W>(Script::AnswerReads, SimDuration::from_secs(5));
    let want: Vec<(String, OpOutcome)> = requests(&sim)
        .iter()
        .filter_map(|(_, _, req)| W::answer(req))
        .map(|(_, op, value)| (op, OpOutcome::Ok(value)))
        .collect();
    let got: Vec<(String, OpOutcome)> = sim
        .core()
        .history
        .ops()
        .iter()
        .filter(|op| op.completed.is_some() && op.outcome != OpOutcome::Timeout)
        .map(|op| (op.op.clone(), op.outcome.clone()))
        .collect();
    assert_eq!(got, want, "{name}");
    assert_eq!(want.is_empty(), W::READ_PERIOD.is_none(), "{name}");
}

#[test]
fn a_read_reply_records_the_workloads_op_and_value() {
    for_each_workload!(a_read_reply_records_the_op_and_value);
}

#[test]
fn a_redpanda_retry_reconnects_with_a_fresh_session() {
    let sim = run::<RedpandaWorkload>(Script::Silent, SimDuration::from_secs(25));
    let sessions: Vec<(u64, u64)> = requests(&sim)
        .into_iter()
        .filter_map(|(_, _, msg)| match msg {
            Pmsg::Produce { seq, session, .. } => Some((seq, session)),
            _ => None,
        })
        .take(5)
        .collect();
    assert_eq!(sessions, [(1, 1), (1, 2), (1, 3), (1, 4), (2, 4)]);
}
