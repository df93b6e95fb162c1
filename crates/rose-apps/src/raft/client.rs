//! Workload drivers: closed-loop KV clients and a membership admin.

use rose_events::{NodeId, SimDuration};
use rose_sim::{ClientCtx, ClientDriver, ClientId};

use super::node::RaftMsg;
use crate::common::{
    client_op_id, numbered, read_key, read_op, write_u64, ClosedLoop, Reply, Route, Workload,
};

/// Timer tag: the admin issues the next membership target.
const ADMIN_ISSUE: u64 = 40;
/// Timer tag: the admin retries an unacknowledged request.
const ADMIN_RETRY: u64 = 41;

/// A closed-loop put/read workload. A timed-out write is retried **with
/// the same operation id** against the next node (idempotent retry), so
/// duplicate delivery never double-applies.
#[derive(Default)]
pub struct KvWorkload;

/// The RoseRaft client.
pub type KvClient = ClosedLoop<KvWorkload>;

/// The history op of a write, `put k={key} v={val}`.
fn put_op(key: &str, val: u64) -> String {
    // The pieces are 9 bytes, and a `u64` is at most 20 digits.
    let mut op = String::with_capacity(key.len() + 29);
    for piece in ["put k=", key, " v="] {
        op.push_str(piece);
    }
    let _ = write_u64(&mut op, val);
    op
}

impl Workload for KvWorkload {
    type Msg = RaftMsg;
    const WRITE_PERIOD: SimDuration = SimDuration::from_millis(40);
    const READ_PERIOD: Option<SimDuration> = Some(SimDuration::from_millis(700));
    const TIMEOUT_US: u64 = 1_200_000;
    const SENDS: u32 = 4;
    const ROUTE: Route = Route::LeaderNextOnRetry;
    const RESEND_ON_REDIRECT: bool = true;

    /// The value written is the op id itself.
    fn write(&mut self, client: ClientId, n: u64) -> (String, u64, RaftMsg) {
        let key = numbered("k", n % 3);
        let val = client_op_id(client, n);
        (put_op(&key, val), val, RaftMsg::Put { key, val, id: val })
    }

    fn read(&mut self, ctx: &mut ClientCtx<'_, RaftMsg>, node: NodeId) {
        let key = read_key(ctx, "k");
        ctx.send(node, RaftMsg::Get { key });
    }

    fn classify(&mut self, _ctx: &mut ClientCtx<'_, RaftMsg>, msg: RaftMsg) -> Reply {
        match msg {
            RaftMsg::PutOk { id } => Reply::Ack(id),
            RaftMsg::GetOk { key, val } => Reply::Read(read_op(&key), val.map(|v| numbered("", v))),
            RaftMsg::Redirect { leader } => Reply::Redirect(leader),
            _ => Reply::Other,
        }
    }
}

/// A membership administrator: on a fixed cadence it alternates between
/// shrinking the cluster to `{0, 1, 2}` and growing it back to all five
/// nodes, retrying across nodes until a leader accepts. The cadence is
/// timer-driven (not acceptance-driven) so replays see identical request
/// timing.
pub struct ReconfigAdmin {
    target_small: bool,
    node: NodeId,
    awaiting: Option<Vec<u32>>,
    /// Accepted reconfigurations.
    pub accepted: u64,
}

impl ReconfigAdmin {
    /// A fresh admin.
    pub fn new() -> Self {
        ReconfigAdmin {
            target_small: true,
            node: NodeId(0),
            awaiting: None,
            accepted: 0,
        }
    }

    fn issue(&mut self, ctx: &mut ClientCtx<'_, RaftMsg>) {
        let voters: Vec<u32> = if self.target_small {
            vec![0, 1, 2]
        } else {
            (0..ctx.cluster_size()).collect()
        };
        self.awaiting = Some(voters.clone());
        ctx.log(format!(
            "admin: reconfig target={voters:?} via node {}",
            self.node.0
        ));
        ctx.send(self.node, RaftMsg::Reconfig { voters });
        ctx.set_timer(SimDuration::from_millis(1_500), ADMIN_RETRY);
    }
}

impl Default for ReconfigAdmin {
    fn default() -> Self {
        ReconfigAdmin::new()
    }
}

impl ClientDriver<RaftMsg> for ReconfigAdmin {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, RaftMsg>) {
        ctx.set_timer(SimDuration::from_secs(6), ADMIN_ISSUE);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_, RaftMsg>, tag: u64) {
        match tag {
            ADMIN_ISSUE => {
                self.issue(ctx);
                ctx.set_timer(SimDuration::from_secs(12), ADMIN_ISSUE);
            }
            ADMIN_RETRY => {
                if let Some(voters) = self.awaiting.clone() {
                    let n = ctx.cluster_size();
                    self.node = NodeId((self.node.0 + 1) % n);
                    ctx.send(self.node, RaftMsg::Reconfig { voters });
                    ctx.set_timer(SimDuration::from_millis(1_500), ADMIN_RETRY);
                }
            }
            _ => {}
        }
    }

    fn on_reply(&mut self, ctx: &mut ClientCtx<'_, RaftMsg>, from: NodeId, msg: RaftMsg) {
        match msg {
            RaftMsg::ReconfigOk { accepted } => {
                if accepted {
                    self.accepted += 1;
                    self.target_small = !self.target_small;
                    self.awaiting = None;
                    self.node = from;
                }
                // Rejected (a change already in flight, or a no-op): drop
                // this attempt and wait for the next cadence slot.
                if !accepted {
                    self.awaiting = None;
                }
            }
            RaftMsg::Redirect { leader } => {
                if let Some(voters) = self.awaiting.clone() {
                    if let Some(l) = leader {
                        self.node = l;
                        ctx.send(l, RaftMsg::Reconfig { voters });
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::reference::edge_u64s;

    #[test]
    fn a_put_op_is_the_format_text() {
        for val in edge_u64s() {
            assert_eq!(put_op("k2", val), format!("put k=k2 v={val}"));
            assert_eq!(numbered("", val), val.to_string());
        }
    }
}
