//! Workload drivers: closed-loop KV clients and a membership admin.

use rand::Rng;
use rose_events::{NodeId, SimDuration};
use rose_sim::{ClientCtx, ClientDriver, OpOutcome};

use super::node::RaftMsg;
use crate::common::{numbered, read_op, tags, write_u64};

/// Timer tag: the admin issues the next membership target.
const ADMIN_ISSUE: u64 = 40;
/// Timer tag: the admin retries an unacknowledged request.
const ADMIN_RETRY: u64 = 41;

/// A pending client write.
struct OutOp {
    hidx: usize,
    id: u64,
    key: String,
    val: u64,
    deadline_us: u64,
    attempts: u32,
}

/// A closed-loop put/read client. Retries a timed-out write **with the
/// same operation id** against the next node (idempotent retry), so
/// duplicate delivery never double-applies.
pub struct KvClient {
    counter: u64,
    leader: NodeId,
    outstanding: Option<OutOp>,
    /// Writes acknowledged.
    pub acked: u64,
}

impl KvClient {
    /// A fresh client.
    pub fn new() -> Self {
        KvClient {
            counter: 0,
            leader: NodeId(0),
            outstanding: None,
            acked: 0,
        }
    }

    fn next_op(&mut self, ctx: &mut ClientCtx<'_, RaftMsg>) {
        if self.outstanding.is_some() {
            return;
        }
        self.counter += 1;
        let key = numbered("k", self.counter % 3);
        let val = (u64::from(ctx.id().0) << 32) | self.counter;
        let id = val;
        let hidx = ctx.invoke(put_op(&key, val));
        let deadline_us = ctx.now().as_micros() + 1_200_000;
        ctx.send(
            self.leader,
            RaftMsg::Put {
                key: key.clone(),
                val,
                id,
            },
        );
        self.outstanding = Some(OutOp {
            hidx,
            id,
            key,
            val,
            deadline_us,
            attempts: 1,
        });
    }
}

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

impl Default for KvClient {
    fn default() -> Self {
        KvClient::new()
    }
}

impl ClientDriver<RaftMsg> for KvClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, RaftMsg>) {
        ctx.set_timer(SimDuration::from_millis(40), tags::CLIENT_OP);
        ctx.set_timer(SimDuration::from_millis(700), tags::CLIENT_READ);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_, RaftMsg>, tag: u64) {
        match tag {
            tags::CLIENT_OP => {
                let now = ctx.now().as_micros();
                let n = ctx.cluster_size();
                let mut finished = false;
                if let Some(op) = &mut self.outstanding {
                    if now > op.deadline_us {
                        if op.attempts < 4 {
                            op.attempts += 1;
                            op.deadline_us = now + 1_200_000;
                            self.leader = NodeId((self.leader.0 + 1) % n);
                            let (key, val, id) = (op.key.clone(), op.val, op.id);
                            ctx.send(self.leader, RaftMsg::Put { key, val, id });
                        } else {
                            ctx.complete(op.hidx, OpOutcome::Timeout);
                            finished = true;
                        }
                    }
                }
                if finished {
                    self.outstanding = None;
                }
                self.next_op(ctx);
                ctx.set_timer(SimDuration::from_millis(40), tags::CLIENT_OP);
            }
            tags::CLIENT_READ => {
                let key = numbered("k", u64::from(ctx.rng().gen_range(0..3u32)));
                ctx.send(self.leader, RaftMsg::Get { key });
                ctx.set_timer(SimDuration::from_millis(700), tags::CLIENT_READ);
            }
            _ => {}
        }
    }

    fn on_reply(&mut self, ctx: &mut ClientCtx<'_, RaftMsg>, from: NodeId, msg: RaftMsg) {
        match msg {
            RaftMsg::PutOk { id } => {
                if let Some(op) = &self.outstanding {
                    if id == op.id {
                        ctx.complete(op.hidx, OpOutcome::Ok(None));
                        self.outstanding = None;
                        self.acked += 1;
                        self.leader = from;
                    }
                }
            }
            RaftMsg::GetOk { key, val } => {
                let hidx = ctx.invoke(read_op(&key));
                let shown = val.map(|v| numbered("", v));
                ctx.complete(hidx, OpOutcome::Ok(shown));
            }
            RaftMsg::Redirect { leader } => {
                if let Some(l) = leader {
                    self.leader = l;
                    if let Some(op) = &self.outstanding {
                        let (key, val, id) = (op.key.clone(), op.val, op.id);
                        ctx.send(l, RaftMsg::Put { key, val, id });
                    }
                } else {
                    let n = ctx.cluster_size();
                    self.leader = NodeId((from.0 + 1) % n);
                }
            }
            _ => {}
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
