//! The Redis-like key-value cluster of the overhead study.
//!
//! Three independent shards (clients hash keys to shards). Each update
//! appends to an AOF file; each read hits the in-memory table after probing
//! the AOF descriptor — a realistic per-op syscall mix for a persistence-
//! enabled Redis.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rose_events::{NodeId, SimDuration};
use rose_sim::{Application, ClientCtx, ClientDriver, ClientId, NodeCtx, OpenFlags};

use crate::ycsb::{ZipfSampler, READ_PROPORTION, RECORD_COUNT, THETA, VALUE_SIZE};

const AOF: &str = "/redis/appendonly.aof";

/// Wire messages.
#[derive(Debug, Clone)]
pub enum Rkmsg {
    /// SET key value.
    Set {
        /// Key.
        key: u64,
        /// Value payload.
        val: Vec<u8>,
        /// Client op id.
        id: u64,
    },
    /// SET acknowledged.
    SetOk {
        /// Client op id.
        id: u64,
    },
    /// GET key.
    Get {
        /// Key.
        key: u64,
        /// Client op id.
        id: u64,
    },
    /// GET reply.
    GetOk {
        /// Client op id.
        id: u64,
        /// Value, if present.
        val: Option<Vec<u8>>,
    },
}

/// One Redis-like shard.
pub struct RedisKv {
    table: BTreeMap<u64, Vec<u8>>,
    /// Completed ops (server side).
    pub ops: u64,
}

impl RedisKv {
    /// An empty shard.
    pub fn new() -> Self {
        RedisKv {
            table: BTreeMap::new(),
            ops: 0,
        }
    }
}

impl Default for RedisKv {
    fn default() -> Self {
        RedisKv::new()
    }
}

impl Application for RedisKv {
    type Msg = Rkmsg;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Rkmsg>) {
        // Create the AOF.
        let _ = ctx.write_file(AOF, b"");
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_, Rkmsg>, _tag: u64) {}

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, Rkmsg>, _from: NodeId, _msg: Rkmsg) {}

    fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, Rkmsg>, client: ClientId, req: Rkmsg) {
        match req {
            Rkmsg::Set { key, val, id } => {
                // Persist to the AOF: open, write, close.
                if let Ok(fd) = ctx.open(AOF, OpenFlags::Append) {
                    let mut rec = key.to_le_bytes().to_vec();
                    rec.extend_from_slice(&val);
                    let _ = ctx.write(fd, &rec);
                    let _ = ctx.close(fd);
                }
                self.table.insert(key, val);
                self.ops += 1;
                let _ = ctx.reply(client, Rkmsg::SetOk { id });
            }
            Rkmsg::Get { key, id } => {
                // Read the record header from the keyspace file, like a
                // persistence-enabled Redis consulting its on-disk state.
                if let Ok(fd) = ctx.open_read(AOF) {
                    let _ = ctx.read(fd, 64);
                    let _ = ctx.close(fd);
                }
                let val = self.table.get(&key).cloned();
                self.ops += 1;
                // A slow trickle of failing environment probes — the
                // "essential events" the Rose tracer actually records
                // (paper Table 2: ~5k failures against millions of calls).
                if self.ops.is_multiple_of(512) {
                    let _ = ctx.stat("/etc/redis/overrides.conf");
                }
                let _ = ctx.reply(client, Rkmsg::GetOk { id, val });
            }
            Rkmsg::SetOk { .. } | Rkmsg::GetOk { .. } => {}
        }
    }
}

/// A closed-loop YCSB client bound to the cluster.
pub struct YcsbClient {
    zipf: ZipfSampler,
    rng: SmallRng,
    next_id: u64,
    /// Completed operations.
    pub completed: u64,
}

impl YcsbClient {
    /// A workload-A client.
    pub fn new(seed: u64) -> Self {
        YcsbClient {
            zipf: ZipfSampler::new(RECORD_COUNT, THETA),
            rng: SmallRng::seed_from_u64(seed),
            next_id: 0,
            completed: 0,
        }
    }

    fn issue(&mut self, ctx: &mut ClientCtx<'_, Rkmsg>) {
        self.next_id += 1;
        let id = self.next_id;
        let key = self.zipf.sample(&mut self.rng);
        let shard = NodeId((key % u64::from(ctx.cluster_size())) as u32);
        if self.rng.gen_bool(READ_PROPORTION) {
            ctx.send(shard, Rkmsg::Get { key, id });
        } else {
            let val = vec![0xabu8; VALUE_SIZE];
            ctx.send(shard, Rkmsg::Set { key, val, id });
        }
    }
}

impl ClientDriver<Rkmsg> for YcsbClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, Rkmsg>) {
        self.issue(ctx);
    }

    fn on_timer(&mut self, _ctx: &mut ClientCtx<'_, Rkmsg>, _tag: u64) {}

    fn on_reply(&mut self, ctx: &mut ClientCtx<'_, Rkmsg>, _from: NodeId, _msg: Rkmsg) {
        self.completed += 1;
        // Closed loop: fire the next op immediately.
        self.issue(ctx);
    }
}

/// Runs the YCSB-A workload against a 3-shard cluster with the given hooks
/// for `secs` of virtual time; returns completed client ops.
pub fn run_ycsb(
    hooks: Vec<Box<dyn rose_sim::KernelHook>>,
    clients: u32,
    secs: u64,
    seed: u64,
) -> (rose_sim::Sim<RedisKv>, u64) {
    let (sim, ids) = ycsb_cluster(hooks, clients, seed);
    run_cluster(sim, &ids, secs)
}

/// The 3-shard cluster with its hooks and closed-loop clients, not started.
fn ycsb_cluster(
    hooks: Vec<Box<dyn rose_sim::KernelHook>>,
    clients: u32,
    seed: u64,
) -> (rose_sim::Sim<RedisKv>, Vec<ClientId>) {
    let mut cfg = rose_sim::SimConfig::new(3, seed);
    // Loopback-class latency: the overhead study is CPU-bound.
    cfg.net_latency_min = SimDuration::from_micros(15);
    cfg.net_latency_max = SimDuration::from_micros(40);
    // A tuned-down base syscall cost for a hot in-memory store.
    cfg.syscall_exec_cost = SimDuration::from_nanos(1_500);
    let mut sim = rose_sim::Sim::new(cfg, |_| RedisKv::new());
    for h in hooks {
        sim.add_hook(h);
    }
    let mut ids = Vec::new();
    for c in 0..clients {
        ids.push(sim.add_client(Box::new(YcsbClient::new(900 + u64::from(c)))));
    }
    (sim, ids)
}

/// Starts the cluster, runs it for `secs` of virtual time and counts the
/// ops its clients completed.
fn run_cluster(
    mut sim: rose_sim::Sim<RedisKv>,
    ids: &[ClientId],
    secs: u64,
) -> (rose_sim::Sim<RedisKv>, u64) {
    sim.start();
    sim.run_for(SimDuration::from_secs(secs));
    let done: u64 = ids
        .iter()
        .map(|id| sim.client_ref::<YcsbClient>(*id).map_or(0, |c| c.completed))
        .sum();
    (sim, done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ycsb_cluster_sustains_throughput() {
        let (sim, done) = run_ycsb(vec![], 4, 5, 1);
        assert!(
            done > 20_000,
            "5s of loopback YCSB should complete many ops, got {done}"
        );
        assert!(
            sim.core().stats.syscalls > 3 * done,
            "several syscalls per op"
        );
        // A load generator, not a checked history: no oracle reads this
        // cluster's operations, so none are journalled. The count is the one
        // the journalling client completed — dropping the journal drew no
        // random number and moved no event.
        assert!(sim.core().history.is_empty());
        assert_eq!(done, 321_943);
    }

    /// The lightweight-instrumentation claim for provenance: taint-gated
    /// recording stays empty on a fault-free run and does not slow it.
    #[test]
    fn causal_recording_is_empty_and_free_on_a_fault_free_run() {
        let (_, unrecorded) = run_ycsb(vec![], 4, 1, 1);
        let (mut sim, ids) = ycsb_cluster(vec![], 4, 1);
        sim.record_causal();
        let (mut sim, recorded) = run_cluster(sim, &ids, 1);
        assert!(sim.take_causal_log().is_empty());
        assert_eq!(recorded, unrecorded);
    }

    #[test]
    fn reads_and_writes_are_roughly_balanced() {
        let (sim, done) = run_ycsb(vec![], 2, 3, 2);
        let w = sim.core().stats.per_syscall()[&rose_events::SyscallId::Write];
        // Writes ≈ half the ops (plus the boot AOF creation).
        let ratio = w as f64 / done as f64;
        assert!(ratio > 0.35 && ratio < 0.65, "write ratio {ratio}");
    }
}
