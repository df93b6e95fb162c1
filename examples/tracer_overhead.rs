//! A condensed version of the tracer-overhead study (paper Table 2):
//! the same YCSB-A workload under no tracer, the Rose tracer, and the two
//! heavyweight baselines.
//!
//! ```sh
//! cargo run --release --example tracer_overhead
//! ```

use rose::trace::{Tracer, TracerConfig};
use rose_bench_shim::run_ycsb;

/// The bench crate is not a dependency of the facade; a local shim keeps the
/// example self-contained with a small inline workload.
mod rose_bench_shim {
    use rose::events::SimDuration;
    use rose::sim::{
        Application, ClientCtx, ClientDriver, ClientId, KernelHook, NodeCtx, OpenFlags, Sim,
        SimConfig,
    };

    /// A minimal KV shard: SET appends to an AOF; GET reads it back.
    pub struct Kv;

    #[derive(Clone, Debug)]
    pub enum M {
        /// SET request.
        Set(u64),
        /// GET request.
        Get(u64),
        /// Reply (payload unused by the closed loop).
        Ok(#[allow(dead_code)] u64),
    }

    impl Application for Kv {
        type Msg = M;
        fn on_start(&mut self, ctx: &mut NodeCtx<'_, M>) {
            let _ = ctx.write_file("/kv/aof", b"");
        }
        fn on_timer(&mut self, _: &mut NodeCtx<'_, M>, _: u64) {}
        fn on_message(&mut self, _: &mut NodeCtx<'_, M>, _: rose::events::NodeId, _: M) {}
        fn on_client_request(&mut self, ctx: &mut NodeCtx<'_, M>, c: ClientId, req: M) {
            match req {
                M::Set(id) => {
                    if let Ok(fd) = ctx.open("/kv/aof", OpenFlags::Append) {
                        let _ = ctx.write(fd, b"record");
                        let _ = ctx.close(fd);
                    }
                    let _ = ctx.reply(c, M::Ok(id));
                }
                M::Get(id) => {
                    if let Ok(fd) = ctx.open_read("/kv/aof") {
                        let _ = ctx.read(fd, 64);
                        let _ = ctx.close(fd);
                    }
                    let _ = ctx.reply(c, M::Ok(id));
                }
                M::Ok(_) => {}
            }
        }
    }

    struct Loop {
        n: u64,
        pub done: u64,
    }

    impl ClientDriver<M> for Loop {
        fn on_start(&mut self, ctx: &mut ClientCtx<'_, M>) {
            ctx.send(rose::events::NodeId(0), M::Set(0));
        }
        fn on_timer(&mut self, _: &mut ClientCtx<'_, M>, _: u64) {}
        fn on_reply(&mut self, ctx: &mut ClientCtx<'_, M>, _: rose::events::NodeId, _: M) {
            self.done += 1;
            self.n += 1;
            let msg = if self.n.is_multiple_of(2) {
                M::Set(self.n)
            } else {
                M::Get(self.n)
            };
            ctx.send(rose::events::NodeId((self.n % 3) as u32), msg);
        }
    }

    /// Runs the workload, returning completed ops.
    pub fn run_ycsb(hooks: Vec<Box<dyn KernelHook>>, secs: u64) -> u64 {
        let mut cfg = SimConfig::new(3, 5);
        cfg.net_latency_min = SimDuration::from_micros(15);
        cfg.net_latency_max = SimDuration::from_micros(40);
        cfg.syscall_exec_cost = SimDuration::from_nanos(1_500);
        let mut sim = Sim::new(cfg, |_| Kv);
        for h in hooks {
            sim.add_hook(h);
        }
        let ids: Vec<_> = (0..6)
            .map(|_| sim.add_client(Box::new(Loop { n: 0, done: 0 })))
            .collect();
        sim.start();
        sim.run_for(SimDuration::from_secs(secs));
        ids.iter()
            .map(|id| sim.client_ref::<Loop>(*id).map_or(0, |c| c.done))
            .sum()
    }
}

fn main() {
    let secs = 15;
    let base = run_ycsb(vec![], secs);
    println!("baseline: {base} ops in {secs}s virtual");

    for (name, cfg) in [
        ("Rose", TracerConfig::rose(std::iter::empty())),
        ("Full", TracerConfig::full()),
        ("IO content", TracerConfig::io_content(std::iter::empty())),
    ] {
        let ops = run_ycsb(vec![Box::new(Tracer::new(cfg))], secs);
        let overhead = 100.0 * (base.saturating_sub(ops)) as f64 / base as f64;
        println!("{name:<11} {ops} ops  → overhead {overhead:.1}%");
    }
}
