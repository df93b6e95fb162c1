//! Temporary diagnostic (removed before release).
use rose_apps::zookeeper::{ZkBug, ZkCase, ZkClient, ZooKeeper};
use rose_core::TargetSystem;
use rose_events::{NodeId, SimDuration, SyscallId};
use rose_sim::{HookEffects, HookEnv, KernelHook, Sim, SimConfig, SyscallArgs};

#[derive(Default)]
struct Spy;
impl KernelHook for Spy {
    fn name(&self) -> &'static str {
        "spy"
    }
    fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, _fx: &mut HookEffects) {
        if args.call == SyscallId::Accept {
            eprintln!("ACCEPT {} {} ", env.now, env.node);
        }
    }
}

#[test]
#[ignore]
fn dbgzk() {
    let bug = Some(ZkBug::Zk4203);
    let case = ZkCase { bug: ZkBug::Zk4203 };
    let mut s = rose_inject::FaultSchedule::new();
    s.push(rose_inject::ScheduledFault::new(
        NodeId(0),
        rose_inject::FaultAction::Scf {
            syscall: SyscallId::Accept,
            errno: rose_events::Errno::Econnreset,
            path: None,
            nth: 2,
        },
    ));
    let mut sim = Sim::new(SimConfig::new(3, 6), move |_| ZooKeeper::new(bug));
    case.install(&mut sim);
    sim.add_hook(Box::new(rose_inject::Executor::new(s)));
    sim.add_hook(Box::new(Spy));
    sim.add_client(Box::new(ZkClient::new()));
    sim.add_client(Box::new(ZkClient::new()));
    sim.start();
    sim.run_for(SimDuration::from_secs(30));
    for l in sim.core().logs.lines().iter().take(20) {
        eprintln!("LOG {} {} {}", l.ts, l.node, l.line);
    }
    let acked = sim
        .client_ref::<ZkClient>(rose_sim::ClientId(0))
        .unwrap()
        .acked;
    eprintln!("acked={acked} oracle={}", case.oracle(&sim));
}
