//! The simulated network against a naive model: a running cluster is driven
//! through random partitions and isolations, each healed after a random
//! delay or never, and every node-to-node message is checked against a
//! plain list of the drop rules those commands installed — a message
//! arrives iff no rule with its source and destination was in force when it
//! was sent (paper §4.6: a TC drop rule drops every packet between its
//! groups, and nothing else).
//!
//! Nodes send on 100 ms ticks and commands and heals land half-way between
//! two ticks, so every message is sent and delivered (latency ≤ 2 ms) under
//! one rule set.

use proptest::prelude::*;
use rose_events::{NodeId, SimDuration, SimTime};
use rose_sim::{Application, ClientId, NodeCtx, Sim, SimConfig};

const NODES: u32 = 4;
const TICK_US: u64 = 100_000;

/// Sends a numbered message to every peer on each tick and keeps what it
/// sent and received.
#[derive(Default)]
struct Gossip {
    seq: u64,
    /// `(to, seq, sent at)` of every send.
    sent: Vec<(NodeId, u64, SimTime)>,
    /// `(from, seq)` of every receipt.
    received: Vec<(NodeId, u64)>,
}

impl Application for Gossip {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        let to_tick = TICK_US - ctx.now().as_micros() % TICK_US;
        ctx.set_timer(SimDuration::from_micros(to_tick), 0);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, u64>, _tag: u64) {
        self.seq += 1;
        for peer in ctx.peers() {
            ctx.send(peer, self.seq).expect("send is not filtered");
            self.sent.push((peer, self.seq, ctx.now()));
        }
        ctx.set_timer(SimDuration::from_micros(TICK_US), 0);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_, u64>, from: NodeId, seq: u64) {
        self.received.push((from, seq));
    }

    fn on_client_request(&mut self, _ctx: &mut NodeCtx<'_, u64>, _client: ClientId, _req: u64) {}
}

/// One command, applied half-way between two ticks; the run then goes on
/// for `wait` ticks. A heal lands `heal` ticks after the command.
#[derive(Debug, Clone)]
enum Cmd {
    /// Cut `node` off from every peer, both ways.
    Isolate {
        node: u32,
        heal: Option<u64>,
        wait: u64,
    },
    /// Drop traffic both ways between the nodes in bitmask `a` and those in
    /// `b`.
    Partition {
        a: u8,
        b: u8,
        heal: Option<u64>,
        wait: u64,
    },
}

fn arb_heal() -> impl Strategy<Value = Option<u64>> {
    proptest::option::of(1u64..6)
}

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        (0..NODES, arb_heal(), 0u64..3).prop_map(|(node, heal, wait)| Cmd::Isolate {
            node,
            heal,
            wait
        }),
        (1u8..16, 1u8..16, arb_heal(), 0u64..3).prop_map(|(a, b, heal, wait)| Cmd::Partition {
            a,
            b,
            heal,
            wait
        }),
    ]
}

/// The naive model: one entry per drop rule, with the instants it was
/// installed and healed.
struct Rule {
    src: NodeId,
    dst: NodeId,
    from: SimTime,
    until: Option<SimTime>,
}

fn in_force(rule: &Rule, at: SimTime) -> bool {
    rule.from <= at && rule.until.is_none_or(|until| at < until)
}

fn nodes_in(mask: u8) -> Vec<NodeId> {
    (0..NODES)
        .filter(|n| mask & (1 << n) != 0)
        .map(NodeId)
        .collect()
}

fn ticks(n: u64) -> SimDuration {
    SimDuration::from_micros(n * TICK_US)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn deliveries_match_a_naive_rule_list(
        seed in any::<u64>(),
        cmds in proptest::collection::vec(arb_cmd(), 1..12),
    ) {
        let mut sim = Sim::new(SimConfig::new(NODES, seed), |_| Gossip::default());
        sim.start();
        sim.run_for(ticks(1) + SimDuration::from_micros(TICK_US / 2));
        let mut model: Vec<Rule> = Vec::new();
        let mut install = |src: NodeId, dst: NodeId, at: SimTime, heal: Option<u64>| {
            model.push(Rule { src, dst, from: at, until: heal.map(|h| at + ticks(h)) });
        };
        for cmd in &cmds {
            let now = sim.now();
            let wait = match *cmd {
                Cmd::Isolate { node, heal, wait } => {
                    let node = NodeId(node);
                    sim.inject_isolation(node, heal.map(ticks));
                    for peer in (0..NODES).map(NodeId).filter(|&p| p != node) {
                        install(node, peer, now, heal);
                        install(peer, node, now, heal);
                    }
                    wait
                }
                Cmd::Partition { a, b, heal, wait } => {
                    let (a, b) = (nodes_in(a), nodes_in(b));
                    sim.inject_partition(&a, &b, heal.map(ticks));
                    for &x in &a {
                        for &y in &b {
                            install(x, y, now, heal);
                            install(y, x, now, heal);
                        }
                    }
                    wait
                }
            };
            sim.run_for(ticks(wait));
        }
        sim.run_for(ticks(8));
        let end = sim.now();

        let mut checked = 0;
        for n in (0..NODES).map(NodeId) {
            let app = sim.app(n).expect("no node crashes");
            for &(to, seq, at) in &app.sent {
                if at + SimDuration::from_micros(TICK_US / 2) > end {
                    continue;
                }
                let expected = !model.iter().any(|r| r.src == n && r.dst == to && in_force(r, at));
                let arrived = sim.app(to).unwrap().received.contains(&(n, seq));
                prop_assert_eq!(arrived, expected, "{} -> {} message {} sent at {}", n, to, seq, at);
                checked += 1;
            }
        }
        prop_assert!(checked > 0);
        let in_force_at_end = model.iter().filter(|r| in_force(r, end)).count();
        prop_assert_eq!(sim.core().net.active_rules(), in_force_at_end);
    }
}
