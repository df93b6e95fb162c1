//! Fault-propagation chains over a run's causality DAG.
//!
//! A reproduction run that confirms a bug leaves behind a [`CausalLog`]:
//! the happens-before records the kernel, the tracer, and the executor
//! emitted while the run executed (injections, injected syscall failures,
//! signal deliveries, cross-node message edges, restarts, open fault
//! intervals, and the oracle firing). This module turns that log into the
//! artifact a human debugging the schedule actually wants — for each
//! injected fault, the *propagation chain*: the shortest causal path from
//! the injection point to the oracle event, with a one-line summary per
//! hop.
//!
//! Construction is purely deterministic: adjacency lists are built in edge
//! insertion order and the breadth-first search visits neighbours in that
//! order, so the same log yields byte-identical chains at any parallelism.
//! Chains (not the raw log) are what gets attached to diagnosis reports,
//! rendered as Perfetto flow arrows, and exported as DOT.

use std::collections::VecDeque;
use std::fmt::Write as _;

use rose_events::{CausalLog, CauseId, NodeId};
use serde::{Deserialize, Serialize};

use crate::chrome::{node_pid, ChromeTrace, CAMPAIGN_PID, TID_CAUSAL};

/// One hop on a propagation chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainHop {
    /// The causal node's id in the originating log.
    pub id: u64,
    /// Simulated timestamp, microseconds.
    pub ts_us: u64,
    /// The cluster node the hop occurred on; `None` for the oracle.
    pub node: Option<NodeId>,
    /// Human-readable event summary ("write -> EIO", "recv from n1", ...).
    pub label: String,
    /// Kind of the causal edge *into* this hop; empty on the first hop.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub via: String,
}

/// The shortest causal path from one injected fault to the oracle event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropagationChain {
    /// The fault's index in the schedule.
    pub fault: u64,
    /// The fault's action tag ("SCF(write)", "PS(Crash)", "ND", ...).
    pub tag: String,
    /// Hops from injection (first) to oracle (last). If the log holds no
    /// oracle-reaching path the chain degenerates to the injection hop.
    pub hops: Vec<ChainHop>,
}

/// Computes one propagation chain per injection recorded in the log, in
/// injection order. Deterministic: same log, same bytes out.
pub fn propagation_chains(log: &CausalLog) -> Vec<PropagationChain> {
    let n = log.nodes.len();
    // Forward adjacency in edge insertion order; BFS therefore expands
    // neighbours deterministically and ties break toward earlier edges.
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (ei, e) in log.edges.iter().enumerate() {
        adj[e.from.0 as usize].push((e.to.0 as usize, ei));
    }
    let oracle = log.oracle();
    let mut chains = Vec::new();
    for inject_id in log.injections() {
        let rose_events::CausalKind::Inject { fault, tag } = log.node(inject_id).kind.clone()
        else {
            continue;
        };
        let path = oracle.and_then(|o| shortest_path(&adj, n, inject_id, o));
        let ids = path.unwrap_or_else(|| vec![(inject_id, None)]);
        let hops = ids
            .into_iter()
            .map(|(id, via)| {
                let node = log.node(id);
                ChainHop {
                    id: id.0,
                    ts_us: node.ts.as_micros(),
                    node: node.node,
                    label: node.kind.label(),
                    via: via
                        .map(|ei| log.edges[ei].kind.to_string())
                        .unwrap_or_default(),
                }
            })
            .collect();
        chains.push(PropagationChain { fault, tag, hops });
    }
    chains
}

/// BFS shortest path `from -> to`; returns the node ids on the path paired
/// with the index of the edge taken into each (None for the start).
fn shortest_path(
    adj: &[Vec<(usize, usize)>],
    n: usize,
    from: CauseId,
    to: CauseId,
) -> Option<Vec<(CauseId, Option<usize>)>> {
    let (from, to) = (from.0 as usize, to.0 as usize);
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    visited[from] = true;
    queue.push_back(from);
    'bfs: while let Some(u) = queue.pop_front() {
        for &(v, ei) in &adj[u] {
            if !visited[v] {
                visited[v] = true;
                prev[v] = Some((u, ei));
                queue.push_back(v);
                if v == to {
                    break 'bfs;
                }
            }
        }
    }
    if from != to && prev[to].is_none() {
        return None;
    }
    let mut path = Vec::new();
    let mut cur = to;
    loop {
        match prev[cur] {
            Some((p, ei)) => {
                path.push((CauseId(cur as u64), Some(ei)));
                cur = p;
            }
            None => {
                path.push((CauseId(cur as u64), None));
                break;
            }
        }
    }
    path.reverse();
    Some(path)
}

/// Renders chains as a Graphviz DOT digraph (deduplicating shared hops).
pub fn to_dot(chains: &[PropagationChain]) -> String {
    let mut out = String::from("digraph propagation {\n  rankdir=LR;\n  node [shape=box];\n");
    let mut seen_nodes = std::collections::BTreeSet::new();
    let mut seen_edges = std::collections::BTreeSet::new();
    for chain in chains {
        for hop in &chain.hops {
            if seen_nodes.insert(hop.id) {
                let where_ = hop
                    .node
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "cluster".into());
                let _ = writeln!(
                    out,
                    "  e{} [label=\"{}\\n{} @ {}us\"];",
                    hop.id,
                    dot_escape(&hop.label),
                    dot_escape(&where_),
                    hop.ts_us
                );
            }
        }
        for pair in chain.hops.windows(2) {
            if seen_edges.insert((pair[0].id, pair[1].id)) {
                let _ = writeln!(
                    out,
                    "  e{} -> e{} [label=\"{}\"];",
                    pair[0].id,
                    pair[1].id,
                    dot_escape(&pair[1].via)
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders chains as Perfetto flow arrows across node tracks: each hop gets
/// a 1 µs anchor slice on its node's causal lane, and a flow
/// (`ph: "s"/"t"/"f"`) threads the anchors together. A single-hop chain (an
/// injection that never reached the oracle — e.g. an amplified fault firing
/// after detection) gets its anchor but no flow: an arrow needs two ends.
pub fn export_flow(chains: &[PropagationChain], chrome: &mut ChromeTrace) {
    let mut named = std::collections::BTreeSet::new();
    for (ci, chain) in chains.iter().enumerate() {
        let flow_id = ci as u64 + 1;
        let flow_name = format!("f{} {}", chain.fault, chain.tag);
        let last = chain.hops.len().saturating_sub(1);
        for (hi, hop) in chain.hops.iter().enumerate() {
            let pid = hop.node.map(node_pid).unwrap_or(CAMPAIGN_PID);
            if named.insert(pid) {
                chrome.set_thread_name(pid, TID_CAUSAL, "causal");
            }
            chrome.add_flow_anchor(hop.label.clone(), hop.ts_us, pid);
            if last == 0 {
                continue;
            }
            let ph = if hi == 0 {
                "s"
            } else if hi == last {
                "f"
            } else {
                "t"
            };
            chrome.add_flow_step(flow_name.clone(), hop.ts_us, pid, ph, flow_id);
        }
    }
}

/// Writes a diagnosis's propagation chains under `dir` as
/// `<stem>.flow.json` (a Chrome trace: per-hop anchor spans threaded by
/// flow arrows across node tracks) and `<stem>.dot` (Graphviz). No-op when
/// there are no chains — diagnosis did not converge, or provenance was off.
pub fn save_chains(
    dir: &std::path::Path,
    stem: &str,
    chains: &[PropagationChain],
) -> std::io::Result<()> {
    if chains.is_empty() {
        return Ok(());
    }
    std::fs::create_dir_all(dir)?;
    let mut chrome = ChromeTrace::new();
    export_flow(chains, &mut chrome);
    chrome.save(dir.join(format!("{stem}.flow.json")))?;
    std::fs::write(dir.join(format!("{stem}.dot")), to_dot(chains))
}

#[cfg(test)]
mod tests {
    use rose_events::{CausalKind, EdgeKind, SimTime};

    use super::*;

    /// inject(n0) -> scf(n0) -> recv(n1) -> oracle, plus a slow detour
    /// inject -> pause -> recv so BFS has a choice.
    fn diamond() -> CausalLog {
        let mut log = CausalLog::default();
        let inj = log.push_node(
            SimTime::from_secs(1),
            Some(NodeId(0)),
            CausalKind::Inject {
                fault: 0,
                tag: "SCF(write)".into(),
            },
        );
        let scf = log.push_node(
            SimTime::from_secs(1),
            Some(NodeId(0)),
            CausalKind::Scf {
                syscall: rose_events::SyscallId::Write,
                errno: rose_events::Errno::Eio,
            },
        );
        let pause = log.push_node(SimTime::from_secs(2), Some(NodeId(0)), CausalKind::Pause);
        let recv = log.push_node(
            SimTime::from_secs(3),
            Some(NodeId(1)),
            CausalKind::Recv { from: NodeId(0) },
        );
        let oracle = log.push_node(SimTime::from_secs(4), None, CausalKind::Oracle);
        log.push_edge(inj, scf, EdgeKind::Inject);
        log.push_edge(inj, pause, EdgeKind::Program);
        log.push_edge(scf, recv, EdgeKind::Message);
        log.push_edge(pause, recv, EdgeKind::Program);
        log.push_edge(recv, oracle, EdgeKind::Oracle);
        log
    }

    #[test]
    fn chain_takes_the_shortest_path_to_the_oracle() {
        let chains = propagation_chains(&diamond());
        assert_eq!(chains.len(), 1);
        let chain = &chains[0];
        assert_eq!((chain.fault, chain.tag.as_str()), (0, "SCF(write)"));
        let labels: Vec<&str> = chain.hops.iter().map(|h| h.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "inject f0 SCF(write)",
                "write -> EIO",
                "recv from n0",
                "oracle"
            ]
        );
        let vias: Vec<&str> = chain.hops.iter().map(|h| h.via.as_str()).collect();
        assert_eq!(vias, ["", "inject", "message", "oracle"]);
        assert_eq!(chain.hops[3].node, None);
    }

    #[test]
    fn unreachable_oracle_degenerates_to_the_injection_hop() {
        let mut log = CausalLog::default();
        log.push_node(
            SimTime::from_secs(1),
            Some(NodeId(2)),
            CausalKind::Inject {
                fault: 3,
                tag: "ND".into(),
            },
        );
        // No oracle at all.
        let chains = propagation_chains(&log);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].hops.len(), 1);
        assert_eq!(chains[0].hops[0].label, "inject f3 ND");
    }

    #[test]
    fn single_hop_chain_gets_an_anchor_but_no_flow() {
        let mut log = CausalLog::default();
        log.push_node(
            SimTime::from_secs(1),
            Some(NodeId(2)),
            CausalKind::Inject {
                fault: 3,
                tag: "ND".into(),
            },
        );
        let mut chrome = ChromeTrace::new();
        export_flow(&propagation_chains(&log), &mut chrome);
        assert!(chrome.trace_events.iter().any(|e| e.ph == "X"));
        assert!(!chrome
            .trace_events
            .iter()
            .any(|e| matches!(e.ph.as_str(), "s" | "t" | "f")));
    }

    #[test]
    fn dot_escapes_and_dedupes() {
        let chains = vec![
            PropagationChain {
                fault: 0,
                tag: "SCF(write)".into(),
                hops: vec![
                    ChainHop {
                        id: 0,
                        ts_us: 5,
                        node: Some(NodeId(0)),
                        label: "say \"hi\"".into(),
                        via: String::new(),
                    },
                    ChainHop {
                        id: 2,
                        ts_us: 9,
                        node: None,
                        label: "oracle".into(),
                        via: "oracle".into(),
                    },
                ],
            },
            PropagationChain {
                fault: 1,
                tag: "ND".into(),
                hops: vec![
                    ChainHop {
                        id: 1,
                        ts_us: 7,
                        node: Some(NodeId(1)),
                        label: "silence".into(),
                        via: String::new(),
                    },
                    ChainHop {
                        id: 2,
                        ts_us: 9,
                        node: None,
                        label: "oracle".into(),
                        via: "oracle".into(),
                    },
                ],
            },
        ];
        let dot = to_dot(&chains);
        assert!(dot.starts_with("digraph propagation {"));
        assert!(dot.contains("say \\\"hi\\\""));
        assert!(dot.contains("e0 -> e2"));
        assert!(dot.contains("e1 -> e2"));
        // The shared oracle hop renders exactly once.
        assert_eq!(dot.matches("\n  e2 [label=").count(), 1);
    }

    #[test]
    fn flow_export_threads_anchors_across_tracks() {
        let chains = propagation_chains(&diamond());
        let mut chrome = ChromeTrace::new();
        export_flow(&chains, &mut chrome);
        let phases: Vec<&str> = chrome
            .trace_events
            .iter()
            .filter(|e| matches!(e.ph.as_str(), "s" | "t" | "f"))
            .map(|e| e.ph.as_str())
            .collect();
        assert_eq!(phases, ["s", "t", "t", "f"]);
        // Every flow step shares one id and sits on an anchor slice.
        let ids: std::collections::BTreeSet<_> = chrome
            .trace_events
            .iter()
            .filter(|e| matches!(e.ph.as_str(), "s" | "t" | "f"))
            .map(|e| e.id)
            .collect();
        assert_eq!(ids.len(), 1);
        for step in chrome
            .trace_events
            .iter()
            .filter(|e| matches!(e.ph.as_str(), "s" | "t" | "f"))
        {
            assert!(chrome
                .trace_events
                .iter()
                .any(|a| a.ph == "X" && a.pid == step.pid && a.tid == step.tid && a.ts == step.ts));
        }
        // The oracle hop lands on the campaign track; injections on nodes.
        assert!(chrome
            .trace_events
            .iter()
            .any(|e| e.ph == "f" && e.pid == CAMPAIGN_PID));
        assert!(chrome
            .trace_events
            .iter()
            .any(|e| e.ph == "s" && e.pid == node_pid(NodeId(0))));
    }
}
