//! Fault extraction from a buggy production trace.
//!
//! The first step of diagnosis (§4.5.1): collect the fault events from the
//! trace, discard the *benign* ones (those that also occur in a failure-free
//! run — the `FR%` reduction of Table 1), group correlated network delays
//! into partitions, and order the result by the paper's priority
//! (PS → ND → SCF, chronological within each class).

use std::collections::BTreeMap;

use rose_events::{
    Errno, Event, EventKind, ExecutionIndex, FunctionId, IpAddr, NodeId, ProcState, SimDuration,
    SimTime, SyscallId, Trace,
};
use rose_inject::{FaultAction, PartitionKind};
use rose_profile::Profile;
use serde::{Deserialize, Serialize};

/// A fault recovered from the production trace, before contextualization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractedFault {
    /// Node the fault occurred on (for partitions: the isolated node or the
    /// link source).
    pub node: NodeId,
    /// When it was observed in production.
    pub ts: SimTime,
    /// The injectable action reconstructed from the event.
    pub action: FaultAction,
    /// Functions that preceded the fault on its node, most recent first
    /// (the `AF` input of Algorithm 1).
    pub preceding: Vec<String>,
    /// The execution index the tracer stamped on the fault's first SCF
    /// occurrence, when available. A fault that carries one is searched at
    /// Level 2.5 (per-context counts under the recorded calling context),
    /// with the flat invocation sweep as the fallback. Always `None` for
    /// non-SCF faults.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ei: Option<ExecutionIndex>,
}

impl ExtractedFault {
    /// Priority class: PS = 0, ND = 1, SCF = 2 (§4.5.1).
    pub fn class(&self) -> u8 {
        match self.action {
            FaultAction::Crash | FaultAction::Pause { .. } => 0,
            FaultAction::Partition { .. } => 1,
            FaultAction::Scf { .. } => 2,
        }
    }
}

/// Statistics of the extraction, feeding Table 1's `FR%` column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ExtractionStats {
    /// Fault events found in the trace.
    pub total_fault_events: usize,
    /// Fault events removed as benign by the trace diff.
    pub removed_benign: usize,
    /// Faults emitted after grouping/deduplication.
    pub extracted: usize,
}

impl ExtractionStats {
    /// The `FR%` figure: share of potential faults removed by comparing the
    /// buggy trace against a failure-free execution.
    pub fn removed_pct(&self) -> f64 {
        if self.total_fault_events == 0 {
            0.0
        } else {
            100.0 * self.removed_benign as f64 / self.total_fault_events as f64
        }
    }
}

/// Output of the extraction step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Extraction {
    /// Faults in **chronological** order (the production fault order that
    /// schedules must preserve).
    pub faults: Vec<ExtractedFault>,
    /// Extraction statistics.
    pub stats: ExtractionStats,
}

impl Extraction {
    /// Indices of `faults` in contextualization priority order:
    /// PS first, then ND, then SCF; chronological within each class.
    pub fn priority_order(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.faults.len()).collect();
        idx.sort_by_key(|&i| (self.faults[i].class(), self.faults[i].ts));
        idx
    }

    /// This extraction with every recorded execution index dropped — the
    /// only way to ask for the paper's flat Level-2 search, which the
    /// flat-vs-EI ablation and differential tests compare against.
    pub fn without_execution_indices(mut self) -> Self {
        for fault in &mut self.faults {
            fault.ei = None;
        }
        self
    }
}

/// Extracts injectable faults from a merged production trace.
///
/// `profile` supplies the benign-fault fingerprints; `fn_names` resolves the
/// trace's `FunctionId`s back to symbols (the production tracer's monitored
/// set).
pub fn extract_faults(
    trace: &Trace,
    profile: &Profile,
    fn_names: &BTreeMap<FunctionId, String>,
) -> Extraction {
    let mut stats = ExtractionStats::default();
    let mut faults: Vec<ExtractedFault> = Vec::new();
    let mut nd_events: Vec<(&Event, IpAddr, IpAddr, SimDuration)> = Vec::new();
    let mut seen_scf: BTreeMap<(NodeId, SyscallId, Errno, Option<String>), usize> = BTreeMap::new();
    // Crash dedup: a node that panics immediately after a restart produces a
    // symptom crash; collapse crashes on the same node within a short window.
    let mut last_crash: BTreeMap<NodeId, SimTime> = BTreeMap::new();

    let preceding = |node: NodeId, ts: SimTime| -> Vec<String> {
        trace
            .af_before(node, ts)
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Af { function, .. } => fn_names.get(&function).cloned(),
                _ => None,
            })
            .collect()
    };

    for e in trace.events() {
        match &e.kind {
            EventKind::Scf {
                syscall,
                errno,
                path,
                ei,
                ..
            } => {
                stats.total_fault_events += 1;
                if profile.is_benign(&e.kind) {
                    stats.removed_benign += 1;
                    continue;
                }
                let path = path.as_deref().map(str::to_owned);
                let key = (e.node, *syscall, *errno, path.clone());
                if let Some(&existing) = seen_scf.get(&key) {
                    // Repeated identical failure: one candidate fault.
                    let _ = existing;
                    continue;
                }
                seen_scf.insert(key, faults.len());
                faults.push(ExtractedFault {
                    node: e.node,
                    ts: e.ts,
                    action: FaultAction::Scf {
                        syscall: *syscall,
                        errno: *errno,
                        path,
                        nth: 1,
                    },
                    preceding: preceding(e.node, e.ts),
                    ei: ei.as_deref().cloned(),
                });
            }
            EventKind::Ps {
                state, duration, ..
            } => match state {
                ProcState::Crashed => {
                    stats.total_fault_events += 1;
                    let symptom = last_crash
                        .get(&e.node)
                        .is_some_and(|t| e.ts.since(*t) < SimDuration::from_secs(8));
                    last_crash.insert(e.node, e.ts);
                    if symptom {
                        // Likely the same failure re-manifesting after a
                        // supervisor restart; not an independent fault.
                        continue;
                    }
                    faults.push(ExtractedFault {
                        node: e.node,
                        ts: e.ts,
                        action: FaultAction::Crash,
                        preceding: preceding(e.node, e.ts),
                        ei: None,
                    });
                }
                ProcState::Waiting => {
                    stats.total_fault_events += 1;
                    faults.push(ExtractedFault {
                        node: e.node,
                        ts: e.ts,
                        action: FaultAction::Pause {
                            duration: *duration,
                        },
                        // The pause started `duration` ago; context precedes
                        // the *start*.
                        preceding: preceding(e.node, SimTime(e.ts.0.saturating_sub(duration.0))),
                        ei: None,
                    });
                }
                // Aborts are the failure manifesting, not an injectable
                // external fault; restarts are bookkeeping.
                ProcState::Aborted | ProcState::Restarted => {}
            },
            EventKind::Nd {
                dst, src, duration, ..
            } => {
                stats.total_fault_events += 1;
                nd_events.push((e, *src, *dst, *duration));
            }
            EventKind::Af { .. } | EventKind::SyscallOk { .. } => {}
        }
    }

    faults.extend(group_network_delays(&nd_events, &preceding));
    faults.sort_by_key(|f| f.ts);
    absorb_symptom_partitions(&mut faults);
    stats.extracted = faults.len();
    Extraction { faults, stats }
}

/// A silence interval reconstructed from an ND event.
#[derive(Debug, Clone, Copy)]
struct Silence {
    start: SimTime,
    end: SimTime,
    dst: IpAddr,
}

/// Groups network-delay events into partition faults.
///
/// Silences are bucketed by **source** (the endpoint that went quiet) and
/// merged by time overlap: a source silent towards two or more peers in one
/// window is that node's isolation; a single silent pair is a directional
/// link drop. Inbound links towards an isolated node that overlap its
/// isolation are absorbed (both directions of the same cut).
fn group_network_delays(
    nd: &[(&Event, IpAddr, IpAddr, SimDuration)],
    preceding: &dyn Fn(NodeId, SimTime) -> Vec<String>,
) -> Vec<ExtractedFault> {
    let mut out = Vec::new();
    if nd.is_empty() {
        return out;
    }
    let mut by_src: BTreeMap<IpAddr, Vec<Silence>> = BTreeMap::new();
    for (e, src, dst, d) in nd {
        by_src.entry(*src).or_default().push(Silence {
            start: SimTime(e.ts.0.saturating_sub(d.0)),
            end: e.ts,
            dst: *dst,
        });
    }

    // Per-source overlap groups.
    struct Group {
        start: SimTime,
        end: SimTime,
        src: IpAddr,
        dsts: Vec<IpAddr>,
    }
    let mut groups: Vec<Group> = Vec::new();
    for (src, mut silences) in by_src {
        silences.sort_by_key(|s| s.start);
        let mut cur: Option<Group> = None;
        for s in silences {
            match &mut cur {
                Some(g) if s.start <= g.end => {
                    g.end = g.end.max(s.end);
                    g.dsts.push(s.dst);
                }
                _ => {
                    if let Some(g) = cur.take() {
                        groups.push(g);
                    }
                    cur = Some(Group {
                        start: s.start,
                        end: s.end,
                        src,
                        dsts: vec![s.dst],
                    });
                }
            }
        }
        if let Some(g) = cur.take() {
            groups.push(g);
        }
    }

    // Isolation groups (silent towards ≥ 2 peers) absorb overlapping
    // single-link groups pointed at the same node (the inbound direction of
    // the same cut).
    let isolations: Vec<(IpAddr, SimTime, SimTime)> = groups
        .iter()
        .filter(|g| distinct(&g.dsts) >= 2)
        .map(|g| (g.src, g.start, g.end))
        .collect();
    groups.retain(|g| {
        if distinct(&g.dsts) >= 2 {
            return true;
        }
        let dst = g.dsts[0];
        !isolations
            .iter()
            .any(|(ip, s, e)| *ip == dst && g.start <= *e && *s <= g.end)
    });

    // Two or more overlapping isolation groups may really be one *group
    // split* (e.g. a Jepsen partition-random-halves): from the other side's
    // vantage point every node looks isolated, so per-source grouping yields
    // one isolation per node — but replaying those would black out the whole
    // cluster instead of recreating two internally-connected halves.
    // Overlapping isolation groups whose silent (src, dst) pairs admit a
    // consistent two-coloring with both sides ≥ 2 merge into a single
    // `PartitionKind::Split` fault; anything inconsistent (independent
    // concurrent isolations) is left as-is.
    let mut splits: Vec<(Vec<NodeId>, Vec<NodeId>, SimTime, SimTime)> = Vec::new();
    {
        let mut iso_idx: Vec<usize> = (0..groups.len())
            .filter(|&i| distinct(&groups[i].dsts) >= 2)
            .collect();
        iso_idx.sort_by_key(|&i| groups[i].start);
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut cluster: Vec<usize> = Vec::new();
        let mut cluster_end = SimTime::ZERO;
        for &i in &iso_idx {
            if !cluster.is_empty() && groups[i].start <= cluster_end {
                cluster.push(i);
                cluster_end = cluster_end.max(groups[i].end);
            } else {
                if cluster.len() >= 2 {
                    clusters.push(std::mem::take(&mut cluster));
                }
                cluster.clear();
                cluster.push(i);
                cluster_end = groups[i].end;
            }
        }
        if cluster.len() >= 2 {
            clusters.push(cluster);
        }
        let mut remove: Vec<usize> = Vec::new();
        for c in clusters {
            let mut pairs: Vec<(IpAddr, IpAddr)> = Vec::new();
            for &i in &c {
                for d in &groups[i].dsts {
                    pairs.push((groups[i].src, *d));
                }
            }
            if let Some((a, b)) = two_color(&pairs) {
                if a.len() >= 2 && b.len() >= 2 {
                    let start = c.iter().map(|&i| groups[i].start).min().unwrap_or_default();
                    let end = c.iter().map(|&i| groups[i].end).max().unwrap_or_default();
                    splits.push((a, b, start, end));
                    remove.extend(c);
                }
            }
        }
        remove.sort_unstable();
        for i in remove.into_iter().rev() {
            groups.remove(i);
        }
    }
    for (group_a, group_b, start, end) in splits {
        let node = group_a.first().copied().unwrap_or_default();
        out.push(ExtractedFault {
            node,
            ts: start,
            action: FaultAction::Partition {
                kind: PartitionKind::Split { group_a, group_b },
                duration: Some(end - start),
            },
            preceding: preceding(node, start),
            ei: None,
        });
    }

    for g in groups {
        let node = g.src.node().unwrap_or_default();
        let duration = Some(g.end - g.start);
        let action = if distinct(&g.dsts) >= 2 {
            FaultAction::Partition {
                kind: PartitionKind::IsolateNode(node),
                duration,
            }
        } else {
            FaultAction::Partition {
                kind: PartitionKind::Link {
                    src: node,
                    dst: g.dsts[0].node().unwrap_or_default(),
                },
                duration,
            }
        };
        out.push(ExtractedFault {
            node,
            ts: g.start,
            action,
            preceding: preceding(node, g.start),
            ei: None,
        });
    }
    out
}

fn distinct(ips: &[IpAddr]) -> usize {
    ips.iter().collect::<std::collections::BTreeSet<_>>().len()
}

/// Two-colors the endpoints of silent pairs so that every pair crosses
/// sides. Returns the two sides as sorted node lists, or `None` when no
/// consistent bipartition exists (the silences describe independent cuts,
/// not one group split).
fn two_color(pairs: &[(IpAddr, IpAddr)]) -> Option<(Vec<NodeId>, Vec<NodeId>)> {
    let mut side: BTreeMap<IpAddr, bool> = BTreeMap::new();
    side.insert(pairs.first()?.0, false);
    loop {
        let mut changed = false;
        for (s, d) in pairs {
            match (side.get(s).copied(), side.get(d).copied()) {
                (Some(a), Some(b)) => {
                    if a == b {
                        return None;
                    }
                }
                (Some(a), None) => {
                    side.insert(*d, !a);
                    changed = true;
                }
                (None, Some(b)) => {
                    side.insert(*s, !b);
                    changed = true;
                }
                (None, None) => {}
            }
        }
        if !changed {
            break;
        }
    }
    // Endpoints unreachable from the seed mean the pair set is not one
    // connected cut; refuse to guess.
    if pairs
        .iter()
        .any(|(s, d)| !side.contains_key(s) || !side.contains_key(d))
    {
        return None;
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (ip, colored_b) in side {
        let n = ip.node().unwrap_or_default();
        if colored_b {
            b.push(n);
        } else {
            a.push(n);
        }
    }
    a.sort_unstable();
    b.sort_unstable();
    Some((a, b))
}

/// Drops partition faults that are *symptoms* of a process fault: a paused
/// or crashed node necessarily goes network-silent, so its ND-derived
/// isolation overlapping the PS fault describes the same event. The paper
/// keeps these delays as trace events (they depress the `FR%` reduction,
/// §6.2) but its schedules inject the process fault, not its shadow.
fn absorb_symptom_partitions(faults: &mut Vec<ExtractedFault>) {
    // Intervals during which each node was known to be down/paused.
    let mut downtimes: Vec<(NodeId, SimTime, SimTime)> = Vec::new();
    for f in faults.iter() {
        match &f.action {
            FaultAction::Pause { duration } => {
                // PS events are stamped at pause end.
                let start = SimTime(f.ts.0.saturating_sub(duration.0));
                downtimes.push((f.node, start, f.ts + SimDuration::from_secs(2)));
            }
            FaultAction::Crash => {
                downtimes.push((f.node, f.ts, f.ts + SimDuration::from_secs(6)));
            }
            _ => {}
        }
    }
    faults.retain(|f| {
        let (kind_node, start) = match &f.action {
            FaultAction::Partition {
                kind: PartitionKind::IsolateNode(n),
                ..
            } => (*n, f.ts),
            FaultAction::Partition {
                kind: PartitionKind::Link { src, .. },
                ..
            } => (*src, f.ts),
            _ => return true,
        };
        // Keep the partition unless a downtime of the silent node *began*
        // at (or before) the silence and overlaps it — then the silence is
        // the process fault's shadow, not an independent network fault.
        !downtimes.iter().any(|(n, ds, de)| {
            *n == kind_node
                && *ds <= start + SimDuration::from_secs(2)
                && start <= *de + SimDuration::from_secs(2)
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rose_events::Pid;
    use rose_profile::FaultFingerprint;

    fn scf_event(ts: u64, node: u32, syscall: SyscallId, errno: Errno, path: &str) -> Event {
        Event::new(
            SimTime::from_secs(ts),
            NodeId(node),
            EventKind::Scf {
                pid: Pid(node + 100),
                syscall,
                fd: None,
                path: Some(path.into()),
                errno,
                ei: None,
            },
        )
    }

    fn crash_event(ts: u64, node: u32) -> Event {
        Event::new(
            SimTime::from_secs(ts),
            NodeId(node),
            EventKind::Ps {
                pid: Pid(node + 100),
                state: ProcState::Crashed,
                duration: SimDuration::ZERO,
            },
        )
    }

    fn nd_event(ts: u64, src: u32, dst: u32, dur: u64) -> Event {
        Event::new(
            SimTime::from_secs(ts),
            NodeId(dst - 1),
            EventKind::Nd {
                dst: IpAddr(dst),
                src: IpAddr(src),
                duration: SimDuration::from_secs(dur),
                packet_count: 10,
            },
        )
    }

    fn af_event(ts: u64, node: u32, f: u32) -> Event {
        Event::new(
            SimTime::from_secs(ts),
            NodeId(node),
            EventKind::Af {
                pid: Pid(node + 100),
                function: FunctionId(f),
            },
        )
    }

    fn names() -> BTreeMap<FunctionId, String> {
        [
            (FunctionId(0), "snap".to_string()),
            (FunctionId(1), "elect".to_string()),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn benign_scfs_are_removed_and_counted() {
        let mut profile = Profile::default();
        profile.benign.insert(FaultFingerprint {
            syscall: SyscallId::Stat,
            errno: Errno::Enoent,
            path: Some("/etc/conf".into()),
        });
        let trace = Trace::from_events(vec![
            scf_event(1, 0, SyscallId::Stat, Errno::Enoent, "/etc/conf"),
            scf_event(2, 0, SyscallId::Read, Errno::Eio, "/data/snap"),
        ]);
        let ex = extract_faults(&trace, &profile, &names());
        assert_eq!(ex.stats.total_fault_events, 2);
        assert_eq!(ex.stats.removed_benign, 1);
        assert!((ex.stats.removed_pct() - 50.0).abs() < 1e-9);
        assert_eq!(ex.faults.len(), 1);
        assert!(matches!(
            ex.faults[0].action,
            FaultAction::Scf {
                syscall: SyscallId::Read,
                ..
            }
        ));
    }

    #[test]
    fn repeated_identical_scfs_collapse() {
        let profile = Profile::default();
        let trace = Trace::from_events(vec![
            scf_event(1, 0, SyscallId::Read, Errno::Eio, "/d"),
            scf_event(2, 0, SyscallId::Read, Errno::Eio, "/d"),
            scf_event(3, 1, SyscallId::Read, Errno::Eio, "/d"),
        ]);
        let ex = extract_faults(&trace, &profile, &names());
        // Same node+fingerprint collapses; a different node does not.
        assert_eq!(ex.faults.len(), 2);
        assert_eq!(ex.stats.total_fault_events, 3);
    }

    #[test]
    fn crash_symptom_after_restart_is_collapsed() {
        let profile = Profile::default();
        let trace = Trace::from_events(vec![
            crash_event(10, 0),
            // Restart-crash loop: panics 3 s and 6 s later.
            crash_event(13, 0),
            crash_event(16, 0),
            // An independent crash much later.
            crash_event(60, 0),
        ]);
        let ex = extract_faults(&trace, &profile, &names());
        assert_eq!(ex.faults.len(), 2);
        assert_eq!(ex.stats.total_fault_events, 4);
    }

    #[test]
    fn pause_preserves_duration() {
        let profile = Profile::default();
        let trace = Trace::from_events(vec![Event::new(
            SimTime::from_secs(9),
            NodeId(1),
            EventKind::Ps {
                pid: Pid(101),
                state: ProcState::Waiting,
                duration: SimDuration::from_secs(4),
            },
        )]);
        let ex = extract_faults(&trace, &profile, &names());
        assert_eq!(
            ex.faults[0].action,
            FaultAction::Pause {
                duration: SimDuration::from_secs(4)
            }
        );
    }

    #[test]
    fn overlapping_nds_around_one_node_become_isolation() {
        let profile = Profile::default();
        // Node 0 (ip 1) silent against ips 2 and 3, both directions.
        let trace = Trace::from_events(vec![
            nd_event(20, 1, 2, 8),
            nd_event(20, 1, 3, 8),
            nd_event(21, 2, 1, 8),
            nd_event(21, 3, 1, 8),
        ]);
        let ex = extract_faults(&trace, &profile, &names());
        assert_eq!(ex.faults.len(), 1, "{:?}", ex.faults);
        match &ex.faults[0].action {
            FaultAction::Partition {
                kind: PartitionKind::IsolateNode(n),
                duration,
            } => {
                assert_eq!(*n, NodeId(0));
                assert!(duration.unwrap() >= SimDuration::from_secs(8));
            }
            other => panic!("expected isolation, got {other:?}"),
        }
        assert_eq!(ex.stats.total_fault_events, 4);
    }

    #[test]
    fn complementary_isolations_merge_into_group_split() {
        let profile = Profile::default();
        // A {0,1} | {2,3,4} split (ips {1,2} | {3,4,5}): every node is
        // silent towards the whole other side, so naive per-source grouping
        // would yield five isolations — a full blackout on replay.
        let trace = Trace::from_events(vec![
            nd_event(20, 1, 3, 8),
            nd_event(20, 1, 4, 8),
            nd_event(20, 1, 5, 8),
            nd_event(21, 2, 3, 8),
            nd_event(21, 2, 4, 8),
            nd_event(21, 2, 5, 8),
            nd_event(21, 3, 1, 8),
            nd_event(21, 3, 2, 8),
            nd_event(22, 4, 1, 8),
            nd_event(22, 4, 2, 8),
            nd_event(22, 5, 1, 8),
            nd_event(22, 5, 2, 8),
        ]);
        let ex = extract_faults(&trace, &profile, &names());
        assert_eq!(ex.faults.len(), 1, "{:?}", ex.faults);
        match &ex.faults[0].action {
            FaultAction::Partition {
                kind: PartitionKind::Split { group_a, group_b },
                duration,
            } => {
                assert_eq!(group_a, &vec![NodeId(0), NodeId(1)]);
                assert_eq!(group_b, &vec![NodeId(2), NodeId(3), NodeId(4)]);
                assert!(duration.unwrap() >= SimDuration::from_secs(8));
            }
            other => panic!("expected group split, got {other:?}"),
        }
    }

    #[test]
    fn independent_concurrent_isolations_do_not_merge() {
        let profile = Profile::default();
        // Nodes 0 and 3 (ips 1 and 4) isolated at the same time — including
        // silence towards each other, so the silent pairs admit no
        // bipartition (ip 2 would need both colors).
        let trace = Trace::from_events(vec![
            nd_event(20, 1, 2, 8),
            nd_event(20, 1, 3, 8),
            nd_event(20, 1, 4, 8),
            nd_event(20, 1, 5, 8),
            nd_event(21, 4, 1, 8),
            nd_event(21, 4, 2, 8),
            nd_event(21, 4, 3, 8),
            nd_event(21, 4, 5, 8),
        ]);
        let ex = extract_faults(&trace, &profile, &names());
        assert_eq!(ex.faults.len(), 2, "{:?}", ex.faults);
        assert!(ex.faults.iter().all(|f| matches!(
            f.action,
            FaultAction::Partition {
                kind: PartitionKind::IsolateNode(_),
                ..
            }
        )));
    }

    #[test]
    fn disjoint_nds_become_separate_faults() {
        let profile = Profile::default();
        let trace = Trace::from_events(vec![nd_event(20, 1, 2, 6), nd_event(100, 3, 2, 6)]);
        let ex = extract_faults(&trace, &profile, &names());
        assert_eq!(ex.faults.len(), 2);
        assert!(ex.faults.iter().all(|f| matches!(
            f.action,
            FaultAction::Partition {
                kind: PartitionKind::Link { .. },
                ..
            }
        )));
    }

    #[test]
    fn preceding_functions_resolved_most_recent_first() {
        let profile = Profile::default();
        let trace = Trace::from_events(vec![
            af_event(1, 0, 0),
            af_event(2, 0, 1),
            af_event(3, 1, 0),
            crash_event(5, 0),
        ]);
        let ex = extract_faults(&trace, &profile, &names());
        assert_eq!(
            ex.faults[0].preceding,
            vec!["elect".to_string(), "snap".to_string()]
        );
    }

    #[test]
    fn pause_shadow_partition_is_absorbed() {
        let profile = Profile::default();
        // A 7 s pause of node 0 ending at t=27, plus the ND silences its
        // outage produced (node 0 silent towards ips 2 and 3, ~same span).
        let trace = Trace::from_events(vec![
            Event::new(
                SimTime::from_secs(27),
                NodeId(0),
                EventKind::Ps {
                    pid: Pid(100),
                    state: ProcState::Waiting,
                    duration: SimDuration::from_secs(7),
                },
            ),
            nd_event(27, 1, 2, 7),
            nd_event(27, 1, 3, 7),
        ]);
        let ex = extract_faults(&trace, &profile, &names());
        assert_eq!(ex.faults.len(), 1, "{:?}", ex.faults);
        assert!(matches!(ex.faults[0].action, FaultAction::Pause { .. }));
        // The ND events still count towards FR accounting.
        assert_eq!(ex.stats.total_fault_events, 3);
    }

    #[test]
    fn unrelated_partition_is_kept() {
        let profile = Profile::default();
        // Pause on node 1, isolation of node 0 much later: no absorption.
        let trace = Trace::from_events(vec![
            Event::new(
                SimTime::from_secs(10),
                NodeId(1),
                EventKind::Ps {
                    pid: Pid(101),
                    state: ProcState::Waiting,
                    duration: SimDuration::from_secs(4),
                },
            ),
            nd_event(60, 1, 2, 8),
            nd_event(60, 1, 3, 8),
        ]);
        let ex = extract_faults(&trace, &profile, &names());
        assert_eq!(ex.faults.len(), 2, "{:?}", ex.faults);
        assert!(ex.faults.iter().any(|f| matches!(
            f.action,
            FaultAction::Partition {
                kind: PartitionKind::IsolateNode(NodeId(0)),
                ..
            }
        )));
    }

    #[test]
    fn priority_order_is_ps_nd_scf_chronological() {
        let profile = Profile::default();
        let trace = Trace::from_events(vec![
            scf_event(1, 0, SyscallId::Read, Errno::Eio, "/d"),
            nd_event(30, 1, 2, 6),
            crash_event(40, 2),
            crash_event(60, 1),
        ]);
        let ex = extract_faults(&trace, &profile, &names());
        let order = ex.priority_order();
        let classes: Vec<u8> = order.iter().map(|&i| ex.faults[i].class()).collect();
        assert_eq!(classes, vec![0, 0, 1, 2]);
        // Chronological within PS.
        assert!(ex.faults[order[0]].ts < ex.faults[order[1]].ts);
        // Chronological overall order of `faults` preserved separately.
        assert!(ex.faults.windows(2).all(|w| w[0].ts <= w[1].ts));
    }
}
