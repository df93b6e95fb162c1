//! The hunt loop: budget-bounded, co-evolving frontier search.
//!
//! A hunt starts from a single fault-free run and an oracle. The run's
//! observed execution contexts — monitored function entries, syscall
//! execution-index contexts — plus the deterministic whole-node menu
//! (crash/pause/isolate × node × time grid) seed the frontier with
//! single-fault root schedules. Each explored schedule reports the
//! contexts *it* reached; contexts never seen before (recovery paths
//! after a crash, retry paths after a failed write) become the injection
//! sites of that schedule's children, so the search co-evolves with the
//! system's reaction to its own faults — the Box-of-Pain observation
//! that some bugs only become reachable after earlier faults.
//!
//! Determinism contract: the entire hunt — frontier order, visited set,
//! per-run seeds, discovery, log, statistics — is a pure function of
//! (system, config). Workers fan exploration batches out via
//! [`rose_core::ordered_map`]; novelty accounting folds over the ordered
//! results sequentially, and every candidate's run seed derives from its
//! schedule fingerprint, so `--jobs 1` and `--jobs N` produce
//! byte-identical output.

use std::collections::BTreeSet;
use std::path::PathBuf;

use rose_analyze::DiagnosisReport;
use rose_core::{ordered_map, Rose, RoseConfig, TargetSystem};
use rose_events::{fingerprint, Errno, NodeId, SimDuration, SimTime, Trace};
use rose_inject::{
    schedule_fingerprint, Condition, Executor, FaultAction, FaultSchedule, InjectionSite,
    PartitionKind, ScheduledFault, SiteKind,
};
use rose_obs::HuntStats;
use rose_profile::Profile;
use rose_sim::KernelHook;
use rose_trace::Tracer;
use serde::Serialize;

use crate::errno::ErrnoModel;
use crate::frontier::{Candidate, Frontier};
use crate::probe::SiteProbe;

/// Candidates popped per frontier round (one `ordered_map` fan-out).
pub const BATCH: usize = 8;

/// Pause length for function-site pause candidates.
pub const PAUSE: SimDuration = SimDuration::from_secs(8);

/// Maximum faults per schedule (co-evolution depth).
pub const MAX_DEPTH: usize = 3;

/// At most this many newly-seen sites expand into children per run.
pub const CHILDREN_PER_RUN: usize = 12;

/// At most this many syscall-context sites become roots from the baseline
/// run (function sites and menu entries are all kept).
pub const SCF_ROOT_CAP: usize = 64;

/// Time-grid step of the whole-node menu.
pub const TIME_STEP: SimDuration = SimDuration::from_secs(15);

/// The first point of the menu's time grid: the standard Jepsen nemesis's
/// quiet period before its first fault.
const MENU_START: SimDuration = SimDuration::from_secs(5);

/// How long a menu pause or isolation holds: the midpoint of the standard
/// nemesis's duration bounds, the value its RNG draws on average.
const MENU_HOLD: SimDuration = SimDuration::from_secs(7);

/// Hunt campaign configuration. Exploration runs last the target system's
/// [`TargetSystem::run_duration`] under [`RoseConfig::default`].
#[derive(Debug, Clone)]
pub struct HuntConfig {
    /// Exploration-run budget, baseline included. The hunt stops at the
    /// first discovery or when the budget (or frontier) is exhausted.
    pub budget: usize,
    /// Worker threads for exploration batches and the hand-off. Purely a
    /// wall-clock knob: results are bit-identical at every value.
    pub jobs: usize,
    /// Campaign seed: per-candidate run seeds and errno picks derive
    /// from it.
    pub seed: u64,
    /// Where the visited set persists across campaigns (`None` = in
    /// memory only).
    pub visited_path: Option<PathBuf>,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            budget: 200,
            jobs: 1,
            seed: 42,
            visited_path: None,
        }
    }
}

/// One line of the frontier log: what one exploration run did. The log
/// (serialized as JSONL by the bench bin) is part of the determinism
/// surface the `--jobs` gate compares byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrontierRecord {
    /// 1-based exploration run index.
    pub run: usize,
    /// Faults in the explored schedule (0 = the fault-free baseline).
    pub depth: usize,
    /// Frontier priority the candidate carried.
    pub score: u64,
    /// Schedule fingerprint, zero-padded hex.
    pub fingerprint: String,
    /// `Faults Inj` style schedule summary.
    pub summary: String,
    /// Faults that actually fired.
    pub injected: usize,
    /// Execution contexts this run saw for the first time.
    pub novelty: usize,
    /// Whether the oracle fired.
    pub oracle: bool,
}

/// A confirmed discovery: the winning schedule and the diagnosis that
/// vouches for it.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// The schedule whose exploration run fired the oracle: never the
    /// fault-free baseline, so it holds at least one fault.
    pub schedule: FaultSchedule,
    /// The seed of that run.
    pub seed: u64,
    /// 1-based exploration run that discovered it.
    pub run: usize,
    /// That run's tracer dump, taken when the oracle fired — the
    /// production-style trace the hand-off diagnosed.
    pub trace: Trace,
    /// The Level-2.5 diagnosis hand-off: the discovery run's dump
    /// re-diagnosed with the winning schedule as the seed guess, causal
    /// provenance on.
    pub report: DiagnosisReport,
}

/// Everything a hunt returns.
#[derive(Debug)]
pub struct HuntOutcome {
    /// Summary statistics (the `PhaseRecord::Hunt` payload).
    pub stats: HuntStats,
    /// The discovery, if the oracle fired within budget.
    pub discovery: Option<Discovery>,
    /// Per-run frontier log in exploration order.
    pub log: Vec<FrontierRecord>,
    /// The visited set after the hunt (already persisted when
    /// [`HuntConfig::visited_path`] is set).
    pub visited: BTreeSet<u64>,
}

/// The per-candidate run seed: campaign seed mixed with the schedule
/// fingerprint, so every schedule gets a distinct, stable seed no matter
/// when (or on which worker) it runs.
fn derive_seed(campaign: u64, schedule_fp: u64) -> u64 {
    fingerprint::mix(campaign ^ fingerprint::mix(schedule_fp))
}

/// The deterministic whole-node menu: a crash, a pause and an isolation of
/// every node at every point of the [`TIME_STEP`] grid in
/// `[MENU_START, horizon)`, in (time, node, fault) order. These are the
/// faults the randomized Jepsen nemesis draws from, laid out for a search
/// that must enumerate, dedupe and revisit them.
fn whole_node_faults(cluster: u32, horizon: SimDuration) -> Vec<ScheduledFault> {
    let mut menu = Vec::new();
    let mut after = MENU_START;
    while after < horizon {
        for node in (0..cluster).map(NodeId) {
            let actions = [
                FaultAction::Crash,
                FaultAction::Pause {
                    duration: MENU_HOLD,
                },
                FaultAction::Partition {
                    kind: PartitionKind::IsolateNode(node),
                    duration: Some(MENU_HOLD),
                },
            ];
            menu.extend(actions.map(|action| {
                ScheduledFault::new(node, action).after(Condition::TimeElapsed { after })
            }));
        }
        after += TIME_STEP;
    }
    menu
}

/// Builds the candidate for `base + fault`, order-enforced so exploration
/// (which runs through [`Executor::new`]) and the diagnosis confirmation
/// (which replays the seed schedule verbatim) execute the exact same
/// conditions.
fn extend(base: &FaultSchedule, fault: ScheduledFault, score: u64) -> Candidate {
    let mut schedule = base.clone();
    schedule.push(fault);
    schedule.enforce_order();
    let fingerprint = schedule_fingerprint(&schedule);
    Candidate {
        depth: schedule.len(),
        schedule,
        fingerprint,
        score,
    }
}

/// All candidates one site contributes on top of `base`. The errno of
/// syscall-failure candidates comes from the realism model, salted with
/// the site fingerprint and the campaign seed.
fn site_candidates(
    base: &FaultSchedule,
    site: &InjectionSite,
    score: u64,
    campaign_seed: u64,
) -> Vec<Candidate> {
    let errno = match &site.kind {
        SiteKind::SyscallContext { syscall, .. } => {
            ErrnoModel.pick(*syscall, site.fingerprint() ^ campaign_seed)
        }
        SiteKind::Function { .. } => Errno::Eio, // unused by function sites
    };
    site.faults(errno, PAUSE)
        .into_iter()
        .map(|fault| extend(base, fault, score))
        .collect()
}

/// Folds one run's observed sites into the visited set. Returns the
/// newly-seen sites in fingerprint order (deduped — a fingerprint seen
/// twice in one run counts once) and their count, the run's novelty.
fn absorb(visited: &mut BTreeSet<u64>, sites: &[InjectionSite]) -> Vec<InjectionSite> {
    let mut fresh: Vec<(u64, InjectionSite)> = Vec::new();
    for site in sites {
        let fp = site.fingerprint();
        if visited.insert(fp) {
            fresh.push((fp, site.clone()));
        }
    }
    fresh.sort_by_key(|a| a.0);
    fresh.into_iter().map(|(_, s)| s).collect()
}

/// What one exploration run yields.
struct ExploreRun {
    /// The tracer's dump at detection, when the oracle fired.
    trace: Option<Trace>,
    sites: Vec<InjectionSite>,
    injected: usize,
    elapsed: SimDuration,
}

/// Runs one exploration deployment: executor + production tracer + the
/// zero-charge site probe. The hook stack is a scripted capture's stack
/// plus the probe, and the probe charges nothing — so the dump of a run
/// that fires the oracle is the trace [`Rose::capture_trace`] yields under
/// `Executor::new(schedule)` for the same seed (pinned by
/// `rose-bench/tests/hunt_handoff.rs`).
fn explore_run<S: TargetSystem>(
    rose: &Rose<S>,
    profile: &Profile,
    schedule: &FaultSchedule,
    seed: u64,
    duration: SimDuration,
) -> ExploreRun {
    let hooks: Vec<Box<dyn KernelHook>> = vec![
        Box::new(Executor::new(schedule.clone())),
        Box::new(Tracer::new(rose.tracer_config(profile))),
        Box::new(SiteProbe::new()),
    ];
    let mut sim = rose.deploy(seed, hooks);
    sim.start();
    // Stop at first detection, like the capture phase, so the dumped
    // window ends at the bug.
    let bug = rose.poll_oracle(&mut sim, duration, |_| true);
    let now = sim.now();
    let trace = bug.then(|| sim.hook_mut::<Tracer>().expect("tracer attached").dump(now));
    let injected = sim
        .hook_ref::<Executor>()
        .expect("executor attached")
        .feedback()
        .injected
        .len();
    let probe = sim.hook_ref::<SiteProbe>().expect("probe attached");
    ExploreRun {
        trace,
        sites: probe.sites(),
        injected,
        elapsed: now.since(SimTime::ZERO),
    }
}

/// Runs a hunting campaign against a target system, identified only by
/// its oracle. Returns the outcome (statistics, log, optional confirmed
/// discovery); persists the visited set when the configuration names a
/// path.
pub fn hunt<S: TargetSystem>(
    system: S,
    label: &str,
    cfg: &HuntConfig,
) -> Result<HuntOutcome, rose_store::StoreError> {
    // Exploration runs are sequential inside: workers are the hunt's own
    // fan-out, and they share this one toolchain.
    let rose = Rose::new(system.clone());
    let profile = rose.profile();
    let duration = system.run_duration();

    let mut visited: BTreeSet<u64> = match &cfg.visited_path {
        Some(path) => rose_store::load_visited(path)?,
        None => BTreeSet::new(),
    };
    let preloaded = visited.len();
    let mut frontier = Frontier::new();
    let mut log: Vec<FrontierRecord> = Vec::new();
    let mut runs = 0usize;
    let mut virtual_secs = 0f64;
    let mut max_depth = 0usize;
    let mut winner: Option<(FaultSchedule, u64, usize, Trace)> = None;

    // Run 1: the fault-free baseline that seeds the site vocabulary.
    let baseline = FaultSchedule::new();
    let baseline_fp = schedule_fingerprint(&baseline);
    let baseline_seed = derive_seed(cfg.seed, baseline_fp);
    let base = explore_run(&rose, &profile, &baseline, baseline_seed, duration);
    runs += 1;
    virtual_secs += base.elapsed.as_secs_f64();
    let fresh = absorb(&mut visited, &base.sites);
    log.push(FrontierRecord {
        run: runs,
        depth: 0,
        score: 0,
        fingerprint: format!("{baseline_fp:016x}"),
        summary: "fault-free".to_string(),
        injected: 0,
        novelty: fresh.len(),
        oracle: base.trace.is_some(),
    });
    // A baseline that fires the oracle is logged as such and is not a
    // discovery: a failure no fault is needed for is not an
    // external-fault-induced one, so every discovery carries a fault.
    //
    // Roots: the whole-node menu…
    let horizon_us = duration
        .as_micros()
        .saturating_sub(SimDuration::from_secs(20).as_micros());
    let horizon = SimDuration::from_micros(horizon_us);
    // Menu and site roots share one score: the frontier's fingerprint
    // tiebreak interleaves coarse whole-node faults with surgical
    // context candidates, which empirically lands the quick wins of
    // both families early instead of serializing one family behind
    // the other.
    for fault in whole_node_faults(system.cluster_size(), horizon) {
        frontier.push(extend(&baseline, fault, 1));
    }
    // …plus the contexts the baseline itself exposed: every function
    // site, and the first `SCF_ROOT_CAP` syscall contexts by
    // fingerprint.
    let mut scf_roots = 0usize;
    for site in &fresh {
        if matches!(site.kind, SiteKind::SyscallContext { .. }) {
            scf_roots += 1;
            if scf_roots > SCF_ROOT_CAP {
                continue;
            }
        }
        for cand in site_candidates(&baseline, site, 1, cfg.seed) {
            frontier.push(cand);
        }
    }

    // The frontier rounds: pop a batch, fan it out, fold results in order.
    while winner.is_none() && runs < cfg.budget && !frontier.is_empty() {
        let batch = frontier.pop_batch(BATCH.min(cfg.budget - runs));
        let results = ordered_map(cfg.jobs, batch, |cand| {
            let seed = derive_seed(cfg.seed, cand.fingerprint);
            let run = explore_run(&rose, &profile, &cand.schedule, seed, duration);
            (cand, seed, run)
        });
        for (cand, seed, run) in results {
            runs += 1;
            virtual_secs += run.elapsed.as_secs_f64();
            max_depth = max_depth.max(cand.depth);
            let fresh = absorb(&mut visited, &run.sites);
            log.push(FrontierRecord {
                run: runs,
                depth: cand.depth,
                score: cand.score,
                fingerprint: format!("{:016x}", cand.fingerprint),
                summary: cand.schedule.summary(),
                injected: run.injected,
                novelty: fresh.len(),
                oracle: run.trace.is_some(),
            });
            if let Some(trace) = run.trace {
                winner = Some((cand.schedule.clone(), seed, runs, trace));
                break;
            }
            // Co-evolution: newly-revealed contexts become this
            // schedule's children — but only if every parent fault
            // actually fired (otherwise the child's order prerequisites
            // could never be satisfied either).
            if cand.depth < MAX_DEPTH && run.injected >= cand.schedule.len() {
                let novelty = fresh.len() as u64;
                for site in fresh.iter().take(CHILDREN_PER_RUN) {
                    for child in site_candidates(&cand.schedule, site, novelty, cfg.seed) {
                        frontier.push(child);
                    }
                }
            }
        }
    }

    if let Some(path) = &cfg.visited_path {
        rose_store::save_visited(path, &visited)?;
    }

    // Hand-off: the discovery run's dump is a production-style trace —
    // its window ends at the bug, exactly like a monitored production
    // incident — re-diagnosed at Level 2.5 with the winning schedule as
    // the seed guess and causal provenance on.
    let discovery = winner.map(|(schedule, seed, run, trace)| {
        let mut hand_cfg = RoseConfig {
            jobs: cfg.jobs,
            causal: true,
            ..RoseConfig::default()
        };
        hand_cfg.diagnosis.speculation = cfg.jobs;
        hand_cfg.diagnosis.seed_schedule = Some(schedule.clone());
        let report = Rose::with_config(system.clone(), hand_cfg).reproduce(&profile, &trace);
        Discovery {
            schedule,
            seed,
            run,
            trace,
            report,
        }
    });

    let stats = HuntStats {
        bug: label.to_string(),
        budget_runs: cfg.budget,
        runs,
        candidates: frontier.seen(),
        contexts_visited: visited.len(),
        contexts_new: visited.len() - preloaded,
        max_depth,
        discovered: discovery.is_some(),
        discovery_run: discovery.as_ref().map_or(0, |d| d.run),
        schedule_faults: discovery.as_ref().map_or(0, |d| d.schedule.len()),
        confirmed: discovery.as_ref().is_some_and(|d| d.report.reproduced),
        replay_rate_pct: discovery.as_ref().map_or(0.0, |d| d.report.replay_rate),
        virtual_secs,
    };
    Ok(HuntOutcome {
        stats,
        discovery,
        log,
        visited,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }

    #[test]
    fn menu_timing_is_the_standard_nemesis() {
        let standard = rose_jepsen::NemesisConfig::standard(3, 0);
        assert_eq!(MENU_START, standard.start_after);
        let (lo, hi) = standard.duration;
        let midpoint = SimDuration::from_micros((lo.as_micros() + hi.as_micros()) / 2);
        assert_eq!(MENU_HOLD, midpoint);
    }

    #[test]
    fn menu_covers_the_grid_in_time_node_fault_order() {
        // Grid times 5, 20, 35 s × 3 nodes × crash/pause/isolate.
        let horizon = SimDuration::from_secs(50);
        let menu = whole_node_faults(3, horizon);
        assert_eq!(menu.len(), 3 * 3 * 3);
        assert_eq!(menu, whole_node_faults(3, horizon));
        let secs = SimDuration::from_secs;
        for (i, fault) in menu.iter().enumerate() {
            let (time, node, op) = (i / 9, i / 3 % 3, i % 3);
            assert_eq!(fault.node, NodeId(node as u32));
            assert_eq!(
                fault.conditions,
                [Condition::TimeElapsed {
                    after: MENU_START + secs(15 * time as u64)
                }]
            );
            let hold = MENU_HOLD;
            let want = match op {
                0 => FaultAction::Crash,
                1 => FaultAction::Pause { duration: hold },
                _ => FaultAction::Partition {
                    kind: PartitionKind::IsolateNode(fault.node),
                    duration: Some(hold),
                },
            };
            assert_eq!(fault.action, want, "entry {i}");
        }
        // The horizon is exclusive: a grid point on it is not in the menu.
        assert_eq!(whole_node_faults(3, secs(35)).len(), 2 * 9);
        assert!(whole_node_faults(3, MENU_START).is_empty());
    }

    #[test]
    fn extend_enforces_order_and_fingerprints_the_enforced_form() {
        let base = FaultSchedule::new();
        let first = extend(
            &base,
            ScheduledFault::new(NodeId(0), FaultAction::Crash).after(Condition::TimeElapsed {
                after: SimDuration::from_secs(5),
            }),
            1,
        );
        assert_eq!(first.depth, 1);
        let second = extend(
            &first.schedule,
            ScheduledFault::new(NodeId(1), FaultAction::Crash).after(Condition::FunctionEntered {
                name: "recover".into(),
            }),
            3,
        );
        assert_eq!(second.depth, 2);
        assert_eq!(
            second.schedule.faults[1].conditions[0],
            Condition::AfterFault { fault: 0 },
            "children must wait for their parent faults"
        );
        assert_eq!(
            second.fingerprint,
            schedule_fingerprint(&second.schedule),
            "fingerprint covers the order-enforced schedule"
        );
    }

    #[test]
    fn absorb_reports_only_fresh_sites_in_fingerprint_order() {
        let site = |node: u32, name: &str| InjectionSite {
            node: NodeId(node),
            kind: SiteKind::Function { name: name.into() },
        };
        let mut visited = BTreeSet::new();
        let fresh = absorb(&mut visited, &[site(0, "a"), site(1, "b"), site(0, "a")]);
        assert_eq!(fresh.len(), 2);
        let fps: Vec<u64> = fresh.iter().map(InjectionSite::fingerprint).collect();
        let mut sorted = fps.clone();
        sorted.sort_unstable();
        assert_eq!(fps, sorted);
        assert!(absorb(&mut visited, &[site(0, "a")]).is_empty());
        assert_eq!(visited.len(), 2);
    }
}
