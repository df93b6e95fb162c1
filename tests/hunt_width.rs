//! Tier-1 smoke of the hunt's width claim: a campaign is a pure function of
//! its configuration, whatever `jobs` fans its frontier batches across.

use rose::apps::zookeeper::{ZkBug, ZkCase};
use rose::hunt::{hunt, HuntConfig};

#[test]
fn a_hunt_is_the_same_hunt_at_any_width() {
    let campaign = |jobs: usize| {
        let cfg = HuntConfig {
            budget: 24,
            jobs,
            ..HuntConfig::default()
        };
        let case = ZkCase { bug: ZkBug::Zk2247 };
        hunt(case, "Zookeeper-2247", &cfg).expect("in-memory hunt")
    };
    let (one, three) = (campaign(1), campaign(3));
    // 24 runs do not reach the bug, so the whole budget is spent.
    assert_eq!(one.stats.runs, 24);
    assert!(one.discovery.is_none() && three.discovery.is_none());
    assert_eq!(one.log, three.log);
    assert_eq!(one.stats, three.stats);
    assert_eq!(one.visited, three.visited);
}
