//! Simulated network: latency, TC-style drop filters, and the XDP ingress
//! tap.
//!
//! Fault injection manipulates the network exactly as the paper's executor
//! does with Linux Traffic Control: install filters that match packets on
//! `(source ip, destination ip)` and drop them. The receiving side exposes
//! an ingress tap (the XDP analogue) through which the tracer observes
//! packets for network-delay detection.

use std::collections::btree_map::{BTreeMap, Entry};

use rose_events::{IpAddr, SimTime};
use serde::{Deserialize, Serialize};

/// A TC drop filter: packets from `src` to `dst` are dropped while the rule
/// is installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropRule {
    /// Source address to match.
    pub src: IpAddr,
    /// Destination address to match.
    pub dst: IpAddr,
}

/// Installed network state.
#[derive(Debug, Default)]
pub struct NetState {
    /// Active drop rules, keyed by an installation id so they can be removed
    /// when a partition heals, each with the instant its heal is due.
    rules: BTreeMap<u64, (DropRule, Option<SimTime>)>,
    next_rule: u64,
    /// Packets dropped by filters, for reporting.
    pub dropped: u64,
    /// Packets delivered, for reporting.
    pub delivered: u64,
}

impl NetState {
    /// An unfiltered network.
    pub fn new() -> Self {
        NetState::default()
    }

    /// Installs a drop filter — one whose removal the caller has scheduled
    /// for `heal_at`, if given — and returns its id.
    pub fn install(&mut self, rule: DropRule, heal_at: Option<SimTime>) -> u64 {
        let id = self.next_rule;
        self.next_rule += 1;
        self.rules.insert(id, (rule, heal_at));
        id
    }

    /// Installs filters that fully isolate `ip`: all traffic in and out of
    /// it (against every peer in `peers`) is dropped. Returns the rule ids.
    pub fn isolate(
        &mut self,
        ip: IpAddr,
        peers: impl IntoIterator<Item = IpAddr>,
        heal_at: Option<SimTime>,
    ) -> Vec<u64> {
        let mut ids = Vec::new();
        for p in peers {
            if p == ip {
                continue;
            }
            ids.push(self.install(DropRule { src: ip, dst: p }, heal_at));
            ids.push(self.install(DropRule { src: p, dst: ip }, heal_at));
        }
        ids
    }

    /// Removes a filter; unknown ids are ignored (the heal may race a dump).
    pub fn remove(&mut self, id: u64) {
        self.rules.remove(&id);
    }

    /// Removes every installed filter.
    pub fn clear(&mut self) {
        self.rules.clear();
    }

    /// Whether a packet `src → dst` passes the installed filters.
    pub fn passes(&self, src: IpAddr, dst: IpAddr) -> bool {
        !self
            .rules
            .values()
            .any(|(r, _)| r.src == src && r.dst == dst)
    }

    /// Number of active rules. Driven by `tests/sim_behaviour.rs` and
    /// rose-inject's `tests/executor_behaviour.rs`, which count what a
    /// healed partition leaves behind.
    pub fn active_rules(&self) -> usize {
        self.rules.len()
    }

    /// Whether a rule is still installed although its heal was due by `now`.
    pub(crate) fn has_overdue_rule(&self, now: SimTime) -> bool {
        self.rules
            .values()
            .any(|(_, heal_at)| heal_at.is_some_and(|at| at <= now))
    }

    /// Records the outcome of a send attempt in the counters.
    pub fn account(&mut self, passed: bool) {
        if passed {
            self.delivered += 1;
        } else {
            self.dropped += 1;
        }
    }
}

/// Receiver-side connection bookkeeping used by the tracer's network-delay
/// detector: last packet time and packet count per `(src, dst)` connection.
#[derive(Debug, Default, Clone)]
pub struct ConnTable {
    conns: BTreeMap<(IpAddr, IpAddr), ConnEntry>,
}

/// Per-connection state.
#[derive(Debug, Clone, Copy)]
pub struct ConnEntry {
    /// When the last packet was seen.
    pub last_seen: SimTime,
    /// Packets seen so far.
    pub packets: u64,
}

impl ConnTable {
    /// An empty table.
    pub fn new() -> Self {
        ConnTable::default()
    }

    /// Records a packet and returns the *previous* entry, which the caller
    /// compares against the delay threshold.
    pub fn record(&mut self, src: IpAddr, dst: IpAddr, now: SimTime) -> Option<ConnEntry> {
        match self.conns.entry((src, dst)) {
            Entry::Occupied(mut e) => {
                let prev = *e.get();
                *e.get_mut() = ConnEntry {
                    last_seen: now,
                    packets: prev.packets + 1,
                };
                Some(prev)
            }
            Entry::Vacant(e) => {
                e.insert(ConnEntry {
                    last_seen: now,
                    packets: 1,
                });
                None
            }
        }
    }

    /// Iterates over all tracked connections (for dump-time flushing of
    /// still-silent connections).
    pub fn iter(&self) -> impl Iterator<Item = (&(IpAddr, IpAddr), &ConnEntry)> {
        self.conns.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_drop_matching_direction_only() {
        let mut n = NetState::new();
        let a = IpAddr(1);
        let b = IpAddr(2);
        n.install(DropRule { src: a, dst: b }, None);
        assert!(!n.passes(a, b));
        assert!(n.passes(b, a));
    }

    #[test]
    fn isolate_cuts_both_directions() {
        let mut n = NetState::new();
        let ips: Vec<IpAddr> = (1..=3).map(IpAddr).collect();
        let ids = n.isolate(ips[0], ips.iter().copied(), None);
        assert_eq!(ids.len(), 4);
        assert!(!n.passes(ips[0], ips[1]));
        assert!(!n.passes(ips[2], ips[0]));
        assert!(n.passes(ips[1], ips[2]));
        for id in ids {
            n.remove(id);
        }
        assert!(n.passes(ips[0], ips[1]));
    }

    #[test]
    fn remove_unknown_rule_is_noop() {
        let mut n = NetState::new();
        n.remove(42);
        assert_eq!(n.active_rules(), 0);
    }

    #[test]
    fn conn_table_reports_previous_entry() {
        let mut t = ConnTable::new();
        let (a, b) = (IpAddr(1), IpAddr(2));
        assert!(t.record(a, b, SimTime::from_secs(1)).is_none());
        let prev = t.record(a, b, SimTime::from_secs(9)).unwrap();
        assert_eq!(prev.last_seen, SimTime::from_secs(1));
        assert_eq!(prev.packets, 1);
        let prev = t.record(a, b, SimTime::from_secs(10)).unwrap();
        assert_eq!(prev.packets, 2);
    }
}
