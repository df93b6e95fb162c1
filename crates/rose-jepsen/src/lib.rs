//! Jepsen-style tooling for the Rose reproduction.
//!
//! Two roles, matching the paper's use of Jepsen (§3, §6.1):
//!
//! 1. [`Nemesis`] — randomized crash/pause/partition injection used to
//!    *obtain* buggy production traces, and as the baseline whose replay
//!    rate (~1 % for RedisRaft-43) motivates precise reproduction;
//! 2. [`elle`] — an Elle-style append-list history checker used as the bug
//!    oracle for the Redpanda and MongoDB cases, plus an availability
//!    checker for unavailability bugs.
//!
//! A third checker, [`raft_checker`], guards the in-repo Raft target with
//! the four Raft safety invariants instead of scripted symptom greps.

pub mod elle;
pub mod hunt;
pub mod nemesis;
pub mod raft_checker;

pub use elle::{check_appends, unavailable_tail, Anomaly, ElleReport};
pub use hunt::{whole_node_menu, MenuEntry};
pub use nemesis::{Nemesis, NemesisConfig, NemesisEvent, NemesisOp};
pub use raft_checker::{check_raft, RaftChecker, RaftReport, RaftViolation};
