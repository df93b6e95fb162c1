//! Evaluation harness library: the YCSB-style workload and the Redis-like
//! key-value cluster used by the paper's tracer-overhead study (Table 2),
//! plus the flag parser, reporting and table-rendering helpers shared by
//! the harness binaries.

pub mod args;
pub mod rediskv;
pub mod report;
pub mod table;
pub mod ycsb;

pub use rediskv::{RedisKv, YcsbClient};
pub use report::ReportSink;
pub use ycsb::{YcsbConfig, ZipfSampler};
