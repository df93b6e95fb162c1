//! Compact binary trace persistence for the Rose reproduction.
//!
//! The paper's tracer dumps million-event windows and merges per-node
//! traces before diagnosis (§4.4); this crate is the on-disk story for
//! those dumps. It provides:
//!
//! - the `.rosetrace` **codec** ([`codec`]): delta-varint timestamps, a
//!   per-frame path dictionary, single-byte enum tags, and CRC32-framed
//!   payloads behind a versioned header — roughly an order of magnitude
//!   smaller than the JSON dump format and exact to the bit;
//! - an append-only [`TraceWriter`] / seekable [`TraceReader`] pair whose
//!   frame index answers time-range and per-node queries without decoding
//!   unrelated frames;
//! - a streaming [`merge_readers`] k-way merge consuming frames lazily
//!   from N node files in O(frames-in-flight) memory, with the exact tie
//!   semantics of `Trace::merge`.
//!
//! Every fallible path returns a typed [`StoreError`]; corrupted or
//! truncated files never panic.

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod merge;
pub mod reader;
pub mod visited;
pub mod writer;

pub use codec::{FrameInfo, MAGIC, VERSION};
pub use error::StoreError;
pub use merge::{merge_readers, MergeStats};
pub use reader::{load_trace, TraceReader};
pub use visited::{load_visited, save_visited, VISITED_MAGIC, VISITED_VERSION};
pub use writer::{
    encoded_trace_bytes, save_trace, FrameMeta, TraceWriter, WriteSummary, DEFAULT_FRAME_CAPACITY,
};
