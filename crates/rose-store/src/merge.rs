//! Streaming k-way merge over store-backed node traces.
//!
//! [`merge_readers`] reproduces `Trace::merge`'s semantics — total order by
//! `(ts, node)`, ties across inputs broken by input index, full ties within
//! one input kept in file order — while consuming frames lazily: at any
//! moment at most one frame per input is decoded, so merging N million-event
//! node files peaks at `N × frame_capacity` events in memory instead of the
//! whole cluster trace.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{Read, Seek};

use rose_events::{Event, NodeId, SimTime, Trace};

use crate::error::StoreError;
use crate::reader::TraceReader;

/// Memory/IO accounting for one [`merge_readers`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Events produced.
    pub events_merged: u64,
    /// Frames decoded across all inputs.
    pub frames_read: u64,
    /// High-water mark of decoded-but-unconsumed events across all inputs
    /// — the merge's actual working set, bounded by
    /// `inputs × frame_capacity` for sorted files.
    pub peak_events_in_flight: u64,
}

/// One input's cursor: the frames still on disk plus the buffered tail of
/// the current frame, whose head is the next event to merge.
struct Cursor<R: Read + Seek> {
    reader: TraceReader<R>,
    next_frame: usize,
    buf: std::vec::IntoIter<Event>,
}

impl<R: Read + Seek> Cursor<R> {
    /// Refills until an event is buffered or the input is exhausted. Returns
    /// how many events the refill brought in flight.
    fn fill(&mut self) -> Result<u64, StoreError> {
        let mut loaded = 0u64;
        while self.buf.as_slice().is_empty() && self.next_frame < self.reader.frame_count() {
            let events = self.reader.read_frame(self.next_frame)?;
            self.next_frame += 1;
            loaded += events.len() as u64;
            self.buf = events.into_iter();
        }
        Ok(loaded)
    }

    /// The key of the next event, read where it lies.
    fn key(&self) -> Option<(SimTime, NodeId)> {
        self.buf.as_slice().first().map(|e| (e.ts, e.node))
    }

    fn take(&mut self) -> Event {
        self.buf.next().expect("take() after a successful fill()")
    }
}

/// Merges N store-backed traces into one cluster [`Trace`].
///
/// Sorted inputs (finished files whose index records order) are streamed
/// frame by frame. An input that is unsorted — or whose order is unknown
/// because the file had no index — is loaded and put in canonical order up
/// front by the same [`rose_events::sort_canonical`] `Trace::merge` applies
/// to its dumps; its full size then counts toward `peak_events_in_flight`.
pub fn merge_readers<R: Read + Seek>(
    readers: Vec<TraceReader<R>>,
) -> Result<(Trace, MergeStats), StoreError> {
    let mut stats = MergeStats::default();
    let mut in_flight = 0u64;
    let total: u64 = readers.iter().map(TraceReader::event_count).sum();

    let mut cursors = Vec::with_capacity(readers.len());
    for mut reader in readers {
        let sorted = reader.is_sorted() == Some(true);
        let buf = if sorted {
            Vec::new().into_iter()
        } else {
            let mut events = reader.read_all()?;
            in_flight += events.len() as u64;
            stats.frames_read += reader.frame_count() as u64;
            rose_events::sort_canonical(&mut events);
            events.into_iter()
        };
        cursors.push(Cursor {
            reader,
            // A pre-sorted buffer replaces the file; never re-read frames.
            next_frame: if sorted { 0 } else { usize::MAX },
            buf,
        });
    }

    let mut heap: BinaryHeap<Reverse<((SimTime, NodeId), usize)>> =
        BinaryHeap::with_capacity(cursors.len());
    for (i, cursor) in cursors.iter_mut().enumerate() {
        let loaded = cursor.fill()?;
        if loaded > 0 {
            stats.frames_read += 1;
        }
        in_flight += loaded;
        if let Some(key) = cursor.key() {
            heap.push(Reverse((key, i)));
        }
    }
    stats.peak_events_in_flight = stats.peak_events_in_flight.max(in_flight);

    let mut events = Vec::with_capacity(total as usize);
    while let Some(Reverse((_, i))) = heap.pop() {
        let e = cursors[i].take();
        in_flight -= 1;
        events.push(e);
        let loaded = cursors[i].fill()?;
        if loaded > 0 {
            stats.frames_read += 1;
            in_flight += loaded;
            stats.peak_events_in_flight = stats.peak_events_in_flight.max(in_flight);
        }
        if let Some(key) = cursors[i].key() {
            heap.push(Reverse((key, i)));
        }
    }
    stats.events_merged = events.len() as u64;
    // The inputs were consumed in (ts, node) heap order; the result is
    // already the canonical trace order, no re-sort needed.
    Ok((Trace::from_events(events), stats))
}
