//! Append-only `.rosetrace` writer.
//!
//! Layout of a finished file:
//!
//! ```text
//! [header 16 B][frame]...[frame][index frame][trailer 16 B]
//! frame   = u32 payload_len · payload · u32 crc32(payload)
//! trailer = u64 index_offset · u32 index_frame_len · u32 TRAILER_MAGIC
//! ```
//!
//! The index frame repeats every frame's offset and [`FrameInfo`] so a
//! reader can seek by time range or node without touching payloads, plus a
//! file-level "sorted by (ts, node)" flag that the streaming merge uses to
//! pick the O(frames-in-flight) path. Files that were never
//! [`TraceWriter::finish`]ed (a tracer died mid-capture) have no index;
//! readers fall back to a sequential scan.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use rose_events::{Event, NodeId, SimTime, Trace};

use crate::codec::{
    crc32, encode_frame, write_varint, FrameInfo, HEADER_LEN, MAGIC, TRAILER_MAGIC, VERSION,
};
use crate::error::StoreError;

/// Default events per frame. Frames are the unit of I/O, of CRC protection,
/// and of merge memory (`merge_readers` holds one frame per input in
/// flight), so this trades seek granularity against per-frame overhead.
pub const DEFAULT_FRAME_CAPACITY: usize = 4096;

/// Location and summary of one written frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Byte offset of the frame (its length prefix) from the file start.
    pub offset: u64,
    /// Payload length in bytes (excluding the length prefix and CRC).
    pub payload_len: u32,
    /// Per-frame event summary.
    pub info: FrameInfo,
}

/// Totals reported by [`TraceWriter::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteSummary {
    /// Total bytes written, header and framing included.
    pub bytes_written: u64,
    /// Data frames written (the index frame is not counted).
    pub frames: usize,
    /// Events written.
    pub events: u64,
    /// Whether every appended event kept `(ts, node)` order.
    pub sorted: bool,
}

/// Streaming encoder for one `.rosetrace` file.
///
/// Events are buffered and flushed as complete frames; [`TraceWriter::finish`]
/// appends the frame index and trailer. The writer is generic over the sink
/// so the same code path serves files, in-memory size probes
/// ([`encoded_trace_bytes`]), and tests.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    frame_capacity: usize,
    pending: Vec<Event>,
    metas: Vec<FrameMeta>,
    bytes_written: u64,
    events: u64,
    sorted: bool,
    last_key: Option<(SimTime, NodeId)>,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) a `.rosetrace` file at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::new(BufWriter::new(File::create(path)?))
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps `sink`, writing the file header immediately.
    pub fn new(sink: W) -> Result<Self, StoreError> {
        Self::with_frame_capacity(sink, DEFAULT_FRAME_CAPACITY)
    }

    /// Like [`TraceWriter::new`] with an explicit events-per-frame bound.
    ///
    /// # Panics
    ///
    /// Panics if `frame_capacity` is zero.
    pub fn with_frame_capacity(mut sink: W, frame_capacity: usize) -> Result<Self, StoreError> {
        assert!(frame_capacity > 0, "frame capacity must be non-zero");
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(&MAGIC);
        header[8..10].copy_from_slice(&VERSION.to_le_bytes());
        // Bytes 10..16: flags + reserved, zero in version 1.
        sink.write_all(&header)?;
        Ok(TraceWriter {
            sink,
            frame_capacity,
            // Reserved as events arrive (see `append`): a writer for a
            // 30-event dump must not pay for a 4096-event frame up front.
            pending: Vec::new(),
            metas: Vec::new(),
            bytes_written: HEADER_LEN,
            events: 0,
            sorted: true,
            last_key: None,
        })
    }

    /// Counts `event` and folds its key into the file's sorted flag.
    fn note(&mut self, event: &Event) {
        let key = (event.ts, event.node);
        if self.last_key.is_some_and(|last| key < last) {
            self.sorted = false;
        }
        self.last_key = Some(key);
        self.events += 1;
    }

    /// Appends one event, flushing a frame when the buffer fills.
    pub fn append(&mut self, event: &Event) -> Result<(), StoreError> {
        self.note(event);
        if self.pending.len() == self.pending.capacity() {
            // Amortized doubling, but never past one frame: the buffer is
            // flushed at `frame_capacity`, so anything beyond it is waste.
            let target = (self.pending.len() * 2).max(16).min(self.frame_capacity);
            self.pending.reserve_exact(target - self.pending.len());
        }
        self.pending.push(event.clone());
        if self.pending.len() >= self.frame_capacity {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Appends a run of events the caller already holds, writing the same
    /// bytes as [`TraceWriter::append`] on each in turn: every full frame is
    /// encoded straight from the slice, and only what tops up a part-filled
    /// frame or is left over after the last full one is buffered.
    pub fn append_slice(&mut self, events: &[Event]) -> Result<(), StoreError> {
        let top_up = match self.pending.len() {
            0 => 0,
            held => self.frame_capacity - held,
        };
        let (head, rest) = events.split_at(top_up.min(events.len()));
        for e in head {
            self.append(e)?;
        }
        // Either the part-filled frame has just been flushed or `rest` is
        // empty: frames cut from here on start where `append` would cut.
        let mut frames = rest.chunks_exact(self.frame_capacity);
        for frame in &mut frames {
            for e in frame {
                self.note(e);
            }
            self.write_frame(frame)?;
        }
        for e in frames.remainder() {
            self.append(e)?;
        }
        Ok(())
    }

    /// Encodes and writes the buffered events as one frame, if any.
    pub fn flush_frame(&mut self) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        // Lent to `write_frame` for the call, then kept for its capacity.
        let mut pending = std::mem::take(&mut self.pending);
        let written = self.write_frame(&pending);
        if written.is_ok() {
            pending.clear();
        }
        self.pending = pending;
        written
    }

    /// Encodes and writes `events` as one frame.
    fn write_frame(&mut self, events: &[Event]) -> Result<(), StoreError> {
        let (payload, info) = encode_frame(events);
        let offset = self.bytes_written;
        self.sink.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.sink.write_all(&payload)?;
        self.sink.write_all(&crc32(&payload).to_le_bytes())?;
        self.bytes_written += 4 + payload.len() as u64 + 4;
        self.metas.push(FrameMeta {
            offset,
            payload_len: payload.len() as u32,
            info,
        });
        Ok(())
    }

    /// Flushes, writes the frame index and trailer, and returns the totals.
    pub fn finish(mut self) -> Result<WriteSummary, StoreError> {
        self.flush_frame()?;
        let index_offset = self.bytes_written;
        let mut payload = Vec::with_capacity(self.metas.len() * 16 + 16);
        write_varint(&mut payload, self.metas.len() as u64);
        for m in &self.metas {
            write_varint(&mut payload, m.offset);
            write_varint(&mut payload, u64::from(m.payload_len));
            write_varint(&mut payload, m.info.events);
            write_varint(&mut payload, m.info.min_ts);
            write_varint(&mut payload, m.info.max_ts);
            write_varint(&mut payload, m.info.node_mask);
        }
        payload.push(u8::from(self.sorted));
        let index_frame_len = 4 + payload.len() as u64 + 4;
        self.sink.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.sink.write_all(&payload)?;
        self.sink.write_all(&crc32(&payload).to_le_bytes())?;

        let mut trailer = [0u8; 16];
        trailer[..8].copy_from_slice(&index_offset.to_le_bytes());
        trailer[8..12].copy_from_slice(&(index_frame_len as u32).to_le_bytes());
        trailer[12..].copy_from_slice(&TRAILER_MAGIC.to_le_bytes());
        self.sink.write_all(&trailer)?;
        self.sink.flush()?;
        self.bytes_written += index_frame_len + 16;
        Ok(WriteSummary {
            bytes_written: self.bytes_written,
            frames: self.metas.len(),
            events: self.events,
            sorted: self.sorted,
        })
    }

    /// Frame metadata collected so far (flushed frames only).
    pub fn frame_metas(&self) -> &[FrameMeta] {
        &self.metas
    }

    /// Whether every event appended so far kept `(ts, node)` order.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }
}

/// Writes a whole trace to `path` as a finished `.rosetrace` file.
pub fn save_trace(path: impl AsRef<Path>, trace: &Trace) -> Result<WriteSummary, StoreError> {
    let mut w = TraceWriter::create(path)?;
    w.append_slice(trace.events())?;
    w.finish()
}

/// Size in bytes of `trace` in the binary codec, without touching disk.
///
/// This is what the tracer's Table 2 accounting reports next to the JSON
/// dump size: the same frames `save_trace` would write, streamed into a
/// counting sink.
pub fn encoded_trace_bytes(trace: &Trace) -> u64 {
    let mut w = TraceWriter::new(std::io::sink()).expect("sink writes cannot fail");
    w.append_slice(trace.events())
        .expect("sink writes cannot fail");
    w.finish().expect("sink writes cannot fail").bytes_written
}
