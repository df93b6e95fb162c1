//! `.rosetrace` reader with frame-granular seeks.
//!
//! A finished file is opened through its index: frame offsets and summaries
//! come from the trailer, so time-range and per-node reads decode only the
//! frames that can match. Unfinished files (no trailer — a tracer that died
//! mid-capture) are scanned sequentially once at open to rebuild the same
//! metadata, CRC-checking every frame along the way.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use rose_events::{Event, NodeId, SimTime, Trace};

use crate::codec::{
    bounded_count, crc32, decode_frame_into, parse_frame_header, read_varint, FrameInfo,
    HEADER_LEN, MAGIC, MIN_EVENT_LEN, TRAILER_LEN, TRAILER_MAGIC, VERSION,
};
use crate::error::StoreError;
use crate::writer::FrameMeta;

/// Random-access reader over one `.rosetrace` file (or any `Read + Seek`
/// source, e.g. an in-memory buffer in tests).
#[derive(Debug)]
pub struct TraceReader<R: Read + Seek> {
    src: R,
    metas: Vec<FrameMeta>,
    /// `Some` when the file had an index (the writer recorded whether all
    /// appends kept `(ts, node)` order); `None` for scanned files.
    sorted: Option<bool>,
    /// The payload of the frame being decoded, reused from frame to frame.
    payload: Vec<u8>,
}

impl TraceReader<File> {
    /// Opens a `.rosetrace` file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::new(File::open(path)?)
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Validates the header and loads frame metadata (from the index when
    /// the file was finished, otherwise via a sequential CRC-checked scan).
    pub fn new(mut src: R) -> Result<Self, StoreError> {
        let mut header = [0u8; HEADER_LEN as usize];
        src.seek(SeekFrom::Start(0))?;
        read_exact_or_truncated(&mut src, &mut header)?;
        if header[..8] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let size = src.seek(SeekFrom::End(0))?;

        if let Some((metas, sorted)) = try_load_index(&mut src, size)? {
            return Ok(TraceReader {
                src,
                metas,
                sorted: Some(sorted),
                payload: Vec::new(),
            });
        }

        // No (valid) index: scan frame by frame. Every payload is read and
        // CRC-checked here, so corruption surfaces at open time.
        let mut metas = Vec::new();
        let mut payload = Vec::new();
        let mut pos = HEADER_LEN;
        src.seek(SeekFrom::Start(pos))?;
        while pos < size {
            if pos + 8 > size {
                return Err(StoreError::Truncated);
            }
            let mut len_buf = [0u8; 4];
            read_exact_or_truncated(&mut src, &mut len_buf)?;
            let payload_len = u32::from_le_bytes(len_buf);
            if pos + 8 + u64::from(payload_len) > size {
                return Err(StoreError::Truncated);
            }
            payload.resize(payload_len as usize, 0);
            read_exact_or_truncated(&mut src, &mut payload)?;
            let mut crc_buf = [0u8; 4];
            read_exact_or_truncated(&mut src, &mut crc_buf)?;
            if crc32(&payload) != u32::from_le_bytes(crc_buf) {
                return Err(StoreError::BadCrc { frame: metas.len() });
            }
            let (info, header_len) = parse_frame_header(&payload)?;
            bounded_count(info.events, MIN_EVENT_LEN, payload.len() - header_len)?;
            metas.push(FrameMeta {
                offset: pos,
                payload_len,
                info,
            });
            pos += 8 + u64::from(payload_len);
        }
        Ok(TraceReader {
            src,
            metas,
            sorted: None,
            payload,
        })
    }

    /// Number of data frames.
    pub fn frame_count(&self) -> usize {
        self.metas.len()
    }

    /// All frame metadata, in file order.
    pub fn frame_metas(&self) -> &[FrameMeta] {
        &self.metas
    }

    /// Total events across all frames (from metadata, no decoding).
    pub fn event_count(&self) -> u64 {
        self.metas.iter().map(|m| m.info.events).sum()
    }

    /// Whether the file's events are sorted by `(ts, node)`: `Some` from
    /// the index of a finished file, `None` when the file had to be
    /// scanned (order unknown without decoding).
    pub fn is_sorted(&self) -> Option<bool> {
        self.sorted
    }

    /// Reads and decodes frame `i`, verifying its CRC.
    pub fn read_frame(&mut self, i: usize) -> Result<Vec<Event>, StoreError> {
        let mut events = Vec::new();
        self.read_frame_into(i, &mut events)?;
        Ok(events)
    }

    /// Reads frame `i`, verifies its CRC and decodes it onto the end of
    /// `out`; returns how many events that was. On an error `out` is as it
    /// was found.
    pub fn read_frame_into(&mut self, i: usize, out: &mut Vec<Event>) -> Result<usize, StoreError> {
        let meta = *self
            .metas
            .get(i)
            .ok_or_else(|| StoreError::corrupt(format!("frame {i} out of range")))?;
        self.src.seek(SeekFrom::Start(meta.offset))?;
        let mut len_buf = [0u8; 4];
        read_exact_or_truncated(&mut self.src, &mut len_buf)?;
        if u32::from_le_bytes(len_buf) != meta.payload_len {
            return Err(StoreError::corrupt(format!(
                "frame {i} length disagrees with the index"
            )));
        }
        self.payload.resize(meta.payload_len as usize, 0);
        read_exact_or_truncated(&mut self.src, &mut self.payload)?;
        let mut crc_buf = [0u8; 4];
        read_exact_or_truncated(&mut self.src, &mut crc_buf)?;
        if crc32(&self.payload) != u32::from_le_bytes(crc_buf) {
            return Err(StoreError::BadCrc { frame: i });
        }
        decode_frame_into(&self.payload, out)
    }

    /// Decodes every frame in file order.
    pub fn read_all(&mut self) -> Result<Vec<Event>, StoreError> {
        // Every frame's count was held against its payload length at open.
        let mut out = Vec::with_capacity(self.event_count() as usize);
        for i in 0..self.frame_count() {
            self.read_frame_into(i, &mut out)?;
        }
        Ok(out)
    }

    /// Events with `lo <= ts <= hi`, decoding only frames whose timestamp
    /// range intersects the query. Driven, like [`Self::read_node`], by the
    /// root `tests/store_corruption.rs` (every damaged file through every
    /// read path) and `tests/codec_proptests.rs`.
    pub fn read_range(&mut self, lo: SimTime, hi: SimTime) -> Result<Vec<Event>, StoreError> {
        let (mut out, mut frame) = (Vec::new(), Vec::new());
        for i in 0..self.frame_count() {
            if !self.metas[i].info.intersects(lo, hi) {
                continue;
            }
            self.read_frame_into(i, &mut frame)?;
            out.extend(frame.drain(..).filter(|e| lo <= e.ts && e.ts <= hi));
        }
        Ok(out)
    }

    /// Events from one node, decoding only frames whose node bitmask can
    /// contain it.
    pub fn read_node(&mut self, node: NodeId) -> Result<Vec<Event>, StoreError> {
        let (mut out, mut frame) = (Vec::new(), Vec::new());
        for i in 0..self.frame_count() {
            if !self.metas[i].info.may_contain_node(node) {
                continue;
            }
            self.read_frame_into(i, &mut frame)?;
            out.extend(frame.drain(..).filter(|e| e.node == node));
        }
        Ok(out)
    }
}

/// Tries to locate and parse the index frame through the trailer. Returns
/// `Ok(None)` when the file has no (valid-looking) trailer — the caller
/// falls back to scanning, which will surface real corruption.
fn try_load_index<R: Read + Seek>(
    src: &mut R,
    size: u64,
) -> Result<Option<(Vec<FrameMeta>, bool)>, StoreError> {
    if size < HEADER_LEN + TRAILER_LEN {
        return Ok(None);
    }
    src.seek(SeekFrom::Start(size - TRAILER_LEN))?;
    let mut trailer = [0u8; TRAILER_LEN as usize];
    read_exact_or_truncated(src, &mut trailer)?;
    if u32::from_le_bytes(trailer[12..].try_into().unwrap()) != TRAILER_MAGIC {
        return Ok(None);
    }
    let index_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap());
    let index_frame_len = u64::from(u32::from_le_bytes(trailer[8..12].try_into().unwrap()));
    if index_offset < HEADER_LEN
        || index_frame_len < 8
        || index_offset + index_frame_len != size - TRAILER_LEN
    {
        return Ok(None);
    }
    src.seek(SeekFrom::Start(index_offset))?;
    let mut len_buf = [0u8; 4];
    read_exact_or_truncated(src, &mut len_buf)?;
    let payload_len = u32::from_le_bytes(len_buf) as u64;
    if payload_len + 8 != index_frame_len {
        return Ok(None);
    }
    let mut payload = vec![0u8; payload_len as usize];
    read_exact_or_truncated(src, &mut payload)?;
    let mut crc_buf = [0u8; 4];
    read_exact_or_truncated(src, &mut crc_buf)?;
    if crc32(&payload) != u32::from_le_bytes(crc_buf) {
        return Ok(None);
    }

    let mut pos = 0usize;
    let frame_count = read_varint(&payload, &mut pos)?;
    // An index entry is six varints.
    let mut metas = Vec::with_capacity(bounded_count(frame_count, 6, payload.len() - pos)?);
    for i in 0..frame_count {
        let offset = read_varint(&payload, &mut pos)?;
        let payload_len = u32::try_from(read_varint(&payload, &mut pos)?)
            .map_err(|_| StoreError::corrupt("index frame length exceeds u32"))?;
        // Nothing is sized by an entry the file cannot back: the frame lies
        // between the header and the index, and holds the events it claims.
        let end = offset.checked_add(8 + u64::from(payload_len));
        if offset < HEADER_LEN || end.is_none_or(|end| end > index_offset) {
            return Err(StoreError::corrupt(format!(
                "index places frame {i} outside the file's data"
            )));
        }
        let events = read_varint(&payload, &mut pos)?;
        bounded_count(events, MIN_EVENT_LEN, payload_len as usize)?;
        let min_ts = read_varint(&payload, &mut pos)?;
        let max_ts = read_varint(&payload, &mut pos)?;
        let node_mask = read_varint(&payload, &mut pos)?;
        metas.push(FrameMeta {
            offset,
            payload_len,
            info: FrameInfo {
                events,
                min_ts,
                max_ts,
                node_mask,
            },
        });
    }
    let sorted = match payload.get(pos) {
        Some(0) => false,
        Some(1) => true,
        _ => return Err(StoreError::corrupt("index sorted flag missing or invalid")),
    };
    if pos + 1 != payload.len() {
        return Err(StoreError::corrupt("trailing bytes in index frame"));
    }
    Ok(Some((metas, sorted)))
}

fn read_exact_or_truncated<R: Read>(src: &mut R, buf: &mut [u8]) -> Result<(), StoreError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated
        } else {
            StoreError::Io(e)
        }
    })
}

/// Loads a whole `.rosetrace` file back into a [`Trace`].
///
/// The events pass through [`Trace::from_events`], whose stable sort
/// canonicalizes unsorted files and is a no-op (order-preserving, ties
/// included) for traces written by [`crate::save_trace`].
pub fn load_trace(path: impl AsRef<Path>) -> Result<Trace, StoreError> {
    let mut r = TraceReader::open(path)?;
    Ok(Trace::from_events(r.read_all()?))
}
