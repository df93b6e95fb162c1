//! The `.rosetrace` binary event codec.
//!
//! Events are packed into *frames* of a few thousand events each. Within a
//! frame, timestamps are delta-encoded as zigzag varints against the
//! previous event (the delta of the first event is taken against zero, so a
//! frame is self-contained), SCF path strings are interned into a per-frame
//! dictionary, and enum-like fields (syscall, errno, process state) are
//! single index bytes into the stable `ALL` tables of `rose-events`. Each
//! frame carries a small header (event count, timestamp range, node bitmask)
//! that lets readers skip it without decoding, and a CRC32 footer that turns
//! bit rot into a typed [`StoreError::BadCrc`] instead of garbage events.
//!
//! The encoding is exact: `decode(encode(events)) == events` for every
//! representable event, including `u64::MAX` timestamps (the wrapping delta
//! is bijective modulo 2⁶⁴) and arbitrary Unicode paths.

use std::collections::HashMap;

use rose_events::{
    Errno, Event, EventKind, Fd, FunctionId, IpAddr, NodeId, Pid, ProcState, SimDuration, SimTime,
    SyscallId,
};

use crate::error::StoreError;

/// File magic: the first 8 bytes of every `.rosetrace` file.
pub const MAGIC: [u8; 8] = *b"ROSETRC\0";

/// Current format version, stored in the file header.
pub const VERSION: u16 = 1;

/// Magic closing a finished file's 16-byte trailer (`"ROSI"` little-endian).
pub const TRAILER_MAGIC: u32 = 0x4953_4F52;

/// Size of the fixed file header (magic + version + flags + reserved).
pub const HEADER_LEN: u64 = 16;

/// Size of the fixed file trailer (index offset + index length + magic).
pub const TRAILER_LEN: u64 = 16;

// Event tag byte: low 3 bits select the kind, high bits flag optional
// payload fields. Unused bits must be zero (checked on decode).
const KIND_SCF: u8 = 0;
const KIND_AF: u8 = 1;
const KIND_ND: u8 = 2;
const KIND_PS: u8 = 3;
const KIND_OK: u8 = 4;
const KIND_MASK: u8 = 0x07;
/// SCF: `fd` present. SyscallOk: `content` present.
const FLAG_A: u8 = 0x08;
/// SCF: `path` present.
const FLAG_B: u8 = 0x10;
/// SCF: execution index present (chain frames interned in the path
/// dictionary, then the per-context count).
const FLAG_C: u8 = 0x20;

/// [`ProcState`] index table (part of the on-disk format, like
/// [`SyscallId::ALL`] and [`Errno::ALL`] — do not reorder).
const PROC_STATES: [ProcState; 4] = [
    ProcState::Waiting,
    ProcState::Crashed,
    ProcState::Aborted,
    ProcState::Restarted,
];

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint at `*pos`, advancing it.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(StoreError::Truncated)?;
        *pos += 1;
        let low = u64::from(byte & 0x7f);
        if shift > 63 || (shift == 63 && low > 1) {
            return Err(StoreError::corrupt("varint overflows u64"));
        }
        v |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-encodes a signed delta so small magnitudes stay small varints.
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE 802.3 polynomial) of `data`, eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Summary of one frame, duplicated into the file index (a scan of an
/// unfinished file rebuilds it from the frame headers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Events in the frame.
    pub events: u64,
    /// Smallest timestamp (nanoseconds) in the frame.
    pub min_ts: u64,
    /// Largest timestamp in the frame.
    pub max_ts: u64,
    /// Bit `min(node, 63)` is set for every node appearing in the frame;
    /// bit 63 therefore means "some node ≥ 63" and is only a may-contain.
    pub node_mask: u64,
}

/// The entry `i` of an on-disk index table (`SyscallId::ALL`,
/// `Errno::ALL`, [`PROC_STATES`]); the encoder writes `value as u8`.
fn from_index<T: Copy>(table: &[T], i: u8, what: &str) -> Result<T, StoreError> {
    table
        .get(i as usize)
        .copied()
        .ok_or_else(|| StoreError::corrupt(format!("{what} index {i} out of range")))
}

/// Encodes a batch of events into one frame payload (header + dictionary +
/// packed events, **without** the length prefix and CRC footer — those are
/// the writer's framing).
pub fn encode_frame(events: &[Event]) -> (Vec<u8>, FrameInfo) {
    let mut info = FrameInfo {
        events: events.len() as u64,
        min_ts: u64::MAX,
        max_ts: 0,
        node_mask: 0,
    };
    // First-occurrence string dictionary: SCF paths and execution-index
    // chain frames share one table — both repeat heavily within a frame.
    let mut dict: Vec<&str> = Vec::new();
    let mut dict_map: HashMap<&str, u64> = HashMap::new();
    for e in events {
        info.min_ts = info.min_ts.min(e.ts.0);
        info.max_ts = info.max_ts.max(e.ts.0);
        info.node_mask |= 1u64 << e.node.0.min(63);
        if let EventKind::Scf { path, ei, .. } = &e.kind {
            for s in path
                .as_deref()
                .into_iter()
                .chain(ei.iter().flat_map(|ei| ei.chain.iter().map(String::as_str)))
            {
                dict_map.entry(s).or_insert_with(|| {
                    dict.push(s);
                    (dict.len() - 1) as u64
                });
            }
        }
    }
    if events.is_empty() {
        info.min_ts = 0;
    }

    // Rough pre-size: tag + delta + node + payload ≈ 12 B/event plus dict.
    let mut out = Vec::with_capacity(events.len() * 12 + 64);
    write_varint(&mut out, info.events);
    write_varint(&mut out, info.min_ts);
    write_varint(&mut out, info.max_ts);
    write_varint(&mut out, info.node_mask);
    write_varint(&mut out, dict.len() as u64);
    for s in &dict {
        write_varint(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }

    let mut prev_ts = 0u64;
    for e in events {
        encode_event(&mut out, &dict_map, &mut prev_ts, e);
    }
    (out, info)
}

fn encode_event(out: &mut Vec<u8>, dict_map: &HashMap<&str, u64>, prev_ts: &mut u64, e: &Event) {
    let tag = match &e.kind {
        EventKind::Scf { fd, path, ei, .. } => {
            KIND_SCF
                | if fd.is_some() { FLAG_A } else { 0 }
                | if path.is_some() { FLAG_B } else { 0 }
                | if ei.is_some() { FLAG_C } else { 0 }
        }
        EventKind::Af { .. } => KIND_AF,
        EventKind::Nd { .. } => KIND_ND,
        EventKind::Ps { .. } => KIND_PS,
        EventKind::SyscallOk { content, .. } => {
            KIND_OK | if content.is_some() { FLAG_A } else { 0 }
        }
    };
    out.push(tag);
    // Wrapping zigzag delta: bijective mod 2⁶⁴, so even a u64::MAX → 0
    // timestamp swing round-trips exactly (and costs one byte, not ten).
    let delta = e.ts.0.wrapping_sub(*prev_ts) as i64;
    write_varint(out, zigzag(delta));
    *prev_ts = e.ts.0;
    write_varint(out, u64::from(e.node.0));
    match &e.kind {
        EventKind::Scf {
            pid,
            syscall,
            fd,
            path,
            errno,
            ei,
        } => {
            write_varint(out, u64::from(pid.0));
            out.push(*syscall as u8);
            if let Some(fd) = fd {
                write_varint(out, u64::from(fd.0));
            }
            if let Some(path) = path {
                write_varint(out, dict_map[&**path]);
            }
            out.push(*errno as u8);
            if let Some(ei) = ei {
                write_varint(out, ei.chain.len() as u64);
                for frame in &ei.chain {
                    write_varint(out, dict_map[frame.as_str()]);
                }
                write_varint(out, u64::from(ei.count));
            }
        }
        EventKind::Af { pid, function } => {
            write_varint(out, u64::from(pid.0));
            write_varint(out, u64::from(function.0));
        }
        EventKind::Nd {
            dst,
            src,
            duration,
            packet_count,
        } => {
            write_varint(out, u64::from(dst.0));
            write_varint(out, u64::from(src.0));
            write_varint(out, duration.0);
            write_varint(out, *packet_count);
        }
        EventKind::Ps {
            pid,
            state,
            duration,
        } => {
            write_varint(out, u64::from(pid.0));
            out.push(*state as u8);
            write_varint(out, duration.0);
        }
        EventKind::SyscallOk {
            pid,
            syscall,
            content,
        } => {
            write_varint(out, u64::from(pid.0));
            out.push(*syscall as u8);
            if let Some(content) = content {
                write_varint(out, content.len() as u64);
                out.extend_from_slice(content);
            }
        }
    }
}

/// Parses only the frame header (the [`FrameInfo`] varints) from a payload,
/// returning the info and the offset where the dictionary begins. Used by
/// index-less scans to build frame metadata without decoding events.
pub fn parse_frame_header(payload: &[u8]) -> Result<(FrameInfo, usize), StoreError> {
    let mut pos = 0usize;
    let events = read_varint(payload, &mut pos)?;
    let min_ts = read_varint(payload, &mut pos)?;
    let max_ts = read_varint(payload, &mut pos)?;
    let node_mask = read_varint(payload, &mut pos)?;
    Ok((
        FrameInfo {
            events,
            min_ts,
            max_ts,
            node_mask,
        },
        pos,
    ))
}

/// The fewest bytes one encoded event takes: tag, timestamp delta, node.
pub(crate) const MIN_EVENT_LEN: u64 = 3;

/// Checks a count read from a file against the bytes left to hold that many
/// items of at least `min_len` bytes each, so that no reservation is sized
/// by the file's word alone. Past the bound the items cannot all be there:
/// the same [`StoreError::Truncated`] decoding them would run into.
pub(crate) fn bounded_count(
    count: u64,
    min_len: u64,
    remaining: usize,
) -> Result<usize, StoreError> {
    if count > remaining as u64 / min_len {
        return Err(StoreError::Truncated);
    }
    Ok(count as usize)
}

/// Decodes one frame payload onto the end of `out` and returns how many
/// events that was. On an error `out` is as it was found.
pub fn decode_frame_into(payload: &[u8], out: &mut Vec<Event>) -> Result<usize, StoreError> {
    let start = out.len();
    let decoded = decode_events(payload, out);
    if decoded.is_err() {
        out.truncate(start);
    }
    decoded
}

fn decode_events(payload: &[u8], out: &mut Vec<Event>) -> Result<usize, StoreError> {
    let (info, mut pos) = parse_frame_header(payload)?;
    let dict_len = read_varint(payload, &mut pos)?;
    // Entries borrow the payload; each is at least its length byte.
    let mut dict: Vec<&str> = Vec::with_capacity(bounded_count(dict_len, 1, payload.len() - pos)?);
    for _ in 0..dict_len {
        let len = read_varint(payload, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= payload.len())
            .ok_or(StoreError::Truncated)?;
        let s = core::str::from_utf8(&payload[pos..end])
            .map_err(|_| StoreError::corrupt("dictionary entry is not UTF-8"))?;
        dict.push(s);
        pos = end;
    }

    let events = bounded_count(info.events, MIN_EVENT_LEN, payload.len() - pos)?;
    out.reserve(events);
    let mut prev_ts = 0u64;
    for _ in 0..events {
        out.push(decode_event(payload, &mut pos, &dict, &mut prev_ts)?);
    }
    if pos != payload.len() {
        return Err(StoreError::corrupt(format!(
            "{} trailing bytes after the last event",
            payload.len() - pos
        )));
    }
    Ok(events)
}

fn decode_event(
    buf: &[u8],
    pos: &mut usize,
    dict: &[&str],
    prev_ts: &mut u64,
) -> Result<Event, StoreError> {
    let tag = *buf.get(*pos).ok_or(StoreError::Truncated)?;
    *pos += 1;
    let delta = unzigzag(read_varint(buf, pos)?);
    let ts = prev_ts.wrapping_add(delta as u64);
    *prev_ts = ts;
    let node = read_varint(buf, pos)?;
    let node = NodeId(u32::try_from(node).map_err(|_| StoreError::corrupt("node id exceeds u32"))?);

    let read_u32 = |pos: &mut usize, what: &str| -> Result<u32, StoreError> {
        u32::try_from(read_varint(buf, pos)?)
            .map_err(|_| StoreError::corrupt(format!("{what} exceeds u32")))
    };
    let read_byte = |pos: &mut usize| -> Result<u8, StoreError> {
        let b = *buf.get(*pos).ok_or(StoreError::Truncated)?;
        *pos += 1;
        Ok(b)
    };

    let flags = tag & !KIND_MASK;
    let kind = match tag & KIND_MASK {
        KIND_SCF => {
            if flags & !(FLAG_A | FLAG_B | FLAG_C) != 0 {
                return Err(StoreError::corrupt(format!("bad SCF tag {tag:#04x}")));
            }
            let dict_str = |idx: usize| -> Result<&str, StoreError> {
                dict.get(idx).copied().ok_or_else(|| {
                    StoreError::corrupt(format!("dictionary index {idx} out of range"))
                })
            };
            let pid = Pid(read_u32(pos, "pid")?);
            let syscall = from_index(&SyscallId::ALL, read_byte(pos)?, "syscall")?;
            let fd = if flags & FLAG_A != 0 {
                Some(Fd(read_u32(pos, "fd")?))
            } else {
                None
            };
            let path = if flags & FLAG_B != 0 {
                let idx = read_varint(buf, pos)? as usize;
                Some(dict_str(idx)?.into())
            } else {
                None
            };
            let errno = from_index(&Errno::ALL, read_byte(pos)?, "errno")?;
            let ei = if flags & FLAG_C != 0 {
                let chain_len = read_varint(buf, pos)? as usize;
                // Each chain frame costs at least one byte, so a length past
                // the remaining payload is corruption, not a huge allocation
                // request.
                if chain_len > buf.len() - *pos {
                    return Err(StoreError::corrupt(format!(
                        "EI chain length {chain_len} exceeds remaining payload"
                    )));
                }
                let mut chain = Vec::with_capacity(chain_len);
                for _ in 0..chain_len {
                    let idx = read_varint(buf, pos)? as usize;
                    chain.push(dict_str(idx)?.to_string());
                }
                let count = read_u32(pos, "EI count")?;
                Some(Box::new(rose_events::ExecutionIndex::new(chain, count)))
            } else {
                None
            };
            EventKind::Scf {
                pid,
                syscall,
                fd,
                path,
                errno,
                ei,
            }
        }
        KIND_AF => {
            if flags != 0 {
                return Err(StoreError::corrupt(format!("bad AF tag {tag:#04x}")));
            }
            EventKind::Af {
                pid: Pid(read_u32(pos, "pid")?),
                function: FunctionId(read_u32(pos, "function")?),
            }
        }
        KIND_ND => {
            if flags != 0 {
                return Err(StoreError::corrupt(format!("bad ND tag {tag:#04x}")));
            }
            EventKind::Nd {
                dst: IpAddr(read_u32(pos, "dst ip")?),
                src: IpAddr(read_u32(pos, "src ip")?),
                duration: SimDuration(read_varint(buf, pos)?),
                packet_count: read_varint(buf, pos)?,
            }
        }
        KIND_PS => {
            if flags != 0 {
                return Err(StoreError::corrupt(format!("bad PS tag {tag:#04x}")));
            }
            EventKind::Ps {
                pid: Pid(read_u32(pos, "pid")?),
                state: from_index(&PROC_STATES, read_byte(pos)?, "proc-state")?,
                duration: SimDuration(read_varint(buf, pos)?),
            }
        }
        KIND_OK => {
            if flags & !FLAG_A != 0 {
                return Err(StoreError::corrupt(format!("bad OK tag {tag:#04x}")));
            }
            let pid = Pid(read_u32(pos, "pid")?);
            let syscall = from_index(&SyscallId::ALL, read_byte(pos)?, "syscall")?;
            let content = if flags & FLAG_A != 0 {
                let len = read_varint(buf, pos)? as usize;
                let end = pos
                    .checked_add(len)
                    .filter(|&e| e <= buf.len())
                    .ok_or(StoreError::Truncated)?;
                let c = buf[*pos..end].into();
                *pos = end;
                Some(c)
            } else {
                None
            };
            EventKind::SyscallOk {
                pid,
                syscall,
                content,
            }
        }
        other => return Err(StoreError::corrupt(format!("unknown event kind {other}"))),
    };
    Ok(Event::new(SimTime(ts), node, kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_frame(payload: &[u8]) -> Result<Vec<Event>, StoreError> {
        let mut events = Vec::new();
        decode_frame_into(payload, &mut events)?;
        Ok(events)
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflow() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&buf, &mut pos),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn zigzag_is_bijective_at_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    /// The bytewise CRC32 the sliced one replaced, kept as its reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_one_at_every_length() {
        // 0..=64 covers no word, whole words only, and every remainder.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for len in 0..=bytes.len() {
            for start in 0..=(bytes.len() - len).min(8) {
                let data = &bytes[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "{len} bytes from {start}"
                );
            }
        }
    }

    #[test]
    fn enum_indices_match_declaration_order() {
        // The codec stores `enum as u8` and decodes through the `ALL`
        // tables; this pins the two views together.
        for (i, s) in SyscallId::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert_eq!(from_index(&SyscallId::ALL, i as u8, "syscall").unwrap(), *s);
        }
        for (i, e) in Errno::ALL.iter().enumerate() {
            assert_eq!(*e as usize, i);
            assert_eq!(from_index(&Errno::ALL, i as u8, "errno").unwrap(), *e);
        }
        for (i, s) in PROC_STATES.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert_eq!(from_index(&PROC_STATES, i as u8, "proc-state").unwrap(), *s);
        }
    }

    #[test]
    fn frame_round_trips_a_mixed_batch() {
        let events = vec![
            Event::new(
                SimTime::from_micros(10),
                NodeId(0),
                EventKind::Scf {
                    pid: Pid(7),
                    syscall: SyscallId::Open,
                    fd: None,
                    path: Some("/data/раздел/セグメント.log".into()),
                    errno: Errno::Enoent,
                    ei: Some(Box::new(rose_events::ExecutionIndex::new(
                        vec!["applyEntry".into(), "writeSegment".into()],
                        42,
                    ))),
                },
            ),
            Event::new(
                SimTime::from_micros(5), // out of order on purpose
                NodeId(64),              // past the node-mask overflow bit
                EventKind::Af {
                    pid: Pid(8),
                    function: FunctionId(3),
                },
            ),
            Event::new(
                SimTime(u64::MAX),
                NodeId(2),
                EventKind::Nd {
                    dst: IpAddr(1),
                    src: IpAddr(3),
                    duration: SimDuration::from_secs(6),
                    packet_count: u64::MAX,
                },
            ),
            Event::new(
                SimTime(0),
                NodeId(2),
                EventKind::Ps {
                    pid: Pid(9),
                    state: ProcState::Restarted,
                    duration: SimDuration::ZERO,
                },
            ),
            Event::new(
                SimTime::from_secs(1),
                NodeId(1),
                EventKind::SyscallOk {
                    pid: Pid(1),
                    syscall: SyscallId::Write,
                    content: Some([0, 255, 128].into()),
                },
            ),
        ];
        let (payload, info) = encode_frame(&events);
        assert_eq!(info.events, 5);
        assert_eq!(info.min_ts, 0);
        assert_eq!(info.max_ts, u64::MAX);
        // Node 0's bit, and node 64 folded into bit 63.
        assert_ne!(info.node_mask & 1, 0);
        assert_ne!(info.node_mask & (1 << 63), 0);
        let back = decode_frame(&payload).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn dictionary_dedups_repeated_paths() {
        let path = "/very/long/shared/path/to/a/write-ahead-log/segment-000042.wal";
        let events: Vec<Event> = (0..100)
            .map(|i| {
                Event::new(
                    SimTime::from_micros(i),
                    NodeId(0),
                    EventKind::Scf {
                        pid: Pid(1),
                        syscall: SyscallId::Open,
                        fd: None,
                        path: Some(path.into()),
                        errno: Errno::Eio,
                        ei: None,
                    },
                )
            })
            .collect();
        let (payload, _) = encode_frame(&events);
        // The path is stored once; each event references it by index.
        assert!(payload.len() < path.len() + events.len() * 10);
        assert_eq!(decode_frame(&payload).unwrap(), events);
    }

    #[test]
    fn ei_chains_round_trip_and_share_the_dictionary() {
        // A recursive chain repeats a frame, so chain length may exceed the
        // number of distinct dictionary entries; and a chain frame equal to
        // a path string must be stored once, not twice.
        let shared = "compactLog";
        let events: Vec<Event> = (0..50)
            .map(|i| {
                Event::new(
                    SimTime::from_micros(i),
                    NodeId(0),
                    EventKind::Scf {
                        pid: Pid(1),
                        syscall: SyscallId::Write,
                        fd: Some(Fd(3)),
                        path: Some(shared.into()),
                        errno: Errno::Eio,
                        ei: Some(Box::new(rose_events::ExecutionIndex::new(
                            vec![shared.into(), shared.into(), "fsyncDir".into()],
                            i as u32 + 1,
                        ))),
                    },
                )
            })
            .collect();
        let (payload, _) = encode_frame(&events);
        assert_eq!(decode_frame(&payload).unwrap(), events);
        // Dictionary holds exactly two strings: `shared` and "fsyncDir".
        let mut pos = 0usize;
        for _ in 0..4 {
            read_varint(&payload, &mut pos).unwrap();
        }
        assert_eq!(read_varint(&payload, &mut pos).unwrap(), 2);
    }

    #[test]
    fn oversized_ei_chain_length_is_corrupt_not_oom() {
        let (mut payload, _) = encode_frame(&[Event::new(
            SimTime(1),
            NodeId(0),
            EventKind::Scf {
                pid: Pid(1),
                syscall: SyscallId::Read,
                fd: None,
                path: None,
                errno: Errno::Eio,
                ei: Some(Box::new(rose_events::ExecutionIndex::new(
                    vec!["f".into()],
                    1,
                ))),
            },
        )]);
        // The EI payload sits at the tail: chain_len, idx, count. Overwrite
        // the chain-length varint with a huge value.
        let tail = payload.len() - 3;
        payload.truncate(tail);
        write_varint(&mut payload, u64::MAX >> 1);
        assert!(matches!(
            decode_frame(&payload),
            Err(StoreError::Corrupt(_) | StoreError::Truncated)
        ));
    }

    /// A frame payload that is only its header: the counts, nothing behind.
    fn bare_header(events: u64, dict_len: u64) -> Vec<u8> {
        let mut payload = Vec::new();
        for v in [events, 0, 0, 1, dict_len] {
            write_varint(&mut payload, v);
        }
        payload
    }

    #[test]
    fn counts_the_payload_cannot_back_are_truncation_not_allocation() {
        // 2⁴⁰ events would be a 56 TB reservation, 2⁴⁰ dictionary entries
        // 16 TB: both must be refused before anything is sized by them.
        assert!(matches!(
            decode_frame(&bare_header(1 << 40, 0)),
            Err(StoreError::Truncated)
        ));
        assert!(matches!(
            decode_frame(&bare_header(0, 1 << 40)),
            Err(StoreError::Truncated)
        ));
        // Three events claimed, seven bytes behind: under the 3-byte floor.
        let mut payload = bare_header(3, 0);
        payload.extend_from_slice(&[KIND_AF, 0, 0, 1, 1, KIND_AF, 0]);
        assert!(matches!(decode_frame(&payload), Err(StoreError::Truncated)));
    }

    #[test]
    fn a_failed_decode_leaves_the_destination_as_it_found_it() {
        let af = |f: u32| {
            Event::new(
                SimTime(u64::from(f)),
                NodeId(0),
                EventKind::Af {
                    pid: Pid(1),
                    function: FunctionId(f),
                },
            )
        };
        let (payload, _) = encode_frame(&[af(1), af(2), af(3)]);
        let mut out = vec![af(9)];
        assert_eq!(decode_frame_into(&payload, &mut out).unwrap(), 3);
        assert_eq!(out, [af(9), af(1), af(2), af(3)]);
        // Cut inside the last event: two decode before the error shows.
        let cut = &payload[..payload.len() - 1];
        assert!(decode_frame_into(cut, &mut out).is_err());
        // Trailing garbage: all three decode before the error shows.
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_frame_into(&long, &mut out).is_err());
        assert_eq!(out, [af(9), af(1), af(2), af(3)]);
    }

    #[test]
    fn empty_frame_round_trips() {
        let (payload, info) = encode_frame(&[]);
        assert_eq!(info.events, 0);
        assert!(decode_frame(&payload).unwrap().is_empty());
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let (mut payload, _) = encode_frame(&[Event::new(
            SimTime(1),
            NodeId(0),
            EventKind::Af {
                pid: Pid(1),
                function: FunctionId(1),
            },
        )]);
        payload.push(0);
        assert!(matches!(
            decode_frame(&payload),
            Err(StoreError::Corrupt(_))
        ));
    }
}
