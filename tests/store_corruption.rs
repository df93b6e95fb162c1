//! Tier-1 smoke of the store's promise about damaged files: every
//! truncation and every single-bit flip of a small `.rosetrace` (finished,
//! and unfinished as a tracer that died mid-capture leaves it) and of an
//! `RVST` visited set is a typed `StoreError` or the right data — never a
//! panic, never different events.

use std::collections::BTreeSet;
use std::io::Cursor;

use rose::events::{Errno, Event, EventKind, FunctionId, NodeId, Pid, SimTime, SyscallId};
use rose::store::codec::{crc32, write_varint, HEADER_LEN, MAGIC, TRAILER_MAGIC, VERSION};
use rose::store::visited::{decode_visited, encode_visited};
use rose::store::{merge_readers, StoreError, TraceReader, TraceWriter};

const FRAME_CAPACITY: usize = 16;

fn events() -> Vec<Event> {
    (0..50u32)
        .map(|i| {
            let pid = Pid(100 + i % 3);
            let kind = if i % 3 == 0 {
                EventKind::Af {
                    pid,
                    function: FunctionId(i % 7),
                }
            } else {
                EventKind::Scf {
                    pid,
                    syscall: SyscallId::ALL[i as usize % SyscallId::ALL.len()],
                    fd: None,
                    path: Some(format!("/data/log.{}", i % 4).into()),
                    errno: Errno::ALL[i as usize % Errno::ALL.len()],
                    ei: None,
                }
            };
            Event::new(SimTime(1_000 + u64::from(i) * 137), NodeId(i % 3), kind)
        })
        .collect()
}

/// The file's bytes and, when `finish` is off, no index and no trailer.
fn rosetrace(events: &[Event], finish: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = TraceWriter::with_frame_capacity(&mut bytes, FRAME_CAPACITY).unwrap();
    for e in events {
        w.append(e).unwrap();
    }
    if finish {
        w.finish().unwrap();
    } else {
        w.flush_frame().unwrap();
    }
    bytes
}

fn read(bytes: &[u8]) -> Result<Vec<Event>, StoreError> {
    TraceReader::new(Cursor::new(bytes))?.read_all()
}

fn flip(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut damaged = bytes.to_vec();
    damaged[bit / 8] ^= 1 << (bit % 8);
    damaged
}

#[test]
fn a_damaged_rosetrace_is_an_error_or_a_crc_valid_prefix() {
    let events = events();
    let finished = rosetrace(&events, true);
    let unfinished = rosetrace(&events, false);
    assert_eq!(read(&finished).unwrap(), events);
    assert_eq!(read(&unfinished).unwrap(), events);
    assert_eq!(finished[..unfinished.len()], unfinished);

    // Byte offset where each frame ends -> events decoded up to there.
    let reader = TraceReader::new(Cursor::new(&finished)).unwrap();
    let mut boundaries = vec![(reader.frame_metas()[0].offset, 0)];
    for m in reader.frame_metas() {
        let end = m.offset + 8 + u64::from(m.payload_len);
        boundaries.push((end, boundaries.last().unwrap().1 + m.info.events as usize));
    }
    assert_eq!(boundaries.len(), 1 + events.len().div_ceil(FRAME_CAPACITY));

    for file in [&finished, &unfinished] {
        for cut in 0..file.len() {
            let frames = boundaries.iter().find(|(end, _)| *end == cut as u64);
            match (read(&file[..cut]), frames) {
                (Ok(got), Some((_, n))) => assert_eq!(got, events[..*n], "cut at {cut}"),
                (Err(_), None) => {}
                (got, _) => panic!("cut at {cut}: {got:?}"),
            }
        }
        for bit in 0..file.len() * 8 {
            if let Ok(got) = read(&flip(file, bit)) {
                assert_eq!(got, events, "bit {bit}");
            }
        }
    }
}

fn varints(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in values {
        write_varint(&mut out, *v);
    }
    out
}

/// A finished file around one hand-made data payload and a hand-made index
/// payload, in the writer's own framing: length prefixes, valid CRCs, a
/// valid trailer. `index` is given the data frame's offset and length.
fn crafted(data: &[u8], index: impl FnOnce(u64, u64) -> Vec<u8>) -> Vec<u8> {
    let framed = |payload: &[u8]| {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f.extend_from_slice(&crc32(payload).to_le_bytes());
        f
    };
    let mut file = MAGIC.to_vec();
    file.extend_from_slice(&VERSION.to_le_bytes());
    file.resize(HEADER_LEN as usize, 0);
    file.extend(framed(data));
    let index_offset = file.len() as u64;
    let index = framed(&index(HEADER_LEN, data.len() as u64));
    file.extend_from_slice(&index);
    file.extend_from_slice(&index_offset.to_le_bytes());
    file.extend_from_slice(&(index.len() as u32).to_le_bytes());
    file.extend_from_slice(&TRAILER_MAGIC.to_le_bytes());
    file
}

/// An index claiming `frames` frames, with one entry — offset, length,
/// events, then an empty time range on node 0 — and the sorted flag.
fn index_of(frames: u64, offset: u64, len: u64, events: u64) -> Vec<u8> {
    let mut index = varints(&[frames, offset, len, events, 0, 0, 1]);
    index.push(1);
    index
}

#[test]
fn counts_no_file_could_back_are_typed_errors_not_allocations() {
    const HUGE: u64 = 1 << 40;
    let open = |file: &[u8]| TraceReader::new(Cursor::new(file.to_vec()));
    let typed = |e: StoreError| matches!(e, StoreError::Truncated | StoreError::Corrupt(_));

    // The framing helper writes what the writer writes.
    let (payload, info) = rose::store::codec::encode_frame(&events()[..5]);
    let honest = crafted(&payload, |offset, len| {
        let entry = [offset, len, 5, info.min_ts, info.max_ts, info.node_mask];
        let mut index = varints(&[&[1], &entry[..]].concat());
        index.push(1);
        index
    });
    assert_eq!(honest, rosetrace(&events()[..5], true));

    // A frame header claiming 2^40 events, or 2^40 dictionary entries,
    // behind an index that looks sane: the file opens, every read of the
    // frame is refused.
    for header in [[HUGE, 0, 0, 1, 0], [1, 0, 0, 1, HUGE]] {
        let data = varints(&header);
        let file = crafted(&data, |offset, len| index_of(1, offset, len, 1));
        let mut reader = open(&file).unwrap();
        assert!(typed(reader.read_all().unwrap_err()));
        assert!(typed(reader.read_frame(0).unwrap_err()));
        assert!(typed(reader.read_node(NodeId(0)).unwrap_err()));
        assert!(typed(
            reader
                .read_range(SimTime(0), SimTime(u64::MAX))
                .unwrap_err()
        ));
        assert!(typed(
            merge_readers(vec![open(&file).unwrap()]).unwrap_err()
        ));
        // The same frame with no index behind it is met by the scan at open.
        let unfinished = &file[..HEADER_LEN as usize + 8 + data.len()];
        if header[0] == HUGE {
            assert!(typed(open(unfinished).unwrap_err()));
        } else {
            assert!(typed(open(unfinished).unwrap().read_all().unwrap_err()));
        }
    }

    // An index claiming 2^40 frames, 2^40 events in its one frame, or a
    // frame that lies outside the file: refused at open.
    let data = varints(&[0, 0, 0, 0, 0]);
    for index in [
        |offset, len| index_of(HUGE, offset, len, 0),
        |offset, len| index_of(1, offset, len, HUGE),
        |offset, _| index_of(1, offset, HUGE >> 9, 0),
        |_, len| index_of(1, HUGE, len, 0),
    ] as [fn(u64, u64) -> Vec<u8>; 4]
    {
        assert!(typed(open(&crafted(&data, index)).unwrap_err()));
    }
}

#[test]
fn a_damaged_visited_set_is_an_error() {
    let set: BTreeSet<u64> = (1..40u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let bytes = encode_visited(&set);
    assert_eq!(decode_visited(&bytes).unwrap(), set);
    for cut in 0..bytes.len() {
        assert!(decode_visited(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    for bit in 0..bytes.len() * 8 {
        assert!(decode_visited(&flip(&bytes, bit)).is_err(), "bit {bit}");
    }
}
