//! Tier-1 smoke of the store's promise about damaged files: every
//! truncation and every single-bit flip of a small `.rosetrace` (finished,
//! and unfinished as a tracer that died mid-capture leaves it) and of an
//! `RVST` visited set is a typed `StoreError` or the right data — never a
//! panic, never different events.

use std::collections::BTreeSet;
use std::io::Cursor;

use rose::events::{Errno, Event, EventKind, FunctionId, NodeId, Pid, SimTime, SyscallId};
use rose::store::visited::{decode_visited, encode_visited};
use rose::store::{StoreError, TraceReader, TraceWriter};

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
                    path: Some(format!("/data/log.{}", i % 4)),
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
