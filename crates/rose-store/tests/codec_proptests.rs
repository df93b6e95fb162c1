//! Property-based tests of the `.rosetrace` codec: bit-identical round
//! trips over every event kind (extreme timestamps, unicode filenames,
//! captured I/O payloads included), metadata consistency, and frame-by-frame
//! reads equal to full decodes.

use std::io::Cursor;

use proptest::prelude::*;
use rose_events::{
    Errno, Event, EventKind, Fd, FunctionId, IpAddr, Nd, NodeId, Pid, ProcState, Scf, SimDuration,
    SimTime, SlidingWindow, SyscallId, Trace,
};
use rose_store::{TraceReader, TraceWriter};

const UNICODE_PATHS: [&str; 4] = [
    "データ/ログ.log",
    "naïve/fichier-éphémère",
    "снимок/журнал",
    "日志/分片-0001",
];

fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        // SCF in all four fd/path shapes, including unicode paths.
        (
            (0u32..4, 0usize..SyscallId::ALL.len()),
            proptest::option::of(0u32..16),
            proptest::option::of(prop_oneof![
                "[a-z/]{1,12}",
                (0usize..UNICODE_PATHS.len()).prop_map(|i| UNICODE_PATHS[i].to_string()),
            ]),
            0usize..Errno::ALL.len(),
            proptest::option::of((
                proptest::collection::vec("[a-zA-Z_]{1,10}", 0..4),
                1u32..1000,
            )),
        )
            .prop_map(|((p, sys), fd, path, errno, ei)| EventKind::from(Scf {
                pid: Pid(100 + p),
                syscall: SyscallId::ALL[sys],
                fd: fd.map(Fd),
                path: path.map(Into::into),
                errno: Errno::ALL[errno],
                ei: ei.map(|(chain, count)| rose_events::ExecutionIndex::new(chain, count)),
            })),
        (0u32..64, 0u32..4).prop_map(|(f, p)| EventKind::Af {
            pid: Pid(100 + p),
            function: FunctionId(f),
        }),
        (0u32..6, 0u32..6, any::<u64>(), any::<u64>()).prop_map(|(s, d, dur, n)| EventKind::from(
            Nd {
                src: IpAddr(s),
                dst: IpAddr(d),
                duration: SimDuration(dur),
                packet_count: n,
            }
        )),
        (0u32..4, 0usize..4, any::<u64>()).prop_map(|(p, s, dur)| EventKind::Ps {
            pid: Pid(100 + p),
            state: [
                ProcState::Waiting,
                ProcState::Crashed,
                ProcState::Aborted,
                ProcState::Restarted,
            ][s],
            duration: SimDuration(dur),
        }),
        (
            0u32..4,
            0usize..SyscallId::ALL.len(),
            proptest::option::of(proptest::collection::vec(any::<u8>(), 0..128)),
        )
            .prop_map(|(p, sys, content)| EventKind::SyscallOk {
                pid: Pid(100 + p),
                syscall: SyscallId::ALL[sys],
                content: content.map(Into::into),
            }),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    // Timestamps mix the realistic range with the u64 extremes, so the
    // zigzag-delta encoding sees negative deltas, huge jumps, and exact
    // wraparound boundaries.
    let ts = prop_oneof![
        0u64..1_000_000,
        any::<u64>(),
        Just(0u64),
        Just(u64::MAX),
        Just(u64::MAX / 2),
    ];
    (ts, 0u32..80, arb_kind())
        .prop_map(|(ts, node, kind)| Event::new(SimTime(ts), NodeId(node), kind))
}

/// Writes `events` into an in-memory `.rosetrace` file.
fn encode(events: &[Event], frame_capacity: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = TraceWriter::with_frame_capacity(&mut buf, frame_capacity).unwrap();
    for e in events {
        w.append(e).unwrap();
    }
    w.finish().unwrap();
    buf
}

proptest! {
    #[test]
    fn round_trip_is_bit_identical(events in proptest::collection::vec(arb_event(), 0..200),
                                   frame_cap in 1usize..64) {
        let buf = encode(&events, frame_cap);
        let mut r = TraceReader::new(Cursor::new(buf)).unwrap();
        prop_assert_eq!(r.event_count(), events.len() as u64);
        prop_assert_eq!(r.read_all().unwrap(), events);
        // Re-encoding the decoded events reproduces the same bytes: the
        // codec is canonical, not merely lossless.
        let buf = encode(&events, frame_cap);
        let decoded = TraceReader::new(Cursor::new(buf.clone())).unwrap().read_all().unwrap();
        prop_assert_eq!(encode(&decoded, frame_cap), buf);
    }

    #[test]
    fn index_matches_scan(events in proptest::collection::vec(arb_event(), 0..150),
                          frame_cap in 1usize..32) {
        // A finished file read through its index and the same frames read
        // through the no-trailer scan path must agree on all metadata.
        let buf = encode(&events, frame_cap);
        let indexed = TraceReader::new(Cursor::new(buf.clone())).unwrap();
        // Strip the index frame + trailer to force the scan path.
        let data_end = indexed.frame_metas().last()
            .map_or(16, |m| m.offset + 8 + u64::from(m.payload_len));
        let mut scanned = TraceReader::new(Cursor::new(buf[..data_end as usize].to_vec())).unwrap();
        prop_assert_eq!(indexed.frame_metas(), scanned.frame_metas());
        prop_assert!(indexed.is_sorted().is_some());
        prop_assert_eq!(scanned.is_sorted(), None);
        prop_assert_eq!(scanned.read_all().unwrap(), events);
    }

    #[test]
    fn frame_by_frame_reads_equal_full_decode(
        events in proptest::collection::vec(arb_event(), 0..150),
        frame_cap in 1usize..32,
    ) {
        // Frames read in reverse, each onto the front of what came after
        // it, rebuild the file: a frame decodes alone, to exactly the
        // events its summary counts.
        let buf = encode(&events, frame_cap);
        let mut r = TraceReader::new(Cursor::new(buf)).unwrap();
        let mut rebuilt: Vec<Event> = Vec::new();
        for i in (0..r.frame_count()).rev() {
            let mut frame = Vec::new();
            let n = r.read_frame_into(i, &mut frame).unwrap();
            prop_assert_eq!(n as u64, r.frame_metas()[i].info.events);
            prop_assert_eq!(frame.len(), n);
            frame.append(&mut rebuilt);
            rebuilt = frame;
        }
        prop_assert_eq!(rebuilt, events);
    }

    #[test]
    fn sortedness_flag_is_exact(events in proptest::collection::vec(arb_event(), 0..100)) {
        let buf = encode(&events, 16);
        let r = TraceReader::new(Cursor::new(buf)).unwrap();
        let actually_sorted = events.windows(2)
            .all(|w| (w[0].ts, w[0].node) <= (w[1].ts, w[1].node));
        prop_assert_eq!(r.is_sorted(), Some(actually_sorted));
    }

    #[test]
    fn post_wraparound_window_dump_round_trips(
        events in proptest::collection::vec(arb_event(), 0..120),
        cap in 1usize..32,
    ) {
        // The sliding window after wraparound hands its drained buffer to
        // the dump path in push order; the codec must carry that dump through
        // a Trace losslessly even when eviction left the oldest events gone.
        let mut w = SlidingWindow::with_capacity(cap);
        for e in &events {
            w.push(e.clone());
        }
        let trace = Trace::from_events(w.drain());
        let mut buf = Vec::new();
        let mut tw = TraceWriter::with_frame_capacity(&mut buf, 7).unwrap();
        for e in trace.events() {
            tw.append(e).unwrap();
        }
        tw.finish().unwrap();
        let mut r = TraceReader::new(Cursor::new(buf)).unwrap();
        let back = Trace::from_events(r.read_all().unwrap());
        prop_assert_eq!(back, trace);
    }
}
