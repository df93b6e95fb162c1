//! End-to-end store tests: file round trips through `save_trace`/`load_trace`, and the compression
//! ratio of the binary codec against the JSON dump on tracer-realistic
//! event mixes.

use rose_events::{
    Errno, Event, EventKind, Fd, FunctionId, IpAddr, Nd, NodeId, Pid, ProcState, Scf, SimDuration,
    SimTime, SyscallId, Trace,
};
use rose_store::codec::encode_frame;
use rose_store::{
    encoded_trace_bytes, load_trace, save_trace, TraceReader, TraceWriter, DEFAULT_FRAME_CAPACITY,
};

/// A tracer-realistic event stream: mostly SCF and AF with recurring paths
/// (what a Rose-mode dump looks like), a sprinkle of ND and PS.
fn realistic_events(n: usize) -> Vec<Event> {
    let paths = [
        "/var/lib/redis/appendonly.aof",
        "/var/lib/redis/dump.rdb",
        "/var/log/redis/redis.log",
        "/etc/redis/redis.conf",
    ];
    (0..n)
        .map(|i| {
            let ts = SimTime(1_700_000_000_000_000 + i as u64 * 137);
            let node = NodeId((i % 3) as u32);
            let kind = match i % 10 {
                0..=5 => EventKind::from(Scf {
                    pid: Pid(100 + (i % 3) as u32),
                    syscall: SyscallId::ALL[i % SyscallId::ALL.len()],
                    fd: Some(Fd((i % 32) as u32)),
                    path: Some(paths[i % paths.len()].into()),
                    errno: Errno::ALL[i % Errno::ALL.len()],
                    ei: None,
                }),
                6..=8 => EventKind::Af {
                    pid: Pid(100 + (i % 3) as u32),
                    function: FunctionId((i % 40) as u32),
                },
                9 if i % 20 == 9 => EventKind::from(Nd {
                    src: IpAddr(1 + (i % 3) as u32),
                    dst: IpAddr(1 + ((i + 1) % 3) as u32),
                    duration: SimDuration::from_secs(6),
                    packet_count: 42,
                }),
                _ => EventKind::Ps {
                    pid: Pid(100 + (i % 3) as u32),
                    state: ProcState::Waiting,
                    duration: SimDuration::from_secs(4),
                },
            };
            Event::new(ts, node, kind)
        })
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rose-store-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn save_and_load_round_trip_a_realistic_trace() {
    let dir = temp_dir("roundtrip");
    let path = dir.join("capture.rosetrace");
    let trace = Trace::from_events(realistic_events(5_000));
    let summary = save_trace(&path, &trace).unwrap();
    assert_eq!(summary.events, 5_000);
    assert_eq!(summary.frames, 5_000usize.div_ceil(DEFAULT_FRAME_CAPACITY));
    assert!(summary.sorted);
    assert_eq!(
        summary.bytes_written,
        std::fs::metadata(&path).unwrap().len()
    );
    assert_eq!(summary.bytes_written, encoded_trace_bytes(&trace));
    let back = load_trace(&path).unwrap();
    assert_eq!(back, trace);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frame_cuts_and_bytes_do_not_depend_on_how_the_buffer_grew() {
    // The writer reserves its frame buffer as events arrive instead of a
    // whole frame up front. Where frames are cut and what they hold must be
    // exactly what cutting the input every `capacity` events gives, for
    // traces far smaller than a frame, exactly one frame, and many frames.
    for (n, capacity) in [
        (30, DEFAULT_FRAME_CAPACITY),
        (30, 7),
        (33, 32),
        (100, 16),
        (DEFAULT_FRAME_CAPACITY, DEFAULT_FRAME_CAPACITY),
        (5_000, DEFAULT_FRAME_CAPACITY),
    ] {
        let events = realistic_events(n);
        let mut file = Vec::new();
        let mut w = TraceWriter::with_frame_capacity(&mut file, capacity).unwrap();
        for e in &events {
            w.append(e).unwrap();
        }
        w.flush_frame().unwrap();
        let metas = w.frame_metas().to_vec();
        let summary = w.finish().unwrap();
        assert_eq!(metas.len(), n.div_ceil(capacity), "{n} events / {capacity}");
        for (meta, chunk) in metas.iter().zip(events.chunks(capacity)) {
            let (payload, info) = encode_frame(chunk);
            assert_eq!(meta.payload_len as usize, payload.len());
            assert_eq!(meta.info, info);
        }
        assert_eq!(summary.frames, metas.len());
        assert_eq!(summary.bytes_written, file.len() as u64);
        let mut reader = TraceReader::new(std::io::Cursor::new(file)).unwrap();
        assert_eq!(reader.read_all().unwrap(), events);
    }
}

#[test]
fn binary_codec_is_at_least_8x_smaller_than_json() {
    // The acceptance bar from the experiment plan: the binary dump of a
    // realistic Rose-mode capture must be ≥ 8× smaller than its JSON form.
    let trace = Trace::from_events(realistic_events(10_000));
    let json = trace.to_json().len() as u64;
    let binary = encoded_trace_bytes(&trace);
    assert!(
        binary * 8 <= json,
        "binary {binary} B vs JSON {json} B: ratio {:.1}x < 8x",
        json as f64 / binary as f64
    );
}

/// The file an `append` loop writes: the reference for the slice path.
fn appended(events: &[Event]) -> Vec<u8> {
    let mut file = Vec::new();
    let mut w = TraceWriter::new(&mut file).unwrap();
    for e in events {
        w.append(e).unwrap();
    }
    w.finish().unwrap();
    file
}

#[test]
fn the_slice_path_writes_the_bytes_of_an_append_loop() {
    let dir = temp_dir("slice");
    let path = dir.join("slice.rosetrace");
    let full = DEFAULT_FRAME_CAPACITY;
    for n in [0, 1, full - 1, full, full + 1, 10_000] {
        let events = realistic_events(n);
        let reference = appended(&events);
        let summary = save_trace(&path, &Trace::from_events(events.clone())).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), reference, "{n} events");
        assert_eq!(summary.events, n as u64);
        assert_eq!(summary.frames, n.div_ceil(full));
        assert!(summary.sorted);

        // A slice handed to a writer that already holds part of a frame
        // tops that frame up first, so the cuts stay where they were.
        for held in [1, full / 2, full - 1].into_iter().filter(|h| *h <= n) {
            let mut file = Vec::new();
            let mut w = TraceWriter::new(&mut file).unwrap();
            for e in &events[..held] {
                w.append(e).unwrap();
            }
            w.append_slice(&events[held..]).unwrap();
            w.finish().unwrap();
            assert_eq!(file, reference, "{n} events, {held} appended first");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_slice_path_notices_disorder_inside_and_between_slices() {
    let events = realistic_events(3 * DEFAULT_FRAME_CAPACITY);
    let sorted_flag = |slices: &[&[Event]]| {
        let mut w = TraceWriter::new(std::io::sink()).unwrap();
        for s in slices {
            w.append_slice(s).unwrap();
        }
        w.finish().unwrap().sorted
    };
    assert!(sorted_flag(&[&events]));
    let mut swapped = events.clone();
    swapped.swap(DEFAULT_FRAME_CAPACITY + 5, DEFAULT_FRAME_CAPACITY + 6);
    assert!(!sorted_flag(&[&swapped]));
    let (early, late) = events.split_at(DEFAULT_FRAME_CAPACITY);
    assert!(sorted_flag(&[early, late]));
    assert!(!sorted_flag(&[late, early]));
}

#[test]
fn a_frame_that_fails_leaves_the_destination_as_it_was() {
    let events = realistic_events(40);
    let mut file = Vec::new();
    let mut w = TraceWriter::with_frame_capacity(&mut file, 16).unwrap();
    w.append_slice(&events).unwrap();
    w.finish().unwrap();
    let second = TraceReader::new(std::io::Cursor::new(&file))
        .unwrap()
        .frame_metas()[1];
    // Damage one payload byte of frame 1: the index still loads, the frame's
    // CRC no longer matches.
    file[second.offset as usize + 4 + 9] ^= 0x40;

    let mut r = TraceReader::new(std::io::Cursor::new(&file)).unwrap();
    let mut out = Vec::new();
    assert_eq!(r.read_frame_into(0, &mut out).unwrap(), 16);
    assert!(r.read_frame_into(1, &mut out).is_err());
    assert_eq!(out, events[..16]);
    // The reader and its reused payload buffer are still good for the rest.
    assert_eq!(r.read_frame_into(2, &mut out).unwrap(), 8);
    assert_eq!(out[16..], events[32..]);
    assert!(r.read_all().is_err());
}
