//! Golden bytes for SCF events at the edges of their path: absent, empty
//! and non-ASCII. The path sits behind one thin pointer in memory; every
//! format an event leaves the process in — its JSON, the JSON length the
//! tracing record reports, the `.rosetrace` bytes and `{:?}` — must read
//! exactly as it did when the path was a plain `Box<str>`.

use rose_events::{Errno, Event, EventKind, Fd, NodeId, Pid, Scf, SimTime, SyscallId, Trace};
use rose_store::{TraceReader, TraceWriter};

fn scf(ts: u64, path: Option<&str>) -> Event {
    Event::new(
        SimTime(ts),
        NodeId(1),
        EventKind::from(Scf {
            pid: Pid(7),
            syscall: SyscallId::Open,
            fd: path.is_none().then_some(Fd(4)),
            path: path.map(Into::into),
            errno: Errno::Enoent,
            ei: None,
        }),
    )
}

fn trace() -> Trace {
    Trace::from_events(vec![
        scf(10, None),
        scf(20, Some("")),
        scf(30, Some("/данные/ログ\u{2713}.wal")),
    ])
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const JSON: &str = concat!(
    r#"{"events":[{"ts":10,"node":1,"kind":{"Scf":{"pid":7,"syscall":"Open","fd":4,"#,
    r#""path":null,"errno":"Enoent"}}},{"ts":20,"node":1,"kind":{"Scf":{"pid":7,"#,
    r#""syscall":"Open","fd":null,"path":"","errno":"Enoent"}}},{"ts":30,"node":1,"#,
    r#""kind":{"Scf":{"pid":7,"syscall":"Open","fd":null,"#,
    r#""path":"/данные/ログ✓.wal","errno":"Enoent"}}}]}"#,
);

/// The whole `.rosetrace` file: header, one frame whose dictionary holds
/// `""` and the non-ASCII path, the frame index and the trailer.
const ROSETRACE: &str = concat!(
    "524f534554524300010000000000000037000000030a1e0202001b2fd0b4d0b0d0bd",
    "d0bdd18bd0b52fe383ade382b0e29c932e77616c0814010700040110140107000001",
    "10140107000101a51943f308000000011037030a1e0201f632bdac4f000000000000",
    "0010000000524f5349",
);

const DEBUG: [&str; 3] = [
    "Event { ts: SimTime(10), node: NodeId(1), kind: Scf { pid: Pid(7), syscall: Open, \
     fd: Some(Fd(4)), path: None, errno: Enoent, ei: None }, wire: 56 }",
    "Event { ts: SimTime(20), node: NodeId(1), kind: Scf { pid: Pid(7), syscall: Open, \
     fd: None, path: Some(\"\"), errno: Enoent, ei: None }, wire: 56 }",
    "Event { ts: SimTime(30), node: NodeId(1), kind: Scf { pid: Pid(7), syscall: Open, \
     fd: None, path: Some(\"/данные/ログ✓.wal\"), errno: Enoent, ei: None }, wire: 83 }",
];

#[test]
fn scf_paths_print_serialize_and_encode_as_before() {
    let trace = trace();
    assert_eq!(trace.to_json(), JSON);
    assert_eq!(trace.json_len(), 332);
    assert_eq!(JSON.len(), 332);

    let mut file = Vec::new();
    let mut w = TraceWriter::new(&mut file).expect("in-memory writes cannot fail");
    w.append_slice(trace.events())
        .expect("in-memory writes cannot fail");
    w.finish().expect("in-memory writes cannot fail");
    assert_eq!(hex(&file), ROSETRACE);
    let back = TraceReader::new(std::io::Cursor::new(file))
        .and_then(|mut r| r.read_all())
        .expect("golden file reads back");
    assert_eq!(back, trace.events());

    let debug: Vec<String> = trace.events().iter().map(|e| format!("{e:?}")).collect();
    assert_eq!(debug, DEBUG);
}
