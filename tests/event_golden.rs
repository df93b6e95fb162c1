//! Golden forms of one event of every variant: AF, each PS state, ND,
//! SyscallOk with no content, empty content and some bytes, and SCF with no
//! path, an empty path and a non-ASCII path, each with and without an
//! execution index. The events come from decoding the pinned `.rosetrace`
//! bytes, not from a constructor, so the test reads the same whatever the
//! in-memory layout of an event is; every form an event leaves the process
//! in must read exactly as pinned here: `{:?}`, `Display`, the JSON dump
//! and its `json_len`, the re-encoded file and each event's `wire_size`
//! (Table 2's `Memory` column sums it).

use std::io::Cursor;

use rose::events::{Event, Trace};
use rose::store::{TraceReader, TraceWriter};

/// The whole `.rosetrace` file: header, one frame of fifteen events (its
/// dictionary holds the EI frames, `""` and the non-ASCII path), the frame
/// index and the trailer.
const ROSETRACE: &str = concat!(
    "524f5345545243000100000000000000f00000000f80ade20480a3c34707050a",
    "6170706c79456e7472791173746f7265536e617073686f7444617461001b2fd0",
    "b4d0b0d0bdd0bdd18bd0b52fe383ade382b0e29c932e77616c07706572736973",
    "740180dac4090003090380dac409010400809ae2e1100380dac4090204010003",
    "80dac409000402000380dac409010503000280dac40902010280f882ad162a04",
    "80dac4090006050c80dac409010603000c80dac4090206040500017f80ff0880",
    "dac40900070004012880dac4090107000401020001031080dac4090207000201",
    "3080dac409000700020100011080dac40901070003013880dac4090207000903",
    "010104021adfcc230f0000000110f0010f80ade20480a3c34707018ee251dc08",
    "0100000000000017000000524f5349",
);

const DEBUG: [&str; 15] = [
    "Event { ts: SimTime(10000000), node: NodeId(0), kind: Af { pid: Pid(3), function: FunctionId(9) }, wire: 32 }",
    "Event { ts: SimTime(20000000), node: NodeId(1), kind: Ps { pid: Pid(4), state: Waiting, duration: SimDuration(4500000000) }, wire: 40 }",
    "Event { ts: SimTime(30000000), node: NodeId(2), kind: Ps { pid: Pid(4), state: Crashed, duration: SimDuration(0) }, wire: 40 }",
    "Event { ts: SimTime(40000000), node: NodeId(0), kind: Ps { pid: Pid(4), state: Aborted, duration: SimDuration(0) }, wire: 40 }",
    "Event { ts: SimTime(50000000), node: NodeId(1), kind: Ps { pid: Pid(5), state: Restarted, duration: SimDuration(0) }, wire: 40 }",
    "Event { ts: SimTime(60000000), node: NodeId(2), kind: Nd { dst: IpAddr(1), src: IpAddr(2), duration: SimDuration(6000000000), packet_count: 42 }, wire: 48 }",
    "Event { ts: SimTime(70000000), node: NodeId(0), kind: SyscallOk { pid: Pid(6), syscall: Fsync, content: None }, wire: 164 }",
    "Event { ts: SimTime(80000000), node: NodeId(1), kind: SyscallOk { pid: Pid(6), syscall: Read, content: Some([]) }, wire: 164 }",
    "Event { ts: SimTime(90000000), node: NodeId(2), kind: SyscallOk { pid: Pid(6), syscall: Write, content: Some([0, 1, 127, 128, 255]) }, wire: 169 }",
    "Event { ts: SimTime(100000000), node: NodeId(0), kind: Scf { pid: Pid(7), syscall: Open, fd: Some(Fd(4)), path: None, errno: Enoent, ei: None }, wire: 56 }",
    "Event { ts: SimTime(110000000), node: NodeId(1), kind: Scf { pid: Pid(7), syscall: Open, fd: Some(Fd(4)), path: None, errno: Enoent, ei: Some(ExecutionIndex { chain: [\"applyEntry\", \"storeSnapshotData\"], count: 3 }) }, wire: 107 }",
    "Event { ts: SimTime(120000000), node: NodeId(2), kind: Scf { pid: Pid(7), syscall: Open, fd: None, path: Some(\"\"), errno: Enoent, ei: None }, wire: 56 }",
    "Event { ts: SimTime(130000000), node: NodeId(0), kind: Scf { pid: Pid(7), syscall: Open, fd: None, path: Some(\"\"), errno: Enoent, ei: Some(ExecutionIndex { chain: [], count: 1 }) }, wire: 64 }",
    "Event { ts: SimTime(140000000), node: NodeId(1), kind: Scf { pid: Pid(7), syscall: Open, fd: None, path: Some(\"/данные/ログ✓.wal\"), errno: Enoent, ei: None }, wire: 83 }",
    "Event { ts: SimTime(150000000), node: NodeId(2), kind: Scf { pid: Pid(7), syscall: Open, fd: Some(Fd(9)), path: Some(\"/данные/ログ✓.wal\"), errno: Enoent, ei: Some(ExecutionIndex { chain: [\"persist\"], count: 2 }) }, wire: 106 }",
];

const DISPLAY: [&str; 15] = [
    "[0.010000s n0 AF] pid:3 fn#9",
    "[0.020000s n1 PS] pid:4 waiting 4.500000s",
    "[0.030000s n2 PS] pid:4 crashed 0.000000s",
    "[0.040000s n0 PS] pid:4 aborted 0.000000s",
    "[0.050000s n1 PS] pid:5 restarted 0.000000s",
    "[0.060000s n2 ND] 10.0.0.2 -> 10.0.0.1 silent 6.000000s after 42 pkts",
    "[0.070000s n0 OK] pid:6 fsync ok",
    "[0.080000s n1 OK] pid:6 read ok",
    "[0.090000s n2 OK] pid:6 write ok",
    "[0.100000s n0 SCF] pid:7 open -> ENOENT fd:4",
    "[0.110000s n1 SCF] pid:7 open -> ENOENT fd:4 ei=[applyEntry>storeSnapshotData]#3",
    "[0.120000s n2 SCF] pid:7 open -> ENOENT \"\"",
    "[0.130000s n0 SCF] pid:7 open -> ENOENT \"\" ei=[]#1",
    "[0.140000s n1 SCF] pid:7 open -> ENOENT \"/данные/ログ✓.wal\"",
    "[0.150000s n2 SCF] pid:7 open -> ENOENT fd:9 \"/данные/ログ✓.wal\" ei=[persist]#2",
];

const WIRE: [usize; 15] = [
    32, 40, 40, 40, 40, 48, 164, 164, 169, 56, 107, 56, 64, 83, 106,
];

const JSON: &str = concat!(
    r#"{"events":[{"ts":10000000,"node":0,"kind":{"Af":{"pid":3,"function":9}}},"#,
    r#"{"ts":20000000,"node":1,"kind":{"Ps":{"pid":4,"state":"Waiting","duration":4500000000}}},"#,
    r#"{"ts":30000000,"node":2,"kind":{"Ps":{"pid":4,"state":"Crashed","duration":0}}},"#,
    r#"{"ts":40000000,"node":0,"kind":{"Ps":{"pid":4,"state":"Aborted","duration":0}}},"#,
    r#"{"ts":50000000,"node":1,"kind":{"Ps":{"pid":5,"state":"Restarted","duration":0}}},"#,
    r#"{"ts":60000000,"node":2,"kind":{"Nd":{"dst":1,"src":2,"duration":6000000000,"packet_count":42}}},"#,
    r#"{"ts":70000000,"node":0,"kind":{"SyscallOk":{"pid":6,"syscall":"Fsync"}}},"#,
    r#"{"ts":80000000,"node":1,"kind":{"SyscallOk":{"pid":6,"syscall":"Read","content":[]}}},"#,
    r#"{"ts":90000000,"node":2,"kind":{"SyscallOk":{"pid":6,"syscall":"Write","content":[0,1,127,128,255]}}},"#,
    r#"{"ts":100000000,"node":0,"kind":{"Scf":{"pid":7,"syscall":"Open","fd":4,"path":null,"errno":"Enoent"}}},"#,
    r#"{"ts":110000000,"node":1,"kind":{"Scf":{"pid":7,"syscall":"Open","fd":4,"path":null,"errno":"Enoent","ei":{"chain":["applyEntry","storeSnapshotData"],"count":3}}}},"#,
    r#"{"ts":120000000,"node":2,"kind":{"Scf":{"pid":7,"syscall":"Open","fd":null,"path":"","errno":"Enoent"}}},"#,
    r#"{"ts":130000000,"node":0,"kind":{"Scf":{"pid":7,"syscall":"Open","fd":null,"path":"","errno":"Enoent","ei":{"chain":[],"count":1}}}},"#,
    r#"{"ts":140000000,"node":1,"kind":{"Scf":{"pid":7,"syscall":"Open","fd":null,"path":"/данные/ログ✓.wal","errno":"Enoent"}}},"#,
    r#"{"ts":150000000,"node":2,"kind":{"Scf":{"pid":7,"syscall":"Open","fd":9,"path":"/данные/ログ✓.wal","errno":"Enoent","ei":{"chain":["persist"],"count":2}}}}]}"#,
);

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden hex"))
        .collect()
}

fn encode(events: &[Event]) -> Vec<u8> {
    let mut file = Vec::new();
    let mut w = TraceWriter::new(&mut file).expect("in-memory writes cannot fail");
    w.append_slice(events)
        .expect("in-memory writes cannot fail");
    w.finish().expect("in-memory writes cannot fail");
    file
}

#[test]
fn every_variant_prints_serializes_and_encodes_as_pinned() {
    let file = unhex(ROSETRACE);
    let events = TraceReader::new(Cursor::new(&file))
        .and_then(|mut r| r.read_all())
        .expect("golden file reads back");

    let debug: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
    assert_eq!(debug, DEBUG);
    let display: Vec<String> = events.iter().map(Event::to_string).collect();
    assert_eq!(display, DISPLAY);
    let wire: Vec<usize> = events.iter().map(Event::wire_size).collect();
    assert_eq!(wire, WIRE);
    assert_eq!(encode(&events), file);

    let trace = Trace::from_events(events);
    assert_eq!(trace.to_json(), JSON);
    assert_eq!(trace.json_len(), 1568);
    assert_eq!(JSON.len(), 1568);
}
