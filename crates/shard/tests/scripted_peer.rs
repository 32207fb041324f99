//! `RemoteShard` against a scripted peer: the whole frames it puts on
//! the wire, and what it does with a reply it did not ask for.
//!
//! The peer speaks raw bytes, not `ccindex_wire`, so the frames below
//! pin the frame header (magic, version, trace length, length, CRC) as
//! well as the trace and the payload, and they pin both directions:
//! what the client writes is compared byte for byte, what it reads is
//! these bytes exactly. `golden_frames_pin_protocol_v6_bytes` in the
//! wire crate pins payloads alone.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use ccindex_obs::{Span, SpanNode};
use ccindex_shard::{RemoteShard, ShardBackend, ShardRead};
use ccindex_wire::{read_frame, VERSION};
use mmdb::{eq, IndexKind, MmdbError, Mutation, QuerySpec, ResultRows, TransportFault, Value};

/// `Hello`, untraced: the first frame `RemoteShard::connect` sends,
/// and what `ShardRead::generation` asks.
const HELLO: &str = concat!(
    "43435758", // magic "CCWX"
    "0600",     // version 6
    "00000000", // trace length: no trace
    "01000000", // payload length
    "8def02d2", // CRC-32 over trace and payload
    "00",       // payload: `Hello`
);

/// `Info` (generation 1), untraced: the answer to `HELLO`.
const INFO: &str = concat!(
    "43435758",
    "0600",
    "00000000",
    "09000000",
    "ae9e8dbf",
    "0a",               // `Info`
    "0100000000000000", // generation
);

/// `RunSpec` of `sales` where `cust = 7`, traced under span id
/// `0x0102030405060708`.
const RUN_SPEC_TRACED: &str = concat!(
    "43435758",
    "0600",
    "08000000", // trace length: one span id
    "24000000",
    "06ffd1e2",
    "0807060504030201", // trace: the span id
    "0a0500000073616c65730100000004000000637573740000070000000000000000000000",
);

/// `Rows` holding RIDs 0 and 2, traced: the server's timing tree
/// `server` 5 µs { `decode` 1 µs, `execute` 3 µs } rides in the trace.
const ROWS_TRACED: &str = concat!(
    "43435758",
    "0600",
    "43000000", // trace length
    "0e000000",
    "17ecf5c3",
    "06000000736572766572", // trace: "server"
    "8813000000000000",     // 5000 ns
    "02000000",             // two children
    "060000006465636f6465e80300000000000000000000",
    "0700000065786563757465b80b00000000000000000000",
    "0400020000000000000002000000", // payload: `Rows(Rids([0, 2]))`
);

/// One `Mutate` frame carrying a two-edit batch, untraced:
/// `ReplaceColumn` of `sales.amount` with `[250, "z"]`, then
/// `CreateIndex` of `FullCss` on `sales.cust`.
const MUTATE: &str = concat!(
    "43435758",
    "0600",
    "00000000",
    "3f000000",
    "2bc8b75f",
    "0c",       // `Mutate`
    "02000000", // two mutations
    "04",       // `ReplaceColumn`
    "0500000073616c657306000000616d6f756e74",
    "0200000000fa0000000000000001010000007a", // [250, "z"]
    "02",                                     // `CreateIndex`
    "0500000073616c6573040000006375737405",   // sales.cust, FullCss
);

/// `Applied`, untraced: the batch committed, and its one replacement
/// re-sorted in 1,234,567 ns.
const APPLIED: &str = concat!(
    "43435758",
    "0600",
    "00000000",
    "0d000000",
    "2919b7cc",
    "09",               // `Applied`
    "01000000",         // one sort time
    "87d6120000000000", // 1,234,567 ns
);

/// `Unit`, untraced.
const UNIT: &str = "43435758060000000000010000000536d0450b";

/// What a protocol-v4 peer put on the wire for the handshake, a traced
/// `RunSpec` and its traced `Rows`, and a `Mutate` batch and its
/// `Applied`: v4's `Info` carried three more fields (`swaps`, `pinned`
/// and the exec options), and every other payload and checksum is the
/// v5 and v6 one (the CRC covers trace and payload, not the header),
/// under version 4.
const V4_FRAMES: [&str; 6] = [
    concat!("43435758", "0400", "00000000", "01000000", "8def02d2", "00"),
    concat!(
        "43435758",
        "0400",
        "00000000",
        "31000000",
        "a6239e35",
        "0a",
        "0100000000000000", // generation
        "0000000000000000", // swaps
        "0000000000000000", // pinned
        "0100000000000000", // exec: threads
        "0800000000000000", // lanes
        "0100000000000000", // shards
    ),
    concat!(
        "43435758",
        "0400",
        "08000000",
        "24000000",
        "06ffd1e2",
        "0807060504030201",
        "0a0500000073616c65730100000004000000637573740000070000000000000000000000",
    ),
    concat!(
        "43435758",
        "0400",
        "43000000",
        "0e000000",
        "17ecf5c3",
        "06000000736572766572",
        "8813000000000000",
        "02000000",
        "060000006465636f6465e80300000000000000000000",
        "0700000065786563757465b80b00000000000000000000",
        "0400020000000000000002000000",
    ),
    concat!(
        "43435758",
        "0400",
        "00000000",
        "3f000000",
        "2bc8b75f",
        "0c02000000",
        "040500000073616c657306000000616d6f756e74",
        "0200000000fa0000000000000001010000007a",
        "020500000073616c6573040000006375737405",
    ),
    concat!(
        "43435758",
        "0400",
        "00000000",
        "0d000000",
        "2919b7cc",
        "090100000087d6120000000000",
    ),
];

/// What a protocol-v3 peer put on the wire for the handshake, a traced
/// `RunSpec` and its traced `Rows`: v4's payloads and checksums, under
/// version 3.
const V3_FRAMES: [&str; 4] = [
    concat!("43435758", "0300", "00000000", "01000000", "8def02d2", "00"),
    concat!(
        "43435758",
        "0300",
        "00000000",
        "31000000",
        "a6239e35",
        "0a",
        "0100000000000000",
        "0000000000000000",
        "0000000000000000",
        "0100000000000000",
        "0800000000000000",
        "0100000000000000",
    ),
    concat!(
        "43435758",
        "0300",
        "08000000",
        "24000000",
        "06ffd1e2",
        "0807060504030201",
        "0a0500000073616c65730100000004000000637573740000070000000000000000000000",
    ),
    concat!(
        "43435758",
        "0300",
        "43000000",
        "0e000000",
        "17ecf5c3",
        "06000000736572766572",
        "8813000000000000",
        "02000000",
        "060000006465636f6465e80300000000000000000000",
        "0700000065786563757465b80b00000000000000000000",
        "0400020000000000000002000000",
    ),
];

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// One whole frame off `stream`: the 18-byte header, then as many
/// trace and payload bytes as it declares.
fn read_whole_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 18];
    stream.read_exact(&mut frame).expect("a frame header");
    let field = |at: usize| {
        let bytes: [u8; 4] = frame[at..at + 4].try_into().expect("four bytes");
        u32::from_le_bytes(bytes) as usize
    };
    let mut body = vec![0u8; field(6) + field(10)];
    stream
        .read_exact(&mut body)
        .expect("the frame's trace and payload");
    frame.extend(body);
    frame
}

/// A peer on a loopback port that accepts one connection, answers each
/// frame read there with the next of `replies`, then waits for the
/// client to hang up. It returns the frames it read, whole. A client
/// that redialled would find no one answering on the new connection.
/// With `split`, each reply leaves as two segments, its header first
/// and the rest a moment later.
fn scripted_peer(replies: &[&str], split: bool) -> (String, JoinHandle<Vec<Vec<u8>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port");
    let addr = listener
        .local_addr()
        .expect("the bound address")
        .to_string();
    let replies: Vec<Vec<u8>> = replies.iter().map(|hex| unhex(hex)).collect();
    let peer = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("one client");
        stream.set_nodelay(true).expect("segments sent as written");
        let mut frames = Vec::new();
        for reply in replies {
            frames.push(read_whole_frame(&mut stream));
            let at = if split { 18 } else { reply.len() };
            stream.write_all(&reply[..at]).expect("the scripted reply");
            if at < reply.len() {
                thread::sleep(Duration::from_millis(20));
                stream.write_all(&reply[at..]).expect("the reply's rest");
            }
        }
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("the client hangs up");
        assert!(rest.is_empty(), "{} unscripted bytes", rest.len());
        frames
    });
    (addr, peer)
}

/// The frame header's bytes, not only the payloads', are the protocol:
/// an untraced request, a traced request and a traced response, whole,
/// a batch of catalog edits as exactly one `Mutate` frame and its one
/// reply, and the handshake's `Info` carrying the generation alone.
#[test]
fn whole_frames_pin_protocol_v6_bytes() {
    let (addr, peer) = scripted_peer(&[INFO, ROWS_TRACED, APPLIED, INFO], false);
    let mut shard = RemoteShard::connect(addr.as_str()).expect("the scripted handshake");
    let mut span = Span::with_id("query", 0x0102_0304_0506_0708);
    let spec = QuerySpec::table("sales").filter(eq("cust", 7));
    let rows = shard
        .run_spec_traced(&spec, &mut span)
        .expect("the scripted rows");
    assert_eq!(rows, ResultRows::Rids(vec![0, 2]));
    let tree = span.finish();
    let rpc = tree.find(&format!("rpc:{addr}")).expect("the rpc span");
    let server = SpanNode {
        name: "server".into(),
        elapsed_ns: 5_000,
        children: vec![
            SpanNode::leaf("decode", 1_000),
            SpanNode::leaf("execute", 3_000),
        ],
    };
    assert_eq!(rpc.children, [server]);
    let batch = vec![
        Mutation::ReplaceColumn(
            "sales".into(),
            "amount".into(),
            vec![Value::Int(250), Value::from("z")],
        ),
        Mutation::CreateIndex("sales".into(), "cust".into(), IndexKind::FullCss),
    ];
    let reports = shard.apply(batch).expect("the scripted batch");
    let sorts: Vec<Duration> = reports.iter().map(|r| r.sort_time).collect();
    assert_eq!(sorts, [Duration::from_nanos(1_234_567)]);
    assert!(reports[0].rebuilds.is_empty());
    assert_eq!(shard.reader().generation().expect("the scripted Info"), 1);
    drop(shard);
    let frames = peer.join().expect("the peer saw the frames it expected");
    assert_eq!(
        frames,
        [
            unhex(HELLO),
            unhex(RUN_SPEC_TRACED),
            unhex(MUTATE),
            unhex(HELLO)
        ]
    );
}

/// A typed `Version` fault naming `old` and this build's version.
fn refused(old: u16) -> impl Fn(MmdbError) {
    move |err| match err {
        MmdbError::Transport {
            fault: TransportFault::Version,
            detail,
            ..
        } => assert!(
            detail.contains(&format!("v{old}")) && detail.contains(&format!("v{VERSION}")),
            "{detail}"
        ),
        other => panic!("expected a typed Version fault, got {other:?}"),
    }
}

/// `frame` as a `version` peer wrote it: v5 and v6 write the same
/// payloads (v6 only retired frames), and the CRC covers trace and
/// payload, so only the header's version field differs.
fn framed_as(version: u16, frame: &str) -> String {
    let field: String = (version.to_le_bytes().iter())
        .map(|b| format!("{b:02x}"))
        .collect();
    format!("{}{field}{}", &frame[..8], &frame[12..])
}

/// Protocol v5's whole frames — the bytes this test pinned while v5 was
/// current: the handshake and its `Info`, a traced `RunSpec` and its
/// traced `Rows`, a `Mutate` batch, its `Applied` and a `Unit` — are
/// refused by a v6 reader with a typed `Version` fault naming both
/// versions: read as bytes, and as the answer to a v6 client's
/// handshake, which then never connects.
#[test]
fn whole_frames_pin_protocol_v5_bytes() {
    let refused = refused(5);
    let frames = [
        HELLO,
        INFO,
        RUN_SPEC_TRACED,
        ROWS_TRACED,
        MUTATE,
        APPLIED,
        UNIT,
    ];
    for hex in frames.map(|frame| framed_as(5, frame)) {
        refused(read_frame(&mut &unhex(&hex)[..], "v5 peer").expect_err("a v5 frame"));
    }
    let (addr, peer) = scripted_peer(&[framed_as(5, INFO).as_str()], false);
    refused(RemoteShard::connect(addr.as_str()).expect_err("a v5 handshake"));
    let frames = peer.join().expect("the peer saw the frames it expected");
    assert_eq!(frames, [unhex(HELLO)]);
}

/// Protocol v4's whole frames — the bytes this test pinned while v4 was
/// current — are refused by a v6 reader with a typed `Version` fault
/// naming both versions: read as bytes, and as the answer to a v6
/// client's handshake, which then never connects.
#[test]
fn whole_frames_pin_protocol_v4_bytes() {
    let refused = refused(4);
    for hex in V4_FRAMES {
        refused(read_frame(&mut &unhex(hex)[..], "v4 peer").expect_err("a v4 frame"));
    }
    let (addr, peer) = scripted_peer(&[V4_FRAMES[1]], false);
    refused(RemoteShard::connect(addr.as_str()).expect_err("a v4 handshake"));
    let frames = peer.join().expect("the peer saw the frames it expected");
    assert_eq!(frames, [unhex(HELLO)]);
}

/// Protocol v3's whole frames are refused by a v6 reader with a typed
/// `Version` fault naming both versions: read as bytes, and as the
/// answer to a v6 client's handshake, which then never connects.
#[test]
fn whole_frames_pin_protocol_v3_bytes() {
    let refused = refused(3);
    for hex in V3_FRAMES {
        refused(read_frame(&mut &unhex(hex)[..], "v3 peer").expect_err("a v3 frame"));
    }
    let (addr, peer) = scripted_peer(&[V3_FRAMES[1]], false);
    refused(RemoteShard::connect(addr.as_str()).expect_err("a v3 handshake"));
    let frames = peer.join().expect("the peer saw the frames it expected");
    assert_eq!(frames, [unhex(HELLO)]);
}

/// A well-formed reply of the wrong variant is a typed `Protocol` fault
/// naming what came, and the connection stays in use: the exchange
/// itself succeeded, so the stream is still in step.
#[test]
fn a_wrong_reply_variant_is_a_protocol_error_and_the_connection_serves_on() {
    let (addr, peer) = scripted_peer(&[INFO, UNIT, INFO], false);
    let shard = RemoteShard::connect(addr.as_str()).expect("the scripted handshake");
    match shard.generation() {
        Err(MmdbError::Transport {
            fault: TransportFault::Protocol,
            detail,
            ..
        }) => assert!(detail.contains("`Unit`"), "{detail}"),
        other => panic!("expected a Protocol fault naming `Unit`, got {other:?}"),
    }
    assert_eq!(
        shard.generation().expect("the next call on one connection"),
        1
    );
    drop(shard);
    let frames = peer.join().expect("the peer saw the frames it expected");
    assert_eq!(frames, [unhex(HELLO), unhex(HELLO), unhex(HELLO)]);
}

/// A reply whose header and payload arrive as separate segments still
/// decodes: the client's buffered reader waits for the rest of a frame
/// it has only begun.
#[test]
fn a_reply_split_across_segments_still_decodes() {
    let (addr, peer) = scripted_peer(&[INFO, INFO], true);
    let shard = RemoteShard::connect(addr.as_str()).expect("the split handshake");
    assert_eq!(shard.generation().expect("the split reply"), 1);
    drop(shard);
    let frames = peer.join().expect("the peer saw the frames it expected");
    assert_eq!(frames, [unhex(HELLO), unhex(HELLO)]);
}
