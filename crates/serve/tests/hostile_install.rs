//! A snapshot install reserves nothing for what a chunk only claims. A
//! chunk longer than `SNAPSHOT_CHUNK`, and a `total_chunks` whose chunks
//! would pass the server's install cap, are refused with a typed
//! `Protocol` error before anything is reserved, and the connection
//! serves on. A counting global allocator records the largest single
//! request made, on either side, while the server answers a hostile
//! chunk, the way `ccindex-wire`'s `hostile_alloc.rs` bounds a decode.

use ccindex_serve::ShardServer;
use ccindex_wire::{self as wire, read_response, write_request, ShardRequest, ShardResponse};
use check::counting::Counting;
use mmdb::{Database, MmdbError, TransportFault};
use std::io::Write;
use std::net::TcpStream;

#[global_allocator]
static ALLOC: Counting = Counting::new();

/// An install chunk 0 of `total_chunks` carrying `len` bytes, with a
/// matching checksum, framed ahead of the measurement.
fn install_frame(total_chunks: u32, len: usize) -> Vec<u8> {
    let bytes = vec![0xA5; len];
    let request = ShardRequest::InstallSnapshotChunk {
        chunk: 0,
        total_chunks,
        crc: wire::crc32(&bytes),
        bytes,
    };
    let mut frame = Vec::new();
    write_request(&mut frame, "hostile", &request, 0).expect("the frame fits");
    frame
}

/// Send `frame` and read the answer; the answer and the largest single
/// allocation made meanwhile.
fn answer(stream: &mut TcpStream, frame: &[u8]) -> (ShardResponse, usize) {
    ALLOC.reset();
    stream.write_all(frame).expect("the request leaves");
    let (response, _) = read_response(stream, "hostile").expect("the server answers");
    (response, ALLOC.largest())
}

// One test, so no other test thread allocates while an answer is measured.
#[test]
fn hostile_install_chunks_are_refused_before_anything_is_reserved() {
    let server = ShardServer::spawn(Database::new()).expect("a loopback port");
    let addr = server.addr();
    let mut stream = TcpStream::connect(&addr).expect("the server accepts");
    for (total_chunks, len, detail) in [
        // One byte past a chunk, in a transfer that is otherwise fine.
        (2, wire::SNAPSHOT_CHUNK + 1, "a chunk holds at most"),
        // 16 PiB claimed by a 1 KiB chunk, and one chunk past the cap.
        (u32::MAX, 1 << 10, "cap"),
        (257, 1 << 10, "cap"),
    ] {
        let frame = install_frame(total_chunks, len);
        let (response, largest) = answer(&mut stream, &frame);
        match response {
            ShardResponse::Err(MmdbError::Transport {
                fault: TransportFault::Protocol,
                detail: got,
                ..
            }) => assert!(got.contains(detail), "{got}"),
            other => panic!("{total_chunks} chunk(s) of {len} bytes answered {other:?}"),
        }
        assert!(
            largest <= frame.len(),
            "a {}-byte install frame reserved {largest} bytes at once",
            frame.len()
        );
        // The connection serves on.
        write_request(&mut stream, &addr, &ShardRequest::Hello, 0).expect("the request leaves");
        let (info, _) = read_response(&mut stream, &addr).expect("the handshake answers");
        assert_eq!(info, ShardResponse::Info { generation: 0 });
    }
    // At the cap a transfer opens: chunk 0 of 256 is accepted.
    let (response, _) = answer(&mut stream, &install_frame(256, 1 << 10));
    assert_eq!(response, ShardResponse::Unit);
    server.shutdown();
}
