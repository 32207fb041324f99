//! A `ShardServer` holds only its live connections. A connection that
//! ends — the client hangs up, or the server hangs up on a frame it
//! cannot read — leaves no descriptor behind, and the peer sees the
//! close at once rather than at its read deadline. The ATLAS-style
//! deployment this protects has consoles connecting and disconnecting
//! against one server for years: the server must not age.

use ccindex_serve::ShardServer;
use ccindex_shard::{HashPartitioner, ShardedDatabase};
use ccindex_wire::{read_response, write_frame, write_request, ShardRequest, ShardResponse};
use mmdb::{between, Database, IndexKind, TableBuilder, Value};
use std::io::Read;
use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The descriptor count is process-wide, so the tests of this file run
/// one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// One connection: connect, `Hello`, read its `Info`, hang up.
fn hello_and_close(addr: &str) {
    let mut stream = TcpStream::connect(addr).expect("the server accepts");
    write_request(&mut stream, addr, &ShardRequest::Hello, 0).expect("the request leaves");
    let (info, _) = read_response(&mut stream, addr).expect("the handshake answers");
    assert_eq!(info, ShardResponse::Info { generation: 0 });
}

/// The descriptors this process holds right now.
#[cfg(target_os = "linux")]
fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd is readable")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn sequential_connections_leave_no_descriptor_behind() {
    const CYCLES: usize = 500;
    /// Descriptors the server may still hold for connections whose
    /// threads have not yet seen their client's close.
    const SLACK: usize = 4;
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = ShardServer::spawn(Database::new()).expect("a loopback port");
    let addr = server.addr();
    hello_and_close(&addr);
    let start = open_descriptors();
    for _ in 0..CYCLES {
        hello_and_close(&addr);
    }
    // Each connection's thread drops its stream once it reads the close,
    // so the count settles promptly; the deadline only bounds a failure.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut open = open_descriptors();
    while open > start + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        open = open_descriptors();
    }
    assert!(
        open <= start + SLACK,
        "{open} descriptors open after {CYCLES} closed connections, {start} before"
    );
    server.shutdown();
}

/// A coordinator over two loopback shards that commits and reads 100
/// generations: each generation read dials one connection per shard,
/// and once a generation is superseded its connections close on both
/// sides, so the process's descriptor count settles back where it was.
#[cfg(target_os = "linux")]
#[test]
fn sharded_update_cycles_leave_no_descriptor_behind() {
    const CYCLES: i64 = 100;
    const SLACK: usize = 4;
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let servers: Vec<ShardServer> = (0..2)
        .map(|_| ShardServer::spawn(Database::new()).expect("a loopback port"))
        .collect();
    let addrs: Vec<String> = servers.iter().map(ShardServer::addr).collect();
    let partitioner = HashPartitioner::new(2).expect("two shards");
    let mut db = ShardedDatabase::connect(partitioner, &addrs).expect("both shards answer");
    let table = TableBuilder::new("t")
        .int_column("k", 0..64)
        .int_column("v", 0..64)
        .build()
        .expect("equal columns");
    db.register(table, "k").expect("registered");
    db.create_index("t", "v", IndexKind::FullCss)
        .expect("indexed");
    let cycle = |db: &mut ShardedDatabase, scale: i64| {
        let values = (0..64).map(|row| Value::Int(row * scale)).collect();
        db.replace_column("t", "v", values).expect("replaced");
        let hits = db.query("t").filter(between("v", 0, 63)).run();
        assert_eq!(hits.expect("answered").len(), (63 / scale + 1) as usize);
    };
    cycle(&mut db, 1);
    let start = open_descriptors();
    for scale in 2..2 + CYCLES {
        cycle(&mut db, scale);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut open = open_descriptors();
    while open > start + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        open = open_descriptors();
    }
    assert!(
        open <= start + SLACK,
        "{open} descriptors open after {CYCLES} sharded generations, {start} before"
    );
    drop(db);
    for server in servers {
        server.shutdown();
    }
}

/// A request whose trace is 3 bytes (neither empty nor one span id) is
/// unreadable, so the server hangs up on it: the client's read returns
/// end-of-stream at once, not at its 10 s deadline.
#[test]
fn a_connection_the_server_ends_closes_for_the_peer() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = ShardServer::spawn(Database::new()).expect("a loopback port");
    let addr = server.addr();
    let mut stream = TcpStream::connect(&addr).expect("the server accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("a read deadline");
    let hello = ShardRequest::Hello.encode();
    write_frame(&mut stream, &addr, &[1, 2, 3], &hello).expect("the frame leaves");
    let started = Instant::now();
    let mut byte = [0u8; 1];
    let read = stream.read(&mut byte);
    let waited = started.elapsed();
    assert!(
        matches!(read, Ok(0)),
        "expected end-of-stream, got {read:?}"
    );
    assert!(waited < Duration::from_secs(1), "the close took {waited:?}");
    // The server serves on for everyone else.
    hello_and_close(&addr);
    server.shutdown();
}

/// `server.connections` counts the live connections: 1 while one client
/// holds its connection open, and back to 0 once each client of a run
/// of sequential connect → `Hello` → close cycles has hung up.
#[test]
fn the_connections_gauge_returns_to_zero_after_each_client_hangs_up() {
    const CYCLES: usize = 50;
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = ShardServer::spawn(Database::new()).expect("a loopback port");
    let addr = server.addr();
    let gauge = (server.registry())
        .find_gauge("server.connections")
        .expect("the gauge is registered");
    assert_eq!(gauge.get(), 0);
    // A connection's thread removes its entry once it reads the close;
    // the deadline only bounds a failure.
    let settled = || {
        let deadline = Instant::now() + Duration::from_secs(5);
        while gauge.get() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        gauge.get()
    };
    for _ in 0..CYCLES {
        hello_and_close(&addr);
    }
    assert_eq!(settled(), 0, "live connections after {CYCLES} closed ones");
    // Accepting raises the gauge before the connection is served, so
    // once `Hello` is answered it reads the one open connection.
    let mut stream = TcpStream::connect(&addr).expect("the server accepts");
    write_request(&mut stream, &addr, &ShardRequest::Hello, 0).expect("the request leaves");
    read_response(&mut stream, &addr).expect("the handshake answers");
    assert_eq!(gauge.get(), 1);
    drop(stream);
    assert_eq!(settled(), 0, "live connections after the last one closed");
    assert!(gauge.high_water() >= 1, "the gauge never rose");
    server.shutdown();
}
