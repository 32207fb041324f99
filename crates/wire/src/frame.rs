//! Frame layer: magic, version, trace + payload length prefixes,
//! CRC-32 checksum.
//!
//! Every message travels as one frame:
//!
//! ```text
//! +------+---------+-----------+---------+--------+---------+---------+
//! | CCWX | version | trace len | length  | crc32  | trace   | payload |
//! | 4 B  | u16 LE  | u32 LE    | u32 LE  | u32 LE | t bytes | l bytes |
//! +------+---------+-----------+---------+--------+---------+---------+
//! ```
//!
//! The **trace** field (protocol v2) is an optional out-of-band
//! context blob riding ahead of the message payload: a request carries
//! the client's span id, a response carries the server's encoded
//! timing breakdown (see `message.rs`). It is empty on untraced
//! conversations, costing four header bytes. The checksum covers
//! trace and payload together. [`write_frame`] and [`read_frame`] are
//! the one writer and the one reader: an untraced frame is a frame
//! with an empty trace.
//!
//! A frame leaves in one vectored write (`writev`) of header, trace and
//! payload, so on a `TCP_NODELAY` socket it is one segment and the peer
//! wakes once for it; nothing is copied to join the three parts. The
//! reader takes the header, trace and payload as three exact reads, so
//! a caller reads through a buffered reader that lives as long as the
//! connection: one `recv` then fills all three for a small frame, and
//! any read-ahead of the next frame stays in the buffer.
//!
//! The reader validates magic, version, length caps, and the checksum
//! before handing bytes to the codec — so a corrupted, truncated, or
//! foreign-protocol stream surfaces as a typed
//! [`MmdbError::Transport`], never a panic or a wild allocation.

use std::io::{ErrorKind, IoSlice, Read, Write};

use ccindex_store::bytes::{crc32, crc32_update, ByteWriter};
use mmdb::{MmdbError, Result, TransportFault};

use crate::codec::{decode_error, reader};

/// Frame magic — identifies a ccindex wire peer.
pub const MAGIC: [u8; 4] = *b"CCWX";

/// Protocol version this build speaks (v2 added the trace field, v3
/// the snapshot-transfer messages, v4 the one `Mutate` frame per batch
/// in place of v3's retired frames and dead slots, v5 dropped the
/// frames and `Info` fields no peer needs, v6 the plan frames: the
/// coordinator compiles every query itself). A peer speaking any
/// other version gets a typed [`TransportFault::Version`] naming both
/// versions — negotiation is explicit refusal, never a checksum
/// coincidence.
pub const VERSION: u16 = 6;

/// Upper bound on one frame's trace + payload bytes (guards allocation
/// against a corrupted or hostile length field). The writer refuses a
/// frame past it too, so every length a frame header carries fits its
/// `u32` field and a reader would accept it.
pub const MAX_FRAME_LEN: usize = 1 << 28; // 256 MiB

/// Snapshot-transfer chunk size, at both ends. Each chunk rides its own
/// frame (with its own payload CRC) *and* carries a per-chunk CRC over
/// the snapshot bytes, so a reassembly bug on either side is caught
/// before install.
pub const SNAPSHOT_CHUNK: usize = 4 << 20;

const HEADER_LEN: usize = 18;

fn io_err(endpoint: &str, what: &str, e: &std::io::Error) -> MmdbError {
    MmdbError::transport(endpoint, TransportFault::Io, format!("{what}: {e}"))
}

/// A typed decode error unless `trace_len + len` is within
/// [`MAX_FRAME_LEN`]: the one cap both directions enforce.
fn check_frame_len(endpoint: &str, trace_len: usize, len: usize) -> Result<()> {
    if trace_len.saturating_add(len) > MAX_FRAME_LEN {
        return Err(decode_error(
            endpoint,
            format!("frame length {trace_len}+{len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    Ok(())
}

/// Write one frame carrying the out-of-band `trace` blob ahead of the
/// payload, and flush it. An untraced frame is an empty `trace`. Header,
/// trace and payload go out in one [`Write::write_vectored`] call, so a
/// socket sends the frame as one segment; a short write or an
/// `Interrupted` resumes where it stopped, and a writer that accepts
/// nothing is a typed [`TransportFault::Io`]. A frame past
/// [`MAX_FRAME_LEN`] is refused before anything is written, with the
/// decode error its reader would raise.
pub fn write_frame(w: &mut impl Write, endpoint: &str, trace: &[u8], payload: &[u8]) -> Result<()> {
    check_frame_len(endpoint, trace.len(), payload.len())?;
    let mut header = ByteWriter::with_capacity(HEADER_LEN);
    header.bytes(&MAGIC);
    header.u16(VERSION);
    header.u32(trace.len() as u32);
    header.u32(payload.len() as u32);
    header.u32(crc32_update(crc32(trace), payload));
    let header = header.into_bytes();
    let mut parts = [
        IoSlice::new(&header),
        IoSlice::new(trace),
        IoSlice::new(payload),
    ];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                let e = ErrorKind::WriteZero.into();
                return Err(io_err(endpoint, "writing frame", &e));
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(endpoint, "writing frame", &e)),
        }
    }
    w.flush()
        .map_err(|e| io_err(endpoint, "flushing frame", &e))
}

/// Read one frame, validating magic, version, lengths, and checksum.
/// Returns `(trace, payload)` — the trace is empty on untraced
/// conversations; every failure is a typed [`MmdbError::Transport`]
/// naming `endpoint`. The lengths are checked against [`MAX_FRAME_LEN`]
/// before anything is allocated. Header, trace and payload are three
/// exact reads: on a socket, pass a [`std::io::BufReader`] kept for the
/// connection's life, so a small frame costs one `recv` and bytes read
/// ahead are not lost between frames.
pub fn read_frame(r: &mut impl Read, endpoint: &str) -> Result<(Vec<u8>, Vec<u8>)> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)
        .map_err(|e| io_err(endpoint, "reading frame header", &e))?;
    let mut h = reader(&header, endpoint);
    let magic = h.bytes(4)?;
    if magic != MAGIC {
        return Err(MmdbError::transport(
            endpoint,
            TransportFault::Version,
            format!(
                "bad magic {:02x}{:02x}{:02x}{:02x} (peer is not a ccindex shard server)",
                magic[0], magic[1], magic[2], magic[3]
            ),
        ));
    }
    let version = h.u16()?;
    if version != VERSION {
        return Err(MmdbError::transport(
            endpoint,
            TransportFault::Version,
            format!("peer speaks protocol v{version}, this build speaks v{VERSION}"),
        ));
    }
    let (trace_len, len) = (h.u32()? as usize, h.u32()? as usize);
    check_frame_len(endpoint, trace_len, len)?;
    let expected_crc = h.u32()?;
    let mut trace = vec![0u8; trace_len];
    r.read_exact(&mut trace)
        .map_err(|e| io_err(endpoint, "reading frame trace", &e))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| io_err(endpoint, "reading frame payload", &e))?;
    let got_crc = crc32_update(crc32(&trace), &payload);
    if got_crc != expected_crc {
        return Err(MmdbError::transport(
            endpoint,
            TransportFault::Checksum,
            format!("frame crc {got_crc:08x}, header says {expected_crc:08x}"),
        ));
    }
    Ok((trace, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "test", &[], b"hello shard").expect("vec write");
        let mut cursor = &buf[..];
        let (trace, payload) = read_frame(&mut cursor, "test").expect("roundtrip");
        assert!(trace.is_empty());
        assert_eq!(payload, b"hello shard");
    }

    #[test]
    fn traced_frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "test", b"span", b"hello shard").expect("vec write");
        let (trace, payload) = read_frame(&mut &buf[..], "test").expect("roundtrip");
        assert_eq!(trace, b"span");
        assert_eq!(payload, b"hello shard");
    }

    #[test]
    fn corrupted_trace_is_a_checksum_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "test", b"span", b"hello shard").expect("vec write");
        buf[HEADER_LEN] ^= 0xFF; // first trace byte
        let err = read_frame(&mut &buf[..], "test").expect_err("corruption must fail");
        assert!(matches!(
            err,
            MmdbError::Transport {
                fault: TransportFault::Checksum,
                ..
            }
        ));
    }

    #[test]
    fn corrupted_payload_is_a_checksum_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "test", &[], b"hello shard").expect("vec write");
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let err = read_frame(&mut &buf[..], "test").expect_err("corruption must fail");
        assert!(matches!(
            err,
            MmdbError::Transport {
                fault: TransportFault::Checksum,
                ..
            }
        ));
    }

    #[test]
    fn wrong_version_is_a_version_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "test", &[], b"x").expect("vec write");
        buf[4] = 99;
        let err = read_frame(&mut &buf[..], "test").expect_err("version must fail");
        match err {
            MmdbError::Transport {
                fault: TransportFault::Version,
                detail,
                ..
            } => assert!(detail.contains("v99"), "{detail}"),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn version_skew_names_both_versions_in_both_directions() {
        // An old (v2) peer talking to this build: rewrite the version
        // field to 2, exactly the bytes a v2 build emits.
        let mut buf = Vec::new();
        write_frame(&mut buf, "test", &[], b"hello").expect("vec write");
        buf[4..6].copy_from_slice(&2u16.to_le_bytes());
        // The CRC does not cover the header, so the failure must be the
        // *version* check, reached before any payload validation.
        match read_frame(&mut &buf[..], "test").expect_err("skew must fail") {
            MmdbError::Transport {
                fault: TransportFault::Version,
                detail,
                ..
            } => {
                assert!(detail.contains("v2"), "{detail}");
                assert!(detail.contains(&format!("v{VERSION}")), "{detail}");
            }
            other => panic!("wrong error: {other:?}"),
        }
        // This build talking to an old peer: a v2 reader applies the
        // same `version != VERSION` check to our header, so the
        // refusal is symmetric — modelled here by a future version
        // arriving at this build.
        let mut buf = Vec::new();
        write_frame(&mut buf, "test", &[], b"hello").expect("vec write");
        buf[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
        match read_frame(&mut &buf[..], "test").expect_err("skew must fail") {
            MmdbError::Transport {
                fault: TransportFault::Version,
                detail,
                ..
            } => assert!(
                detail.contains(&format!("v{}", VERSION + 1))
                    && detail.contains(&format!("v{VERSION}")),
                "{detail}"
            ),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn an_oversized_frame_is_refused_before_a_byte_is_written() {
        // Zeroed lazily and never read: the cap is checked before the CRC.
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        let mut sink = Vec::new();
        match write_frame(&mut sink, "test", &[], &payload).expect_err("past the cap") {
            MmdbError::Transport {
                fault: TransportFault::Decode,
                detail,
                ..
            } => assert!(detail.contains(&MAX_FRAME_LEN.to_string()), "{detail}"),
            other => panic!("wrong error: {other:?}"),
        }
        assert!(sink.is_empty(), "{} bytes written", sink.len());
        // The cap counts the trace too.
        let trace = vec![0u8; 1];
        let err = write_frame(&mut sink, "test", &trace, &payload[1..])
            .expect_err("trace + payload past the cap");
        assert!(matches!(
            err,
            MmdbError::Transport {
                fault: TransportFault::Decode,
                ..
            }
        ));
        assert!(sink.is_empty());
    }

    /// A `Write` that counts its calls and accepts at most `limit`
    /// bytes a call across all slices, failing `Interrupted` once, on
    /// call number `interrupt` (from 0).
    struct Sink {
        bytes: Vec<u8>,
        writes: usize,
        vectored: usize,
        limit: usize,
        interrupt: Option<usize>,
    }

    impl Sink {
        fn new(limit: usize) -> Self {
            Self {
                bytes: Vec::new(),
                writes: 0,
                vectored: 0,
                limit,
                interrupt: None,
            }
        }

        fn take(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if self.interrupt == Some(self.writes + self.vectored) {
                self.interrupt = None;
                return Err(ErrorKind::Interrupted.into());
            }
            let mut room = self.limit;
            for buf in bufs {
                let n = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.limit - room)
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.take(&[IoSlice::new(buf)]);
            self.writes += 1;
            n
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let n = self.take(bufs);
            self.vectored += 1;
            n
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
            .collect()
    }

    /// An untraced request, a traced request and a traced response,
    /// each written into a fresh `sink()` and paired with its whole-frame
    /// bytes as `whole_frames_pin_protocol_v5_bytes` (the shard crate's
    /// scripted peer) pins them.
    fn golden_frames(sink: impl Fn() -> Sink) -> Vec<(Sink, Vec<u8>)> {
        use crate::message::{write_request, write_response, ShardRequest, ShardResponse};
        use ccindex_obs::SpanNode;
        use mmdb::{eq, QuerySpec, ResultRows};

        let mut hello = sink();
        write_request(&mut hello, "test", &ShardRequest::Hello, 0).expect("hello");
        let mut run = sink();
        let spec = QuerySpec::table("sales").filter(eq("cust", 7));
        let req = ShardRequest::RunSpec { spec };
        write_request(&mut run, "test", &req, 0x0102_0304_0506_0708).expect("run");
        let mut rows = sink();
        let server = SpanNode {
            name: "server".into(),
            elapsed_ns: 5_000,
            children: vec![
                SpanNode::leaf("decode", 1_000),
                SpanNode::leaf("execute", 3_000),
            ],
        };
        let resp = ShardResponse::Rows(ResultRows::Rids(vec![0, 2]));
        write_response(&mut rows, "test", &resp, Some(&server)).expect("rows");
        let hello_hex = concat!("43435758", "0600", "00000000", "01000000", "8def02d2", "00");
        let run_hex = concat!(
            "43435758",
            "0600",
            "08000000",
            "24000000",
            "06ffd1e2",
            "0807060504030201",
            "0a0500000073616c65730100000004000000637573740000070000000000000000000000",
        );
        let rows_hex = concat!(
            "43435758",
            "0600",
            "43000000",
            "0e000000",
            "17ecf5c3",
            "06000000736572766572",
            "8813000000000000",
            "02000000",
            "060000006465636f6465e80300000000000000000000",
            "0700000065786563757465b80b00000000000000000000",
            "0400020000000000000002000000",
        );
        vec![
            (hello, unhex(hello_hex)),
            (run, unhex(run_hex)),
            (rows, unhex(rows_hex)),
        ]
    }

    #[test]
    fn each_frame_is_one_vectored_write_of_the_golden_bytes() {
        for (sink, want) in golden_frames(|| Sink::new(usize::MAX)) {
            assert_eq!((sink.vectored, sink.writes), (1, 0));
            assert_eq!(sink.bytes, want);
        }
    }

    #[test]
    fn short_and_interrupted_writes_resume_to_the_same_bytes() {
        let sink = || {
            let mut sink = Sink::new(7);
            sink.interrupt = Some(1);
            sink
        };
        for (sink, want) in golden_frames(sink) {
            assert!(sink.interrupt.is_none(), "the interrupt was not reached");
            assert!(sink.vectored > 3, "{} calls", sink.vectored);
            assert_eq!(sink.bytes, want);
        }
    }

    #[test]
    fn a_writer_that_accepts_nothing_is_an_io_error() {
        let mut sink = Sink::new(0);
        match write_frame(&mut sink, "test", b"span", b"hello shard").expect_err("write zero") {
            MmdbError::Transport {
                fault: TransportFault::Io,
                detail,
                ..
            } => assert!(detail.contains("write zero"), "{detail}"),
            other => panic!("wrong error: {other:?}"),
        }
    }

    /// A `Read` over a byte slice that counts its calls.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_buffered_reader_takes_a_small_frame_in_one_read() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "test", b"span", b"hello shard").expect("vec write");
        let mut r = std::io::BufReader::new(CountingReader {
            bytes: &buf,
            calls: 0,
        });
        let (trace, payload) = read_frame(&mut r, "test").expect("one frame");
        assert_eq!(
            (&trace[..], &payload[..]),
            (&b"span"[..], &b"hello shard"[..])
        );
        assert_eq!(r.get_ref().calls, 1);
    }

    #[test]
    fn frames_read_ahead_by_one_buffered_reader_decode_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "test", b"span", b"first").expect("vec write");
        write_frame(&mut buf, "test", &[], b"second").expect("vec write");
        let mut r = std::io::BufReader::new(&buf[..]);
        let (trace, payload) = read_frame(&mut r, "test").expect("the first frame");
        assert_eq!((&trace[..], &payload[..]), (&b"span"[..], &b"first"[..]));
        let (trace, payload) = read_frame(&mut r, "test").expect("the read-ahead frame");
        assert_eq!((&trace[..], &payload[..]), (&b""[..], &b"second"[..]));
        assert!(read_frame(&mut r, "test").is_err(), "the stream is spent");
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "test", &[], b"hello shard").expect("vec write");
        buf.truncate(buf.len() - 4);
        let err = read_frame(&mut &buf[..], "test").expect_err("truncation must fail");
        assert!(matches!(
            err,
            MmdbError::Transport {
                fault: TransportFault::Io,
                ..
            }
        ));
    }
}
