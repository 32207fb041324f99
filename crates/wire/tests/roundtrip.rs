//! Wire-format property tests: encode→decode identity for every
//! message type, and corrupted / truncated / wrong-version frames
//! decode to typed errors — never panics. The golden frames pin the
//! bytes themselves, which encode∘decode = id alone cannot.

use ccindex_obs::SpanNode;
use ccindex_wire::{
    decode_span_id, read_frame, read_response, write_frame, write_request, write_response,
    ShardRequest, ShardResponse, VERSION,
};
use mmdb::{
    between, count, eq, max, on, sum, Agg, ExecOptions, GroupRow, IndexKind, JoinRow, MmdbError,
    Mutation, QuerySpec, ResultRows, StorageFault, TableBuilder, TransportFault, Value,
};
use proptest::prelude::*;

/// SplitMix64 — a tiny deterministic generator so one proptest-drawn
/// seed fans out into arbitrarily many field choices.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn string(&mut self) -> String {
        let len = self.below(12) as usize;
        (0..len)
            .map(|_| char::from(b'a' + self.below(26) as u8))
            .collect()
    }

    fn value(&mut self) -> Value {
        if self.below(2) == 0 {
            Value::Int(self.next() as i64)
        } else {
            Value::Str(self.string())
        }
    }

    fn values(&mut self) -> Vec<Value> {
        let len = self.below(8) as usize;
        (0..len).map(|_| self.value()).collect()
    }

    fn rids(&mut self) -> Vec<u32> {
        let len = self.below(16) as usize;
        (0..len).map(|_| self.next() as u32).collect()
    }

    fn bytes(&mut self, max_len: u64) -> Vec<u8> {
        let len = self.below(max_len + 1) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn kind(&mut self) -> IndexKind {
        IndexKind::ALL[self.below(8) as usize]
    }

    fn exec(&mut self) -> ExecOptions {
        ExecOptions {
            threads: self.below(16) as usize,
            lanes: 1 + self.below(8) as usize,
            shards: 1 + self.below(8) as usize,
        }
    }

    fn agg(&mut self) -> Agg {
        match self.below(4) {
            0 => count(),
            1 => sum(&self.string()),
            2 => mmdb::min(&self.string()),
            _ => max(&self.string()),
        }
    }

    fn spec(&mut self) -> QuerySpec {
        let filters = (0..self.below(3))
            .map(|_| {
                if self.below(2) == 0 {
                    eq(&self.string(), self.value())
                } else {
                    between(&self.string(), self.value(), self.value())
                }
            })
            .collect();
        QuerySpec {
            table: self.string(),
            filters,
            join: if self.below(2) == 0 {
                Some((self.string(), on(&self.string(), &self.string())))
            } else {
                None
            },
            group: if self.below(2) == 0 {
                Some((self.string(), self.agg()))
            } else {
                None
            },
            forced_kind: if self.below(2) == 0 {
                Some(self.kind())
            } else {
                None
            },
            exec: if self.below(2) == 0 {
                Some(self.exec())
            } else {
                None
            },
        }
    }

    fn opt_rids(&mut self) -> Option<Vec<u32>> {
        if self.below(2) == 0 {
            Some(self.rids())
        } else {
            None
        }
    }

    fn error(&mut self) -> MmdbError {
        match self.below(15) {
            0 => MmdbError::UnknownTable {
                table: self.string(),
            },
            1 => MmdbError::DuplicateTable {
                table: self.string(),
            },
            2 => MmdbError::UnknownColumn {
                table: self.string(),
                column: self.string(),
            },
            3 => MmdbError::NoIndex {
                table: self.string(),
                column: self.string(),
            },
            4 => MmdbError::IndexNotBuilt {
                table: self.string(),
                column: self.string(),
                kind: self.kind(),
            },
            5 => MmdbError::NoOrderedIndex {
                table: self.string(),
                column: self.string(),
            },
            6 => MmdbError::RaggedColumn {
                table: self.string(),
                column: self.string(),
                expected: self.below(100) as usize,
                got: self.below(100) as usize,
            },
            7 => MmdbError::NonIntegerMeasure {
                table: self.string(),
                column: self.string(),
            },
            8 => MmdbError::ShardKeyOutOfRange {
                key: self.string(),
                shards: self.below(16) as usize,
            },
            9 => MmdbError::InvalidPartitioner {
                reason: self.string(),
            },
            10 => MmdbError::InvalidExecOption {
                name: self.string(),
                value: self.string(),
            },
            11 => MmdbError::Unsupported {
                what: self.string(),
            },
            12 => MmdbError::Transport {
                endpoint: self.string(),
                fault: [
                    TransportFault::Connect,
                    TransportFault::Io,
                    TransportFault::Decode,
                    TransportFault::Checksum,
                    TransportFault::Version,
                    TransportFault::Protocol,
                ][self.below(6) as usize],
                detail: self.string(),
                attempts: self.next() as u32,
                elapsed_ms: self.next(),
            },
            13 => MmdbError::DuplicateColumn {
                table: self.string(),
                column: self.string(),
            },
            _ => MmdbError::Storage {
                path: self.string(),
                fault: [
                    StorageFault::Open,
                    StorageFault::Read,
                    StorageFault::Write,
                    StorageFault::Format,
                    StorageFault::Corrupt,
                    StorageFault::Version,
                ][self.below(6) as usize],
                detail: self.string(),
            },
        }
    }

    fn result_rows(&mut self) -> ResultRows {
        match self.below(3) {
            0 => ResultRows::Rids(self.rids()),
            1 => ResultRows::Joined(
                (0..self.below(8))
                    .map(|_| JoinRow {
                        outer_rid: self.next() as u32,
                        inner_rid: self.next() as u32,
                    })
                    .collect(),
            ),
            _ => ResultRows::Groups(
                (0..self.below(8))
                    .map(|_| GroupRow {
                        group: self.value(),
                        value: self.next() as i64,
                    })
                    .collect(),
            ),
        }
    }

    /// One catalog edit of any kind. A registered table has up to three
    /// equal-length columns under distinct names.
    fn mutation(&mut self) -> Mutation {
        match self.below(6) {
            0 => {
                let rows = self.below(6);
                let mut table = TableBuilder::new(self.string());
                for i in 0..self.below(4) {
                    let values = (0..rows).map(|_| self.value()).collect();
                    table = table.column(format!("{i}{}", self.string()), values);
                }
                Mutation::Register(table.build().expect("distinct, equal-length columns"))
            }
            1 => Mutation::DropTable(self.string()),
            2 => Mutation::CreateIndex(self.string(), self.string(), self.kind()),
            3 => Mutation::DropIndex(self.string(), self.string(), self.kind()),
            4 => Mutation::ReplaceColumn(self.string(), self.string(), self.values()),
            _ => Mutation::RebuildColumn(self.string(), self.string()),
        }
    }

    /// A random timing tree, at most `depth` levels deep.
    fn span_node(&mut self, depth: u64) -> SpanNode {
        let children = if depth == 0 {
            Vec::new()
        } else {
            (0..self.below(3))
                .map(|_| self.span_node(depth - 1))
                .collect()
        };
        SpanNode {
            name: self.string(),
            elapsed_ns: self.next(),
            children,
        }
    }

    /// One request of each variant, every field randomized.
    fn all_requests(&mut self) -> Vec<ShardRequest> {
        vec![
            ShardRequest::Hello,
            ShardRequest::PointProbeBatch {
                table: self.string(),
                column: self.string(),
                values: self.values(),
            },
            ShardRequest::RangeProbeBatch {
                table: self.string(),
                column: self.string(),
                ranges: (0..self.below(6))
                    .map(|_| (self.value(), self.value()))
                    .collect(),
            },
            ShardRequest::JoinProbeBatch {
                table: self.string(),
                column: self.string(),
                values: self.values(),
                lanes: 1 + self.below(8) as usize,
                threads: 1 + self.below(8) as usize,
            },
            ShardRequest::ColumnValues {
                table: self.string(),
                column: self.string(),
                rids: self.opt_rids(),
            },
            ShardRequest::RunSpec { spec: self.spec() },
            ShardRequest::Mutate((0..self.below(8)).map(|_| self.mutation()).collect()),
            ShardRequest::SetExecOptions { exec: self.exec() },
            ShardRequest::Stats,
            ShardRequest::FetchSnapshot {
                chunk: self.next() as u32,
            },
            ShardRequest::InstallSnapshotChunk {
                chunk: self.next() as u32,
                total_chunks: self.next() as u32,
                crc: self.next() as u32,
                bytes: self.bytes(64),
            },
        ]
    }

    /// One response of each variant, every field randomized.
    fn all_responses(&mut self) -> Vec<ShardResponse> {
        vec![
            ShardResponse::RidSets((0..self.below(4)).map(|_| self.rids()).collect()),
            ShardResponse::Values(self.values()),
            ShardResponse::Rows(self.result_rows()),
            ShardResponse::Applied {
                sort_ns: (0..self.below(4)).map(|_| self.next()).collect(),
            },
            ShardResponse::Info {
                generation: self.next(),
            },
            ShardResponse::Unit,
            ShardResponse::Stats {
                json: self.string(),
            },
            ShardResponse::Err(self.error()),
            ShardResponse::SnapshotChunk {
                chunk: self.next() as u32,
                total_chunks: self.next() as u32,
                total_len: self.next(),
                crc: self.next() as u32,
                bytes: self.bytes(64),
            },
        ]
    }
}

proptest! {
    /// Every request variant survives encode→decode byte-exactly.
    #[test]
    fn requests_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for req in g.all_requests() {
            let bytes = req.encode();
            let back = ShardRequest::decode(&bytes, "peer");
            prop_assert_eq!(back.as_ref().ok(), Some(&req), "variant {:?}", req);
        }
    }

    /// Every response variant survives encode→decode byte-exactly.
    #[test]
    fn responses_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for resp in g.all_responses() {
            let bytes = resp.encode();
            let back = ShardResponse::decode(&bytes, "peer");
            prop_assert_eq!(back.as_ref().ok(), Some(&resp), "variant {:?}", resp);
        }
    }

    /// Messages survive the frame layer too (header + checksum).
    #[test]
    fn frames_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for req in g.all_requests() {
            let mut buf = Vec::new();
            write_frame(&mut buf, "peer", &[], &req.encode()).expect("vec write");
            let (_, payload) = read_frame(&mut &buf[..], "peer").expect("frame intact");
            prop_assert_eq!(ShardRequest::decode(&payload, "peer").ok(), Some(req));
        }
    }

    /// Flipping any single byte of a frame yields a typed transport
    /// error — never a panic, never a silently-wrong message.
    #[test]
    fn corrupted_frames_error(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let reqs = g.all_requests();
        let req = &reqs[g.below(reqs.len() as u64) as usize];
        let mut buf = Vec::new();
        write_frame(&mut buf, "peer", &[], &req.encode()).expect("vec write");
        let pos = g.below(buf.len() as u64) as usize;
        buf[pos] ^= 1 + g.below(255) as u8;
        let decoded = read_frame(&mut &buf[..], "peer")
            .and_then(|(_, payload)| ShardRequest::decode(&payload, "peer"));
        match decoded {
            Err(MmdbError::Transport { .. }) => {}
            Err(other) => prop_assert!(false, "non-transport error: {other:?}"),
            Ok(got) => prop_assert!(false, "corrupt frame decoded to {got:?}"),
        }
    }

    /// Truncating a frame anywhere yields a typed transport error.
    #[test]
    fn truncated_frames_error(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let reqs = g.all_requests();
        let req = &reqs[g.below(reqs.len() as u64) as usize];
        let mut buf = Vec::new();
        write_frame(&mut buf, "peer", &[], &req.encode()).expect("vec write");
        buf.truncate(g.below(buf.len() as u64) as usize);
        let err = read_frame(&mut &buf[..], "peer").expect_err("truncated frame must error");
        prop_assert!(matches!(err, MmdbError::Transport { .. }), "{err:?}");
    }

    /// A frame stamped with any other protocol version is rejected
    /// with a Version fault before its payload is even read.
    #[test]
    fn wrong_version_errors(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let mut buf = Vec::new();
        write_frame(&mut buf, "peer", &[], b"payload").expect("vec write");
        let mut bogus = 1 + g.below(u16::MAX as u64 - 1) as u16;
        if bogus == VERSION {
            bogus += 1;
        }
        buf[4..6].copy_from_slice(&bogus.to_le_bytes());
        let err = read_frame(&mut &buf[..], "peer").expect_err("wrong version must error");
        prop_assert!(
            matches!(
                err,
                MmdbError::Transport {
                    fault: TransportFault::Version,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    /// A traced request carries its span id across the wire, a traced
    /// response carries its timing tree — and span id 0 or no tree
    /// reads back as untraced.
    #[test]
    fn traced_messages_roundtrip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let span_id = 1 + g.below(u64::MAX - 1);
        let reqs = g.all_requests();
        let req = &reqs[g.below(reqs.len() as u64) as usize];
        let mut buf = Vec::new();
        write_request(&mut buf, "peer", req, span_id).expect("vec write");
        // The server's own path: the frame, the span id, then the decode.
        let (trace, payload) = read_frame(&mut &buf[..], "peer").expect("traced request");
        prop_assert_eq!(decode_span_id(&trace, "peer").ok(), Some(span_id));
        prop_assert_eq!(ShardRequest::decode(&payload, "peer").ok(), Some(req.clone()));

        // Span id 0 means untraced and reads back as 0.
        let mut buf = Vec::new();
        write_request(&mut buf, "peer", req, 0).expect("vec write");
        let (trace, _) = read_frame(&mut &buf[..], "peer").expect("untraced request");
        prop_assert_eq!(decode_span_id(&trace, "peer").ok(), Some(0));

        let tree = g.span_node(3);
        let resps = g.all_responses();
        let resp = &resps[g.below(resps.len() as u64) as usize];
        let mut buf = Vec::new();
        write_response(&mut buf, "peer", resp, Some(&tree)).expect("vec write");
        let (back, node) = read_response(&mut &buf[..], "peer").expect("traced response");
        prop_assert_eq!(&back, resp);
        prop_assert_eq!(node.as_ref(), Some(&tree));

        let mut buf = Vec::new();
        write_response(&mut buf, "peer", resp, None).expect("vec write");
        let (_, node) = read_response(&mut &buf[..], "peer").expect("untraced response");
        prop_assert_eq!(node, None);
    }

    /// Arbitrary garbage payloads never panic the decoders.
    #[test]
    fn garbage_payloads_never_panic(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let len = g.below(64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        // Either outcome is fine — the property is "returns", not "errs":
        // a short garbage buffer can spell a valid tag-only message.
        let _ = ShardRequest::decode(&bytes, "peer");
        let _ = ShardResponse::decode(&bytes, "peer");
        let _ = read_frame(&mut &bytes[..], "peer");
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// The bytes of one fully-populated query description, captured from
/// the encoder before `QuerySpec` replaced the wire's own `Spec` struct;
/// v3, v4 and v5 share them. Shared by the query frames below.
const GOLDEN_SPEC: &str = "0500000073616c65730200000006000000726567696f6e00010400000065617374\
06000000616d6f756e7401000a0000000000000000fa000000000000000109000000637573746f6d657273\
04000000637573740200000069640106000000726567696f6e0106000000616d6f756e7401050104000000\
0000000008000000000000000200000000000000";

/// The spec `GOLDEN_SPEC` encodes.
fn golden_spec() -> QuerySpec {
    QuerySpec::table("sales")
        .filter(eq("region", "east"))
        .filter(between("amount", 10, 250))
        .join("customers", on("cust", "id"))
        .group_by("region", sum("amount"))
        .using(IndexKind::FullCss)
        .exec(ExecOptions {
            threads: 4,
            lanes: 8,
            shards: 2,
        })
}

/// `RunSpec`'s payload, written the same by v3 through v6.
fn golden_run_spec() -> (ShardRequest, String) {
    let spec = golden_spec();
    (ShardRequest::RunSpec { spec }, format!("0a{GOLDEN_SPEC}"))
}

/// v3's to v5's `Compile` (tag 9) of `GOLDEN_SPEC`, and `RunSpec`'s
/// payload: the query frames every peer before v6 wrote. `Compile` is
/// retired in v6, as the coordinator compiles every query itself.
fn pre_v6_query_frames() -> Vec<String> {
    vec![format!("09{GOLDEN_SPEC}"), golden_run_spec().1]
}

/// v5's `Plan` reply (tag 6) to a compile of `GOLDEN_SPEC` on a catalog
/// of 120 `sales` rows: the body, the row hints and the exec options.
/// Retired in v6 with `Compile`.
const RETIRED_PLAN: &str = concat!(
    "06",
    "0500000073616c6573",
    "02000000",
    "06000000726567696f6e",
    "00",
    "010400000065617374",
    "06000000616d6f756e74",
    "01",
    "000a00000000000000",
    "00fa00000000000000",
    "01",
    "09000000637573746f6d657273",
    "0400000063757374",
    "020000006964",
    "7800000000000000",
    "01",
    "06000000726567696f6e",
    "01",
    "01",
    "01",
    "06000000616d6f756e74",
    "00",
    "7800000000000000",
    "0400000000000000",
    "0800000000000000",
    "0200000000000000",
);

/// v3's and v4's `ExecuteBatch` (tag 11) of a point probe, a range probe
/// and `GOLDEN_SPEC`'s query: a remote serving window, retired in v5.
fn retired_execute_batch() -> String {
    format!(
        "0b03000000\
         000500000073616c65730400000063757374000700000000000000\
         010500000073616c657306000000616d6f756e7400fbffffffffffffff01010000007a\
         02{GOLDEN_SPEC}"
    )
}

/// A `Mutate` batch of one edit of each kind, in `Mutation`'s
/// declaration order, and the payload v4, v5 and v6 all write for it.
fn golden_mutate() -> (ShardRequest, &'static str) {
    let (sales, cust, amount) = ("sales".to_owned(), "cust".to_owned(), "amount".to_owned());
    let register = TableBuilder::new("sales")
        .int_column("cust", [7, -1])
        .str_column("region", ["east", "w"])
        .build()
        .expect("two equal columns");
    let mutate = ShardRequest::Mutate(vec![
        Mutation::Register(register),
        Mutation::DropTable(sales.clone()),
        Mutation::CreateIndex(sales.clone(), cust.clone(), IndexKind::FullCss),
        Mutation::DropIndex(sales.clone(), cust, IndexKind::Hash),
        Mutation::ReplaceColumn(
            sales.clone(),
            amount.clone(),
            vec![Value::Int(250), Value::from("z")],
        ),
        Mutation::RebuildColumn(sales, amount),
    ]);
    let want = concat!(
        "0c06000000",
        "000500000073616c65730200000004000000637573740200000000070000000000000000\
         ffffffffffffffff06000000726567696f6e02000000010400000065617374010100000077",
        "010500000073616c6573",
        "020500000073616c6573040000006375737405",
        "030500000073616c6573040000006375737407",
        "040500000073616c657306000000616d6f756e740200000000fa0000000000000001010000007a",
        "050500000073616c657306000000616d6f756e74",
    );
    (mutate, want)
}

/// `Applied` with two sort times, as v4, v5 and v6 all write it.
const GOLDEN_APPLIED: &str = "090200000087d61200000000005900000000000000";

/// `Info` of generation 1, as v5 and v6 both write it.
const V5_INFO: &str = "0a0100000000000000";

/// v4's `Info` (generation 1, then `swaps` 0, `pinned` 0 and the
/// default exec options, three fields v5 dropped).
const V4_INFO: &str = concat!(
    "0a",
    "0100000000000000",
    "0000000000000000",
    "0000000000000000",
    "0100000000000000",
    "0800000000000000",
    "0100000000000000",
);

/// Frame each payload as a `version` peer framed it and check that this
/// build refuses every one with a typed `Version` fault naming both
/// versions, before its payload is read.
fn assert_refused(version: u16, payloads: &[String]) {
    for hex in payloads {
        let mut frame = Vec::new();
        write_frame(&mut frame, "peer", &[], &unhex(hex)).expect("vec write");
        // The version field; the CRC covers trace and payload only.
        frame[4..6].copy_from_slice(&version.to_le_bytes());
        match read_frame(&mut &frame[..], "peer") {
            Err(MmdbError::Transport {
                fault: TransportFault::Version,
                detail,
                ..
            }) => assert!(
                detail.contains(&format!("v{version}")) && detail.contains(&format!("v{VERSION}")),
                "{detail}"
            ),
            other => panic!("{hex}: expected a typed Version fault, got {other:?}"),
        }
    }
}

/// A silent change of field order, tag or width would still satisfy
/// every roundtrip property above; these bytes would not. A batch of
/// catalog edits is one `Mutate` frame (tag 12), each edit tagged in
/// `Mutation`'s declaration order, and its reply one sort time per
/// replacement or rebuild. The handshake is `Hello` (tag 0), answered
/// with `Info` (tag 10) carrying the generation alone.
#[test]
fn golden_frames_pin_protocol_v6_bytes() {
    assert_eq!(VERSION, 6);
    let (req, want) = golden_run_spec();
    assert_eq!(req.encode(), unhex(&want), "{req:?}");
    assert_eq!(ShardRequest::decode(&req.encode(), "peer").ok(), Some(req));
    let (mutate, want) = golden_mutate();
    assert_eq!(mutate.encode(), unhex(want));
    assert_eq!(
        ShardRequest::decode(&mutate.encode(), "peer").ok(),
        Some(mutate)
    );
    assert_eq!(ShardRequest::Hello.encode(), unhex("00"));
    let responses = [
        (
            ShardResponse::Applied {
                sort_ns: vec![1_234_567, 89],
            },
            GOLDEN_APPLIED,
        ),
        (ShardResponse::Info { generation: 1 }, V5_INFO),
    ];
    for (resp, want) in responses {
        assert_eq!(resp.encode(), unhex(want), "{resp:?}");
        assert_eq!(
            ShardResponse::decode(&resp.encode(), "peer").ok(),
            Some(resp)
        );
    }
}

/// Protocol v5's golden payloads — `Compile` and its `Plan` reply (both
/// retired in v6), `RunSpec`, one `Mutate` batch, its `Applied` reply,
/// `Hello` and `Info` — each framed as a v5 peer framed it: a v6 reader
/// refuses every one with a typed `Version` fault naming both versions,
/// before its payload is read.
#[test]
fn golden_frames_pin_protocol_v5_bytes() {
    let mut payloads = pre_v6_query_frames();
    payloads.push(RETIRED_PLAN.to_owned());
    payloads.push(golden_mutate().1.to_owned());
    payloads.extend([GOLDEN_APPLIED, "00", V5_INFO].map(str::to_owned));
    assert_refused(5, &payloads);
}

/// Protocol v4's golden payloads — the query frames, the retired
/// `ExecuteBatch` window, one `Mutate` batch, its `Applied` reply and
/// v4's four-field `Info` — each framed as a v4 peer framed it: a v6
/// reader refuses every one with a typed `Version` fault naming both
/// versions, before its payload is read.
#[test]
fn golden_frames_pin_protocol_v4_bytes() {
    let mut payloads = pre_v6_query_frames();
    payloads.push(retired_execute_batch());
    payloads.push(golden_mutate().1.to_owned());
    payloads.extend([GOLDEN_APPLIED, V4_INFO].map(str::to_owned));
    assert_refused(4, &payloads);
}

/// Protocol v3's golden payloads, each framed as a v3 peer framed it: a
/// v6 reader refuses every one with a typed `Version` fault naming both
/// versions, before its payload is read.
#[test]
fn golden_frames_pin_protocol_v3_bytes() {
    let mut payloads = pre_v6_query_frames();
    payloads.push(retired_execute_batch());
    // The six catalog-edit frames and their two replies.
    payloads.extend(
        [
            "0c0500000073616c65730200000004000000637573740200000000070000000000000000\
             ffffffffffffffff06000000726567696f6e02000000010400000065617374010100000077",
            "0d0500000073616c6573",
            "0e0500000073616c6573040000006375737405",
            "0f0500000073616c6573040000006375737407",
            "100500000073616c657306000000616d6f756e740200000000fa0000000000000001010000007a",
            "110500000073616c657306000000616d6f756e74",
            "0b",
            "0987d612000000000001000000035900000000000000",
        ]
        .map(str::to_owned),
    );
    assert_refused(3, &payloads);
}

/// Every tag a v6 peer may send, and no retired one: the generators
/// above cover each v6 variant exactly once, so every roundtrip
/// property runs over the whole protocol and nothing else. Requests 3,
/// 5, 7, 8, 9, 11, 13–17 and 19, and responses 1, 3, 5, 6, 7 and 8,
/// were retired by v4, v5 and v6 and are never reused; a payload
/// carrying one is a typed decode error.
#[test]
fn the_generators_cover_exactly_the_v6_tags() {
    let mut g = Gen(7);
    let tags = |payloads: Vec<Vec<u8>>| payloads.iter().map(|p| p[0]).collect::<Vec<u8>>();
    let requests = tags(g.all_requests().iter().map(ShardRequest::encode).collect());
    assert_eq!(requests, [0, 1, 2, 4, 6, 10, 12, 18, 20, 21, 22]);
    let responses = tags(
        g.all_responses()
            .iter()
            .map(ShardResponse::encode)
            .collect(),
    );
    assert_eq!(responses, [0, 2, 4, 9, 10, 11, 13, 12, 14]);
    let refused = |decoded: std::result::Result<(), MmdbError>| {
        matches!(
            decoded,
            Err(MmdbError::Transport {
                fault: TransportFault::Decode,
                ..
            })
        )
    };
    for retired in [3u8, 5, 7, 8, 9, 11, 13, 14, 15, 16, 17, 19] {
        let decoded = ShardRequest::decode(&[retired], "peer").map(drop);
        assert!(refused(decoded), "request tag {retired}");
    }
    for retired in [1u8, 3, 5, 6, 7, 8] {
        let decoded = ShardResponse::decode(&[retired], "peer").map(drop);
        assert!(refused(decoded), "response tag {retired}");
    }
}

/// A peer's thread and lane counts decode bounded by
/// `ExecOptions::normalized`, in every frame that carries them, so no
/// frame can ask a server for more than a local caller could.
#[test]
fn decoded_thread_and_lane_counts_are_bounded() {
    let hostile = ExecOptions {
        threads: usize::MAX,
        lanes: usize::MAX,
        shards: 0,
    };
    let bounded = hostile.normalized();
    assert_eq!(
        (bounded.threads, bounded.lanes, bounded.shards),
        (64, 64, 1)
    );
    let decode = |req: ShardRequest| ShardRequest::decode(&req.encode(), "peer").unwrap();
    assert_eq!(
        decode(ShardRequest::SetExecOptions { exec: hostile }),
        ShardRequest::SetExecOptions { exec: bounded }
    );
    let spec = QuerySpec::table("t").exec(hostile);
    assert_eq!(
        decode(ShardRequest::RunSpec { spec }),
        ShardRequest::RunSpec {
            spec: QuerySpec::table("t").exec(bounded)
        }
    );
    let join = |lanes, threads| ShardRequest::JoinProbeBatch {
        table: "t".into(),
        column: "k".into(),
        values: vec![Value::Int(1)],
        lanes,
        threads,
    };
    assert_eq!(decode(join(usize::MAX, usize::MAX)), join(64, 64));
    assert_eq!(decode(join(0, 0)), join(1, 0), "0 threads stays adaptive");
}
