//! Byte-level codecs: primitives plus every `mmdb` type that crosses
//! the wire.
//!
//! Hand-rolled little-endian encoding in the same spirit as
//! `bench/report.rs`'s hand-rolled JSON — no third-party serializer,
//! every decode failure a typed [`MmdbError::Transport`] with
//! [`TransportFault::Decode`], never a panic. Strings are
//! length-prefixed UTF-8; sequences are length-prefixed; enums are
//! one-byte tags.

use ccindex_obs::SpanNode;
use mmdb::plan::{GroupStep, JoinStep, Plan, Probe, ProbeStep, Routing, Side};
use mmdb::{
    between, eq, on, Agg, AggFn, ExecOptions, GroupRow, IndexKind, JoinRow, MmdbError, Predicate,
    PredicateOp, Result, ResultRows, StorageFault, TransportFault, Value,
};

/// Append-only encode buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte (also the enum-tag encoder).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `false` = 0, `true` = 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Length-prefixed UTF-8.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed raw bytes (snapshot-page payloads).
    pub fn blob(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Option tag (0 = None, 1 = Some) followed by the value via `f`.
    pub fn option<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                f(self, inner);
            }
        }
    }

    /// Length-prefixed sequence, each element via `f`.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
    }
}

/// Cursor over a received payload. Every read checks bounds and
/// returns a typed decode error naming the peer on failure.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    endpoint: &'a str,
}

impl<'a> Reader<'a> {
    /// Start decoding `buf` received from `endpoint`.
    pub fn new(buf: &'a [u8], endpoint: &'a str) -> Self {
        Self {
            buf,
            pos: 0,
            endpoint,
        }
    }

    /// A typed decode error naming the peer; public so message-level
    /// decoders can reject bad tags with the same shape.
    pub fn fail(&self, detail: impl Into<String>) -> MmdbError {
        MmdbError::Transport {
            endpoint: self.endpoint.to_owned(),
            fault: TransportFault::Decode,
            detail: detail.into(),
            attempts: 0,
            elapsed_ms: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the payload was consumed exactly.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.fail(format!("{} trailing bytes after message", self.remaining())));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.fail(format!(
                "payload truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One raw byte (also the enum-tag decoder).
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Little-endian i64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// `usize` travels as u64.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.fail(format!("length {v} overflows usize")))
    }

    /// Strict 0/1 boolean.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.fail(format!("bad bool byte {other}"))),
        }
    }

    /// Length-prefixed UTF-8.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| self.fail(format!("string is not UTF-8: {e}")))
    }

    /// Length-prefixed raw bytes (snapshot-page payloads).
    pub fn blob(&mut self) -> Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Option tag (0 = None, 1 = Some) followed by the value via `f`.
    pub fn option<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            other => Err(self.fail(format!("bad option tag {other}"))),
        }
    }

    /// Length-prefixed sequence, each element via `f`. The reservation
    /// is clamped to the bytes actually remaining — `remaining / size_of::<T>()`
    /// elements — so a corrupted length cannot force a wild allocation.
    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let len = self.u32()? as usize;
        let fit = self.remaining() / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(len.min(fit));
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// mmdb type codecs
// ---------------------------------------------------------------------

/// Encode a [`Value`].
pub fn put_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Int(i) => {
            w.u8(0);
            w.i64(*i);
        }
        Value::Str(s) => {
            w.u8(1);
            w.str(s);
        }
    }
}

/// Decode a [`Value`].
pub fn get_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::Str(r.str()?)),
        other => Err(r.fail(format!("bad Value tag {other}"))),
    }
}

/// Encode an [`IndexKind`] as its position in [`IndexKind::ALL`].
pub fn put_kind(w: &mut Writer, kind: IndexKind) {
    let tag = IndexKind::ALL
        .iter()
        .position(|k| *k == kind)
        .unwrap_or_default();
    w.u8(tag as u8);
}

/// Decode an [`IndexKind`].
pub fn get_kind(r: &mut Reader<'_>) -> Result<IndexKind> {
    let tag = r.u8()? as usize;
    IndexKind::ALL
        .get(tag)
        .copied()
        .ok_or_else(|| r.fail(format!("bad IndexKind tag {tag}")))
}

/// Encode an [`AggFn`].
pub fn put_agg_fn(w: &mut Writer, agg: AggFn) {
    w.u8(match agg {
        AggFn::Count => 0,
        AggFn::Sum => 1,
        AggFn::Min => 2,
        AggFn::Max => 3,
    });
}

/// Decode an [`AggFn`].
pub fn get_agg_fn(r: &mut Reader<'_>) -> Result<AggFn> {
    match r.u8()? {
        0 => Ok(AggFn::Count),
        1 => Ok(AggFn::Sum),
        2 => Ok(AggFn::Min),
        3 => Ok(AggFn::Max),
        other => Err(r.fail(format!("bad AggFn tag {other}"))),
    }
}

/// Encode an [`Agg`] (aggregate plus its measure column, if any).
pub fn put_agg(w: &mut Writer, agg: &Agg) {
    match agg {
        Agg::Count => w.u8(0),
        Agg::Sum(m) => {
            w.u8(1);
            w.str(m);
        }
        Agg::Min(m) => {
            w.u8(2);
            w.str(m);
        }
        Agg::Max(m) => {
            w.u8(3);
            w.str(m);
        }
    }
}

/// Decode an [`Agg`].
pub fn get_agg(r: &mut Reader<'_>) -> Result<Agg> {
    match r.u8()? {
        0 => Ok(Agg::Count),
        1 => Ok(Agg::Sum(r.str()?)),
        2 => Ok(Agg::Min(r.str()?)),
        3 => Ok(Agg::Max(r.str()?)),
        other => Err(r.fail(format!("bad Agg tag {other}"))),
    }
}

/// Encode a [`Side`].
pub fn put_side(w: &mut Writer, side: Side) {
    w.u8(match side {
        Side::Outer => 0,
        Side::Inner => 1,
    });
}

/// Decode a [`Side`].
pub fn get_side(r: &mut Reader<'_>) -> Result<Side> {
    match r.u8()? {
        0 => Ok(Side::Outer),
        1 => Ok(Side::Inner),
        other => Err(r.fail(format!("bad Side tag {other}"))),
    }
}

/// Encode a [`Probe`].
pub fn put_probe(w: &mut Writer, probe: &Probe) {
    match probe {
        Probe::Point(v) => {
            w.u8(0);
            put_value(w, v);
        }
        Probe::Range(lo, hi) => {
            w.u8(1);
            put_value(w, lo);
            put_value(w, hi);
        }
    }
}

/// Decode a [`Probe`].
pub fn get_probe(r: &mut Reader<'_>) -> Result<Probe> {
    match r.u8()? {
        0 => Ok(Probe::Point(get_value(r)?)),
        1 => Ok(Probe::Range(get_value(r)?, get_value(r)?)),
        other => Err(r.fail(format!("bad Probe tag {other}"))),
    }
}

/// Encode a [`Predicate`] through its public view.
pub fn put_predicate(w: &mut Writer, pred: &Predicate) {
    w.str(pred.column());
    match pred.op() {
        PredicateOp::Eq(v) => {
            w.u8(0);
            put_value(w, v);
        }
        PredicateOp::Between(lo, hi) => {
            w.u8(1);
            put_value(w, lo);
            put_value(w, hi);
        }
    }
}

/// Decode a [`Predicate`], reconstructing through [`eq`]/[`between`].
pub fn get_predicate(r: &mut Reader<'_>) -> Result<Predicate> {
    let column = r.str()?;
    match r.u8()? {
        0 => Ok(eq(&column, get_value(r)?)),
        1 => Ok(between(&column, get_value(r)?, get_value(r)?)),
        other => Err(r.fail(format!("bad Predicate tag {other}"))),
    }
}

/// Encode a [`JoinOn`](mmdb::JoinOn) condition.
pub fn put_join_on(w: &mut Writer, j: &mmdb::JoinOn) {
    w.str(j.outer());
    w.str(j.inner());
}

/// Decode a [`JoinOn`](mmdb::JoinOn), reconstructing through [`on`].
pub fn get_join_on(r: &mut Reader<'_>) -> Result<mmdb::JoinOn> {
    let outer = r.str()?;
    let inner = r.str()?;
    Ok(on(&outer, &inner))
}

/// Encode [`ExecOptions`].
pub fn put_exec(w: &mut Writer, exec: ExecOptions) {
    w.usize(exec.threads);
    w.usize(exec.lanes);
    w.usize(exec.shards);
}

/// Decode [`ExecOptions`], bounded by [`ExecOptions::normalized`]: a
/// peer cannot ask a server for more threads or lanes than a local
/// caller can.
pub fn get_exec(r: &mut Reader<'_>) -> Result<ExecOptions> {
    Ok(ExecOptions {
        threads: r.usize()?,
        lanes: r.usize()?,
        shards: r.usize()?,
    }
    .normalized())
}

/// Encode a [`GroupRow`].
pub fn put_group_row(w: &mut Writer, g: &GroupRow) {
    put_value(w, &g.group);
    w.i64(g.value);
}

/// Decode a [`GroupRow`].
pub fn get_group_row(r: &mut Reader<'_>) -> Result<GroupRow> {
    Ok(GroupRow {
        group: get_value(r)?,
        value: r.i64()?,
    })
}

/// Encode [`ResultRows`].
pub fn put_result_rows(w: &mut Writer, rows: &ResultRows) {
    match rows {
        ResultRows::Rids(rids) => {
            w.u8(0);
            w.seq(rids, |w, r| w.u32(*r));
        }
        ResultRows::Joined(pairs) => {
            w.u8(1);
            w.seq(pairs, |w, p| {
                w.u32(p.outer_rid);
                w.u32(p.inner_rid);
            });
        }
        ResultRows::Groups(groups) => {
            w.u8(2);
            w.seq(groups, put_group_row);
        }
    }
}

/// Decode [`ResultRows`].
pub fn get_result_rows(r: &mut Reader<'_>) -> Result<ResultRows> {
    match r.u8()? {
        0 => Ok(ResultRows::Rids(r.seq(|r| r.u32())?)),
        1 => Ok(ResultRows::Joined(r.seq(|r| {
            Ok(JoinRow {
                outer_rid: r.u32()?,
                inner_rid: r.u32()?,
            })
        })?)),
        2 => Ok(ResultRows::Groups(r.seq(get_group_row)?)),
        other => Err(r.fail(format!("bad ResultRows tag {other}"))),
    }
}

/// Encode an [`MmdbError`] so a shard server can answer failures in
/// kind — the coordinator re-raises the same typed error it would have
/// seen in-process.
pub fn put_error(w: &mut Writer, e: &MmdbError) {
    match e {
        MmdbError::UnknownTable { table } => {
            w.u8(0);
            w.str(table);
        }
        MmdbError::DuplicateTable { table } => {
            w.u8(1);
            w.str(table);
        }
        MmdbError::UnknownColumn { table, column } => {
            w.u8(2);
            w.str(table);
            w.str(column);
        }
        MmdbError::NoIndex { table, column } => {
            w.u8(3);
            w.str(table);
            w.str(column);
        }
        MmdbError::IndexNotBuilt {
            table,
            column,
            kind,
        } => {
            w.u8(4);
            w.str(table);
            w.str(column);
            put_kind(w, *kind);
        }
        MmdbError::NoOrderedIndex { table, column } => {
            w.u8(5);
            w.str(table);
            w.str(column);
        }
        MmdbError::RaggedColumn {
            table,
            column,
            expected,
            got,
        } => {
            w.u8(6);
            w.str(table);
            w.str(column);
            w.usize(*expected);
            w.usize(*got);
        }
        MmdbError::NonIntegerMeasure { table, column } => {
            w.u8(7);
            w.str(table);
            w.str(column);
        }
        MmdbError::ShardKeyOutOfRange { key, shards } => {
            w.u8(8);
            w.str(key);
            w.usize(*shards);
        }
        MmdbError::InvalidPartitioner { reason } => {
            w.u8(9);
            w.str(reason);
        }
        MmdbError::InvalidExecOption { name, value } => {
            w.u8(10);
            w.str(name);
            w.str(value);
        }
        MmdbError::Unsupported { what } => {
            w.u8(11);
            w.str(what);
        }
        MmdbError::Transport {
            endpoint,
            fault,
            detail,
            attempts,
            elapsed_ms,
        } => {
            w.u8(12);
            w.str(endpoint);
            w.u8(match fault {
                TransportFault::Connect => 0,
                TransportFault::Io => 1,
                TransportFault::Decode => 2,
                TransportFault::Checksum => 3,
                TransportFault::Version => 4,
                TransportFault::Protocol => 5,
            });
            w.str(detail);
            w.u32(*attempts);
            w.u64(*elapsed_ms);
        }
        MmdbError::Storage {
            path,
            fault,
            detail,
        } => {
            w.u8(13);
            w.str(path);
            w.u8(match fault {
                StorageFault::Open => 0,
                StorageFault::Read => 1,
                StorageFault::Write => 2,
                StorageFault::Format => 3,
                StorageFault::Corrupt => 4,
                StorageFault::Version => 5,
            });
            w.str(detail);
        }
    }
}

/// Decode an [`MmdbError`].
pub fn get_error(r: &mut Reader<'_>) -> Result<MmdbError> {
    Ok(match r.u8()? {
        0 => MmdbError::UnknownTable { table: r.str()? },
        1 => MmdbError::DuplicateTable { table: r.str()? },
        2 => MmdbError::UnknownColumn {
            table: r.str()?,
            column: r.str()?,
        },
        3 => MmdbError::NoIndex {
            table: r.str()?,
            column: r.str()?,
        },
        4 => MmdbError::IndexNotBuilt {
            table: r.str()?,
            column: r.str()?,
            kind: get_kind(r)?,
        },
        5 => MmdbError::NoOrderedIndex {
            table: r.str()?,
            column: r.str()?,
        },
        6 => MmdbError::RaggedColumn {
            table: r.str()?,
            column: r.str()?,
            expected: r.usize()?,
            got: r.usize()?,
        },
        7 => MmdbError::NonIntegerMeasure {
            table: r.str()?,
            column: r.str()?,
        },
        8 => MmdbError::ShardKeyOutOfRange {
            key: r.str()?,
            shards: r.usize()?,
        },
        9 => MmdbError::InvalidPartitioner { reason: r.str()? },
        10 => MmdbError::InvalidExecOption {
            name: r.str()?,
            value: r.str()?,
        },
        11 => MmdbError::Unsupported { what: r.str()? },
        12 => MmdbError::Transport {
            endpoint: r.str()?,
            fault: match r.u8()? {
                0 => TransportFault::Connect,
                1 => TransportFault::Io,
                2 => TransportFault::Decode,
                3 => TransportFault::Checksum,
                4 => TransportFault::Version,
                5 => TransportFault::Protocol,
                other => return Err(r.fail(format!("bad TransportFault tag {other}"))),
            },
            detail: r.str()?,
            attempts: r.u32()?,
            elapsed_ms: r.u64()?,
        },
        13 => MmdbError::Storage {
            path: r.str()?,
            fault: match r.u8()? {
                0 => StorageFault::Open,
                1 => StorageFault::Read,
                2 => StorageFault::Write,
                3 => StorageFault::Format,
                4 => StorageFault::Corrupt,
                5 => StorageFault::Version,
                other => return Err(r.fail(format!("bad StorageFault tag {other}"))),
            },
            detail: r.str()?,
        },
        other => return Err(r.fail(format!("bad MmdbError tag {other}"))),
    })
}

/// Deepest [`SpanNode`] tree the decoder will accept — real traces are
/// a handful of levels; anything deeper is corrupted or hostile input.
const MAX_SPAN_DEPTH: u32 = 64;

/// Encode a [`SpanNode`] timing tree (the response half of a
/// propagated trace).
pub fn put_span_node(w: &mut Writer, node: &SpanNode) {
    w.str(&node.name);
    w.u64(node.elapsed_ns);
    w.seq(&node.children, put_span_node);
}

/// Decode a [`SpanNode`] timing tree, rejecting trees deeper than
/// `MAX_SPAN_DEPTH` (64 levels — real traces are a handful).
pub fn get_span_node(r: &mut Reader<'_>) -> Result<SpanNode> {
    get_span_node_at(r, 0)
}

fn get_span_node_at(r: &mut Reader<'_>, depth: u32) -> Result<SpanNode> {
    if depth >= MAX_SPAN_DEPTH {
        return Err(r.fail(format!("span tree deeper than {MAX_SPAN_DEPTH} levels")));
    }
    let name = r.str()?;
    let elapsed_ns = r.u64()?;
    let children = r.seq(|r| get_span_node_at(r, depth + 1))?;
    Ok(SpanNode {
        name,
        elapsed_ns,
        children,
    })
}

/// Encode a compiled [`Plan`] (all plan-node fields are public, so the
/// coordinator can reconstruct an identical template from a remote
/// shard's compile). The body only: a shard compiles and runs plans in
/// place, so the [`Routing`] is never on the wire and decodes as the
/// default. Each step keeps v3's reserved thread-count slot, written as
/// what the plan runs with (1 for a probe, `exec.threads` for the join
/// and the group) and dropped on decode: a plan records its parallelism
/// once, in `exec`.
pub fn put_plan(w: &mut Writer, plan: &Plan) {
    w.str(&plan.table);
    w.seq(&plan.probes, |w, p| {
        w.str(&p.column);
        put_kind(w, p.kind);
        put_probe(w, &p.probe);
        w.usize(1);
    });
    w.option(plan.join.as_ref(), |w, j| {
        w.str(&j.inner_table);
        w.str(&j.outer_column);
        w.str(&j.inner_column);
        put_kind(w, j.kind);
        w.usize(plan.exec.threads);
        w.usize(j.rows_hint);
    });
    w.option(plan.group.as_ref(), |w, g| {
        w.str(&g.column);
        put_side(w, g.side);
        put_agg_fn(w, g.agg);
        w.option(g.measure.as_ref(), |w, (m, side)| {
            w.str(m);
            put_side(w, *side);
        });
        w.usize(plan.exec.threads);
        w.usize(g.rows_hint);
    });
    put_exec(w, plan.exec);
}

/// Decode a compiled [`Plan`].
pub fn get_plan(r: &mut Reader<'_>) -> Result<Plan> {
    let table = r.str()?;
    // Each step's reserved thread-count slot is read and dropped.
    let probes = r.seq(|r| {
        let step = ProbeStep {
            column: r.str()?,
            kind: get_kind(r)?,
            probe: get_probe(r)?,
        };
        r.usize()?;
        Ok(step)
    })?;
    let join = r.option(|r| {
        Ok(JoinStep {
            inner_table: r.str()?,
            outer_column: r.str()?,
            inner_column: r.str()?,
            kind: get_kind(r)?,
            rows_hint: r.usize().and_then(|_| r.usize())?,
        })
    })?;
    let group = r.option(|r| {
        Ok(GroupStep {
            column: r.str()?,
            side: get_side(r)?,
            agg: get_agg_fn(r)?,
            measure: r.option(|r| Ok((r.str()?, get_side(r)?)))?,
            rows_hint: r.usize().and_then(|_| r.usize())?,
        })
    })?;
    let exec = get_exec(r)?;
    Ok(Plan {
        table,
        probes,
        join,
        group,
        exec,
        routing: Routing::default(),
    })
}
