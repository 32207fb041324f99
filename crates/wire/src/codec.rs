//! Codecs for every `mmdb` type that crosses the wire.
//!
//! The bytes are `ccindex_store::bytes`' — the codec the store and the
//! catalog manifest use too, with [`mmdb::put_value`]/[`mmdb::get_value`]
//! as the one `Value` encoding — so this module only fixes each type's
//! field order and enum tags. Every decode failure is a typed
//! [`MmdbError::Transport`] with [`TransportFault::Decode`] naming the
//! peer, never a panic.

use ccindex_obs::SpanNode;
use ccindex_store::bytes::{ByteReader, ByteWriter};
use mmdb::{
    between, eq, get_value, on, put_value, Agg, ExecOptions, GroupRow, IndexKind, JoinRow,
    MmdbError, Mutation, Predicate, PredicateOp, Result, ResultRows, StorageFault, TableBuilder,
    TransportFault,
};

/// A reader over bytes received from a peer.
pub type Reader<'a> = ByteReader<'a, MmdbError>;

/// The error of every wire decode, from a short payload to a frame past
/// its cap: a typed [`TransportFault::Decode`] naming `endpoint`.
pub(crate) fn decode_error(endpoint: &str, detail: String) -> MmdbError {
    MmdbError::transport(endpoint, TransportFault::Decode, detail)
}

/// Start decoding `bytes` received from `endpoint`.
pub(crate) fn reader<'a>(bytes: &'a [u8], endpoint: &'a str) -> Reader<'a> {
    ByteReader::new(bytes, endpoint, decode_error)
}

// ---------------------------------------------------------------------
// mmdb type codecs
// ---------------------------------------------------------------------

/// Encode an [`IndexKind`] as its position in [`IndexKind::ALL`].
pub fn put_kind(w: &mut ByteWriter, kind: IndexKind) {
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

/// Encode an [`Agg`] (aggregate plus its measure column, if any).
pub fn put_agg(w: &mut ByteWriter, agg: &Agg) {
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

/// Encode a [`Predicate`] through its public view.
pub fn put_predicate(w: &mut ByteWriter, pred: &Predicate) {
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
pub fn put_join_on(w: &mut ByteWriter, j: &mmdb::JoinOn) {
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
pub fn put_exec(w: &mut ByteWriter, exec: ExecOptions) {
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
pub fn put_group_row(w: &mut ByteWriter, g: &GroupRow) {
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
pub fn put_result_rows(w: &mut ByteWriter, rows: &ResultRows) {
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
pub fn put_error(w: &mut ByteWriter, e: &MmdbError) {
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
        MmdbError::DuplicateColumn { table, column } => {
            w.u8(14);
            w.str(table);
            w.str(column);
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
        14 => MmdbError::DuplicateColumn {
            table: r.str()?,
            column: r.str()?,
        },
        other => return Err(r.fail(format!("bad MmdbError tag {other}"))),
    })
}

/// Deepest [`SpanNode`] tree the decoder will accept — real traces are
/// a handful of levels; anything deeper is corrupted or hostile input.
const MAX_SPAN_DEPTH: u32 = 64;

/// Encode a [`SpanNode`] timing tree (the response half of a
/// propagated trace).
pub fn put_span_node(w: &mut ByteWriter, node: &SpanNode) {
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

/// Encode one catalog edit of a `Mutate` batch: a tag in [`Mutation`]'s
/// declaration order, then its fields. A registered table travels as
/// its decoded columns, in declaration order, so the receiver encodes
/// it into its own domains.
pub(crate) fn put_mutation(w: &mut ByteWriter, mutation: &Mutation) {
    match mutation {
        Mutation::Register(table) => {
            w.u8(0);
            w.str(table.name());
            w.u32(table.columns().count() as u32);
            for (name, column) in table.columns() {
                w.str(name);
                w.seq(&column.domain().decode_batch(column.ids()), put_value);
            }
        }
        Mutation::DropTable(table) => {
            w.u8(1);
            w.str(table);
        }
        Mutation::CreateIndex(table, column, kind) => {
            w.u8(2);
            w.str(table);
            w.str(column);
            put_kind(w, *kind);
        }
        Mutation::DropIndex(table, column, kind) => {
            w.u8(3);
            w.str(table);
            w.str(column);
            put_kind(w, *kind);
        }
        Mutation::ReplaceColumn(table, column, values) => {
            w.u8(4);
            w.str(table);
            w.str(column);
            w.seq(values, put_value);
        }
        Mutation::RebuildColumn(table, column) => {
            w.u8(5);
            w.str(table);
            w.str(column);
        }
    }
}

/// Decode one catalog edit. A registered table is built here, so a
/// ragged or duplicate-named column is the typed
/// [`MmdbError::RaggedColumn`]/[`MmdbError::DuplicateColumn`] the table
/// constructor raises, not a decode fault: the peer learns what the
/// engine would have refused.
pub(crate) fn get_mutation(r: &mut Reader<'_>) -> Result<Mutation> {
    Ok(match r.u8()? {
        0 => {
            let mut table = TableBuilder::new(r.str()?);
            for (name, values) in r.seq(|r| Ok((r.str()?, r.seq(get_value)?)))? {
                table = table.column(name, values);
            }
            Mutation::Register(table.build()?)
        }
        1 => Mutation::DropTable(r.str()?),
        2 => Mutation::CreateIndex(r.str()?, r.str()?, get_kind(r)?),
        3 => Mutation::DropIndex(r.str()?, r.str()?, get_kind(r)?),
        4 => Mutation::ReplaceColumn(r.str()?, r.str()?, r.seq(get_value)?),
        5 => Mutation::RebuildColumn(r.str()?, r.str()?),
        other => return Err(r.fail(format!("bad Mutation tag {other}"))),
    })
}
