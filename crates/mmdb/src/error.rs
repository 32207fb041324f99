//! Typed errors for the database engine.
//!
//! The physical layer (operators over explicit `Column`/`RidList`/index
//! parts) stays panic-free by construction — callers hold the parts. The
//! engine layer resolves *names* (tables, columns, index kinds) at run
//! time, so lookups can fail; every failure names the offending table or
//! column so a query over a million-row catalog fails with a message, not
//! a stack trace.

use crate::index_choice::IndexKind;
pub use ccindex_store::StorageFault;

/// Everything the engine and builders can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MmdbError {
    /// A table name was not found in the catalog.
    UnknownTable {
        /// The name that failed to resolve.
        table: String,
    },
    /// A table was registered under a name the catalog already holds.
    DuplicateTable {
        /// The already-taken name.
        table: String,
    },
    /// A table was built with two columns of the same name.
    DuplicateColumn {
        /// The table being built.
        table: String,
        /// The name declared twice.
        column: String,
    },
    /// A column name was not found in a table.
    UnknownColumn {
        /// Table searched.
        table: String,
        /// The column name that failed to resolve.
        column: String,
    },
    /// No index of any kind is registered on the column.
    NoIndex {
        /// Table holding the column.
        table: String,
        /// The unindexed column.
        column: String,
    },
    /// A specific index kind was requested but never built.
    IndexNotBuilt {
        /// Table holding the column.
        table: String,
        /// The column.
        column: String,
        /// The kind that was requested.
        kind: IndexKind,
    },
    /// A range or ordered operation needs an ordered index but only
    /// unordered (hash) indexes are registered — §3.5: hash indexes do
    /// not preserve order.
    NoOrderedIndex {
        /// Table holding the column.
        table: String,
        /// The column.
        column: String,
    },
    /// `TableBuilder::build` found columns of unequal length.
    RaggedColumn {
        /// The table being built.
        table: String,
        /// The first column whose length disagrees.
        column: String,
        /// Length implied by the first column.
        expected: usize,
        /// Length actually found.
        got: usize,
    },
    /// An aggregate other than `Count` was asked over a non-integer
    /// measure column.
    NonIntegerMeasure {
        /// Table holding the measure.
        table: String,
        /// The measure column.
        column: String,
    },
    /// A shard key fell outside every range a partitioner declares — the
    /// sharded catalog has no shard that owns the row.
    ShardKeyOutOfRange {
        /// Display form of the offending key value.
        key: String,
        /// How many shards the partitioner declares.
        shards: usize,
    },
    /// A partitioner was constructed from an invalid specification
    /// (zero shards, unsorted or overlapping ranges, inverted bounds).
    InvalidPartitioner {
        /// What was wrong with the specification.
        reason: String,
    },
    /// A deployment knob read from the environment did not parse — a
    /// misconfiguration (`CCINDEX_SHARD_TIMEOUT_MS=abc`) that must fail loudly
    /// instead of silently running with the compiled-in default.
    InvalidExecOption {
        /// The environment variable that failed to parse.
        name: String,
        /// The unparsable value it held.
        value: String,
    },
    /// The requested operation does not apply to this result shape.
    Unsupported {
        /// Human-readable description of what was attempted.
        what: String,
    },
    /// A storage file could not be opened, read, written, or trusted.
    /// Every file-I/O fault on the save/open path surfaces as this
    /// error — a missing, truncated, or bit-flipped catalog file is a
    /// message naming the path, never a panic.
    Storage {
        /// The file (or in-memory snapshot label) at fault.
        path: String,
        /// Which stage of the storage conversation failed.
        fault: StorageFault,
        /// Human-readable detail (the underlying I/O error, the bad
        /// page, ...).
        detail: String,
    },
    /// A remote shard could not be reached, or the wire conversation
    /// with it failed. A dropped shard surfaces as this error on the
    /// affected requests — never a panic or an indefinite hang.
    Transport {
        /// The socket address (or description) of the peer.
        endpoint: String,
        /// Which stage of the conversation failed.
        fault: TransportFault,
        /// Human-readable detail (the underlying I/O error, the bad
        /// frame field, ...).
        detail: String,
        /// How many attempts the bounded-retry loop burned before
        /// giving up (0 when the operation is not retried).
        attempts: u32,
        /// Wall-clock time spent across those attempts, in
        /// milliseconds (0 when the operation is not retried).
        elapsed_ms: u64,
    },
}

/// Which stage of a wire conversation a [`MmdbError::Transport`] failure
/// happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// Establishing the TCP connection failed (after bounded retries).
    Connect,
    /// Reading or writing an established connection failed or timed out.
    Io,
    /// A frame arrived but its payload did not decode (bad tag, short
    /// buffer, invalid UTF-8).
    Decode,
    /// The frame checksum did not match — bytes were corrupted in
    /// flight.
    Checksum,
    /// The peer speaks a different protocol version (or is not a shard
    /// server at all — bad magic).
    Version,
    /// The peer answered with a well-formed message of the wrong shape
    /// for the request.
    Protocol,
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MmdbError>;

impl MmdbError {
    /// The typed error for a RID past the end of `table`'s `rows` rows —
    /// what every reader answers a RID it was handed but does not hold
    /// with.
    pub fn rid_out_of_range(table: &str, rid: u32, rows: usize) -> Self {
        MmdbError::Unsupported {
            what: format!("rid {rid} is out of range for table `{table}` ({rows} rows)"),
        }
    }

    /// A [`MmdbError::Transport`] fault that was not retried: no
    /// attempts, no elapsed time.
    pub fn transport(endpoint: &str, fault: TransportFault, detail: impl Into<String>) -> Self {
        MmdbError::Transport {
            endpoint: endpoint.to_owned(),
            fault,
            detail: detail.into(),
            attempts: 0,
            elapsed_ms: 0,
        }
    }
}

impl std::fmt::Display for MmdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmdbError::UnknownTable { table } => {
                write!(f, "unknown table `{table}`")
            }
            MmdbError::DuplicateTable { table } => {
                write!(f, "table `{table}` is already registered")
            }
            MmdbError::DuplicateColumn { table, column } => {
                write!(f, "table `{table}` declares column `{column}` twice")
            }
            MmdbError::UnknownColumn { table, column } => {
                write!(f, "table `{table}` has no column `{column}`")
            }
            MmdbError::NoIndex { table, column } => {
                write!(f, "no index registered on `{table}.{column}`")
            }
            MmdbError::IndexNotBuilt {
                table,
                column,
                kind,
            } => {
                write!(f, "no {kind:?} index built on `{table}.{column}`")
            }
            MmdbError::NoOrderedIndex { table, column } => {
                write!(
                    f,
                    "`{table}.{column}` has no ordered index (hash indexes \
                     cannot serve range or ordered access, §3.5)"
                )
            }
            MmdbError::RaggedColumn {
                table,
                column,
                expected,
                got,
            } => {
                write!(
                    f,
                    "table `{table}`: column `{column}` has {got} rows, \
                     expected {expected}"
                )
            }
            MmdbError::NonIntegerMeasure { table, column } => {
                write!(
                    f,
                    "measure column `{table}.{column}` holds non-integer \
                     values; Sum/Min/Max need an Int column"
                )
            }
            MmdbError::ShardKeyOutOfRange { key, shards } => {
                write!(
                    f,
                    "shard key `{key}` falls outside every declared range \
                     of the {shards}-shard partitioner"
                )
            }
            MmdbError::InvalidPartitioner { reason } => {
                write!(f, "invalid partitioner: {reason}")
            }
            MmdbError::InvalidExecOption { name, value } => {
                write!(
                    f,
                    "invalid execution option: {name}=`{value}` does not \
                     parse as an unsigned integer"
                )
            }
            MmdbError::Unsupported { what } => write!(f, "{what}"),
            MmdbError::Storage {
                path,
                fault,
                detail,
            } => write!(f, "storage fault on `{path}` ({}): {detail}", fault.stage()),
            MmdbError::Transport {
                endpoint,
                fault,
                detail,
                attempts,
                elapsed_ms,
            } => {
                let stage = match fault {
                    TransportFault::Connect => "connect failed",
                    TransportFault::Io => "I/O failed",
                    TransportFault::Decode => "frame did not decode",
                    TransportFault::Checksum => "frame checksum mismatch",
                    TransportFault::Version => "protocol version mismatch",
                    TransportFault::Protocol => "unexpected response shape",
                };
                write!(f, "shard `{endpoint}`: {stage}: {detail}")?;
                if *attempts > 0 {
                    write!(f, " (after {attempts} attempt(s) in {elapsed_ms} ms)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for MmdbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        let e = MmdbError::UnknownColumn {
            table: "sales".into(),
            column: "regoin".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("sales") && msg.contains("regoin"), "{msg}");

        let e = MmdbError::RaggedColumn {
            table: "t".into(),
            column: "b".into(),
            expected: 3,
            got: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains('t') && msg.contains('b'), "{msg}");
        assert!(msg.contains('3') && msg.contains('2'), "{msg}");

        let e = MmdbError::IndexNotBuilt {
            table: "t".into(),
            column: "c".into(),
            kind: IndexKind::FullCss,
        };
        assert!(e.to_string().contains("FullCss"));

        let e = MmdbError::ShardKeyOutOfRange {
            key: "9999".into(),
            shards: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("9999") && msg.contains('4'), "{msg}");

        let e = MmdbError::InvalidPartitioner {
            reason: "ranges overlap".into(),
        };
        assert!(e.to_string().contains("ranges overlap"));

        let e = MmdbError::InvalidExecOption {
            name: "CCINDEX_SHARD_TIMEOUT_MS".into(),
            value: "abc".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("CCINDEX_SHARD_TIMEOUT_MS") && msg.contains("abc"),
            "{msg}"
        );

        let e = MmdbError::Transport {
            endpoint: "127.0.0.1:7070".into(),
            fault: TransportFault::Connect,
            detail: "connection refused".into(),
            attempts: 5,
            elapsed_ms: 150,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("127.0.0.1:7070") && msg.contains("connection refused"),
            "{msg}"
        );
        assert!(
            msg.contains("5 attempt(s)") && msg.contains("150 ms"),
            "{msg}"
        );

        let e = MmdbError::Transport {
            endpoint: "peer".into(),
            fault: TransportFault::Version,
            detail: "peer speaks v9, this build speaks v1".into(),
            attempts: 0,
            elapsed_ms: 0,
        };
        let msg = e.to_string();
        assert!(msg.contains("version"), "{msg}");
        // A non-retried failure does not claim any attempts.
        assert!(!msg.contains("attempt"), "{msg}");

        let e = MmdbError::Storage {
            path: "/data/catalog.ccs".into(),
            fault: StorageFault::Corrupt,
            detail: "page 7 crc 1234abcd, page table says deadbeef".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("/data/catalog.ccs")
                && msg.contains("corrupted")
                && msg.contains("page 7"),
            "{msg}"
        );

        let e = MmdbError::Storage {
            path: "missing.ccs".into(),
            fault: StorageFault::Open,
            detail: "No such file or directory".into(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("opening") && msg.contains("missing.ccs"),
            "{msg}"
        );
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(MmdbError::UnknownTable { table: "x".into() });
        assert!(e.to_string().contains('x'));
    }
}
