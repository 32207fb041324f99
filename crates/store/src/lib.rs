//! Versioned, checksummed, paged on-disk container for serialized
//! catalogs and indexes.
//!
//! The paper's CSS-trees are contiguous implicit node arrays over
//! sorted data — cheap to build and, by the same token, naturally
//! page-serializable. This crate is the container half of that story:
//! a dumb, dependency-free **paged store** in the spirit of geomedea's
//! packed R-tree files (streaming writes, a footer locating every
//! section, reads of only the touched slice). The schema half — what
//! the pages *mean* — lives in `mmdb`'s persist module, which writes
//! two pages per column (its domain's values and its in-place IDs) and
//! a manifest tying them together; everything else a catalog holds is
//! rebuilt from those at open.
//!
//! ## File layout
//!
//! ```text
//! +--------+-----------------+------------------------------+---------+
//! | header | page 0 … page N | footer                       | trailer |
//! | 8 B    | raw payloads    | page table + manifest        | 24 B    |
//! +--------+-----------------+------------------------------+---------+
//! ```
//!
//! * **header** — magic `CCSP`, format version (u16 LE), reserved.
//! * **pages** — raw payload bytes, back to back. Each page's kind,
//!   offset, length, and CRC-32 live in the footer's page table, so a
//!   reader seeks straight to the pages it needs and validates each
//!   one independently.
//! * **footer** — page count, one `(kind, offset, len, crc)` entry per
//!   page, then the caller's manifest blob.
//! * **trailer** — footer offset + length + CRC and magic `CCSF`,
//!   fixed-size at EOF so open starts by reading 24 bytes.
//!
//! Every failure mode — missing file, truncation, bit flips, foreign
//! magic, future format versions — surfaces as a typed [`StoreError`]
//! naming the path and fault; nothing in this crate panics on
//! corrupted input.
//!
//! ## The byte codec
//!
//! [`bytes`] is the workspace's one little-endian codec and its one
//! CRC-32: the header, page table and trailer here, `mmdb`'s manifest
//! and pages, and the wire protocol's frames and messages are all read
//! and written through [`bytes::ByteReader`] and [`bytes::ByteWriter`].
//! The reader checks every length against the bytes that remain, and a
//! decoder reserves at most what those bytes could hold
//! ([`bytes::ByteReader::capacity`]), whatever count the input claims.

#![deny(unsafe_op_in_unsafe_fn)]
#![forbid(unsafe_code)]

pub mod bytes;
mod error;
mod reader;
mod writer;

pub use bytes::crc32;
pub use error::{StorageFault, StoreError};
pub use reader::StoreReader;
pub use writer::{write_file, StoreWriter};

/// Store magic — identifies a ccindex page store.
pub const MAGIC: [u8; 4] = *b"CCSP";

/// Footer magic, fixed-size at EOF.
pub const FOOT_MAGIC: [u8; 4] = *b"CCSF";

/// Store format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Header length: magic + version + reserved.
pub(crate) const HEADER_LEN: usize = 8;

/// Trailer length: footer offset (u64) + length (u64) + CRC (u32) +
/// [`FOOT_MAGIC`].
pub(crate) const TRAILER_LEN: usize = 24;

/// Upper bound on the page count a footer may declare (guards
/// allocation against a corrupted or hostile count field). Writers
/// panic rather than emit a container readers would reject.
pub const MAX_PAGES: u32 = 1 << 20;

/// What a page holds. The store treats payloads as opaque bytes; the
/// kind travels in the page table so readers can type-check a page
/// before decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// A sorted `u32` key array (LE). No catalog writes it; the code
    /// stays reserved.
    SortedKeys,
    /// A column's domain dictionary: its distinct values, sorted.
    DomainValues,
    /// A column's dense domain-ID vector (`u32` LE per row).
    ColumnIds,
    /// The sorted key half of a RID list (`u32` LE), which manifest
    /// version 1 stored. A catalog now rebuilds the list from its
    /// column's IDs; the code stays reserved.
    RidKeys,
    /// The RID half of a RID list, parallel to its keys (`u32` LE), which
    /// manifest version 1 stored; the code stays reserved.
    RidValues,
    /// One CSS-tree directory level's node slots (`u32` LE), which
    /// manifest version 1 stored and validated; the code stays reserved.
    CssLevel,
    /// Uninterpreted bytes (the escape hatch for layered formats).
    Raw,
}

impl PageKind {
    /// Every kind, in tag order.
    pub const ALL: [PageKind; 7] = [
        PageKind::SortedKeys,
        PageKind::DomainValues,
        PageKind::ColumnIds,
        PageKind::RidKeys,
        PageKind::RidValues,
        PageKind::CssLevel,
        PageKind::Raw,
    ];

    /// The on-disk tag.
    pub fn code(self) -> u8 {
        match self {
            PageKind::SortedKeys => 0,
            PageKind::DomainValues => 1,
            PageKind::ColumnIds => 2,
            PageKind::RidKeys => 3,
            PageKind::RidValues => 4,
            PageKind::CssLevel => 5,
            PageKind::Raw => 6,
        }
    }

    /// Decode an on-disk tag; `None` for tags this build doesn't know.
    pub fn from_code(code: u8) -> Option<PageKind> {
        PageKind::ALL.get(code as usize).copied()
    }
}

/// One page's entry in the footer's page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageEntry {
    pub(crate) kind: PageKind,
    pub(crate) offset: u64,
    pub(crate) len: u64,
    pub(crate) crc: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn page_kind_codes_roundtrip() {
        for kind in PageKind::ALL {
            assert_eq!(PageKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(PageKind::from_code(200), None);
    }
}
