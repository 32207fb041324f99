//! Catalog persistence: save a committed generation as a paged
//! `ccindex-store` image, reopen it cold without touching the
//! row-rebuild path.
//!
//! The paper's structures are all *bulk-built*: §2.3 would "rebuild an
//! index from scratch after a batch of updates" rather than patch it. So
//! the image stores only what open cannot derive — each column's domain
//! dictionary and in-place ID array — and open rebuilds the rest. A
//! column's sorted RID list is [`RidList::for_column`], a radix-clustered
//! counting sort of the stored IDs, never a comparison sort; proving a
//! stored copy of it would cost as much as building it. No index kind
//! holds a structure of its own (the RID list answers every kind), so a
//! kind is stored as its code. No row is re-encoded. That is the cold
//! start `ccbench`'s `refresh` workload measures (`setup_s`,
//! `mmdb.catalog_decode_ms`).
//!
//! Layout inside the store container (see `ccindex_store` for the
//! container format — header, checksummed pages, page table, manifest,
//! trailer):
//!
//! * per column: one [`PageKind::DomainValues`] page (the sorted
//!   dictionary) and one [`PageKind::ColumnIds`] page (4 bytes/row);
//! * the manifest: each table's name and row count, each column's name
//!   and two page IDs, then each indexed column's name and the codes of
//!   the kinds created on it.
//!
//! The manifest and every page are written and read through
//! `ccindex_store::bytes`, the byte codec the wire protocol uses too, and
//! a domain page's values through [`put_value`]/[`get_value`], the one
//! encoding a [`Value`] has. A short read, a bad tag, invalid UTF-8 or a
//! trailing byte is the codec's error, built here as a typed
//! [`StorageFault::Corrupt`] naming the file. An image of another
//! [`MANIFEST_VERSION`] is a typed [`StorageFault::Version`]; there is
//! no upgrade path, so an older image is re-saved by the build that
//! wrote it.
//!
//! Everything read back is **validated before construction**: domain
//! sortedness, ID ranges (every stored ID inside its domain before the
//! column, and so the RID list's offsets, is built), and every
//! index record (a column of its table, listed once, with at least one
//! kind, each kind known and listed once). A bit-flipped, truncated, or
//! hostile file surfaces as a typed [`MmdbError::Storage`]; what the
//! validation proved is then handed to the physical layer's proven-input
//! constructors, so nothing is sorted by comparison or searched a second
//! time. A domain page decodes straight into its representation — `Int`
//! tags into the typed `i64` array, whose CSS directory is rebuilt (it
//! is not stored).
//!
//! Restoring into a live [`Database`] goes through the same
//! [`SwapSlot`](crate::snapshot::SwapSlot) commit cycle as every other
//! mutator: pinned readers keep their generation, and the restored
//! catalog becomes the next one atomically. The byte image is also the
//! shard snapshot-transfer format — [`catalog_to_bytes`] is what a
//! shard server streams to a bootstrapping peer.
//!
//! `examples/cold_start.rs` is the file-backed version, with timings.
//!
//! ```
//! use mmdb::{between, Database, IndexKind, MmdbError, StorageFault, TableBuilder};
//!
//! // Build a catalog the expensive way: encode columns, sort RID lists.
//! let mut db = Database::new();
//! db.register(
//!     TableBuilder::new("sales")
//!         .int_column("amount", [10, 40, 25, 40])
//!         .str_column("region", ["e", "w", "e", "n"])
//!         .build()?,
//! )?;
//! db.create_index("sales", "amount", IndexKind::FullCss)?;
//!
//! // One paged, checksummed container. (`save_to`/`open_from` are the
//! // file-backed twins of these byte-level calls.)
//! let bytes = db.save_to_bytes();
//!
//! // Cold start: pages decode straight into serving structures.
//! let reopened = Database::open_from_bytes(bytes.clone(), "example")?;
//! let live = db.query("sales").filter(between("amount", 20, 40)).run()?;
//! let cold = reopened
//!     .query("sales")
//!     .filter(between("amount", 20, 40))
//!     .run()?;
//! assert_eq!(live.rows(), cold.rows()); // byte-identical
//! assert_eq!(reopened.save_to_bytes(), bytes); // idempotent
//!
//! // Corruption never panics: flip a byte, get a typed error.
//! let mut evil = bytes;
//! let mid = evil.len() / 2;
//! evil[mid] ^= 0x10;
//! match Database::open_from_bytes(evil, "example") {
//!     Err(MmdbError::Storage { fault, .. }) => {
//!         assert_ne!(fault, StorageFault::Open); // decode-side fault
//!     }
//!     other => panic!("expected a typed storage error, got {other:?}"),
//! }
//! # Ok::<(), MmdbError>(())
//! ```

use crate::column::Column;
use crate::domain::{Domain, DomainView, Value};
use crate::engine::{ColumnEntry, Database, TableEntry};
use crate::error::{MmdbError, Result, StorageFault};
use crate::index_choice::IndexKind;
use crate::rid::RidList;
use crate::snapshot::CatalogState;
use crate::table::Table;
use ccindex_store::bytes::{ByteReader, ByteWriter};
use ccindex_store::{PageKind, StoreError, StoreReader, StoreWriter};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

/// Version of the *manifest* layout (the container has its own format
/// version underneath). Bumped when the page/manifest schema changes:
/// version 2 stores no RID list and no CSS directory.
pub const MANIFEST_VERSION: u32 = 2;

impl From<StoreError> for MmdbError {
    fn from(e: StoreError) -> Self {
        MmdbError::Storage {
            path: e.path,
            fault: e.fault,
            detail: e.detail,
        }
    }
}

/// The error of every manifest and page decode: a typed corruption
/// naming the file (or buffer label).
fn corrupt(label: &str, detail: String) -> MmdbError {
    MmdbError::Storage {
        path: label.to_owned(),
        fault: StorageFault::Corrupt,
        detail,
    }
}

// ---------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------

/// Serialize one committed catalog generation into a store image —
/// the same bytes [`Database::save_to`] writes to disk and a shard
/// server streams to a bootstrapping peer.
pub fn catalog_to_bytes(state: &CatalogState) -> Vec<u8> {
    let mut w = StoreWriter::new();
    let mut m = ByteWriter::new();
    m.u32(MANIFEST_VERSION);
    m.u32(state.tables.len() as u32);
    for (name, entry) in &state.tables {
        m.str(name);
        m.u64(entry.table.rows() as u64);
        m.u32(entry.table.columns().count() as u32);
        for (col_name, col) in entry.table.columns() {
            m.str(col_name);
            m.u32(w.page(PageKind::DomainValues, &encode_domain(col.domain())));
            m.u32(ids_page(&mut w, col.ids()));
        }
        // An indexed column's RID list is the (radix-clustered) counting
        // sort of its stored IDs, so its record is its name and its
        // kinds' codes.
        m.u32(entry.columns.len() as u32);
        for (col_name, col_entry) in &entry.columns {
            m.str(col_name);
            m.u32(col_entry.kinds.len() as u32);
            for &kind in &col_entry.kinds {
                m.u8(kind_code(kind));
            }
        }
    }
    w.finish(&m.into_bytes())
}

// ---------------------------------------------------------------------
// Open
// ---------------------------------------------------------------------

impl Database {
    /// Serialize the current committed catalog into a store image.
    pub fn save_to_bytes(&self) -> Vec<u8> {
        catalog_to_bytes(self)
    }

    /// Write the current committed catalog to `path` as a paged,
    /// checksummed store file. Any I/O fault is a typed
    /// [`MmdbError::Storage`], never a panic.
    pub fn save_to(&self, path: impl AsRef<Path>) -> Result<()> {
        ccindex_store::write_file(path.as_ref(), &self.save_to_bytes())?;
        Ok(())
    }

    /// Cold-start a database from a store file written by
    /// [`Database::save_to`]: pages are read and validated, the
    /// catalog is reassembled from parts — no row re-encoding and no
    /// comparison sort; each indexed column's RID list is the counting
    /// sort of its stored IDs.
    pub fn open_from(path: impl AsRef<Path>) -> Result<Self> {
        let mut reader = StoreReader::open_file(path.as_ref())?;
        let tables = decode_tables(&mut reader)?;
        let mut db = Database::new();
        db.replace_tables(tables);
        Ok(db)
    }

    /// [`Database::open_from`] over an in-memory image; `label` names
    /// the byte source in errors.
    pub fn open_from_bytes(bytes: Vec<u8>, label: &str) -> Result<Self> {
        let mut reader = StoreReader::open_bytes(bytes, label)?;
        let tables = decode_tables(&mut reader)?;
        let mut db = Database::new();
        db.replace_tables(tables);
        Ok(db)
    }

    /// Replace this database's catalog with a decoded image, committed
    /// through the normal [`SwapSlot`](crate::snapshot::SwapSlot)
    /// cycle: readers pinned to older generations are unaffected, the
    /// restored catalog is the next generation, and the database's
    /// [`ExecOptions`](crate::plan::ExecOptions) are kept. Nothing is
    /// replaced if the image fails validation.
    pub fn restore_from_bytes(&mut self, bytes: &[u8], label: &str) -> Result<()> {
        let mut reader = StoreReader::open_bytes(bytes.to_vec(), label)?;
        let tables = decode_tables(&mut reader)?;
        self.replace_tables(tables);
        Ok(())
    }
}

fn decode_tables(r: &mut StoreReader) -> Result<BTreeMap<String, Arc<TableEntry>>> {
    let label = r.path().to_owned();
    let manifest = r.manifest().to_vec();
    let mut m = ByteReader::new(&manifest, &label, corrupt);
    let version = m.u32()?;
    if version != MANIFEST_VERSION {
        return Err(MmdbError::Storage {
            path: label,
            fault: StorageFault::Version,
            detail: format!(
                "catalog manifest version {version}, this build reads {MANIFEST_VERSION}"
            ),
        });
    }
    let mut tables = BTreeMap::new();
    let table_count = m.u32()?;
    for _ in 0..table_count {
        let name = m.str()?;
        let rows = usize::try_from(m.u64()?)
            .map_err(|_| corrupt(&label, format!("table `{name}`: impossible row count")))?;
        let column_count = m.u32()?;
        let mut columns: Vec<(String, Column)> =
            Vec::with_capacity(m.capacity::<(String, Column)>(column_count as usize));
        for _ in 0..column_count {
            let col_name = m.str()?;
            if columns.iter().any(|(n, _)| *n == col_name) {
                return Err(corrupt(
                    &label,
                    format!("table `{name}`: duplicate column `{col_name}`"),
                ));
            }
            let values_page = m.u32()?;
            let id_page = m.u32()?;
            let domain = decode_domain(r, values_page, &label, &name, &col_name)?;
            let ids = decode_ids(r, id_page, &label)?;
            if ids.len() != rows {
                return Err(corrupt(
                    &label,
                    format!(
                        "column `{name}.{col_name}`: {} in-place IDs for {rows} rows",
                        ids.len()
                    ),
                ));
            }
            if let Some(&bad) = ids.iter().find(|&&id| id as usize >= domain.len()) {
                return Err(corrupt(
                    &label,
                    format!(
                        "column `{name}.{col_name}`: ID {bad} outside its {}-value domain",
                        domain.len()
                    ),
                ));
            }
            columns.push((col_name, Column::from_proven_parts(domain, ids)));
        }
        // Every column was proven `rows` long; only a table without
        // columns can disagree with its recorded row count.
        let table = Table::from_parts(name.clone(), columns)?;
        if table.rows() != rows {
            return Err(corrupt(
                &label,
                format!("table `{name}`: {rows} rows, no column"),
            ));
        }

        let indexed_count = m.u32()?;
        let mut col_entries: BTreeMap<String, ColumnEntry> = BTreeMap::new();
        for _ in 0..indexed_count {
            let col_name = m.str()?;
            let at = |detail: &str| {
                corrupt(
                    &label,
                    format!("index record for `{name}.{col_name}`: {detail}"),
                )
            };
            let col = table.column(&col_name).ok_or_else(|| at("not a column"))?;
            if col_entries.contains_key(&col_name) {
                return Err(at("the column is listed twice"));
            }
            let index_count = m.u32()?;
            if index_count == 0 {
                return Err(at("no index kind"));
            }
            let mut kinds = BTreeSet::new();
            for _ in 0..index_count {
                let code = m.u8()?;
                let kind = kind_from_code(code)
                    .ok_or_else(|| at(&format!("unknown index kind code {code}")))?;
                if !kinds.insert(kind) {
                    return Err(at(&format!("{kind:?} is listed twice")));
                }
            }
            // Every ID was proven inside its domain before `col` was
            // built, so the sort's clusters and offsets index safely.
            let rids = RidList::for_column(col);
            col_entries.insert(col_name, ColumnEntry { rids, kinds });
        }
        if tables.contains_key(&name) {
            return Err(corrupt(&label, format!("duplicate table `{name}`")));
        }
        tables.insert(
            name,
            Arc::new(TableEntry {
                table,
                columns: col_entries,
            }),
        );
    }
    m.expect_end()?;
    Ok(tables)
}

// ---------------------------------------------------------------------
// Page payload codecs
// ---------------------------------------------------------------------

/// Append `value` in the one encoding it has, on the wire and in a
/// stored domain page alike: tag 0 then a little-endian `i64`, or tag 1
/// then a `u32`-length-prefixed UTF-8 string.
#[inline]
pub fn put_value(w: &mut ByteWriter, value: &Value) {
    match value {
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

/// Decode one [`put_value`] encoding; a short buffer, an unknown tag or
/// a string that is not UTF-8 is `r`'s error.
#[inline]
pub fn get_value(r: &mut ByteReader<'_, MmdbError>) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::Str(r.str()?)),
        other => Err(r.fail(format!("bad Value tag {other}"))),
    }
}

fn encode_domain(domain: &Domain) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(4 + domain.len() * 9);
    w.u32(domain.len() as u32);
    match domain.view() {
        DomainView::Int(ints) => {
            (0..domain.len() as u32).for_each(|id| put_value(&mut w, &Value::Int(ints.get(id))))
        }
        DomainView::Generic(values) => values.iter().for_each(|v| put_value(&mut w, v)),
    }
    w.into_bytes()
}

/// Decode a domain page straight into its representation: `Int` tags
/// fill the typed array, and the first `Str` tag moves what was read so
/// far into the generic one. Either way the values are proven strictly
/// increasing (in enum order, so a tag that flips back to `Int` after a
/// `Str` is out of order) before a proven-input constructor sees them.
fn decode_domain(
    r: &mut StoreReader,
    page: u32,
    label: &str,
    table: &str,
    column: &str,
) -> Result<Domain> {
    let unordered = || {
        let detail = format!("domain of `{table}.{column}`: values not strictly increasing");
        corrupt(label, detail)
    };
    let bytes = r.read_page_expect(page, PageKind::DomainValues)?;
    let mut c = ByteReader::new(&bytes, label, corrupt);
    let count = c.u32()? as usize;
    let mut ints: Vec<i64> = Vec::with_capacity(c.capacity::<i64>(count));
    let mut generic: Option<Vec<Value>> = None;
    for _ in 0..count {
        match (&mut generic, get_value(&mut c)?) {
            (None, Value::Int(i)) => {
                if ints.last().is_some_and(|&prev| prev >= i) {
                    return Err(unordered());
                }
                ints.push(i);
            }
            (None, first_str) => {
                // Every `Int` read so far sorts before any `Str`.
                let mut values = Vec::with_capacity(c.capacity::<Value>(count));
                values.extend(ints.drain(..).map(Value::Int));
                values.push(first_str);
                generic = Some(values);
            }
            (Some(values), value) => {
                if values.last().is_some_and(|prev| *prev >= value) {
                    return Err(unordered());
                }
                values.push(value);
            }
        }
    }
    c.expect_end()?;
    Ok(match generic {
        None => Domain::from_sorted_ints(ints),
        Some(values) => Domain::from_sorted_values(values),
    })
}

/// Append a column's in-place IDs as a [`PageKind::ColumnIds`] page of
/// little-endian `u32`s led by their count, and return its id.
fn ids_page(w: &mut StoreWriter, ids: &[u32]) -> u32 {
    let mut page = ByteWriter::with_capacity(4 + ids.len() * 4);
    page.u32(ids.len() as u32);
    page.u32s(ids);
    w.page(PageKind::ColumnIds, &page.into_bytes())
}

/// Read back an [`ids_page`]; a count that disagrees with the page's
/// length is a typed corruption error.
fn decode_ids(r: &mut StoreReader, page: u32, label: &str) -> Result<Arc<[u32]>> {
    let bytes = r.read_page_expect(page, PageKind::ColumnIds)?;
    let mut c = ByteReader::new(&bytes, label, corrupt);
    let count = c.u32()? as usize;
    let vals = c.u32s(count)?;
    c.expect_end()?;
    Ok(vals)
}

// ---------------------------------------------------------------------
// Index-kind codes
// ---------------------------------------------------------------------

/// Stable on-disk code per [`IndexKind`] (declaration order — do not
/// renumber; the manifest version covers schema changes instead).
fn kind_code(kind: IndexKind) -> u8 {
    match kind {
        IndexKind::BinarySearch => 0,
        IndexKind::InterpolationSearch => 1,
        IndexKind::BinaryTree => 2,
        IndexKind::TTree => 3,
        IndexKind::BPlusTree => 4,
        IndexKind::FullCss => 5,
        IndexKind::LevelCss => 6,
        IndexKind::Hash => 7,
    }
}

fn kind_from_code(code: u8) -> Option<IndexKind> {
    IndexKind::ALL.into_iter().find(|&k| kind_code(k) == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{between, eq};
    use crate::table::TableBuilder;

    fn seeded_db() -> Database {
        let mut db = Database::new();
        db.register(
            TableBuilder::new("sales")
                .int_column("amount", [30, 10, 20, 10, 30, 40, 10])
                .str_column("region", ["e", "w", "e", "n", "w", "e", "s"])
                .build()
                .expect("equal columns"),
        )
        .expect("fresh name");
        db.create_index("sales", "amount", IndexKind::FullCss)
            .expect("index");
        db.create_index("sales", "amount", IndexKind::LevelCss)
            .expect("index");
        db.create_index("sales", "amount", IndexKind::Hash)
            .expect("index");
        db.create_index("sales", "region", IndexKind::BPlusTree)
            .expect("index");
        db.register(
            TableBuilder::new("unindexed")
                .int_column("x", [1, 2, 3])
                .build()
                .expect("equal columns"),
        )
        .expect("fresh name");
        db
    }

    fn answers(db: &Database) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let a = db
            .query("sales")
            .filter(eq("amount", 10))
            .run()
            .expect("query")
            .rids()
            .to_vec();
        let b = db
            .query("sales")
            .filter(between("amount", 15, 35))
            .run()
            .expect("query")
            .rids()
            .to_vec();
        let c = db
            .query("sales")
            .filter(eq("region", "e"))
            .run()
            .expect("query")
            .rids()
            .to_vec();
        (a, b, c)
    }

    #[test]
    fn bytes_roundtrip_preserves_catalog_and_answers() {
        let db = seeded_db();
        let image = db.save_to_bytes();
        let back = Database::open_from_bytes(image, "mem").expect("reopen");
        assert_eq!(
            back.tables().collect::<Vec<_>>(),
            db.tables().collect::<Vec<_>>()
        );
        assert_eq!(back.table("sales").unwrap().rows(), 7);
        assert_eq!(
            back.indexed_kinds("sales", "amount").unwrap(),
            vec![IndexKind::FullCss, IndexKind::LevelCss, IndexKind::Hash]
        );
        assert_eq!(
            back.indexed_kinds("sales", "region").unwrap(),
            vec![IndexKind::BPlusTree]
        );
        assert_eq!(answers(&back), answers(&db));
        // The unindexed table survives with its values.
        assert_eq!(
            back.table("unindexed").unwrap().value("x", 2),
            Some(Value::Int(3))
        );
    }

    #[test]
    fn file_roundtrip_and_missing_file_are_typed() {
        let dir = std::env::temp_dir().join(format!("ccindex-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("catalog.ccs");
        let db = seeded_db();
        db.save_to(&path).expect("save");
        let back = Database::open_from(&path).expect("open");
        assert_eq!(answers(&back), answers(&db));

        let missing = dir.join("missing.ccs");
        let err = Database::open_from(&missing).expect_err("missing file");
        assert!(matches!(
            err,
            MmdbError::Storage {
                fault: StorageFault::Open,
                ..
            }
        ));
        assert!(err.to_string().contains("missing.ccs"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Open re-detects each integer arm from the stored values: a column
    /// holding every integer of its range comes back dense, one holding
    /// every other integer ranked, one a twentieth full under its CSS
    /// directory — through save → open and
    /// through a snapshot transfer — answering every point and range
    /// probe as the source does and saving the same bytes again.
    #[test]
    fn save_open_and_transfer_keep_each_integer_arm() {
        use crate::plan::CatalogRead;
        let mut db = Database::new();
        db.register(
            TableBuilder::new("t")
                .int_column("dense", (0..3_000).map(|r| r * 7 % 2_000))
                .int_column("ranked", (0..3_000).map(|r| r * 7 % 2_000 * 2 - 1))
                .int_column("sparse", (0..3_000).map(|r| r * 7 % 2_000 * 20 - 9_000))
                .build()
                .expect("equal columns"),
        )
        .expect("fresh name");
        for column in ["dense", "ranked", "sparse"] {
            db.create_index("t", column, IndexKind::FullCss)
                .expect("index");
        }
        let image = db.save_to_bytes();
        let opened = Database::open_from_bytes(image.clone(), "ranked").expect("open");
        let mut transferred = Database::new();
        transferred
            .restore_from_bytes(&image, "transfer")
            .expect("restore");
        let probes: Vec<Value> = (-9_100..31_100).step_by(3).map(Value::Int).collect();
        let ranges: Vec<(Value, Value)> = probes
            .iter()
            .step_by(5)
            .zip(probes.iter().skip(40).step_by(5))
            .map(|(lo, hi)| (lo.clone(), hi.clone()))
            .collect();
        let arm = |db: &Database, column: &str| {
            let domain = db.table("t").unwrap().column(column).unwrap().domain();
            domain.arm()
        };
        for back in [&opened, &transferred] {
            assert_eq!(back.save_to_bytes(), image);
            for (column, want) in [("dense", "dense"), ("ranked", "ranked"), ("sparse", "css")] {
                assert_eq!(arm(&db, column), want, "{column}");
                assert_eq!(arm(back, column), want, "{column}");
                assert_eq!(
                    back.point_probe_batch("t", column, &probes).unwrap(),
                    db.point_probe_batch("t", column, &probes).unwrap()
                );
                assert_eq!(
                    back.range_probe_batch("t", column, &ranges).unwrap(),
                    db.range_probe_batch("t", column, &ranges).unwrap()
                );
            }
        }
    }

    #[test]
    fn restore_commits_a_generation_and_keeps_pinned_readers() {
        let db = seeded_db();
        let image = db.save_to_bytes();

        let mut other = Database::new();
        other
            .register(
                TableBuilder::new("old")
                    .int_column("v", [9])
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let pinned = other.snapshot();
        let g = other.generation();
        other
            .restore_from_bytes(&image, "transfer")
            .expect("restore");
        assert_eq!(other.generation(), g + 1, "one commit");
        // The pinned reader still sees the pre-restore catalog.
        assert_eq!(pinned.tables().collect::<Vec<_>>(), ["old"]);
        // The restored tip answers identically to the source.
        assert_eq!(answers(&other), answers(&db));
        assert!(other.table("old").is_err(), "restore replaces the catalog");
    }

    #[test]
    fn corrupt_manifest_version_is_a_typed_version_error() {
        let db = seeded_db();
        let mut m = ByteWriter::new();
        m.u32(MANIFEST_VERSION + 9);
        let image = StoreWriter::new().finish(&m.into_bytes());
        let err = Database::open_from_bytes(image, "mem").expect_err("future manifest");
        assert!(matches!(
            err,
            MmdbError::Storage {
                fault: StorageFault::Version,
                ..
            }
        ));
        drop(db);
    }

    #[test]
    fn bit_flips_anywhere_surface_as_typed_errors_never_panics() {
        let db = seeded_db();
        let image = db.save_to_bytes();
        // Flip one bit in every byte position; opening must either
        // fail typed or (reserved header padding) still answer right.
        for at in 0..image.len() {
            let mut bad = image.clone();
            bad[at] ^= 0x10;
            match Database::open_from_bytes(bad, "flip") {
                Ok(back) => assert_eq!(answers(&back), answers(&db), "flip at {at}"),
                Err(MmdbError::Storage { .. }) => {}
                Err(other) => panic!("flip at {at}: non-storage error {other:?}"),
            }
        }
    }

    #[test]
    fn truncations_surface_as_typed_errors_never_panics() {
        let image = seeded_db().save_to_bytes();
        for keep in [0, 1, 7, 8, 20, image.len() / 2, image.len() - 1] {
            let err = Database::open_from_bytes(image[..keep].to_vec(), "trunc")
                .expect_err("truncated image");
            assert!(
                matches!(err, MmdbError::Storage { .. }),
                "keep {keep}: {err:?}"
            );
        }
    }

    /// A one-table (`t`), one-column (`c`), unindexed image whose
    /// domain page holds `values` in the order given — sorted or not.
    fn image_with_domain_page(values: &[Value], ids: &[u32]) -> Vec<u8> {
        let mut page = ByteWriter::new();
        page.seq(values, put_value);
        let mut w = StoreWriter::new();
        let mut m = ByteWriter::new();
        m.u32(MANIFEST_VERSION);
        m.u32(1);
        m.str("t");
        m.u64(ids.len() as u64);
        m.u32(1);
        m.str("c");
        m.u32(w.page(PageKind::DomainValues, &page.into_bytes()));
        m.u32(ids_page(&mut w, ids));
        m.u32(0);
        w.finish(&m.into_bytes())
    }

    #[test]
    fn domain_pages_decode_into_the_representation_their_tags_name() {
        let open = |values: &[Value], ids: &[u32]| {
            let db = Database::open_from_bytes(image_with_domain_page(values, ids), "page")
                .expect("valid page");
            db.table("t").unwrap().column("c").unwrap().clone()
        };
        // All `Int` tags: the typed array, equal to a domain built from
        // rows — equality does not depend on how a domain came to be.
        let ints = [Value::Int(i64::MIN), Value::Int(-1), Value::Int(7)];
        let col = open(&ints, &[2, 0, 1, 2]);
        assert!(col.domain().is_int());
        assert_eq!(col.domain(), &Domain::from_values(ints.to_vec()));
        assert_eq!(col.value(0), Value::Int(7));
        assert_eq!(col.domain().encode(&Value::Int(-1)), Some(1));
        assert!(open(&[], &[]).domain().is_int(), "an empty page is typed");
        // `Int` tags then `Str` tags: generic, enum order intact.
        let mixed = [Value::Int(-5), Value::Int(9), "".into(), "b".into()];
        let col = open(&mixed, &[3, 1, 0, 2]);
        assert!(!col.domain().is_int());
        assert_eq!(col.domain(), &Domain::from_values(mixed.to_vec()));
        assert_eq!(col.domain().decode_batch(&[0, 1, 2, 3]), mixed);
        assert_eq!(col.domain().encode(&"b".into()), Some(3));
        let top = (Value::Int(i64::MAX), "b".into());
        assert_eq!(col.domain().id_range(&top.0, &top.1), Some((2, 3)));
        assert_eq!(col.value(0), Value::from("b"));
    }

    #[test]
    fn unordered_domain_pages_are_typed_corruption() {
        let cases: [&[Value]; 5] = [
            // An `Int` page that repeats, or steps down.
            &[Value::Int(1), Value::Int(1)],
            &[Value::Int(0), Value::Int(5), Value::Int(4)],
            // A tag that flips back to `Int` after a `Str`.
            &[Value::Int(0), "a".into(), Value::Int(1)],
            &["a".into(), Value::Int(1)],
            // Strings out of order.
            &[Value::Int(0), "b".into(), "a".into()],
        ];
        for values in cases {
            let ids = vec![0; values.len()];
            let err = Database::open_from_bytes(image_with_domain_page(values, &ids), "page")
                .expect_err("unordered domain");
            assert!(
                matches!(
                    err,
                    MmdbError::Storage {
                        fault: StorageFault::Corrupt,
                        ..
                    }
                ),
                "{values:?}: {err:?}"
            );
            assert!(err.to_string().contains("strictly increasing"), "{err}");
        }
        // An ID past the decoded domain is still caught after it.
        let err = Database::open_from_bytes(image_with_domain_page(&[Value::Int(3)], &[1]), "page")
            .expect_err("id out of range");
        assert!(
            err.to_string().contains("outside its 1-value domain"),
            "{err}"
        );
    }

    /// A one-table (`t`), one-column (`c`) image over the domain
    /// `10, 20, 30` with the in-place IDs `ids`, and one index record per
    /// entry of `records`: the column it names and its kind codes.
    fn indexed_image(ids: &[u32], records: &[(&str, &[u8])]) -> Vec<u8> {
        let domain = Domain::from_values([10, 20, 30].map(Value::Int).to_vec());
        let mut w = StoreWriter::new();
        let mut m = ByteWriter::new();
        m.u32(MANIFEST_VERSION);
        m.u32(1);
        m.str("t");
        m.u64(ids.len() as u64);
        m.u32(1);
        m.str("c");
        m.u32(w.page(PageKind::DomainValues, &encode_domain(&domain)));
        m.u32(ids_page(&mut w, ids));
        m.seq(records, |m, (column, codes)| {
            m.str(column);
            m.seq(codes, |m, &code| m.u8(code));
        });
        w.finish(&m.into_bytes())
    }

    fn assert_corrupt(image: Vec<u8>, says: &str) {
        let err = Database::open_from_bytes(image, "hostile").expect_err(says);
        assert!(
            matches!(
                err,
                MmdbError::Storage {
                    fault: StorageFault::Corrupt,
                    ..
                }
            ),
            "{says}: {err:?}"
        );
        assert!(err.to_string().contains(says), "{err}");
    }

    /// The RID list is the counting sort of the stored IDs, which indexes
    /// its clusters and `offsets` by ID: an out-of-domain ID on an indexed column is typed
    /// corruption before any list is built, never a panic.
    #[test]
    fn hostile_rid_key_pages_are_typed_corruption_before_the_fold() {
        let binary = kind_code(IndexKind::BinarySearch);
        let good =
            Database::open_from_bytes(indexed_image(&[0, 1, 0, 2], &[("c", &[binary])]), "ok")
                .expect("a valid indexed column");
        let rids = good.query("t").filter(eq("c", 10)).run().expect("query");
        assert_eq!(rids.rids(), &[0, 2]);
        for ids in [[0, 1, 0, 3], [u32::MAX, 1, 0, 2]] {
            let image = indexed_image(&ids, &[("c", &[binary])]);
            assert_corrupt(image, "outside its 3-value domain");
        }
    }

    /// Each index record names a column of its table once, with at least
    /// one kind and no kind twice: anything else is typed corruption
    /// naming the table and column, not a silent overwrite, a column
    /// entry no mutation could leave, or a deduplicated kind.
    #[test]
    fn index_records_are_validated_before_the_catalog_is_built() {
        let (full, hash) = (kind_code(IndexKind::FullCss), kind_code(IndexKind::Hash));
        let ids = [0, 1, 0, 2];
        for (records, says) in [
            (
                &[("c", &[full][..]), ("c", &[hash][..])][..],
                "`t.c`: the column is listed twice",
            ),
            (&[("c", &[][..])][..], "`t.c`: no index kind"),
            (
                &[("c", &[full, full][..])][..],
                "`t.c`: FullCss is listed twice",
            ),
            (&[("d", &[full][..])][..], "`t.d`: not a column"),
        ] {
            assert_corrupt(indexed_image(&ids, records), says);
        }
    }

    #[test]
    fn a_hostile_manifest_column_count_is_typed_corruption() {
        // A valid header, page directory and CRCs around a manifest that
        // claims `u32::MAX` columns for one table and then ends.
        let mut m = ByteWriter::new();
        m.u32(MANIFEST_VERSION);
        m.u32(1);
        m.str("t");
        m.u64(4);
        m.u32(u32::MAX);
        let image = StoreWriter::new().finish(&m.into_bytes());
        let err = Database::open_from_bytes(image.clone(), "manifest").expect_err("hostile");
        assert!(
            matches!(
                err,
                MmdbError::Storage {
                    fault: StorageFault::Corrupt,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("truncated"), "{err}");
        let mut db = Database::new();
        let before = db.generation();
        assert!(db.restore_from_bytes(&image, "manifest").is_err());
        assert_eq!(db.generation(), before, "nothing is replaced");
    }

    /// No kind stores a structure: a column indexed `FullCss`,
    /// `LevelCss` or both saves to images whose pages are identical and
    /// whose manifests differ only in the kind codes, and each reopens to
    /// the answers of the catalog that saved it, through every kind.
    #[test]
    fn rewritten_css_directory_slots_are_typed_corruption() {
        let (full, level) = (IndexKind::FullCss, IndexKind::LevelCss);
        let saved = |kinds: &[IndexKind]| {
            let mut db = Database::new();
            db.register(
                TableBuilder::new("t")
                    .int_column("k", (0..600).map(|i| i * 7 % 1_000))
                    .build()
                    .expect("one column"),
            )
            .expect("fresh name");
            for &kind in kinds {
                db.create_index("t", "k", kind).expect("index");
            }
            let image = db.save_to_bytes();
            let mut r = StoreReader::open_bytes(image.clone(), "image").expect("own image");
            let pages: Vec<_> = (0..r.page_count())
                .map(|id| (r.page_kind(id), r.read_page(id).expect("own page")))
                .collect();
            (kinds.to_vec(), db, image, pages, r.manifest().to_vec())
        };
        let cases = [saved(&[full]), saved(&[level]), saved(&[full, level])];
        let (_, _, _, base_pages, base_manifest) = &cases[0];
        // The manifest ends with the one record: `k`, a kind count, codes.
        let head = base_manifest.len() - 4 - 1;
        for (kinds, db, image, pages, manifest) in &cases {
            assert_eq!(pages, base_pages);
            assert_eq!(manifest[..head], base_manifest[..head]);
            let mut tail = ByteWriter::new();
            tail.seq(kinds, |m, &kind| m.u8(kind_code(kind)));
            assert_eq!(manifest[head..], tail.into_bytes());

            let back = Database::open_from_bytes(image.clone(), "reopen").expect("reopen");
            assert_eq!(back.save_to_bytes(), *image);
            for &kind in kinds {
                for filter in [eq("k", 707), eq("k", 3), between("k", 100, 350)] {
                    let run = |db: &Database| {
                        let q = db.query("t").filter(filter.clone()).using(kind);
                        q.run().expect("query").rids().to_vec()
                    };
                    assert_eq!(run(&back), run(db), "{kind:?} {filter:?}");
                }
            }
        }
    }

    /// `refresh`'s shape at paper scale: 2M rows uniform in `[0, 4M)`,
    /// indexed `FullCss` + `Hash`. Open rebuilds the live RID list, the
    /// probes answer alike, and the image is exactly what the schema
    /// predicts: the header, one domain page, one ID page, the page
    /// table, the manifest and the trailer.
    #[test]
    #[ignore = "2M rows; run with `cargo test --release -p mmdb -- --ignored`"]
    fn refresh_shaped_image_reopens_to_the_live_lists_at_two_million_rows() {
        use crate::plan::CatalogRead;
        const ROWS: u64 = 2_000_000;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % (2 * ROWS)) as i64
        };
        let keys: Vec<i64> = (0..ROWS).map(|_| next()).collect();
        let mut db = Database::new();
        db.register(
            TableBuilder::new("orders")
                .int_column("key", keys)
                .build()
                .expect("one column"),
        )
        .expect("fresh name");
        for kind in [IndexKind::FullCss, IndexKind::Hash] {
            db.create_index("orders", "key", kind).expect("index");
        }
        let image = db.save_to_bytes();
        let back = Database::open_from_bytes(image.clone(), "paper").expect("open");

        let list = |db: &Database| db.tables["orders"].columns["key"].rids.clone();
        let (live, reopened) = (list(&db), list(&back));
        assert_eq!(reopened.rids(), live.rids());
        assert_eq!(reopened.expanded_ids(), live.expanded_ids());

        let starts: Vec<i64> = (0..8_192).map(|_| next()).collect();
        let probes: Vec<Value> = starts.iter().map(|&k| Value::Int(k)).collect();
        let ranges: Vec<(Value, Value)> = starts
            .iter()
            .map(|&k| (Value::Int(k), Value::Int(k + 50)))
            .collect();
        assert_eq!(
            back.point_probe_batch("orders", "key", &probes).unwrap(),
            db.point_probe_batch("orders", "key", &probes).unwrap()
        );
        assert_eq!(
            back.range_probe_batch("orders", "key", &ranges).unwrap(),
            db.range_probe_batch("orders", "key", &ranges).unwrap()
        );
        for kind in [IndexKind::FullCss, IndexKind::Hash] {
            for &k in &starts[..64] {
                let rids = |db: &Database| {
                    let q = db.query("orders").filter(eq("key", k)).using(kind);
                    q.run().expect("query").rids().to_vec()
                };
                assert_eq!(rids(&back), rids(&db), "{kind:?} {k}");
            }
        }

        let distinct = back
            .table("orders")
            .unwrap()
            .column("key")
            .unwrap()
            .domain()
            .len();
        let manifest = 4 + 4 // version, table count
            + (4 + 6) + 8 + 4 // `orders`, its rows, its column count
            + (4 + 3) + 4 + 4 // `key`, its domain and ID page IDs
            + 4 + (4 + 3) + 4 + 2; // one index record: `key`, two kinds
        let predicted = 8 // header
            + (4 + 9 * distinct) // domain page: count, then tag + i64 per value
            + (4 + 4 * ROWS as usize) // ID page: count, then a u32 per row
            + (4 + 2 * 21) // page table: count, then (kind, offset, len, crc)
            + (4 + manifest) // the manifest blob
            + 24; // trailer
        assert_eq!(image.len(), predicted);
    }

    #[test]
    fn kind_codes_are_stable_and_total() {
        for kind in IndexKind::ALL {
            assert_eq!(kind_from_code(kind_code(kind)), Some(kind));
        }
        assert_eq!(kind_from_code(200), None);
        // On-disk stability: codes are declaration order today; a
        // renumbering must bump MANIFEST_VERSION instead.
        assert_eq!(kind_code(IndexKind::FullCss), 5);
        assert_eq!(kind_code(IndexKind::Hash), 7);
    }

    #[test]
    fn empty_catalog_roundtrips() {
        let db = Database::new();
        let back = Database::open_from_bytes(db.save_to_bytes(), "mem").expect("reopen");
        assert_eq!(back.tables().count(), 0);
    }
}
