//! Catalog persistence: save a committed generation as a paged
//! `ccindex-store` image, reopen it cold without touching the
//! row-rebuild path.
//!
//! The paper's structures are all *bulk-built* (§2.3), which makes them
//! naturally serializable: the on-disk format stores the arrays — domain
//! dictionaries, in-place ID columns, sorted RID lists — and the open
//! path reassembles the catalog from validated parts instead of
//! re-encoding rows or re-sorting RID lists. That is the cold-start win
//! `ccbench`'s `refresh` workload measures (`setup_s`,
//! `mmdb.catalog_decode_ms`).
//!
//! Layout inside the store container (see `ccindex_store` for the
//! container format — header, checksummed pages, page table, manifest,
//! trailer):
//!
//! * per column: one [`PageKind::DomainValues`] page (the sorted
//!   dictionary) and one [`PageKind::ColumnIds`] page (4 bytes/row);
//! * per indexed column: one [`PageKind::RidKeys`] and one
//!   [`PageKind::RidValues`] page (the sorted RID list). The list keeps
//!   only each domain ID's first position; save expands those offsets
//!   into the sorted key array the page has always held, and open folds
//!   the page back into offsets;
//! * per CSS kind: one [`PageKind::CssLevel`] page per level of the
//!   directory over that key array, written root-first. No kind has a
//!   structure in memory (the RID list answers every kind), so open
//!   validates these pages and drops them; other kinds store no pages;
//! * the manifest maps table/column/index names to page IDs.
//!
//! The manifest and every page are written and read through
//! `ccindex_store::bytes`, the byte codec the wire protocol uses too, and
//! a domain page's values through [`put_value`]/[`get_value`], the one
//! encoding a [`Value`] has. A short read, a bad tag, invalid UTF-8 or a
//! trailing byte is the codec's error, built here as a typed
//! [`StorageFault::Corrupt`] naming the file.
//!
//! Everything read back is **validated before construction**: domain
//! sortedness, ID ranges, RID permutations, the RID-keys/column-IDs
//! correspondence (every key inside the domain before it indexes the
//! offsets), and CSS directory geometry. A bit-flipped, truncated, or
//! hostile file surfaces as a typed [`MmdbError::Storage`]; what the
//! validation proved is then handed to the physical layer's proven-input
//! constructors, so nothing is sorted or searched a second time. A
//! domain page decodes straight into its representation — `Int` tags
//! into the typed `i64` array, whose CSS directory is rebuilt (it is not
//! stored).
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
use ccindex_common::SortedArray;
use ccindex_store::bytes::{ByteReader, ByteWriter};
use ccindex_store::{PageKind, StoreError, StoreFault, StoreReader, StoreWriter};
use css_tree::{CssTree, Full, Level, NodeSearch};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

/// Version of the *manifest* layout (the container has its own format
/// version underneath). Bumped when the page/manifest schema changes.
pub const MANIFEST_VERSION: u32 = 1;

/// CSS node width the catalog builds with (`index_choice` uses 16
/// four-byte slots = one 64-byte cache line, the §5.1/§6.3 optimum);
/// the on-disk levels are only valid for the same width.
const CSS_M: usize = 16;

impl From<StoreError> for MmdbError {
    fn from(e: StoreError) -> Self {
        let fault = match e.fault {
            StoreFault::Open => StorageFault::Open,
            StoreFault::Read => StorageFault::Read,
            StoreFault::Write => StorageFault::Write,
            StoreFault::Format => StorageFault::Format,
            StoreFault::Corrupt => StorageFault::Corrupt,
            StoreFault::Version => StorageFault::Version,
        };
        MmdbError::Storage {
            path: e.path,
            fault,
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
            m.u32(u32_page(&mut w, PageKind::ColumnIds, col.ids()));
        }
        m.u32(entry.columns.len() as u32);
        for (col_name, col_entry) in &entry.columns {
            m.str(col_name);
            // The sorted key array the list addresses instead of storing,
            // expanded from its offsets for the `RidKeys` page.
            let keys = SortedArray::from_vec(col_entry.rids.expanded_ids());
            m.u32(u32_page(&mut w, PageKind::RidKeys, keys.as_slice()));
            m.u32(u32_page(&mut w, PageKind::RidValues, col_entry.rids.rids()));
            m.u32(col_entry.kinds.len() as u32);
            for kind in &col_entry.kinds {
                m.u8(kind_code(*kind));
                // A CSS kind's directory over the expanded keys is a
                // deterministic function of them, written root-first as
                // the format has always carried it; the open path
                // validates it and drops it. Other kinds carry no pages.
                match kind {
                    IndexKind::FullCss => write_css_levels::<Full<CSS_M>>(&mut w, &mut m, &keys),
                    IndexKind::LevelCss => write_css_levels::<Level<CSS_M>>(&mut w, &mut m, &keys),
                    _ => m.u32(0),
                }
            }
        }
    }
    w.finish(&m.into_bytes())
}

/// Build the `S` tree over `keys` and write its directory as a level
/// count plus one [`PageKind::CssLevel`] page per level, root first.
fn write_css_levels<S: NodeSearch + Default>(
    w: &mut StoreWriter,
    m: &mut ByteWriter,
    keys: &SortedArray<u32>,
) {
    let t = CssTree::<u32, S>::from_shared(keys.clone());
    let levels = t.layout().directory_levels();
    m.u32(levels);
    for level in 0..levels {
        m.u32(u32_page(w, PageKind::CssLevel, t.directory_level(level)));
    }
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
    /// catalog is reassembled from parts — no row re-encoding, no RID
    /// re-sort, no index build.
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
            let ids_page = m.u32()?;
            let domain = decode_domain(r, values_page, &label, &name, &col_name)?;
            let ids = decode_u32s(r, ids_page, PageKind::ColumnIds, &label)?;
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
            let col = table.column(&col_name).ok_or_else(|| {
                corrupt(
                    &label,
                    format!("RID list for `{name}.{col_name}`, which is not a column"),
                )
            })?;
            let keys_page = m.u32()?;
            let rids_page = m.u32()?;
            let keys = decode_u32s(r, keys_page, PageKind::RidKeys, &label)?;
            let rids = decode_u32s(r, rids_page, PageKind::RidValues, &label)?;
            let rid_list = fold_rid_list(&label, &name, &col_name, col, &keys, rids)?;
            // Proven non-decreasing by the fold; only a CSS kind's level
            // pages need the expanded array, to be validated against.
            let mut sorted_keys: Option<SortedArray<u32>> = None;

            let index_count = m.u32()?;
            let mut kinds = BTreeSet::new();
            for _ in 0..index_count {
                let code = m.u8()?;
                let kind = kind_from_code(code).ok_or_else(|| {
                    corrupt(
                        &label,
                        format!("`{name}.{col_name}`: unknown index kind code {code}"),
                    )
                })?;
                let level_count = m.u32()?;
                if level_count > 0 {
                    let mut slots: Vec<u32> = Vec::new();
                    for _ in 0..level_count {
                        let page = m.u32()?;
                        slots.extend(decode_u32s(r, page, PageKind::CssLevel, &label)?);
                    }
                    let keys = sorted_keys.get_or_insert_with(|| SortedArray::from_slice(&keys));
                    validate_css_levels(&label, &name, &col_name, kind, keys, &slots)?;
                }
                kinds.insert(kind);
            }
            col_entries.insert(
                col_name,
                ColumnEntry {
                    rids: rid_list,
                    kinds,
                },
            );
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

/// Fold a `RidKeys` page into the list's offsets in one validating
/// pass, proving `keys`/`rids` are exactly `RidList::for_column(col)` —
/// value order with RID-stable ties over a permutation of the rows, so
/// each ID's run is as long as the column's count of that ID. A key is
/// checked against the domain before it indexes the offsets. Anything
/// less is corruption, reported, never a panic.
fn fold_rid_list(
    label: &str,
    table: &str,
    column: &str,
    col: &Column,
    keys: &[u32],
    rids: Vec<u32>,
) -> Result<RidList> {
    let at = |detail: String| corrupt(label, format!("RID list for `{table}.{column}`: {detail}"));
    let rows = col.len();
    if keys.len() != rows || rids.len() != rows {
        return Err(at(format!(
            "{} keys / {} RIDs for {rows} rows",
            keys.len(),
            rids.len()
        )));
    }
    let domain = col.domain().len();
    let mut offsets = vec![0u32; domain + 1];
    let mut seen = vec![false; rows];
    for (pos, (&key, &rid)) in keys.iter().zip(&rids).enumerate() {
        if key as usize >= domain {
            return Err(at(format!(
                "key {key} at position {pos} outside the {domain}-value domain"
            )));
        }
        if rid as usize >= rows {
            return Err(at(format!("RID {rid} out of range at position {pos}")));
        }
        if seen[rid as usize] {
            return Err(at(format!("RID {rid} appears twice")));
        }
        seen[rid as usize] = true;
        if pos > 0 && (key, rid) < (keys[pos - 1], rids[pos - 1]) {
            return Err(at(format!("unsorted at position {pos}")));
        }
        // With every row placed once, this makes each run's length the
        // column's count of its ID.
        if col.id(rid) != key {
            return Err(at(format!(
                "key {key} at position {pos} disagrees with the column's ID for row {rid}"
            )));
        }
        offsets[key as usize + 1] += 1;
    }
    for id in 1..offsets.len() {
        offsets[id] += offsets[id - 1];
    }
    // The counts sum to the row count: the asserting constructor holds.
    Ok(RidList::from_parts(offsets, rids))
}

/// Prove a CSS kind's concatenated level pages are the directory its
/// geometry builds over `keys`: a slot count that does not match the
/// geometry, or a slot that is not the largest key under its child, is a
/// typed corruption error. The directory is then dropped — the RID list
/// answers the kind — but a stored page is never accepted unproven.
fn validate_css_levels(
    label: &str,
    table: &str,
    column: &str,
    kind: IndexKind,
    keys: &SortedArray<u32>,
    slots: &[u32],
) -> Result<()> {
    let wrap = |e: String| corrupt(label, format!("{kind:?} index on `{table}.{column}`: {e}"));
    fn open<S: NodeSearch + Default>(
        keys: &SortedArray<u32>,
        slots: &[u32],
    ) -> std::result::Result<(), String> {
        CssTree::<u32, S>::from_shared_with_directory(keys.clone(), slots)?.validate()
    }
    match kind {
        IndexKind::FullCss => open::<Full<CSS_M>>(keys, slots),
        IndexKind::LevelCss => open::<Level<CSS_M>>(keys, slots),
        other => Err(format!("{other:?} indexes carry no directory pages")),
    }
    .map_err(wrap)
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
        DomainView::Int(ints) => ints.iter().for_each(|&i| put_value(&mut w, &Value::Int(i))),
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

/// Append a page of little-endian `u32`s and return its id. Every such
/// page leads with its entry count except a CSS level, whose length the
/// directory's geometry fixes.
fn u32_page(w: &mut StoreWriter, kind: PageKind, vals: &[u32]) -> u32 {
    let mut page = ByteWriter::with_capacity(4 + vals.len() * 4);
    if kind != PageKind::CssLevel {
        page.u32(vals.len() as u32);
    }
    page.u32s(vals);
    w.page(kind, &page.into_bytes())
}

/// Read back a [`u32_page`] of `kind`; a count that disagrees with the
/// page's length is a typed corruption error.
fn decode_u32s(r: &mut StoreReader, page: u32, kind: PageKind, label: &str) -> Result<Vec<u32>> {
    let bytes = r.read_page_expect(page, kind)?;
    let mut c = ByteReader::new(&bytes, label, corrupt);
    let count = match kind {
        PageKind::CssLevel => c.remaining() / 4,
        _ => c.u32()? as usize,
    };
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
    /// holding every integer of its range comes back ranked, one a
    /// twentieth full under its CSS directory — through save → open and
    /// through a snapshot transfer — answering every point and range
    /// probe as the source does and saving the same bytes again.
    #[test]
    fn save_open_and_transfer_keep_each_integer_arm() {
        use crate::plan::CatalogRead;
        let mut db = Database::new();
        db.register(
            TableBuilder::new("t")
                .int_column("dense", (0..3_000).map(|r| r * 7 % 2_000))
                .int_column("sparse", (0..3_000).map(|r| r * 7 % 2_000 * 20 - 9_000))
                .build()
                .expect("equal columns"),
        )
        .expect("fresh name");
        for column in ["dense", "sparse"] {
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
        let ranked = |db: &Database, column: &str| {
            let domain = db.table("t").unwrap().column(column).unwrap().domain();
            domain.is_ranked()
        };
        for back in [&opened, &transferred] {
            assert_eq!(back.save_to_bytes(), image);
            for (column, is_ranked) in [("dense", true), ("sparse", false)] {
                assert_eq!(ranked(&db, column), is_ranked, "{column}");
                assert_eq!(ranked(back, column), is_ranked, "{column}");
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
        m.u32(u32_page(&mut w, PageKind::ColumnIds, ids));
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
        assert_eq!(col.domain().lower_bound_id(&Value::Int(i64::MAX)), 2);
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

    /// A one-table (`t`), one-column (`c`) image over the rows
    /// `10, 20, 10, 30` (IDs `0, 1, 0, 2`), indexed as `BinarySearch`
    /// with the given `RidKeys` and `RidValues` pages.
    fn image_with_rid_pages(keys: &[u32], rids: &[u32]) -> Vec<u8> {
        let domain = Domain::from_values([10, 20, 30].map(Value::Int).to_vec());
        let mut w = StoreWriter::new();
        let mut m = ByteWriter::new();
        m.u32(MANIFEST_VERSION);
        m.u32(1);
        m.str("t");
        m.u64(4);
        m.u32(1);
        m.str("c");
        m.u32(w.page(PageKind::DomainValues, &encode_domain(&domain)));
        m.u32(u32_page(&mut w, PageKind::ColumnIds, &[0, 1, 0, 2]));
        m.u32(1);
        m.str("c");
        m.u32(u32_page(&mut w, PageKind::RidKeys, keys));
        m.u32(u32_page(&mut w, PageKind::RidValues, rids));
        m.u32(1);
        m.u8(kind_code(IndexKind::BinarySearch));
        m.u32(0);
        w.finish(&m.into_bytes())
    }

    #[test]
    fn hostile_rid_key_pages_are_typed_corruption_before_the_fold() {
        let good =
            Database::open_from_bytes(image_with_rid_pages(&[0, 0, 1, 2], &[0, 2, 1, 3]), "ok")
                .expect("the list `for_column` builds");
        let rids = good.query("t").filter(eq("c", 10)).run().expect("query");
        assert_eq!(rids.rids(), &[0, 2]);
        for (keys, rids, says) in [
            // A key past the 3-value domain: it must never index the
            // offsets.
            (&[0, 0, 1, 3], &[0, 2, 1, 3], "outside the 3-value domain"),
            // A key run that steps down, over rows that carry those IDs.
            (&[0, 1, 0, 2], &[0, 1, 2, 3], "unsorted at position 2"),
            // Runs of lengths 1, 2, 1 where the column holds 2, 1, 1.
            (
                &[0, 1, 1, 2],
                &[0, 2, 1, 3],
                "disagrees with the column's ID",
            ),
        ] {
            let err = Database::open_from_bytes(image_with_rid_pages(keys, rids), "rid")
                .expect_err("a hostile RID list");
            assert!(
                matches!(
                    err,
                    MmdbError::Storage {
                        fault: StorageFault::Corrupt,
                        ..
                    }
                ),
                "{keys:?}: {err:?}"
            );
            assert!(err.to_string().contains(says), "{err}");
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

    #[test]
    fn rewritten_css_directory_slots_are_typed_corruption() {
        for kind in [IndexKind::FullCss, IndexKind::LevelCss] {
            let mut db = Database::new();
            db.register(
                TableBuilder::new("t")
                    .int_column("k", (0..600).map(|i| i * 7))
                    .build()
                    .expect("one column"),
            )
            .expect("fresh name");
            db.create_index("t", "k", kind).expect("index");
            let mut src = StoreReader::open_bytes(db.save_to_bytes(), "src").expect("own image");
            let css_pages: Vec<u32> = (0..src.page_count())
                .filter(|&id| src.page_kind(id) == Some(PageKind::CssLevel))
                .collect();
            assert!(
                css_pages.len() >= 2,
                "{kind:?}: a directory of several levels"
            );
            // Copy the image page by page — the writer computes every
            // CRC afresh — changing the first or the last slot of one
            // directory level. The last slot of a level node is never
            // compared against a probe, so only validation can see it.
            for &victim in &css_pages {
                for last in [false, true] {
                    let mut w = StoreWriter::new();
                    for id in 0..src.page_count() {
                        let mut page = src.read_page(id).expect("own page");
                        if id == victim {
                            let at = if last { page.len() - 4 } else { 0 };
                            page[at] ^= 1;
                        }
                        let kind = src.page_kind(id).expect("own page");
                        assert_eq!(w.page(kind, &page), id);
                    }
                    let err = Database::open_from_bytes(w.finish(src.manifest()), "slot")
                        .expect_err("a wrong directory slot");
                    assert!(
                        matches!(
                            err,
                            MmdbError::Storage {
                                fault: StorageFault::Corrupt,
                                ..
                            }
                        ),
                        "{kind:?} page {victim}: {err:?}"
                    );
                    assert!(err.to_string().contains("index on `t.k`"), "{err}");
                }
            }
        }
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
