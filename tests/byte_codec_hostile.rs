//! One reader, every failure, every caller: truncation, a bad tag, an
//! oversized count, invalid UTF-8 and trailing bytes, driven through the
//! three decoders built on `ccindex_store::bytes` — a wire request
//! (`ShardRequest::decode`, its `Mutate` batch of catalog edits
//! included), a catalog image's manifest and domain page
//! (`Database::open_from_bytes`) and a store footer
//! (`StoreReader::open_bytes`). Each must fail with its caller's typed
//! error naming its label, and no single allocation made while it fails
//! may be larger than the input. A counting global allocator records the
//! largest request.

use ccindex_store::bytes::ByteWriter;
use ccindex_store::{
    crc32, PageKind, StoreError, StoreReader, StoreWriter, FOOT_MAGIC, FORMAT_VERSION, MAGIC,
    MAX_PAGES,
};
use ccindex_wire::ShardRequest;
use check::counting::Counting;
use mmdb::persist::MANIFEST_VERSION;
use mmdb::{put_value, Database, MmdbError, StorageFault, TransportFault, Value};

#[global_allocator]
static ALLOC: Counting = Counting::new();

/// Bytes every input carries beyond its failure, so the fixed-size
/// allocations a decode makes on its way (an error message, a header
/// copy) stay below the input's size and only a reservation that follows
/// a claimed count could exceed it.
const PAD: usize = 1 << 16;

/// What each failure's detail says.
const TRUNCATED: &str = "truncated";
const TRAILING: &str = "trailing bytes";
const NOT_UTF8: &str = "not UTF-8";

/// Run `decode` on `input` (moved in, so its own buffer is allocated
/// before the count starts) and return its result with the largest
/// single allocation it made, after asserting that was no larger than
/// the input.
fn measured<I: AsRef<[u8]>, T>(what: &str, input: I, decode: impl FnOnce(I) -> T) -> T {
    let len = input.as_ref().len();
    ALLOC.reset();
    let out = decode(input);
    let largest = ALLOC.largest();
    assert!(
        largest <= len,
        "{what}: decoding {len} bytes allocated {largest} at once"
    );
    out
}

// ---------------------------------------------------------------------
// The wire: `ShardRequest::decode`
// ---------------------------------------------------------------------

const PEER: &str = "hostile-peer:7000";

/// A `PointProbeBatch` (tag 1) on a `PAD`-byte table name, column `c`:
/// the caller appends the values sequence.
fn probe_batch_prefix(column: &[u8]) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.u8(1);
    w.str(&"t".repeat(PAD));
    w.u32(column.len() as u32);
    w.bytes(column);
    w
}

fn wire_case(what: &str, frame: Vec<u8>, says: &str) {
    match measured(what, frame, |f| ShardRequest::decode(&f, PEER)) {
        Err(MmdbError::Transport {
            endpoint,
            fault: TransportFault::Decode,
            detail,
            ..
        }) => {
            assert_eq!(endpoint, PEER, "{what}");
            assert!(detail.contains(says), "{what}: {detail}");
        }
        other => panic!("{what}: expected a typed decode error, got {other:?}"),
    }
}

fn wire_failures() {
    let values = [Value::Int(3), Value::Str("x".into())];
    let mut valid = probe_batch_prefix(b"c");
    valid.seq(&values, put_value);
    let valid = valid.into_bytes();
    assert!(ShardRequest::decode(&valid, PEER).is_ok());

    wire_case(
        "wire truncation",
        valid[..valid.len() - 1].to_vec(),
        TRUNCATED,
    );

    let mut bad_tag = probe_batch_prefix(b"c");
    bad_tag.u32(1);
    bad_tag.u8(9);
    wire_case("wire bad tag", bad_tag.into_bytes(), "bad Value tag 9");

    // `u32::MAX` values claimed, one present: a string as long as the
    // rest of the frame, so the reservation has bytes to be bounded by.
    let mut oversized = probe_batch_prefix(b"c");
    oversized.u32(u32::MAX);
    put_value(&mut oversized, &Value::Str("v".repeat(PAD)));
    wire_case("wire oversized count", oversized.into_bytes(), TRUNCATED);

    let mut not_utf8 = probe_batch_prefix(&[0xC3, 0x28]);
    not_utf8.seq(&values, put_value);
    wire_case("wire invalid UTF-8", not_utf8.into_bytes(), NOT_UTF8);

    let mut trailing = valid;
    trailing.push(0);
    wire_case("wire trailing bytes", trailing, TRAILING);

    // A batch of catalog edits, `Mutate`: a hostile count at each of its
    // three depths, and an edit tag past `Mutation`'s.
    let mut mutations = ByteWriter::new();
    mutations.u8(12);
    mutations.u32(u32::MAX);
    mutations.u8(1); // `DropTable` of a `PAD`-byte name.
    mutations.str(&"t".repeat(PAD));
    wire_case(
        "wire oversized mutation count",
        mutations.into_bytes(),
        TRUNCATED,
    );

    let mut columns = register_prefix();
    columns.u32(u32::MAX);
    columns.str("c");
    columns.seq(&[Value::Str("v".repeat(PAD))], put_value);
    wire_case(
        "wire oversized column count",
        columns.into_bytes(),
        TRUNCATED,
    );

    let mut values = register_prefix();
    values.u32(1);
    values.str("c");
    values.u32(u32::MAX);
    put_value(&mut values, &Value::Str("v".repeat(PAD)));
    wire_case("wire oversized value count", values.into_bytes(), TRUNCATED);

    let mut bad_edit = ByteWriter::new();
    bad_edit.u8(12);
    bad_edit.u32(1);
    bad_edit.u8(6);
    bad_edit.bytes(&[0; PAD]);
    wire_case(
        "wire bad mutation tag",
        bad_edit.into_bytes(),
        "bad Mutation tag 6",
    );
}

/// A `Mutate` (tag 12) of one `Register` (edit tag 0) of a `PAD`-byte
/// table name: the caller appends the columns sequence.
fn register_prefix() -> ByteWriter {
    let mut w = ByteWriter::new();
    w.u8(12);
    w.u32(1);
    w.u8(0);
    w.str(&"t".repeat(PAD));
    w
}

// ---------------------------------------------------------------------
// The catalog image: `Database::open_from_bytes`
// ---------------------------------------------------------------------

const IMAGE: &str = "hostile-image.ccs";

/// A store image whose page 0 is `PAD` unreferenced bytes, then
/// `domain` as page 1 and the two-row array `[0, 1]` as the column's
/// IDs (page 2), sealed with `manifest`.
fn catalog_image(domain: &[u8], manifest: ByteWriter) -> Vec<u8> {
    let mut w = StoreWriter::new();
    w.page(PageKind::Raw, &[0; PAD]);
    w.page(PageKind::DomainValues, domain);
    let mut ids = ByteWriter::new();
    ids.seq(&[0u32, 1], |w, id| w.u32(*id));
    w.page(PageKind::ColumnIds, &ids.into_bytes());
    w.finish(&manifest.into_bytes())
}

/// The manifest up to table `t`'s column count, the table named by the
/// raw bytes `table`.
fn manifest_head(table: &[u8]) -> ByteWriter {
    let mut m = ByteWriter::new();
    m.u32(MANIFEST_VERSION);
    m.u32(1);
    m.u32(table.len() as u32);
    m.bytes(table);
    m.u64(2);
    m
}

/// A manifest of table `t` (named by the raw bytes `table`) with one
/// column `c` (domain page 1, ID page 2), its index records still to
/// come.
fn one_column_manifest(table: &[u8]) -> ByteWriter {
    let mut m = manifest_head(table);
    m.u32(1);
    m.str("c");
    m.u32(1);
    m.u32(2);
    m
}

/// A domain page of `values`.
fn domain_page(values: &[Value]) -> ByteWriter {
    let mut page = ByteWriter::new();
    page.seq(values, put_value);
    page
}

fn image_case(what: &str, image: Vec<u8>, says: &str) {
    match measured(what, image, |i| Database::open_from_bytes(i, IMAGE)) {
        Err(MmdbError::Storage {
            path,
            fault: StorageFault::Corrupt,
            detail,
        }) => {
            assert_eq!(path, IMAGE, "{what}");
            assert!(detail.contains(says), "{what}: {detail}");
        }
        Err(other) => panic!("{what}: expected typed corruption, got {other:?}"),
        Ok(_) => panic!("{what}: a hostile image opened"),
    }
}

fn image_failures() {
    let domain = || domain_page(&[Value::Int(5), Value::Int(9)]).into_bytes();
    let manifest = || {
        let mut m = one_column_manifest(b"t");
        m.u32(0);
        m
    };
    let valid = manifest().into_bytes();
    let db = Database::open_from_bytes(catalog_image(&domain(), manifest()), IMAGE)
        .expect("the untouched image opens");
    assert_eq!(
        db.table("t").expect("table").value("c", 1),
        Some(Value::Int(9))
    );

    // The manifest.
    let mut truncated = ByteWriter::new();
    truncated.bytes(&valid[..valid.len() - 1]);
    let image = catalog_image(&domain(), truncated);
    image_case("manifest truncation", image, TRUNCATED);

    let mut bad_tag = one_column_manifest(b"t");
    bad_tag.u32(1);
    bad_tag.str("c");
    bad_tag.u32(1);
    bad_tag.u8(200);
    let image = catalog_image(&domain(), bad_tag);
    image_case("manifest bad tag", image, "unknown index kind code 200");

    let mut oversized = manifest_head(b"t");
    oversized.u32(u32::MAX);
    let image = catalog_image(&domain(), oversized);
    image_case("manifest oversized count", image, TRUNCATED);

    let mut not_utf8 = one_column_manifest(&[0xFF, 0xFE]);
    not_utf8.u32(0);
    let image = catalog_image(&domain(), not_utf8);
    image_case("manifest invalid UTF-8", image, NOT_UTF8);

    let mut trailing = manifest();
    trailing.u8(0);
    let image = catalog_image(&domain(), trailing);
    image_case("manifest trailing bytes", image, TRAILING);

    // A domain page, under the valid manifest.
    let page = domain();
    let image = catalog_image(&page[..page.len() - 3], manifest());
    image_case("domain page truncation", image, TRUNCATED);

    let mut bad_tag = ByteWriter::new();
    bad_tag.u32(1);
    bad_tag.u8(7);
    let image = catalog_image(&bad_tag.into_bytes(), manifest());
    image_case("domain page bad tag", image, "bad Value tag 7");

    let mut oversized = ByteWriter::new();
    oversized.u32(u32::MAX);
    (0..PAD as i64).for_each(|i| put_value(&mut oversized, &Value::Int(i)));
    let image = catalog_image(&oversized.into_bytes(), manifest());
    image_case("domain page oversized count", image, TRUNCATED);

    let mut not_utf8 = ByteWriter::new();
    not_utf8.u32(1);
    not_utf8.u8(1);
    not_utf8.blob(&[0xC3, 0x28]);
    let image = catalog_image(&not_utf8.into_bytes(), manifest());
    image_case("domain page invalid UTF-8", image, NOT_UTF8);

    let mut trailing = domain_page(&[Value::Int(5), Value::Int(9)]);
    trailing.u8(0);
    let image = catalog_image(&trailing.into_bytes(), manifest());
    image_case("domain page trailing bytes", image, TRAILING);
}

// ---------------------------------------------------------------------
// The store footer: `StoreReader::open_bytes`
// ---------------------------------------------------------------------

const STORE: &str = "hostile-store.ccs";

/// A store image around `footer`: the header, `PAD` bytes of page
/// region, the footer, and a trailer whose offset, length and CRC are
/// right — so the footer's own fields are all that is wrong.
fn store_image(footer: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(&MAGIC);
    w.u16(FORMAT_VERSION);
    w.u16(0);
    w.bytes(&[0; PAD]);
    w.bytes(footer);
    w.u64(8 + PAD as u64);
    w.u64(footer.len() as u64);
    w.u32(crc32(footer));
    w.bytes(&FOOT_MAGIC);
    w.into_bytes()
}

/// A footer declaring `count` pages but holding `entries` of them —
/// each of kind code `kind`, over the first 16 bytes of the page region —
/// then the manifest blob `m`.
fn footer(count: u32, entries: u32, kind: u8) -> ByteWriter {
    let mut f = ByteWriter::new();
    f.u32(count);
    for _ in 0..entries {
        f.u8(kind);
        f.u64(8);
        f.u64(16);
        f.u32(crc32(&[0; 16]));
    }
    f.blob(b"m");
    f
}

fn store_case(what: &str, image: Vec<u8>, says: &str) {
    match measured(what, image, |i| StoreReader::open_bytes(i, STORE)) {
        Err(StoreError {
            path,
            fault: StorageFault::Corrupt,
            detail,
        }) => {
            assert_eq!(path, STORE, "{what}");
            assert!(detail.contains(says), "{what}: {detail}");
        }
        Err(other) => panic!("{what}: expected typed corruption, got {other:?}"),
        Ok(_) => panic!("{what}: a hostile footer opened"),
    }
}

fn store_failures() {
    let raw = PageKind::Raw.code();
    let valid = footer(1, 1, raw).into_bytes();
    let mut r = StoreReader::open_bytes(store_image(&valid), STORE).expect("valid footer");
    assert_eq!(r.read_page(0).expect("page"), [0; 16]);
    assert_eq!(r.manifest(), b"m");

    let image = store_image(&valid[..valid.len() - 1]);
    store_case("footer truncation", image, TRUNCATED);
    let image = store_image(&footer(1, 1, 200).into_bytes());
    store_case("footer bad tag", image, "unknown kind tag 200");
    let image = store_image(&footer(MAX_PAGES, 2, raw).into_bytes());
    store_case("footer oversized count", image, TRUNCATED);
    // The footer holds no string (its manifest is an opaque blob), so
    // it has no UTF-8 to get wrong.
    let mut trailing = valid;
    trailing.push(0);
    store_case("footer trailing bytes", store_image(&trailing), TRAILING);
}

// One test, so no other test thread allocates while a decode is measured.
#[test]
fn every_codec_failure_is_typed_and_bounded_in_every_caller() {
    wire_failures();
    image_failures();
    store_failures();
}
