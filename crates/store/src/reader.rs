//! Store reader: opens an image by reading the 24-byte trailer and
//! the footer it locates, then serves individual pages on demand —
//! a file-backed reader seeks to exactly the pages the caller asks
//! for (the levels a probe descent touches), never the whole file.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::bytes::ByteReader;
use crate::error::{StorageFault, StoreError};
use crate::{
    crc32, PageEntry, PageKind, FOOT_MAGIC, FORMAT_VERSION, HEADER_LEN, MAGIC, MAX_PAGES,
    TRAILER_LEN,
};

/// Where the image's bytes live.
#[derive(Debug)]
enum Source {
    /// The whole image in memory (a wire-transferred snapshot).
    Bytes(Vec<u8>),
    /// An open file; pages are range-read on demand.
    File { file: File, len: u64 },
}

/// An opened store: validated header, footer, and page table; page
/// payloads are fetched (and CRC-checked) individually.
#[derive(Debug)]
pub struct StoreReader {
    path: String,
    source: Source,
    pages: Vec<PageEntry>,
    manifest: Vec<u8>,
}

impl StoreReader {
    /// Open an in-memory image. `label` names the buffer in errors
    /// (e.g. a peer address for a wire-transferred snapshot).
    pub fn open_bytes(bytes: Vec<u8>, label: &str) -> Result<Self, StoreError> {
        let len = bytes.len() as u64;
        Self::open(label.to_owned(), Source::Bytes(bytes), len)
    }

    /// Open a store file. Reads the trailer, footer, and header —
    /// not the pages.
    pub fn open_file(path: &Path) -> Result<Self, StoreError> {
        let label = path.display().to_string();
        let file = File::open(path).map_err(|e| {
            StoreError::new(&label, StorageFault::Open, format!("opening store: {e}"))
        })?;
        let len = file
            .metadata()
            .map_err(|e| StoreError::new(&label, StorageFault::Read, format!("stat: {e}")))?
            .len();
        Self::open(label, Source::File { file, len }, len)
    }

    fn open(path: String, mut source: Source, len: u64) -> Result<Self, StoreError> {
        let fail = |fault: StorageFault, detail: String| StoreError::new(&path, fault, detail);
        if len < (HEADER_LEN + TRAILER_LEN) as u64 {
            return Err(fail(
                StorageFault::Format,
                format!("{len} bytes is shorter than an empty store"),
            ));
        }
        let corrupt =
            |path: &str, detail: String| StoreError::new(path, StorageFault::Corrupt, detail);
        // Header: magic + version.
        let header = read_at(&mut source, &path, 0, HEADER_LEN as u64)?;
        let mut h = ByteReader::new(&header, &path, corrupt);
        let magic = h.bytes(4)?;
        if magic != MAGIC {
            return Err(fail(
                StorageFault::Format,
                format!(
                    "bad magic {:02x}{:02x}{:02x}{:02x} (not a ccindex store)",
                    magic[0], magic[1], magic[2], magic[3]
                ),
            ));
        }
        let version = h.u16()?;
        if version != FORMAT_VERSION {
            return Err(fail(
                StorageFault::Version,
                format!("file speaks store format v{version}, this build speaks v{FORMAT_VERSION}"),
            ));
        }
        // Trailer: footer location + checksum + magic.
        let trailer = read_at(
            &mut source,
            &path,
            len - TRAILER_LEN as u64,
            TRAILER_LEN as u64,
        )?;
        let mut t = ByteReader::new(&trailer, &path, corrupt);
        let (footer_off, footer_len, footer_crc) = (t.u64()?, t.u64()?, t.u32()?);
        if t.bytes(4)? != FOOT_MAGIC {
            return Err(fail(
                StorageFault::Format,
                "bad footer magic (truncated or overwritten tail)".to_owned(),
            ));
        }
        let footer_end = footer_off.checked_add(footer_len);
        if footer_off < HEADER_LEN as u64 || footer_end != Some(len - TRAILER_LEN as u64) {
            return Err(fail(
                StorageFault::Format,
                format!("footer span {footer_off}+{footer_len} does not fit a {len}-byte file"),
            ));
        }
        let footer = read_at(&mut source, &path, footer_off, footer_len)?;
        let got_crc = crc32(&footer);
        if got_crc != footer_crc {
            return Err(fail(
                StorageFault::Corrupt,
                format!("footer crc {got_crc:08x}, trailer says {footer_crc:08x}"),
            ));
        }
        // Page table + manifest.
        let mut f = ByteReader::new(&footer, &path, corrupt);
        let count = f.u32()?;
        if count > MAX_PAGES {
            return Err(fail(
                StorageFault::Corrupt,
                format!("page count {count} exceeds the {MAX_PAGES} cap"),
            ));
        }
        let mut pages = Vec::with_capacity(f.capacity::<PageEntry>(count as usize));
        for id in 0..count {
            let code = f.u8()?;
            let kind = PageKind::from_code(code).ok_or_else(|| {
                fail(
                    StorageFault::Corrupt,
                    format!("page {id} has unknown kind tag {code}"),
                )
            })?;
            let (offset, page_len, crc) = (f.u64()?, f.u64()?, f.u32()?);
            let end = offset.checked_add(page_len);
            if offset < HEADER_LEN as u64 || end.is_none() || end.unwrap_or(u64::MAX) > footer_off {
                return Err(fail(
                    StorageFault::Corrupt,
                    format!("page {id} span {offset}+{page_len} escapes the page region"),
                ));
            }
            pages.push(PageEntry {
                kind,
                offset,
                len: page_len,
                crc,
            });
        }
        let manifest = f.blob()?;
        f.expect_end()?;
        Ok(Self {
            path,
            source,
            pages,
            manifest,
        })
    }

    /// The caller's manifest blob, exactly as written.
    pub fn manifest(&self) -> &[u8] {
        &self.manifest
    }

    /// The file (or buffer label) this reader was opened from.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Number of pages in the image.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    /// A page's declared kind, or `None` for an out-of-range id.
    pub fn page_kind(&self, id: u32) -> Option<PageKind> {
        self.pages.get(id as usize).map(|p| p.kind)
    }

    /// A page's payload length in bytes, or `None` for an
    /// out-of-range id.
    pub fn page_len(&self, id: u32) -> Option<u64> {
        self.pages.get(id as usize).map(|p| p.len)
    }

    /// Fetch one page's payload, validating its CRC. A file-backed
    /// reader reads exactly this page's byte range.
    pub fn read_page(&mut self, id: u32) -> Result<Vec<u8>, StoreError> {
        let entry = *self.pages.get(id as usize).ok_or_else(|| {
            StoreError::new(
                &self.path,
                StorageFault::Corrupt,
                format!("page id {id} out of range ({} pages)", self.pages.len()),
            )
        })?;
        let bytes = read_at(&mut self.source, &self.path, entry.offset, entry.len)?;
        let got = crc32(&bytes);
        if got != entry.crc {
            return Err(StoreError::new(
                &self.path,
                StorageFault::Corrupt,
                format!("page {id} crc {got:08x}, page table says {:08x}", entry.crc),
            ));
        }
        Ok(bytes)
    }

    /// [`read_page`](Self::read_page), additionally checking the page
    /// was written with the expected kind.
    pub fn read_page_expect(&mut self, id: u32, kind: PageKind) -> Result<Vec<u8>, StoreError> {
        match self.page_kind(id) {
            Some(k) if k == kind => self.read_page(id),
            Some(other) => Err(StoreError::new(
                &self.path,
                StorageFault::Corrupt,
                format!("page {id} is {other:?}, expected {kind:?}"),
            )),
            None => Err(StoreError::new(
                &self.path,
                StorageFault::Corrupt,
                format!("page id {id} out of range ({} pages)", self.pages.len()),
            )),
        }
    }
}

/// Read `len` bytes at `offset`, bounds-checked against the source.
fn read_at(source: &mut Source, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
    let fits = |total: u64| offset.checked_add(len).is_some_and(|end| end <= total);
    match source {
        Source::Bytes(bytes) => {
            if !fits(bytes.len() as u64) {
                return Err(StoreError::new(
                    path,
                    StorageFault::Format,
                    format!("read {offset}+{len} escapes a {}-byte image", bytes.len()),
                ));
            }
            Ok(bytes[offset as usize..(offset + len) as usize].to_vec())
        }
        Source::File { file, len: total } => {
            if !fits(*total) {
                return Err(StoreError::new(
                    path,
                    StorageFault::Format,
                    format!("read {offset}+{len} escapes a {total}-byte file"),
                ));
            }
            file.seek(SeekFrom::Start(offset)).map_err(|e| {
                StoreError::new(path, StorageFault::Read, format!("seek to {offset}: {e}"))
            })?;
            let mut buf = vec![0u8; len as usize];
            file.read_exact(&mut buf).map_err(|e| {
                StoreError::new(
                    path,
                    StorageFault::Read,
                    format!("reading {len} bytes at {offset}: {e}"),
                )
            })?;
            Ok(buf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreWriter;

    fn sample_image() -> Vec<u8> {
        let mut w = StoreWriter::new();
        w.page(PageKind::SortedKeys, &[1, 2, 3, 4]);
        w.page(PageKind::CssLevel, b"level zero");
        w.page(PageKind::Raw, &[]);
        w.finish(b"manifest blob")
    }

    #[test]
    fn image_roundtrips_through_bytes() {
        let mut r = StoreReader::open_bytes(sample_image(), "mem").expect("open");
        assert_eq!(r.page_count(), 3);
        assert_eq!(r.manifest(), b"manifest blob");
        assert_eq!(r.page_kind(0), Some(PageKind::SortedKeys));
        assert_eq!(r.read_page(0).expect("page 0"), vec![1, 2, 3, 4]);
        assert_eq!(r.read_page(1).expect("page 1"), b"level zero");
        assert_eq!(r.read_page(2).expect("page 2"), Vec::<u8>::new());
        assert_eq!(
            r.read_page_expect(1, PageKind::CssLevel).expect("typed"),
            b"level zero"
        );
    }

    #[test]
    fn image_roundtrips_through_a_file() {
        let path = std::env::temp_dir().join(format!(
            "ccindex-store-roundtrip-{}.ccs",
            std::process::id()
        ));
        crate::write_file(&path, &sample_image()).expect("write");
        let mut r = StoreReader::open_file(&path).expect("open");
        assert_eq!(r.page_count(), 3);
        assert_eq!(r.read_page(1).expect("page 1"), b"level zero");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_typed_open_error() {
        let err = StoreReader::open_file(Path::new("/nonexistent/cat.ccs"))
            .expect_err("missing file must fail");
        assert_eq!(err.fault, StorageFault::Open);
    }

    #[test]
    fn bit_flip_in_a_page_is_corrupt() {
        let mut bytes = sample_image();
        bytes[HEADER_LEN] ^= 0x01; // first byte of page 0
        let mut r = StoreReader::open_bytes(bytes, "mem").expect("table still intact");
        let err = r.read_page(0).expect_err("flipped page must fail");
        assert_eq!(err.fault, StorageFault::Corrupt);
        assert!(err.detail.contains("crc"), "{err}");
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut bytes = sample_image();
        bytes.truncate(bytes.len() - 3);
        let err = StoreReader::open_bytes(bytes, "mem").expect_err("truncation must fail");
        assert_eq!(err.fault, StorageFault::Format);
    }

    #[test]
    fn forged_footer_magic_is_a_format_error() {
        let mut bytes = sample_image();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(b"XXXX");
        let err = StoreReader::open_bytes(bytes, "mem").expect_err("forged magic must fail");
        assert_eq!(err.fault, StorageFault::Format);
        assert!(err.detail.contains("footer magic"), "{err}");
    }

    #[test]
    fn forged_header_magic_is_a_format_error() {
        let mut bytes = sample_image();
        bytes[0] = b'X';
        let err = StoreReader::open_bytes(bytes, "mem").expect_err("forged magic must fail");
        assert_eq!(err.fault, StorageFault::Format);
        assert!(err.detail.contains("magic"), "{err}");
    }

    #[test]
    fn future_version_is_a_version_error() {
        let mut bytes = sample_image();
        bytes[4] = 99;
        let err = StoreReader::open_bytes(bytes, "mem").expect_err("future version must fail");
        assert_eq!(err.fault, StorageFault::Version);
        assert!(err.detail.contains("v99"), "{err}");
    }

    #[test]
    fn corrupted_footer_is_corrupt() {
        let mut bytes = sample_image();
        // Flip a byte inside the footer (between the last page and the
        // trailer). The last page is empty, so the footer starts right
        // after page 1's payload.
        let at = bytes.len() - TRAILER_LEN - 2;
        bytes[at] ^= 0xFF;
        let err = StoreReader::open_bytes(bytes, "mem").expect_err("footer damage must fail");
        assert_eq!(err.fault, StorageFault::Corrupt);
    }
}
