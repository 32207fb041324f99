//! Streaming store writer: pages are appended as they are produced
//! (geomedea-style), the footer and trailer land last.

use std::path::Path;

use crate::bytes::ByteWriter;
use crate::error::{StorageFault, StoreError};
use crate::{
    crc32, PageEntry, PageKind, FOOT_MAGIC, FORMAT_VERSION, HEADER_LEN, MAGIC, MAX_PAGES,
    TRAILER_LEN,
};

/// Builds a store image in memory: header, then pages in append
/// order, then [`finish`](StoreWriter::finish) seals the footer and
/// trailer. The image is a plain `Vec<u8>` so the identical bytes can
/// be written to a file *or* streamed over the wire as a snapshot.
#[derive(Debug)]
pub struct StoreWriter {
    buf: Vec<u8>,
    pages: Vec<PageEntry>,
}

impl Default for StoreWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreWriter {
    /// Start a new image (writes the header).
    pub fn new() -> Self {
        let mut header = ByteWriter::with_capacity(HEADER_LEN);
        header.bytes(&MAGIC);
        header.u16(FORMAT_VERSION);
        header.u16(0); // reserved
        Self {
            buf: header.into_bytes(),
            pages: Vec::new(),
        }
    }

    /// Append one page and return its id (its index in the page
    /// table). Panics if the writer exceeds [`MAX_PAGES`] — a builder
    /// bug, not an input fault.
    pub fn page(&mut self, kind: PageKind, bytes: &[u8]) -> u32 {
        assert!(
            (self.pages.len() as u32) < MAX_PAGES,
            "store image exceeds {MAX_PAGES} pages"
        );
        let id = self.pages.len() as u32;
        self.pages.push(PageEntry {
            kind,
            offset: self.buf.len() as u64,
            len: bytes.len() as u64,
            crc: crc32(bytes),
        });
        self.buf.extend_from_slice(bytes);
        id
    }

    /// Number of pages appended so far.
    pub fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Seal the image: write the page table, the caller's `manifest`
    /// blob, and the trailer. Returns the complete store bytes.
    pub fn finish(mut self, manifest: &[u8]) -> Vec<u8> {
        let footer_off = self.buf.len() as u64;
        let mut footer = ByteWriter::new();
        footer.u32(self.pages.len() as u32);
        for page in &self.pages {
            footer.u8(page.kind.code());
            footer.u64(page.offset);
            footer.u64(page.len);
            footer.u32(page.crc);
        }
        footer.blob(manifest);
        let footer = footer.into_bytes();
        let mut trailer = ByteWriter::with_capacity(TRAILER_LEN);
        trailer.u64(footer_off);
        trailer.u64(footer.len() as u64);
        trailer.u32(crc32(&footer));
        trailer.bytes(&FOOT_MAGIC);
        self.buf.extend_from_slice(&footer);
        self.buf.extend_from_slice(&trailer.into_bytes());
        self.buf
    }
}

/// Write a finished store image to `path`, mapping every I/O failure
/// to a typed [`StoreError`].
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let label = path.display().to_string();
    std::fs::write(path, bytes)
        .map_err(|e| StoreError::new(&label, StorageFault::Write, format!("writing store: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_image_is_header_footer_trailer() {
        let bytes = StoreWriter::new().finish(b"");
        // header + count(4) + manifest_len(4) + trailer
        assert_eq!(bytes.len(), HEADER_LEN + 4 + 4 + crate::TRAILER_LEN);
        assert_eq!(&bytes[..4], &MAGIC);
        assert_eq!(&bytes[bytes.len() - 4..], &FOOT_MAGIC);
    }

    #[test]
    fn write_to_unwritable_path_is_a_typed_error() {
        let err = write_file(Path::new("/nonexistent-dir/x/y.ccs"), b"abc")
            .expect_err("unwritable path must fail");
        assert_eq!(err.fault, StorageFault::Write);
        assert!(err.path.contains("nonexistent-dir"), "{err}");
    }
}
