//! Typed storage faults: every way a store file can disappoint,
//! named. The engine layer's `MmdbError::Storage` carries the same
//! [`StorageFault`].

use std::fmt;

/// Which stage of a storage conversation failed: what went wrong with a
/// store file, in this crate's [`StoreError`] and in the engine's
/// `MmdbError::Storage` alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The file could not be opened or created.
    Open,
    /// A read syscall failed or came up short.
    Read,
    /// A write syscall failed.
    Write,
    /// The bytes are not a ccindex store (bad magic, impossible
    /// offsets, truncated structure).
    Format,
    /// The structure parsed but a checksum, an internal invariant or a
    /// catalog invariant failed — the file was damaged after it was
    /// written.
    Corrupt,
    /// The file speaks a store format version this build does not.
    Version,
}

impl StorageFault {
    /// The fault as a storage error's message names it.
    pub fn stage(self) -> &'static str {
        match self {
            StorageFault::Open => "opening",
            StorageFault::Read => "reading",
            StorageFault::Write => "writing",
            StorageFault::Format => "not a ccindex store",
            StorageFault::Corrupt => "corrupted store",
            StorageFault::Version => "store format version mismatch",
        }
    }
}

/// A typed storage error naming the file and the fault. Never a
/// panic: corrupted or hostile input must surface as one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// The file (or in-memory buffer label) at fault.
    pub path: String,
    /// The fault category.
    pub fault: StorageFault,
    /// Human-readable specifics.
    pub detail: String,
}

impl StoreError {
    /// Build an error for `path`.
    pub fn new(path: &str, fault: StorageFault, detail: impl Into<String>) -> Self {
        Self {
            path: path.to_owned(),
            fault,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "storage fault on `{}` ({}): {}",
            self.path,
            self.fault.stage(),
            self.detail
        )
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_file_and_fault() {
        let e = StoreError::new("/tmp/cat.ccs", StorageFault::Corrupt, "page 3 crc mismatch");
        let s = e.to_string();
        assert!(s.contains("/tmp/cat.ccs"), "{s}");
        assert!(s.contains("corrupted"), "{s}");
        assert!(s.contains("page 3"), "{s}");
    }
}
