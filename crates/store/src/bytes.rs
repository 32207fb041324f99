//! The workspace's one byte codec: a little-endian [`ByteWriter`], a
//! bounds-checked [`ByteReader`], and the IEEE [`crc32`]. The store's
//! header, page table and trailer, `mmdb`'s catalog manifest and pages,
//! and the wire protocol's frame headers and messages are all written and
//! read through these, so each check is written once, here.
//!
//! The encoding: integers are fixed-width little-endian, a `usize`
//! travels as a `u64`, a string or blob is a `u32` length then its
//! bytes, an option is a 0/1 tag then the value, and a sequence is a
//! `u32` count then its elements.
//!
//! Every read checks that its bytes remain before it takes them, and
//! every failure is built by the caller's error constructor — a
//! `(label, detail)` function — so a wire decode fails as a transport
//! error naming the peer, and a manifest or footer decode as a storage
//! error naming the file. Nothing here panics on hostile input.
//!
//! ```
//! use ccindex_store::bytes::{ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.str("sales");
//! w.seq(&[7u64, 9], |w, v| w.u64(*v));
//! let bytes = w.into_bytes();
//!
//! let fail = |label: &str, detail: String| format!("{label}: {detail}");
//! let mut r = ByteReader::new(&bytes, "example", fail);
//! assert_eq!(r.str()?, "sales");
//! assert_eq!(r.seq(|r| r.u64())?, [7, 9]);
//! r.expect_end()?;
//!
//! // A short buffer is the caller's error, naming its label.
//! let err = ByteReader::new(&bytes[..3], "example", fail).str().unwrap_err();
//! assert!(err.starts_with("example: truncated"), "{err}");
//! # Ok::<(), String>(())
//! ```

/// Append-only little-endian encode buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty buffer.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh empty buffer with room for `n` bytes.
    #[inline]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
        }
    }

    /// The encoded bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, unprefixed (magic numbers, payloads already framed).
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One raw byte (also the enum-tag encoder).
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// `usize` travels as `u64`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `u32`-length-prefixed UTF-8.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// `u32`-length-prefixed raw bytes.
    #[inline]
    pub fn blob(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.bytes(bytes);
    }

    /// Little-endian `u32`s back to back, unprefixed (the bulk form of
    /// [`u32`](Self::u32)).
    #[inline]
    pub fn u32s(&mut self, vals: &[u32]) {
        self.buf.reserve(vals.len() * 4);
        vals.iter().for_each(|&v| self.u32(v));
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

    /// `u32`-count-prefixed sequence, each element via `f`.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        items.iter().for_each(|item| f(self, item));
    }
}

/// Bounds-checked cursor over received or stored bytes. Every read
/// checks that its bytes remain, and every failure is the caller's
/// error `E`, built from the reader's label and a detail.
#[derive(Debug)]
pub struct ByteReader<'a, E> {
    buf: &'a [u8],
    pos: usize,
    label: &'a str,
    error: fn(&str, String) -> E,
}

impl<'a, E> ByteReader<'a, E> {
    /// Start decoding `buf`; `error` builds every failure from `label`
    /// (the peer, file or page being read) and a detail.
    pub fn new(buf: &'a [u8], label: &'a str, error: fn(&str, String) -> E) -> Self {
        Self {
            buf,
            pos: 0,
            label,
            error,
        }
    }

    /// The caller's error for `detail`, naming the label: public so
    /// decoders above this layer reject bad tags and values in the same
    /// shape.
    pub fn fail(&self, detail: impl Into<String>) -> E {
        (self.error)(self.label, detail.into())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// How many `T`s a decoder may reserve for a sequence that claims
    /// `count` elements: at most what the remaining bytes could hold, so
    /// a corrupted or hostile count reserves no more memory than the
    /// input it arrived in, whatever it claims. The reservation is only
    /// a hint: a true count beyond it grows the vector as it decodes.
    pub fn capacity<T>(&self, count: usize) -> usize {
        count.min(self.remaining() / std::mem::size_of::<T>().max(1))
    }

    /// Error unless every byte was consumed.
    pub fn expect_end(&self) -> Result<(), E> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.fail(format!("{n} trailing bytes after the last field"))),
        }
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], E> {
        if self.remaining() < n {
            return Err(self.fail(format!(
                "truncated: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], E> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One raw byte (also the enum-tag decoder).
    pub fn u8(&mut self) -> Result<u8, E> {
        Ok(self.bytes(1)?[0])
    }

    /// Little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, E> {
        self.array().map(u16::from_le_bytes)
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, E> {
        self.array().map(u32::from_le_bytes)
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, E> {
        self.array().map(u64::from_le_bytes)
    }

    /// Little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, E> {
        self.array().map(i64::from_le_bytes)
    }

    /// `usize` travels as `u64`.
    pub fn usize(&mut self) -> Result<usize, E> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.fail(format!("length {v} overflows usize")))
    }

    /// `u32`-length-prefixed UTF-8, validated before it is copied.
    pub fn str(&mut self) -> Result<String, E> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| self.fail(format!("string is not UTF-8: {e}")))
    }

    /// `u32`-length-prefixed raw bytes.
    pub fn blob(&mut self) -> Result<Vec<u8>, E> {
        let len = self.u32()? as usize;
        Ok(self.bytes(len)?.to_vec())
    }

    /// `n` little-endian `u32`s in one bounds check (the bulk form of
    /// [`u32`](Self::u32)), collected into the caller's container: a
    /// `Vec`, or an `Arc<[u32]>` allocated once at its exact length.
    pub fn u32s<C: FromIterator<u32>>(&mut self, n: usize) -> Result<C, E> {
        let bytes = self.bytes(n.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunks")))
            .collect())
    }

    /// Option tag (0 = None, 1 = Some) followed by the value via `f`.
    pub fn option<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, E>) -> Result<Option<T>, E> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            other => Err(self.fail(format!("bad option tag {other}"))),
        }
    }

    /// `u32`-count-prefixed sequence, each element via `f`, reserving
    /// only what [`capacity`](Self::capacity) allows.
    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Self) -> Result<T, E>) -> Result<Vec<T>, E> {
        let len = self.u32()? as usize;
        let mut out = Vec::with_capacity(self.capacity::<T>(len));
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

/// IEEE CRC-32 lookup tables for slicing-by-16, built at compile time.
/// `CRC_TABLE[0]` is the byte-at-a-time table; `CRC_TABLE[k]` carries a
/// byte's contribution past `k` more bytes, so sixteen bytes fold in with
/// sixteen independent lookups instead of a chain of sixteen.
const CRC_TABLE: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// IEEE CRC-32 of `bytes` (the polynomial gzip and zlib use): the
/// checksum of every store page, the store footer and every wire frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// The CRC-32 of some bytes followed by `bytes`, given `crc`, the CRC-32
/// of the bytes before them: `crc32_update(crc32(a), b)` is the CRC-32
/// of `a` then `b`, without copying them together.
///
/// Sixteen bytes at a time (slicing-by-16): four little-endian words,
/// the first folded with the running register, then one lookup per byte
/// in the table for its distance from the end of the block. The tail
/// goes through the byte loop.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    let mut reg = !crc;
    for block in &mut blocks {
        let word =
            |i: usize| u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        let words = [word(0) ^ reg, word(4), word(8), word(12)];
        reg = 0;
        for (w, word) in words.into_iter().enumerate() {
            for b in 0..4 {
                reg ^= CRC_TABLE[15 - 4 * w - b][(word >> (8 * b) & 0xFF) as usize];
            }
        }
    }
    !crc_bytes(reg, blocks.remainder())
}

/// The byte-at-a-time loop over the inverted register `reg`: the tail of
/// [`crc32_update`], and its reference in tests.
fn crc_bytes(reg: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(reg, |reg, &b| {
        (reg >> 8) ^ CRC_TABLE[0][((reg ^ b as u32) & 0xFF) as usize]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail(label: &str, detail: String) -> String {
        format!("{label}: {detail}")
    }

    #[test]
    fn crc32_continues_across_a_split() {
        let text = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(crc32(text), 0x414F_A339);
        for at in 0..=text.len() {
            let (a, b) = text.split_at(at);
            assert_eq!(crc32_update(crc32(a), b), crc32(text), "split at {at}");
        }
    }

    proptest::proptest! {
        /// Slicing-by-16 equals the byte loop over the whole input, from
        /// any running CRC, at any alignment, continued across any split.
        #[test]
        fn slicing_by_16_matches_the_byte_loop(
            bytes in proptest::collection::vec(0u8..=255, 0..4_113),
            start in 0usize..17,
            split in 0usize..4_113,
            seed in 0u32..=u32::MAX,
        ) {
            let bytes = &bytes[start.min(bytes.len())..];
            let want = !crc_bytes(!seed, bytes);
            proptest::prop_assert_eq!(crc32_update(seed, bytes), want);
            let (a, b) = bytes.split_at(split.min(bytes.len()));
            proptest::prop_assert_eq!(crc32_update(crc32_update(seed, a), b), want);
        }
    }

    #[test]
    fn every_primitive_roundtrips() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(u32::MAX);
        w.u64(1 << 40);
        w.i64(-5);
        w.usize(12);
        w.str("héllo");
        w.blob(&[1, 2, 3]);
        w.u32s(&[9, 8]);
        w.option(Some(&4u8), |w, v| w.u8(*v));
        w.option(None::<&u8>, |w, v| w.u8(*v));
        w.seq(&["a", "bc"], |w, s| w.str(s));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "rt", fail);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(u32::MAX));
        assert_eq!(r.u64(), Ok(1 << 40));
        assert_eq!(r.i64(), Ok(-5));
        assert_eq!(r.usize(), Ok(12));
        assert_eq!(r.str().as_deref(), Ok("héllo"));
        assert_eq!(r.blob(), Ok(vec![1, 2, 3]));
        assert_eq!(r.u32s(2), Ok(vec![9, 8]));
        assert_eq!(r.option(|r| r.u8()), Ok(Some(4)));
        assert_eq!(r.option(|r| r.u8()), Ok(None));
        assert_eq!(r.seq(|r| r.str()), Ok(vec!["a".into(), "bc".into()]));
        assert_eq!(r.expect_end(), Ok(()));
    }

    /// `res` failed with `fail`'s error naming the label and saying `what`.
    fn says<T: std::fmt::Debug>(res: Result<T, String>, what: &str) {
        let err = res.expect_err(what);
        assert!(err.starts_with("peer: ") && err.contains(what), "{err}");
    }

    #[test]
    fn each_failure_is_the_callers_error_naming_the_label() {
        let reader = |bytes: &'static [u8]| ByteReader::new(bytes, "peer", fail);
        says(reader(&[1, 0]).u32(), "truncated");
        says(reader(&[2]).option(|r| r.u8()), "bad option tag 2");
        says(reader(&[1, 0, 0, 0, 0xFF]).str(), "not UTF-8");
        says(reader(&[0]).expect_end(), "1 trailing bytes");
        says(reader(&[0xFF; 4]).seq(|r| r.u8()), "truncated");
        says(reader(&[0; 7]).u32s::<Vec<u32>>(2), "truncated");
        says(reader(&[0; 3]).u32s::<Vec<u32>>(usize::MAX), "truncated");
    }

    #[test]
    fn a_claimed_count_reserves_at_most_the_remaining_bytes() {
        let r = ByteReader::new(&[0; 64], "cap", fail);
        assert_eq!(r.capacity::<u8>(usize::MAX), 64);
        assert_eq!(r.capacity::<u64>(usize::MAX), 8);
        assert_eq!(r.capacity::<u64>(3), 3);
        assert_eq!(r.capacity::<()>(usize::MAX), 64);
    }
}
