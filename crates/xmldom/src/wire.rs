//! Minimal binary wire helpers shared by every persistent-store codec.
//!
//! The persistent corpus format (see the `flexpath-store` crate) is
//! deliberately dependency-free: fixed-width little-endian integers,
//! length-prefixed UTF-8 strings, and the two pieces of a columnar payload
//! — a `u32` column with its count up front, and a string blob padded to a
//! multiple of four — written by [`ByteWriter`] and read back by
//! [`ByteReader`]. The reader is *total*: every method returns a typed
//! [`WireError`] instead of panicking, no matter how truncated or
//! malformed the input bytes are — the store's corruption contract ("no
//! panic on any byte flip") bottoms out here.

use std::fmt;

/// A decode failure at a specific byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before `want` more bytes could be read.
    UnexpectedEof {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Number of bytes the read needed.
        want: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8 {
        /// Byte offset of the string payload.
        at: usize,
    },
    /// A length or count field exceeds what the remaining input could hold.
    ImplausibleLength {
        /// Byte offset of the offending field.
        at: usize,
        /// The decoded length/count value.
        len: u64,
    },
    /// Trailing bytes remained after a decode that must consume everything.
    TrailingBytes {
        /// Byte offset of the first unconsumed byte.
        at: usize,
    },
    /// The padding after a string blob was not all zero bytes.
    NonZeroPadding {
        /// Byte offset of the padding.
        at: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { at, want } => {
                write!(
                    f,
                    "unexpected end of input at byte {at} (wanted {want} more)"
                )
            }
            WireError::InvalidUtf8 { at } => write!(f, "invalid UTF-8 string at byte {at}"),
            WireError::ImplausibleLength { at, len } => {
                write!(f, "implausible length {len} at byte {at}")
            }
            WireError::TrailingBytes { at } => write!(f, "trailing bytes at offset {at}"),
            WireError::NonZeroPadding { at } => write!(f, "nonzero padding at byte {at}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Zero bytes that follow a string blob of `len` bytes.
fn padding(len: usize) -> usize {
    len.next_multiple_of(4) - len
}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// An empty writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` length prefix followed by the UTF-8 bytes of `s`.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends one column: a `u32` count, then the little-endian `u32`s.
    /// The values are written as they come, with no copy collected first,
    /// and the count is the number written.
    pub fn u32s(&mut self, values: impl IntoIterator<Item = u32>) {
        let at = self.buf.len();
        self.u32(0);
        let mut n = 0u32;
        for v in values {
            self.u32(v);
            n += 1;
        }
        self.patch_u32(at, n);
    }

    /// Appends a string blob: a `u32` byte length, the bytes of `pieces`
    /// back to back, then zero bytes up to a multiple of four, so a column
    /// written after it stays 4-byte aligned.
    pub fn padded_str<'s>(&mut self, pieces: impl IntoIterator<Item = &'s str>) {
        let at = self.buf.len();
        self.u32(0);
        for s in pieces {
            self.buf.extend_from_slice(s.as_bytes());
        }
        let len = self.buf.len() - at - 4;
        self.patch_u32(at, len as u32);
        self.buf.resize(self.buf.len() + padding(len), 0);
    }

    /// Overwrites the `u32` written at byte `at`.
    fn patch_u32(&mut self, at: usize, v: u32) {
        if let Some(slot) = self.buf.get_mut(at..at + 4) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A column of little-endian `u32`s inside a payload, as
/// [`ByteReader::u32s`] finds it: read in place, copied only by
/// [`U32s::to_vec`] into whatever in-memory shape the decoder builds.
#[derive(Debug, Clone, Copy, Default)]
pub struct U32s<'a>(&'a [[u8; 4]]);

impl<'a> U32s<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The values `range`, or `None` if it is reversed or runs past the end.
    pub fn get(&self, range: std::ops::Range<usize>) -> Option<U32s<'a>> {
        self.0.get(range).map(U32s)
    }

    /// The values in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        self.0.iter().map(|b| u32::from_le_bytes(*b))
    }

    /// The values, copied into a `Vec` of exactly their length.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

/// Bounds-checked little-endian decoder over a borrowed byte slice.
///
/// Every read advances an internal cursor; a read past the end returns
/// [`WireError::UnexpectedEof`] and leaves the cursor untouched.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `data`, cursor at 0.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes left to read.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Errors unless every byte was consumed.
    pub fn expect_exhausted(&self) -> Result<(), WireError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes { at: self.pos })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(WireError::UnexpectedEof {
                at: self.pos,
                want: n,
            })?;
        // lint:allow(panic): `end` is checked_add + clamped to len above.
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        // lint:allow(panic): take(4) guarantees four bytes.
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b); // take(8) guarantees eight bytes
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let at = self.pos;
        let len = self.u32()? as usize;
        if len > self.remaining() {
            // Rewind so the reported offset points at the length field.
            self.pos = at;
            return Err(WireError::ImplausibleLength {
                at,
                len: len as u64,
            });
        }
        let start = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8 { at: start })
    }

    /// Reads a column written by [`ByteWriter::u32s`], borrowed: nothing is
    /// copied or allocated, and a count past the bytes remaining is an
    /// error.
    pub fn u32s(&mut self) -> Result<U32s<'a>, WireError> {
        let at = self.pos;
        let n = self.u32()? as usize;
        if n > self.remaining() / 4 {
            self.pos = at;
            return Err(WireError::ImplausibleLength { at, len: n as u64 });
        }
        let (run, _) = self.take(4 * n)?.as_chunks::<4>();
        Ok(U32s(run))
    }

    /// Reads a string blob written by [`ByteWriter::padded_str`]: one UTF-8
    /// check over the whole string, and padding that must be zero.
    pub fn padded_str(&mut self) -> Result<&'a str, WireError> {
        let s = self.str()?;
        let at = self.pos;
        if self.take(padding(s.len()))?.iter().any(|&b| b != 0) {
            return Err(WireError::NonZeroPadding { at });
        }
        Ok(s)
    }

    /// Reads a `u64` count field and sanity-checks it against the bytes
    /// remaining: each counted item occupies at least `min_item_bytes`, so
    /// a count that could not possibly fit is rejected *before* any
    /// allocation sized by it (a flipped high byte in a count must not
    /// trigger a multi-gigabyte `Vec::with_capacity`).
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let at = self.pos;
        let n = self.u64()?;
        let max = match min_item_bytes {
            0 => u64::MAX,
            m => (self.remaining() as u64).checked_div(m as u64).unwrap_or(0),
        };
        if n > max {
            self.pos = at;
            return Err(WireError::ImplausibleLength { at, len: n });
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = ByteWriter::new();
        w.u32(70_000);
        w.u64(1 << 40);
        w.str("héllo");
        w.bytes(&[1, 2, 3, 4]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u32().unwrap(), u32::from_le_bytes([1, 2, 3, 4]));
        assert!(r.expect_exhausted().is_ok());
    }

    #[test]
    fn truncated_reads_error_without_panicking() {
        let mut w = ByteWriter::new();
        w.u32(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..2]);
        assert!(matches!(r.u32(), Err(WireError::UnexpectedEof { .. })));
        // Cursor unchanged: nothing was consumed.
        assert_eq!(
            r.expect_exhausted(),
            Err(WireError::TrailingBytes { at: 0 })
        );
    }

    #[test]
    fn oversized_string_length_is_implausible() {
        let mut w = ByteWriter::new();
        w.u32(1_000_000); // length prefix far beyond the payload
        w.bytes(b"xy");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.str(),
            Err(WireError::ImplausibleLength { at: 0, .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_typed() {
        let mut w = ByteWriter::new();
        w.u32(2);
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.str(), Err(WireError::InvalidUtf8 { at: 4 })));
    }

    #[test]
    fn count_rejects_impossible_item_counts() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.count(4),
            Err(WireError::ImplausibleLength { .. })
        ));
        // Zero-byte items accept any count.
        let mut r = ByteReader::new(&bytes);
        assert!(r.count(0).is_ok());
    }

    #[test]
    fn columns_and_blobs_roundtrip_four_byte_aligned() {
        for s in ["", "é", "abc", "abcd", "abcde"] {
            let mut w = ByteWriter::new();
            w.padded_str([s]);
            assert_eq!(w.into_bytes().len() % 4, 0, "{s:?}");
        }
        let mut w = ByteWriter::new();
        w.u32s([7, u32::MAX, 0]);
        for s in ["", "é", "abc", "abcd", "abcde"] {
            w.padded_str([s]);
        }
        w.padded_str(["ab", "", "cd", "e"]);
        w.u32s([]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let column = r.u32s().unwrap();
        assert_eq!(column.to_vec(), [7, u32::MAX, 0]);
        assert_eq!(column.get(1..3).unwrap().to_vec(), [u32::MAX, 0]);
        assert!(column.get(2..4).is_none());
        for s in ["", "é", "abc", "abcd", "abcde", "abcde"] {
            assert_eq!(r.padded_str().unwrap(), s);
        }
        assert!(r.u32s().unwrap().is_empty());
        assert!(r.expect_exhausted().is_ok());
    }

    #[test]
    fn column_counts_past_the_input_and_dirty_padding_are_typed() {
        let mut w = ByteWriter::new();
        w.u32s([1, 2]);
        let mut bytes = w.into_bytes();
        bytes[0] = 3;
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.u32s().unwrap_err(),
            WireError::ImplausibleLength { at: 0, len: 3 }
        );
        assert_eq!(r.u32(), Ok(3), "cursor rewound to the count");
        let mut w = ByteWriter::new();
        w.padded_str(["ab"]);
        let mut bytes = w.into_bytes();
        bytes[7] = 1;
        assert_eq!(
            ByteReader::new(&bytes).padded_str(),
            Err(WireError::NonZeroPadding { at: 6 })
        );
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let bytes = [1u8, 2, 3, 4, 5];
        let mut r = ByteReader::new(&bytes);
        let _ = r.u32();
        assert_eq!(
            r.expect_exhausted(),
            Err(WireError::TrailingBytes { at: 4 })
        );
    }
}
