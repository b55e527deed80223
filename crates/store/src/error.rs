//! Typed errors for every way a store open or save can fail.
//!
//! The contract (mirrored by `tests/store_corruption.rs` at the workspace
//! root): no input file — truncated, bit-flipped, wrong-format, or from a
//! future version — may cause a panic. Every failure surfaces as one of
//! these variants.

use flexpath_xmldom::{CodecError, WireError};
use std::fmt;

/// Why a store could not be opened, read, or written.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure (open, read, write, rename).
    Io(std::io::Error),
    /// The file does not start with the store magic — not a store file.
    BadMagic,
    /// The file's format version is not the one this build reads; the
    /// store has to be rebuilt from its XML.
    UnsupportedVersion {
        /// Version number found in the file.
        found: u32,
        /// Version number this build supports.
        supported: u32,
    },
    /// The file ends before a structure it declares.
    Truncated {
        /// Which structure was cut off.
        what: &'static str,
    },
    /// A section's stored CRC does not match its bytes.
    ChecksumMismatch {
        /// Which section (or `"header"`) failed verification.
        section: &'static str,
    },
    /// A required section is absent from the section table.
    MissingSection {
        /// The missing section's name.
        section: &'static str,
    },
    /// Section bytes passed CRC but decode to an inconsistent structure
    /// (only possible for hand-crafted files, since CRC catches flips).
    Corrupt(CodecError),
    /// The catalog has no document with the requested name.
    DocumentNotFound {
        /// The name that was looked up.
        name: String,
    },
    /// A document name unusable as a store file name.
    InvalidName {
        /// The offending name.
        name: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::BadMagic => write!(f, "not a FleXPath store file (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported store format version {found} (this build reads only version \
                 {supported}); rebuild the store from its XML with `flexpath-cli index`"
            ),
            StoreError::Truncated { what } => write!(f, "store file truncated at {what}"),
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section} section")
            }
            StoreError::MissingSection { section } => {
                write!(f, "required section {section} missing")
            }
            StoreError::Corrupt(e) => write!(f, "corrupt store payload: {e}"),
            StoreError::DocumentNotFound { name } => {
                write!(f, "no document named {name:?} in catalog")
            }
            StoreError::InvalidName { name } => {
                write!(
                    f,
                    "invalid document name {name:?} (use letters, digits, '.', '_', '-')"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Corrupt(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Corrupt(CodecError::Wire(e))
    }
}
