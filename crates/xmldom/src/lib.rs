//! # flexpath-xmldom
//!
//! Columnar XML document model used by every layer of the FleXPath
//! reproduction (SIGMOD 2004). The paper's query processor is built on
//! *structural joins* over node lists sorted in document order
//! (Al-Khalifa et al., ICDE 2002), which require each node to carry an
//! interval label. This crate provides:
//!
//! * a from-scratch, dependency-free XML **parser** ([`parse`]) and
//!   **serializer** ([`serialize::write_xml`]);
//! * a [`Document`] that stores five dense `u32` columns per node (label,
//!   parent, level, subtree end, attribute offset) in document order and
//!   derives links and `(start, end, level)` interval labels from them, so
//!   ancestor/descendant tests are O(1) and per-tag node lists come out
//!   sorted;
//! * a programmatic [`DocumentBuilder`] (used by the XMark generator and by
//!   tests);
//! * [`DocStats`] — the `#(t)`, `#pc(t1,t2)`, `#ad(t1,t2)` occurrence counts
//!   that FleXPath's predicate penalties (Section 4.3.1) and selectivity
//!   estimates (Section 6) are computed from.
//!
//! ## Example
//!
//! ```
//! use flexpath_xmldom::{parse, Document};
//!
//! let doc = parse("<article><section><paragraph>XML streaming</paragraph></section></article>")
//!     .expect("well-formed");
//! let article = doc.root_element();
//! let sym = doc.symbols().lookup("paragraph").unwrap();
//! let paras = doc.nodes_with_tag(sym);
//! assert_eq!(paras.len(), 1);
//! assert!(doc.is_ancestor(article, paras[0]));
//! assert_eq!(doc.subtree_text(paras[0]), "XML streaming");
//! ```

// Library targets must stay panic-free on input-reachable paths; the
// workspace `no_panics` test enforces the same rule by source scan.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod axes;
pub mod builder;
pub mod codec;
pub mod document;
pub mod error;
pub mod events;
pub mod parser;
pub mod serialize;
pub mod stats;
pub mod symbols;
pub mod wire;

pub use axes::{AncestorIter, ChildIter, DescendantIter};
pub use builder::DocumentBuilder;
pub use codec::CodecError;
pub use document::{Document, NodeId, NodeKind};
pub use error::{ParseError, ParseErrorKind};
pub use events::{FnSink, XmlEvent, XmlSink};
pub use parser::{parse, parse_events, parse_with_options, ParseOptions};
pub use serialize::{to_xml_pretty, to_xml_string, write_xml};
pub use stats::{DocStats, TagPair};
pub use symbols::{Sym, SymbolTable};
pub use wire::{ByteReader, ByteWriter, U32s, WireError};
