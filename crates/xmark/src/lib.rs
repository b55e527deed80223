//! # flexpath-xmark
//!
//! A seeded, from-scratch generator for XMark-style auction documents — the
//! dataset the FleXPath paper evaluates on (Section 6: *"We use the XMark XML
//! data generator … We varied the size of our documents from 1MB to
//! 100MB"*).
//!
//! The generator reproduces the three schema features the paper's
//! relaxations hinge on:
//!
//! * **recursive** `parlist`/`listitem` nesting — enables *axis
//!   generalization* (`description/parlist` matched at depth > 1);
//! * **optional** `incategory` (and the inline `bold`/`keyword`/`emph`
//!   children of `text`) — enables *leaf deletion*;
//! * **shared** `text` (appears under both `description//listitem` and
//!   `mailbox/mail`) — enables *subtree promotion*.
//!
//! Documents are produced directly as [`flexpath_xmldom::Document`]s (no
//! serialize/parse round trip needed), deterministically from a seed.
//!
//! ```
//! use flexpath_xmark::{XmarkConfig, generate};
//!
//! let doc = generate(&XmarkConfig { target_bytes: 64 * 1024, seed: 7, ..Default::default() });
//! assert!(!doc.nodes_with_tag_name("item").is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod articles;
pub mod generator;
pub mod rng;
pub mod schema;
pub mod vocab;

pub use articles::{generate_articles, ArticlesConfig, Scenario};
pub use generator::{generate, XmarkConfig};
pub use vocab::Vocabulary;
