//! # flexpath-ftsearch
//!
//! The IR engine of the FleXPath reproduction. FleXPath (Section 5.1)
//! assumes *"the `contains` predicate is evaluated by a separate IR engine
//! that returns a ranked list of pairs (node, score)"* using *"the same
//! techniques as in [XRANK, Schmidt et al.] that return the most specific
//! elements that satisfy the full-text expression"*. This crate provides
//! exactly that contract, built from scratch:
//!
//! * [`tokenize()`](tokenize()) — word tokenizer with case folding;
//! * [`stem()`](stem()) — the full Porter stemming algorithm;
//! * [`FtExpr`] — the full-text expression language (`Term`, `Phrase`,
//!   `And`, `Or`, `Not`, `Window`) plus a parser for the paper's
//!   `"XML" and "streaming"` syntax;
//! * [`InvertedIndex`] — element-granularity positional inverted index;
//! * [`FtEval`] — evaluation returning the *most specific* satisfying
//!   elements with tf-idf scores normalized to `[0, 1]`, with O(log n)
//!   subtree-satisfaction tests (the engine's `Combine` step) and the
//!   `#contains(tag, expr)` counts needed by FleXPath's predicate penalties.
//!
//! ```
//! use flexpath_xmldom::parse;
//! use flexpath_ftsearch::{InvertedIndex, FtExpr};
//!
//! let doc = parse("<article><section><p>XML streaming algorithms</p></section></article>").unwrap();
//! let index = InvertedIndex::build(&doc);
//! let expr = FtExpr::parse("\"XML\" and \"streaming\"").unwrap();
//! let eval = index.evaluate(&doc, &expr);
//! let article = doc.root_element();
//! assert!(eval.satisfies(&doc, article));
//! assert!(eval.score(&doc, article) > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod budget;
pub mod cache;
pub mod eval;
pub mod ftexpr;
pub mod highlight;
pub mod index;
pub mod stem;
pub mod stopwords;
pub mod thesaurus;
pub mod tokenize;

pub use budget::{Budget, CancelToken, ExhaustReason};
pub use cache::{CacheStats, ShardedCache};
pub use eval::FtEval;
pub use ftexpr::{FtExpr, FtParseError};
pub use highlight::{highlight, HighlightStyle};
pub use index::{InvertedIndex, Posting, PostingEntry};
pub use stem::stem;
pub use stopwords::is_stopword;
pub use thesaurus::Thesaurus;
pub use tokenize::{for_each_token, tokenize};
