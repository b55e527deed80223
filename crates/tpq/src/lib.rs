//! # flexpath-tpq
//!
//! Tree pattern queries (TPQs) and FleXPath's relaxation theory
//! (Sections 2–3 of the paper), implemented in full:
//!
//! * [`Tpq`] — the query model `(T, F)`: a rooted tree of variables with
//!   parent-child / ancestor-descendant edges, tag and attribute predicates,
//!   `contains` full-text predicates, and a distinguished node;
//! * [`parser`] — an XPath-subset parser covering the paper's query syntax
//!   (`//article[.//algorithm and ./section[./paragraph and
//!   .contains("XML" and "streaming")]]`);
//! * [`logical`] — the logical (predicate-set) form of a TPQ (Figure 2);
//! * [`closure`] — the closure under the three inference rules (Figure 3);
//! * [`core`] — redundant-predicate elimination and the unique minimal core
//!   (Theorem 1), with TPQ reconstruction from a predicate set;
//! * [`relax`] — the four primitive relaxation operators: axis
//!   generalization `γ`, leaf deletion `λ`, subtree promotion `σ`, and
//!   `contains` promotion `κ`, each reporting the closure predicates it
//!   drops (the operator ↔ predicate-drop correspondence the algorithms
//!   rely on).
//!
//! Containment checking and relaxation-space enumeration, which only
//! check or teach the theory, live in `flexpath-reference`.
//!
//! ```
//! use flexpath_tpq::parse_query;
//!
//! let q = parse_query(
//!     "//article[./section[./paragraph and .contains(\"XML\" and \"streaming\")]]"
//! ).unwrap();
//! assert_eq!(q.node_count(), 3);
//! let closure = q.closure();
//! assert!(closure.len() > q.logical().len()); // inference rules fire
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod closure;
pub mod core;
pub mod logical;
pub mod parser;
pub mod relax;

pub use ast::{AttrOp, AttrPred, Axis, Tpq, TpqBuilder, Var};
pub use closure::closure_of;
pub use core::{core_of, tpq_from_predicates, ReconstructError};
pub use logical::{Predicate, PredicateSet};
pub use parser::{parse_query, parse_query_weighted, QueryParseError};
pub use relax::{applicable_ops, apply_op, relaxation_step, RelaxError, RelaxOp, RelaxationStep};
