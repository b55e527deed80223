//! # flexpath-reference
//!
//! The workspace's referees: code that exists to check, compare or teach,
//! kept out of the product crates. It depends on the document model, the
//! IR engine, the query model and the XMark RNG — never on
//! `flexpath-engine`, `-store`, `-serve` or `flexpath`, so a reference can
//! share no code with what it checks. Product crates take it only as a
//! dev-dependency; `flexpath-bench` (tooling) takes it as a normal one.
//!
//! * [`containment`] — homomorphism-based query containment, the check
//!   behind Theorem 2's soundness half;
//! * [`space`] — exhaustive enumeration of a query's relaxation space;
//! * [`brute_force`] — a naive tree-pattern matcher, the oracle for the
//!   encoded evaluator;
//! * [`shapes`] — seeded random documents and queries in the shapes the
//!   evaluator's fast paths branch on;
//! * [`scratch`] and [`prometheus`] — the tests' one scratch directory and
//!   one Prometheus exposition checker.

#![forbid(unsafe_code)]

pub mod brute_force;
pub mod containment;
pub mod prometheus;
pub mod scratch;
pub mod shapes;
pub mod space;

pub use brute_force::naive_exact_answers;
pub use containment::contains_query;
pub use prometheus::assert_prometheus_parses;
pub use scratch::ScratchDir;
pub use space::{enumerate_space, RelaxationSpace, SpaceEntry};
