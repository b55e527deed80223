//! # flexpath-bench
//!
//! Benchmark harness regenerating **every figure of the FleXPath
//! evaluation** (paper Section 6, Figures 9–16), plus ablation benches for
//! the design decisions called out in DESIGN.md.
//!
//! Two front ends share this library:
//!
//! * `cargo bench -p flexpath-bench` — micro/meso benchmarks (via the
//!   dependency-free [`minibench`] harness), one target per figure, at
//!   CI-friendly document sizes;
//! * `cargo run --release -p flexpath-bench --bin repro -- <figure|all>
//!   [--scale F]` — one-shot reproduction runs that print the same series
//!   the paper plots (and can be scaled up to the paper's 1–100 MB range).
//!
//! Absolute numbers are not comparable to the paper's 2 GHz Pentium 4; the
//! *shapes* are what EXPERIMENTS.md tracks: who wins, how gaps grow with
//! relaxation count / K / document size, and where the algorithms tie.

#![forbid(unsafe_code)]

pub mod harness;
pub mod minibench;
pub mod recorder_overhead;
pub mod report;
pub mod workload;

/// The workspace's one RAII scratch directory (`tests/common/mod.rs`).
#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod scratch;

pub use harness::{run_figure, run_once, run_once_threads, FigureSpec, RunRecord, Series};
pub use workload::{bench_config, bench_session, QUERIES, XQ1, XQ2, XQ3};
