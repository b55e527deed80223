//! # flexpath-bench
//!
//! Benchmark harness regenerating **every figure of the FleXPath
//! evaluation** (paper Section 6, Figures 9–16), plus ablation benches for
//! the design decisions called out in DESIGN.md.
//!
//! One front end regenerates the figures:
//! `cargo run --release -p flexpath-bench --bin repro -- <figure|all>
//! [--scale F]` prints the same series the paper plots (CI scale by
//! default, up to the paper's 1–100 MB range with `--scale 1.0`).
//! `cargo bench -p flexpath-bench --bench micro_substrates` times the
//! substrates underneath (parsing, indexing, store decode, joins,
//! full-text evaluation, schedule construction).
//!
//! Absolute numbers are not comparable to the paper's 2 GHz Pentium 4; the
//! *shapes* are what EXPERIMENTS.md tracks: who wins, how gaps grow with
//! relaxation count / K / document size, and where the algorithms tie.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod harness;
pub mod recorder_overhead;
pub mod report;
pub mod workload;

pub use harness::{run_figure, run_once, FigureSpec, RunRecord, Series};
pub use workload::{bench_config, bench_session, QUERIES, XQ1, XQ2, XQ3};
