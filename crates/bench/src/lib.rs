//! # darkvec-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the DarkVec paper's evaluation (see DESIGN.md §3 for the index), plus
//! the benchmarks that commit the `BENCH_*.json` files (`xp perf`,
//! `xp ann`, `xp scale`, `xp serve`, …).
//!
//! Run an experiment with:
//!
//! ```text
//! cargo run --release -p darkvec-bench --bin xp -- table3
//! cargo run --release -p darkvec-bench --bin xp -- all
//! ```
//!
//! Outputs are printed and mirrored under `results/`.

pub mod ctx;
pub mod experiments;
pub mod table;

pub use ctx::Ctx;
