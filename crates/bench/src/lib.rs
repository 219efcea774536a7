//! # darkvec-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the DarkVec paper's evaluation (see DESIGN.md §3 for the index), plus
//! the experiments that commit the `BENCH_*.json` files (`xp ann`,
//! `xp scale`, `xp incremental`, `xp novelty`). Timing of the pipeline's
//! own workloads lives in `benchmark/`.
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
