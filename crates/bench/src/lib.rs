//! Figure regenerators live in `src/bin`; std-only benchmarks in
//! `benches/` (built with `harness = false` via [`harness`], so the
//! workspace needs no external bench framework and builds offline).
#![allow(missing_docs)]

pub mod gate;
pub mod harness;

pub use harness::{bench, BenchResult};
