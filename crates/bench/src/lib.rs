//! Benchmark harness reproducing every figure of the paper's evaluation.
//!
//! Figure 1 of the paper has eight panels, (a)–(h); each maps to one
//! module in [`figures`] that regenerates the same series on the synthetic
//! datasets (see DESIGN.md for the experiment index and EXPERIMENTS.md for
//! measured-vs-paper results):
//!
//! | module | sweeps | series |
//! |--------|--------|--------|
//! | [`figures::fig1a`] | p | SGSelect vs exhaustive baseline vs IP |
//! | [`figures::fig1b`] | s | SGSelect vs baseline |
//! | [`figures::fig1c`] | k | SGSelect vs baseline |
//! | [`figures::fig1d`] | network size | SGSelect vs baseline vs IP |
//! | [`figures::fig1e`] | m | STGSelect vs sequential baseline |
//! | [`figures::fig1f`] | schedule length | STGSelect vs sequential baseline |
//! | [`figures::fig1g`] | p | STGArrange k vs PCArrange k_h |
//! | [`figures::fig1h`] | p | STGArrange vs PCArrange total distance |
//! | [`figures::ablation`] | pruning toggles | per-strategy runtime/frames |
//! | [`figures::ext_quality`] | p | exact vs greedy vs local search vs anytime |
//! | [`figures::ext_kplex`] | k | max k-plex B&B + maximal enumeration |
//!
//! Run `cargo run -p stgq-bench --release --bin figures -- all` for the
//! full sweeps (add `--fast` for a quick smoke pass); `cargo bench`
//! exercises reduced grids under Criterion.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod figures;
pub mod serving;
mod table;
mod timing;

pub use table::Table;
pub use timing::{median_nanos, time_nanos};

/// Deterministic seed shared by all figures (the paper's presentation date).
pub const SEED: u64 = 20_110_829;

/// Sweep resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Few points, single timing rep — for CI, Criterion and smoke runs.
    Fast,
    /// The paper's full grids with median-of-3 timings.
    Paper,
}

impl Scale {
    /// Timing repetitions per measurement.
    pub fn reps(self) -> usize {
        match self {
            Scale::Fast => 1,
            Scale::Paper => 3,
        }
    }
}
