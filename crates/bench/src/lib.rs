#![warn(missing_docs)]

//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§5).
//!
//! The binary `repro` drives everything:
//!
//! ```text
//! repro all            # Table 3, Figures 9–24, ablations
//! repro table3         # dataset properties + compression statistics
//! repro fig 15         # one figure's sweep (9–24)
//! repro ablation       # utility-function / ξ_old / Lemma 3.1 ablations
//! repro --scale 0.2 …  # larger datasets (1.0 = paper-sized)
//! ```
//!
//! Results print as aligned tables (same rows/series as the paper) and
//! are appended as JSON lines under `results/` so EXPERIMENTS.md entries
//! are regenerable artifacts. We reproduce *shape*, not absolute
//! milliseconds: who wins, by roughly what factor, and where the gaps
//! grow as `ξ_new` drops.

pub mod ablation;
pub mod algo;
pub mod batchwork;
pub mod figures;
pub mod harness;
pub mod perfgate;
pub mod report;
pub mod table3;

pub use algo::{timed, PAPER_FAMILIES};
pub use figures::{run_figure, run_mem_figure, FigureResult, MemFigureResult};
pub use harness::{BenchGroup, BenchResult};
pub use report::Reporter;
pub use table3::run_table3;

/// Default dataset scale: 5% of the paper's tuple counts keeps the full
/// suite in the minutes range on a laptop.
pub const DEFAULT_SCALE: f64 = 0.05;
