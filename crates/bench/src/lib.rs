#![warn(missing_docs)]

//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§5).
//!
//! Every experiment is the paper's one pipeline (mine at `ξ_old`,
//! compress, re-mine at `ξ_new`) run as a list of
//! [`pipeline::PipelineSpec`]s and projected onto the columns of its
//! archived results file. The binary `repro` (`repro --help`) prints
//! each as an aligned table and appends its records as JSON lines under
//! `results/`, so EXPERIMENTS.md entries are regenerable artifacts. We
//! reproduce *shape*, not absolute milliseconds: who wins, by roughly
//! what factor, and where the gaps grow as `ξ_new` drops.

pub mod ablation;
pub mod algo;
pub mod batchwork;
pub mod figures;
pub mod harness;
pub mod perfgate;
pub mod pipeline;
pub mod report;
pub mod table3;

pub use algo::{timed, PAPER_FAMILIES};
pub use harness::{BenchGroup, BenchResult};
pub use pipeline::{Experiment, PipelineSpec, Run, Runner};
pub use report::Reporter;

/// Default dataset scale: 5% of the paper's tuple counts keeps the full
/// suite in the minutes range on a laptop.
pub const DEFAULT_SCALE: f64 = 0.05;

/// The experiments behind a `repro` command, in the order their records
/// are written; `None` for a command that runs none.
pub fn experiments(command: &str, scale: f64) -> Option<Vec<Experiment>> {
    let figs = || (9..=20).map(|id| figures::figure(id, scale));
    let memfigs = || (21..=24).map(|id| figures::mem_figure(id, scale));
    Some(match command {
        "all" => std::iter::once(table3::experiment(scale))
            .chain(figs())
            .chain(memfigs())
            .chain(ablation::ablations(scale))
            .chain(ablation::compress_kernel(scale))
            .chain(ablation::mine_vertical(scale))
            .collect(),
        "table3" => vec![table3::experiment(scale)],
        "figs" => figs().collect(),
        "memfigs" => memfigs().collect(),
        "ablation" => ablation::ablations(scale),
        "ext-compress-par" => ablation::compress_kernel(scale),
        "ext-mine-vertical" => ablation::mine_vertical(scale),
        "ext-batch" => ablation::batch(scale),
        _ => return None,
    })
}
