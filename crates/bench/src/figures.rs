//! Figures 9–24: runtime sweeps over `ξ_new`.
//!
//! * Figures 9–20 (in-memory): for each dataset × algorithm family, plot
//!   the baseline against its MCP- and MLP-recycling variants while
//!   relaxing `ξ_new` below `ξ_old`.
//! * Figures 21–24 (memory-limited): H-Mine vs HM-MCP under 4 MiB and
//!   8 MiB budgets (budgets scale with the dataset so the
//!   structure-to-budget ratio matches the paper's setting).

use crate::algo::timed;
use gogreen_core::{CompressionStats, Compressor, Strategy};
use gogreen_data::{CountSink, MinSupport, PatternSet, TransactionDb};
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::{Family, Miner};
use gogreen_storage::{LimitedHMine, LimitedRecycleHm, MemoryBudget};
use gogreen_util::pool::Parallelism;
use gogreen_util::{Json, ToJson};
use std::time::Instant;

/// Static description of one in-memory figure (9–20).
#[derive(Debug, Clone, Copy)]
pub struct FigureSpec {
    /// Paper figure number.
    pub id: u8,
    /// Dataset analog.
    pub dataset: PresetKind,
    /// Algorithm family plotted.
    pub family: Family,
    /// Whether the paper plots this figure with a logarithmic y axis.
    pub log_y: bool,
}

/// One sweep point of an in-memory figure.
#[derive(Debug, Clone, Copy)]
pub struct FigureRow {
    /// `ξ_new` as a percentage.
    pub xi_new_pct: f64,
    /// Baseline seconds.
    pub baseline_s: f64,
    /// MCP-recycled seconds.
    pub mcp_s: f64,
    /// MLP-recycled seconds.
    pub mlp_s: f64,
    /// Patterns found (identical across the three runs).
    pub patterns: u64,
}

/// A complete in-memory figure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// The figure description.
    pub spec: FigureSpec,
    /// Dataset scale used.
    pub scale: f64,
    /// `ξ_old` as a percentage.
    pub xi_old_pct: f64,
    /// Seconds spent mining the recycled pattern set at `ξ_old`
    /// (observation 1 in §5.2 compares savings against this).
    pub prep_mine_s: f64,
    /// Patterns recycled.
    pub recycled_patterns: usize,
    /// MCP compression metrics.
    pub mcp_compression: CompressionSummary,
    /// MLP compression metrics.
    pub mlp_compression: CompressionSummary,
    /// The sweep.
    pub rows: Vec<FigureRow>,
}

/// Serializable subset of [`CompressionStats`].
#[derive(Debug, Clone, Copy)]
pub struct CompressionSummary {
    /// Compression seconds (pipeline, in memory).
    pub secs: f64,
    /// `S_c / S_o`.
    pub ratio: f64,
    /// Groups formed.
    pub groups: usize,
    /// Tuples covered.
    pub covered: usize,
}

impl From<CompressionStats> for CompressionSummary {
    fn from(s: CompressionStats) -> Self {
        CompressionSummary {
            secs: s.duration.as_secs_f64(),
            ratio: s.ratio,
            groups: s.num_groups,
            covered: s.covered_tuples,
        }
    }
}

impl ToJson for FigureSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", self.id.into()),
            ("dataset", Json::Str(format!("{:?}", self.dataset))),
            ("family", archived_family_name(self.family).into()),
            ("log_y", self.log_y.into()),
        ])
    }
}

impl ToJson for FigureRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("xi_new_pct", self.xi_new_pct.into()),
            ("baseline_s", self.baseline_s.into()),
            ("mcp_s", self.mcp_s.into()),
            ("mlp_s", self.mlp_s.into()),
            ("patterns", self.patterns.into()),
        ])
    }
}

impl ToJson for CompressionSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("secs", self.secs.into()),
            ("ratio", self.ratio.into()),
            ("groups", self.groups.into()),
            ("covered", self.covered.into()),
        ])
    }
}

impl ToJson for FigureResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("spec", self.spec.to_json()),
            ("scale", self.scale.into()),
            ("xi_old_pct", self.xi_old_pct.into()),
            ("prep_mine_s", self.prep_mine_s.into()),
            ("recycled_patterns", self.recycled_patterns.into()),
            ("mcp_compression", self.mcp_compression.to_json()),
            ("mlp_compression", self.mlp_compression.to_json()),
            ("rows", Json::Arr(self.rows.iter().map(ToJson::to_json).collect())),
        ])
    }
}

impl ToJson for MemFigureRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("xi_new_pct", self.xi_new_pct.into()),
            ("budget_mib", self.budget_mib.into()),
            ("hmine_s", self.hmine_s.into()),
            ("hm_mcp_s", self.hm_mcp_s.into()),
            ("hmine_spills", self.hmine_spills.into()),
            ("hm_mcp_spills", self.hm_mcp_spills.into()),
            ("patterns", self.patterns.into()),
        ])
    }
}

impl ToJson for MemFigureResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", self.id.into()),
            ("dataset", Json::Str(format!("{:?}", self.dataset))),
            ("scale", self.scale.into()),
            ("rows", Json::Arr(self.rows.iter().map(ToJson::to_json).collect())),
        ])
    }
}

/// The paper's figure layout: figures 9–20 = (dataset block) × (HM, FP,
/// TP). Log-scale y axes on the dense datasets' HM and TP figures,
/// matching the paper's captions.
pub fn figure_spec(id: u8) -> Option<FigureSpec> {
    let (dataset, family, log_y) = match id {
        9 => (PresetKind::Weather, Family::Hm, false),
        10 => (PresetKind::Weather, Family::Fp, false),
        11 => (PresetKind::Weather, Family::Tp, false),
        12 => (PresetKind::Forest, Family::Hm, false),
        13 => (PresetKind::Forest, Family::Fp, false),
        14 => (PresetKind::Forest, Family::Tp, false),
        15 => (PresetKind::Connect4, Family::Hm, true),
        16 => (PresetKind::Connect4, Family::Fp, false),
        17 => (PresetKind::Connect4, Family::Tp, true),
        18 => (PresetKind::Pumsb, Family::Hm, true),
        19 => (PresetKind::Pumsb, Family::Fp, false),
        20 => (PresetKind::Pumsb, Family::Tp, true),
        _ => return None,
    };
    Some(FigureSpec { id, dataset, family, log_y })
}

/// The family spelling the archived `results/fig*.jsonl` specs store.
fn archived_family_name(family: Family) -> &'static str {
    match family {
        Family::Hm => "HMine",
        Family::Fp => "FpTree",
        Family::Tp => "TreeProjection",
        Family::Vt(_) => "Eclat",
    }
}

/// Mines the recycled pattern set at `ξ_old` (timed) — shared setup of
/// every figure.
pub fn prepare_recycled(db: &TransactionDb, xi_old: MinSupport) -> (PatternSet, f64) {
    let start = Instant::now();
    let fp = Family::Hm.mine(db, xi_old);
    (fp, start.elapsed().as_secs_f64())
}

/// Runs one in-memory figure (9–20).
///
/// # Panics
///
/// Panics if `id` is not in `9..=20`, or if the three algorithm variants
/// disagree on the pattern count (which would mean a correctness bug).
pub fn run_figure(id: u8, scale: f64) -> FigureResult {
    let spec = figure_spec(id).expect("figure id in 9..=20");
    let preset = DatasetPreset::new(spec.dataset, scale);
    let db = preset.generate();
    let (fp_old, prep_mine_s) = prepare_recycled(&db, preset.xi_old());
    let (cdb_mcp, stats_mcp) = Compressor::new(Strategy::Mcp).compress_with_stats(&db, &fp_old);
    let (cdb_mlp, stats_mlp) = Compressor::new(Strategy::Mlp).compress_with_stats(&db, &fp_old);
    let mut rows = Vec::new();
    for ms in preset.sweep() {
        let serial = Parallelism::serial();
        let base = timed(spec.family, &db, ms, serial);
        let mcp = timed(spec.family, &cdb_mcp, ms, serial);
        let mlp = timed(spec.family, &cdb_mlp, ms, serial);
        assert_eq!(base.patterns, mcp.patterns, "fig {id}: MCP count mismatch");
        assert_eq!(base.patterns, mlp.patterns, "fig {id}: MLP count mismatch");
        rows.push(FigureRow {
            xi_new_pct: pct(ms),
            baseline_s: base.secs,
            mcp_s: mcp.secs,
            mlp_s: mlp.secs,
            patterns: base.patterns,
        });
    }
    FigureResult {
        spec,
        scale,
        xi_old_pct: pct(preset.xi_old()),
        prep_mine_s,
        recycled_patterns: fp_old.len(),
        mcp_compression: stats_mcp.into(),
        mlp_compression: stats_mlp.into(),
        rows,
    }
}

/// One sweep point of a memory-limited figure (21–24).
#[derive(Debug, Clone, Copy)]
pub struct MemFigureRow {
    /// `ξ_new` as a percentage.
    pub xi_new_pct: f64,
    /// Budget in (scaled) MiB — 4 or 8.
    pub budget_mib: f64,
    /// H-Mine seconds under the budget.
    pub hmine_s: f64,
    /// HM-MCP seconds under the budget.
    pub hm_mcp_s: f64,
    /// Disk spills performed by H-Mine.
    pub hmine_spills: usize,
    /// Disk spills performed by HM-MCP.
    pub hm_mcp_spills: usize,
    /// Patterns found.
    pub patterns: u64,
}

/// A complete memory-limited figure.
#[derive(Debug, Clone)]
pub struct MemFigureResult {
    /// Paper figure number (21–24).
    pub id: u8,
    /// Dataset analog.
    pub dataset: PresetKind,
    /// Dataset scale.
    pub scale: f64,
    /// The sweep (two rows per `ξ_new`: one per budget).
    pub rows: Vec<MemFigureRow>,
}

/// Runs one memory-limited figure (21–24): H-Mine vs HM-MCP under the
/// paper's 4 MiB and 8 MiB budgets, scaled by the dataset scale so the
/// pressure matches the paper's setting.
///
/// # Panics
///
/// Panics if `id` is not in `21..=24` or on an algorithm disagreement.
pub fn run_mem_figure(id: u8, scale: f64) -> MemFigureResult {
    let dataset = match id {
        21 => PresetKind::Weather,
        22 => PresetKind::Forest,
        23 => PresetKind::Connect4,
        24 => PresetKind::Pumsb,
        _ => panic!("memory figure id in 21..=24"),
    };
    let preset = DatasetPreset::new(dataset, scale);
    let db = preset.generate();
    let (fp_old, _) = prepare_recycled(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    let mut rows = Vec::new();
    for mib in [4.0f64, 8.0] {
        let budget = MemoryBudget::bytes(((mib * scale) * 1024.0 * 1024.0).max(1024.0) as usize);
        for ms in preset.sweep() {
            let mut sink = CountSink::new();
            let start = Instant::now();
            let rep_h = LimitedHMine::new(budget).mine_into(&db, ms, &mut sink).expect("spill i/o");
            let hmine_s = start.elapsed().as_secs_f64();
            let base_patterns = sink.count();

            let mut sink = CountSink::new();
            let start = Instant::now();
            let rep_m =
                LimitedRecycleHm::new(budget).mine_into(&cdb, ms, &mut sink).expect("spill i/o");
            let hm_mcp_s = start.elapsed().as_secs_f64();
            assert_eq!(base_patterns, sink.count(), "fig {id}: count mismatch");

            rows.push(MemFigureRow {
                xi_new_pct: pct(ms),
                budget_mib: mib,
                hmine_s,
                hm_mcp_s,
                hmine_spills: rep_h.spills,
                hm_mcp_spills: rep_m.spills,
                patterns: base_patterns,
            });
        }
    }
    MemFigureResult { id, dataset, scale, rows }
}

fn pct(ms: MinSupport) -> f64 {
    match ms {
        // Round away binary-float noise (0.9 * 100 = 90.000…01).
        MinSupport::Relative(f) => (f * 100.0 * 1e6).round() / 1e6,
        MinSupport::Absolute(n) => n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_twelve_figures_have_specs() {
        for id in 9..=20 {
            let s = figure_spec(id).unwrap();
            assert_eq!(s.id, id);
        }
        assert!(figure_spec(8).is_none());
        assert!(figure_spec(21).is_none());
    }

    #[test]
    fn figure_layout_matches_paper() {
        assert_eq!(figure_spec(9).unwrap().dataset, PresetKind::Weather);
        assert_eq!(figure_spec(15).unwrap().dataset, PresetKind::Connect4);
        assert!(figure_spec(15).unwrap().log_y);
        assert_eq!(figure_spec(20).unwrap().family, Family::Tp);
        let spec = figure_spec(10).unwrap().to_json().to_string();
        assert!(spec.contains(r#""family":"FpTree""#), "{spec}");
    }

    /// A miniature end-to-end figure run (tiny scale, real pipeline).
    #[test]
    fn tiny_figure_run_is_consistent() {
        let res = run_figure(15, 0.001);
        assert_eq!(res.rows.len(), 5);
        assert!(res.recycled_patterns > 0);
        for row in &res.rows {
            assert!(row.patterns > 0);
        }
        // ξ_new decreases monotonically along the sweep.
        assert!(res.rows.windows(2).all(|w| w[0].xi_new_pct > w[1].xi_new_pct));
    }

    #[test]
    fn tiny_mem_figure_run_is_consistent() {
        let res = run_mem_figure(23, 0.001);
        assert_eq!(res.rows.len(), 10); // 2 budgets × 5 points
        assert!(res.rows.iter().all(|r| r.patterns > 0));
    }
}
