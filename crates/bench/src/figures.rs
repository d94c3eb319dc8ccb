//! Figures 9–24: runtime sweeps over `ξ_new`.
//!
//! * Figures 9–20 (in-memory): for each dataset × algorithm family, plot
//!   the baseline against its MCP- and MLP-recycling variants while
//!   relaxing `ξ_new` below `ξ_old`.
//! * Figures 21–24 (memory-limited): H-Mine vs HM-MCP under 4 MiB and
//!   8 MiB budgets (budgets scale with the dataset so the
//!   structure-to-budget ratio matches the paper's setting).

use crate::pipeline::{pct, Experiment, PipelineSpec, Run};
use gogreen_core::{CompressionStats, Strategy};
use gogreen_datagen::PresetKind;
use gogreen_miners::Family;
use gogreen_util::Json;

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

impl FigureSpec {
    fn to_json(self) -> Json {
        let family = match self.family {
            Family::Hm => "HMine",
            Family::Fp => "FpTree",
            Family::Tp => "TreeProjection",
            Family::Vt(_) => "Eclat",
        };
        Json::obj([
            ("id", self.id.into()),
            ("dataset", Json::Str(format!("{:?}", self.dataset))),
            ("family", family.into()),
            ("log_y", self.log_y.into()),
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

fn compression_json(stats: Option<CompressionStats>) -> Json {
    let s = stats.unwrap_or_default();
    Json::obj([
        ("secs", s.duration.as_secs_f64().into()),
        ("ratio", s.ratio.into()),
        ("groups", s.num_groups.into()),
        ("covered", s.covered_tuples.into()),
    ])
}

/// One in-memory figure (9–20): per `ξ_new` of the sweep, the baseline
/// and its MCP and MLP variants, which must agree on the pattern count.
///
/// # Panics
///
/// Panics if `id` is not in `9..=20`.
pub fn figure(id: u8, scale: f64) -> Experiment {
    let fig = figure_spec(id).expect("figure id in 9..=20");
    let base = PipelineSpec::new(fig.dataset, scale);
    let specs = base
        .preset
        .sweep()
        .into_iter()
        .flat_map(|xi| {
            let at = PipelineSpec { xi_new: Some(xi), ..base.clone() };
            [None, Some(Strategy::Mcp), Some(Strategy::Mlp)].map(|s| at.mining(fig.family, s))
        })
        .collect();
    Experiment {
        file: format!("fig{id}"),
        title: format!(
            "Figure {id}: {} vs its MCP and MLP recycling on {} (scale {scale}{})",
            fig.family.name(),
            base.preset.name(),
            if fig.log_y { ", log-y in the paper" } else { "" }
        ),
        specs,
        project: Box::new(move |runs: &[Run]| {
            let rows = runs.chunks(3).map(|r| {
                assert_eq!(r[0].patterns, r[1].patterns, "fig {id}: MCP count mismatch");
                assert_eq!(r[0].patterns, r[2].patterns, "fig {id}: MLP count mismatch");
                Json::obj([
                    ("xi_new_pct", pct(r[0].spec.xi_new.expect("mining spec")).into()),
                    ("baseline_s", r[0].secs.into()),
                    ("mcp_s", r[1].secs.into()),
                    ("mlp_s", r[2].secs.into()),
                    ("patterns", r[0].patterns.into()),
                ])
            });
            vec![Json::obj([
                ("spec", fig.to_json()),
                ("scale", scale.into()),
                ("xi_old_pct", pct(base.xi_old).into()),
                ("prep_mine_s", runs[1].setup.prep_s.into()),
                ("recycled_patterns", runs[1].setup.recycled.into()),
                ("mcp_compression", compression_json(runs[1].compression)),
                ("mlp_compression", compression_json(runs[2].compression)),
                ("rows", Json::Arr(rows.collect())),
            ])]
        }),
    }
}

/// One memory-limited figure (21–24): H-Mine vs HM-MCP under the
/// paper's 4 MiB and 8 MiB budgets, scaled by the dataset scale so the
/// pressure matches the paper's setting.
///
/// # Panics
///
/// Panics if `id` is not in `21..=24`.
pub fn mem_figure(id: u8, scale: f64) -> Experiment {
    let dataset = match id {
        21 => PresetKind::Weather,
        22 => PresetKind::Forest,
        23 => PresetKind::Connect4,
        24 => PresetKind::Pumsb,
        _ => panic!("memory figure id in 21..=24"),
    };
    const MIBS: [f64; 2] = [4.0, 8.0];
    let base = PipelineSpec::new(dataset, scale);
    let mut specs = Vec::new();
    for mib in MIBS {
        let budget = Some(((mib * scale) * 1024.0 * 1024.0).max(1024.0) as usize);
        for xi in base.preset.sweep() {
            let at = PipelineSpec { xi_new: Some(xi), budget, ..base.clone() };
            specs.extend([None, Some(Strategy::Mcp)].map(|s| at.mining(Family::Hm, s)));
        }
    }
    Experiment {
        file: format!("fig{id}"),
        title: format!(
            "Figure {id}: memory-limited H-Mine vs HM-MCP on {} (scale {scale}, budgets 4/8 MiB × scale)",
            base.preset.name()
        ),
        specs,
        project: Box::new(move |runs: &[Run]| {
            let per_budget = runs.len() / MIBS.len();
            let rows = runs.chunks(2).enumerate().map(|(i, r)| {
                assert_eq!(r[0].patterns, r[1].patterns, "fig {id}: count mismatch");
                Json::obj([
                    ("xi_new_pct", pct(r[0].spec.xi_new.expect("mining spec")).into()),
                    ("budget_mib", MIBS[2 * i / per_budget].into()),
                    ("hmine_s", r[0].secs.into()),
                    ("hm_mcp_s", r[1].secs.into()),
                    ("hmine_spills", r[0].spills.into()),
                    ("hm_mcp_spills", r[1].spills.into()),
                    ("patterns", r[0].patterns.into()),
                ])
            });
            vec![Json::obj([
                ("id", id.into()),
                ("dataset", Json::Str(format!("{dataset:?}"))),
                ("scale", scale.into()),
                ("rows", Json::Arr(rows.collect())),
            ])]
        }),
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

    fn rows(record: &Json) -> &[Json] {
        record.get("rows").and_then(Json::as_arr).expect("rows")
    }

    /// A miniature end-to-end figure run (tiny scale, real pipeline).
    #[test]
    fn tiny_figure_run_is_consistent() {
        let res = figure(15, 0.001).run().remove(0);
        assert_eq!(rows(&res).len(), 5);
        assert!(res.get("recycled_patterns").and_then(Json::as_u64).unwrap() > 0);
        let pcts: Vec<f64> = rows(&res)
            .iter()
            .inspect(|row| assert!(row.get("patterns").and_then(Json::as_u64).unwrap() > 0))
            .map(|row| row.get("xi_new_pct").and_then(Json::as_f64).unwrap())
            .collect();
        // ξ_new decreases monotonically along the sweep.
        assert!(pcts.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn tiny_mem_figure_run_is_consistent() {
        let res = mem_figure(23, 0.001).run().remove(0);
        assert_eq!(rows(&res).len(), 10); // 2 budgets × 5 points
        assert!(rows(&res).iter().all(|r| r.get("patterns").and_then(Json::as_u64).unwrap() > 0));
        let budgets: Vec<_> =
            rows(&res).iter().map(|r| r.get("budget_mib").and_then(Json::as_f64)).collect();
        assert_eq!(budgets[4..6], [Some(4.0), Some(8.0)]);
    }
}
