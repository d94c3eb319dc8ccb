//! Ablations and extension experiments beyond the paper (indexed in
//! DESIGN.md §6 and EXPERIMENTS.md), each a spec list plus a
//! projection:
//!
//! * **A1 utility function**: MCP vs MLP vs support-only vs
//!   length-only, separating MCP's two ingredients (exponential length
//!   term × support).
//! * **A2 `ξ_old` sensitivity**: the paper argues (§5) that a lower
//!   initial support leaves more to recycle. Sweep `ξ_old` at a fixed
//!   `ξ_new` and watch HM-MCP's time fall.
//! * **E2 two-step mining**: the paper's future work, a cold query
//!   answered by pre-mining at a planned `ξ_mid`, compressing and
//!   mining the compressed database.
//! * **E4 compression kernel**: the seed's linear scan vs the indexed
//!   cover kernel at 1/2/4/8 threads.
//! * **E8/E10 horizontal vs vertical**: all four families at a matched
//!   `ξ_new`, and the vertical family under each forced representation.
//! * **E11/E12 gates**: the batched fleet's shared pass and the
//!   out-of-core datapath.

use crate::batchwork;
use crate::pipeline::{pct, Experiment, PipelineSpec, Run};
use gogreen_core::twostep;
use gogreen_core::Strategy;
use gogreen_data::MinSupport;
use gogreen_datagen::PresetKind;
use gogreen_miners::engine::vt::VtRepr;
use gogreen_miners::Family;
use gogreen_obs::MetricsSnapshot;
use gogreen_util::pool::Parallelism;
use gogreen_util::Json;

/// `repro ablation`: A1, A2 and E2 on the connect4 analog.
pub fn ablations(scale: f64) -> Vec<Experiment> {
    let kind = PresetKind::Connect4;
    vec![utility_ablation(kind, scale), xi_old_sensitivity(kind, scale), two_step(kind, scale)]
}

/// A1: each strategy's compression and the HM-recycled mine at the
/// sweep floor.
pub fn utility_ablation(dataset: PresetKind, scale: f64) -> Experiment {
    let base = PipelineSpec::new(dataset, scale);
    let strategies = [Strategy::Mcp, Strategy::Mlp, Strategy::SupportOnly, Strategy::LengthOnly];
    Experiment {
        file: "ablation_utility".into(),
        title: format!(
            "Ablation 1: utility functions ({}, ξ_new = sweep floor)",
            base.preset.name()
        ),
        specs: strategies.map(|s| base.mining(Family::Hm, Some(s))).into(),
        project: Box::new(|runs: &[Run]| {
            runs.iter()
                .map(|r| {
                    let stats = r.compression.unwrap_or_default();
                    Json::obj([
                        ("strategy", r.spec.strategy.expect("recycled").suffix().into()),
                        ("ratio", stats.ratio.into()),
                        ("compress_s", stats.duration.as_secs_f64().into()),
                        ("mine_s", r.secs.into()),
                    ])
                })
                .collect()
        }),
    }
}

/// A2: fixes `ξ_new` at the sweep floor and recycles pattern sets mined
/// at the preset's `ξ_old` and then each upper sweep point.
pub fn xi_old_sensitivity(dataset: PresetKind, scale: f64) -> Experiment {
    let base = PipelineSpec::new(dataset, scale).mining(Family::Hm, Some(Strategy::Mcp));
    let sweep = base.preset.sweep();
    let candidates = std::iter::once(base.xi_old).chain(sweep[..sweep.len() - 1].iter().copied());
    Experiment {
        file: "ablation_xi_old".into(),
        title: format!(
            "Ablation 2: ξ_old sensitivity ({}, fixed lowest ξ_new)",
            base.preset.name()
        ),
        specs: candidates.map(|xi_old| PipelineSpec { xi_old, ..base.clone() }).collect(),
        project: Box::new(|runs: &[Run]| {
            runs.iter()
                .map(|r| {
                    let xi_old_pct = match r.spec.xi_old {
                        MinSupport::Relative(f) => f * 100.0,
                        MinSupport::Absolute(n) => n as f64,
                    };
                    Json::obj([
                        ("xi_old_pct", xi_old_pct.into()),
                        ("recycled_patterns", r.setup.recycled.into()),
                        ("prep_s", r.setup.prep_s.into()),
                        ("mine_s", r.secs.into()),
                        ("ratio", r.compression.unwrap_or_default().ratio.into()),
                    ])
                })
                .collect()
        }),
    }
}

/// E2: per target of the sweep, single-step H-Mine against the two-step
/// split [`twostep::plan`] picks from the item supports (the same run
/// again where it declines).
pub fn two_step(dataset: PresetKind, scale: f64) -> Experiment {
    let base = PipelineSpec::new(dataset, scale);
    let db = base.preset.generate();
    let supports = db.item_supports();
    let specs = base
        .preset
        .sweep()
        .into_iter()
        .flat_map(|target| {
            let single = PipelineSpec { xi_new: Some(target), ..base.clone() };
            let mid = twostep::plan(Family::Hm, &supports, db.len(), target.to_absolute(db.len()));
            let two = match mid {
                Some(mid) => PipelineSpec {
                    xi_old: MinSupport::Absolute(mid),
                    strategy: Some(Strategy::Mcp),
                    ..single.clone()
                },
                None => single.clone(),
            };
            [single, two]
        })
        .collect();
    Experiment {
        file: "ext_twostep".into(),
        title: format!(
            "Extension: two-step mining, the paper's future work ({})",
            base.preset.name()
        ),
        specs,
        project: Box::new(|runs: &[Run]| {
            runs.chunks(2)
                .map(|r| {
                    let (single, two) = (&r[0], &r[1]);
                    assert_eq!(single.patterns, two.patterns, "two-step mismatch");
                    let mid = match (two.spec.strategy, two.spec.xi_old) {
                        (Some(_), MinSupport::Absolute(mid)) => Json::from(mid),
                        _ => Json::Null,
                    };
                    let compress_s = two.compression.unwrap_or_default().duration.as_secs_f64();
                    Json::obj([
                        ("target_pct", pct(single.spec.xi_new.expect("mining spec")).into()),
                        ("intermediate_abs", mid),
                        ("single_s", single.secs.into()),
                        ("two_step_s", (two.setup.prep_s + compress_s + two.secs).into()),
                        ("two_step_mine_s", two.secs.into()),
                        ("patterns", single.patterns.into()),
                    ])
                })
                .collect()
        }),
    }
}

/// E4: the linear scan and the indexed kernel at 1/2/4/8 threads, MCP,
/// best of three, on every analog. Every kernel's compressed database
/// must equal the linear one.
pub fn compress_kernel(scale: f64) -> Vec<Experiment> {
    let kinds = [PresetKind::Connect4, PresetKind::Pumsb, PresetKind::Weather, PresetKind::Forest];
    kinds.map(|kind| compress_kernel_experiment(kind, scale)).into()
}

/// E4 on one analog.
pub fn compress_kernel_experiment(dataset: PresetKind, scale: f64) -> Experiment {
    let base = PipelineSpec::new(dataset, scale).compressing(Strategy::Mcp);
    let kernels = std::iter::once(PipelineSpec { linear: true, ..base.clone() })
        .chain([1, 2, 4, 8].map(|threads| PipelineSpec { threads, ..base.clone() }));
    Experiment {
        file: "ext_compress_par".into(),
        title: format!("Extension: compression kernel on {} (MCP)", base.preset.name()),
        specs: kernels.flat_map(|spec| [spec.clone(), spec.clone(), spec]).collect(),
        project: Box::new(|runs: &[Run]| {
            runs.chunks(3)
                .map(|r| {
                    assert_eq!(r[0].cdb, runs[0].cdb, "indexed kernel drifted from linear scan");
                    let secs = r.iter().map(|run| run.secs).fold(f64::INFINITY, f64::min);
                    let spec = &r[0].spec;
                    Json::obj([
                        ("dataset", spec.preset.name().into()),
                        ("kernel", if spec.linear { "linear" } else { "indexed" }.into()),
                        ("threads", spec.threads.into()),
                        ("secs", secs.into()),
                        ("groups", r[0].cdb.as_ref().map_or(0, |cdb| cdb.num_groups()).into()),
                        ("recycled_patterns", r[0].setup.recycled.into()),
                    ])
                })
                .collect()
        }),
    }
}

/// E8 and E10 on the connect4 and weather analogs.
pub fn mine_vertical(scale: f64) -> Vec<Experiment> {
    [PresetKind::Connect4, PresetKind::Weather]
        .into_iter()
        .flat_map(|kind| [mine_vertical_experiment(kind, scale), vt_repr_ablation(kind, scale)])
        .collect()
}

/// E8: all four families at the sweep floor, fresh and MCP-recycled,
/// serial and at 4 threads. The threshold is matched, so every row must
/// report the same pattern count.
pub fn mine_vertical_experiment(dataset: PresetKind, scale: f64) -> Experiment {
    let base = PipelineSpec::new(dataset, scale);
    let mut specs = Vec::new();
    for family in Family::ALL {
        for threads in [1, 4] {
            let at = PipelineSpec { threads, ..base.clone() };
            specs.extend([None, Some(Strategy::Mcp)].map(|s| at.mining(family, s)));
        }
    }
    Experiment {
        file: "ext_mine_vertical".into(),
        title: format!("Extension: horizontal vs vertical mining on {}", base.preset.name()),
        specs,
        project: Box::new(|runs: &[Run]| {
            runs.iter()
                .map(|r| {
                    assert_eq!(r.patterns, runs[0].patterns, "{r:?}: count drift at matched ξ");
                    let engine = match r.spec.strategy {
                        None => r.spec.family.name().to_owned(),
                        Some(_) => format!("{}-MCP", r.spec.family.tag()),
                    };
                    Json::obj([
                        ("dataset", r.spec.preset.name().into()),
                        ("engine", engine.into()),
                        ("threads", r.spec.threads.into()),
                        ("secs", r.secs.into()),
                        ("patterns", r.patterns.into()),
                    ])
                })
                .collect()
        }),
    }
}

/// E10: the vt family under each forced representation, fresh and
/// MCP-recycled, serial, with each mode's kernel traffic. The
/// representation is an encoding, never a semantic: every row must
/// report the same pattern count.
pub fn vt_repr_ablation(dataset: PresetKind, scale: f64) -> Experiment {
    let base = PipelineSpec::new(dataset, scale);
    let specs = VtRepr::ALL
        .into_iter()
        .flat_map(|repr| [None, Some(Strategy::Mcp)].map(|s| base.mining(Family::Vt(repr), s)))
        .collect();
    Experiment {
        file: "ext_mine_vertical".into(),
        title: format!("Extension: forced vt representations on {}", base.preset.name()),
        specs,
        project: Box::new(|runs: &[Run]| {
            runs.iter()
                .map(|r| {
                    assert_eq!(r.patterns, runs[0].patterns, "{r:?}: count drift");
                    let Family::Vt(repr) = r.spec.family else { unreachable!("vt specs") };
                    Json::obj([
                        ("dataset", r.spec.preset.name().into()),
                        ("mode", repr.as_str().into()),
                        ("substrate", if r.spec.strategy.is_some() { "MCP" } else { "raw" }.into()),
                        ("secs", r.secs.into()),
                        ("patterns", r.patterns.into()),
                        ("bitmap_words", r.counter("mine.bitmap_words_scanned").into()),
                        ("tidlist_elems", r.counter("mine.tidlist_elems").into()),
                        ("diffset_words", r.counter("mine.diffset_words").into()),
                        ("repr_switches", r.counter("mine.repr_switches").into()),
                        ("arena_bytes", r.counter("alloc.projection_bytes").into()),
                    ])
                })
                .collect()
        }),
    }
}

/// E12 on the weather and connect4 analogs.
pub fn batch(scale: f64) -> Vec<Experiment> {
    [PresetKind::Weather, PresetKind::Connect4].map(|kind| batch_experiment(kind, scale)).into()
}

/// E12: a k=8 Zipf-skewed ξ fleet over the preset's sweep, answered by
/// one shared pass at ξ_min (the sweep floor), against the eight solo
/// runs it replaces. **Gate:** the shared pass touches at most 1.5× the
/// tuples of the solo run at ξ_min.
pub fn batch_experiment(dataset: PresetKind, scale: f64) -> Experiment {
    let base = PipelineSpec::new(dataset, scale);
    let ladder = batchwork::zipf_ladder(&base.preset.sweep(), 8);
    let batched = PipelineSpec { batch: Some(ladder.clone()), ..base.clone() };
    let solo = ladder.iter().map(|&xi| PipelineSpec { xi_new: Some(xi), ..base.clone() });
    Experiment {
        file: "ext_batch".into(),
        title: format!("Extension: one shared pass answers a k=8 fleet ({})", base.preset.name()),
        specs: std::iter::once(batched).chain(solo).collect(),
        project: Box::new(|runs: &[Run]| {
            let touches = |r: &Run| r.counter("mine.tuple_touches");
            let (batched, solo) = (&runs[0], &runs[1..]);
            // The ladder keeps sweep order, so its last rung is ξ_min.
            let floor = solo.last().expect("non-empty ladder");
            let xi_min =
                floor.spec.xi_new.expect("solo run").to_absolute(floor.setup.db.num_tuples);
            let touches_solo: u64 = solo.iter().map(touches).sum();
            let touches_floor = touches(floor);
            let vs_floor = touches(batched) as f64 / touches_floor.max(1) as f64;
            let vs_solo = touches(batched) as f64 / touches_solo.max(1) as f64;
            let name = batched.spec.preset.name();
            assert!(
                vs_floor <= 1.5,
                "{name}: batched pass touches {vs_floor:.2}× the single ξ_min run (> 1.5× gate)"
            );
            vec![Json::obj([
                ("dataset", name.into()),
                ("k", solo.len().into()),
                ("xi_min", xi_min.into()),
                ("touches_batched", touches(batched).into()),
                ("touches_solo_total", touches_solo.into()),
                ("touches_floor", touches_floor.into()),
                ("ratio_vs_solo", vs_solo.into()),
                ("ratio_vs_floor", vs_floor.into()),
                ("secs_batched", batched.secs.into()),
                ("secs_solo_total", solo.iter().map(|r| r.secs).sum::<f64>().into()),
                ("identical", true.into()),
            ])]
        }),
    }
}

/// E12's stream gate: the fleet's per-query streams must be
/// byte-identical at 1 and 8 threads, and a pure-support fleet rejects
/// no query.
pub fn batch_streams_agree(dataset: PresetKind, scale: f64) -> Result<(), String> {
    let preset = PipelineSpec::new(dataset, scale).preset;
    let db = preset.generate();
    let ladder = batchwork::zipf_ladder(&preset.sweep(), 8);
    let run = |threads| {
        batchwork::fleet(&ladder)
            .with_parallelism(Parallelism::threads(threads))
            .run(&db, Family::Hm)
            .map_err(|e| format!("batched run (t{threads}): {e}"))
    };
    let (one, eight) = (run(1)?, run(8)?);
    if !one.report.plan.rejected.is_empty() {
        return Err("pure-support fleet unexpectedly rejected a query".into());
    }
    for (i, (a, b)) in one.results.iter().zip(&eight.results).enumerate() {
        if pattern_bytes(a) != pattern_bytes(b) {
            return Err(format!("query #{i}: stream diverges between 1 and 8 threads"));
        }
    }
    Ok(())
}

/// The canonical pattern-file bytes of `set`.
pub fn pattern_bytes(set: &gogreen_data::PatternSet) -> Vec<u8> {
    let mut bytes = Vec::new();
    gogreen_data::pattern_io::write_patterns(set, &mut bytes).expect("in-memory write");
    bytes
}

/// One `ext_ooc` record (E11): an out-of-core run at `threads` and the
/// storage counters it recorded.
pub fn ooc_record(
    threads: usize,
    secs: f64,
    patterns: usize,
    snap: &MetricsSnapshot,
    segments: usize,
    budget: usize,
) -> Json {
    Json::obj([
        ("threads", threads.into()),
        ("secs", secs.into()),
        ("patterns", patterns.into()),
        ("segments", segments.into()),
        ("passes", snap.value("storage.segments_read").unwrap_or(0).into()),
        ("resident_peak", snap.value("storage.resident_peak").unwrap_or(0).into()),
        ("budget", budget.into()),
        ("identical", true.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column<'a>(rows: &'a [Json], key: &str) -> Vec<&'a Json> {
        rows.iter().map(|r| r.get(key).expect(key)).collect()
    }

    #[test]
    fn utility_ablation_covers_four_strategies() {
        let rows = utility_ablation(PresetKind::Connect4, 0.001).run();
        assert_eq!(rows.len(), 4);
        let labels: Vec<_> = column(&rows, "strategy").into_iter().map(Json::as_str).collect();
        assert_eq!(labels, ["MCP", "MLP", "SUP", "LEN"].map(Some));
        let ratios = column(&rows, "ratio").into_iter().map(|r| r.as_f64().unwrap());
        assert!(ratios.into_iter().all(|r| r > 0.0 && r <= 1.0));
    }

    #[test]
    fn xi_old_rows_relax_downward() {
        let rows = xi_old_sensitivity(PresetKind::Connect4, 0.001).run();
        assert!(rows.len() >= 2);
        let num = |key| column(&rows, key).into_iter().map(|v| v.as_f64().unwrap()).collect();
        let (pcts, patterns): (Vec<f64>, Vec<f64>) = (num("xi_old_pct"), num("recycled_patterns"));
        // Lower ξ_old ⇒ at least as many recycled patterns.
        assert!(pcts.windows(2).all(|w| w[0] >= w[1]));
        assert!(patterns.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn compress_kernel_rows_agree() {
        let rows = compress_kernel_experiment(PresetKind::Connect4, 0.001).run();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].get("kernel").and_then(Json::as_str), Some("linear"));
        assert!(column(&rows, "groups").iter().all(|&g| g == rows[0].get("groups").unwrap()));
        assert!(column(&rows, "secs").iter().all(|s| s.as_f64().unwrap() >= 0.0));
    }

    #[test]
    fn two_step_rows_match_single_step() {
        let rows = two_step(PresetKind::Connect4, 0.001).run();
        assert_eq!(rows.len(), 5);
        assert!(column(&rows, "intermediate_abs").iter().any(|m| m.as_u64().is_some()));
    }

    #[test]
    fn vt_repr_ablation_rows_agree_across_modes() {
        let exp = vt_repr_ablation(PresetKind::Connect4, 0.001);
        let (rows, outer) = gogreen_obs::measure(|| exp.run());
        // 4 modes × {raw, MCP}.
        assert_eq!(rows.len(), 8);
        let count = |r: &Json, key: &str| r.get(key).and_then(Json::as_u64).unwrap();
        // Each row is measured in its own scope, and the scopes add up
        // to the enclosing run's totals: nothing is reset mid-run.
        let row_words: u64 = rows.iter().map(|r| count(r, "bitmap_words")).sum();
        assert!(row_words > 0);
        assert_eq!(outer.value("mine.bitmap_words_scanned"), Some(row_words));
        // Each forced mode accounts its traffic in its own unit: pure
        // bitmap scans no list elements, pure tid-list runs count list
        // elements, and forced modes never switch representation.
        for r in &rows {
            let (bitmap, lists) = (count(r, "bitmap_words"), count(r, "tidlist_elems"));
            let diffset = count(r, "diffset_words");
            match r.get("mode").and_then(Json::as_str).unwrap() {
                "bitmap" => assert_eq!(lists + diffset, 0, "bitmap mode scanned lists"),
                "tidlist" => assert_eq!(bitmap + diffset, 0, "tidlist scanned {r}"),
                // Forced diffset roots as tid-lists and goes
                // differential from depth 1, so it touches no bitmap
                // words but does record the root→depth-1 switches.
                "diffset" => assert_eq!(bitmap, 0, "diffset scanned bitmaps {r}"),
                _ => continue,
            }
            if r.get("mode").and_then(Json::as_str) != Some("diffset") {
                assert_eq!(count(r, "repr_switches"), 0, "forced mode switched: {r}");
            }
        }
    }
}
