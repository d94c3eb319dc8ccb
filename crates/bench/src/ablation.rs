//! Ablations beyond the paper (indexed in DESIGN.md §6):
//!
//! 1. **Utility function** — MCP vs MLP vs support-only vs length-only.
//!    Separates MCP's two ingredients (exponential length term ×
//!    support).
//! 2. **`ξ_old` sensitivity** — the paper argues (§5) that a lower
//!    initial support leaves more to recycle. Sweep `ξ_old` at a fixed
//!    `ξ_new` and watch HM-MCP's time fall.
//! 3. **Lemma 3.1** — RP-Mine with and without the single-group
//!    shortcut.
//! 4. **Incremental recycling** (§2 extension case 1) — an evolving
//!    database mined after each update batch, recycling the previous
//!    round's patterns, against from-scratch re-mining.

use gogreen_core::incremental::IncrementalMiner;
use gogreen_core::rpmine::RpMine;
use gogreen_core::twostep::TwoStepMiner;
use gogreen_core::{Compressor, Strategy};
use gogreen_data::{CountSink, MinSupport};
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::engine::vt::VtRepr;
use gogreen_miners::{Family, Miner};
use gogreen_util::pool::Parallelism;
use gogreen_util::{Json, ToJson};
use std::time::Instant;

use crate::algo::{timed, PAPER_FAMILIES};

/// One strategy's outcome in the utility ablation.
#[derive(Debug, Clone)]
pub struct UtilityAblationRow {
    /// Strategy label (MCP/MLP/SUP/LEN).
    pub strategy: &'static str,
    /// Compression ratio achieved.
    pub ratio: f64,
    /// Compression seconds.
    pub compress_s: f64,
    /// HM-recycled mining seconds at the lowest sweep threshold.
    pub mine_s: f64,
}

impl ToJson for UtilityAblationRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("strategy", self.strategy.into()),
            ("ratio", self.ratio.into()),
            ("compress_s", self.compress_s.into()),
            ("mine_s", self.mine_s.into()),
        ])
    }
}

/// Utility-function ablation on one dataset.
pub fn utility_ablation(dataset: PresetKind, scale: f64) -> Vec<UtilityAblationRow> {
    let preset = DatasetPreset::new(dataset, scale);
    let db = preset.generate();
    let fp_old = Family::Hm.mine(&db, preset.xi_old());
    let xi_new = *preset.sweep().last().expect("non-empty sweep");
    [Strategy::Mcp, Strategy::Mlp, Strategy::SupportOnly, Strategy::LengthOnly]
        .into_iter()
        .map(|strategy| {
            let (cdb, stats) = Compressor::new(strategy).compress_with_stats(&db, &fp_old);
            let run = timed(Family::Hm, &cdb, xi_new, Parallelism::serial());
            UtilityAblationRow {
                strategy: strategy.suffix(),
                ratio: stats.ratio,
                compress_s: stats.duration.as_secs_f64(),
                mine_s: run.secs,
            }
        })
        .collect()
}

/// One `ξ_old` setting's outcome.
#[derive(Debug, Clone)]
pub struct XiOldRow {
    /// The initial threshold, as a multiple of the preset's `ξ_old`
    /// percentage.
    pub xi_old_pct: f64,
    /// Patterns available for recycling.
    pub recycled_patterns: usize,
    /// Seconds of the `ξ_old` pre-mining run.
    pub prep_s: f64,
    /// HM-MCP seconds at the fixed `ξ_new`.
    pub mine_s: f64,
    /// Compression ratio.
    pub ratio: f64,
}

impl ToJson for XiOldRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("xi_old_pct", self.xi_old_pct.into()),
            ("recycled_patterns", self.recycled_patterns.into()),
            ("prep_s", self.prep_s.into()),
            ("mine_s", self.mine_s.into()),
            ("ratio", self.ratio.into()),
        ])
    }
}

/// `ξ_old` sensitivity: fixes `ξ_new` at the preset's lowest sweep point
/// and recycles pattern sets mined at progressively lower `ξ_old`.
pub fn xi_old_sensitivity(dataset: PresetKind, scale: f64) -> Vec<XiOldRow> {
    let preset = DatasetPreset::new(dataset, scale);
    let db = preset.generate();
    let sweep = preset.sweep();
    let xi_new = *sweep.last().expect("non-empty sweep");
    // ξ_old candidates: the preset's own ξ_old plus the upper sweep
    // points (all still above ξ_new).
    let mut candidates = vec![preset.xi_old()];
    candidates.extend(sweep[..sweep.len() - 1].iter().copied());
    candidates
        .into_iter()
        .map(|xi_old| {
            let start = Instant::now();
            let fp_old = Family::Hm.mine(&db, xi_old);
            let prep_s = start.elapsed().as_secs_f64();
            let (cdb, stats) = Compressor::new(Strategy::Mcp).compress_with_stats(&db, &fp_old);
            let run = timed(Family::Hm, &cdb, xi_new, Parallelism::serial());
            XiOldRow {
                xi_old_pct: match xi_old {
                    MinSupport::Relative(f) => f * 100.0,
                    MinSupport::Absolute(n) => n as f64,
                },
                recycled_patterns: fp_old.len(),
                prep_s,
                mine_s: run.secs,
                ratio: stats.ratio,
            }
        })
        .collect()
}

/// Lemma 3.1 ablation outcome.
#[derive(Debug, Clone)]
pub struct LemmaAblation {
    /// RP-Mine seconds with the single-group shortcut.
    pub with_shortcut_s: f64,
    /// RP-Mine seconds without it.
    pub without_shortcut_s: f64,
    /// Patterns (identical in both runs).
    pub patterns: u64,
}

impl ToJson for LemmaAblation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("with_shortcut_s", self.with_shortcut_s.into()),
            ("without_shortcut_s", self.without_shortcut_s.into()),
            ("patterns", self.patterns.into()),
        ])
    }
}

/// Measures the single-group shortcut's contribution on a dense dataset
/// (where whole groups dominate projections).
pub fn lemma_ablation(dataset: PresetKind, scale: f64) -> LemmaAblation {
    let preset = DatasetPreset::new(dataset, scale);
    let db = preset.generate();
    let fp_old = Family::Hm.mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    let xi_new = preset.sweep()[preset.sweep().len() / 2];

    let run = |shortcut: bool| -> (f64, u64) {
        let miner = RpMine { single_group_shortcut: shortcut };
        let mut sink = CountSink::new();
        let start = Instant::now();
        miner.mine_into(&cdb, xi_new, &mut sink);
        (start.elapsed().as_secs_f64(), sink.count())
    };
    let (with_shortcut_s, n1) = run(true);
    let (without_shortcut_s, n2) = run(false);
    assert_eq!(n1, n2, "shortcut changed the result set");
    LemmaAblation { with_shortcut_s, without_shortcut_s, patterns: n1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utility_ablation_covers_four_strategies() {
        let rows = utility_ablation(PresetKind::Connect4, 0.001);
        assert_eq!(rows.len(), 4);
        let labels: Vec<_> = rows.iter().map(|r| r.strategy).collect();
        assert_eq!(labels, vec!["MCP", "MLP", "SUP", "LEN"]);
        assert!(rows.iter().all(|r| r.ratio > 0.0 && r.ratio <= 1.0));
    }

    #[test]
    fn xi_old_rows_relax_downward() {
        let rows = xi_old_sensitivity(PresetKind::Connect4, 0.001);
        assert!(rows.len() >= 2);
        // Lower ξ_old ⇒ at least as many recycled patterns.
        assert!(rows.windows(2).all(|w| w[0].xi_old_pct >= w[1].xi_old_pct));
        assert!(rows.windows(2).all(|w| w[0].recycled_patterns <= w[1].recycled_patterns));
    }

    #[test]
    fn compress_kernel_rows_agree() {
        let rows = compress_kernel_experiment(PresetKind::Connect4, 0.001);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].kernel, "linear");
        assert!(rows.iter().all(|r| r.groups == rows[0].groups));
        assert!(rows.iter().all(|r| r.secs >= 0.0));
    }

    #[test]
    fn mine_par_rows_agree_across_engines_and_threads() {
        let rows = mine_par_experiment(PresetKind::Connect4, 0.001);
        // 3 families × {fresh, recycled} × 4 thread counts.
        assert_eq!(rows.len(), 24);
        assert!(rows.iter().all(|r| r.patterns == rows[0].patterns));
        assert!(rows.iter().all(|r| r.secs >= 0.0));
    }

    #[test]
    fn lemma_ablation_is_exact() {
        let a = lemma_ablation(PresetKind::Connect4, 0.001);
        assert!(a.patterns > 0);
        assert!(a.with_shortcut_s >= 0.0 && a.without_shortcut_s >= 0.0);
    }

    #[test]
    fn vt_repr_ablation_rows_agree_across_modes() {
        let (rows, outer) = gogreen_obs::measure(|| vt_repr_ablation(PresetKind::Connect4, 0.001));
        // 4 modes × {raw, MCP}.
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r.patterns == rows[0].patterns));
        // Each row is measured in its own scope, and the scopes add up
        // to the enclosing run's totals: nothing is reset mid-run.
        let row_words: u64 = rows.iter().map(|r| r.bitmap_words).sum();
        assert!(row_words > 0);
        assert_eq!(outer.value("mine.bitmap_words_scanned"), Some(row_words));
        // Each forced mode accounts its traffic in its own unit: pure
        // bitmap scans no list elements, pure tid-list runs count list
        // elements, and forced modes never switch representation.
        for r in &rows {
            match r.mode {
                "bitmap" => {
                    assert_eq!(r.tidlist_elems + r.diffset_words, 0, "bitmap mode scanned lists")
                }
                "tidlist" => {
                    assert_eq!(r.bitmap_words + r.diffset_words, 0, "tidlist scanned {r:?}")
                }
                // Forced diffset roots as tid-lists and goes
                // differential from depth 1, so it touches no bitmap
                // words but does record the root→depth-1 switches.
                "diffset" => assert_eq!(r.bitmap_words, 0, "diffset scanned bitmaps {r:?}"),
                _ => {}
            }
            if matches!(r.mode, "bitmap" | "tidlist") {
                assert_eq!(r.repr_switches, 0, "forced mode switched: {r:?}");
            }
        }
    }
}

/// One update batch's outcome in the incremental experiment.
#[derive(Debug, Clone)]
pub struct IncrementalRow {
    /// Tuples in the database after this batch.
    pub tuples: usize,
    /// Recycled (incremental) mining seconds.
    pub recycled_s: f64,
    /// From-scratch mining seconds.
    pub scratch_s: f64,
    /// Patterns found (identical by construction).
    pub patterns: usize,
}

impl ToJson for IncrementalRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tuples", self.tuples.into()),
            ("recycled_s", self.recycled_s.into()),
            ("scratch_s", self.scratch_s.into()),
            ("patterns", self.patterns.into()),
        ])
    }
}

/// Incremental recycling across growing data: the database doubles in
/// four batches; each round recycles the previous round's patterns.
pub fn incremental_experiment(dataset: PresetKind, scale: f64) -> Vec<IncrementalRow> {
    let preset = DatasetPreset::new(dataset, scale);
    let full = preset.generate();
    let all: Vec<_> =
        full.iter().map(|t| gogreen_data::Transaction::from_sorted_unchecked(t.to_vec())).collect();
    let half = all.len() / 2;
    let xi = preset.sweep()[1];
    let mut inc =
        IncrementalMiner::new(gogreen_data::TransactionDb::from_transactions(all[..half].to_vec()));
    let mut rows = Vec::new();
    // Initial round, then four growth batches.
    let batch = (all.len() - half) / 4;
    let mut next = half;
    loop {
        let start = Instant::now();
        let recycled = inc.mine(xi);
        let recycled_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let scratch = Family::Hm.mine(inc.db(), xi);
        let scratch_s = start.elapsed().as_secs_f64();
        assert!(recycled.same_patterns_as(&scratch), "incremental mismatch");
        rows.push(IncrementalRow {
            tuples: inc.db().len(),
            recycled_s,
            scratch_s,
            patterns: recycled.len(),
        });
        if next >= all.len() {
            break;
        }
        let end = (next + batch).min(all.len());
        inc.insert(all[next..end].iter().cloned());
        next = end;
    }
    rows
}

/// One threshold's outcome in the two-step experiment.
#[derive(Debug, Clone)]
pub struct TwoStepRow {
    /// Target `ξ` as a percentage.
    pub target_pct: f64,
    /// Intermediate threshold picked by the miner (absolute tuples).
    pub intermediate_abs: u64,
    /// Single-step H-Mine seconds.
    pub single_s: f64,
    /// Two-step total seconds (pre-pass + compression + mining).
    pub two_step_s: f64,
    /// The final (compressed) mining phase alone.
    pub two_step_mine_s: f64,
    /// Patterns found.
    pub patterns: usize,
}

impl ToJson for TwoStepRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("target_pct", self.target_pct.into()),
            ("intermediate_abs", self.intermediate_abs.into()),
            ("single_s", self.single_s.into()),
            ("two_step_s", self.two_step_s.into()),
            ("two_step_mine_s", self.two_step_mine_s.into()),
            ("patterns", self.patterns.into()),
        ])
    }
}

/// The paper's future-work experiment: answer single low-support
/// requests by bootstrapping a high-support pre-pass.
pub fn two_step_experiment(dataset: PresetKind, scale: f64) -> Vec<TwoStepRow> {
    let preset = DatasetPreset::new(dataset, scale);
    let db = preset.generate();
    preset
        .sweep()
        .into_iter()
        .map(|target| {
            let (single, single_t) = TwoStepMiner::single_step(&db, target);
            let (two, report) = TwoStepMiner::new().mine(&db, target);
            assert!(two.same_patterns_as(&single), "two-step mismatch");
            TwoStepRow {
                target_pct: match target {
                    MinSupport::Relative(f) => (f * 100.0 * 1e6).round() / 1e6,
                    MinSupport::Absolute(n) => n as f64,
                },
                intermediate_abs: report.intermediate.to_absolute(db.len()),
                single_s: single_t.as_secs_f64(),
                two_step_s: report.total().as_secs_f64(),
                two_step_mine_s: report.mining_time.as_secs_f64(),
                patterns: single.len(),
            }
        })
        .collect()
}

/// One thread count's outcome in the parallel-mining experiment.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    /// Worker threads.
    pub threads: usize,
    /// Wall seconds.
    pub secs: f64,
    /// Patterns found.
    pub patterns: usize,
}

impl ToJson for ParallelRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("threads", self.threads.into()),
            ("secs", self.secs.into()),
            ("patterns", self.patterns.into()),
        ])
    }
}

/// One kernel/thread-count outcome in the compression-kernel experiment.
#[derive(Debug, Clone)]
pub struct CompressParRow {
    /// Dataset analog name.
    pub dataset: &'static str,
    /// `"linear"` (the original full-FP scan) or `"indexed"` (the
    /// anchor-bucket cover index).
    pub kernel: &'static str,
    /// Worker threads (the linear reference is always serial).
    pub threads: usize,
    /// Compression wall seconds.
    pub secs: f64,
    /// Groups in the compressed database (identical across rows by
    /// construction — asserted).
    pub groups: usize,
    /// Recycled patterns driving the compression.
    pub recycled_patterns: usize,
}

impl ToJson for CompressParRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", self.dataset.into()),
            ("kernel", self.kernel.into()),
            ("threads", self.threads.into()),
            ("secs", self.secs.into()),
            ("groups", self.groups.into()),
            ("recycled_patterns", self.recycled_patterns.into()),
        ])
    }
}

/// Compression-kernel experiment: the seed's linear scan vs the indexed
/// kernel at 1/2/4/8 threads, MCP, on one dataset analog. Every variant's
/// `CompressedDb` is asserted equal to the linear reference.
pub fn compress_kernel_experiment(dataset: PresetKind, scale: f64) -> Vec<CompressParRow> {
    let preset = DatasetPreset::new(dataset, scale);
    let name = preset.name();
    let db = preset.generate();
    let fp_old = Family::Hm.mine(&db, preset.xi_old());
    let compressor = Compressor::new(Strategy::Mcp);

    // Best of three so one-shot jitter on small inputs doesn't decide
    // the reported ratio.
    let best = |f: &mut dyn FnMut() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    let mut reference = None;
    let linear_s = best(&mut || {
        let start = Instant::now();
        reference = Some(compressor.compress_reference(&db, &fp_old));
        start.elapsed().as_secs_f64()
    });
    let reference = reference.expect("reference run");
    let mut rows = vec![CompressParRow {
        dataset: name,
        kernel: "linear",
        threads: 1,
        secs: linear_s,
        groups: reference.groups().len(),
        recycled_patterns: fp_old.len(),
    }];
    for threads in [1usize, 2, 4, 8] {
        let c = compressor.with_threads(threads);
        let mut cdb = None;
        let secs = best(&mut || {
            let start = Instant::now();
            cdb = Some(c.compress(&db, &fp_old));
            start.elapsed().as_secs_f64()
        });
        let cdb = cdb.expect("indexed run");
        assert_eq!(cdb, reference, "indexed kernel drifted from linear scan");
        rows.push(CompressParRow {
            dataset: name,
            kernel: "indexed",
            threads,
            secs,
            groups: cdb.groups().len(),
            recycled_patterns: fp_old.len(),
        });
    }
    rows
}

/// Parallel recycled mining (RP-Mine over first-level projections) at
/// the lowest sweep threshold.
pub fn parallel_experiment(dataset: PresetKind, scale: f64) -> Vec<ParallelRow> {
    let preset = DatasetPreset::new(dataset, scale);
    let db = preset.generate();
    let fp_old = Family::Hm.mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    let xi_new = *preset.sweep().last().expect("non-empty sweep");
    let mut reference: Option<usize> = None;
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|threads| {
            let start = Instant::now();
            let set = RpMine::default().mine_par(&cdb, xi_new, Parallelism::threads(threads));
            let secs = start.elapsed().as_secs_f64();
            match reference {
                None => reference = Some(set.len()),
                Some(n) => assert_eq!(n, set.len(), "parallel count drift"),
            }
            ParallelRow { threads, secs, patterns: set.len() }
        })
        .collect()
}

/// One engine/thread-count outcome in the parallel-mining-phase
/// experiment.
#[derive(Debug, Clone)]
pub struct MineParRow {
    /// Dataset analog name.
    pub dataset: &'static str,
    /// Engine label — a baseline ("H-Mine") or its MCP-recycled
    /// counterpart ("HM-MCP").
    pub engine: String,
    /// Worker threads for the first-level fan-out.
    pub threads: usize,
    /// Mining wall seconds (output excluded — `CountSink`).
    pub secs: f64,
    /// Patterns found (asserted identical across thread counts and
    /// between each baseline and its recycled counterpart).
    pub patterns: u64,
}

impl ToJson for MineParRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", self.dataset.into()),
            ("engine", self.engine.clone().into()),
            ("threads", self.threads.into()),
            ("secs", self.secs.into()),
            ("patterns", self.patterns.into()),
        ])
    }
}

/// Parallel mining phase: every algorithm family, fresh on the raw
/// database and recycled on the MCP-compressed one, with first-level
/// projections fanned out over 1/2/4/8 threads at the lowest sweep
/// threshold. Pattern counts are asserted invariant across thread
/// counts and across the fresh/recycled pair.
pub fn mine_par_experiment(dataset: PresetKind, scale: f64) -> Vec<MineParRow> {
    let preset = DatasetPreset::new(dataset, scale);
    let name = preset.name();
    let db = preset.generate();
    let fp_old = Family::Hm.mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    let xi_new = *preset.sweep().last().expect("non-empty sweep");
    let mut rows = Vec::new();
    for family in PAPER_FAMILIES {
        let mut reference: Option<u64> = None;
        for threads in [1usize, 2, 4, 8] {
            let par = Parallelism::threads(threads);
            let fresh = timed(family, &db, xi_new, par);
            let rec = timed(family, &cdb, xi_new, par);
            assert_eq!(fresh.patterns, rec.patterns, "{family:?}: recycled count drift");
            match reference {
                None => reference = Some(fresh.patterns),
                Some(n) => assert_eq!(n, fresh.patterns, "{family:?}: parallel count drift"),
            }
            rows.push(MineParRow {
                dataset: name,
                engine: family.name().to_owned(),
                threads,
                secs: fresh.secs,
                patterns: fresh.patterns,
            });
            rows.push(MineParRow {
                dataset: name,
                engine: format!("{}-MCP", family.tag()),
                threads,
                secs: rec.secs,
                patterns: rec.patterns,
            });
        }
    }
    rows
}

/// Horizontal vs vertical head-to-head: all four algorithm families
/// (the paper's three plus the Eclat extension) at the same `ξ_new`,
/// fresh on the raw database and recycled on the MCP-compressed one,
/// serial and with the first-level fan-out at 4 threads. Because the
/// threshold is matched, *every* row of one dataset must report the
/// same pattern count — cross-family, cross-substrate, cross-thread —
/// and the experiment asserts exactly that before returning.
pub fn mine_vertical_experiment(dataset: PresetKind, scale: f64) -> Vec<MineParRow> {
    let preset = DatasetPreset::new(dataset, scale);
    let name = preset.name();
    let db = preset.generate();
    let fp_old = Family::Hm.mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    let xi_new = *preset.sweep().last().expect("non-empty sweep");
    let mut rows = Vec::new();
    let mut reference: Option<u64> = None;
    for family in Family::ALL {
        for threads in [1usize, 4] {
            let par = Parallelism::threads(threads);
            let fresh = timed(family, &db, xi_new, par);
            let rec = timed(family, &cdb, xi_new, par);
            for (engine, run) in
                [(family.name().to_owned(), fresh), (format!("{}-MCP", family.tag()), rec)]
            {
                match reference {
                    None => reference = Some(run.patterns),
                    Some(n) => {
                        assert_eq!(
                            n, run.patterns,
                            "{engine} t={threads}: count drift at matched ξ"
                        )
                    }
                }
                rows.push(MineParRow {
                    dataset: name,
                    engine,
                    threads,
                    secs: run.secs,
                    patterns: run.patterns,
                });
            }
        }
    }
    rows
}

/// One forced-representation outcome in the vertical repr ablation.
#[derive(Debug, Clone)]
pub struct VtReprRow {
    /// Dataset analog name.
    pub dataset: &'static str,
    /// `--vt-repr` mode (auto/bitmap/tidlist/diffset).
    pub mode: &'static str,
    /// Substrate: fresh on the raw database or MCP-recycled.
    pub substrate: &'static str,
    /// Mining wall seconds (output excluded — `CountSink`).
    pub secs: f64,
    /// Patterns found (asserted identical across every mode and row).
    pub patterns: u64,
    /// `mine.bitmap_words_scanned` for the run.
    pub bitmap_words: u64,
    /// `mine.tidlist_elems` for the run.
    pub tidlist_elems: u64,
    /// `mine.diffset_words` for the run.
    pub diffset_words: u64,
    /// Nodes materialized in a different representation than their
    /// parent (`mine.repr_switches`).
    pub repr_switches: u64,
    /// Column-arena bytes flushed (`alloc.projection_bytes`) — the
    /// memory side of the representation trade.
    pub arena_bytes: u64,
}

impl ToJson for VtReprRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", self.dataset.into()),
            ("mode", self.mode.into()),
            ("substrate", self.substrate.into()),
            ("secs", self.secs.into()),
            ("patterns", self.patterns.into()),
            ("bitmap_words", self.bitmap_words.into()),
            ("tidlist_elems", self.tidlist_elems.into()),
            ("diffset_words", self.diffset_words.into()),
            ("repr_switches", self.repr_switches.into()),
            ("arena_bytes", self.arena_bytes.into()),
        ])
    }
}

/// Vertical representation ablation: the vt family under each
/// `--vt-repr` mode, fresh and MCP-recycled, serial, reporting the
/// per-mode kernel traffic (`mine.bitmap_words_scanned`,
/// `mine.tidlist_elems`, `mine.diffset_words`), the switch count, and
/// the arena-byte peak. Pattern counts are asserted identical across
/// every mode and row — the representation is an encoding, never a
/// semantic.
pub fn vt_repr_ablation(dataset: PresetKind, scale: f64) -> Vec<VtReprRow> {
    let preset = DatasetPreset::new(dataset, scale);
    let name = preset.name();
    let db = preset.generate();
    let fp_old = Family::Hm.mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    let xi_new = *preset.sweep().last().expect("non-empty sweep");
    let mut rows = Vec::new();
    let mut reference: Option<u64> = None;
    for repr in VtRepr::ALL {
        for substrate in ["raw", "MCP"] {
            let mut sink = CountSink::new();
            let start = Instant::now();
            let ((), snap) = gogreen_obs::measure(|| {
                if substrate == "raw" {
                    Family::Vt(repr).mine_into(&db, xi_new, &mut sink);
                } else {
                    Family::Vt(repr).mine_into(&cdb, xi_new, &mut sink);
                }
            });
            let secs = start.elapsed().as_secs_f64();
            let get = |name: &str| snap.value(name).unwrap_or(0);
            let row = VtReprRow {
                dataset: name,
                mode: repr.as_str(),
                substrate,
                secs,
                patterns: sink.count(),
                bitmap_words: get("mine.bitmap_words_scanned"),
                tidlist_elems: get("mine.tidlist_elems"),
                diffset_words: get("mine.diffset_words"),
                repr_switches: get("mine.repr_switches"),
                arena_bytes: get("alloc.projection_bytes"),
            };
            match reference {
                None => reference = Some(row.patterns),
                Some(n) => {
                    assert_eq!(n, row.patterns, "{name} --vt-repr {repr} {substrate}: count drift")
                }
            }
            rows.push(row);
        }
    }
    rows
}
