//! End-to-end pipeline tests over all four dataset analogs: generate,
//! mine at ξ_old, compress with both strategies, and verify every
//! recycling miner against every baseline at a relaxed ξ_new.

use gogreen::prelude::*;
use gogreen_datagen::{DatasetPreset, PresetKind};

const TINY: f64 = 0.0005; // 2,000-tuple floor for every preset

fn check_preset(kind: PresetKind) {
    let preset = DatasetPreset::new(kind, TINY);
    let db = preset.generate();
    let xi_old = preset.xi_old();
    let xi_new = preset.sweep()[1];

    let fp_old = Family::Hm.mine(&db, xi_old);
    assert!(!fp_old.is_empty(), "{}: nothing to recycle at ξ_old", preset.name());

    let reference = Family::Fp.mine(&db, xi_new);
    assert!(Family::Hm.mine(&db, xi_new).same_patterns_as(&reference));
    assert!(Family::Tp.mine(&db, xi_new).same_patterns_as(&reference));

    for strategy in [Strategy::Mcp, Strategy::Mlp] {
        let cdb = Compressor::new(strategy).compress(&db, &fp_old);
        let stats = cdb.stats();
        assert_eq!(stats.num_tuples, db.len(), "{}", preset.name());
        assert!(stats.ratio() <= 1.0);
        let recyclers: Vec<(&str, PatternSet)> = vec![
            ("RP-Mine", RpMine::default().mine(&cdb, xi_new)),
            ("Recycle-HM", Family::Hm.mine(&cdb, xi_new)),
            ("FP-recycle", Family::Fp.mine(&cdb, xi_new)),
            ("TP-recycle", Family::Tp.mine(&cdb, xi_new)),
        ];
        for (name, got) in recyclers {
            assert!(
                got.same_patterns_as(&reference),
                "{}/{strategy:?}/{name}: {} vs {} patterns",
                preset.name(),
                got.len(),
                reference.len()
            );
        }
    }
}

#[test]
fn weather_pipeline() {
    check_preset(PresetKind::Weather);
}

#[test]
fn forest_pipeline() {
    check_preset(PresetKind::Forest);
}

#[test]
fn connect4_pipeline() {
    check_preset(PresetKind::Connect4);
}

#[test]
fn pumsb_pipeline() {
    check_preset(PresetKind::Pumsb);
}

/// The compressed databases must actually compress on the dense analogs
/// (otherwise the figures measure nothing).
#[test]
fn dense_presets_compress_meaningfully() {
    for kind in [PresetKind::Connect4, PresetKind::Pumsb] {
        let preset = DatasetPreset::new(kind, TINY);
        let db = preset.generate();
        let fp_old = Family::Hm.mine(&db, preset.xi_old());
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        let stats = cdb.stats();
        assert!(
            stats.covered_tuples * 2 > stats.num_tuples,
            "{}: only {}/{} tuples covered",
            preset.name(),
            stats.covered_tuples,
            stats.num_tuples
        );
        assert!(stats.ratio() < 0.98, "{}: ratio {}", preset.name(), stats.ratio());
    }
}

/// Recycling with a *stale* pattern set (mined at a different threshold
/// than advertised, or from a different preset entirely) must still be
/// exact — compression correctness never depends on the pattern set.
#[test]
fn foreign_pattern_sets_are_safe() {
    let a = DatasetPreset::new(PresetKind::Connect4, TINY).generate();
    let b = DatasetPreset::new(PresetKind::Pumsb, TINY).generate();
    let fp_from_b = Family::Hm.mine(&b, MinSupport::percent(90.0));
    let cdb = Compressor::new(Strategy::Mcp).compress(&a, &fp_from_b);
    let xi = MinSupport::percent(90.0);
    let got = Family::Hm.mine(&cdb, xi);
    let want = Family::Hm.mine(&a, xi);
    assert!(got.same_patterns_as(&want));
}
