//! The experiment runner: shared setup, what a measured step counts,
//! and every projection's record shape against the archived results.

use gogreen_bench::{ablation, experiments, PipelineSpec, Runner};
use gogreen_core::Strategy;
use gogreen_datagen::PresetKind;
use gogreen_miners::Family;
use gogreen_util::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

#[test]
fn runner_shares_setup_and_measures_only_the_step() {
    let base = PipelineSpec::new(PresetKind::Connect4, 0.001);
    let mut runner = Runner::default();
    let raw = runner.run(&base);
    let mcp = runner.run(&base.mining(Family::Hm, Some(Strategy::Mcp)));
    let first = runner.prepare(&base.mining(Family::Hm, Some(Strategy::Mcp)));
    let again = runner.prepare(&base.mining(Family::Fp, Some(Strategy::Mcp)));
    assert!(raw.patterns > 0 && raw.patterns == mcp.patterns);
    assert!(Rc::ptr_eq(first.cdb.as_ref().unwrap(), again.cdb.as_ref().unwrap()));
    // The measured step compressed nothing: that was setup.
    assert_eq!(mcp.counter("compress.runs"), 0);
    assert!(mcp.counter("mine.group_hits") > 0);
    assert!(mcp.profile.get("mine;flist").is_some(), "the step's spans are profiled");
    assert_eq!(mcp.setup.recycled, again.setup.recycled);
}

#[test]
fn compression_steps_measure_the_compression() {
    let spec = PipelineSpec::new(PresetKind::Connect4, 0.001).compressing(Strategy::Mcp);
    let mut runner = Runner::default();
    let indexed = runner.run(&spec);
    let linear = runner.run(&PipelineSpec { linear: true, ..spec.clone() });
    let io = runner.run(&PipelineSpec { io: true, ..spec });
    assert_eq!(indexed.counter("compress.runs"), 1);
    assert_eq!(indexed.cdb, linear.cdb);
    assert_eq!(io.compression.unwrap().ratio, indexed.compression.unwrap().ratio);
}

/// Every key of `json`, nested ones as `outer.inner` and array
/// elements' as `outer[].inner`.
fn key_paths(json: &Json, prefix: &str, out: &mut BTreeSet<String>) {
    match json {
        Json::Obj(fields) => {
            for (key, value) in fields {
                let path = format!("{prefix}{key}");
                key_paths(value, &format!("{path}."), out);
                out.insert(path);
            }
        }
        Json::Arr(items) => {
            for item in items {
                key_paths(item, &format!("{}[].", prefix.trim_end_matches('.')), out);
            }
        }
        _ => {}
    }
}

/// A renamed, dropped or added column would slip past the CI `jq`
/// diffs and the EXPERIMENTS.md quotes: each projection must emit the
/// key set of its committed results file's first record (and, for a
/// file holding two record shapes, a shape the file holds). Only dry
/// runs are projected, so nothing is mined.
#[test]
fn every_projection_keeps_its_archived_keys() {
    let mut emitted: BTreeMap<String, Vec<BTreeSet<String>>> = BTreeMap::new();
    let mut shape = |file: &str, record: &Json| {
        let mut keys = BTreeSet::new();
        key_paths(record, "", &mut keys);
        emitted.entry(file.to_owned()).or_default().push(keys);
    };
    let exps = experiments("all", 0.01).into_iter().chain(experiments("ext-batch", 0.01));
    for exp in exps.flatten() {
        for record in exp.dry() {
            shape(&exp.file, &record);
        }
    }
    let snap = Default::default();
    shape("ext_ooc", &ablation::ooc_record(1, 0.0, 0, &snap, 0, 0));
    assert_eq!(emitted.len(), 24, "{:?}", emitted.keys());
    for (file, shapes) in &emitted {
        let path = format!("{}/../../results/{file}.jsonl", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let committed: Vec<BTreeSet<String>> = text
            .lines()
            .map(|line| {
                let mut keys = BTreeSet::new();
                key_paths(&Json::parse(line).expect("archived JSON"), "", &mut keys);
                keys
            })
            .collect();
        assert_eq!(shapes[0], committed[0], "{file}: first record's keys");
        for keys in shapes {
            assert!(committed.contains(keys), "{file}: no archived record has keys {keys:?}");
        }
    }
}
