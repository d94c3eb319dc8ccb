//! Deterministic perf gates: replay a committed benchmark's workload
//! once and require its thread-invariant counters and histogram totals
//! to match the archived `BENCH_*.json` row **exactly**.
//!
//! Wall-clock gates are noise-bound: a CI runner two generations behind
//! a laptop fails every threshold, and a 5% budget hides a 4% real
//! regression forever. Counters are different — the workspace's
//! `mine.*`/`compress.*`/`alloc.*` counters and histogram totals measure
//! *logical work* and are bit-identical for a given workload at any
//! thread count (see `gogreen_obs::registry`). A PR that grows
//! `mine.tuple_touches` by one has changed the datapath, and this gate
//! says so with an exact diff instead of a shrug.
//!
//! The flow (`repro check-perf`, [`check_perf`]): parse the committed
//! baseline rows, re-run each row's workload once (serially — invariance
//! makes the thread count irrelevant), [`measure`] its counter/histogram
//! totals, and [`compare`] them against every matching row. The
//! workloads are [`bench_rows`], the same specs the benches time. Thread-variant
//! names (`cover.*`) are skipped on both sides; everything else must
//! match in both directions — a counter that drifted, vanished, or
//! newly appeared is a failure naming the exact metric and values.
//!
//! [`check_record`] (`repro check-metrics`) is the structural half: a
//! run record written by `--report F` names only registered metrics and
//! carries the counters every recycled run must touch.

use crate::batchwork::zipf_ladder;
use crate::pipeline::{self, PipelineSpec, Runner};
use gogreen_core::Strategy;
use gogreen_data::MinSupport;
use gogreen_datagen::PresetKind;
use gogreen_miners::Family;
use gogreen_obs::metrics::{self, Kind};
use gogreen_util::Json;

/// One archived benchmark row's identity and work fingerprint.
#[derive(Debug, Clone, Default)]
pub struct BaselineRow {
    /// Benchmark id (`"H-Mine"`, `"FP-MCP"`, `"indexed"`, …).
    pub id: String,
    /// Input parameter (`"connect4/t4"`, `"weather"`, …).
    pub param: String,
    /// Archived per-run counter deltas, as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Archived per-run histogram totals, as `(name, count, sum)`.
    pub hists: Vec<(String, u64, u64)>,
}

/// The counter and histogram deltas of one measured run, in the same
/// shape as [`BaselineRow`] so [`compare`] treats both sides uniformly.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Counter deltas `(name, value)`, zero deltas dropped.
    pub counters: Vec<(String, u64)>,
    /// Histogram total deltas `(name, count, sum)`, empty ones dropped.
    pub hists: Vec<(String, u64, u64)>,
}

/// Parses a `BENCH_*.json` archive (one JSON array of row objects) into
/// baseline rows. Rows without counters parse to empty fingerprints —
/// [`compare`] then only checks that the observation is empty too.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineRow>, String> {
    let json = Json::parse(text).map_err(|e| format!("invalid baseline JSON: {e}"))?;
    let Json::Arr(rows) = json else {
        return Err("baseline is not a JSON array".to_owned());
    };
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let field = |k: &str| {
                row.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("row {i}: missing \"{k}\""))
            };
            let mut out =
                BaselineRow { id: field("id")?, param: field("param")?, ..Default::default() };
            if let Some(Json::Obj(pairs)) = row.get("counters") {
                for (name, v) in pairs {
                    let v = v
                        .as_u64()
                        .ok_or_else(|| format!("row {i}: counter {name:?} not an integer"))?;
                    out.counters.push((name.clone(), v));
                }
            }
            if let Some(Json::Obj(pairs)) = row.get("hists") {
                for (name, h) in pairs {
                    let count = h.get("count").and_then(Json::as_u64);
                    let sum = h.get("sum").and_then(Json::as_u64);
                    let (Some(count), Some(sum)) = (count, sum) else {
                        return Err(format!("row {i}: hist {name:?} missing count/sum"));
                    };
                    out.hists.push((name.clone(), count, sum));
                }
            }
            Ok(out)
        })
        .collect()
}

/// Runs `f` once in a [`gogreen_obs::measure`] scope and returns its
/// exact counter and histogram totals (thread-variant and zero entries
/// included; [`compare`] does the filtering so the caller sees the raw
/// fingerprint).
pub fn measure<T>(f: impl FnOnce() -> T) -> Observed {
    let (out, snap) = gogreen_obs::measure(f);
    std::hint::black_box(out);
    Observed {
        counters: snap
            .metrics
            .iter()
            .filter(|(_, m)| m.kind == Kind::Counter && m.value > 0)
            .map(|(&n, m)| (n.to_owned(), m.value))
            .collect(),
        hists: snap
            .hists
            .iter()
            .filter(|(_, h)| h.count > 0)
            .map(|(&n, h)| (n.to_owned(), h.count, h.sum))
            .collect(),
    }
}

/// Compares one observed fingerprint against one baseline row. Only
/// thread-invariant names gate: the archived rows span thread counts,
/// so variant machine work like `cover.*` never can. Returns the drift
/// messages (empty = pass): every gated baseline counter and
/// histogram total must be present and exactly equal in the observation,
/// and every gated observed name must exist in the baseline.
pub fn compare(row: &BaselineRow, observed: &Observed) -> Vec<String> {
    let gated = metrics::is_thread_invariant;
    let ctx = format!("{}/{}", row.id, row.param);
    let mut drifts = Vec::new();
    for (name, want) in row.counters.iter().filter(|(n, _)| gated(n)) {
        match observed.counters.iter().find(|(n, _)| n == name) {
            Some((_, got)) if got == want => {}
            Some((_, got)) => {
                drifts.push(format!("{ctx}: counter {name} = {got}, baseline {want}"))
            }
            None => drifts.push(format!("{ctx}: counter {name} missing (baseline {want})")),
        }
    }
    for (name, got) in observed.counters.iter().filter(|(n, _)| gated(n)) {
        if !row.counters.iter().any(|(n, _)| n == name) {
            drifts.push(format!("{ctx}: new counter {name} = {got} not in baseline"));
        }
    }
    for (name, want_count, want_sum) in row.hists.iter().filter(|(n, _, _)| gated(n)) {
        match observed.hists.iter().find(|(n, _, _)| n == name) {
            Some((_, c, s)) if c == want_count && s == want_sum => {}
            Some((_, c, s)) => drifts.push(format!(
                "{ctx}: hist {name} = (count {c}, sum {s}), baseline (count {want_count}, sum {want_sum})"
            )),
            None => drifts.push(format!(
                "{ctx}: hist {name} missing (baseline count {want_count}, sum {want_sum})"
            )),
        }
    }
    for (name, c, s) in observed.hists.iter().filter(|(n, _, _)| gated(n)) {
        if !row.hists.iter().any(|(n, _, _)| n == name) {
            drifts.push(format!("{ctx}: new hist {name} (count {c}, sum {s}) not in baseline"));
        }
    }
    drifts
}

/// Every row of the `group` bench (`"mining"` or `"compression"`), in
/// archive order, as `(id, workload)`; [`bench_param`] names its
/// param. The benches time these workloads and [`check_perf`] replays
/// them, so both derive a row from the same spec.
pub fn bench_rows(group: &str) -> Vec<(String, PipelineSpec)> {
    let mut rows = Vec::new();
    if group == "mining" {
        for kind in [PresetKind::Connect4, PresetKind::Weather, PresetKind::Pumsb] {
            let base = PipelineSpec::new(kind, 0.01);
            // A k=8 Zipf-skewed multi-query fleet over the preset's
            // sweep: one shared pass at the sweep floor answers all eight.
            let batch = Some(zipf_ladder(&base.preset.sweep(), 8));
            for threads in [1, 2, 4, 8] {
                let at = PipelineSpec { threads, ..base.clone() };
                for family in Family::ALL {
                    let tag = family.tag();
                    rows.push((family.name().to_owned(), at.mining(family, None)));
                    rows.push((format!("{tag}-MCP"), at.mining(family, Some(Strategy::Mcp))));
                    let batched = PipelineSpec { batch: batch.clone(), ..at.mining(family, None) };
                    rows.push((format!("{tag}-Batch8"), batched));
                }
            }
        }
    } else if group == "compression" {
        for kind in [PresetKind::Connect4, PresetKind::Weather] {
            for strategy in [Strategy::Mcp, Strategy::Mlp] {
                let spec = PipelineSpec::new(kind, 0.01).compressing(strategy);
                rows.push((strategy.suffix().to_owned(), spec));
            }
        }
        // The kernel sweep: the indexed kernel against the seed's linear
        // scan at growing |FP| (ξ_old lowered below the preset's).
        let sweeps =
            [(PresetKind::Connect4, [0.95, 0.85, 0.75]), (PresetKind::Weather, [0.05, 0.02, 0.01])];
        for (kind, supports) in sweeps {
            for rel in supports {
                let spec = PipelineSpec {
                    xi_old: MinSupport::Relative(rel),
                    ..PipelineSpec::new(kind, 0.01).compressing(Strategy::Mcp)
                };
                rows.push(("linear".to_owned(), PipelineSpec { linear: true, ..spec.clone() }));
                rows.push(("indexed".to_owned(), spec));
            }
        }
    }
    rows
}

/// The `param` of a bench row: `<dataset>/t<threads>` for mining,
/// `<dataset>/fp<|FP|>` for the kernel sweep (so a miner drift changes
/// the key), and the dataset alone for the strategy rows.
pub fn bench_param(id: &str, spec: &PipelineSpec, recycled: usize) -> String {
    let name = spec.preset.name();
    match (id, spec.xi_new) {
        ("linear" | "indexed", _) => format!("{name}/fp{recycled}"),
        (_, None) => name.to_owned(),
        (_, Some(_)) => format!("{name}/t{}", spec.threads),
    }
}

/// Replays every [`bench_rows`] workload of each `(group, baseline)`
/// archive once, serially (the gated names are thread-invariant, so one
/// run covers every `tN` row), and compares it with every row of the
/// same `(id, param)`. Returns the rows compared and every drift,
/// including archived rows no workload replays.
pub fn check_perf(archives: &[(&str, Vec<BaselineRow>)]) -> (usize, Vec<String>) {
    let mut runner = Runner::default();
    let mut replayed: Vec<(PipelineSpec, Observed)> = Vec::new();
    let (mut compared, mut drifts) = (0, Vec::new());
    for (group, rows) in archives {
        let mut matched = vec![false; rows.len()];
        for (id, spec) in bench_rows(group) {
            let serial = PipelineSpec { threads: 1, ..spec.clone() };
            let inputs = runner.prepare(&serial);
            let param = bench_param(&id, &spec, inputs.setup.recycled);
            let at = match replayed.iter().position(|(s, _)| *s == serial) {
                Some(at) => at,
                None => {
                    let observed = measure(|| pipeline::step(&serial, &inputs));
                    replayed.push((serial, observed));
                    replayed.len() - 1
                }
            };
            for (i, row) in rows.iter().enumerate() {
                if row.id == id && row.param == param {
                    drifts.extend(compare(row, &replayed[at].1));
                    matched[i] = true;
                    compared += 1;
                }
            }
        }
        for (row, _) in rows.iter().zip(&matched).filter(|(_, &m)| !m) {
            drifts.push(format!(
                "{}/{}: no replay workload for this baseline row",
                row.id, row.param
            ));
        }
    }
    (compared, drifts)
}

/// Counters every recycled run touches: CI runs `repro --quick --report
/// F` and then `repro check-metrics F`, which requires them.
pub const REQUIRED_COUNTERS: &[&str] = &[
    "compress.runs",
    "compress.tuples_total",
    "compress.groups_emitted",
    "mine.candidate_tests",
    "mine.group_hits",
    "mine.projected_dbs",
];

/// Validates a run record (see `gogreen_obs::report`): it is a record of
/// the current version; in the run's totals and in each `rounds` entry
/// every counter, max-gauge and histogram name is declared in the obs
/// registry, and values and each histogram's `count` and `sum` are
/// numeric; and the totals hold every [`REQUIRED_COUNTERS`] name. Only
/// the totals must hold those: a round may skip part of the pipeline (a
/// filtered session round mines nothing). Returns how many counters and
/// max-gauges the totals hold.
pub fn check_record(text: &str) -> Result<usize, String> {
    let json = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let version = gogreen_obs::report::VERSION;
    if json.get("version").and_then(Json::as_u64) != Some(version) {
        return Err(format!("not a version-{version} run record"));
    }
    let rounds = json.get("rounds").and_then(Json::as_arr).ok_or("missing \"rounds\" array")?;
    for (i, round) in rounds.iter().enumerate() {
        let label = round.get("label").and_then(Json::as_str).unwrap_or("?");
        check_snapshot(round).map_err(|e| format!("rounds[{i}] ({label}): {e}"))?;
    }
    let names = check_snapshot(&json)?;
    let counters = json.get("counters");
    if let Some(missing) =
        REQUIRED_COUNTERS.iter().find(|n| counters.and_then(|c| c.get(n)).is_none())
    {
        return Err(format!("required counter {missing:?} missing"));
    }
    Ok(names)
}

/// Checks one snapshot in `MetricsSnapshot::to_json`'s shape and returns
/// how many counters and max-gauges it holds.
fn check_snapshot(snap: &Json) -> Result<usize, String> {
    let section = |key: &str| match snap.get(key) {
        Some(Json::Obj(fields)) => Ok(fields),
        _ => Err(format!("missing {key:?} object")),
    };
    let registered = |name: &str| match gogreen_obs::registry::lookup(name) {
        Some(_) => Ok(()),
        None => Err(format!("{name:?} not in the metric registry")),
    };
    let mut names = 0;
    for key in ["counters", "maxes"] {
        for (name, value) in section(key)? {
            registered(name)?;
            value.as_u64().ok_or_else(|| format!("{name:?}: value is not numeric"))?;
            names += 1;
        }
    }
    for (name, hist) in section("hists")? {
        registered(name)?;
        for field in ["count", "sum"] {
            if hist.get(field).and_then(Json::as_u64).is_none() {
                return Err(format!("hist {name:?}: missing numeric {field:?}"));
            }
        }
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"[
      {"group":"mining","id":"H-Mine","param":"connect4/t1","min_s":0.01,"median_s":0.01,"mean_s":0.01,"samples":5,
       "counters":{"mine.tuple_touches":100,"cover.words_scanned":7},
       "hists":{"mine.projected_db_size":{"count":4,"sum":40}}},
      {"group":"compression","id":"linear","param":"connect4/fp297","min_s":0.01,"median_s":0.01,"mean_s":0.01,"samples":5}
    ]"#;

    fn observed() -> Observed {
        Observed {
            counters: vec![("mine.tuple_touches".into(), 100), ("cover.words_scanned".into(), 999)],
            hists: vec![("mine.projected_db_size".into(), 4, 40)],
        }
    }

    #[test]
    fn parses_rows_with_and_without_fingerprints() {
        let rows = parse_baseline(BASELINE).expect("parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, "H-Mine");
        assert_eq!(rows[0].counters.len(), 2);
        assert_eq!(rows[0].hists, vec![("mine.projected_db_size".to_owned(), 4, 40)]);
        assert!(rows[1].counters.is_empty() && rows[1].hists.is_empty());
    }

    #[test]
    fn exact_match_passes_and_variant_counters_never_gate() {
        let rows = parse_baseline(BASELINE).unwrap();
        // cover.words_scanned differs (999 vs 7) but is thread-variant:
        // skipped on both sides.
        assert_eq!(compare(&rows[0], &observed()), Vec::<String>::new());
    }

    #[test]
    fn corrupted_baseline_counter_fails() {
        let corrupted =
            BASELINE.replace(r#""mine.tuple_touches":100"#, r#""mine.tuple_touches":101"#);
        let rows = parse_baseline(&corrupted).unwrap();
        let drifts = compare(&rows[0], &observed());
        assert_eq!(drifts.len(), 1, "{drifts:?}");
        assert!(drifts[0].contains("mine.tuple_touches = 100, baseline 101"), "{drifts:?}");
    }

    #[test]
    fn corrupted_hist_total_fails() {
        let corrupted = BASELINE.replace(r#""sum":40"#, r#""sum":41"#);
        let rows = parse_baseline(&corrupted).unwrap();
        let drifts = compare(&rows[0], &observed());
        assert_eq!(drifts.len(), 1, "{drifts:?}");
        assert!(drifts[0].contains("mine.projected_db_size"), "{drifts:?}");
    }

    #[test]
    fn missing_and_novel_names_fail_in_both_directions() {
        let rows = parse_baseline(BASELINE).unwrap();
        let mut obs = observed();
        obs.counters.retain(|(n, _)| n != "mine.tuple_touches");
        obs.counters.push(("mine.bound_prunes".into(), 3));
        let drifts = compare(&rows[0], &obs);
        assert_eq!(drifts.len(), 2, "{drifts:?}");
        assert!(drifts.iter().any(|d| d.contains("missing")), "{drifts:?}");
        assert!(drifts.iter().any(|d| d.contains("new counter mine.bound_prunes")), "{drifts:?}");
    }

    #[test]
    fn measure_fingerprints_one_run() {
        use gogreen_obs::histogram;
        let obs = measure(|| {
            metrics::add("mine.candidate_tests", 5);
            histogram::observe("mine.projected_db_size", 8);
        });
        assert_eq!(obs.counters, [("mine.candidate_tests".to_owned(), 5)]);
        assert_eq!(obs.hists, [("mine.projected_db_size".to_owned(), 1, 8)]);
    }

    /// A record in the shape `gogreen_obs::report` writes: the required
    /// counters, a gauge and a histogram in the totals, and one round.
    fn record() -> String {
        let counters: Vec<String> =
            REQUIRED_COUNTERS.iter().map(|n| format!(r#""{n}":1"#)).collect();
        let snap = format!(
            r#""counters":{{{}}},"maxes":{{"mine.max_depth":3}},"hists":{{"mine.projected_db_size":{{"count":2,"sum":9,"buckets":{{"3":2}}}}}}"#,
            counters.join(",")
        );
        format!(
            r#"{{"version":{},"argv":["repro"],{snap},"profile":{{}},"rounds":[{{"label":"r1",{snap}}}]}}"#,
            gogreen_obs::report::VERSION
        )
    }

    #[test]
    fn check_record_accepts_a_good_record() {
        assert_eq!(check_record(&record()), Ok(REQUIRED_COUNTERS.len() + 1));
    }

    #[test]
    fn check_record_rejects_unregistered_names() {
        let bad = record().replacen("mine.max_depth", "test.unregistered", 1);
        assert!(check_record(&bad).unwrap_err().contains("not in the metric registry"));
        // The same check runs on every round.
        let at = record().rfind("mine.max_depth").unwrap();
        let mut bad = record();
        bad.replace_range(at..at + "mine.max_depth".len(), "test.unregistered");
        let err = check_record(&bad).unwrap_err();
        assert!(err.starts_with("rounds[0] (r1)") && err.contains("not in the metric registry"));
    }

    #[test]
    fn check_record_rejects_non_numeric_values() {
        let bad = record().replacen(r#""mine.max_depth":3"#, r#""mine.max_depth":"3""#, 1);
        assert!(check_record(&bad).unwrap_err().contains("not numeric"));
        let bad = record().replacen(r#""sum":9"#, r#""sum":-1"#, 1);
        assert!(check_record(&bad).unwrap_err().contains("missing numeric \"sum\""));
    }

    #[test]
    fn check_record_rejects_a_missing_required_counter() {
        let bad = record().replacen(r#""compress.runs":1,"#, "", 1);
        assert_eq!(check_record(&bad), Err(r#"required counter "compress.runs" missing"#.into()));
        // Rounds need not hold them.
        let at = record().rfind(r#""compress.runs":1,"#).unwrap();
        let mut ok = record();
        ok.replace_range(at..at + r#""compress.runs":1,"#.len(), "");
        assert!(check_record(&ok).is_ok());
    }
}
