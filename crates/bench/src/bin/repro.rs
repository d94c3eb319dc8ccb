//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale S] [--results DIR] [--report F] <command>
//!
//! commands:
//!   all          Table 3 + Figures 9–24 + ablations
//!   table3       dataset properties and compression statistics
//!   figs         Figures 9–20 (in-memory sweeps)
//!   fig <N>      one figure, N in 9..=24
//!   memfigs      Figures 21–24 (memory-limited)
//!   ablation     ablations (utility fn, ξ_old, Lemma 3.1) + extension
//!                experiments (incremental, two-step, parallel)
//!   ext-compress-par
//!                compression-kernel sweep: seed linear scan vs the
//!                indexed cover kernel at 1/2/4/8 threads
//!   ext-mine-par
//!                parallel mining phase: every fresh/recycled engine
//!                pair with first-level projections fanned out over
//!                1/2/4/8 threads
//!   ext-mine-vertical
//!                horizontal vs vertical head-to-head: all four
//!                families (including bitmap Eclat) at matched ξ_new,
//!                fresh and MCP-recycled, serial and 4 threads
//!   ext-obs-hist histogram study: the projected-DB size distribution,
//!                raw vs MCP-recycled, per engine family (E9)
//!   ext-batch    batched multi-query mining (E12): a k=8 Zipf-skewed ξ
//!                fleet on the weather and connect4 analogs answered by
//!                one shared pass at ξ_min; requires the shared pass to
//!                touch ≤ 1.5× the tuples of a single solo run at ξ_min
//!                and per-query streams byte-identical at 1 and 8
//!                threads
//!   ext-ooc      out-of-core datapath (E11): stream the connect4 analog
//!                into on-disk segments, mine it under a resident budget
//!                of 1/4 the dataset, and require one pass per segment
//!                and byte-identical patterns vs in-memory at 1 and 4
//!                threads
//!   quick        CI smoke: one mine→compress→recycle round on the
//!                weather analog at a tiny scale
//!   check-metrics <file>
//!                validate a --report run record (parses, every name
//!                is declared in the obs registry, and the core
//!                mining/compression counters are present)
//!   check-perf [mining.json] [compression.json]
//!                deterministic perf gate: replay each committed
//!                BENCH_*.json row's workload once and require its
//!                thread-invariant counters and histogram totals to
//!                match the archive exactly
//! ```
//!
//! `--scale` multiplies the paper's tuple counts (default 0.05).
//! `--report F` records the whole run and writes its run record (see
//! `gogreen_obs::report`) to `F`.

use gogreen_bench::ablation;
use gogreen_bench::figures::{run_figure, run_mem_figure, FigureResult, MemFigureResult};
use gogreen_bench::perfgate;
use gogreen_bench::report::{fmt_secs, fmt_speedup, render_table, Reporter};
use gogreen_bench::table3::run_table3;
use gogreen_bench::{timed, DEFAULT_SCALE};
use gogreen_core::{Compressor, Strategy};
use gogreen_data::MinSupport;
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_miners::{Family, Miner};
use gogreen_obs::report::Report;
use gogreen_obs::Recorder;
use gogreen_util::pool::Parallelism;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = DEFAULT_SCALE;
    let mut results_dir = "results".to_owned();
    let mut report: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale expects a positive number"));
            }
            "--results" => {
                results_dir = it.next().unwrap_or_else(|| die("--results expects a directory"));
            }
            "--report" => {
                report = Some(it.next().unwrap_or_else(|| die("--report expects a file")))
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with("--") && other != "--quick" => {
                die(&format!("unknown option {other} (try --help)"))
            }
            other => rest.push(other.to_owned()),
        }
    }
    if scale <= 0.0 {
        die("--scale must be positive");
    }
    let report =
        report.map(|path| Report::start(std::env::args().collect(), path, Recorder::new()));
    let reporter = Reporter::new(&results_dir);
    let command = rest.first().map(String::as_str).unwrap_or("all");
    match command {
        "all" => {
            cmd_table3(scale, &reporter);
            for id in 9..=20 {
                cmd_figure(id, scale, &reporter);
            }
            for id in 21..=24 {
                cmd_mem_figure(id, scale, &reporter);
            }
            cmd_ablation(scale, &reporter);
            cmd_compress_par(scale, &reporter);
            cmd_mine_par(scale, &reporter);
            cmd_mine_vertical(scale, &reporter);
        }
        "table3" => cmd_table3(scale, &reporter),
        "figs" => {
            for id in 9..=20 {
                cmd_figure(id, scale, &reporter);
            }
        }
        "memfigs" => {
            for id in 21..=24 {
                cmd_mem_figure(id, scale, &reporter);
            }
        }
        "fig" => {
            let id: u8 = rest
                .get(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die("fig expects a number in 9..=24"));
            match id {
                9..=20 => cmd_figure(id, scale, &reporter),
                21..=24 => cmd_mem_figure(id, scale, &reporter),
                _ => die("figure id must be in 9..=24"),
            }
        }
        "ablation" => cmd_ablation(scale, &reporter),
        "ext-compress-par" => cmd_compress_par(scale, &reporter),
        "ext-mine-par" => cmd_mine_par(scale, &reporter),
        "ext-mine-vertical" => cmd_mine_vertical(scale, &reporter),
        "ext-obs-hist" => cmd_obs_hist(scale, &reporter),
        "ext-batch" => cmd_ext_batch(scale, &reporter),
        "ext-ooc" => cmd_ext_ooc(scale, &reporter),
        "quick" | "--quick" => cmd_quick(scale),
        "check-metrics" => {
            let file = rest.get(1).cloned().unwrap_or_else(|| die("check-metrics expects a file"));
            cmd_check_metrics(&file);
        }
        "check-perf" => {
            let mining = rest.get(1).cloned().unwrap_or_else(|| {
                concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mining.json").to_owned()
            });
            let compression = rest.get(2).cloned().unwrap_or_else(|| {
                concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compression.json").to_owned()
            });
            cmd_check_perf(&mining, &compression);
        }
        other => die(&format!("unknown command {other:?} (try --help)")),
    }
    if let Some(report) = report {
        report.finish().unwrap_or_else(|e| die(&e));
    }
}

fn die(msg: &str) -> ! {
    gogreen_obs::error(&format!("repro: {msg}"));
    std::process::exit(2);
}

fn print_usage() {
    println!(
        "repro [--scale S] [--results DIR] [--report F] \
         <all|table3|figs|memfigs|fig N|ablation|ext-compress-par|ext-mine-par|ext-mine-vertical|\n\
         ext-obs-hist|ext-batch|ext-ooc|quick|check-metrics F|check-perf [F F]>\n\
         Regenerates the paper's Table 3 and Figures 9-24, plus ablations and\n\
         extension experiments (scale {DEFAULT_SCALE} by default)."
    );
}

/// One mine→compress→recycle round on the weather analog, small enough
/// for a CI smoke job but touching every instrumented phase.
fn cmd_quick(scale: f64) {
    let preset = DatasetPreset::new(PresetKind::Weather, scale.min(0.02));
    let db = preset.generate();
    let fp = Family::Hm.mine(&db, preset.xi_old());
    let (cdb, stats) = Compressor::new(Strategy::Mcp).compress_with_stats(&db, &fp);
    let patterns = Family::Hm.mine(&cdb, MinSupport::percent(2.0));
    println!(
        "quick: weather ×{} — {} tuples, {} recycled patterns, ratio {:.3}, {} patterns at 2% in {}",
        preset.scale,
        db.len(),
        fp.len(),
        stats.ratio,
        patterns.len(),
        fmt_secs(stats.duration.as_secs_f64()),
    );
}

/// E12: batched multi-query mining. A k=8 Zipf-skewed ξ fleet over the
/// preset's sweep, answered by one shared pass at ξ_min (the sweep
/// floor) and demultiplexed per query. **Gates** (CI's batch-smoke job
/// and the issue's acceptance criteria): the batched run's
/// `mine.tuple_touches` must be at most 1.5× a *single* solo run at
/// ξ_min, and every per-query stream must be byte-identical at 1 and 8
/// threads.
fn cmd_ext_batch(scale: f64, reporter: &Reporter) {
    use gogreen_bench::batchwork;
    use std::time::Instant;

    println!(
        "\n== Extension: batched multi-query mining — one shared pass answers a \
         k=8 Zipf fleet (weather + connect4, scale {scale}) ==\n"
    );
    let touches =
        |snap: gogreen_obs::MetricsSnapshot| snap.value("mine.tuple_touches").unwrap_or(0);
    let pattern_bytes = |tag: &str, set: &gogreen_data::PatternSet| -> Vec<u8> {
        let p =
            std::env::temp_dir().join(format!("gogreen-ext-batch-{tag}-{}", std::process::id()));
        gogreen_data::pattern_io::write_patterns_file(set, p.display().to_string())
            .unwrap_or_else(|e| die(&format!("writing {p:?}: {e}")));
        let bytes = std::fs::read(&p).unwrap_or_else(|e| die(&format!("reading {p:?}: {e}")));
        let _ = std::fs::remove_file(&p);
        bytes
    };
    let mut table: Vec<Vec<String>> = Vec::new();
    for kind in [PresetKind::Weather, PresetKind::Connect4] {
        let preset = DatasetPreset::new(kind, scale);
        let db = preset.generate();
        let ladder = batchwork::zipf_ladder(&preset.sweep(), 8);
        let xi_min =
            ladder.iter().map(|xi| xi.to_absolute(db.len())).min().expect("non-empty ladder");

        // The batched run at 1 thread: one shared pass at ξ_min.
        let t0 = Instant::now();
        let (out1, snap) = gogreen_obs::measure(|| batchwork::fleet(&ladder).run(&db, Family::Hm));
        let out1 = out1.unwrap_or_else(|e| die(&format!("batched run: {e}")));
        let secs_batched = t0.elapsed().as_secs_f64();
        let touches_batched = touches(snap);
        if !out1.report.plan.rejected.is_empty() {
            die("pure-support fleet unexpectedly rejected a query");
        }

        // The same fleet at 8 threads must produce byte-identical
        // per-query streams.
        let out8 = batchwork::fleet(&ladder)
            .with_parallelism(Parallelism::threads(8))
            .run(&db, Family::Hm)
            .unwrap_or_else(|e| die(&format!("batched run (t8): {e}")));
        for (i, (a, b)) in out1.results.iter().zip(&out8.results).enumerate() {
            if pattern_bytes(&format!("t1-q{i}"), a) != pattern_bytes(&format!("t8-q{i}"), b) {
                die(&format!("query #{i}: stream diverges between 1 and 8 threads"));
            }
        }

        // Reference costs: the 8 solo runs the batch replaces, and the
        // single ξ_min run that lower-bounds the shared pass.
        let t0 = Instant::now();
        let ((), snap) = gogreen_obs::measure(|| {
            for &xi in &ladder {
                timed(Family::Hm, &db, xi, Parallelism::serial());
            }
        });
        let secs_solo = t0.elapsed().as_secs_f64();
        let touches_solo = touches(snap);
        let (_, snap) = gogreen_obs::measure(|| {
            timed(Family::Hm, &db, MinSupport::Absolute(xi_min), Parallelism::serial())
        });
        let touches_floor = touches(snap);

        let vs_floor = touches_batched as f64 / touches_floor.max(1) as f64;
        let vs_solo = touches_batched as f64 / touches_solo.max(1) as f64;
        if vs_floor > 1.5 {
            die(&format!(
                "{}: batched pass touches {:.2}× the single ξ_min run (> 1.5× gate)",
                preset.name(),
                vs_floor
            ));
        }
        table.push(vec![
            preset.name().to_owned(),
            format!("{xi_min}"),
            touches_batched.to_string(),
            touches_solo.to_string(),
            touches_floor.to_string(),
            format!("{vs_solo:.3}"),
            format!("{vs_floor:.3}"),
            fmt_secs(secs_batched),
            fmt_secs(secs_solo),
        ]);
        reporter
            .save_json(
                "ext_batch",
                &gogreen_util::Json::obj([
                    ("dataset", gogreen_util::Json::from(preset.name())),
                    ("k", gogreen_util::Json::from(ladder.len())),
                    ("xi_min", gogreen_util::Json::from(xi_min)),
                    ("touches_batched", gogreen_util::Json::from(touches_batched)),
                    ("touches_solo_total", gogreen_util::Json::from(touches_solo)),
                    ("touches_floor", gogreen_util::Json::from(touches_floor)),
                    ("ratio_vs_solo", gogreen_util::Json::from(vs_solo)),
                    ("ratio_vs_floor", gogreen_util::Json::from(vs_floor)),
                    ("secs_batched", gogreen_util::Json::from(secs_batched)),
                    ("secs_solo_total", gogreen_util::Json::from(secs_solo)),
                    ("identical", gogreen_util::Json::from(true)),
                ]),
            )
            .expect("save extension");
    }
    print!(
        "{}",
        render_table(
            &[
                "dataset",
                "ξ_min",
                "touches batched",
                "touches 8×solo",
                "touches ξ_min solo",
                "vs solo",
                "vs floor",
                "time batched",
                "time 8×solo",
            ],
            &table
        )
    );
    println!(
        "\next-batch: ok — shared pass ≤ 1.5× a single ξ_min run on both analogs, \
         per-query streams byte-identical at 1 and 8 threads"
    );
}

/// E11: the out-of-core datapath. Streams the connect4 analog into
/// on-disk segments (never materializing it), mines at the sweep floor
/// under a resident budget of 1/4 the dataset, and **requires** one full
/// payload pass per segment and a pattern stream byte-identical to the
/// in-memory run at 1 and 4 threads — this is the acceptance gate CI's
/// ooc-smoke job runs.
fn cmd_ext_ooc(scale: f64, reporter: &Reporter) {
    use gogreen_storage::{MemoryBudget, OocMiner, SegmentWriter, SegmentedDb};
    use gogreen_util::pool::Parallelism;
    use std::time::Instant;

    println!(
        "\n== Extension: out-of-core mining under a bounded resident budget \
         (connect4, ξ_new = sweep floor, scale {scale}) ==\n"
    );
    let preset = DatasetPreset::new(PresetKind::Connect4, scale);
    let dir = std::env::temp_dir().join(format!("gogreen-ext-ooc-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap_or_else(|e| die(&format!("clearing {dir:?}: {e}")));
    }
    // Stream rows straight into segments — peak write-side memory is one
    // open segment, regardless of dataset size.
    let mut w = SegmentWriter::create(&dir, 32 << 10)
        .unwrap_or_else(|e| die(&format!("creating {dir:?}: {e}")));
    preset.for_each_transaction(|row| {
        w.push_row(row).unwrap_or_else(|e| die(&format!("writing segment row: {e}")));
    });
    let segments = w.finish().unwrap_or_else(|e| die(&format!("sealing {dir:?}: {e}")));
    let seg = SegmentedDb::open(&dir).unwrap_or_else(|e| die(&format!("opening {dir:?}: {e}")));
    let budget = (seg.total_payload_bytes() / 4) as usize;
    if seg.max_segment_bytes() > budget {
        die("a single segment exceeds the 1/4 budget; raise --scale");
    }
    let seg = seg.with_budget(MemoryBudget::bytes(budget));
    let xi_new = *preset.sweep().last().expect("non-empty sweep");

    // In-memory reference stream (canonical sorted pattern file bytes).
    let db = preset.generate();
    let t0 = Instant::now();
    let reference = Family::Hm.mine(&db, xi_new);
    let mem_s = t0.elapsed().as_secs_f64();
    let fp_file = |tag: &str, set: &gogreen_data::PatternSet| -> Vec<u8> {
        let p =
            std::env::temp_dir().join(format!("gogreen-ext-ooc-fp-{tag}-{}", std::process::id()));
        gogreen_data::pattern_io::write_patterns_file(set, p.display().to_string())
            .unwrap_or_else(|e| die(&format!("writing {p:?}: {e}")));
        let bytes = std::fs::read(&p).unwrap_or_else(|e| die(&format!("reading {p:?}: {e}")));
        let _ = std::fs::remove_file(&p);
        bytes
    };
    let expected = fp_file("mem", &reference);

    let mut table: Vec<Vec<String>> = vec![vec![
        "in-memory".into(),
        "1".into(),
        fmt_secs(mem_s),
        reference.len().to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]];
    for threads in [1usize, 4] {
        let t0 = Instant::now();
        let (patterns, snap) = gogreen_obs::measure(|| {
            OocMiner::new(&seg).with_parallelism(Parallelism::threads(threads)).mine(xi_new)
        });
        let patterns = patterns.unwrap_or_else(|e| die(&format!("out-of-core mining: {e}")));
        let secs = t0.elapsed().as_secs_f64();
        let passes = snap.value("storage.segments_read").unwrap_or(0);
        let peak = snap.value("storage.resident_peak").unwrap_or(0);
        if passes != segments as u64 {
            die(&format!("expected one pass per segment ({segments}), measured {passes}"));
        }
        if peak as usize > budget {
            die(&format!("resident peak {peak} exceeds the {budget}-byte budget"));
        }
        if fp_file(&format!("t{threads}"), &patterns) != expected {
            die(&format!("t{threads}: out-of-core pattern stream diverges from in-memory"));
        }
        table.push(vec![
            "out-of-core".into(),
            threads.to_string(),
            fmt_secs(secs),
            patterns.len().to_string(),
            format!("{segments}"),
            format!("{passes}"),
            format!("{} KiB", peak >> 10),
        ]);
        reporter
            .save_json(
                "ext_ooc",
                &gogreen_util::Json::obj([
                    ("threads", gogreen_util::Json::from(threads)),
                    ("secs", gogreen_util::Json::from(secs)),
                    ("patterns", gogreen_util::Json::from(patterns.len())),
                    ("segments", gogreen_util::Json::from(segments)),
                    ("passes", gogreen_util::Json::from(passes)),
                    ("resident_peak", gogreen_util::Json::from(peak)),
                    ("budget", gogreen_util::Json::from(budget)),
                    ("identical", gogreen_util::Json::from(true)),
                ]),
            )
            .expect("save extension");
    }
    std::fs::remove_dir_all(&dir).unwrap_or_else(|e| die(&format!("removing {dir:?}: {e}")));
    print!(
        "{}",
        render_table(
            &["datapath", "threads", "time", "patterns", "segments", "passes", "resident peak"],
            &table
        )
    );
    println!(
        "\next-ooc: ok — {segments} segments, budget {} KiB (dataset {} KiB), \
         byte-identical pattern stream at 1 and 4 threads",
        budget >> 10,
        seg.total_payload_bytes() >> 10,
    );
}

/// Validates a `--report` run record with [`perfgate::check_record`].
fn cmd_check_metrics(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
    let n = perfgate::check_record(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    println!("check-metrics: {path} ok ({n} metrics, all required counters present)");
}

/// Deterministic perf gate: replays every committed `BENCH_*.json`
/// row's workload once — serially, since the gated names are
/// thread-invariant and one run therefore covers every `tN` row — and
/// fails listing every counter or histogram-total drift.
fn cmd_check_perf(mining_path: &str, compression_path: &str) {
    let mut drifts: Vec<String> = Vec::new();
    let mut compared = 0usize;
    check_perf_mining(mining_path, &mut drifts, &mut compared);
    check_perf_compression(compression_path, &mut drifts, &mut compared);
    if drifts.is_empty() {
        println!(
            "check-perf: {compared} baseline rows match \
             (thread-invariant counters and histogram totals)"
        );
    } else {
        for d in &drifts {
            eprintln!("check-perf: DRIFT {d}");
        }
        die(&format!("{} drift(s) across {} compared rows", drifts.len(), compared));
    }
}

fn load_baseline(path: &str) -> Vec<perfgate::BaselineRow> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
    perfgate::parse_baseline(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// Compares `obs` against every baseline row with this exact
/// `(id, param)`, accumulating drifts and marking the rows consumed so
/// leftovers can be reported as un-replayable.
fn compare_rows(
    rows: &[perfgate::BaselineRow],
    matched: &mut [bool],
    id: &str,
    param: &str,
    obs: &perfgate::Observed,
    drifts: &mut Vec<String>,
    compared: &mut usize,
) {
    for (i, row) in rows.iter().enumerate() {
        if row.id == id && row.param == param {
            drifts.extend(perfgate::compare(row, obs));
            matched[i] = true;
            *compared += 1;
        }
    }
}

fn check_perf_mining(path: &str, drifts: &mut Vec<String>, compared: &mut usize) {
    let rows = load_baseline(path);
    let mut matched = vec![false; rows.len()];
    for kind in [PresetKind::Connect4, PresetKind::Weather, PresetKind::Pumsb] {
        let prefix = format!("{}/t", dataset_name(kind));
        if !rows.iter().any(|r| r.param.starts_with(&prefix)) {
            continue;
        }
        // The mining bench archives at scale 0.01; replaying the same
        // preset at the same scale and ξ reproduces the same work.
        let preset = DatasetPreset::new(kind, 0.01);
        let db = preset.generate();
        let fp = Family::Hm.mine(&db, preset.xi_old());
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
        let xi_new = *preset.sweep().last().expect("non-empty sweep");
        let ladder = gogreen_bench::batchwork::zipf_ladder(&preset.sweep(), 8);
        let serial = Parallelism::serial();
        for family in Family::ALL {
            let raw = perfgate::measure(|| timed(family, &db, xi_new, serial).patterns);
            let rec = perfgate::measure(|| timed(family, &cdb, xi_new, serial).patterns);
            let batched = perfgate::measure(|| {
                gogreen_bench::batchwork::run_batched(
                    &db,
                    family,
                    &ladder,
                    gogreen_util::pool::Parallelism::serial(),
                )
            });
            let recycled_id = format!("{}-MCP", family.tag());
            let batch_id = format!("{}-Batch8", family.tag());
            for (i, row) in rows.iter().enumerate() {
                if !row.param.starts_with(&prefix) {
                    continue;
                }
                let obs = if row.id == family.name() {
                    &raw
                } else if row.id == recycled_id {
                    &rec
                } else if row.id == batch_id {
                    &batched
                } else {
                    continue;
                };
                drifts.extend(perfgate::compare(row, obs));
                matched[i] = true;
                *compared += 1;
            }
        }
    }
    for (i, row) in rows.iter().enumerate() {
        if !matched[i] {
            drifts.push(format!(
                "{}/{}: no replay workload for this baseline row",
                row.id, row.param
            ));
        }
    }
}

fn check_perf_compression(path: &str, drifts: &mut Vec<String>, compared: &mut usize) {
    let rows = load_baseline(path);
    let mut matched = vec![false; rows.len()];
    for kind in [PresetKind::Connect4, PresetKind::Weather] {
        let preset = DatasetPreset::new(kind, 0.01);
        let db = preset.generate();
        let fp = Family::Hm.mine(&db, preset.xi_old());
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let obs = perfgate::measure(|| Compressor::new(strategy).compress(&db, &fp));
            compare_rows(
                &rows,
                &mut matched,
                strategy.suffix(),
                preset.name(),
                &obs,
                drifts,
                compared,
            );
        }
        // Kernel-sweep replica (same ξ_old ladder as the bench). The
        // recycled-pattern count is embedded in the param, so a miner
        // drift changes the key and both sides report unmatched rows.
        let supports: &[f64] = match kind {
            PresetKind::Connect4 => &[0.95, 0.85, 0.75],
            _ => &[0.05, 0.02, 0.01],
        };
        for &rel in supports {
            let fp = Family::Hm.mine(&db, MinSupport::Relative(rel));
            let compressor = Compressor::new(Strategy::Mcp);
            let param = format!("{}/fp{}", preset.name(), fp.len());
            let linear = perfgate::measure(|| compressor.compress_reference(&db, &fp));
            compare_rows(&rows, &mut matched, "linear", &param, &linear, drifts, compared);
            let indexed = perfgate::measure(|| compressor.compress(&db, &fp));
            compare_rows(&rows, &mut matched, "indexed", &param, &indexed, drifts, compared);
        }
    }
    for (i, row) in rows.iter().enumerate() {
        if !matched[i] {
            drifts.push(format!(
                "{}/{}: no replay workload for this baseline row",
                row.id, row.param
            ));
        }
    }
}

/// E9: the projected-DB size distribution, raw vs MCP-recycled, per
/// engine family on the dense connect4 analog. Recycling shrinks the
/// database every projection slices, so the whole distribution should
/// shift left at an unchanged pattern count.
fn cmd_obs_hist(scale: f64, reporter: &Reporter) {
    println!(
        "\n== Extension: projected-DB size distribution, raw vs MCP-recycled \
         (connect4, ξ_new = sweep floor, scale {scale}) ==\n"
    );
    let preset = DatasetPreset::new(PresetKind::Connect4, scale);
    let db = preset.generate();
    let fp = Family::Hm.mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp);
    let xi_new = *preset.sweep().last().expect("non-empty sweep");
    let mut table: Vec<Vec<String>> = Vec::new();
    let serial = Parallelism::serial();
    for family in Family::ALL {
        for recycled in [false, true] {
            let ((engine, patterns), snap) = gogreen_obs::measure(|| {
                if recycled {
                    (format!("{}-MCP", family.tag()), timed(family, &cdb, xi_new, serial).patterns)
                } else {
                    (family.name().to_owned(), timed(family, &db, xi_new, serial).patterns)
                }
            });
            let h = snap.hists.get("mine.projected_db_size").cloned().unwrap_or_default();
            table.push(vec![
                engine.clone(),
                h.count.to_string(),
                format!("{:.1}", h.mean()),
                h.quantile_upper(0.5).to_string(),
                h.quantile_upper(0.9).to_string(),
                h.quantile_upper(1.0).to_string(),
                patterns.to_string(),
            ]);
            reporter
                .save_json(
                    "ext_obs_hist",
                    &gogreen_util::Json::obj([
                        ("engine", gogreen_util::Json::from(engine.as_str())),
                        ("recycled", gogreen_util::Json::from(recycled)),
                        ("patterns", gogreen_util::Json::from(patterns)),
                        ("hist", h.to_json()),
                    ]),
                )
                .expect("save extension");
        }
    }
    print!(
        "{}",
        render_table(
            &["engine", "projections", "mean size", "p50 ≤", "p90 ≤", "max ≤", "patterns"],
            &table
        )
    );
}

fn cmd_table3(scale: f64, reporter: &Reporter) {
    println!("\n== Table 3: dataset properties and compression statistics (scale {scale}) ==\n");
    let rows = run_table3(scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.tuples.to_string(),
                format!("{:.1}", r.avg_len),
                r.items.to_string(),
                format!("{}%", r.xi_old_pct),
                format!("{} (paper {})", r.patterns, r.paper_patterns),
                format!("{} (paper {})", r.max_len, r.paper_max_len),
                fmt_secs(r.t_io_mcp),
                fmt_secs(r.t_pipe_mcp),
                fmt_secs(r.t_io_mlp),
                fmt_secs(r.t_pipe_mlp),
                format!("{:.3}", r.ratio_mcp),
                format!("{:.3}", r.ratio_mlp),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "dataset",
                "tuples",
                "avg",
                "items",
                "ξ_old",
                "#patterns",
                "maxlen",
                "MCP io",
                "MCP pipe",
                "MLP io",
                "MLP pipe",
                "R(MCP)",
                "R(MLP)",
            ],
            &table,
        )
    );
    for r in &rows {
        reporter.save_json("table3", r).expect("save table3");
    }
}

fn cmd_figure(id: u8, scale: f64, reporter: &Reporter) {
    let res: FigureResult = run_figure(id, scale);
    let base = res.spec.family.name();
    let tag = res.spec.family.tag();
    println!(
        "\n== Figure {id}: {base} vs {tag}-MCP vs {tag}-MLP on {} (scale {scale}{}) ==",
        dataset_name(res.spec.dataset),
        if res.spec.log_y { ", log-y in the paper" } else { "" }
    );
    println!(
        "   ξ_old={}%: {} recycled patterns, mined in {}; compression MCP {} (R={:.3}) MLP {} (R={:.3})\n",
        res.xi_old_pct,
        res.recycled_patterns,
        fmt_secs(res.prep_mine_s),
        fmt_secs(res.mcp_compression.secs),
        res.mcp_compression.ratio,
        fmt_secs(res.mlp_compression.secs),
        res.mlp_compression.ratio,
    );
    let table: Vec<Vec<String>> = res
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}%", r.xi_new_pct),
                r.patterns.to_string(),
                fmt_secs(r.baseline_s),
                fmt_secs(r.mcp_s),
                fmt_secs(r.mlp_s),
                fmt_speedup(r.baseline_s, r.mcp_s),
                fmt_speedup(r.baseline_s, r.mlp_s),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "ξ_new",
                "patterns",
                base,
                &format!("{tag}-MCP"),
                &format!("{tag}-MLP"),
                "MCP speedup",
                "MLP speedup"
            ],
            &table,
        )
    );
    reporter.save_json(&format!("fig{id}"), &res).expect("save figure");
}

fn cmd_mem_figure(id: u8, scale: f64, reporter: &Reporter) {
    let res: MemFigureResult = run_mem_figure(id, scale);
    println!(
        "\n== Figure {id}: memory-limited H-Mine vs HM-MCP on {} (scale {scale}, budgets 4/8 MiB × scale) ==\n",
        dataset_name(res.dataset)
    );
    let table: Vec<Vec<String>> = res
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}MiB", r.budget_mib),
                format!("{}%", r.xi_new_pct),
                r.patterns.to_string(),
                fmt_secs(r.hmine_s),
                fmt_secs(r.hm_mcp_s),
                fmt_speedup(r.hmine_s, r.hm_mcp_s),
                r.hmine_spills.to_string(),
                r.hm_mcp_spills.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "budget",
                "ξ_new",
                "patterns",
                "H-Mine",
                "HM-MCP",
                "speedup",
                "HM spills",
                "MCP spills"
            ],
            &table,
        )
    );
    reporter.save_json(&format!("fig{id}"), &res).expect("save mem figure");
}

fn cmd_ablation(scale: f64, reporter: &Reporter) {
    println!("\n== Ablation 1: utility functions (connect4, lowest ξ_new of the sweep) ==\n");
    let rows = ablation::utility_ablation(PresetKind::Connect4, scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.to_owned(),
                format!("{:.3}", r.ratio),
                fmt_secs(r.compress_s),
                fmt_secs(r.mine_s),
            ]
        })
        .collect();
    print!("{}", render_table(&["strategy", "ratio", "compress", "HM mine"], &table));
    for r in &rows {
        reporter.save_json("ablation_utility", r).expect("save ablation");
    }

    println!("\n== Ablation 2: ξ_old sensitivity (connect4, fixed lowest ξ_new) ==\n");
    let rows = ablation::xi_old_sensitivity(PresetKind::Connect4, scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}%", r.xi_old_pct),
                r.recycled_patterns.to_string(),
                fmt_secs(r.prep_s),
                format!("{:.3}", r.ratio),
                fmt_secs(r.mine_s),
            ]
        })
        .collect();
    print!("{}", render_table(&["ξ_old", "patterns", "prep", "ratio", "HM-MCP mine"], &table));
    for r in &rows {
        reporter.save_json("ablation_xi_old", r).expect("save ablation");
    }

    println!("\n== Extension: incremental recycling across update batches (connect4) ==\n");
    let rows = ablation::incremental_experiment(PresetKind::Connect4, scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.tuples.to_string(),
                r.patterns.to_string(),
                fmt_secs(r.recycled_s),
                fmt_secs(r.scratch_s),
                fmt_speedup(r.scratch_s, r.recycled_s),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["tuples", "patterns", "incremental", "from scratch", "speedup"], &table)
    );
    for r in &rows {
        reporter.save_json("ext_incremental", r).expect("save extension");
    }

    println!("\n== Extension: two-step mining, the paper's stated future work (connect4) ==\n");
    let rows = ablation::two_step_experiment(PresetKind::Connect4, scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}%", r.target_pct),
                r.intermediate_abs.map_or("—".into(), |m| m.to_string()),
                r.patterns.to_string(),
                fmt_secs(r.single_s),
                fmt_secs(r.two_step_s),
                fmt_secs(r.two_step_mine_s),
                fmt_speedup(r.single_s, r.two_step_s),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["target ξ", "ξ_mid", "patterns", "single-step", "two-step", "(mine)", "speedup"],
            &table,
        )
    );
    for r in &rows {
        reporter.save_json("ext_twostep", r).expect("save extension");
    }

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "\n== Extension: parallel recycled mining (weather, RP-Mine, lowest ξ_new; {cores} core(s) available) ==\n"
    );
    let rows = ablation::parallel_experiment(PresetKind::Weather, scale);
    let base = rows[0].secs;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                r.patterns.to_string(),
                fmt_secs(r.secs),
                fmt_speedup(base, r.secs),
            ]
        })
        .collect();
    print!("{}", render_table(&["threads", "patterns", "time", "vs 1 thread"], &table));
    for r in &rows {
        reporter.save_json("ext_parallel", r).expect("save extension");
    }

    println!("\n== Ablation 3: Lemma 3.1 single-group shortcut (connect4, RP-Mine) ==\n");
    let a = ablation::lemma_ablation(PresetKind::Connect4, scale);
    print!(
        "{}",
        render_table(
            &["with shortcut", "without", "speedup", "patterns"],
            &[vec![
                fmt_secs(a.with_shortcut_s),
                fmt_secs(a.without_shortcut_s),
                fmt_speedup(a.without_shortcut_s, a.with_shortcut_s),
                a.patterns.to_string(),
            ]],
        )
    );
    reporter.save_json("ablation_lemma", &a).expect("save ablation");
}

fn cmd_compress_par(scale: f64, reporter: &Reporter) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for dataset in
        [PresetKind::Connect4, PresetKind::Pumsb, PresetKind::Weather, PresetKind::Forest]
    {
        println!(
            "\n== Extension: compression kernel on {} (MCP, scale {scale}; {cores} core(s) available) ==\n",
            dataset_name(dataset)
        );
        let rows = ablation::compress_kernel_experiment(dataset, scale);
        let linear_s = rows[0].secs;
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.kernel.to_owned(),
                    r.threads.to_string(),
                    fmt_secs(r.secs),
                    fmt_speedup(linear_s, r.secs),
                    r.groups.to_string(),
                ]
            })
            .collect();
        print!("{}", render_table(&["kernel", "threads", "time", "vs linear", "groups"], &table));
        for r in &rows {
            reporter.save_json("ext_compress_par", r).expect("save extension");
        }
    }
}

fn cmd_mine_par(scale: f64, reporter: &Reporter) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for dataset in [PresetKind::Connect4, PresetKind::Weather] {
        println!(
            "\n== Extension: parallel mining phase on {} (ξ_new = sweep floor, scale {scale}; \
             {cores} core(s) available) ==\n",
            dataset_name(dataset)
        );
        let rows = ablation::mine_par_experiment(dataset, scale);
        let base_of = |engine: &str| {
            rows.iter()
                .find(|r| r.engine == engine && r.threads == 1)
                .map(|r| r.secs)
                .expect("single-thread reference row")
        };
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.engine.clone(),
                    r.threads.to_string(),
                    fmt_secs(r.secs),
                    fmt_speedup(base_of(&r.engine), r.secs),
                    r.patterns.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(&["engine", "threads", "time", "vs 1 thread", "patterns"], &table)
        );
        for r in &rows {
            reporter.save_json("ext_mine_par", r).expect("save extension");
        }
    }
}

fn cmd_mine_vertical(scale: f64, reporter: &Reporter) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for dataset in [PresetKind::Connect4, PresetKind::Weather] {
        println!(
            "\n== Extension: horizontal vs vertical mining on {} (ξ_new = sweep floor, matched \
             across families, scale {scale}; {cores} core(s) available) ==\n",
            dataset_name(dataset)
        );
        let rows = ablation::mine_vertical_experiment(dataset, scale);
        let best_horizontal_of = |threads: usize| {
            rows.iter()
                .filter(|r| r.threads == threads && !r.engine.starts_with("Eclat"))
                .filter(|r| !r.engine.starts_with("VT"))
                .map(|r| r.secs)
                .fold(f64::INFINITY, f64::min)
        };
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.engine.clone(),
                    r.threads.to_string(),
                    fmt_secs(r.secs),
                    fmt_speedup(best_horizontal_of(r.threads), r.secs),
                    r.patterns.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(&["engine", "threads", "time", "vs best horiz.", "patterns"], &table)
        );
        for r in &rows {
            reporter.save_json("ext_mine_vertical", r).expect("save extension");
        }

        println!(
            "\n-- Representation ablation on {} (vt family, forced --vt-repr modes, serial) --\n",
            dataset_name(dataset)
        );
        let ablation_rows = ablation::vt_repr_ablation(dataset, scale);
        let table: Vec<Vec<String>> = ablation_rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    r.substrate.to_string(),
                    fmt_secs(r.secs),
                    r.bitmap_words.to_string(),
                    (r.tidlist_elems + r.diffset_words).to_string(),
                    r.repr_switches.to_string(),
                    format!("{:.1}", r.arena_bytes as f64 / 1024.0),
                    r.patterns.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &[
                    "repr",
                    "substrate",
                    "time",
                    "bm words",
                    "list elems",
                    "switches",
                    "arena KiB",
                    "patterns"
                ],
                &table
            )
        );
        for r in &ablation_rows {
            reporter.save_json("ext_mine_vertical", r).expect("save extension");
        }
    }
}

fn dataset_name(kind: PresetKind) -> &'static str {
    match kind {
        PresetKind::Weather => "weather",
        PresetKind::Forest => "forest",
        PresetKind::Connect4 => "connect4",
        PresetKind::Pumsb => "pumsb",
    }
}
