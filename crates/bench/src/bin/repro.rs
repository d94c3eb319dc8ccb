//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale S] [--results DIR] [--report F] <command>
//!
//! commands:
//!   all          Table 3 + Figures 9–24 + ablations + the E4 and E8/E10
//!                extension tables
//!   table3       dataset properties and compression statistics
//!   figs         Figures 9–20 (in-memory sweeps)
//!   fig <N>      one figure, N in 9..=24
//!   memfigs      Figures 21–24 (memory-limited)
//!   ablation     ablations (utility fn, ξ_old) + two-step mining (E2)
//!   ext-compress-par
//!                compression-kernel sweep (E4): seed linear scan vs the
//!                indexed cover kernel at 1/2/4/8 threads
//!   ext-mine-vertical
//!                horizontal vs vertical head-to-head (E8): all four
//!                families at matched ξ_new, fresh and MCP-recycled,
//!                serial and 4 threads, plus the forced-representation
//!                ablation (E10)
//!   ext-batch    batched multi-query gate (E12): a k=8 Zipf ξ fleet
//!                answered by one shared pass touching ≤ 1.5× a solo
//!                run at ξ_min, streams identical at 1 and 8 threads
//!   ext-ooc      out-of-core gate (E11): connect4 in on-disk segments
//!                mined under a 1/4-dataset budget in one pass per
//!                segment, patterns identical to in-memory at 1 and 4
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
//! Every table is a list of pipeline specs projected onto its archived
//! columns (see `gogreen_bench::pipeline`). `--scale` multiplies the
//! paper's tuple counts (default 0.05). `--report F` records the whole
//! run and writes its run record (see `gogreen_obs::report`) to `F`.

use gogreen_bench::report::{fmt_secs, Reporter};
use gogreen_bench::{ablation, experiments, figures, perfgate, Experiment, PipelineSpec};
use gogreen_bench::{Runner, DEFAULT_SCALE};
use gogreen_core::Strategy;
use gogreen_data::MinSupport;
use gogreen_datagen::PresetKind;
use gogreen_miners::{Family, Miner};
use gogreen_obs::report::Report;
use gogreen_obs::Recorder;

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
    let emit = |exps: Vec<Experiment>| {
        for exp in exps {
            let records = exp.run();
            reporter.emit(&exp.file, &exp.title, &records).expect("save results");
        }
    };
    match command {
        "fig" => {
            let id: u8 = rest
                .get(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die("fig expects a number in 9..=24"));
            match id {
                9..=20 => emit(vec![figures::figure(id, scale)]),
                21..=24 => emit(vec![figures::mem_figure(id, scale)]),
                _ => die("figure id must be in 9..=24"),
            }
        }
        "ext-batch" => {
            for kind in [PresetKind::Weather, PresetKind::Connect4] {
                ablation::batch_streams_agree(kind, scale).unwrap_or_else(|e| die(&e));
            }
            emit(ablation::batch(scale));
            println!(
                "\next-batch: ok — shared pass ≤ 1.5× a single ξ_min run on both analogs, \
                 per-query streams byte-identical at 1 and 8 threads"
            );
        }
        "ext-ooc" => cmd_ext_ooc(scale, &reporter).unwrap_or_else(|e| die(&e)),
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
        other => match experiments(other, scale) {
            Some(exps) => emit(exps),
            None => die(&format!("unknown command {other:?} (try --help)")),
        },
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
         <all|table3|figs|memfigs|fig N|ablation|ext-compress-par|ext-mine-vertical|\n\
         ext-batch|ext-ooc|quick|check-metrics F|check-perf [F F]>\n\
         Regenerates the paper's Table 3 and Figures 9-24, plus ablations and\n\
         extension experiments (scale {DEFAULT_SCALE} by default)."
    );
}

/// One mine→compress→recycle round on the weather analog, small enough
/// for a CI smoke job but touching every instrumented phase.
fn cmd_quick(scale: f64) {
    let base = PipelineSpec::new(PresetKind::Weather, scale.min(0.02));
    let spec = PipelineSpec { xi_new: Some(MinSupport::percent(2.0)), ..base };
    let run = Runner::default().run(&spec.mining(Family::Hm, Some(Strategy::Mcp)));
    let stats = run.compression.unwrap_or_default();
    println!(
        "quick: weather ×{} — {} tuples, {} recycled patterns, ratio {:.3}, {} patterns at 2% in {}",
        spec.preset.scale,
        run.setup.db.num_tuples,
        run.setup.recycled,
        stats.ratio,
        run.patterns,
        fmt_secs(stats.duration.as_secs_f64()),
    );
}

/// E11: the out-of-core datapath. Streams the connect4 analog into
/// on-disk segments (never materializing it), mines at the sweep floor
/// under a resident budget of 1/4 the dataset, and **requires** one full
/// payload pass per segment and a pattern stream byte-identical to the
/// in-memory run at 1 and 4 threads — this is the acceptance gate CI's
/// ooc-smoke job runs.
fn cmd_ext_ooc(scale: f64, reporter: &Reporter) -> Result<(), String> {
    use gogreen_storage::{MemoryBudget, OocMiner, SegmentWriter, SegmentedDb};
    use gogreen_util::pool::Parallelism;

    let preset = PipelineSpec::new(PresetKind::Connect4, scale).preset;
    let dir = std::env::temp_dir().join(format!("gogreen-ext-ooc-{}", std::process::id()));
    let io = |e: std::io::Error| format!("{dir:?}: {e}");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(io)?;
    }
    // Stream rows straight into segments — peak write-side memory is one
    // open segment, regardless of dataset size.
    let mut w = SegmentWriter::create(&dir, 32 << 10).map_err(io)?;
    let mut pushed = Ok(());
    preset.for_each_transaction(|row| pushed = pushed.clone().and(w.push_row(row).map_err(io)));
    pushed?;
    let segments = w.finish().map_err(io)?;
    let seg = SegmentedDb::open(&dir).map_err(io)?;
    let budget = (seg.total_payload_bytes() / 4) as usize;
    if seg.max_segment_bytes() > budget {
        return Err("a single segment exceeds the 1/4 budget; raise --scale".into());
    }
    let seg = seg.with_budget(MemoryBudget::bytes(budget));
    let xi_new = *preset.sweep().last().expect("non-empty sweep");
    // In-memory reference stream (canonical sorted pattern file bytes).
    let expected = ablation::pattern_bytes(&Family::Hm.mine(&preset.generate(), xi_new));
    let mut records = Vec::new();
    for threads in [1usize, 4] {
        let t0 = std::time::Instant::now();
        let (patterns, snap) = gogreen_obs::measure(|| {
            OocMiner::new(&seg).with_parallelism(Parallelism::threads(threads)).mine(xi_new)
        });
        let patterns = patterns.map_err(|e| format!("out-of-core mining: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        let passes = snap.value("storage.segments_read").unwrap_or(0);
        let peak = snap.value("storage.resident_peak").unwrap_or(0);
        if passes != segments as u64 {
            return Err(format!("expected one pass per segment ({segments}), measured {passes}"));
        }
        if peak as usize > budget {
            return Err(format!("resident peak {peak} exceeds the {budget}-byte budget"));
        }
        if ablation::pattern_bytes(&patterns) != expected {
            return Err(format!("t{threads}: out-of-core pattern stream diverges from in-memory"));
        }
        records.push(ablation::ooc_record(threads, secs, patterns.len(), &snap, segments, budget));
    }
    std::fs::remove_dir_all(&dir).map_err(io)?;
    let title = "Extension: out-of-core mining under a 1/4-dataset budget (connect4)";
    reporter.emit("ext_ooc", title, &records).map_err(io)?;
    println!(
        "\next-ooc: ok — {segments} segments, budget {} KiB (dataset {} KiB), \
         byte-identical pattern stream at 1 and 4 threads",
        budget >> 10,
        seg.total_payload_bytes() >> 10,
    );
    Ok(())
}

/// Validates a `--report` run record with [`perfgate::check_record`].
fn cmd_check_metrics(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
    let n = perfgate::check_record(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    println!("check-metrics: {path} ok ({n} metrics, all required counters present)");
}

/// Deterministic perf gate ([`perfgate::check_perf`]): fails listing
/// every counter or histogram-total drift.
fn cmd_check_perf(mining_path: &str, compression_path: &str) {
    let load = |path: &str| {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
        perfgate::parse_baseline(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
    };
    let archives = [("mining", load(mining_path)), ("compression", load(compression_path))];
    let (compared, drifts) = perfgate::check_perf(&archives);
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
