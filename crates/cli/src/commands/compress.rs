//! `gogreen compress <db.txt> --patterns <fp.txt>` — compress and report
//! the paper's Table 3 statistics for one database/pattern-set pair.

use crate::commands::{
    load_db, measure_storage, parse_bytes, parse_strategy, parse_threads, setup_obs, show_bytes,
};
use gogreen_core::Compressor;
use gogreen_storage::{MemoryBudget, OocMiner, SegmentedDb};

/// The options `compress` accepts.
const OPTIONS: &[&str] = &["db-dir", "patterns", "strategy", "threads", "budget"];

pub fn run(argv: Vec<String>) -> Result<(), String> {
    let (args, obs) = setup_obs(argv, OPTIONS)?;
    let db_dir = args.opt("db-dir").map(str::to_owned);
    let path = match &db_dir {
        Some(dir) => dir.clone(),
        None => args.positional(0, "database path (or --db-dir)")?.to_owned(),
    };
    let fp_path = args.required("patterns")?;
    let fp = gogreen_data::pattern_io::read_patterns_file(fp_path)
        .map_err(|e| format!("reading {fp_path}: {e}"))?;
    let strategy = parse_strategy(args.opt("strategy"))?;
    let par = parse_threads(args.opt("threads"))?;

    let (cdb, stats, raw_bpt, storage_row) = match &db_dir {
        Some(dir) => {
            // Out-of-core: one cover pass per segment; identical result
            // to compressing the materialized database.
            let mut seg = SegmentedDb::open(dir).map_err(|e| format!("opening {dir}: {e}"))?;
            if let Some(b) = args.opt("budget") {
                seg = seg.with_budget(MemoryBudget::bytes(parse_bytes(b)?));
            }
            let (out, _, traffic) = measure_storage(|| {
                OocMiner::new(&seg).with_parallelism(par).compress(&fp, strategy)
            });
            let (cdb, stats) = out.map_err(|e| format!("compressing {dir}: {e}"))?;
            // Raw CSR footprint of the segmented store: data + offsets.
            let raw_bpt = (seg.total_elems() * 4 + (seg.total_rows() + 1) * 4) as f64
                / seg.total_rows().max(1) as f64;
            let row = format!(
                "{} segments in {} passes, resident peak {}",
                seg.num_segments(),
                traffic.passes,
                show_bytes(traffic.resident_peak),
            );
            (cdb, stats, raw_bpt, Some(row))
        }
        None => {
            let db = load_db(&path)?;
            let (cdb, stats) =
                Compressor::new(strategy).with_parallelism(par).compress_with_stats(&db, &fp);
            (cdb, stats, db.stats().bytes_per_tuple, None)
        }
    };
    println!("{path} compressed with {} patterns [{}]:", fp.len(), strategy.suffix());
    println!("  groups          {}", stats.num_groups);
    println!("  covered tuples  {} / {}", stats.covered_tuples, stats.num_tuples);
    println!("  ratio S_c/S_o   {:.4}", stats.ratio);
    // In-memory footprint per tuple: compressed CSR sections vs the raw
    // database's CSR storage.
    println!("  bytes/tuple     {:.1} (raw {raw_bpt:.1})", cdb.stats().bytes_per_tuple);
    println!("  time            {:.2?}", stats.duration);
    if let Some(row) = storage_row {
        println!("  storage         {row}");
    }
    // Top groups by member count.
    let mut groups: Vec<_> = cdb.groups().collect();
    groups.sort_by_key(|g| std::cmp::Reverse(g.count()));
    for g in groups.iter().take(8) {
        let ids: Vec<String> = g.pattern.iter().map(|i| i.id().to_string()).collect();
        println!("  group {{{}}} × {}", ids.join(" "), g.count());
    }
    if groups.len() > 8 {
        println!("  … {} more groups", groups.len() - 8);
    }
    obs.finish()
}
