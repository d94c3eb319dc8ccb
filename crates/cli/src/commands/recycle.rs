//! `gogreen recycle <db.txt> --patterns <fp.txt> --support <ξ>` — the
//! paper's two-phase pipeline from the command line.

use crate::args::{parse_support, Args};
use crate::commands::{
    load_db, measure_arena_bytes, parse_strategy, parse_threads, recycling_miner, setup_obs,
    show_bytes, show_support,
};
use gogreen_core::Compressor;
use std::time::Instant;

pub fn run(argv: Vec<String>) -> Result<(), String> {
    let args = Args::parse(argv)?;
    let obs = setup_obs(&args)?;
    let path = args.positional(0, "database path")?;
    let db = load_db(path)?;
    let fp_path = args.required("patterns")?;
    let fp = gogreen_data::pattern_io::read_patterns_file(fp_path)
        .map_err(|e| format!("reading {fp_path}: {e}"))?;
    let support = parse_support(args.required("support")?)?;
    let strategy = parse_strategy(args.opt("strategy"))?;
    let par = parse_threads(args.opt("threads"))?;
    let algo = args.opt("algo").unwrap_or("hm");
    let miner = recycling_miner(algo, &args)?;

    let start = Instant::now();
    let (cdb, stats) =
        Compressor::new(strategy).with_parallelism(par).compress_with_stats(&db, &fp);
    let compress_time = start.elapsed();
    let start = Instant::now();
    let (patterns, arena_bytes) = measure_arena_bytes(|| miner.mine_par(&cdb, support, par));
    let mine_time = start.elapsed();

    println!("{path}: recycled {} patterns [{}-{}]", fp.len(), miner.name(), strategy.suffix());
    println!(
        "  compression  {compress_time:.2?} (ratio {:.4}, {} groups covering {}/{})",
        stats.ratio, stats.num_groups, stats.covered_tuples, stats.num_tuples
    );
    println!(
        "  mining       {mine_time:.2?} → {} patterns at {} (arena {})",
        patterns.len(),
        show_support(support, db.len()),
        show_bytes(arena_bytes),
    );
    if let Some(out) = args.opt("o") {
        gogreen_data::pattern_io::write_patterns_file(&patterns, out)
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    obs.finish()
}
