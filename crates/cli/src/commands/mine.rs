//! `gogreen mine <db.txt> --support <ξ> …` — mine frequent patterns,
//! optionally with pushed constraints, writing `items : support` lines.

use crate::args::{parse_items, parse_support, Args};
use crate::commands::{
    load_db, measure_arena_bytes, measure_storage, parse_bytes, parse_family, parse_threads,
    raw_miner, setup_obs, show_bytes, show_support,
};
use gogreen_constraints::{Constraint, ConstraintSet, ItemAttributes, Pushdown};
use gogreen_core::batch::{BatchQuery, QueryBatch};
use gogreen_core::oracle::NaiveProjection;
use gogreen_data::{CollectSink, Item, MinSupport, PatternSet, TransactionDb};
use gogreen_miners::engine::hm;
use gogreen_miners::Family;
use gogreen_storage::{MemoryBudget, OocMiner, SegmentedDb};
use gogreen_util::pool::Parallelism;
use gogreen_util::Json;
use std::time::Instant;

/// The options `mine` accepts.
const OPTIONS: &[&str] = &[
    "db-dir",
    "batch",
    "support",
    "algo",
    "vt-repr",
    "threads",
    "max-length",
    "items",
    "budget",
    "filter",
    "o",
];

pub fn run(argv: Vec<String>) -> Result<(), String> {
    let (args, obs) = setup_obs(argv, OPTIONS)?;
    let db_dir = args.opt("db-dir").map(str::to_owned);
    let path = match &db_dir {
        Some(dir) => dir.clone(),
        None => args.positional(0, "database path (or --db-dir)")?.to_owned(),
    };
    if let Some(spec) = args.opt("batch") {
        if db_dir.is_some() {
            return Err("--batch does not combine with --db-dir".into());
        }
        run_batch(&args, &path, spec)?;
        return obs.finish();
    }
    let support = parse_support(args.required("support")?)?;
    let algo = args.opt("algo").unwrap_or("hmine");
    let par = parse_threads(args.opt("threads"))?;

    // Pushable constraints.
    let mut cs = ConstraintSet::support_only(support);
    if let Some(k) = args.opt("max-length") {
        let k: usize = k.parse().map_err(|_| format!("invalid --max-length {k:?}"))?;
        cs = cs.with(Constraint::MaxLength(k));
    }
    if let Some(list) = args.opt("items") {
        let items: Vec<Item> = parse_items(list)?.into_iter().map(Item).collect();
        cs = cs.with(Constraint::SubsetOf(items));
    }
    let attrs = ItemAttributes::new();
    let pushdown = Pushdown::from_constraints(&cs, &attrs);

    let start = Instant::now();
    let (mut patterns, db_len, summary) = match &db_dir {
        Some(dir) => {
            // Out-of-core: one rank-encode pass per segment, identical
            // output to materializing the store. Pushed constraints are
            // applied as post-filters (same result set).
            let family = parse_family(algo, &args)?.ok_or_else(|| {
                format!("--db-dir supports --algo {}, not {algo:?}", Family::keys())
            })?;
            let mut seg = SegmentedDb::open(dir).map_err(|e| format!("opening {dir}: {e}"))?;
            if let Some(b) = args.opt("budget") {
                seg = seg.with_budget(MemoryBudget::bytes(parse_bytes(b)?));
            }
            let (patterns, arena_bytes, traffic) = measure_storage(|| {
                let mut sp = gogreen_obs::span("mine");
                let patterns = OocMiner::new(&seg)
                    .with_engine(family)
                    .with_parallelism(par)
                    .mine(support)
                    .map_err(|e| format!("mining {dir}: {e}"))?;
                sp.field("algo", algo).field("patterns", patterns.len());
                Ok::<_, String>(patterns.filter(|p| pushdown.prefix_ok(p.items(), &attrs)))
            });
            let summary = format!(
                "{algo}, arena {}, {} segments in {} passes, resident peak {}",
                show_bytes(arena_bytes),
                seg.num_segments(),
                traffic.passes,
                show_bytes(traffic.resident_peak),
            );
            (patterns?, seg.total_rows(), summary)
        }
        None => {
            let db = load_db(&path)?;
            let (patterns, arena_bytes) =
                measure_arena_bytes(|| mine(&db, support, algo, par, &args, &pushdown, &attrs));
            (patterns?, db.len(), format!("{algo}, arena {}", show_bytes(arena_bytes)))
        }
    };
    let elapsed = start.elapsed();
    // Optional condensed-representation post-filters.
    match args.opt("filter") {
        Some("closed") => patterns = patterns.closed_only(),
        Some("maximal") => patterns = patterns.maximal_only(),
        Some(other) => return Err(format!("unknown --filter {other:?} (closed|maximal)")),
        None => {}
    }

    println!(
        "{path}: {} patterns at {} in {elapsed:.2?} [{summary}]",
        patterns.len(),
        show_support(support, db_len),
    );
    match args.opt("o") {
        Some(out) => {
            gogreen_data::pattern_io::write_patterns_file(&patterns, out)
                .map_err(|e| format!("writing {out}: {e}"))?;
            println!("wrote {out}");
        }
        None => {
            // Print the top patterns by support, longest first on ties.
            let mut v = patterns.sorted();
            v.sort_by(|a, b| b.support().cmp(&a.support()).then(b.len().cmp(&a.len())));
            for p in v.iter().take(20) {
                println!("  {p}");
            }
            if v.len() > 20 {
                println!("  … {} more (use -o to save all)", v.len() - 20);
            }
        }
    }
    obs.finish()
}

fn mine(
    db: &TransactionDb,
    support: MinSupport,
    algo: &str,
    par: Parallelism,
    args: &Args,
    pushdown: &Pushdown,
    attrs: &ItemAttributes,
) -> Result<PatternSet, String> {
    // Constraint pushdown into the search is serial-only, and only
    // H-Mine and the naive oracle provide it; otherwise mine
    // unconstrained — fanning the first-level projections out over
    // `par` threads — and post-filter the pushed constraints. With
    // nothing pushed, the pruned path would only cost H-Mine its Lemma
    // 3.1 shortcut and raw fast path (and change its counters). Either
    // way the search runs under one `mine` span: `Miner::mine_par` opens
    // its own.
    let is_hm = parse_family(algo, args)? == Some(Family::Hm);
    if par.is_serial() && !pushdown.is_empty() && (is_hm || algo == "naive") {
        let prune = pushdown.search(attrs);
        let mut sp = gogreen_obs::span("mine");
        let mut sink = CollectSink::new();
        if is_hm {
            hm::mine_db_pruned(db, support, &prune, &mut sink);
        } else {
            NaiveProjection.mine_pruned(db, support, &prune, &mut sink);
        }
        let set = sink.into_set();
        sp.field("engine", algo).field("patterns", set.len());
        return Ok(set);
    }
    let miner = raw_miner(algo, args)?;
    Ok(miner.mine_par(db, support, par).filter(|p| pushdown.prefix_ok(p.items(), attrs)))
}

/// `gogreen mine <db.txt> --batch <spec.json>` — one shared pass answers
/// a fleet of (ξ, constraint) queries. The spec is a JSON array of query
/// objects (or `{"queries": [...]}`), each with a `support` ("3%" or an
/// absolute count), an optional `label` (defaults to `q<i>`), an
/// optional `max-length`, and an optional `items` allow-list. Every
/// query's output is byte-identical to a solo `mine` run with the same
/// constraints.
fn run_batch(args: &Args, path: &str, spec_path: &str) -> Result<(), String> {
    let algo = args.opt("algo").unwrap_or("hmine");
    let par = parse_threads(args.opt("threads"))?;
    let family = parse_family(algo, args)?
        .ok_or_else(|| format!("--batch supports --algo {}, not {algo:?}", Family::keys()))?;
    for flag in ["support", "max-length", "items", "filter"] {
        if args.opt(flag).is_some() {
            return Err(format!("--{flag} belongs inside the --batch spec, not the command line"));
        }
    }

    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("reading {spec_path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parsing {spec_path}: {e}"))?;
    let entries = json
        .get("queries")
        .and_then(Json::as_arr)
        .or_else(|| json.as_arr())
        .ok_or_else(|| format!("{spec_path}: expected a JSON array of queries"))?;
    if entries.is_empty() {
        return Err(format!("{spec_path}: batch has no queries"));
    }

    let mut batch = QueryBatch::new().with_parallelism(par);
    let mut labels = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let label = match entry.get("label") {
            Some(l) => l
                .as_str()
                .ok_or_else(|| format!("{spec_path}: query #{i}: label must be a string"))?
                .to_owned(),
            None => format!("q{i}"),
        };
        if labels.contains(&label) {
            return Err(format!("{spec_path}: duplicate label {label:?}"));
        }
        let support = entry
            .get("support")
            .ok_or_else(|| format!("{spec_path}: query {label:?} lacks a support"))?;
        let support = match (support.as_str(), support.as_u64()) {
            (Some(s), _) => parse_support(s)?,
            (None, Some(n)) => MinSupport::Absolute(n),
            _ => return Err(format!("{spec_path}: query {label:?}: bad support")),
        };
        let mut cs = ConstraintSet::support_only(support);
        if let Some(k) = entry.get("max-length") {
            let k = k
                .as_u64()
                .ok_or_else(|| format!("{spec_path}: query {label:?}: bad max-length"))?;
            cs = cs.with(Constraint::MaxLength(k as usize));
        }
        if let Some(list) = entry.get("items") {
            let ids = list
                .as_arr()
                .and_then(|a| a.iter().map(Json::as_u64).collect::<Option<Vec<u64>>>())
                .ok_or_else(|| format!("{spec_path}: query {label:?}: bad items list"))?;
            cs = cs.with(Constraint::SubsetOf(ids.into_iter().map(|v| Item(v as u32)).collect()));
        }
        batch.push(BatchQuery::new(label.clone(), cs));
        labels.push(label);
    }

    let db = load_db(path)?;
    let start = Instant::now();
    let out = batch.run(&db, family)?;
    let elapsed = start.elapsed();
    let plan = &out.report.plan;
    println!(
        "{path}: {} queries in one pass at xi_min={} ({} admitted, {} solo) in {elapsed:.2?} \
         [{algo}, {} shared patterns]",
        labels.len(),
        plan.xi_min,
        plan.admitted.len(),
        plan.rejected.len(),
        out.report.shared_patterns,
    );
    for (i, label) in labels.iter().enumerate() {
        let how = if plan.rejected.contains(&i) { "solo" } else { "shared" };
        println!(
            "  {label}: {} patterns at {} ({how})",
            out.results[i].len(),
            show_support(batch.queries()[i].constraints().min_support(), db.len()),
        );
    }
    if let Some(prefix) = args.opt("o") {
        for (i, label) in labels.iter().enumerate() {
            let out_path = format!("{prefix}.{label}.txt");
            gogreen_data::pattern_io::write_patterns_file(&out.results[i], &out_path)
                .map_err(|e| format!("writing {out_path}: {e}"))?;
            println!("wrote {out_path}");
        }
    }
    Ok(())
}
