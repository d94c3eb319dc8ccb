//! `gogreen diff <new.txt> <old.txt>` — what changed between two mining
//! rounds' pattern files.

use crate::args::Args;
use gogreen_data::pattern_io::read_patterns_file;

pub fn run(argv: Vec<String>) -> Result<(), String> {
    let args = Args::parse(argv, &["limit"])?;
    let new_path = args.positional(0, "new pattern file")?;
    let old_path = args.positional(1, "old pattern file")?;
    let new = read_patterns_file(new_path).map_err(|e| format!("reading {new_path}: {e}"))?;
    let old = read_patterns_file(old_path).map_err(|e| format!("reading {old_path}: {e}"))?;

    let appeared = new.difference(&old);
    let vanished = old.difference(&new);
    let kept = new.intersection(&old);
    println!(
        "{new_path} vs {old_path}: +{} appeared, -{} vanished, {} kept",
        appeared.len(),
        vanished.len(),
        kept.len()
    );
    let limit: usize = args.opt("limit").and_then(|v| v.parse().ok()).unwrap_or(15);
    let mut shown = appeared.sorted();
    shown.sort_by_key(|p| std::cmp::Reverse(p.support()));
    for p in shown.iter().take(limit) {
        println!("  + {p}");
    }
    if shown.len() > limit {
        println!("  … {} more new patterns (--limit N to show more)", shown.len() - limit);
    }
    Ok(())
}
