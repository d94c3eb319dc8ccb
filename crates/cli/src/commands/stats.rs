//! `gogreen stats <db.txt>` — dataset shape summary.

use crate::args::Args;
use crate::commands::load_db;

pub fn run(argv: Vec<String>) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let path = args.positional(0, "database path")?;
    let db = load_db(path)?;
    let s = db.stats();
    println!("{path}:");
    println!("  tuples         {}", s.num_tuples);
    println!("  avg length     {:.2}", s.avg_len);
    println!("  distinct items {}", s.num_items);
    println!("  occurrences    {}", s.total_items);
    if let Some(m) = s.max_item {
        println!("  max item id    {}", m.id());
    }
    // A quick support profile: how many items clear common thresholds.
    let counts = db.item_supports();
    for pct in [10.0f64, 5.0, 1.0, 0.1] {
        let min = ((s.num_tuples as f64) * pct / 100.0).ceil().max(1.0) as u64;
        let n = counts.iter().filter(|&&c| c >= min).count();
        println!("  items ≥ {pct:>4}%  {n}");
    }
    Ok(())
}
