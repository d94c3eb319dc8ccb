//! The paper's motivating scenario: a user iteratively refines the
//! minimum support, and the session transparently decides whether to
//! answer from cache, by filtering, or by recycling.
//!
//! ```sh
//! cargo run --release --example interactive_session
//! ```

use gogreen::core::session::MiningSession;
use gogreen::prelude::*;
use gogreen_constraints::ConstraintSet;
use gogreen_datagen::{DatasetPreset, PresetKind};

fn main() {
    let db = DatasetPreset::new(PresetKind::Pumsb, 0.02).generate();
    println!("dataset: {} tuples (pumsb-like)\n", db.len());

    let mut session = MiningSession::new(db).with_engine(Family::Hm).with_strategy(Strategy::Mcp);

    // The user explores: start high, relax twice, jump back up, repeat a
    // query verbatim.
    let thresholds = [92.0, 88.0, 82.0, 90.0, 90.0];
    for pct in thresholds {
        let (patterns, report) =
            session.run_with_report(ConstraintSet::support_only(MinSupport::percent(pct)));
        let how = format!("{:?}", report.mode);
        let compression = report
            .compression
            .map(|c| format!(", compressed ratio {:.3} in {:.2?}", c.ratio, c.duration))
            .unwrap_or_default();
        println!(
            "ξ = {pct:>4}% → {:>6} patterns   [{how:<8} {:>9.2?}{compression}]",
            patterns.len(),
            report.mining_time,
        );
    }

    println!(
        "\nTightened thresholds were answered by filtering; relaxed ones by\n\
         compressing with the previous round's patterns and mining the\n\
         compressed database (paper §2)."
    );
}
