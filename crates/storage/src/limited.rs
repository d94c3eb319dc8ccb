//! Memory-limited mining drivers (paper Figure 3 + §5.3).
//!
//! One private driver runs Algorithm *Recycling*'s outer loop over a
//! [`CompressedRankDb`]: estimate the in-memory structure (`EM(D)`), mine
//! in memory when it fits the budget, otherwise *parallel-project* the
//! database onto its frequent items on disk and recurse per partition.
//! The root and every partition pass through the same level: budget
//! check, load (partitions only), streaming count, keep-filter,
//! re-projection and emit-and-descend. The paper's §5.3 compares
//! H-Mine against HM-MCP under 4 MiB and 8 MiB budgets; the two entry
//! points are that pair and differ only in what enters the driver:
//!
//! * [`LimitedHMine`] — a plain database enters as its all-plain
//!   compressed form (a compressed database with no groups, the paper's
//!   own identity), priced by the H-Mine hyper-structure estimate.
//! * [`LimitedRecycleHm`] — a compressed database enters as its rank
//!   form, priced by the RP-Struct estimate. Spilled partitions keep
//!   their group structure (each group stored once per partition), so the
//!   recycling savings survive the disk round-trip.
//!
//! Every level is read as a stream of [`GroupView`]s: the root's groups
//! and then its whole plain residue as one view with an empty pattern,
//! or a partition's chunks (each chunk's groups, then its plain rows as
//! one view), which the spill reader has already held to the rank
//! database's invariants. Counting, re-projection and
//! loading each have one body for both. Every level that fits is mined
//! as its rank layout; H-Mine itself takes its classic group-free fast
//! path on a level without groups.

use crate::budget::MemoryBudget;
use crate::spill::SpillManager;
use gogreen_core::memory::{estimate_hmine_bytes, estimate_rp_struct_bytes};
use gogreen_data::{
    CollectSink, CompressedDb, CompressedRankDb, CsrTuples, FList, GroupView, Item, MinSupport,
    PatternSet, PatternSink, TransactionDb,
};
use gogreen_miners::engine::hm;
use gogreen_obs::metrics;
use gogreen_util::pool::Parallelism;
use gogreen_util::FxHashMap;
use std::io;

/// I/O metrics of one memory-limited run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LimitedReport {
    /// Times a (sub-)database was projected to disk instead of mined in
    /// memory.
    pub spills: usize,
    /// Partitions mined after loading from disk.
    pub loads: usize,
    /// Total bytes written by parallel projection.
    pub disk_bytes: u64,
    /// Deepest spill nesting reached (0 = everything fit in memory).
    pub max_depth: usize,
}

/// Memory-limited plain H-Mine.
#[derive(Debug, Clone, Copy)]
pub struct LimitedHMine {
    budget: MemoryBudget,
}

impl LimitedHMine {
    /// A driver with the given budget.
    pub fn new(budget: MemoryBudget) -> Self {
        LimitedHMine { budget }
    }

    /// Mines `db`, spilling as the budget demands.
    pub fn mine_into(
        &self,
        db: &TransactionDb,
        min_support: MinSupport,
        sink: &mut dyn PatternSink,
    ) -> io::Result<LimitedReport> {
        let minsup = min_support.to_absolute(db.len());
        let flist = FList::from_db(db, minsup);
        let rdb = CompressedRankDb::encode(db, &flist);
        let est = estimate_hmine_bytes(rdb.plain().total_elems(), rdb.plain().len());
        Recycling { budget: self.budget, flist: &flist, minsup }.run(&rdb, est, sink)
    }

    /// Collects into a [`PatternSet`] alongside the report.
    pub fn mine(
        &self,
        db: &TransactionDb,
        min_support: MinSupport,
    ) -> io::Result<(PatternSet, LimitedReport)> {
        let mut sink = CollectSink::new();
        let report = self.mine_into(db, min_support, &mut sink)?;
        Ok((sink.into_set(), report))
    }
}

/// Memory-limited Recycle-HM over a compressed database.
#[derive(Debug, Clone, Copy)]
pub struct LimitedRecycleHm {
    budget: MemoryBudget,
}

impl LimitedRecycleHm {
    /// A driver with the given budget.
    pub fn new(budget: MemoryBudget) -> Self {
        LimitedRecycleHm { budget }
    }

    /// Mines `cdb`, spilling as the budget demands.
    pub fn mine_into(
        &self,
        cdb: &CompressedDb,
        min_support: MinSupport,
        sink: &mut dyn PatternSink,
    ) -> io::Result<LimitedReport> {
        let minsup = min_support.to_absolute(cdb.num_tuples());
        let flist = cdb.flist(minsup);
        let rdb = cdb.to_ranks(&flist);
        let est = estimate_rp_struct_bytes(&rdb);
        Recycling { budget: self.budget, flist: &flist, minsup }.run(&rdb, est, sink)
    }

    /// Collects into a [`PatternSet`] alongside the report.
    pub fn mine(
        &self,
        cdb: &CompressedDb,
        min_support: MinSupport,
    ) -> io::Result<(PatternSet, LimitedReport)> {
        let mut sink = CollectSink::new();
        let report = self.mine_into(cdb, min_support, &mut sink)?;
        Ok((sink.into_set(), report))
    }
}

/// Figure 3 under one budget, over a database rank-encoded against
/// `flist` at absolute support `minsup`.
struct Recycling<'a> {
    budget: MemoryBudget,
    flist: &'a FList,
    minsup: u64,
}

/// One database of the recursion: the in-memory root with its estimated
/// structure size, or one partition of a spill level.
#[derive(Clone, Copy)]
enum Level<'a> {
    Root(&'a CompressedRankDb, usize),
    Partition(&'a SpillManager, u32),
}

impl Level<'_> {
    /// Feeds the level to `f` as views, stopping at the first error: the
    /// root's groups then its plain residue as one view with an empty
    /// pattern, or a partition's chunks in file order.
    fn for_each(self, mut f: impl FnMut(GroupView<'_>) -> io::Result<()>) -> io::Result<()> {
        match self {
            Level::Root(rdb, _) => {
                rdb.groups().try_for_each(&mut f)?;
                f(GroupView { pattern: &[], outliers: rdb.plain(), bare: 0 })
            }
            Level::Partition(mgr, r) => mgr.for_each_record(r, f),
        }
    }
}

impl Recycling<'_> {
    fn run(
        &self,
        rdb: &CompressedRankDb,
        est: usize,
        sink: &mut dyn PatternSink,
    ) -> io::Result<LimitedReport> {
        let mut report = LimitedReport::default();
        if !self.flist.is_empty() {
            let mut prefix = Vec::with_capacity(8);
            self.mine_level(Level::Root(rdb, est), 0, &mut prefix, sink, &mut report)?;
        }
        Ok(report)
    }

    /// Mines `level`'s database, every pattern extending `prefix`: in
    /// memory when its estimate fits the budget, otherwise by projecting
    /// it onto its locally frequent ranks one spill level deeper.
    fn mine_level(
        &self,
        level: Level<'_>,
        depth: usize,
        prefix: &mut Vec<Item>,
        sink: &mut dyn PatternSink,
        report: &mut LimitedReport,
    ) -> io::Result<()> {
        let est = match level {
            Level::Root(_, est) => est,
            Level::Partition(mgr, r) if mgr.partition_tuples(r) > 0 => mgr.estimated_memory(r),
            Level::Partition(..) => return Ok(()),
        };
        metrics::set_max("storage.budget_high_water", est as u64);
        let n = self.flist.len();
        if self.budget.fits(est) {
            let loaded;
            let rdb = match level {
                Level::Root(rdb, _) => rdb,
                Level::Partition(..) => {
                    let mut rdb = CompressedRankDb::empty(n);
                    level.for_each(|g| {
                        rdb.push_view(g);
                        Ok(())
                    })?;
                    report.loads += 1;
                    loaded = rdb;
                    &loaded
                }
            };
            hm::mine_source_par(rdb, self.flist, prefix, self.minsup, Parallelism::serial(), sink);
            return Ok(());
        }
        // Too big: parallel projection one level deeper (paper §3.3).
        report.spills += 1;
        report.max_depth = report.max_depth.max(depth + 1);
        let mut counts = vec![0u64; n];
        level.for_each(|g| {
            g.pattern.iter().for_each(|&x| counts[x as usize] += g.count());
            g.outliers.flat().iter().for_each(|&x| counts[x as usize] += 1);
            Ok(())
        })?;
        let keep: Vec<bool> = counts.iter().map(|&c| c >= self.minsup).collect();
        if !keep.contains(&true) {
            return Ok(());
        }
        let mut sub = SpillManager::new(n)?;
        let mut filtered = Vec::new();
        level.for_each(|g| project(g, &keep, &mut filtered, &mut sub))?;
        sub.finish()?;
        report.disk_bytes += sub.total_bytes();
        for (x, &c) in counts.iter().enumerate().filter(|&(x, _)| keep[x]) {
            prefix.push(self.flist.item(x as u32));
            sink.emit(prefix, c);
            self.mine_level(Level::Partition(&sub, x as u32), depth + 1, prefix, sink, report)?;
            prefix.pop();
        }
        Ok(())
    }
}

/// Parallel projection of one view: writes its projection onto *every*
/// rank it contains into `mgr`, after dropping the ranks `keep` rejects
/// (the level's locally infrequent ones). `filtered` is scratch reused
/// across a level's plain rows.
fn project(
    g: GroupView<'_>,
    keep: &[bool],
    filtered: &mut Vec<u32>,
    mgr: &mut SpillManager,
) -> io::Result<()> {
    let keeps = |x: u32| keep[x as usize];
    let GroupView { pattern, outliers, bare } = g;
    if pattern.is_empty() {
        for v in outliers {
            filtered.clear();
            filtered.extend(v.iter().copied().filter(|&x| keeps(x)));
            for i in 0..filtered.len().saturating_sub(1) {
                mgr.append_plain(filtered[i], &filtered[i + 1..])?;
            }
        }
        return Ok(());
    }
    let pattern_f: Vec<u32> = pattern.iter().copied().filter(|&x| keeps(x)).collect();
    // Filter each member's outliers into one CSR slab; members whose
    // lists empty out fold straight into the bare count (every surviving
    // row is non-empty by construction).
    let mut outliers_f: CsrTuples<u32> = CsrTuples::new();
    let mut base_bare = bare;
    for o in outliers.iter() {
        for &x in o {
            if keeps(x) {
                outliers_f.push_elem(x);
            }
        }
        if outliers_f.open_len() > 0 {
            outliers_f.commit_row();
        } else {
            base_bare += 1;
        }
    }
    // Projections on pattern items: the whole group follows.
    for (k, &p) in pattern_f.iter().enumerate() {
        let mut g_bare = base_bare;
        let mut g_outliers: CsrTuples<u32> = CsrTuples::new();
        for o in outliers_f.iter() {
            let cut = o.partition_point(|&x| x <= p);
            if cut < o.len() {
                g_outliers.push_row(&o[cut..]);
            } else {
                g_bare += 1;
            }
        }
        let outliers = g_outliers.as_slices();
        mgr.append(p, GroupView { pattern: &pattern_f[k + 1..], outliers, bare: g_bare })?;
    }
    // Projections on outlier items: only the members holding the item
    // follow, carrying the residual pattern (a residual that empties
    // spills the members as plain rows). Members of the same group are
    // aggregated into ONE group per partition so the pattern is written
    // once per (partition, group) — not once per member occurrence,
    // which would balloon the spill.
    let mut by_rank: FxHashMap<u32, (u64, CsrTuples<u32>)> = FxHashMap::default();
    for o in outliers_f.iter() {
        for (j, &x) in o.iter().enumerate() {
            let slot = by_rank.entry(x).or_default();
            let rest = &o[j + 1..];
            if rest.is_empty() {
                slot.0 += 1;
            } else {
                slot.1.push_row(rest);
            }
        }
    }
    let mut ranks: Vec<u32> = by_rank.keys().copied().collect();
    ranks.sort_unstable();
    for x in ranks {
        let (bare, members) = by_rank.remove(&x).expect("collected above");
        let cut = pattern_f.partition_point(|&p| p <= x);
        let outliers = members.as_slices();
        mgr.append(x, GroupView { pattern: &pattern_f[cut..], outliers, bare })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_core::compress::Compressor;
    use gogreen_core::utility::Strategy;
    use gogreen_miners::mine_apriori;

    fn budgets() -> Vec<MemoryBudget> {
        vec![
            MemoryBudget::unlimited(),
            MemoryBudget::bytes(400), // forces one spill level
            MemoryBudget::bytes(120), // forces nested spills
        ]
    }

    #[test]
    fn limited_hmine_exact_under_any_budget() {
        let db = TransactionDb::paper_example();
        for budget in budgets() {
            for minsup in 1..=4 {
                let (got, report) =
                    LimitedHMine::new(budget).mine(&db, MinSupport::Absolute(minsup)).unwrap();
                let want = mine_apriori(&db, MinSupport::Absolute(minsup));
                assert!(
                    got.same_patterns_as(&want),
                    "budget {budget:?} minsup {minsup}: {} vs {} ({report:?})",
                    got.len(),
                    want.len()
                );
            }
        }
    }

    #[test]
    fn limited_recycle_hm_exact_under_any_budget() {
        let db = TransactionDb::paper_example();
        let fp_old = mine_apriori(&db, MinSupport::Absolute(3));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        for budget in budgets() {
            for minsup in 1..=4 {
                let (got, report) =
                    LimitedRecycleHm::new(budget).mine(&cdb, MinSupport::Absolute(minsup)).unwrap();
                let want = mine_apriori(&db, MinSupport::Absolute(minsup));
                assert!(
                    got.same_patterns_as(&want),
                    "budget {budget:?} minsup {minsup}: {} vs {} ({report:?})",
                    got.len(),
                    want.len()
                );
            }
        }
    }

    #[test]
    fn unlimited_budget_never_spills() {
        let db = TransactionDb::paper_example();
        let (_, report) = LimitedHMine::new(MemoryBudget::unlimited())
            .mine(&db, MinSupport::Absolute(2))
            .unwrap();
        assert_eq!(report, LimitedReport::default());
    }

    #[test]
    fn tight_budget_reports_spills_and_disk_traffic() {
        let db = TransactionDb::paper_example();
        let (_, report) =
            LimitedHMine::new(MemoryBudget::bytes(64)).mine(&db, MinSupport::Absolute(2)).unwrap();
        assert!(report.spills >= 1);
        assert!(report.disk_bytes > 0);
        assert!(report.max_depth >= 1);
    }

    #[test]
    fn spilled_groups_preserve_structure() {
        // A compressed DB whose spill produces groups; nested
        // budget forces the group-projection code paths.
        let db = TransactionDb::from_rows(&[
            &[1, 2, 3, 4],
            &[1, 2, 3, 5],
            &[1, 2, 3],
            &[1, 2, 3, 4, 5],
            &[4, 5],
            &[2, 4, 5],
        ]);
        let fp_old = mine_apriori(&db, MinSupport::Absolute(3));
        let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
        assert!(cdb.num_groups() > 0);
        for budget in [MemoryBudget::bytes(300), MemoryBudget::bytes(100)] {
            for minsup in 1..=3 {
                let (got, _) =
                    LimitedRecycleHm::new(budget).mine(&cdb, MinSupport::Absolute(minsup)).unwrap();
                let want = mine_apriori(&db, MinSupport::Absolute(minsup));
                assert!(got.same_patterns_as(&want), "budget {budget:?} minsup {minsup}");
            }
        }
    }

    /// The six-row database of `spilled_groups_preserve_structure`,
    /// whose MCP compression spills groups.
    fn grouped_db() -> TransactionDb {
        TransactionDb::from_rows(&[
            &[1, 2, 3, 4],
            &[1, 2, 3, 5],
            &[1, 2, 3],
            &[1, 2, 3, 4, 5],
            &[4, 5],
            &[2, 4, 5],
        ])
    }

    /// One line per `driver database budget minsup`: the report's
    /// `spills loads disk_bytes max_depth`, then the run's
    /// `storage.budget_high_water`, `storage.spill_bytes` and
    /// `storage.spill_partitions`. These pin the spill decisions behind
    /// Figs. 21–24, which follow `EM(D)`: change them only with a change
    /// meant to move those figures. The two byte columns also follow the
    /// partition file format.
    const GOLDEN: [&str; 56] = [
        "hm paper unlimited 1: 0 0 0 0 216 0 0",
        "mcp paper unlimited 1: 0 0 0 0 288 0 0",
        "hm paper unlimited 2: 0 0 0 0 192 0 0",
        "mcp paper unlimited 2: 0 0 0 0 252 0 0",
        "hm paper unlimited 3: 0 0 0 0 176 0 0",
        "mcp paper unlimited 3: 0 0 0 0 220 0 0",
        "hm paper unlimited 4: 0 0 0 0 104 0 0",
        "mcp paper unlimited 4: 0 0 0 0 204 0 0",
        "hm paper 400 1: 0 0 0 0 216 0 0",
        "mcp paper 400 1: 0 0 0 0 288 0 0",
        "hm paper 400 2: 0 0 0 0 192 0 0",
        "mcp paper 400 2: 0 0 0 0 252 0 0",
        "hm paper 400 3: 0 0 0 0 176 0 0",
        "mcp paper 400 3: 0 0 0 0 220 0 0",
        "hm paper 400 4: 0 0 0 0 104 0 0",
        "mcp paper 400 4: 0 0 0 0 204 0 0",
        "hm paper 120 1: 6 14 2176 3 216 2176 19",
        "mcp paper 120 1: 7 13 2332 3 288 2332 19",
        "hm paper 120 2: 6 7 1420 3 192 1420 12",
        "mcp paper 120 2: 7 6 1476 3 252 1476 12",
        "hm paper 120 3: 4 2 624 2 176 624 5",
        "mcp paper 120 3: 5 1 656 2 220 656 5",
        "hm paper 120 4: 0 0 0 0 104 0 0",
        "mcp paper 120 4: 2 0 128 2 204 128 1",
        "hm paper 64 1: 16 14 3212 4 216 3212 29",
        "mcp paper 64 1: 28 18 5192 5 288 5192 45",
        "hm paper 64 2: 14 0 1528 4 192 1528 13",
        "mcp paper 64 2: 12 2 1588 4 252 1588 13",
        "hm paper 64 3: 6 0 624 3 176 624 5",
        "mcp paper 64 3: 5 1 656 2 220 656 5",
        "hm paper 64 4: 2 0 116 2 108 116 1",
        "mcp paper 64 4: 2 0 128 2 204 128 1",
        "hm grouped unlimited 1: 0 0 0 0 216 0 0",
        "mcp grouped unlimited 1: 0 0 0 0 312 0 0",
        "hm grouped unlimited 2: 0 0 0 0 216 0 0",
        "mcp grouped unlimited 2: 0 0 0 0 312 0 0",
        "hm grouped unlimited 3: 0 0 0 0 216 0 0",
        "mcp grouped unlimited 3: 0 0 0 0 312 0 0",
        "hm grouped 400 1: 0 0 0 0 216 0 0",
        "mcp grouped 400 1: 0 0 0 0 312 0 0",
        "hm grouped 400 2: 0 0 0 0 216 0 0",
        "mcp grouped 400 2: 0 0 0 0 312 0 0",
        "hm grouped 400 3: 0 0 0 0 216 0 0",
        "mcp grouped 400 3: 0 0 0 0 312 0 0",
        "hm grouped 120 1: 5 8 1452 3 240 1452 12",
        "mcp grouped 120 1: 7 6 1552 3 312 1552 12",
        "hm grouped 120 2: 5 8 1452 3 240 1452 12",
        "mcp grouped 120 2: 7 6 1552 3 312 1552 12",
        "hm grouped 120 3: 5 2 776 3 240 776 6",
        "mcp grouped 120 3: 6 1 828 3 312 828 6",
        "hm grouped 64 1: 13 3 1752 4 240 1752 15",
        "mcp grouped 64 1: 10 6 1888 4 312 1888 15",
        "hm grouped 64 2: 13 0 1452 4 240 1452 12",
        "mcp grouped 64 2: 10 3 1552 4 312 1552 12",
        "hm grouped 64 3: 7 0 776 3 240 776 6",
        "mcp grouped 64 3: 6 1 828 3 312 828 6",
    ];

    #[test]
    fn drivers_match_golden_reports_and_spill_counters() {
        let budgets = [
            ("unlimited", MemoryBudget::unlimited()),
            ("400", MemoryBudget::bytes(400)),
            ("120", MemoryBudget::bytes(120)),
            ("64", MemoryBudget::bytes(64)),
        ];
        let mut lines = Vec::new();
        for (name, db, max_minsup) in
            [("paper", TransactionDb::paper_example(), 4), ("grouped", grouped_db(), 3)]
        {
            let fp_old = mine_apriori(&db, MinSupport::Absolute(3));
            let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
            for (label, budget) in budgets {
                for minsup in 1..=max_minsup {
                    let ms = MinSupport::Absolute(minsup);
                    for driver in ["hm", "mcp"] {
                        let (report, snap) = gogreen_obs::measure(|| match driver {
                            "hm" => LimitedHMine::new(budget).mine(&db, ms),
                            _ => LimitedRecycleHm::new(budget).mine(&cdb, ms),
                        });
                        let LimitedReport { spills, loads, disk_bytes, max_depth } =
                            report.unwrap().1;
                        let v = |m| snap.value(m).unwrap_or(0);
                        lines.push(format!(
                            "{driver} {name} {label} {minsup}: {spills} {loads} {disk_bytes} \
                             {max_depth} {} {} {}",
                            v("storage.budget_high_water"),
                            v("storage.spill_bytes"),
                            v("storage.spill_partitions"),
                        ));
                    }
                }
            }
        }
        assert_eq!(lines, GOLDEN);
    }

    #[test]
    fn empty_database() {
        let db = TransactionDb::new();
        let (got, _) =
            LimitedHMine::new(MemoryBudget::bytes(10)).mine(&db, MinSupport::Absolute(1)).unwrap();
        assert!(got.is_empty());
    }

    /// CRC-32 of every run's emission stream in emission order: a
    /// `driver database budget minsup` line, then one `items:support` line
    /// per emitted pattern. A spill chunk lists its groups before its
    /// plain rows, not in append order; the stream mined from a partition
    /// must not depend on that, or on any other detail of its disk layout.
    #[test]
    fn spilled_levels_emit_a_pinned_stream() {
        use gogreen_data::FnSink;
        use gogreen_datagen::{DatasetPreset, PresetKind};
        use gogreen_miners::Miner;
        let preset = DatasetPreset::new(PresetKind::Weather, 0.004);
        let weather = preset.generate();
        let mut text = String::new();
        let mut runs = 0;
        for (name, db, xi_old) in [
            ("paper", TransactionDb::paper_example(), MinSupport::Absolute(3)),
            ("grouped", grouped_db(), MinSupport::Absolute(3)),
            ("weather", weather, preset.xi_old()),
        ] {
            let fp_old = gogreen_miners::Family::Hm.mine(&db, xi_old);
            let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
            let minsups: Vec<MinSupport> = match name {
                "weather" => vec![MinSupport::percent(2.0), MinSupport::percent(1.0)],
                _ => (1..=3).map(MinSupport::Absolute).collect(),
            };
            for budget in [120usize, 2 << 10, 16 << 10] {
                for &ms in &minsups {
                    for driver in ["hm", "mcp"] {
                        text.push_str(&format!("{driver} {name} {budget} {ms:?}\n"));
                        let mut sink = FnSink(|items: &[Item], support: u64| {
                            text.push_str(&format!("{items:?}:{support}\n"));
                        });
                        let budget = MemoryBudget::bytes(budget);
                        let report = match driver {
                            "hm" => LimitedHMine::new(budget).mine_into(&db, ms, &mut sink),
                            _ => LimitedRecycleHm::new(budget).mine_into(&cdb, ms, &mut sink),
                        };
                        runs += (report.unwrap().spills > 0) as usize;
                    }
                }
            }
        }
        assert_eq!(runs, 24, "runs that spilled");
        assert_eq!(text.lines().count(), 83_664);
        assert_eq!(crate::crc::crc32(text.as_bytes()), 0xb5c2_503a);
    }
}
