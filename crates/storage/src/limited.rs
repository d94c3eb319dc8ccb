//! Memory-limited mining drivers (paper Figure 3 + §5.3).
//!
//! Both drivers implement Algorithm *Recycling*'s outer loop: estimate
//! the in-memory structure (`EM(D)`), mine in memory when it fits the
//! budget, otherwise *parallel-project* the database onto its frequent
//! items on disk and recurse per partition. The paper's §5.3 compares
//! H-Mine against HM-MCP under 4 MiB and 8 MiB budgets; these drivers
//! are that pair:
//!
//! * [`LimitedHMine`] — plain databases, H-Mine in memory.
//! * [`LimitedRecycleHm`] — compressed databases, Recycle-HM in memory.
//!   Spilled partitions keep their group structure (one group record per
//!   partition), so the recycling savings survive the disk round-trip.

use crate::budget::MemoryBudget;
use crate::codec::SpillRecord;
use crate::spill::SpillManager;
use gogreen_core::cdb::{CompressedDb, CompressedRankDb};
use gogreen_core::memory::{estimate_hmine_bytes, estimate_rp_struct_bytes};
use gogreen_data::{
    CollectSink, CsrTuples, FList, Item, MinSupport, PatternSet, PatternSink, PlainRanks,
    TransactionDb,
};
use gogreen_miners::engine::hm;
use gogreen_obs::metrics;
use gogreen_util::pool::Parallelism;
use gogreen_util::FxHashMap;

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
    ) -> std::io::Result<LimitedReport> {
        let minsup = min_support.to_absolute(db.len());
        let flist = FList::from_db(db, minsup);
        let mut report = LimitedReport::default();
        if flist.is_empty() {
            return Ok(report);
        }
        let mut tuples: CsrTuples<u32> = CsrTuples::with_capacity(db.len(), 0);
        for t in db.iter() {
            let enc = flist.encode(t);
            if !enc.is_empty() {
                tuples.push_row(&enc);
            }
        }
        let occurrences = tuples.total_elems();
        let est = estimate_hmine_bytes(occurrences, tuples.len());
        metrics::set_max("storage.budget_high_water", est as u64);
        if self.budget.fits(est) {
            let src = PlainRanks::new(tuples.as_slices(), flist.len());
            hm::mine_source_par(&src, &flist, &[], minsup, Parallelism::serial(), sink);
            return Ok(report);
        }
        // Parallel projection of the root (paper §3.3).
        report.spills += 1;
        report.max_depth = 1;
        let mut mgr = SpillManager::new(flist.len())?;
        for t in tuples.iter() {
            for (i, &r) in t.iter().enumerate() {
                if i + 1 < t.len() {
                    mgr.append(r, &SpillRecord::Plain(t[i + 1..].to_vec()))?;
                }
            }
        }
        mgr.finish()?;
        report.disk_bytes += mgr.total_bytes();
        let mut prefix = Vec::with_capacity(8);
        for r in 0..flist.len() as u32 {
            sink.emit(&[flist.item(r)], flist.support(r));
            prefix.push(flist.item(r));
            self.mine_partition(&mgr, r, &mut prefix, &flist, minsup, sink, &mut report, 1)?;
            prefix.pop();
        }
        Ok(report)
    }

    /// Collects into a [`PatternSet`] alongside the report.
    pub fn mine(
        &self,
        db: &TransactionDb,
        min_support: MinSupport,
    ) -> std::io::Result<(PatternSet, LimitedReport)> {
        let mut sink = CollectSink::new();
        let report = self.mine_into(db, min_support, &mut sink)?;
        Ok((sink.into_set(), report))
    }

    #[allow(clippy::too_many_arguments)]
    fn mine_partition(
        &self,
        mgr: &SpillManager,
        r: u32,
        prefix: &mut Vec<Item>,
        flist: &FList,
        minsup: u64,
        sink: &mut dyn PatternSink,
        report: &mut LimitedReport,
        depth: usize,
    ) -> std::io::Result<()> {
        if mgr.partition_records(r) == 0 {
            return Ok(());
        }
        metrics::set_max("storage.budget_high_water", mgr.estimated_memory(r) as u64);
        if self.budget.fits(mgr.estimated_memory(r)) {
            let mut tuples: CsrTuples<u32> =
                CsrTuples::with_capacity(mgr.partition_records(r) as usize, 0);
            mgr.for_each_record(r, |rec| {
                if let SpillRecord::Plain(v) = rec {
                    tuples.push_row(&v);
                }
            })?;
            report.loads += 1;
            let src = PlainRanks::new(tuples.as_slices(), flist.len());
            hm::mine_source_par(&src, flist, prefix, minsup, Parallelism::serial(), sink);
            return Ok(());
        }
        // Too big: respill one level deeper.
        report.spills += 1;
        report.max_depth = report.max_depth.max(depth + 1);
        let mut counts = vec![0u64; flist.len()];
        mgr.for_each_record(r, |rec| {
            if let SpillRecord::Plain(v) = rec {
                for &x in &v {
                    counts[x as usize] += 1;
                }
            }
        })?;
        let frequent: Vec<(u32, u64)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= minsup)
            .map(|(x, &c)| (x as u32, c))
            .collect();
        if frequent.is_empty() {
            return Ok(());
        }
        let keep: Vec<bool> = counts.iter().map(|&c| c >= minsup).collect();
        let mut sub = SpillManager::new(flist.len())?;
        let mut filtered: Vec<u32> = Vec::new();
        let mut io_err: Option<std::io::Error> = None;
        mgr.for_each_record(r, |rec| {
            if io_err.is_some() {
                return;
            }
            if let SpillRecord::Plain(v) = rec {
                filtered.clear();
                filtered.extend(v.iter().filter(|&&x| keep[x as usize]));
                for i in 0..filtered.len().saturating_sub(1) {
                    let x = filtered[i];
                    if let Err(e) = sub.append(x, &SpillRecord::Plain(filtered[i + 1..].to_vec())) {
                        io_err = Some(e);
                        return;
                    }
                }
            }
        })?;
        if let Some(e) = io_err {
            return Err(e);
        }
        sub.finish()?;
        report.disk_bytes += sub.total_bytes();
        for (x, c) in frequent {
            prefix.push(flist.item(x));
            sink.emit(prefix, c);
            self.mine_partition(&sub, x, prefix, flist, minsup, sink, report, depth + 1)?;
            prefix.pop();
        }
        Ok(())
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
    ) -> std::io::Result<LimitedReport> {
        let minsup = min_support.to_absolute(cdb.num_tuples());
        let flist = cdb.flist(minsup);
        let mut report = LimitedReport::default();
        if flist.is_empty() {
            return Ok(report);
        }
        let rdb = cdb.to_ranks(&flist);
        let est = estimate_rp_struct_bytes(&rdb);
        metrics::set_max("storage.budget_high_water", est as u64);
        if self.budget.fits(est) {
            hm::mine_source_par(&rdb, &flist, &[], minsup, Parallelism::serial(), sink);
            return Ok(report);
        }
        report.spills += 1;
        report.max_depth = 1;
        let mut mgr = SpillManager::new(flist.len())?;
        for g in 0..rdb.num_groups() {
            let mut outliers = CsrTuples::new();
            for o in rdb.group_outliers(g) {
                outliers.push_row(o);
            }
            let rec = SpillRecord::Group {
                pattern: rdb.group_pattern(g).to_vec(),
                bare: rdb.group_bare(g),
                outliers,
            };
            project_record(&rec, None, &mut mgr)?;
        }
        for t in rdb.plain() {
            project_record(&SpillRecord::Plain(t.to_vec()), None, &mut mgr)?;
        }
        mgr.finish()?;
        report.disk_bytes += mgr.total_bytes();
        let mut prefix = Vec::with_capacity(8);
        for r in 0..flist.len() as u32 {
            sink.emit(&[flist.item(r)], flist.support(r));
            prefix.push(flist.item(r));
            self.mine_partition(&mgr, r, &mut prefix, &flist, minsup, sink, &mut report, 1)?;
            prefix.pop();
        }
        Ok(report)
    }

    /// Collects into a [`PatternSet`] alongside the report.
    pub fn mine(
        &self,
        cdb: &CompressedDb,
        min_support: MinSupport,
    ) -> std::io::Result<(PatternSet, LimitedReport)> {
        let mut sink = CollectSink::new();
        let report = self.mine_into(cdb, min_support, &mut sink)?;
        Ok((sink.into_set(), report))
    }

    #[allow(clippy::too_many_arguments)]
    fn mine_partition(
        &self,
        mgr: &SpillManager,
        r: u32,
        prefix: &mut Vec<Item>,
        flist: &FList,
        minsup: u64,
        sink: &mut dyn PatternSink,
        report: &mut LimitedReport,
        depth: usize,
    ) -> std::io::Result<()> {
        if mgr.partition_records(r) == 0 {
            return Ok(());
        }
        metrics::set_max("storage.budget_high_water", mgr.estimated_memory(r) as u64);
        if self.budget.fits(mgr.estimated_memory(r)) {
            let mut rdb = CompressedRankDb::empty(flist.len());
            mgr.for_each_record(r, |rec| match rec {
                SpillRecord::Plain(v) => rdb.push_plain(&v),
                SpillRecord::Group { pattern, bare, outliers } => {
                    rdb.push_group(&pattern, outliers.iter(), bare)
                }
            })?;
            report.loads += 1;
            hm::mine_source_par(&rdb, flist, prefix, minsup, Parallelism::serial(), sink);
            return Ok(());
        }
        report.spills += 1;
        report.max_depth = report.max_depth.max(depth + 1);
        // Streaming support count of the partition.
        let mut counts = vec![0u64; flist.len()];
        mgr.for_each_record(r, |rec| match rec {
            SpillRecord::Plain(v) => {
                for &x in &v {
                    counts[x as usize] += 1;
                }
            }
            SpillRecord::Group { pattern, bare, outliers } => {
                let c = bare + outliers.len() as u64;
                for &x in &pattern {
                    counts[x as usize] += c;
                }
                for &x in outliers.flat() {
                    counts[x as usize] += 1;
                }
            }
        })?;
        let frequent: Vec<(u32, u64)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= minsup)
            .map(|(x, &c)| (x as u32, c))
            .collect();
        if frequent.is_empty() {
            return Ok(());
        }
        let keep: Vec<bool> = counts.iter().map(|&c| c >= minsup).collect();
        let mut sub = SpillManager::new(flist.len())?;
        let mut io_err: Option<std::io::Error> = None;
        mgr.for_each_record(r, |rec| {
            if io_err.is_none() {
                if let Err(e) = project_record(&rec, Some(&keep), &mut sub) {
                    io_err = Some(e);
                }
            }
        })?;
        if let Some(e) = io_err {
            return Err(e);
        }
        sub.finish()?;
        report.disk_bytes += sub.total_bytes();
        for (x, c) in frequent {
            prefix.push(flist.item(x));
            sink.emit(prefix, c);
            self.mine_partition(&sub, x, prefix, flist, minsup, sink, report, depth + 1)?;
            prefix.pop();
        }
        Ok(())
    }
}

/// Parallel projection of one record: writes the record's projection
/// onto *every* rank it contains into `mgr`, optionally filtering items
/// through `keep` (locally frequent ranks) first.
fn project_record(
    rec: &SpillRecord,
    keep: Option<&[bool]>,
    mgr: &mut SpillManager,
) -> std::io::Result<()> {
    let keeps = |x: u32| keep.is_none_or(|k| k[x as usize]);
    match rec {
        SpillRecord::Plain(v) => {
            let filtered: Vec<u32> = v.iter().copied().filter(|&x| keeps(x)).collect();
            for i in 0..filtered.len().saturating_sub(1) {
                mgr.append(filtered[i], &SpillRecord::Plain(filtered[i + 1..].to_vec()))?;
            }
        }
        SpillRecord::Group { pattern, bare, outliers } => {
            let pattern_f: Vec<u32> = pattern.iter().copied().filter(|&x| keeps(x)).collect();
            // Filter each member's outliers into one CSR slab; members
            // whose lists empty out fold straight into the bare count
            // (every surviving row is non-empty by construction).
            let mut outliers_f: CsrTuples<u32> = CsrTuples::new();
            let mut base_bare = *bare;
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
                let residual = pattern_f[k + 1..].to_vec();
                if residual.is_empty() {
                    for o in outliers_f.iter() {
                        let cut = o.partition_point(|&x| x <= p);
                        if cut < o.len() {
                            mgr.append(p, &SpillRecord::Plain(o[cut..].to_vec()))?;
                        }
                    }
                } else {
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
                    mgr.append(
                        p,
                        &SpillRecord::Group {
                            pattern: residual,
                            bare: g_bare,
                            outliers: g_outliers,
                        },
                    )?;
                }
            }
            // Projections on outlier items: only the members holding the
            // item follow, carrying the residual pattern. Members of the
            // same group are aggregated into ONE record per partition so
            // the pattern is written once per (partition, group) — not
            // once per member occurrence, which would balloon the spill.
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
                let residual = pattern_f[cut..].to_vec();
                if residual.is_empty() {
                    for rest in members.iter() {
                        mgr.append(x, &SpillRecord::Plain(rest.to_vec()))?;
                    }
                } else {
                    mgr.append(
                        x,
                        &SpillRecord::Group { pattern: residual, bare, outliers: members },
                    )?;
                }
            }
        }
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
        // A compressed DB whose spill produces group records; nested
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
        assert!(!cdb.groups().is_empty());
        for budget in [MemoryBudget::bytes(300), MemoryBudget::bytes(100)] {
            for minsup in 1..=3 {
                let (got, _) =
                    LimitedRecycleHm::new(budget).mine(&cdb, MinSupport::Absolute(minsup)).unwrap();
                let want = mine_apriori(&db, MinSupport::Absolute(minsup));
                assert!(got.same_patterns_as(&want), "budget {budget:?} minsup {minsup}");
            }
        }
    }

    #[test]
    fn empty_database() {
        let db = TransactionDb::new();
        let (got, _) =
            LimitedHMine::new(MemoryBudget::bytes(10)).mine(&db, MinSupport::Absolute(1)).unwrap();
        assert!(got.is_empty());
    }
}
