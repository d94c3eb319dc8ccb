//! Memory estimation for compressed-database mining structures.
//!
//! The paper's Algorithm *Recycling* (Figure 3, line 1) estimates the
//! memory an in-memory structure would need *before* building it, and
//! projects to disk when the estimate exceeds the budget (§3.3, §5.3).
//! H-Mine-style structures make this estimate reliable — their size is a
//! linear function of item occurrences — which is exactly why the paper's
//! memory-limited experiments use the H-Mine pair only.
//!
//! The estimators here are formula-based (no structure is built); the
//! unit tests check them against the layouts they price.

use gogreen_data::CompressedRankDb;

/// Bytes per outlier entry in the RP-Struct arena (the rank itself).
const BYTES_PER_ENTRY: usize = 4;
/// Bytes per tail: first-entry index + owning group in the arena, plus
/// one working `(tail, position)` member reference during mining.
const BYTES_PER_TAIL: usize = 16;
/// Fixed bytes per group: count (8) plus the two `Vec` headers for
/// pattern and tails.
///
/// This and the owning-group word of [`BYTES_PER_TAIL`] price the retired
/// RP-Struct layout. The arena now keeps each group's pattern and tails
/// as offsets into flat sections (two `u32`s per group), and a tail's
/// group is implied by its id. The constants stay because the spill
/// counts of Figs. 21–24 are computed from them and gated; moving `EM(D)`
/// to one formula over the flat sections is ROADMAP item 8.
const BYTES_PER_GROUP: usize = 8 + 2 * std::mem::size_of::<Vec<u32>>();

/// Estimated heap bytes of the RP-Struct that
/// recycled H-Mine ([`Family::Hm`](gogreen_miners::Family::Hm)) would
/// build for `rdb`.
pub fn estimate_rp_struct_bytes(rdb: &CompressedRankDb) -> usize {
    // The CSR sections make these whole-database sums O(1): row counts
    // and total element counts are offset-array lookups, no per-group
    // iteration over tuple data at all.
    let outlier_rows = rdb.group_outlier_rows();
    let num_tails = outlier_rows + rdb.plain().len();
    let outlier_items = rdb.group_outlier_items() + rdb.plain().flat().len();
    // Each tail also stores one sentinel entry.
    let entries = outlier_items + num_tails;
    let group_bytes =
        rdb.num_groups() * BYTES_PER_GROUP + rdb.pattern_items() * 4 + outlier_rows * 4;
    entries * BYTES_PER_ENTRY + num_tails * BYTES_PER_TAIL + group_bytes
}

/// Estimated heap bytes of the plain H-Mine hyper-structure for a
/// database with `occurrences` frequent-item occurrences in `tuples`
/// tuples (item + hyperlink per entry, one sentinel per tuple).
pub fn estimate_hmine_bytes(occurrences: usize, tuples: usize) -> usize {
    (occurrences + tuples) * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Compressor;
    use crate::utility::Strategy;
    use gogreen_data::{CompressedDb, MinSupport, TransactionDb};
    use gogreen_miners::mine_apriori;
    use gogreen_util::HeapSize;

    fn rdb_for(db: &TransactionDb, xi_old: u64, minsup: u64) -> CompressedRankDb {
        let fp = mine_apriori(db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(Strategy::Mcp).compress(db, &fp);
        let flist = cdb.flist(minsup);
        cdb.to_ranks(&flist)
    }

    /// The RP-Struct copies the rank layout's ids into its arena, adding
    /// a sentinel and a first-entry index per tail, and mining adds its
    /// member references: the estimate must cover the layout and stay
    /// within a small factor of it — tight enough for budget decisions.
    #[test]
    fn estimate_covers_the_rank_layout() {
        let db = TransactionDb::paper_example();
        let rdb = rdb_for(&db, 3, 2);
        let est = estimate_rp_struct_bytes(&rdb);
        let layout = rdb.heap_size();
        assert!(est >= layout, "est {est} below the layout's {layout} bytes");
        assert!(est <= layout * 4, "est {est} far above the layout's {layout} bytes");
    }

    #[test]
    fn estimate_scales_with_data() {
        let small = rdb_for(&TransactionDb::paper_example(), 3, 2);
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for k in 0..50 {
            rows.push(vec![k % 7, 7 + (k % 5), 12 + (k % 3)]);
        }
        let big_db = TransactionDb::from_transactions(
            rows.into_iter().map(gogreen_data::Transaction::from_ids).collect(),
        );
        let big = rdb_for(&big_db, 5, 2);
        assert!(
            estimate_rp_struct_bytes(&big) > estimate_rp_struct_bytes(&small),
            "more data must estimate larger"
        );
    }

    #[test]
    fn uncompressed_estimate_counts_plain_tuples() {
        let db = TransactionDb::paper_example();
        let cdb = CompressedDb::uncompressed(&db);
        let flist = cdb.flist(1);
        let rdb = cdb.to_ranks(&flist);
        let est = estimate_rp_struct_bytes(&rdb);
        assert!(est > 0);
        // 22 occurrences + 5 sentinels entries, 5 tails.
        assert_eq!(est, (22 + 5) * BYTES_PER_ENTRY + 5 * BYTES_PER_TAIL);
    }

    #[test]
    fn hmine_estimate_formula() {
        assert_eq!(estimate_hmine_bytes(22, 5), 27 * 8);
        assert_eq!(estimate_hmine_bytes(0, 0), 0);
    }

    /// The vertical miner's tidset arenas report under the same
    /// `alloc.projection_bytes` / `alloc.arena_reuses` counters as the
    /// horizontal projection slabs.
    #[test]
    fn vt_arena_bytes_reach_the_alloc_counters() {
        use gogreen_miners::engine::vt::VtRepr;
        use gogreen_miners::{Family, Miner};
        let db = TransactionDb::paper_example();
        let cdb = CompressedDb::uncompressed(&db);
        let (fp, snap) =
            gogreen_obs::measure(|| Family::Vt(VtRepr::Auto).mine(&cdb, MinSupport::Absolute(2)));
        let bytes = snap.value("alloc.projection_bytes").unwrap_or(0);
        assert!(!fp.is_empty());
        assert!(bytes > 0, "vertical arenas did not report projection bytes");
    }
}
