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
//! unit tests cross-check them against the real arena sizes.

use crate::cdb::CompressedRankDb;

/// Bytes per outlier entry in the RP-Struct arena (the rank itself).
const BYTES_PER_ENTRY: usize = 4;
/// Bytes per tail: first-entry index + owning group in the arena, plus
/// one working `(tail, position)` member reference during mining.
const BYTES_PER_TAIL: usize = 16;
/// Fixed bytes per group: count (8) plus the two `Vec` headers for
/// pattern and tails.
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

/// Estimated heap bytes of the root tid-bitmap columns the vertical
/// miner ([`Family::Vt`](gogreen_miners::Family::Vt)) builds for `rdb`: one
/// `⌈n/64⌉`-word column per rank, `n` the expanded tuple count. The
/// per-node tidset arenas below the root are bounded by the same figure
/// (a child level never materializes more columns than the root holds),
/// so doubling this estimate budgets the whole vertical run; the arenas
/// report their actual usage under `alloc.projection_bytes`.
pub fn estimate_vt_bitmap_bytes(rdb: &CompressedRankDb) -> usize {
    let mut n = rdb.plain().len();
    for g in 0..rdb.num_groups() {
        n += rdb.group_count(g) as usize;
    }
    rdb.num_ranks() * gogreen_data::bitmap::words_for(n) * 8
}

/// Estimated heap bytes of the root sparse tid-list columns for `rdb`:
/// 4 bytes per rank occurrence. A group contributes its full expanded
/// run per pattern item (`count × |pattern|`), outliers and plain tuples
/// one entry per rank. Unlike the bitmap figure this scales with data
/// density, not rank count × width, so on sparse databases it is the
/// smaller of the two.
pub fn estimate_vt_tidlist_bytes(rdb: &CompressedRankDb) -> usize {
    let mut occurrences = rdb.group_outlier_items() + rdb.plain().flat().len();
    for g in 0..rdb.num_groups() {
        occurrences += rdb.group_count(g) as usize * rdb.group_pattern(g).len();
    }
    occurrences * 4
}

/// Estimated heap bytes of the root vertical columns under the
/// density-adaptive default ([`VtRepr::Auto`]): the cheaper of the
/// bitmap and tid-list layouts, which is exactly the choice the engine
/// makes at the root.
///
/// [`VtRepr::Auto`]: gogreen_miners::engine::vt::VtRepr::Auto
pub fn estimate_vt_root_bytes(rdb: &CompressedRankDb) -> usize {
    estimate_vt_bitmap_bytes(rdb).min(estimate_vt_tidlist_bytes(rdb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdb::CompressedDb;
    use crate::compress::Compressor;
    use crate::utility::Strategy;
    use gogreen_data::{MinSupport, TransactionDb};
    use gogreen_miners::engine::hm::RpStruct;
    use gogreen_miners::mine_apriori;

    fn rdb_for(db: &TransactionDb, xi_old: u64, minsup: u64) -> CompressedRankDb {
        let fp = mine_apriori(db, MinSupport::Absolute(xi_old));
        let cdb = Compressor::new(Strategy::Mcp).compress(db, &fp);
        let flist = cdb.flist(minsup);
        cdb.to_ranks(&flist)
    }

    #[test]
    fn estimate_tracks_real_arena_size() {
        let db = TransactionDb::paper_example();
        let rdb = rdb_for(&db, 3, 2);
        let est = estimate_rp_struct_bytes(&rdb);
        let real = RpStruct::build(&rdb).arena_bytes();
        // The estimate covers the arena plus the working member
        // references mining allocates, so it must be at least the arena
        // and within a small factor of it — tight enough for budget
        // decisions.
        assert!(est >= real, "est {est} below arena {real}");
        assert!(est <= real * 4, "est {est} far above arena {real}");
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

    #[test]
    fn vt_bitmap_estimate_formula() {
        // Paper example, uncompressed: 5 tuples -> one 64-bit word per
        // rank; at ξ = 1 all 9 items are ranks.
        let db = TransactionDb::paper_example();
        let cdb = CompressedDb::uncompressed(&db);
        let flist = cdb.flist(1);
        let rdb = cdb.to_ranks(&flist);
        assert_eq!(estimate_vt_bitmap_bytes(&rdb), 9 * 8);
        // Compressed view of the same database: group members re-expand,
        // so the tuple count — and the estimate at equal rank count —
        // is unchanged.
        let rdb2 = rdb_for(&db, 3, 1);
        assert_eq!(estimate_vt_bitmap_bytes(&rdb2), 9 * 8);
    }

    #[test]
    fn vt_tidlist_estimate_counts_occurrences() {
        // Paper example, uncompressed: 22 frequent-item occurrences at
        // ξ = 1, 4 bytes each.
        let db = TransactionDb::paper_example();
        let cdb = CompressedDb::uncompressed(&db);
        let flist = cdb.flist(1);
        let rdb = cdb.to_ranks(&flist);
        assert_eq!(estimate_vt_tidlist_bytes(&rdb), 22 * 4);
        // The compressed view re-expands group members, so the
        // occurrence total is preserved (groups store each pattern item
        // once but weight it by the member count).
        let rdb2 = rdb_for(&db, 3, 1);
        assert_eq!(estimate_vt_tidlist_bytes(&rdb2), 22 * 4);
        // Auto takes the cheaper layout; here the 9-rank bitmap (72 B)
        // wins over the 88 B of lists.
        assert_eq!(estimate_vt_root_bytes(&rdb), 9 * 8);
    }

    #[test]
    fn vt_root_estimate_prefers_lists_when_sparse() {
        // 200 single-item tuples over 64 items: bitmaps need
        // 64 ranks × 4 words × 8 = 2048 B, lists only 200 × 4 = 800 B.
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for k in 0..200u32 {
            rows.push(vec![k % 64]);
        }
        let db = TransactionDb::from_transactions(
            rows.into_iter().map(gogreen_data::Transaction::from_ids).collect(),
        );
        let cdb = CompressedDb::uncompressed(&db);
        let flist = cdb.flist(1);
        let rdb = cdb.to_ranks(&flist);
        let bm = estimate_vt_bitmap_bytes(&rdb);
        let tl = estimate_vt_tidlist_bytes(&rdb);
        assert!(tl < bm, "lists {tl} must beat bitmaps {bm} here");
        assert_eq!(estimate_vt_root_bytes(&rdb), tl);
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
