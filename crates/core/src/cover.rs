//! The indexed tuple-covering kernel.
//!
//! The seed compressor covered each tuple by scanning the *entire*
//! utility-ordered pattern list — O(|DB|·|FP|·|X|) — which on inputs
//! where many tuples match late (or never) makes compression the
//! dominant phase and eats the recycling win the paper promises.
//! [`CoverIndex`] replaces the scan with an index built once per
//! compression run. The eager part of the build is deliberately tiny —
//! the utility order's first block and a column slot per distinct
//! pattern item — so that on easy inputs (where the seed scan already
//! finds a cover within the first couple of candidates) the kernel costs
//! no more than the scan, while on hard inputs it wins by orders of
//! magnitude.
//!
//! Rarity — ascending (support, id), the order a chain ANDs its columns
//! in — is only ever compared between pattern items, so the build sorts
//! just those (a few dozen on the analogs, against thousands of item
//! ids) and numbers the column slots in that order. Restricting a total
//! order to a subset keeps the subset's relative order, so every
//! compiled chain, and with it `cover.words_scanned`, is the same as
//! ranking every item id would give.
//!
//! The utility order itself is built only as far as sweeps read it. The
//! build *selects* the `CHAIN_BLOCK` best ranks (one linear
//! `select_nth_unstable_by`) and sorts just those; the rest of the
//! pattern set is sorted by the first sweep that reaches rank
//! `CHAIN_BLOCK`. A sweep that drains inside block 0 — the common case
//! on dense data — never pays for sorting the whole recycled set, and
//! one that does not costs one linear selection more than a full sort.
//!
//! # One sweep, chains compiled once per index
//!
//! [`CoverIndex::cover_all`] is a **vertical sweep**: tuples become bits
//! of per-item column bitmaps (one column per distinct pattern item),
//! and patterns are visited in ascending utility-rank order, each
//! claiming every still-uncovered tuple that contains all its items with
//! a short AND-chain over its items' columns, rarest item first,
//! aborting on the first empty intersection. The sweep stops the moment
//! every tuple is claimed — on dense databases that is typically after a
//! handful of patterns.
//!
//! The column fill that precedes the sweep is branch-free. Most items of
//! a sparse tuple belong to no pattern, and a "has it a column?" test
//! per item mispredicts at random; instead every item sets its bit in
//! the column its slot names, and items with no slot — or with an id
//! past the supports table — share one trailing sink column that no
//! chain reads.
//!
//! A pattern's AND-chain (its items' column slots, rarest first) depends
//! only on the index, never on the tuples swept, so it is compiled once
//! per index, not once per sweep: the first sweep to reach a block of
//! 256 consecutive ranks (`CHAIN_BLOCK`) compiles the whole block into
//! one flat table, and every later sweep — the next chunk of a parallel
//! pass, or the next segment of a streaming compression — walks the
//! compiled chains with no sorting and no per-pattern allocation. A
//! sweep that drains after a handful of patterns compiles one block, not
//! the whole pattern set. Covering therefore costs in proportion to the
//! tuples fed, however many chunks they arrive in.
//!
//! **Equivalence to the linear scan.** Ranks are distinct and the sweep
//! considers candidates in strictly ascending rank. Any pattern
//! contained in tuple `t` has all its items in `t`, so its AND-chain
//! keeps `t` in the claim set unless a lower-rank pattern claimed `t`
//! first; a pattern not contained in `t` drops `t` somewhere along its
//! chain. Each tuple is therefore claimed by the minimum-rank pattern it
//! contains — precisely what the seed scan (first hit in utility order)
//! returns, and "tuple `t` gets the minimum-rank pattern containing it"
//! and "patterns in rank order claim all unclaimed tuples containing
//! them" describe the same greedy. Because the assignment is
//! tuple-local, covering a database chunk by chunk assigns every tuple
//! exactly as one whole-database sweep does. The differential test
//! `cover_differential.rs` enforces this on random databases for both
//! strategies, any thread count and any chunking.

use crate::utility::{cmp_utility, utility_keys, Strategy};
use gogreen_data::bitmap;
use gogreen_data::{Item, Pattern, PatternSet, TransactionDb, TupleSlices};
use gogreen_obs::{histogram, metrics};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Utility ranks per lazily compiled block of AND-chains. Small enough
/// that a sweep draining after a few patterns compiles little, large
/// enough that the per-block lookup is negligible next to the chains.
const CHAIN_BLOCK: usize = 256;

/// A per-run index over a recycled pattern set, answering "which is the
/// highest-utility pattern contained in this tuple?" without scanning
/// patterns the tuple cannot contain.
///
/// Borrows the pattern list — the index is a per-run view, so callers
/// keep ownership and nothing is cloned. It is `Sync`: the workers of a
/// parallel pass share one index and its compiled chains.
#[derive(Debug)]
pub struct CoverIndex<'a> {
    patterns: &'a [Pattern],
    /// `keys[pattern index]` = its utility, the sort key of the order.
    keys: Vec<u128>,
    /// Every pattern index. `order[..CHAIN_BLOCK]` (block 0) holds the
    /// best ranks in utility order; the rest follow in selection order.
    order: Vec<u32>,
    /// `order[CHAIN_BLOCK..]` in utility order (blocks 1 and on), sorted
    /// by the first sweep that reaches block 1.
    rest: OnceLock<Vec<u32>>,
    /// `slot_of_item[item index]` = column slot in the vertical sweep, for
    /// every item id of the supports table plus one trailing entry that
    /// ids past the table clamp to. Pattern items get slots `0..num_slots`
    /// in rarity order — ascending (support, id) among pattern items — so
    /// a chain's rarest-first order is its slots sorted. Every other id
    /// maps to the sink column `num_slots`, which the fill writes and no
    /// chain reads.
    slot_of_item: Vec<u32>,
    /// Number of pattern-item column slots (the sink column excluded).
    num_slots: usize,
    /// `chains[b]` = the compiled AND-chains of ranks
    /// `b * CHAIN_BLOCK..(b + 1) * CHAIN_BLOCK`, compiled by the first
    /// sweep that reaches rank `b * CHAIN_BLOCK`.
    chains: Vec<OnceLock<ChainBlock>>,
}

/// The compiled AND-chains of one block of consecutive utility ranks:
/// each rank's column slots, rarest item first, stored flat;
/// `start[j]..start[j + 1]` is the chain of the block's `j`-th rank. An
/// empty chain marks a pattern that can cover nothing — the empty
/// pattern, or one with an item the database never contains.
#[derive(Debug)]
struct ChainBlock {
    slots: Vec<u32>,
    start: Vec<u32>,
}

impl ChainBlock {
    /// The block's chains in rank order.
    fn chains(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.start.windows(2).map(|w| &self.slots[w[0] as usize..w[1] as usize])
    }
}

impl<'a> CoverIndex<'a> {
    /// Builds the index for compressing `db` with `fp` under `strategy`.
    pub fn new(db: &TransactionDb, fp: &'a PatternSet, strategy: Strategy) -> Self {
        Self::from_patterns(db, fp.as_slice(), strategy)
    }

    /// Builds the index from a pattern slice.
    pub fn from_patterns(db: &TransactionDb, patterns: &'a [Pattern], strategy: Strategy) -> Self {
        Self::from_supports(patterns, strategy, db.item_supports(), db.len())
    }

    /// Builds the index from explicit global item `supports` (index =
    /// item id) and database length, without touching the database
    /// itself. This is the out-of-core entry point: a segmented store
    /// supplies whole-database supports from its per-segment sidecars,
    /// and the resulting index covers tuples segment by segment with the
    /// *same* assignment a whole-database build would make — the cover
    /// choice is tuple-local once the utility order (a function of
    /// `db_len` under MLP) and rarity ranks are fixed globally.
    pub fn from_supports(
        patterns: &'a [Pattern],
        strategy: Strategy,
        supports: Vec<u64>,
        db_len: usize,
    ) -> Self {
        let num_items = supports.len();
        // Block 0's ranks by one linear selection, then sorted; the rest
        // waits for a sweep that needs it (see the module docs).
        let keys = utility_keys(patterns, strategy, db_len);
        let by_utility = |a: &u32, b: &u32| cmp_utility(&keys, patterns, *a, *b);
        let mut order: Vec<u32> = (0..patterns.len() as u32).collect();
        if order.len() > CHAIN_BLOCK {
            order.select_nth_unstable_by(CHAIN_BLOCK - 1, by_utility);
        }
        let head = order.len().min(CHAIN_BLOCK);
        order[..head].sort_unstable_by(by_utility);
        // Column slots: one per distinct in-table pattern item, numbered
        // by rarity among those items only (see the module docs). One
        // linear marking pass — each pattern's chain is compiled lazily,
        // only if a sweep reaches its block.
        let unmarked = u32::MAX;
        let mut slot_of_item = vec![unmarked; num_items + 1];
        let mut slot_items: Vec<u32> = Vec::new();
        for p in patterns {
            for &it in p.items() {
                if it.index() < num_items && slot_of_item[it.index()] == unmarked {
                    slot_of_item[it.index()] = 0;
                    slot_items.push(it.0);
                }
            }
        }
        slot_items.sort_unstable_by_key(|&i| (supports[i as usize], i));
        for (slot, &i) in slot_items.iter().enumerate() {
            slot_of_item[i as usize] = slot as u32;
        }
        let num_slots = slot_items.len();
        slot_of_item.iter_mut().for_each(|s| *s = (*s).min(num_slots as u32));
        let chains = (0..order.len().div_ceil(CHAIN_BLOCK)).map(|_| OnceLock::new()).collect();
        CoverIndex { patterns, keys, order, rest: OnceLock::new(), slot_of_item, num_slots, chains }
    }

    /// The pattern indices of block `b`'s ranks, in utility order. Block
    /// 1 and later sort the remainder of the order on first use.
    fn block_ranks(&self, b: usize) -> &[u32] {
        let (ranks, from) = if b == 0 {
            (&self.order[..], 0)
        } else {
            let rest = self.rest.get_or_init(|| {
                let mut rest = self.order[CHAIN_BLOCK..].to_vec();
                rest.sort_unstable_by(|&a, &b| self.cmp_utility(a, b));
                rest
            });
            (&rest[..], (b - 1) * CHAIN_BLOCK)
        };
        &ranks[from..ranks.len().min(from + CHAIN_BLOCK)]
    }

    /// Compares two pattern indices in utility order (`Less` = the
    /// better rank), the order [`crate::utility::order_by_utility`]
    /// sorts by.
    pub(crate) fn cmp_utility(&self, a: u32, b: u32) -> Ordering {
        cmp_utility(&self.keys, self.patterns, a, b)
    }

    /// Compiles block `b`'s AND-chains.
    fn compile_block(&self, b: usize) -> ChainBlock {
        let ranks = self.block_ranks(b);
        let mut slots = Vec::new();
        let mut start = Vec::with_capacity(ranks.len() + 1);
        start.push(0u32);
        let num_items = self.slot_of_item.len() - 1;
        for &pidx in ranks {
            let items = self.patterns[pidx as usize].items();
            // An item past the supports table (never occurring in the
            // database) disqualifies the pattern: it keeps an empty chain.
            // Every in-table pattern item has a slot; a zero-support
            // item's column is all-zero, so its AND-chain rejects the
            // pattern naturally.
            if items.iter().all(|it| it.index() < num_items) {
                let from = slots.len();
                slots.extend(items.iter().map(|it| self.slot_of_item[it.index()]));
                slots[from..].sort_unstable();
            }
            start.push(slots.len() as u32);
        }
        ChainBlock { slots, start }
    }

    /// The indexed patterns (indexable by the ids `cover_all` returns).
    pub fn pattern(&self, pidx: u32) -> &'a Pattern {
        &self.patterns[pidx as usize]
    }

    /// Number of indexed patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when no patterns are indexed (every tuple stays plain).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Covers every tuple of `tuples` in one vertical sweep, returning
    /// `out[i]` = the pattern index covering `tuples[i]` (or `None`):
    /// the highest-utility pattern contained in the tuple.
    ///
    /// Exactly equivalent to scanning the utility order per tuple and
    /// taking the first pattern whose items are all in it (see the module docs):
    /// patterns are visited in ascending rank order and each claims
    /// every still-unclaimed tuple containing it. Tuples are bits of
    /// per-item column bitmaps, so a pattern's claim is its compiled
    /// AND-chain over its items' columns — rarest item first —
    /// restricted to the still-uncovered set, and the sweep exits as
    /// soon as that set drains.
    pub fn cover_all(&self, tuples: TupleSlices<'_, Item>) -> Vec<Option<u32>> {
        let n = tuples.len();
        let mut out = vec![None; n];
        if n == 0 || self.num_slots == 0 {
            return out;
        }
        // The column fill is branch-free: every item sets its bit in its
        // slot's column, and items no pattern uses (or past the supports
        // table) land in the trailing sink column, which no chain reads.
        let words = bitmap::words_for(n);
        let mut bits = vec![0u64; (self.num_slots + 1) * words];
        let last = self.slot_of_item.len() - 1;
        for (i, t) in tuples.iter().enumerate() {
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            for &it in t {
                bits[self.slot_of_item[it.index().min(last)] as usize * words + w] |= bit;
            }
        }
        let mut uncovered = vec![!0u64; words];
        if !n.is_multiple_of(64) {
            uncovered[words - 1] = (1u64 << (n % 64)) - 1;
        }
        let mut remaining = n;
        let mut acc = vec![0u64; words];
        // Machine-work counter: AND-chain words touched. Chunked parallel
        // sweeps partition the work differently per thread count, so this
        // lives under the thread-*variant* `cover.*` prefix (see
        // `gogreen_obs::metrics::is_thread_invariant`).
        let mut words_scanned = 0u64;
        'blocks: for (b, block) in self.chains.iter().enumerate() {
            let block = block.get_or_init(|| self.compile_block(b));
            let ranks = self.block_ranks(b);
            'patterns: for (j, chain) in block.chains().enumerate() {
                let Some((&first, rest)) = chain.split_first() else { continue };
                // The AND-chain runs on the shared bitmap kernels (the
                // same unrolled code the vertical miner counts
                // with), each returning the OR of the result for the
                // early-exit test.
                let col = &bits[first as usize * words..][..words];
                words_scanned += words as u64;
                if bitmap::select_and(&mut acc, &uncovered, col) == 0 {
                    continue;
                }
                for &slot in rest {
                    let col = &bits[slot as usize * words..][..words];
                    words_scanned += words as u64;
                    if bitmap::and_into(&mut acc, col) == 0 {
                        continue 'patterns;
                    }
                }
                let pidx = ranks[j];
                let before = remaining;
                for w in 0..words {
                    let mut claimed = acc[w];
                    uncovered[w] &= !claimed;
                    while claimed != 0 {
                        out[w * 64 + claimed.trailing_zeros() as usize] = Some(pidx);
                        claimed &= claimed - 1;
                        remaining -= 1;
                    }
                }
                histogram::observe("cover.run_len", (before - remaining) as u64);
                if remaining == 0 {
                    break 'blocks;
                }
            }
        }
        metrics::add("cover.words_scanned", words_scanned);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::order_by_utility;
    use gogreen_data::MinSupport;
    use gogreen_miners::mine_apriori;

    /// The seed behaviour `cover_all` must replicate: first pattern in
    /// the reference utility order contained in the tuple.
    fn linear_cover(patterns: &[Pattern], order: &[u32], t: &[Item]) -> Option<u32> {
        order.iter().copied().find(|&pidx| {
            let p = &patterns[pidx as usize];
            p.len() <= t.len() && p.items().iter().all(|it| t.binary_search(it).is_ok())
        })
    }

    /// Asserts the sweep over all of `db` picks what the linear scan picks.
    fn assert_sweep_matches_linear_scan(
        index: &CoverIndex,
        db: &TransactionDb,
        strategy: Strategy,
        what: &str,
    ) {
        let order = order_by_utility(index.patterns, strategy, db.len());
        let swept = index.cover_all(db.tuples());
        for (i, (t, got)) in db.iter().zip(swept).enumerate() {
            assert_eq!(got, linear_cover(index.patterns, &order, t), "{what} tuple {i}");
        }
    }

    #[test]
    fn matches_linear_scan_on_paper_example() {
        let db = TransactionDb::paper_example();
        let fp = mine_apriori(&db, MinSupport::Absolute(3));
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let index = CoverIndex::new(&db, &fp, strategy);
            assert_sweep_matches_linear_scan(&index, &db, strategy, &format!("{strategy:?}"));
        }
    }

    #[test]
    fn picks_the_paper_table_2_groups() {
        let db = TransactionDb::paper_example();
        let fp = mine_apriori(&db, MinSupport::Absolute(3));
        let index = CoverIndex::new(&db, &fp, Strategy::Mcp);
        // Tuples 100–300 go to fgc = {2,5,6}; 400–500 to ae = {0,4}.
        let picks: Vec<&[Item]> = index
            .cover_all(db.tuples())
            .iter()
            .map(|c| index.pattern(c.unwrap()).items())
            .collect();
        assert_eq!(picks[0], &[Item(2), Item(5), Item(6)]);
        assert_eq!(picks[1], &[Item(2), Item(5), Item(6)]);
        assert_eq!(picks[2], &[Item(2), Item(5), Item(6)]);
        assert_eq!(picks[3], &[Item(0), Item(4)]);
        assert_eq!(picks[4], &[Item(0), Item(4)]);
    }

    #[test]
    fn pattern_with_unknown_item_is_never_chosen() {
        let db = TransactionDb::from_rows(&[&[1, 2]]);
        let mut fp = PatternSet::new();
        fp.insert(Pattern::from_ids([1, 2, 500], 1));
        let index = CoverIndex::new(&db, &fp, Strategy::Mcp);
        assert_eq!(linear_cover(fp.as_slice(), &[0], db.tuple(0)), None);
        assert_eq!(index.cover_all(db.tuples()), vec![None]);
    }

    /// Tuples may hold ids past the index's supports table (a segment fed
    /// to a stream built from older supports): the fill sends them to the
    /// sink column, and a pattern using one keeps an empty chain. On
    /// seeded random rows the sweep equals the linear scan over the
    /// in-table patterns.
    #[test]
    fn cover_all_sinks_items_past_the_supports_table() {
        use gogreen_util::rng::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0x51_4c);
        let rows: Vec<Vec<u32>> = (0..300)
            .map(|_| {
                let mut r: Vec<u32> =
                    (0..1 + rng.gen_index(7)).map(|_| rng.gen_below(40) as u32).collect();
                r.sort_unstable();
                r.dedup();
                r
            })
            .collect();
        let row_refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = TransactionDb::from_rows(&row_refs);
        let mut fp = PatternSet::new();
        for a in 0..12u32 {
            fp.insert(Pattern::from_ids([a], 3 + u64::from(a % 5)));
            fp.insert(Pattern::from_ids([a, a + 3], 1 + u64::from(a % 4)));
        }
        // Item 25 lies past the table: the pattern never covers.
        fp.insert(Pattern::from_ids([2, 25], 90));
        // Supports for ids 0..20 only: ids 20..40 in the tuples are past it.
        let supports: Vec<u64> = db.item_supports()[..20].to_vec();
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let index =
                CoverIndex::from_supports(fp.as_slice(), strategy, supports.clone(), db.len());
            let order: Vec<u32> = order_by_utility(fp.as_slice(), strategy, db.len())
                .into_iter()
                .filter(|&p| fp.as_slice()[p as usize].items().iter().all(|it| it.index() < 20))
                .collect();
            let swept = index.cover_all(db.tuples());
            for (i, (t, got)) in db.iter().zip(swept).enumerate() {
                assert_eq!(got, linear_cover(fp.as_slice(), &order, t), "{strategy:?} tuple {i}");
            }
        }
    }

    #[test]
    fn empty_pattern_set_covers_nothing() {
        let db = TransactionDb::paper_example();
        let fp = PatternSet::new();
        let index = CoverIndex::new(&db, &fp, Strategy::Mcp);
        assert!(index.is_empty());
        assert_eq!(index.cover_all(db.tuples()), vec![None; db.len()]);
    }

    #[test]
    fn batch_sweep_matches_per_tuple_cover() {
        // Every single-tuple sweep agrees with the whole-database sweep
        // and with the linear scan.
        let db = TransactionDb::paper_example();
        let fp = mine_apriori(&db, MinSupport::Absolute(2));
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let index = CoverIndex::new(&db, &fp, strategy);
            let order = order_by_utility(fp.as_slice(), strategy, db.len());
            let batch = index.cover_all(db.tuples());
            for (i, (t, got)) in db.iter().zip(batch).enumerate() {
                assert_eq!(got, linear_cover(fp.as_slice(), &order, t), "{strategy:?}");
                assert_eq!(vec![got], index.cover_all(db.tuples().range(i, i + 1)), "{strategy:?}");
            }
        }
    }

    #[test]
    fn batch_sweep_crosses_word_boundaries() {
        // >64 tuples so the uncovered/claim bitmaps span multiple words,
        // with the tail word partially masked.
        let rows: Vec<Vec<u32>> = (0..150u32).map(|i| vec![i % 3, 3 + i % 5, 100]).collect();
        let row_refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = TransactionDb::from_rows(&row_refs);
        let mut fp = PatternSet::new();
        fp.insert(Pattern::from_ids([0, 100], 50));
        fp.insert(Pattern::from_ids([1, 3, 100], 10));
        fp.insert(Pattern::from_ids([100], 150));
        let index = CoverIndex::new(&db, &fp, Strategy::Mcp);
        assert_sweep_matches_linear_scan(&index, &db, Strategy::Mcp, "150 tuples");
    }

    /// Regression for the shared-kernel refactor: the sweep (now running
    /// on `gogreen_data::bitmap::select_and`/`and_into`) must still
    /// reproduce the seed linear scan exactly, across word boundaries
    /// and with patterns the AND-chain rejects at every position.
    #[test]
    fn batch_sweep_on_shared_kernels_matches_linear_scan() {
        let rows: Vec<Vec<u32>> = (0..200u32)
            .map(|i| {
                let mut r = vec![i % 7, 7 + i % 11, 50];
                if i % 13 == 0 {
                    r.push(60);
                }
                r.sort_unstable();
                r
            })
            .collect();
        let row_refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = TransactionDb::from_rows(&row_refs);
        let mut fp = PatternSet::new();
        fp.insert(Pattern::from_ids([0, 50], 29));
        fp.insert(Pattern::from_ids([1, 9, 50], 2));
        fp.insert(Pattern::from_ids([50, 60], 16));
        fp.insert(Pattern::from_ids([2, 3], 0)); // never contained
        fp.insert(Pattern::from_ids([50], 200));
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let index = CoverIndex::new(&db, &fp, strategy);
            assert_sweep_matches_linear_scan(&index, &db, strategy, &format!("{strategy:?}"));
        }
    }

    #[test]
    fn batch_sweep_handles_no_patterns_and_no_tuples() {
        let db = TransactionDb::paper_example();
        let none = PatternSet::new();
        let empty = CoverIndex::new(&db, &none, Strategy::Mcp);
        assert!(empty.cover_all(db.tuples()).iter().all(Option::is_none));
        let fp = mine_apriori(&db, MinSupport::Absolute(3));
        let index = CoverIndex::new(&db, &fp, Strategy::Mcp);
        assert!(index.cover_all(gogreen_data::CsrTuples::new().as_slices()).is_empty());
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        // Sweep a wide tuple, then a disjoint one, through the same
        // index: stale bits from the first sweep would surface at once.
        let db = TransactionDb::from_rows(&[&[1, 2, 3, 4, 5], &[8, 9]]);
        let mut fp = PatternSet::new();
        fp.insert(Pattern::from_ids([1, 2, 3], 1));
        fp.insert(Pattern::from_ids([8, 9], 1));
        let index = CoverIndex::new(&db, &fp, Strategy::Mcp);
        let a = index.cover_all(db.tuples().range(0, 1))[0].unwrap();
        let b = index.cover_all(db.tuples().range(1, 2))[0].unwrap();
        assert_eq!(index.pattern(a).items(), &[Item(1), Item(2), Item(3)]);
        assert_eq!(index.pattern(b).items(), &[Item(8), Item(9)]);
    }

    /// More patterns than one chain block, most never contained, so a
    /// sweep walks several compiled blocks — and one that drains early
    /// compiles only the first.
    #[test]
    fn chains_compile_lazily_one_block_at_a_time() {
        // Items 0..40; rows hold a run of consecutive items.
        let rows: Vec<Vec<u32>> =
            (0..90u32).map(|i| (i % 30..i % 30 + 1 + i % 9).collect()).collect();
        let row_refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = TransactionDb::from_rows(&row_refs);
        let mut fp = PatternSet::new();
        for a in 0..40u32 {
            for b in a + 1..40 {
                fp.insert(Pattern::from_ids([a, b], 1 + u64::from((a * 7 + b) % 11)));
            }
        }
        fp.insert(Pattern::from_ids([0, 1, 77], 500)); // item 77 never occurs
        assert!(fp.len() > 3 * CHAIN_BLOCK);
        for strategy in [Strategy::Mcp, Strategy::Mlp] {
            let index = CoverIndex::new(&db, &fp, strategy);
            assert!(index.chains.iter().all(|c| c.get().is_none()), "nothing compiled eagerly");
            assert_sweep_matches_linear_scan(&index, &db, strategy, &format!("{strategy:?}"));
            assert!(index.chains.iter().filter(|c| c.get().is_some()).count() > 1);
            // A second sweep over a chunk reuses the compiled chains.
            assert_eq!(
                index.cover_all(db.tuples().range(10, 40)),
                index.cover_all(db.tuples())[10..40].to_vec()
            );
        }
        // The rank-0 pattern covers every tuple: the sweep drains at
        // once and compiles block 0 only.
        let mut top = fp.clone();
        top.insert(Pattern::from_ids([40], 90));
        let rows: Vec<Vec<u32>> = rows.iter().map(|r| [r.as_slice(), &[40]].concat()).collect();
        let row_refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = TransactionDb::from_rows(&row_refs);
        let index = CoverIndex::new(&db, &top, Strategy::Mcp);
        assert_sweep_matches_linear_scan(&index, &db, Strategy::Mcp, "draining");
        assert!(index.chains[0].get().is_some());
        assert!(index.chains[1..].iter().all(|c| c.get().is_none()));
    }

    /// Block 0's selected-then-sorted ranks and the lazily sorted rest
    /// reproduce the full sort exactly, for every strategy, on a set with
    /// many utility ties (broken by itemset); a sweep that drains in
    /// block 0 never sorts the rest.
    #[test]
    fn lazy_utility_order_matches_the_full_sort() {
        // 3 supports × lengths 1–3 over 30 items: every utility value is
        // shared by many patterns, under all four strategies.
        let mut fp = PatternSet::new();
        for a in 0..30u32 {
            fp.insert(Pattern::from_ids([a], 5 + u64::from(a % 3)));
            for b in a + 1..30 {
                fp.insert(Pattern::from_ids([a, b], 5 + u64::from((a + b) % 3)));
                if (a + b) % 4 == 0 {
                    fp.insert(Pattern::from_ids([a, b, 30], 5 + u64::from(b % 3)));
                }
            }
        }
        assert!(fp.len() > 2 * CHAIN_BLOCK);
        let rows: Vec<Vec<u32>> = (0..40u32).map(|i| vec![i % 30, 30]).collect();
        let row_refs: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = TransactionDb::from_rows(&row_refs);
        for strategy in [Strategy::Mcp, Strategy::Mlp, Strategy::SupportOnly, Strategy::LengthOnly]
        {
            let full = order_by_utility(fp.as_slice(), strategy, db.len());
            let index = CoverIndex::new(&db, &fp, strategy);
            assert_eq!(index.block_ranks(0), &full[..CHAIN_BLOCK], "{strategy:?} block 0");
            assert!(index.rest.get().is_none(), "{strategy:?}: rest sorted eagerly");
            let lazy: Vec<u32> =
                (0..index.chains.len()).flat_map(|b| index.block_ranks(b).to_vec()).collect();
            assert_eq!(lazy, full, "{strategy:?} whole order");
        }
        // Single-item rows: only singletons cover, and each row's item
        // ranks low under MCP, so the sweep cannot drain in block 0 and
        // must sort the rest.
        let singles: Vec<Vec<u32>> = (0..30u32).map(|i| vec![i]).collect();
        let single_refs: Vec<&[u32]> = singles.iter().map(|r| r.as_slice()).collect();
        let sparse = TransactionDb::from_rows(&single_refs);
        let index = CoverIndex::new(&sparse, &fp, Strategy::Mcp);
        assert_sweep_matches_linear_scan(&index, &sparse, Strategy::Mcp, "sparse");
        assert!(index.rest.get().is_some(), "a sweep past block 0 sorts the rest");
        // Every row holds the rank-0 pattern's items under MLP (a
        // 3-pattern with item 30): the sweep drains in block 0 and the
        // rest stays unsorted.
        let dense: Vec<Vec<u32>> = (0..40u32).map(|_| (0..31).collect()).collect();
        let dense_refs: Vec<&[u32]> = dense.iter().map(|r| r.as_slice()).collect();
        let dense = TransactionDb::from_rows(&dense_refs);
        let index = CoverIndex::new(&dense, &fp, Strategy::Mlp);
        assert_sweep_matches_linear_scan(&index, &dense, Strategy::Mlp, "draining");
        assert!(index.rest.get().is_none(), "a draining sweep sorted the rest");
        assert!(index.chains[1..].iter().all(|c| c.get().is_none()));
    }
}
