//! Shared plumbing for rank-space miners: the DFS emitter, subset
//! enumeration, scratch counting, and the parallel first-level fan-out
//! driver every projected-database miner routes its root loop through.

use gogreen_data::{CsrTuples, FList, Item, PatternSink, TransactionDb};
use gogreen_util::pool::{par_map_init, Parallelism};

/// [`gogreen_data::CompressedRankDb::encode`] with constraint pushdown:
/// ranks whose `allowed` slot is `false` never enter the row, and rows
/// left empty are discarded. Used by the pruned miner entry points.
pub fn encode_db_pruned(db: &TransactionDb, flist: &FList, allowed: &[bool]) -> CsrTuples<u32> {
    let mut tuples = CsrTuples::new();
    for t in db.iter() {
        for &it in t {
            if let Some(r) = flist.rank_of(it) {
                if allowed[r as usize] {
                    tuples.push_elem(r);
                }
            }
        }
        tuples.open_row_mut().sort_unstable();
        tuples.commit_nonempty();
    }
    tuples
}

/// Maintains the current prefix pattern during a depth-first search over
/// the F-list, translating ranks back to items on emission.
///
/// Every projected-database miner in the workspace (baselines here, the
/// recycling miners in `gogreen-core`) shares this emitter so that output
/// behaviour — one emission per frequent pattern, items decoded from
/// ranks — is identical across algorithms.
pub struct RankEmitter<'a> {
    flist: &'a FList,
    /// Current prefix as items (unsorted: DFS push order).
    prefix: Vec<Item>,
    /// Reusable buffer for [`Self::emit_with`]: subset enumeration emits
    /// once per subset, and a fresh allocation per emission dominates the
    /// single-path/single-group shortcut paths.
    scratch: Vec<Item>,
}

impl<'a> RankEmitter<'a> {
    /// Creates an emitter with an empty prefix.
    pub fn new(flist: &'a FList) -> Self {
        RankEmitter { flist, prefix: Vec::with_capacity(16), scratch: Vec::new() }
    }

    /// The F-list being decoded against.
    pub fn flist(&self) -> &FList {
        self.flist
    }

    /// Pushes rank `r` onto the prefix.
    pub fn push(&mut self, r: u32) {
        self.prefix.push(self.flist.item(r));
    }

    /// Pushes an item directly (used when resuming from a spilled
    /// partition whose pattern prefix is known in item space).
    pub fn push_item(&mut self, item: Item) {
        self.prefix.push(item);
    }

    /// Pops the most recent rank.
    pub fn pop(&mut self) {
        self.prefix.pop();
    }

    /// Current prefix depth.
    pub fn depth(&self) -> usize {
        self.prefix.len()
    }

    /// The current prefix items (DFS push order, not sorted).
    pub fn prefix(&self) -> &[Item] {
        &self.prefix
    }

    /// Emits the current prefix with `support`.
    pub fn emit(&self, sink: &mut dyn PatternSink, support: u64) {
        debug_assert!(!self.prefix.is_empty());
        sink.emit(&self.prefix, support);
    }

    /// Emits `prefix + extra_ranks` (used by single-path/single-group
    /// combination enumeration) without mutating the prefix. Reuses an
    /// internal scratch buffer, so repeated calls allocate at most once.
    pub fn emit_with(&mut self, sink: &mut dyn PatternSink, extra_ranks: &[u32], support: u64) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.prefix);
        self.scratch.extend(extra_ranks.iter().map(|&r| self.flist.item(r)));
        sink.emit(&self.scratch, support);
    }
}

/// A flat, append-only pattern buffer used as the thread-local sink
/// during parallel fan-out: items from all emissions live in one `Vec`
/// with a `(len, support)` side array, so buffering a subtree costs two
/// amortized appends per pattern and replay is a linear sweep.
#[derive(Debug, Default)]
pub struct PatternBuffer {
    items: Vec<Item>,
    meta: Vec<(u32, u64)>,
}

impl PatternSink for PatternBuffer {
    fn emit(&mut self, items: &[Item], support: u64) {
        self.items.extend_from_slice(items);
        self.meta.push((items.len() as u32, support));
    }
}

impl PatternBuffer {
    /// Number of buffered patterns.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Re-emits every buffered pattern, in emission order, into `sink`.
    pub fn replay(&self, sink: &mut dyn PatternSink) {
        let mut off = 0usize;
        for &(len, support) in &self.meta {
            let end = off + len as usize;
            sink.emit(&self.items[off..end], support);
            off = end;
        }
    }
}

/// The first-level fan-out driver shared by every miner and recycler.
///
/// Runs `unit(state, i, sink)` for `i in 0..n` and delivers the emitted
/// patterns to `sink` **in unit order**, regardless of thread count:
///
/// * Serial (or `n < 2`): one `init()` state, units run in order directly
///   against the real sink — no buffering, no overhead.
/// * Parallel: [`par_map_init`] workers claim unit indices dynamically
///   (skewed prefixes don't straggle behind a static partition), emit
///   each unit into a private [`PatternBuffer`], and the buffers are
///   replayed in index order after the join.
///
/// Because the serial path runs the *same* per-unit code as each worker,
/// the output stream is byte-identical at any thread count, and every
/// commutative metrics counter (`metrics::is_thread_invariant`) sums to
/// the same total. `init()` builds per-worker scratch state (emitters,
/// count arrays, DFS arenas) once per worker, not once per unit.
pub fn fan_out_ordered<S, I, F>(
    par: Parallelism,
    n: usize,
    sink: &mut dyn PatternSink,
    init: I,
    unit: F,
) where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut dyn PatternSink) + Sync,
{
    if par.for_items(n) <= 1 {
        let mut state = init();
        for i in 0..n {
            unit(&mut state, i, sink);
        }
        return;
    }
    let buffers = par_map_init(par, n, init, |state, i| {
        let mut buf = PatternBuffer::default();
        unit(state, i, &mut buf);
        buf
    });
    for buf in buffers {
        buf.replay(sink);
    }
}

/// Enumerates every non-empty subset of `elems` (ranks paired with a
/// support), invoking `f(subset_ranks, support)` where `support` is the
/// minimum support among chosen elements.
///
/// This drives both FP-growth's single-path shortcut and the paper's
/// Lemma 3.1 (single-group pattern generation), where all elements share
/// one support.
pub fn for_each_subset(elems: &[(u32, u64)], f: &mut impl FnMut(&[u32], u64)) {
    assert!(elems.len() <= 62, "subset enumeration over >62 elements");
    // The chosen ranks, on the stack: shortcuts fire once per node.
    let mut ranks = [0u32; 62];
    fn rec(
        elems: &[(u32, u64)],
        from: usize,
        ranks: &mut [u32; 62],
        depth: usize,
        support: u64,
        f: &mut impl FnMut(&[u32], u64),
    ) {
        for k in from..elems.len() {
            let (r, s) = elems[k];
            ranks[depth] = r;
            let sup = support.min(s);
            f(&ranks[..=depth], sup);
            rec(elems, k + 1, ranks, depth + 1, sup, f);
        }
    }
    rec(elems, 0, &mut ranks, 0, u64::MAX, f);
}

/// A scratch counting vector with O(touched) reset.
///
/// Mining recounts supports at every recursion level; zeroing a dense
/// vector each time would be O(num_ranks). `ScratchCounts` tracks which
/// slots were touched and clears only those.
#[derive(Debug)]
pub struct ScratchCounts {
    counts: Vec<u64>,
    touched: Vec<u32>,
}

impl ScratchCounts {
    /// Creates a counter over `n` rank slots.
    pub fn new(n: usize) -> Self {
        ScratchCounts { counts: vec![0; n], touched: Vec::new() }
    }

    /// Adds `w` to slot `r`.
    #[inline]
    pub fn add(&mut self, r: u32, w: u64) {
        let slot = &mut self.counts[r as usize];
        if *slot == 0 {
            self.touched.push(r);
        }
        *slot += w;
    }

    /// Current count of slot `r`.
    #[inline]
    pub fn get(&self, r: u32) -> u64 {
        self.counts[r as usize]
    }

    /// Ranks touched since the last clear, in touch order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Clears all touched slots.
    pub fn clear(&mut self) {
        for &r in &self.touched {
            self.counts[r as usize] = 0;
        }
        self.touched.clear();
    }

    /// Replaces `out`'s contents with the `(rank, count)` of touched
    /// slots with `count >= min`, sorted ascending by rank, then clears.
    pub fn drain_frequent(&mut self, min: u64, out: &mut Vec<(u32, u64)>) {
        out.clear();
        out.extend(
            self.touched.iter().map(|&r| (r, self.counts[r as usize])).filter(|&(_, c)| c >= min),
        );
        out.sort_unstable_by_key(|&(r, _)| r);
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::{CollectSink, TransactionDb};

    #[test]
    fn emitter_decodes_ranks() {
        let db = TransactionDb::paper_example();
        let fl = FList::from_db(&db, 2);
        let mut em = RankEmitter::new(&fl);
        let mut sink = CollectSink::new();
        em.push(0); // d
        em.emit(&mut sink, 2);
        em.push(2); // f
        em.emit(&mut sink, 2);
        em.pop();
        assert_eq!(em.depth(), 1);
        let set = sink.into_set();
        assert_eq!(set.support_of(&[Item(3)]), Some(2));
        assert_eq!(set.support_of(&[Item(3), Item(5)]), Some(2));
    }

    #[test]
    fn emit_with_appends_without_mutation() {
        let db = TransactionDb::paper_example();
        let fl = FList::from_db(&db, 2);
        let mut em = RankEmitter::new(&fl);
        let mut sink = CollectSink::new();
        em.push(0);
        em.emit_with(&mut sink, &[2, 3], 2);
        assert_eq!(em.depth(), 1);
        let set = sink.into_set();
        // d(0) + f(5) + g(6) -> items {3,5,6}
        assert_eq!(set.support_of(&[Item(3), Item(5), Item(6)]), Some(2));
    }

    #[test]
    fn subsets_of_three_elements() {
        let elems = [(1u32, 5u64), (2, 4), (3, 6)];
        let mut seen = Vec::new();
        for_each_subset(&elems, &mut |ranks, sup| seen.push((ranks.to_vec(), sup)));
        assert_eq!(seen.len(), 7);
        assert!(seen.contains(&(vec![1], 5)));
        assert!(seen.contains(&(vec![1, 2], 4)));
        assert!(seen.contains(&(vec![1, 2, 3], 4)));
        assert!(seen.contains(&(vec![2, 3], 4)));
        assert!(seen.contains(&(vec![3], 6)));
    }

    #[test]
    fn subsets_of_empty_is_nothing() {
        let mut n = 0;
        for_each_subset(&[], &mut |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn scratch_counts_touch_and_clear() {
        let mut c = ScratchCounts::new(10);
        c.add(3, 2);
        c.add(3, 1);
        c.add(7, 1);
        assert_eq!(c.get(3), 3);
        assert_eq!(c.touched(), &[3, 7]);
        c.clear();
        assert_eq!(c.get(3), 0);
        assert!(c.touched().is_empty());
    }

    #[test]
    fn pattern_buffer_replays_in_emission_order() {
        let mut buf = PatternBuffer::default();
        buf.emit(&[Item(3), Item(5)], 7);
        buf.emit(&[Item(1)], 2);
        assert_eq!(buf.len(), 2);
        let mut seen: Vec<(Vec<Item>, u64)> = Vec::new();
        {
            let mut sink = gogreen_data::FnSink(|items: &[Item], s| seen.push((items.to_vec(), s)));
            buf.replay(&mut sink);
        }
        assert_eq!(seen, vec![(vec![Item(3), Item(5)], 7), (vec![Item(1)], 2)]);
    }

    #[test]
    fn fan_out_ordered_is_thread_invariant() {
        // Unit i emits i+1 patterns tagged with its index; the merged
        // stream must equal the serial one at any thread count.
        let run = |par: Parallelism| {
            let mut seen: Vec<(Vec<Item>, u64)> = Vec::new();
            {
                let mut sink =
                    gogreen_data::FnSink(|items: &[Item], s| seen.push((items.to_vec(), s)));
                fan_out_ordered(
                    par,
                    9,
                    &mut sink,
                    || 0u32,
                    |state, i, sink| {
                        *state += 1;
                        for k in 0..=i {
                            sink.emit(&[Item(i as u32), Item(k as u32)], (i * 100 + k) as u64);
                        }
                    },
                );
            }
            seen
        };
        let serial = run(Parallelism::serial());
        for t in [2, 4, 8] {
            assert_eq!(run(Parallelism::threads(t)), serial, "threads={t}");
        }
    }

    #[test]
    fn drain_frequent_filters_and_sorts() {
        let mut c = ScratchCounts::new(10);
        c.add(9, 5);
        c.add(1, 1);
        c.add(4, 3);
        let mut freq = vec![(0, 0)];
        c.drain_frequent(3, &mut freq);
        assert_eq!(freq, vec![(4, 3), (9, 5)]);
        assert_eq!(c.get(9), 0);
    }
}
