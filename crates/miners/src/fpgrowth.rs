//! FP-growth (Han, Pei, Yin — SIGMOD 2000).
//!
//! Transactions are inserted into a prefix tree (*FP-tree*) in descending
//! F-list order, so common frequent prefixes share nodes. Mining walks the
//! header table from the least frequent item upward: each item's
//! *conditional pattern base* (its prefix paths) becomes a smaller
//! conditional FP-tree, recursively. A tree that degenerates to a single
//! path short-circuits into subset enumeration — the structural ancestor
//! of the paper's Lemma 3.1.
//!
//! This module holds the [`FpTree`]; the search is
//! [`Family::Fp`](crate::Family::Fp). The conditional-group engine
//! ([`crate::engine::fp`]) uses the tree both as the per-group outlier
//! store of a compressed database and, on a layout with zero groups, as
//! the classic global FP-tree.

use gogreen_obs::metrics;

/// Arena/link sentinel shared by all FP-tree fields.
pub const FP_NIL: u32 = u32::MAX;

/// One header-table row of an [`FpTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpHeader {
    /// The item (rank).
    pub rank: u32,
    /// Its support in the tree's database.
    pub count: u64,
    /// First node of this rank (follow [`FpTree::next_same_rank`]).
    pub head: u32,
}

/// One node of an [`FpTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FpNode {
    count: u64,
    rank: u32,
    parent: u32,
    /// Next node of the same rank.
    hlink: u32,
}

/// A weighted prefix tree over rank space. Node 0 is the root.
///
/// Ranks follow the workspace convention (position in the F-list,
/// ascending support); transactions are inserted in *descending* rank
/// order so that parents always carry larger ranks than children.
///
/// A tree is two vectors, its nodes and its header rows, and is refilled
/// in place: [`FpTreeBuilder::new`] empties it and keeps its capacity,
/// so a search that builds many conditional trees reuses a few. The
/// default tree holds nothing, not even the root, and owns no heap
/// memory until it is first built.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FpTree {
    nodes: Vec<FpNode>,
    headers: Vec<FpHeader>,
}

impl FpTree {
    /// Empties the tree down to its root and gives it header rows for
    /// `freq` — ascending `(rank, count)` pairs, which every transaction
    /// inserted later must draw its items from. Capacity is kept.
    fn reset(&mut self, freq: &[(u32, u64)]) {
        debug_assert!(freq.windows(2).all(|w| w[0].0 < w[1].0));
        self.nodes.clear();
        self.nodes.push(FpNode { count: 0, rank: FP_NIL, parent: FP_NIL, hlink: FP_NIL });
        self.headers.clear();
        self.headers.extend(freq.iter().map(|&(r, c)| FpHeader {
            rank: r,
            count: c,
            head: FP_NIL,
        }));
    }

    /// The header rows, ascending by rank.
    pub fn headers(&self) -> &[FpHeader] {
        &self.headers
    }

    /// The header row for `rank`, if present.
    pub fn header_for(&self, rank: u32) -> Option<&FpHeader> {
        self.headers.binary_search_by_key(&rank, |h| h.rank).ok().map(|i| &self.headers[i])
    }

    /// Number of nodes, including the root.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Rank of `node` (undefined for the root).
    #[inline]
    pub fn rank_of(&self, node: u32) -> u32 {
        self.nodes[node as usize].rank
    }

    /// Weight of `node`.
    #[inline]
    pub fn count_of(&self, node: u32) -> u64 {
        self.nodes[node as usize].count
    }

    /// Parent of `node` (0 = root, `FP_NIL` above the root).
    #[inline]
    pub fn parent_of(&self, node: u32) -> u32 {
        self.nodes[node as usize].parent
    }

    /// Next node with the same rank (`FP_NIL` at chain end).
    #[inline]
    pub fn next_same_rank(&self, node: u32) -> u32 {
        self.nodes[node as usize].hlink
    }

    /// Collects the prefix path of `node` — the ranks of its proper
    /// ancestors, ascending (climbing yields them in ascending order) —
    /// into `out`.
    pub fn climb_into(&self, node: u32, out: &mut Vec<u32>) {
        out.clear();
        let mut p = self.nodes[node as usize].parent;
        while p != 0 && p != FP_NIL {
            let n = &self.nodes[p as usize];
            out.push(n.rank);
            p = n.parent;
        }
    }

    /// Whether the tree is one downward path. If it is, `out` holds the
    /// path's `(rank, count)` elements in path (descending-rank) order;
    /// otherwise its contents are unspecified.
    pub fn single_path_into(&self, out: &mut Vec<(u32, u64)>) -> bool {
        out.clear();
        // Parent rank > child rank, so descending header order is the
        // path order; verify the chain root-downward.
        let mut prev = 0u32;
        for h in self.headers.iter().rev() {
            if h.head == FP_NIL {
                continue;
            }
            let n = &self.nodes[h.head as usize];
            if n.hlink != FP_NIL || n.parent != prev {
                return false;
            }
            prev = h.head;
            out.push((h.rank, n.count));
        }
        true
    }

    /// Heap bytes of the node arenas (memory-budget accounting).
    pub fn arena_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<FpNode>()
            + self.headers.capacity() * std::mem::size_of::<FpHeader>()
    }
}

/// The first-child/next-sibling chains an [`FpTree`] needs only while it
/// is built, one `(first child, next sibling)` pair per node. One vector
/// serves every build of a search; each build clears it and keeps its
/// capacity.
#[derive(Debug, Default)]
pub struct FpChains(Vec<(u32, u32)>);

/// Fills an [`FpTree`] in place.
///
/// Child lookup is a linear scan of a first-child/next-sibling chain
/// rather than a hash map: fan-out per node is small in practice, and
/// the recycling FP miner builds *many* small conditional trees, where a
/// hash map's fixed construction cost dominates.
pub struct FpTreeBuilder<'a> {
    tree: &'a mut FpTree,
    chains: &'a mut Vec<(u32, u32)>,
}

impl<'a> FpTreeBuilder<'a> {
    /// Empties `tree` and starts it over with header rows for `freq`
    /// (ascending `(rank, count)` pairs that every inserted transaction
    /// draws its items from), building its chains in `chains`.
    pub fn new(tree: &'a mut FpTree, chains: &'a mut FpChains, freq: &[(u32, u64)]) -> Self {
        tree.reset(freq);
        let chains = &mut chains.0;
        chains.clear();
        chains.push((FP_NIL, FP_NIL));
        FpTreeBuilder { tree, chains }
    }

    /// Inserts a transaction given in **descending** rank order with
    /// multiplicity `weight`. Every rank must have a header row.
    pub fn insert_desc(&mut self, ranks_desc: impl Iterator<Item = u32>, weight: u64) {
        let FpTree { nodes, headers } = &mut *self.tree;
        let chains = &mut *self.chains;
        let mut node = 0u32;
        for r in ranks_desc {
            // Scan the child chain for an existing branch.
            let mut c = chains[node as usize].0;
            while c != FP_NIL && nodes[c as usize].rank != r {
                c = chains[c as usize].1;
            }
            node = if c != FP_NIL {
                nodes[c as usize].count += weight;
                c
            } else {
                let c = nodes.len() as u32;
                let row =
                    headers.binary_search_by_key(&r, |h| h.rank).expect("rank has a header row");
                nodes.push(FpNode {
                    count: weight,
                    rank: r,
                    parent: node,
                    hlink: headers[row].head,
                });
                headers[row].head = c;
                // Prepend to the parent's child chain.
                chains.push((FP_NIL, chains[node as usize].0));
                chains[node as usize].0 = c;
                c
            };
        }
    }

    /// Finishes construction; the chains stay behind for the next build.
    pub fn finish(self) {
        // Every allocation site funnels through one builder, so this is
        // the single place FP-tree nodes are accounted (root excluded).
        metrics::add("mine.fp_nodes", self.tree.nodes.len() as u64 - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cases, mine_apriori, Family, Miner};
    use gogreen_data::{Item, MinSupport, TransactionDb};

    /// Builds a tree over `freq` from transactions in descending rank
    /// order, each of weight 1.
    fn build(freq: &[(u32, u64)], rows: &[&[u32]]) -> FpTree {
        let mut tree = FpTree::default();
        let mut chains = FpChains::default();
        let mut b = FpTreeBuilder::new(&mut tree, &mut chains, freq);
        for row in rows {
            b.insert_desc(row.iter().copied(), 1);
        }
        b.finish();
        tree
    }

    fn single_path(t: &FpTree) -> Option<Vec<(u32, u64)>> {
        let mut path = Vec::new();
        t.single_path_into(&mut path).then_some(path)
    }

    #[test]
    fn matches_oracle_on_paper_example_all_thresholds() {
        cases::paper_example_all_thresholds(Family::Fp);
    }

    #[test]
    fn single_path_shortcut_is_exact() {
        // Identical tuples build a single-path tree at the root.
        let db = TransactionDb::from_rows(&[&[1, 2, 3, 4], &[1, 2, 3, 4], &[1, 2, 3, 4]]);
        let fp = Family::Fp.mine(&db, MinSupport::Absolute(2));
        assert_eq!(fp.len(), 15);
        assert_eq!(fp.support_of(&[Item(1), Item(2), Item(3), Item(4)]), Some(3));
    }

    #[test]
    fn single_path_with_varying_counts() {
        // Path counts decrease down the tree: subset supports must take
        // the minimum along the chosen elements.
        let db = TransactionDb::from_rows(&[&[1, 2, 3], &[1, 2, 3], &[1, 2], &[1]]);
        let fp = Family::Fp.mine(&db, MinSupport::Absolute(1));
        assert_eq!(fp.support_of(&[Item(1)]), Some(4));
        assert_eq!(fp.support_of(&[Item(1), Item(2)]), Some(3));
        assert_eq!(fp.support_of(&[Item(1), Item(2), Item(3)]), Some(2));
        let oracle = mine_apriori(&db, MinSupport::Absolute(1));
        assert!(fp.same_patterns_as(&oracle));
    }

    #[test]
    fn branching_tree_regression() {
        let db = TransactionDb::from_rows(&[
            &[1, 2, 5],
            &[2, 4],
            &[2, 3],
            &[1, 2, 4],
            &[1, 3],
            &[2, 3],
            &[1, 3],
            &[1, 2, 3, 5],
            &[1, 2, 3],
        ]);
        cases::assert_matches_oracle(Family::Fp, &db, 1..=5);
    }

    #[test]
    fn empty_db() {
        assert!(Family::Fp.mine(&TransactionDb::new(), MinSupport::Absolute(1)).is_empty());
    }

    #[test]
    fn tree_structure_shares_prefixes() {
        let freq = [(0u32, 2u64), (1, 2), (2, 2)];
        // The second insert reuses 2 and 1.
        let t = build(&freq, &[&[2, 1, 0], &[2, 1]]);
        // Root + 3 nodes (2, 1, 0).
        assert_eq!(t.num_nodes(), 4);
        let h2 = t.header_for(2).unwrap();
        assert_eq!(t.count_of(h2.head), 2);
        assert!(t.header_for(9).is_none());
    }

    #[test]
    fn climb_yields_ascending_prefix() {
        let freq = [(0u32, 1u64), (1, 1), (2, 1)];
        let t = build(&freq, &[&[2, 1, 0]]);
        let leaf = t.header_for(0).unwrap().head;
        let mut out = Vec::new();
        t.climb_into(leaf, &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn single_path_detection() {
        let freq = [(0u32, 1u64), (1, 2), (2, 3)];
        let t = build(&freq, &[&[2, 1, 0], &[2, 1], &[2]]);
        assert_eq!(single_path(&t), Some(vec![(2, 3), (1, 2), (0, 1)]));
        // A branch kills it.
        assert_eq!(single_path(&build(&freq, &[&[2, 1], &[2, 0]])), None);
    }

    #[test]
    fn rebuilding_in_place_forgets_the_previous_tree() {
        let mut tree = FpTree::default();
        let mut chains = FpChains::default();
        let mut b = FpTreeBuilder::new(&mut tree, &mut chains, &[(0, 2), (1, 1), (3, 2)]);
        b.insert_desc([3, 1, 0].into_iter(), 1);
        b.insert_desc([3, 0].into_iter(), 1);
        b.finish();
        let mut b = FpTreeBuilder::new(&mut tree, &mut chains, &[(1, 1), (2, 1)]);
        b.insert_desc([2, 1].into_iter(), 1);
        b.finish();
        assert_eq!(tree, build(&[(1, 1), (2, 1)], &[&[2, 1]]));
    }
}
