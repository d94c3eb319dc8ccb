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
//! store of a compressed database and, on the degenerate
//! [`gogreen_data::PlainRanks`] substrate, as the classic global FP-tree.

use gogreen_obs::metrics;

/// Arena/link sentinel shared by all FP-tree fields.
pub const FP_NIL: u32 = u32::MAX;

/// One header-table row of an [`FpTree`].
#[derive(Debug, Clone, Copy)]
pub struct FpHeader {
    /// The item (rank).
    pub rank: u32,
    /// Its support in the tree's database.
    pub count: u64,
    /// First node of this rank (follow [`FpTree::next_same_rank`]).
    pub head: u32,
}

/// A weighted prefix tree over rank space. Node 0 is the root.
///
/// Ranks follow the workspace convention (position in the F-list,
/// ascending support); transactions are inserted in *descending* rank
/// order so that parents always carry larger ranks than children.
#[derive(Debug, Clone)]
pub struct FpTree {
    rank: Vec<u32>,
    count: Vec<u64>,
    parent: Vec<u32>,
    hlink: Vec<u32>,
    headers: Vec<FpHeader>,
}

impl FpTree {
    /// Creates a tree with header rows for `freq` — ascending `(rank,
    /// count)` pairs, which every transaction inserted later must draw
    /// its items from.
    pub fn with_headers(freq: &[(u32, u64)]) -> Self {
        debug_assert!(freq.windows(2).all(|w| w[0].0 < w[1].0));
        FpTree {
            rank: vec![FP_NIL],
            count: vec![0],
            parent: vec![FP_NIL],
            hlink: vec![FP_NIL],
            headers: freq
                .iter()
                .map(|&(r, c)| FpHeader { rank: r, count: c, head: FP_NIL })
                .collect(),
        }
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
        self.rank.len()
    }

    /// Rank of `node` (undefined for the root).
    #[inline]
    pub fn rank_of(&self, node: u32) -> u32 {
        self.rank[node as usize]
    }

    /// Weight of `node`.
    #[inline]
    pub fn count_of(&self, node: u32) -> u64 {
        self.count[node as usize]
    }

    /// Parent of `node` (0 = root, `FP_NIL` above the root).
    #[inline]
    pub fn parent_of(&self, node: u32) -> u32 {
        self.parent[node as usize]
    }

    /// Next node with the same rank (`FP_NIL` at chain end).
    #[inline]
    pub fn next_same_rank(&self, node: u32) -> u32 {
        self.hlink[node as usize]
    }

    /// Collects the prefix path of `node` — the ranks of its proper
    /// ancestors, ascending (climbing yields them in ascending order) —
    /// into `out`.
    pub fn climb_into(&self, node: u32, out: &mut Vec<u32>) {
        out.clear();
        let mut p = self.parent[node as usize];
        while p != 0 && p != FP_NIL {
            out.push(self.rank[p as usize]);
            p = self.parent[p as usize];
        }
    }

    /// If the tree is one downward path, returns its `(rank, count)`
    /// elements in path (descending-rank) order; otherwise `None`.
    pub fn single_path(&self) -> Option<Vec<(u32, u64)>> {
        let mut nodes = Vec::with_capacity(self.headers.len());
        for h in &self.headers {
            if h.head == FP_NIL {
                continue;
            }
            if self.hlink[h.head as usize] != FP_NIL {
                return None;
            }
            nodes.push(h.head);
        }
        // Parent rank > child rank, so descending node-rank order is the
        // path order; verify the chain root-downward.
        nodes.sort_unstable_by(|&a, &b| self.rank[b as usize].cmp(&self.rank[a as usize]));
        let mut prev = 0u32;
        for &n in &nodes {
            if self.parent[n as usize] != prev {
                return None;
            }
            prev = n;
        }
        Some(nodes.iter().map(|&n| (self.rank[n as usize], self.count[n as usize])).collect())
    }

    /// Heap bytes of the node arenas (memory-budget accounting).
    pub fn arena_bytes(&self) -> usize {
        self.rank.capacity() * 4
            + self.count.capacity() * 8
            + self.parent.capacity() * 4
            + self.hlink.capacity() * 4
            + self.headers.capacity() * std::mem::size_of::<FpHeader>()
    }
}

/// Incrementally builds an [`FpTree`]; holds the child/sibling chains
/// that are only needed during construction.
///
/// Child lookup is a linear scan of a first-child/next-sibling chain
/// rather than a hash map: fan-out per node is small in practice, and
/// the recycling FP miner builds *many* small conditional trees, where a
/// hash map's fixed construction cost dominates.
pub struct FpTreeBuilder {
    tree: FpTree,
    /// First child per node (parallel to the tree's node arrays).
    child: Vec<u32>,
    /// Next sibling per node.
    sibling: Vec<u32>,
}

impl FpTreeBuilder {
    /// Starts a tree with the given header rows (see
    /// [`FpTree::with_headers`]).
    pub fn new(freq: &[(u32, u64)]) -> Self {
        FpTreeBuilder {
            tree: FpTree::with_headers(freq),
            child: vec![FP_NIL],
            sibling: vec![FP_NIL],
        }
    }

    /// Inserts a transaction given in **descending** rank order with
    /// multiplicity `weight`. Every rank must have a header row.
    pub fn insert_desc(&mut self, ranks_desc: impl Iterator<Item = u32>, weight: u64) {
        let tree = &mut self.tree;
        let mut node = 0u32;
        for r in ranks_desc {
            // Scan the child chain for an existing branch.
            let mut found = FP_NIL;
            let mut c = self.child[node as usize];
            while c != FP_NIL {
                if tree.rank[c as usize] == r {
                    found = c;
                    break;
                }
                c = self.sibling[c as usize];
            }
            node = if found != FP_NIL {
                tree.count[found as usize] += weight;
                found
            } else {
                let c = tree.rank.len() as u32;
                tree.rank.push(r);
                tree.count.push(weight);
                tree.parent.push(node);
                let row = tree
                    .headers
                    .binary_search_by_key(&r, |h| h.rank)
                    .expect("rank has a header row");
                tree.hlink.push(tree.headers[row].head);
                tree.headers[row].head = c;
                // Prepend to the parent's child chain.
                self.child.push(FP_NIL);
                self.sibling.push(self.child[node as usize]);
                self.child[node as usize] = c;
                c
            };
        }
    }

    /// Finishes construction, dropping the child/sibling chains.
    pub fn finish(self) -> FpTree {
        // Every allocation site funnels through one builder, so this is
        // the single place FP-tree nodes are accounted (root excluded).
        metrics::add("mine.fp_nodes", self.tree.rank.len() as u64 - 1);
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cases, mine_apriori, Family, Miner};
    use gogreen_data::{Item, MinSupport, TransactionDb};

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
        let mut b = FpTreeBuilder::new(&freq);
        b.insert_desc([2, 1, 0].into_iter(), 1);
        b.insert_desc([2, 1].into_iter(), 1);
        let t = b.finish();
        // Root + 3 nodes (2, 1, 0): the second insert reuses 2 and 1.
        assert_eq!(t.num_nodes(), 4);
        let h2 = t.header_for(2).unwrap();
        assert_eq!(t.count_of(h2.head), 2);
        assert!(t.header_for(9).is_none());
    }

    #[test]
    fn climb_yields_ascending_prefix() {
        let freq = [(0u32, 1u64), (1, 1), (2, 1)];
        let mut b = FpTreeBuilder::new(&freq);
        b.insert_desc([2, 1, 0].into_iter(), 1);
        let t = b.finish();
        let leaf = t.header_for(0).unwrap().head;
        let mut out = Vec::new();
        t.climb_into(leaf, &mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn single_path_detection() {
        let freq = [(0u32, 1u64), (1, 2), (2, 3)];
        let mut b = FpTreeBuilder::new(&freq);
        b.insert_desc([2, 1, 0].into_iter(), 1);
        b.insert_desc([2, 1].into_iter(), 1);
        b.insert_desc([2].into_iter(), 1);
        let t = b.finish();
        assert_eq!(t.single_path(), Some(vec![(2, 3), (1, 2), (0, 1)]));
        // A branch kills it.
        let mut b = FpTreeBuilder::new(&freq);
        b.insert_desc([2, 1].into_iter(), 1);
        b.insert_desc([2, 0].into_iter(), 1);
        assert_eq!(b.finish().single_path(), None);
    }
}
