//! Tree Projection (Agarwal, Aggarwal, Prasad — J. Parallel Distrib.
//! Comput. 2001), depth-first variant, as used by the paper (§4.2).
//!
//! The lexicographic tree of itemsets is explored depth-first. At each
//! node, transactions are *projected* onto the node's frequent extensions
//! and a triangular counting matrix tallies the supports of all pairs of
//! extensions in one pass — producing every child node's extension set
//! (two levels of the tree from one counting pass).
//!
//! The traversal is [`Family::Tp`](crate::Family::Tp), in
//! [`crate::engine::tp`]; on a layout with zero groups every
//! transaction sits in the single pattern-free partition and the search
//! is the classic depth-first algorithm. This module holds
//! [`PairMatrix`], the node counting structure plain and recycled
//! mining share.

use gogreen_util::FxHashMap;

/// Above this many extensions the pair matrix switches from a dense
/// triangular array to a hash map (the dense form would need
/// `k·(k−1)/2` counters).
const DENSE_LIMIT: usize = 3000;

/// The pair-support matrix of one lexicographic-tree node: counts the
/// support of every extension pair `(a, b)`, `a < b`, in one pass.
///
/// Public because the Tree Projection recycling adaptation in
/// `gogreen-core` reuses it with weighted bumps (a whole group's pattern
/// pairs are counted once with the group count).
pub enum PairMatrix {
    /// Flat upper-triangular array, used while the extension count
    /// stays within the dense limit (3000).
    Dense {
        /// Number of extensions.
        k: usize,
        /// Triangular counters.
        counts: Vec<u64>,
    },
    /// Hash-backed fallback for very wide nodes.
    Sparse(FxHashMap<(u32, u32), u64>),
}

impl Default for PairMatrix {
    /// An empty dense matrix that owns no heap memory; [`Self::reset`]
    /// sizes it.
    fn default() -> Self {
        PairMatrix::Dense { k: 0, counts: Vec::new() }
    }
}

impl PairMatrix {
    /// Creates a matrix over `k ≥ 2` extensions.
    pub fn new(k: usize) -> Self {
        let mut m = PairMatrix::default();
        m.reset(k);
        m
    }

    /// Zeroes the matrix and resizes it for `k ≥ 2` extensions, reusing
    /// its storage, so one matrix per search depth serves every node
    /// there.
    pub fn reset(&mut self, k: usize) {
        if k > DENSE_LIMIT {
            match self {
                PairMatrix::Sparse(m) => m.clear(),
                dense => *dense = PairMatrix::Sparse(FxHashMap::default()),
            }
            return;
        }
        if matches!(self, PairMatrix::Sparse(_)) {
            *self = PairMatrix::default();
        }
        if let PairMatrix::Dense { k: dk, counts } = self {
            *dk = k;
            counts.clear();
            counts.resize(k * k.saturating_sub(1) / 2, 0);
        }
    }

    #[inline]
    fn dense_index(k: usize, a: usize, b: usize) -> usize {
        debug_assert!(a < b && b < k);
        a * k - a * (a + 1) / 2 + (b - a - 1)
    }

    /// Adds 1 to pair `(a, b)`; requires `a < b`.
    #[inline]
    pub fn bump(&mut self, a: u32, b: u32) {
        self.bump_by(a, b, 1);
    }

    /// Adds `w` to pair `(a, b)`; requires `a < b`.
    #[inline]
    pub fn bump_by(&mut self, a: u32, b: u32, w: u64) {
        match self {
            PairMatrix::Dense { k, counts } => {
                counts[Self::dense_index(*k, a as usize, b as usize)] += w
            }
            PairMatrix::Sparse(m) => *m.entry((a, b)).or_insert(0) += w,
        }
    }

    /// The count of pair `(a, b)`; requires `a < b`.
    #[inline]
    pub fn get(&self, a: u32, b: u32) -> u64 {
        match self {
            PairMatrix::Dense { k, counts } => {
                counts[Self::dense_index(*k, a as usize, b as usize)]
            }
            PairMatrix::Sparse(m) => m.get(&(a, b)).copied().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cases, mine_apriori, Family, Miner};
    use gogreen_data::{Item, MinSupport, TransactionDb};

    #[test]
    fn dense_index_is_a_bijection() {
        let k = 5;
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..k {
            for b in (a + 1)..k {
                assert!(seen.insert(PairMatrix::dense_index(k, a, b)));
            }
        }
        assert_eq!(seen.len(), k * (k - 1) / 2);
        assert_eq!(*seen.iter().max().unwrap(), k * (k - 1) / 2 - 1);
    }

    #[test]
    fn sparse_and_dense_agree() {
        let mut d = PairMatrix::new(4);
        let mut s = PairMatrix::Sparse(FxHashMap::default());
        for &(a, b) in &[(0u32, 1u32), (0, 1), (2, 3), (1, 3)] {
            d.bump(a, b);
            s.bump(a, b);
        }
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                assert_eq!(d.get(a, b), s.get(a, b), "({a},{b})");
            }
        }
    }

    #[test]
    fn reset_zeroes_and_switches_representation() {
        let mut m = PairMatrix::new(4);
        m.bump_by(1, 3, 5);
        m.reset(3);
        assert!(matches!(m, PairMatrix::Dense { k: 3, ref counts } if counts == &[0; 3]));
        m.reset(DENSE_LIMIT + 1);
        m.bump(0, DENSE_LIMIT as u32);
        m.reset(DENSE_LIMIT + 2);
        assert!(matches!(&m, PairMatrix::Sparse(map) if map.is_empty()));
        m.reset(2);
        m.bump(0, 1);
        assert_eq!(m.get(0, 1), 1);
    }

    #[test]
    fn matches_oracle_on_paper_example_all_thresholds() {
        cases::paper_example_all_thresholds(Family::Tp);
    }

    #[test]
    fn pairs_below_support_prune_children() {
        // 1 and 2 are each frequent but never co-occur.
        let db = TransactionDb::from_rows(&[&[1, 3], &[2, 3], &[1, 3], &[2, 3]]);
        let fp = Family::Tp.mine(&db, MinSupport::Absolute(2));
        assert_eq!(fp.support_of(&[Item(1), Item(2)]), None);
        assert_eq!(fp.support_of(&[Item(1), Item(3)]), Some(2));
        let oracle = mine_apriori(&db, MinSupport::Absolute(2));
        assert!(fp.same_patterns_as(&oracle));
    }

    #[test]
    fn empty_and_singleton() {
        cases::empty_and_singleton(Family::Tp);
    }
}
