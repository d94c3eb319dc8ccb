//! Pattern utility functions — which pattern should compress a tuple?
//!
//! Both strategies from the paper's §3.2 are implemented. Utilities are
//! only ever *compared*, so they are computed in `u128` to keep MCP's
//! exponential term exact for any pattern length the miners can emit.

use gogreen_data::Pattern;
use std::cmp::Ordering;

/// The compression strategy (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// **Minimize Cost Principle**: `U(X) = (2^|X| − 1) · X.C`.
    ///
    /// `(2^|X| − 1) · X.C` estimates the search-space cost that was spent
    /// discovering `X` in the previous round — every subset of `X` is
    /// frequent with support ≥ `X.C` — and therefore the saving that
    /// reusing `X` can return. This is the strategy the paper finds
    /// superior for mining speed.
    #[default]
    Mcp,
    /// **Maximal Length Principle**: `U(X) = |X| · |DB| + X.C`.
    ///
    /// Prefers the longest pattern (best storage compression); among
    /// equal lengths, the most frequent. The `|X| · |DB|` term dominates
    /// the support term because `X.C ≤ |DB|`, so length always wins.
    Mlp,
    /// **Ablation (not in the paper)**: `U(X) = X.C` — support only,
    /// ignoring length. Isolates how much MCP's exponential length term
    /// contributes.
    SupportOnly,
    /// **Ablation (not in the paper)**: `U(X) = |X|` — length only,
    /// ignoring support. MLP without its frequency tie-break.
    LengthOnly,
}

impl Strategy {
    /// Strategy suffix used in algorithm names ("HM-MCP", "FP-MLP", …).
    pub fn suffix(self) -> &'static str {
        match self {
            Strategy::Mcp => "MCP",
            Strategy::Mlp => "MLP",
            Strategy::SupportOnly => "SUP",
            Strategy::LengthOnly => "LEN",
        }
    }

    /// The utility `U(X)` of a pattern with `len` items and support
    /// `support`, for a database of `db_len` tuples.
    pub fn utility(self, len: usize, support: u64, db_len: usize) -> u128 {
        match self {
            Strategy::Mcp => {
                // Exact below 63 items; beyond that the count is capped so
                // that multiplying by any u64 support cannot saturate and
                // ordering among such giants falls back to support.
                let subsets = if len >= 63 { 1u128 << 63 } else { (1u128 << len) - 1 };
                subsets * support as u128
            }
            Strategy::Mlp => (len as u128) * (db_len as u128) + support as u128,
            Strategy::SupportOnly => support as u128,
            Strategy::LengthOnly => len as u128,
        }
    }

    /// Utility of a [`Pattern`].
    pub fn utility_of(self, p: &Pattern, db_len: usize) -> u128 {
        self.utility(p.len(), p.support(), db_len)
    }
}

/// The utility order's sort keys, `U(X)` per pattern. Utilities are
/// precomputed once — recomputing them inside a comparator costs
/// O(n log n) u128 multiplications on pattern sets that reach tens of
/// thousands.
pub(crate) fn utility_keys(patterns: &[Pattern], strategy: Strategy, db_len: usize) -> Vec<u128> {
    patterns.iter().map(|p| strategy.utility_of(p, db_len)).collect()
}

/// Compares pattern indices `a` and `b` in utility order: descending
/// utility (`keys` from [`utility_keys`]), ties broken by the itemsets
/// ascending. A total order — the itemsets are distinct — so an
/// unstable sort or selection under it is deterministic.
pub(crate) fn cmp_utility(keys: &[u128], patterns: &[Pattern], a: u32, b: u32) -> Ordering {
    keys[b as usize]
        .cmp(&keys[a as usize])
        .then_with(|| patterns[a as usize].items().cmp(patterns[b as usize].items()))
}

/// Sorts pattern indices by descending utility; ties broken by the
/// pattern itemsets so compression is deterministic across runs. The
/// reference order: [`crate::cover::CoverIndex`] sorts only the ranks
/// its sweeps reach, under the same comparator.
pub fn order_by_utility(patterns: &[Pattern], strategy: Strategy, db_len: usize) -> Vec<u32> {
    let keys = utility_keys(patterns, strategy, db_len);
    let mut order: Vec<u32> = (0..patterns.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| cmp_utility(&keys, patterns, a, b));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcp_matches_paper_example_2() {
        // fgc:3 → (2³−1)·3 = 21; fg:3 → 9; e:4 → 4; f:3 → 3.
        assert_eq!(Strategy::Mcp.utility(3, 3, 5), 21);
        assert_eq!(Strategy::Mcp.utility(2, 3, 5), 9);
        assert_eq!(Strategy::Mcp.utility(1, 4, 5), 4);
        assert_eq!(Strategy::Mcp.utility(1, 3, 5), 3);
    }

    #[test]
    fn mlp_length_always_dominates() {
        let db_len = 1000;
        // A length-3 pattern with minimal support beats any length-2.
        assert!(Strategy::Mlp.utility(3, 1, db_len) > Strategy::Mlp.utility(2, 1000, db_len));
        // Among equal lengths, higher support wins.
        assert!(Strategy::Mlp.utility(2, 30, db_len) > Strategy::Mlp.utility(2, 20, db_len));
    }

    #[test]
    fn mcp_can_prefer_short_frequent_over_long_rare() {
        // 2-pattern with support 100: 300. 4-pattern with support 10: 150.
        assert!(Strategy::Mcp.utility(2, 100, 1000) > Strategy::Mcp.utility(4, 10, 1000));
    }

    #[test]
    fn huge_lengths_do_not_overflow() {
        let u = Strategy::Mcp.utility(130, 5, 10);
        assert!(u > 0);
        assert!(Strategy::Mcp.utility(130, 6, 10) > u);
    }

    #[test]
    fn ordering_is_descending_and_deterministic() {
        let patterns = vec![
            Pattern::from_ids([1], 3),
            Pattern::from_ids([2, 3, 4], 3),
            Pattern::from_ids([5, 6], 3),
            Pattern::from_ids([7, 8], 3),
        ];
        let order = order_by_utility(&patterns, Strategy::Mcp, 5);
        // fgc-like first (21), then the two 2-patterns (9, tie broken by
        // items: {5,6} before {7,8}), then the singleton.
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn paper_example_2_full_ordering() {
        // FP at ξ_old=3 from the paper (+ fc, which the paper's Example 1
        // omits): utilities under MCP.
        let fp = vec![
            Pattern::from_ids([5], 3),       // f:3 -> 3
            Pattern::from_ids([5, 6], 3),    // fg -> 9
            Pattern::from_ids([2, 5, 6], 3), // fgc -> 21
            Pattern::from_ids([6], 3),       // g -> 3
            Pattern::from_ids([2, 6], 3),    // gc -> 9
            Pattern::from_ids([0], 3),       // a -> 3
            Pattern::from_ids([0, 4], 3),    // ae -> 9
            Pattern::from_ids([4], 4),       // e -> 4
            Pattern::from_ids([2, 4], 3),    // ec -> 9
            Pattern::from_ids([2], 4),       // c -> 4
            Pattern::from_ids([2, 5], 3),    // fc -> 9
        ];
        let order = order_by_utility(&fp, Strategy::Mcp, 5);
        // fgc first, as the paper's Example 2 requires.
        assert_eq!(order[0], 2);
        // Then the five 2-patterns (utility 9) before the singletons.
        let u9: Vec<u32> = order[1..6].to_vec();
        for idx in u9 {
            assert_eq!(fp[idx as usize].len(), 2);
        }
    }
}
