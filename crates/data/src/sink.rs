//! Pattern sinks: where miners deliver their output.
//!
//! The paper excludes the cost of *outputting* patterns from all reported
//! timings (§5.2) because it is identical across algorithms. Miners here
//! therefore emit into a [`PatternSink`]: tests use [`CollectSink`] to
//! materialize a [`PatternSet`], while benchmarks use [`CountSink`] so that
//! allocation of millions of result itemsets does not drown out the mining
//! cost being compared.

use crate::item::Item;
use crate::pattern::{Pattern, PatternSet};

/// Receives each frequent pattern exactly once.
pub trait PatternSink {
    /// Called once per discovered pattern. `items` need not be sorted;
    /// sinks that materialize patterns canonicalize.
    fn emit(&mut self, items: &[Item], support: u64);
}

/// Collects emitted patterns into a [`PatternSet`].
#[derive(Debug, Default)]
pub struct CollectSink {
    set: PatternSet,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, yielding the collected set.
    pub fn into_set(self) -> PatternSet {
        self.set
    }

    /// Borrowed view of the collected set.
    pub fn set(&self) -> &PatternSet {
        &self.set
    }
}

impl PatternSink for CollectSink {
    fn emit(&mut self, items: &[Item], support: u64) {
        // Distinct by the `PatternSink` contract: append, no lookup.
        self.set.push_distinct(Pattern::from_unsorted(items, support));
    }
}

/// Counts emitted patterns without materializing them.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountSink {
    count: u64,
    total_items: u64,
    max_len: usize,
    /// XOR-fold of (items, support); defeats dead-code elimination in
    /// benchmarks and doubles as a cheap cross-run checksum.
    checksum: u64,
}

impl CountSink {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of patterns emitted.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of pattern lengths.
    pub fn total_items(&self) -> u64 {
        self.total_items
    }

    /// Longest pattern seen.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Order-independent checksum of everything emitted.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

impl PatternSink for CountSink {
    fn emit(&mut self, items: &[Item], support: u64) {
        self.count += 1;
        self.total_items += items.len() as u64;
        self.max_len = self.max_len.max(items.len());
        let mut h = support.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for &it in items {
            h ^= u64::from(it.id()).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
        self.checksum ^= h;
    }
}

/// Adapts a closure as a sink.
pub struct FnSink<F: FnMut(&[Item], u64)>(pub F);

impl<F: FnMut(&[Item], u64)> PatternSink for FnSink<F> {
    fn emit(&mut self, items: &[Item], support: u64) {
        (self.0)(items, support)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_sink_builds_set() {
        let mut s = CollectSink::new();
        s.emit(&[Item(2), Item(1)], 4);
        s.emit(&[Item(3)], 2);
        let set = s.into_set();
        assert_eq!(set.len(), 2);
        assert_eq!(set.support_of(&[Item(1), Item(2)]), Some(4));
    }

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::new();
        s.emit(&[Item(1)], 4);
        s.emit(&[Item(1), Item(2), Item(3)], 2);
        assert_eq!(s.count(), 2);
        assert_eq!(s.total_items(), 4);
        assert_eq!(s.max_len(), 3);
    }

    #[test]
    fn count_sink_checksum_is_order_independent() {
        let mut a = CountSink::new();
        a.emit(&[Item(1)], 4);
        a.emit(&[Item(2)], 3);
        let mut b = CountSink::new();
        b.emit(&[Item(2)], 3);
        b.emit(&[Item(1)], 4);
        assert_eq!(a.checksum(), b.checksum());
        let mut c = CountSink::new();
        c.emit(&[Item(2)], 3);
        c.emit(&[Item(1)], 5);
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn fn_sink_calls_closure() {
        let mut seen = Vec::new();
        {
            let mut s = FnSink(|items: &[Item], sup| seen.push((items.len(), sup)));
            s.emit(&[Item(9)], 1);
        }
        assert_eq!(seen, vec![(1, 1)]);
    }
}
