//! A shared pattern store for multi-user recycling.
//!
//! The paper notes (§2) that "when there are many users in a data mining
//! system, the frequent patterns discovered by one user also provide
//! opportunity for the others to recycle". [`PatternStore`] is that
//! shared repository: sessions publish the frequent sets they mine, keyed
//! by dataset, and later sessions (of any user/thread) fetch the most
//! useful prior set to compress with.
//!
//! Two lookup policies serve two different dispatch paths:
//!
//! * [`PatternStore::best_at_most`] — the *cheapest exact superset*: the
//!   highest published threshold ≤ the new round's ξ. Any such set
//!   contains the complete answer, so the new round is a filter, and the
//!   closest (highest-threshold, smallest) superset filters cheapest.
//! * [`PatternStore::best_for`] — the best *recycling fodder* when no
//!   superset exists (the new ξ undercuts everything published). This
//!   follows the paper's §5 observation that a lower initial support
//!   yields better recycling — more resources were spent, so more can be
//!   reclaimed: it returns the stored set with the lowest threshold.

use gogreen_data::PatternSet;
use gogreen_util::FxHashMap;
use std::sync::{Arc, RwLock};

/// One published pattern set.
#[derive(Debug, Clone)]
struct Entry {
    abs_support: u64,
    patterns: Arc<PatternSet>,
}

/// Thread-safe repository of mined pattern sets, keyed by dataset name.
#[derive(Debug, Default)]
pub struct PatternStore {
    inner: RwLock<FxHashMap<String, Vec<Entry>>>,
}

impl PatternStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a pattern set mined on `dataset` at the absolute
    /// threshold `abs_support`. Re-publishing at the same threshold
    /// replaces the previous entry. Takes an owned set or a shared
    /// `Arc`, so a caller that keeps the set too shares it, not a copy.
    pub fn publish(&self, dataset: &str, abs_support: u64, patterns: impl Into<Arc<PatternSet>>) {
        let patterns = patterns.into();
        let mut map = self.inner.write().expect("store lock poisoned");
        let entries = map.entry(dataset.to_owned()).or_default();
        match entries.iter_mut().find(|e| e.abs_support == abs_support) {
            Some(e) => e.patterns = patterns,
            None => {
                entries.push(Entry { abs_support, patterns });
                entries.sort_by_key(|e| e.abs_support);
            }
        }
    }

    /// The exact entry published at `abs_support`, if any.
    pub fn get(&self, dataset: &str, abs_support: u64) -> Option<Arc<PatternSet>> {
        self.inner
            .read()
            .expect("store lock poisoned")
            .get(dataset)?
            .iter()
            .find(|e| e.abs_support == abs_support)
            .map(|e| Arc::clone(&e.patterns))
    }

    /// The best recycled set for a new round on `dataset`: the entry with
    /// the lowest threshold (richest pattern set). Returns the threshold
    /// it was mined at alongside the patterns.
    pub fn best_for(&self, dataset: &str) -> Option<(u64, Arc<PatternSet>)> {
        self.inner
            .read()
            .expect("store lock poisoned")
            .get(dataset)?
            .first()
            .map(|e| (e.abs_support, Arc::clone(&e.patterns)))
    }

    /// The cheapest *exact superset* for a new round at absolute
    /// threshold `xi`: the entry with the **highest** published threshold
    /// ≤ `xi`. Every pattern frequent at `xi` is frequent at any lower
    /// threshold, so such an entry contains the complete answer and the
    /// round reduces to a support filter — and the closest superset is
    /// the smallest one to filter. `None` when every published threshold
    /// is above `xi` (the answer may contain patterns no entry holds;
    /// fall back to [`Self::best_for`] fodder and re-mine).
    pub fn best_at_most(&self, dataset: &str, xi: u64) -> Option<(u64, Arc<PatternSet>)> {
        self.inner
            .read()
            .expect("store lock poisoned")
            .get(dataset)?
            .iter()
            .rev()
            .find(|e| e.abs_support <= xi)
            .map(|e| (e.abs_support, Arc::clone(&e.patterns)))
    }

    /// Thresholds published for `dataset`, ascending.
    pub fn thresholds(&self, dataset: &str) -> Vec<u64> {
        self.inner
            .read()
            .expect("store lock poisoned")
            .get(dataset)
            .map(|es| es.iter().map(|e| e.abs_support).collect())
            .unwrap_or_default()
    }

    /// Number of datasets with at least one entry.
    pub fn num_datasets(&self) -> usize {
        self.inner.read().expect("store lock poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::{MinSupport, TransactionDb};
    use gogreen_miners::mine_apriori;

    fn fp(minsup: u64) -> PatternSet {
        mine_apriori(&TransactionDb::paper_example(), MinSupport::Absolute(minsup))
    }

    #[test]
    fn publish_and_get() {
        let store = PatternStore::new();
        store.publish("paper", 3, fp(3));
        assert!(store.get("paper", 3).is_some());
        assert!(store.get("paper", 4).is_none());
        assert!(store.get("other", 3).is_none());
        assert_eq!(store.num_datasets(), 1);
    }

    #[test]
    fn best_for_prefers_lowest_threshold() {
        let store = PatternStore::new();
        store.publish("paper", 4, fp(4));
        store.publish("paper", 2, fp(2));
        store.publish("paper", 3, fp(3));
        let (sup, set) = store.best_for("paper").unwrap();
        assert_eq!(sup, 2);
        assert_eq!(set.len(), fp(2).len());
        assert_eq!(store.thresholds("paper"), vec![2, 3, 4]);
    }

    #[test]
    fn best_at_most_prefers_closest_superset() {
        let store = PatternStore::new();
        store.publish("paper", 4, fp(4));
        store.publish("paper", 2, fp(2));
        store.publish("paper", 3, fp(3));
        // Exact hit: the published 3-entry, not the richer 2-entry.
        let (sup, set) = store.best_at_most("paper", 3).unwrap();
        assert_eq!(sup, 3);
        assert_eq!(set.len(), fp(3).len());
        // Between entries: highest threshold not exceeding ξ.
        assert_eq!(store.best_at_most("paper", 5).unwrap().0, 4);
        // Below every entry: no superset exists.
        assert!(store.best_at_most("paper", 1).is_none());
        assert!(store.best_at_most("missing", 3).is_none());
        // The two policies disagree on purpose: fodder is the richest.
        assert_eq!(store.best_for("paper").unwrap().0, 2);
    }

    #[test]
    fn republish_replaces() {
        let store = PatternStore::new();
        store.publish("d", 3, fp(3));
        store.publish("d", 3, fp(4)); // pretend a corrected set
        assert_eq!(store.get("d", 3).unwrap().len(), fp(4).len());
        assert_eq!(store.thresholds("d").len(), 1);
    }

    #[test]
    fn concurrent_publish_and_read() {
        let store = std::sync::Arc::new(PatternStore::new());
        let mut handles = Vec::new();
        for user in 0..8u64 {
            let store = std::sync::Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let sup = 2 + (user % 3);
                store.publish("shared", sup, fp(sup));
                // Readers may observe any interleaving; best_for must
                // always be a valid entry.
                if let Some((s, set)) = store.best_for("shared") {
                    assert!((2..=4).contains(&s));
                    assert!(!set.is_empty());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.best_for("shared").unwrap().0, 2);
    }
}
