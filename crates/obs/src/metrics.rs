//! Named counters and max-gauges.
//!
//! # Naming scheme
//!
//! Dotted lowercase names, `<subsystem>.<quantity>`:
//!
//! * `compress.*` / `mine.*` / `session.*` / `storage.*` — **logical
//!   work**: quantities determined by the input and the algorithm, not by
//!   the machine. These are bit-identical at any thread count (updates
//!   are additive or max-merged, both order-independent).
//! * `alloc.*` — projection-arena accounting (`alloc.projection_bytes`,
//!   `alloc.arena_reuses`). Also logical work: each arena generation
//!   records its *used* bytes (never capacity), so the totals equal a
//!   sum over projections regardless of how projections were spread
//!   across workers.
//! * `cover.*` — **machine work** inside the cover kernel (bitmap words
//!   scanned, AND-chains run). Chunked parallel sweeps legitimately do a
//!   different amount of machine work than one serial sweep, so these
//!   may vary with `--threads`; [`is_thread_invariant`] tells the two
//!   classes apart.
//!
//! # Recording
//!
//! Updates land in the calling thread's [`crate::Recorder`]; pool
//! workers record into children of it that merge back at join (see
//! [`crate::recorder`]). Counter merges are additions and gauge merges
//! are `max`, both order-independent.
//!
//! # Overhead
//!
//! With no recorder installed (the default), an update is one
//! thread-local load and a branch — the budget is < 2% on a compression
//! run even at 10⁴ calls, enforced by `tests/obs_metrics.rs`.

use crate::recorder::{self, with_current, Recorder};

/// What a metric measures and how recorders merge it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count; merges by addition.
    Counter,
    /// A high-water mark; merges by maximum.
    Max,
}

/// One merged metric value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Merge behaviour.
    pub kind: Kind,
    /// Current merged value.
    pub value: u64,
}

impl Metric {
    pub(crate) fn merge(&mut self, other: Metric) {
        debug_assert_eq!(self.kind, other.kind, "metric kind mismatch");
        match self.kind {
            Kind::Counter => self.value += other.value,
            Kind::Max => self.value = self.value.max(other.value),
        }
    }
}

fn record(name: &'static str, kind: Kind, value: u64) {
    with_current(|r| r.record(name, Metric { kind, value }));
}

/// With `on`, installs a fresh [`Recorder`] on the calling thread unless
/// one is already installed; without, removes the calling thread's
/// recorder and discards what it recorded. A shim for callers that
/// toggle recording around their own before/after reads; scoped code
/// uses [`crate::measure`].
pub fn set_enabled(on: bool) {
    if !on {
        drop(Recorder::uninstall());
    } else if !enabled() {
        Recorder::new().install();
    }
}

/// True while the calling thread has a recorder installed.
#[inline]
pub fn enabled() -> bool {
    recorder::active()
}

/// Adds `delta` to the counter `name`. No-op without a recorder.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if delta != 0 && enabled() {
        record(name, Kind::Counter, delta);
    }
}

/// Raises the max-gauge `name` to at least `value`. No-op without a
/// recorder.
#[inline]
pub fn set_max(name: &'static str, value: u64) {
    if enabled() {
        record(name, Kind::Max, value);
    }
}

/// Every metric of the calling thread's recorder, sorted by name (empty
/// without a recorder).
pub fn snapshot() -> Vec<(&'static str, Metric)> {
    with_current(|r| r.snapshot().metrics.into_iter().collect()).unwrap_or_default()
}

/// True when `name` measures logical work (thread-invariant totals), as
/// opposed to machine work inside the chunked cover kernel. The
/// `alloc.*` arena counters are in the invariant class: they record
/// used bytes per projection, so worker count cannot move them.
///
/// Declared names answer from [`crate::registry`]; names outside the
/// registry (test-only counters, ad-hoc experiments) fall back to the
/// historical prefix rule.
pub fn is_thread_invariant(name: &str) -> bool {
    match crate::registry::lookup(name) {
        Some(def) => def.invariant,
        None => !name.starts_with("cover."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_updates_record_nothing() {
        set_enabled(false);
        add("test.counter", 5);
        set_max("test.gauge", 9);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn counters_add_and_gauges_max() {
        set_enabled(true);
        add("test.c", 2);
        add("test.c", 3);
        set_max("test.m", 7);
        set_max("test.m", 4);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap[0], ("test.c", Metric { kind: Kind::Counter, value: 5 }));
        assert_eq!(snap[1], ("test.m", Metric { kind: Kind::Max, value: 7 }));
        assert!(!enabled());
    }

    #[test]
    fn thread_invariance_classification() {
        assert!(is_thread_invariant("mine.candidate_tests"));
        assert!(is_thread_invariant("compress.tuples_covered"));
        assert!(is_thread_invariant("alloc.projection_bytes"));
        assert!(is_thread_invariant("alloc.arena_reuses"));
        assert!(!is_thread_invariant("cover.words_scanned"));
    }
}
