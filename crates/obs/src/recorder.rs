//! The scoped [`Recorder`]: everything one run measures, owned by that
//! run instead of by the process.
//!
//! A recorder holds the run's counters and max-gauges, its histograms,
//! its profile tree (when profiling) and — shared with every recorder
//! derived from it — the optional trace writer and snapshot exporter.
//! It lives in one thread-local slot for the length of a run:
//! [`Recorder::install`] puts it there, [`Recorder::uninstall`] takes
//! it back with everything recorded. With the slot empty (the default)
//! every update is one thread-local load and a branch.
//!
//! # Scopes
//!
//! [`measure`] runs a closure under a fresh *child* recorder, returns
//! exactly what the closure recorded, and then merges the child into
//! the parent. Counters merge by addition and max-gauges by `max`, so a
//! parent's totals come out the same whether or not anything inside it
//! was measured separately — and a child's max-gauges are its own, not
//! the high-water mark of whatever ran before it.
//!
//! # Workers
//!
//! `gogreen_util::pool` spawns every fork/join worker through one
//! routine, which asks the hook registered here what its workers
//! inherit. Each worker runs under a fresh child of the forking
//! thread's recorder and, before it returns, merges that child into a
//! per-fork inbox; the forking thread merges the inbox once every
//! worker has joined. Merges are commutative, so totals of logical work
//! are bit-identical at any thread count, and nothing relies on a
//! thread-local destructor running.

use crate::histogram::Histogram;
use crate::metrics::Metric;
use crate::profile::Profile;
use crate::snapshot::{Exporter, MetricsSnapshot};
use gogreen_util::pool::{self, Inherited};
use gogreen_util::FxHashMap;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A trace writer shared by a recorder and every recorder derived from
/// it, so span lines from measured scopes and workers reach one sink.
pub(crate) type SharedTrace = Arc<Mutex<Box<dyn Write + Send>>>;

/// What one run records. See the [module docs](self).
#[derive(Default)]
pub struct Recorder {
    metrics: FxHashMap<&'static str, Metric>,
    hists: FxHashMap<&'static str, Histogram>,
    /// `Some` while spans fold into the profile tree.
    pub(crate) profile: Option<Profile>,
    pub(crate) trace: Option<SharedTrace>,
    pub(crate) exporter: Option<Arc<Mutex<Exporter>>>,
}

thread_local! {
    /// True while [`CURRENT`] holds a recorder: the only state the
    /// disabled fast path reads.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// True while the calling thread has a recorder installed.
#[inline]
pub(crate) fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Replaces the calling thread's recorder, returning the previous one.
fn swap(next: Option<Recorder>) -> Option<Recorder> {
    ACTIVE.with(|a| a.set(next.is_some()));
    CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), next))
}

/// Runs `f` on the calling thread's recorder, if one is installed. `f`
/// must not call back into this module (the slot is borrowed).
pub(crate) fn with_current<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    if !active() {
        return None;
    }
    CURRENT.try_with(|c| c.borrow_mut().as_mut().map(f)).ok().flatten()
}

impl Recorder {
    /// An empty recorder of counters, max-gauges and histograms.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Also folds every span into a self-time profile tree.
    pub fn with_profile(mut self) -> Recorder {
        self.profile = Some(Profile::default());
        self
    }

    /// Also writes every span and event as a JSON line to `w`.
    pub fn with_trace(mut self, w: Box<dyn Write + Send>) -> Recorder {
        self.trace = Some(Arc::new(Mutex::new(w)));
        self
    }

    /// Also delivers every [`crate::snapshot::emit`] to `e`.
    pub fn with_exporter(mut self, e: Exporter) -> Recorder {
        self.exporter = Some(Arc::new(Mutex::new(e)));
        self
    }

    /// Installs this recorder on the calling thread, replacing (and
    /// dropping) any recorder installed there.
    pub fn install(self) {
        pool::set_fork_hook(inherit);
        swap(Some(self));
    }

    /// Takes the calling thread's recorder out of its slot, with
    /// everything recorded since [`Recorder::install`].
    pub fn uninstall() -> Option<Recorder> {
        swap(None)
    }

    /// A fresh recorder that records the same layers and shares this
    /// one's trace writer and exporter.
    fn child(&self) -> Recorder {
        Recorder {
            profile: self.profile.as_ref().map(|_| Profile::default()),
            trace: self.trace.clone(),
            exporter: self.exporter.clone(),
            ..Recorder::default()
        }
    }

    /// Folds `other`'s records into this recorder.
    fn merge(&mut self, other: Recorder) {
        for (name, m) in other.metrics {
            self.record(name, m);
        }
        for (name, h) in other.hists {
            self.hists.entry(name).or_default().merge(&h);
        }
        if let (Some(mine), Some(theirs)) = (self.profile.as_mut(), other.profile) {
            mine.merge(theirs);
        }
    }

    pub(crate) fn record(&mut self, name: &'static str, m: Metric) {
        self.metrics.entry(name).and_modify(|g| g.merge(m)).or_insert(m);
    }

    pub(crate) fn observe(&mut self, name: &'static str, value: u64) {
        self.hists.entry(name).or_default().observe(value);
    }

    /// Every counter, gauge and histogram recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self.metrics.iter().map(|(&n, &m)| (n, m)).collect(),
            hists: self.hists.iter().map(|(&n, h)| (n, h.clone())).collect(),
        }
    }

    /// The profile tree, when built [`Recorder::with_profile`].
    pub fn profile(&self) -> Option<&Profile> {
        self.profile.as_ref()
    }

    /// Flushes the trace writer, if any, reporting its error.
    pub fn flush_trace(&self) -> std::io::Result<()> {
        match &self.trace {
            Some(w) => w.lock().unwrap_or_else(|e| e.into_inner()).flush(),
            None => Ok(()),
        }
    }
}

/// Runs `f` under a fresh child of the calling thread's recorder (or a
/// fresh recorder, if none is installed), returns `f`'s result with
/// exactly what it recorded, and merges that into the parent.
///
/// ```
/// let ((), snap) = gogreen_obs::measure(|| gogreen_obs::metrics::add("test.n", 3));
/// assert_eq!(snap.value("test.n"), Some(3));
/// ```
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
    let (out, snap, _) = scope(false, f);
    (out, snap)
}

/// Like [`measure`], and also returns the profile of the spans `f`
/// opened, profiled even when the calling thread's recorder is not.
pub fn measure_profiled<R>(f: impl FnOnce() -> R) -> (R, MetricsSnapshot, Profile) {
    let (out, snap, profile) = scope(true, f);
    (out, snap, profile.unwrap_or_default())
}

fn scope<R>(profile: bool, f: impl FnOnce() -> R) -> (R, MetricsSnapshot, Option<Profile>) {
    let parent = swap(None);
    let mut child = parent.as_ref().map_or_else(Recorder::new, Recorder::child);
    if profile && child.profile.is_none() {
        child = child.with_profile();
    }
    Recorder::install(child);
    let out = f();
    let child = swap(None).unwrap_or_default();
    let snap = child.snapshot();
    let profile = if profile { child.profile.clone() } else { None };
    if let Some(mut parent) = parent {
        parent.merge(child);
        swap(Some(parent));
    }
    (out, snap, profile)
}

/// The pool's fork hook: what the calling thread's workers inherit.
fn inherit() -> Option<Inherited> {
    let inbox = Arc::new(Mutex::new(with_current(|r| r.child())?));
    let shared = Arc::clone(&inbox);
    let enter = move || -> Box<dyn FnOnce()> {
        swap(Some(shared.lock().unwrap_or_else(|e| e.into_inner()).child()));
        let shared = Arc::clone(&shared);
        Box::new(move || {
            if let Some(worker) = swap(None) {
                shared.lock().unwrap_or_else(|e| e.into_inner()).merge(worker);
            }
        })
    };
    let join = move || {
        let workers = std::mem::take(&mut *inbox.lock().unwrap_or_else(|e| e.into_inner()));
        with_current(|r| r.merge(workers));
    };
    Some(Inherited::new(Box::new(enter), Box::new(join)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{histogram, metrics};
    use gogreen_util::pool::{par_map_indexed, Parallelism};

    #[test]
    fn measure_reports_its_own_work_and_feeds_the_parent() {
        let ((), outer) = measure(|| {
            metrics::add("test.c", 2);
            metrics::set_max("test.m", 9);
            let ((), inner) = measure(|| {
                metrics::add("test.c", 3);
                metrics::set_max("test.m", 4);
            });
            assert_eq!(inner.value("test.c"), Some(3));
            assert_eq!(inner.value("test.m"), Some(4), "a scope's maxes are its own");
        });
        assert_eq!(outer.value("test.c"), Some(5));
        assert_eq!(outer.value("test.m"), Some(9));
        assert!(!active(), "measure restores the empty slot");
    }

    #[test]
    fn pool_workers_merge_into_the_forking_scope() {
        let (_, snap) = measure(|| {
            par_map_indexed(Parallelism::threads(4), 8, |i| {
                metrics::add("test.sharded", 100);
                metrics::set_max("test.depth", 10 + i as u64);
                histogram::observe("test.hist_sharded", i as u64);
            })
        });
        assert_eq!(snap.value("test.sharded"), Some(800));
        assert_eq!(snap.value("test.depth"), Some(17));
        let h = &snap.hists["test.hist_sharded"];
        assert_eq!((h.count, h.sum), (8, 28));
    }

    #[test]
    fn uninstalled_threads_record_nothing() {
        metrics::add("test.off", 5);
        histogram::observe("test.off_hist", 5);
        assert!(Recorder::uninstall().is_none());
        std::thread::scope(|s| {
            s.spawn(|| {
                Recorder::new().install();
                metrics::add("test.other_thread", 1);
            });
        });
        let ((), snap) = measure(|| {});
        assert!(snap.is_empty(), "{snap:?}");
    }
}
