//! Data parallelism via scoped threads.
//!
//! The workspace has no thread-pool dependency, and the hot loops it
//! parallelizes (tuple covering, per-group FP-tree construction, support
//! counting) are all fork/join over an in-memory slice — `std::thread::scope`
//! fits exactly. [`Parallelism`] is the knob plumbed from the CLI down to
//! the kernels; the helpers here guarantee that results come back in input
//! order, so callers can produce output *identical* to their serial path
//! regardless of thread interleaving.
//!
//! Every helper spawns its workers through one routine, which hands each
//! worker the [`Inherited`] context of the thread that forked it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How many worker threads a kernel may use.
///
/// `Parallelism::serial()` (1 thread) is the default everywhere — the
/// reproduction sweeps stay single-threaded so paper-figure timings remain
/// comparable — and all parallel paths are required to produce output
/// byte-identical to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Exactly one thread: run inline on the caller.
    pub const fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// `n` worker threads; `0` means "use all available cores".
    pub fn threads(n: usize) -> Self {
        let threads = if n == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            n
        };
        Parallelism { threads }
    }

    /// The resolved thread count (≥ 1).
    pub fn get(&self) -> usize {
        self.threads
    }

    /// True when the caller should take its inline, single-threaded path.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Thread count clamped to `n` units of work — no point spawning
    /// workers that would receive an empty share.
    pub fn for_items(&self, n: usize) -> usize {
        self.threads.min(n).max(1)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

/// What a pool worker inherits from the thread that forks it.
///
/// The context is type-erased so this crate stays below the layer that
/// owns the inherited state (the observability crate's recorder), which
/// registers how to capture it with [`set_fork_hook`].
pub struct Inherited {
    /// Runs first on each worker; returns what that worker runs last,
    /// before it returns its results.
    enter: Box<dyn Fn() -> Box<dyn FnOnce()> + Sync>,
    /// Runs on the forking thread once every worker has returned.
    join: Box<dyn FnOnce()>,
}

impl Inherited {
    /// A context from its worker-side `enter` and forking-side `join`.
    pub fn new(enter: Box<dyn Fn() -> Box<dyn FnOnce()> + Sync>, join: Box<dyn FnOnce()>) -> Self {
        Inherited { enter, join }
    }
}

static FORK_HOOK: OnceLock<fn() -> Option<Inherited>> = OnceLock::new();

/// Registers the function that captures, on a forking thread, what its
/// workers inherit. The first registration wins; later calls are no-ops.
pub fn set_fork_hook(hook: fn() -> Option<Inherited>) {
    let _ = FORK_HOOK.set(hook);
}

/// Runs `work(w)` for `w in 0..workers` on scoped threads and returns
/// the results in worker order. The one place this module spawns: each
/// worker enters the forking thread's [`Inherited`] context first and
/// leaves it before returning.
fn fork<R, F>(workers: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let inherited = FORK_HOOK.get().and_then(|capture| capture());
    let enter = inherited.as_ref().map(|i| &i.enter);
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let work = &work;
                scope.spawn(move || {
                    let leave = enter.map(|enter| enter());
                    let r = work(w);
                    if let Some(leave) = leave {
                        leave();
                    }
                    r
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
    });
    if let Some(inherited) = inherited {
        (inherited.join)();
    }
    out
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// Work is handed out dynamically (an atomic cursor) so uneven item costs
/// balance across workers, but because each index's result lands in its
/// own slot the output is independent of scheduling. `f` must be pure
/// with respect to ordering for the determinism guarantee to mean
/// anything — all workspace callers are.
pub fn par_map_indexed<R, F>(par: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_init(par, n, || (), |_, i| f(i))
}

/// [`par_map_indexed`] with per-worker state: `init()` builds one state
/// per worker (one in total when serial), and `f(&mut state, i)` runs
/// for every index that worker claims.
pub fn par_map_init<S, R, I, F>(par: Parallelism, n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = par.for_items(n);
    if workers <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let partials = fork(workers, |_| {
        let mut state = init();
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(&mut state, i)));
        }
        local
    });
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for (i, r) in partials.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter().map(|r| r.expect("pool slot unfilled")).collect()
}

/// Splits `items` into one contiguous chunk per worker and maps `f` over
/// the chunks, returning `(chunk_start, result)` pairs in chunk order.
///
/// Chunk boundaries depend only on `items.len()` and the thread count, so
/// a caller that merges the per-chunk results in order reproduces exactly
/// what a single pass over `items` would have produced.
pub fn par_chunks<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<(usize, R)>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let workers = par.for_items(items.len());
    if workers <= 1 {
        return vec![(0, f(0, items))];
    }
    let bounds = chunk_bounds(items.len(), workers);
    fork(workers, |w| {
        let (lo, hi) = bounds[w];
        (lo, f(lo, &items[lo..hi]))
    })
}

/// Splits `0..n` into one contiguous index range per worker and maps `f`
/// over the ranges, returning `(range_start, result)` pairs in range
/// order.
///
/// This is [`par_chunks`] for storage that cannot be sliced as `&[T]` —
/// CSR buffers, where a "chunk" is a range of row indices into one flat
/// allocation. Range boundaries depend only on `n` and the thread count
/// (the same [`chunk_bounds`] split `par_chunks` uses), so merging the
/// per-range results in order reproduces a single serial pass.
pub fn par_ranges<R, F>(par: Parallelism, n: usize, f: F) -> Vec<(usize, R)>
where
    R: Send,
    F: Fn(usize, std::ops::Range<usize>) -> R + Sync,
{
    let workers = par.for_items(n);
    if workers <= 1 {
        return vec![(0, f(0, 0..n))];
    }
    let bounds = chunk_bounds(n, workers);
    fork(workers, |w| {
        let (lo, hi) = bounds[w];
        (lo, f(lo, lo..hi))
    })
}

/// Contiguous `[lo, hi)` bounds splitting `n` items into `workers` chunks
/// whose sizes differ by at most one.
pub fn chunk_bounds(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1);
    let base = n / workers;
    let extra = n % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut lo = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        bounds.push((lo, lo + len));
        lo += len;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_map_agree() {
        let serial = par_map_indexed(Parallelism::serial(), 100, |i| i * i);
        let parallel = par_map_indexed(Parallelism::threads(4), 100, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn chunks_cover_input_in_order() {
        let items: Vec<u32> = (0..103).collect();
        let parts = par_chunks(Parallelism::threads(8), &items, |_, c| c.to_vec());
        let mut expect_lo = 0;
        let mut glued = Vec::new();
        for (lo, part) in parts {
            assert_eq!(lo, expect_lo);
            expect_lo += part.len();
            glued.extend(part);
        }
        assert_eq!(glued, items);
    }

    #[test]
    fn chunk_bounds_partition() {
        for n in [0usize, 1, 7, 64, 103] {
            for w in [1usize, 2, 3, 8, 200] {
                let b = chunk_bounds(n, w);
                assert_eq!(b.len(), w.max(1));
                assert_eq!(b[0].0, 0);
                assert_eq!(b.last().unwrap().1, n);
                for pair in b.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0);
                }
            }
        }
    }

    #[test]
    fn ranges_cover_input_in_order() {
        for n in [0usize, 1, 7, 103] {
            let parts = par_ranges(Parallelism::threads(8), n, |_, r| r.collect::<Vec<usize>>());
            let mut expect_lo = 0;
            let mut glued = Vec::new();
            for (lo, part) in parts {
                assert_eq!(lo, expect_lo);
                expect_lo += part.len();
                glued.extend(part);
            }
            assert_eq!(glued, (0..n).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn ranges_match_chunks_split() {
        let items: Vec<u32> = (0..103).collect();
        let a = par_chunks(Parallelism::threads(4), &items, |_, c| c.len());
        let b = par_ranges(Parallelism::threads(4), items.len(), |_, r| r.len());
        assert_eq!(a, b);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = par_map_indexed(Parallelism::threads(16), 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn zero_threads_resolves_to_cores() {
        assert!(Parallelism::threads(0).get() >= 1);
    }
}
