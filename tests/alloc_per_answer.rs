//! Allocation counts of result materialization and of one answer.
//!
//! This test binary installs a global allocator that counts the calling
//! thread's allocations (fresh blocks and reallocations) through a
//! `const`-initialised thread-local, so the harness's other test threads
//! do not disturb a measurement. It pins two properties:
//!
//! 1. materializing, filtering and cloning a set of short patterns
//!    allocates only for vector growth — O(log n), not one block per
//!    pattern;
//! 2. a serial answer of every family, raw and recycled, on the dense
//!    connect4 analog at its 80 % floor makes fewer than one allocation
//!    per 5 patterns it emits: the searches keep per-depth storage, not
//!    per-node buffers, and a short pattern costs nothing.
//!
//! What an answer still allocates is bounded by its shape, not by its
//! search: one block per pattern longer than [`INLINE_ITEMS`] (195 of
//! the 5,972 here), the F-list, the root structures, and the growth of
//! each depth's storage to the largest node at that depth. The last is
//! the bulk: recycled H-Mine's per-rank bucket queues and TreeProjection's
//! per-depth slabs reach about a tenth of the patterns here.

use gogreen::data::{CollectSink, PatternSink, INLINE_ITEMS};
use gogreen::prelude::*;
use gogreen_datagen::{DatasetPreset, PresetKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a `const`-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations this thread
/// made inside it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allowed allocations for `n` appends: a constant number of growing
/// vectors, each doubling about `log2 n` times.
fn growth_bound(n: usize) -> u64 {
    8 * (u64::from(n.ilog2()) + 1)
}

#[test]
fn short_patterns_allocate_only_for_vector_growth() {
    const N: u32 = 20_000;
    // Distinct itemsets of 1 to `INLINE_ITEMS` items, emitted in DFS
    // (unsorted) order.
    let width = INLINE_ITEMS as u32;
    let itemsets: Vec<Vec<Item>> = (0..N)
        .map(|i| (0..=i % width).map(|k| Item(i * width + width - 1 - k)).collect())
        .collect();
    let (set, made) = allocations(|| {
        let mut sink = CollectSink::new();
        for (i, items) in itemsets.iter().enumerate() {
            sink.emit(items, i as u64 + 1);
        }
        sink.into_set()
    });
    assert_eq!(set.len(), N as usize);
    assert_eq!(set.max_len(), INLINE_ITEMS);
    let bound = growth_bound(N as usize);
    assert!(made <= bound, "materializing {N} patterns made {made} allocations (bound {bound})");

    let (kept, made) = allocations(|| set.filter(|p| p.support() % 2 == 0));
    assert_eq!(kept.len(), N as usize / 2);
    assert!(made <= bound, "filtering made {made} allocations (bound {bound})");

    let (copy, made) = allocations(|| set.clone());
    assert!(copy.as_slice() == set.as_slice());
    assert!(made <= bound, "cloning made {made} allocations (bound {bound})");

    // Longer itemsets spill to the heap, one block each, and read back
    // the same.
    let long = Pattern::from_ids((0..11).rev(), 3);
    assert_eq!(long.items(), (0..11).map(Item).collect::<Vec<_>>());
    assert_eq!(long, Pattern::new(long.items().to_vec(), 3));
}

#[test]
fn every_answer_on_dense_data_allocates_less_than_once_per_5_patterns() {
    let preset = DatasetPreset::new(PresetKind::Connect4, 0.01);
    let db = preset.generate();
    let floor = MinSupport::percent(80.0);
    let fp_old = Family::Hm.mine(&db, preset.xi_old());
    let cdb = Compressor::new(Strategy::Mcp).compress(&db, &fp_old);
    assert!(cdb.num_groups() > 0, "nothing compressed");
    for family in Family::ALL {
        let raw = allocations(|| family.mine(&db, floor));
        let recycled = allocations(|| family.mine(&cdb, floor));
        for (how, (set, made)) in [("raw", raw), ("recycled", recycled)] {
            let patterns = set.len() as u64;
            assert!(patterns > 1_000, "{family:?} {how}: only {patterns} patterns");
            assert!(
                made * 5 < patterns,
                "{family:?} {how}: {made} allocations for {patterns} patterns"
            );
        }
    }
}
