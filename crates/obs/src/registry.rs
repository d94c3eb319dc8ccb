//! The central metric-name registry: every observable name in the
//! workspace, declared exactly once.
//!
//! [`crate::metrics::is_thread_invariant`] used to free-float as a
//! prefix rule that could silently drift from the names the engines
//! actually emit. The registry makes the contract checkable: each entry
//! carries the name, what it is (counter, max-gauge, histogram, or
//! span), whether its merged value is **thread-invariant** (bit-identical
//! at any `--threads N` because it measures logical work), and a
//! one-line doc. `tests/metric_registry.rs` lints the source tree
//! against this table in both directions — an emitted name missing here,
//! or a declared name no longer emitted anywhere, fails the build.

/// What an observable name denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefKind {
    /// A monotone counter ([`crate::metrics::add`]).
    Counter,
    /// A high-water mark ([`crate::metrics::set_max`]).
    Max,
    /// A log₂-bucketed distribution ([`crate::histogram::observe`]).
    Hist,
    /// A trace/profile span name ([`mod@crate::span`]).
    Span,
}

/// One declared observable name.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The exact `&'static str` passed at the emit site.
    pub name: &'static str,
    /// Counter, max-gauge, histogram, or span.
    pub kind: DefKind,
    /// True when the merged value is bit-identical at any thread count.
    /// Spans carry wall time, which is never invariant; they are
    /// declared `false`.
    pub invariant: bool,
    /// One-line description.
    pub doc: &'static str,
}

macro_rules! defs {
    ($(($name:literal, $kind:ident, $inv:literal, $doc:literal)),* $(,)?) => {
        &[$(MetricDef {
            name: $name,
            kind: DefKind::$kind,
            invariant: $inv,
            doc: $doc,
        }),*]
    };
}

/// Every observable name in the workspace. Sorted by name; the lint
/// test enforces sortedness and uniqueness.
pub const ALL: &[MetricDef] = defs![
    (
        "alloc.arena_reuses",
        Counter,
        true,
        "projection-arena generations that reused an existing slab"
    ),
    (
        "alloc.projection_bytes",
        Counter,
        true,
        "bytes *used* (never capacity) across all projection-arena generations"
    ),
    ("batch", Span, false, "one batched multi-query run (plan + shared pass + demux)"),
    (
        "batch.demux_patterns",
        Counter,
        true,
        "patterns in a batch's shared stream processed by the demultiplexer"
    ),
    ("batch.fanout", Hist, true, "member queries accepting each shared-pass pattern at demux time"),
    ("batch.queries", Counter, true, "queries submitted across all batch runs"),
    (
        "batch.rejected",
        Counter,
        true,
        "queries the admission bound kept out of a shared pass (answered solo)"
    ),
    ("batch.shared_passes", Counter, true, "coalesced mining passes executed for batches"),
    ("compress", Span, false, "one compression pass (cover build + sweep + emit)"),
    (
        "compress.group_size",
        Hist,
        true,
        "tuples per emitted compressed group (the distribution behind compress.groups_emitted)"
    ),
    ("compress.groups_emitted", Counter, true, "groups written into the compressed database"),
    ("compress.runs", Counter, true, "compression passes executed"),
    ("compress.tuples_covered", Counter, true, "tuples claimed by some pattern's cover"),
    ("compress.tuples_total", Counter, true, "tuples presented to the compressor"),
    ("cover", Span, false, "the cover sweep inside a compression pass"),
    ("cover.build", Span, false, "building the vertical CoverIndex for a sweep"),
    (
        "cover.run_len",
        Hist,
        false,
        "tuples claimed per pattern per chunk in the cover sweep (machine work: chunking \
         re-partitions the claims across threads)"
    ),
    (
        "cover.words_scanned",
        Counter,
        false,
        "bitmap words read by AND-chains in the cover kernel (machine work: chunked sweeps \
         rescan boundaries)"
    ),
    (
        "encode",
        Span,
        false,
        "rank-encoding the mined database against its F-list, once per engine run"
    ),
    (
        "flist",
        Span,
        false,
        "counting item supports into the F-list, once per engine run (plain or compressed)"
    ),
    ("mine", Span, false, "one mining run (any engine, raw or recycled)"),
    (
        "mine.bitmap_words_scanned",
        Counter,
        true,
        "tidset bitmap words read by the vertical engine's AND+popcount kernels"
    ),
    (
        "mine.bound_prunes",
        Counter,
        true,
        "extension levels terminated early by the Geerts-Goethals-Van den Bussche bound"
    ),
    ("mine.candidate_tests", Counter, true, "support tests performed against min-support"),
    (
        "mine.diffset_words",
        Counter,
        true,
        "u32 diffset entries produced or read by the vertical engine's dEclat kernels"
    ),
    ("mine.fp_nodes", Counter, true, "FP-tree nodes allocated, root and conditional trees alike"),
    ("mine.group_hits", Counter, true, "compressed groups consulted during counting"),
    ("mine.max_depth", Max, true, "deepest projection recursion reached"),
    (
        "mine.node_density",
        Hist,
        true,
        "per-node tidset density (set bits per 1024 bitmap slots) observed at each vertical \
         materialization, the signal behind representation switching"
    ),
    (
        "mine.projected_db_size",
        Hist,
        true,
        "rows (tuples or groups) in each projected database at build time"
    ),
    ("mine.projected_dbs", Counter, true, "projected databases materialized"),
    (
        "mine.repr_switches",
        Counter,
        true,
        "vertical nodes whose children were materialized in a different representation than \
         their parent (bitmap to tid-list, bitmap to diffset, or tid-list to diffset)"
    ),
    (
        "mine.tidlist_elems",
        Counter,
        true,
        "u32 tid-list entries produced or read by the vertical engine's sparse kernels"
    ),
    (
        "mine.tidset_words",
        Hist,
        true,
        "bitmap words per tidset level materialized by the vertical engine"
    ),
    (
        "mine.touches_per_projection",
        Hist,
        true,
        "tuple touches per counting pass (the distribution behind mine.tuple_touches)"
    ),
    ("mine.tuple_touches", Counter, true, "tuple visits during support counting"),
    (
        "session.cold_splits",
        Counter,
        true,
        "cold session rounds and batches the two-step planner split into a pre-mine at xi_mid, \
         a compression and a mine of the compressed database"
    ),
    (
        "session.round",
        Span,
        false,
        "one MiningSession round (any dispatch mode, or one batch); carries xi_mid when split"
    ),
    ("session.rounds", Counter, true, "session rounds executed, batches included"),
    ("session.rounds_cached", Counter, true, "rounds answered verbatim from the previous result"),
    ("session.rounds_filtered", Counter, true, "rounds answered by filtering the previous result"),
    ("session.rounds_fresh", Counter, true, "cold rounds with an empty store (mined raw or split)"),
    ("session.rounds_recycled", Counter, true, "rounds mined on a recycled compressed database"),
    ("storage.budget_high_water", Max, true, "peak bytes resident under a storage memory budget"),
    ("storage.resident_peak", Max, true, "largest segment payload resident at once"),
    ("storage.segment_bytes", Hist, true, "on-disk size of each sealed segment file"),
    ("storage.segments_read", Counter, true, "full segment payload loads (one per pass)"),
    ("storage.segments_written", Counter, true, "segment files sealed"),
    ("storage.spill_bytes", Counter, true, "bytes written to spill partitions"),
    ("storage.spill_partitions", Counter, true, "spill partition files flushed"),
];

/// Looks up a declared name.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    ALL.binary_search_by(|d| d.name.cmp(name)).ok().map(|i| &ALL[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_and_unique() {
        for pair in ALL.windows(2) {
            assert!(pair[0].name < pair[1].name, "{} !< {}", pair[0].name, pair[1].name);
        }
    }

    #[test]
    fn lookup_finds_declared_names_only() {
        let d = lookup("mine.tuple_touches").expect("declared");
        assert_eq!(d.kind, DefKind::Counter);
        assert!(d.invariant);
        let c = lookup("cover.words_scanned").expect("declared");
        assert!(!c.invariant);
        assert!(lookup("mine.not_a_metric").is_none());
    }

    #[test]
    fn spans_are_never_invariant() {
        for d in ALL.iter().filter(|d| d.kind == DefKind::Span) {
            assert!(!d.invariant, "{} is a span and carries wall time", d.name);
        }
    }

    #[test]
    fn docs_are_nonempty() {
        for d in ALL {
            assert!(!d.doc.is_empty(), "{} lacks a doc line", d.name);
        }
    }
}
