#![warn(missing_docs)]

//! Observability for the `gogreen` workspace: tracing spans and mining
//! counters that explain *why* recycling wins.
//!
//! The paper's headline claim — MCP beats MLP even though MLP compresses
//! better — is a claim about *search-space work saved*: candidate tests
//! skipped, projected databases built group-at-a-time instead of
//! tuple-at-a-time. Wall clock alone cannot show that. This crate
//! provides the two missing instruments:
//!
//! * [`Recorder`] — everything one run measures, owned by that run:
//!   installed in a thread-local slot for the run's length, inherited by
//!   `gogreen_util::pool` workers (each merges its share back before it
//!   returns), and scoped by [`measure`], which runs a closure under a
//!   child recorder and returns exactly what the closure recorded.
//!   Merges are additions (counters) and `max` (gauges) — commutative
//!   and associative — so totals are **bit-identical at any `--threads`
//!   setting** for counters that measure logical work. With no recorder
//!   installed (the default), every update is one thread-local load and
//!   a branch.
//! * [`metrics`] — named counters and max-gauges.
//! * [`mod@span`] — hierarchical wall-time spans (enter/exit, phase name,
//!   `key=value` fields, parent links) emitted as JSON lines to the
//!   recorder's trace writer. When it has none, entering a span reads
//!   no clock and allocates nothing.
//!
//! On top of those primitives sit the profiling layers added for the
//! perf-gate work:
//!
//! * [`histogram`] — deterministic log₂-bucketed distributions, recorded
//!   and merged exactly like the counters.
//! * [`profile`] — the span stream folded in-process into a
//!   self-time/total-time/call-count tree, exported as a table or
//!   collapsed-stack format for flamegraph tooling.
//! * [`snapshot`] — captures of all metric state and the exporter hook
//!   (the interface a long-running server polls).
//! * [`report`] — the run record: totals, profile and per-round
//!   snapshots of one command as one versioned JSON object.
//! * [`registry`] — the central declaration of every observable name
//!   with its thread-invariance class, linted against the source tree.
//!
//! Nothing is recorded until a recorder is installed, so library users
//! and the test suite pay (nearly) nothing, and concurrent runs — tests
//! on the harness's threads, members of a batch — never see each
//! other's counts. The front ends' `--report` flag installs one per
//! command through [`report`], the CLI's `--trace-out` another.
//!
//! The crate depends only on `gogreen-util` (for [`gogreen_util::Json`]
//! and the hasher), so every other workspace crate can depend on it
//! without cycles.

pub mod histogram;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod snapshot;
pub mod span;

pub use recorder::{measure, measure_profiled, Recorder};
pub use snapshot::MetricsSnapshot;
pub use span::{event, span, tracing_enabled, Span};

/// An error line: printed to stderr and mirrored into the trace stream
/// when one is active.
pub fn error(msg: &str) {
    eprintln!("{msg}");
    event("error", [("msg", gogreen_util::Json::from(msg))]);
}
