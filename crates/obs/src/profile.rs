//! In-process self-time profiles aggregated from the span stream.
//!
//! Raw span JSONL (see [`mod@crate::span`]) is complete but post-hoc: you
//! need a second tool to learn *where time went*. When the installed
//! [`crate::Recorder`] profiles, every span additionally folds into its
//! [`Profile`] tree keyed by its **stack path** — the `;`-joined names
//! of the spans open on its thread, innermost last
//! (`mine;compress;cover`). Each node accumulates call count, **total
//! time** (wall time of the span) and **self time** (total minus time
//! spent in child spans).
//!
//! Self times telescope: a span's total is its self time plus its
//! children's totals, so summing self time over every node of a subtree
//! reproduces the root's total exactly (in integer microseconds — the
//! only slack is the clock reads between a child's measurement and the
//! parent's, which the acceptance tests bound by span-clock resolution).
//! That identity is what makes the collapsed-stack export
//! ([`Profile::to_collapsed`]) directly feedable to standard flamegraph
//! tooling: `path self_us` per line, weights summing to the run's root
//! total.
//!
//! Profiling is independent of tracing — either, both, or neither may be
//! on. The stack of open frames belongs to the thread, not the
//! recorder, so a span opened before a [`crate::measure`] scope still
//! prefixes the paths of the spans inside it.

use crate::recorder::with_current;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Aggregated timings of one stack path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfNode {
    /// Spans recorded at this path.
    pub calls: u64,
    /// Σ wall time of those spans, microseconds.
    pub total_us: u64,
    /// Σ (wall time − child-span time), microseconds.
    pub self_us: u64,
}

/// A profile tree: [`ProfNode`]s by stack path, sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    nodes: BTreeMap<String, ProfNode>,
}

/// One open frame on this thread's profile stack.
struct Frame {
    /// `;`-joined span names from the thread's outermost span.
    path: String,
    /// Σ total time of already-closed direct children, microseconds.
    child_us: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Pushes a frame for a span named `name`; called by [`crate::span`] on
/// enter when the recorder profiles. Returns false only during thread
/// teardown (TLS gone), in which case the span skips profile exit too.
pub(crate) fn on_enter(name: &'static str) -> bool {
    STACK
        .try_with(|s| {
            let mut s = s.borrow_mut();
            let path = match s.last() {
                Some(top) => format!("{};{name}", top.path),
                None => name.to_string(),
            };
            s.push(Frame { path, child_us: 0 });
        })
        .is_ok()
}

/// Pops the current frame and records `dur_us` against its path in the
/// calling thread's recorder; called by [`crate::span`] on drop when the
/// span pushed a frame.
pub(crate) fn on_exit(dur_us: u64) {
    let Ok(Some(frame)) = STACK.try_with(|s| {
        let mut s = s.borrow_mut();
        let frame = s.pop()?;
        if let Some(parent) = s.last_mut() {
            parent.child_us += dur_us;
        }
        Some(frame)
    }) else {
        return;
    };
    let self_us = dur_us.saturating_sub(frame.child_us);
    with_current(|r| {
        if let Some(p) = r.profile.as_mut() {
            p.record(frame.path, 1, dur_us, self_us);
        }
    });
}

impl Profile {
    /// Adds an observation at the full `;`-joined stack `path`.
    pub(crate) fn record(&mut self, path: String, calls: u64, total_us: u64, self_us: u64) {
        let node = self.nodes.entry(path).or_default();
        node.calls += calls;
        node.total_us += total_us;
        node.self_us += self_us;
    }

    /// Folds `other` into this tree, node by node.
    pub(crate) fn merge(&mut self, other: Profile) {
        for (path, n) in other.nodes {
            self.record(path, n.calls, n.total_us, n.self_us);
        }
    }

    /// Every node, sorted by stack path.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ProfNode)> {
        self.nodes.iter().map(|(p, n)| (p.as_str(), n))
    }

    /// The node at one exact stack path (`"mine;compress"`), if recorded.
    pub fn get(&self, path: &str) -> Option<ProfNode> {
        self.nodes.get(path).copied()
    }

    /// Σ self time over a root name's whole subtree, microseconds. By the
    /// telescoping identity this equals the root path's `total_us`.
    pub fn subtree_self_us(&self, root: &str) -> u64 {
        self.iter()
            .filter(|(p, _)| {
                *p == root || p.strip_prefix(root).is_some_and(|rest| rest.starts_with(';'))
            })
            .map(|(_, n)| n.self_us)
            .sum()
    }

    /// Renders the profile as an indented tree table: calls, total and
    /// self milliseconds per path, children indented under parents
    /// (paths sort lexicographically, so a parent immediately precedes
    /// its subtree).
    pub fn render_table(&self) -> String {
        if self.nodes.is_empty() {
            return "  (no profile recorded)".to_string();
        }
        let mut out = String::new();
        out.push_str("  calls     total_ms      self_ms  phase\n");
        for (path, node) in self.iter() {
            let depth = path.matches(';').count();
            let leaf = path.rsplit(';').next().unwrap_or(path);
            out.push_str(&format!(
                "  {:>5}  {:>11.3}  {:>11.3}  {:indent$}{leaf}\n",
                node.calls,
                node.total_us as f64 / 1e3,
                node.self_us as f64 / 1e3,
                "",
                indent = depth * 2,
            ));
        }
        out.pop();
        out
    }

    /// Renders the profile in collapsed-stack format — one `path self_us`
    /// line per node, `;`-separated frames — the input format of standard
    /// flamegraph tooling. Nodes whose self time rounded to zero are
    /// kept: dropping them would hide call counts, and zero weights are
    /// harmless.
    pub fn to_collapsed(&self) -> String {
        self.iter().map(|(path, node)| format!("{path} {}\n", node.self_us)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, Recorder};

    /// Runs `f` under a profiling recorder and returns its profile.
    fn profiled(f: impl FnOnce()) -> Profile {
        Recorder::new().with_profile().install();
        f();
        let rec = Recorder::uninstall().expect("installed above");
        rec.profile().expect("profiling recorder").clone()
    }

    #[test]
    fn unprofiled_recorders_push_no_frames() {
        Recorder::new().install();
        let sp = span("prof_off");
        STACK.with(|s| assert!(s.borrow().is_empty(), "no frame pushed"));
        drop(sp);
        assert!(Recorder::uninstall().expect("installed above").profile().is_none());
    }

    #[test]
    fn nesting_builds_paths_and_self_times_telescope() {
        let prof = profiled(|| {
            let _outer = span("outer_p");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner_p");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let outer = prof.get("outer_p").expect("outer recorded");
        let inner = prof.get("outer_p;inner_p").expect("inner recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert_eq!(inner.total_us, inner.self_us, "leaf: all time is self time");
        assert_eq!(
            outer.self_us + inner.self_us,
            outer.total_us,
            "self times telescope to the root total"
        );
        assert_eq!(prof.subtree_self_us("outer_p"), outer.total_us);
    }

    #[test]
    fn spans_inside_measure_fold_into_the_parent_profile() {
        let prof = profiled(|| {
            let _outer = span("outer_m");
            for _ in 0..3 {
                let ((), _) = crate::measure(|| drop(span("thrice")));
            }
        });
        assert_eq!(prof.get("outer_m;thrice").expect("recorded").calls, 3);
    }

    #[test]
    fn collapsed_and_table_render() {
        let mut prof = Profile::default();
        prof.record("a".into(), 1, 10, 4);
        prof.record("a;b".into(), 2, 6, 6);
        assert_eq!(prof.to_collapsed(), "a 4\na;b 6\n");
        let table = prof.render_table();
        assert!(table.contains("a\n"), "{table}");
        assert!(table.contains("  b"), "child indented: {table}");
        assert_eq!(prof.subtree_self_us("a"), 10);
    }

    #[test]
    fn distinct_prefix_names_do_not_alias_subtrees() {
        let mut prof = Profile::default();
        prof.record("mine".into(), 1, 10, 10);
        prof.record("miner_extra".into(), 1, 99, 99);
        assert_eq!(prof.subtree_self_us("mine"), 10);
    }
}
