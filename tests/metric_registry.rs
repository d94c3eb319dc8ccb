//! Lint: the metric-name registry is the single source of truth.
//!
//! Every observable name the workspace emits — counters, max-gauges,
//! histograms, spans — is a string literal somewhere under `crates/*/src`
//! or `src/`. This test walks those sources and checks both directions:
//!
//! 1. every literal that *looks like* a metric name (one of the six
//!    reserved dotted prefixes) is declared in
//!    [`gogreen::obs::registry::ALL`] — no undocumented names, no typos
//!    silently creating a second counter;
//! 2. every registry entry is actually emitted (or at least referenced)
//!    somewhere outside the registry itself — no dead declarations.
//!
//! The registry's own unit tests enforce sortedness/uniqueness and that
//! every entry carries a doc string; this test closes the loop from the
//! emission sites.

use gogreen::obs::registry;
use std::path::{Path, PathBuf};

/// The reserved metric namespaces. A quoted literal `"<prefix><word>"`
/// anywhere in the sources is treated as a metric name; other literals
/// (error messages, test fixtures, `obs.*` probes) are ignored.
const PREFIXES: &[&str] =
    &["mine.", "compress.", "cover.", "session.", "storage.", "alloc.", "batch."];

fn looks_like_metric(s: &str) -> bool {
    PREFIXES.iter().any(|p| {
        s.starts_with(p)
            && s.len() > p.len()
            && s[p.len()..].chars().all(|c| c.is_ascii_lowercase() || c == '_')
    })
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Extracts the double-quoted string literals of one source line.
/// Comment lines are skipped by the caller; escapes are unwrapped just
/// enough that `"\""` does not end a literal early. Metric names are
/// plain ASCII identifiers, so this does not need to be a full lexer.
fn string_literals(line: &str, out: &mut Vec<String>) {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut lit = Vec::new();
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1;
                }
                if j < bytes.len() {
                    lit.push(bytes[j]);
                }
                j += 1;
            }
            out.push(String::from_utf8_lossy(&lit).into_owned());
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

/// All whole string literals in the scanned sources, with `file:line`
/// provenance. The registry module itself is excluded — it declares
/// every name and would satisfy both directions vacuously.
fn scan_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rs_files(&root.join("src"), &mut files);
    rs_files(&root.join("crates"), &mut files);
    let mut found = Vec::new();
    for file in files {
        if file.ends_with("obs/src/registry.rs") {
            continue;
        }
        let text = std::fs::read_to_string(&file).expect("read source file");
        for (lineno, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("//") {
                continue;
            }
            let mut lits = Vec::new();
            string_literals(line, &mut lits);
            for lit in lits {
                found.push((lit, format!("{}:{}", file.display(), lineno + 1)));
            }
        }
    }
    assert!(!found.is_empty(), "source scan found no string literals — wrong root?");
    found
}

#[test]
fn every_emitted_metric_name_is_registered() {
    let mut undeclared: Vec<String> = scan_sources()
        .into_iter()
        .filter(|(lit, _)| looks_like_metric(lit) && registry::lookup(lit).is_none())
        .map(|(lit, at)| format!("  {lit:?} at {at}"))
        .collect();
    undeclared.dedup();
    assert!(
        undeclared.is_empty(),
        "metric-shaped literals missing from gogreen_obs::registry::ALL \
         (declare them with kind, invariance and a doc line):\n{}",
        undeclared.join("\n")
    );
}

#[test]
fn every_registered_name_is_emitted_somewhere() {
    let literals: std::collections::BTreeSet<String> =
        scan_sources().into_iter().map(|(lit, _)| lit).collect();
    let dead: Vec<&str> = registry::ALL
        .iter()
        .filter(|def| !literals.contains(def.name))
        .map(|def| def.name)
        .collect();
    assert!(
        dead.is_empty(),
        "registry entries never referenced outside the registry (remove or emit them): {dead:?}"
    );
}

#[test]
fn invariance_flags_flow_through_the_metrics_api() {
    // `is_thread_invariant` must answer from the registry, not from a
    // hard-coded prefix list: spot-check one of each class plus a span.
    use gogreen::obs::metrics::is_thread_invariant;
    assert!(is_thread_invariant("mine.tuple_touches"));
    assert!(is_thread_invariant("storage.segment_bytes"));
    assert!(!is_thread_invariant("cover.run_len"));
    assert!(!is_thread_invariant("mine"), "spans carry wall time; never invariant");
}
