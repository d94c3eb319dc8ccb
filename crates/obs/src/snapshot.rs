//! Metric snapshots, their renderings, and the exporter hook.
//!
//! A [`MetricsSnapshot`] is every counter, max-gauge and histogram a
//! [`crate::Recorder`] holds at one instant — what [`crate::measure`]
//! returns for a scope and what a run record (`--report F`, see
//! [`crate::report`]) holds for a whole run. Because the underlying
//! counters are bit-identical at any thread count for registry-invariant
//! names, so are the snapshots of a measured scope — the property
//! `tests/obs_snapshot.rs` pins.
//!
//! The exporter hook is the polling interface a long-running process
//! needs: build the recorder [`crate::Recorder::with_exporter`] and
//! every [`emit`] call delivers a labelled snapshot. `MiningSession`
//! emits one per round, each measured in its own scope; a run record
//! collects them as its `rounds`.

use crate::histogram::{bucket_range, Histogram};
use crate::metrics::{Kind, Metric};
use crate::recorder::with_current;
use gogreen_util::Json;
use std::collections::BTreeMap;

/// All metric state of one recorder at one point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counters and max-gauges, by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Histograms, by name.
    pub hists: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// The value of one counter/gauge in this snapshot.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.hists.is_empty()
    }

    /// Serializes as one JSON object:
    /// `{"counters":{..},"maxes":{..},"hists":{name:{count,sum,buckets}}}`.
    pub fn to_json(&self) -> Json {
        Json::obj(self.json_fields())
    }

    /// [`MetricsSnapshot::to_json`]'s fields, for records that embed
    /// them beside fields of their own.
    pub(crate) fn json_fields(&self) -> [(&'static str, Json); 3] {
        let mut counters = Vec::new();
        let mut maxes = Vec::new();
        for (&name, &m) in &self.metrics {
            let pair = (name.to_string(), Json::from(m.value));
            match m.kind {
                Kind::Counter => counters.push(pair),
                Kind::Max => maxes.push(pair),
            }
        }
        let hists =
            self.hists.iter().map(|(&n, h)| (n.to_string(), h.to_json())).collect::<Vec<_>>();
        [
            ("counters", Json::Obj(counters)),
            ("maxes", Json::Obj(maxes)),
            ("hists", Json::Obj(hists)),
        ]
    }

    /// Renders the counters and gauges as an aligned, `gogreen
    /// stats`-style table.
    pub fn render_metrics(&self) -> String {
        if self.metrics.is_empty() {
            return "  (no metrics recorded)".to_string();
        }
        let width = self.metrics.keys().map(|n| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, m) in &self.metrics {
            let tag = match m.kind {
                Kind::Counter => "",
                Kind::Max => " (max)",
            };
            out.push_str(&format!("  {name:<width$}  {}{tag}\n", m.value));
        }
        out.pop();
        out
    }

    /// Renders the histograms as an aligned table: count, sum, mean, the
    /// p50/p90/p99 bucket upper bounds, and the value range of the
    /// largest populated bucket.
    pub fn render_hists(&self) -> String {
        if self.hists.is_empty() {
            return "  (no histograms recorded)".to_string();
        }
        let width = self.hists.keys().map(|n| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, h) in &self.hists {
            let top = h
                .max_bucket()
                .and_then(bucket_range)
                .map_or("-".to_string(), |(lo, hi)| format!("{lo}..={hi}"));
            out.push_str(&format!(
                "  {name:<width$}  n={} sum={} mean={:.1} p50≤{} p90≤{} p99≤{} top {top}\n",
                h.count,
                h.sum,
                h.mean(),
                h.quantile_upper(0.50),
                h.quantile_upper(0.90),
                h.quantile_upper(0.99),
            ));
        }
        out.pop();
        out
    }
}

/// The exporter callback: receives a label and the snapshot.
pub type Exporter = Box<dyn FnMut(&str, &MetricsSnapshot) + Send>;

/// True while the calling thread's recorder has an exporter — emitters
/// use this to skip measuring when nothing is listening.
pub fn exporter_installed() -> bool {
    with_current(|r| r.exporter.is_some()).unwrap_or(false)
}

/// Delivers a labelled snapshot to the calling thread's exporter (no-op
/// otherwise).
pub fn emit(label: &str, snap: &MetricsSnapshot) {
    // Clone the shared exporter out first: the callback may record.
    if let Some(Some(e)) = with_current(|r| r.exporter.clone()) {
        (e.lock().unwrap_or_else(|p| p.into_inner()))(label, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{histogram, measure, metrics, Recorder};
    use std::sync::{Arc, Mutex};

    fn sample() -> MetricsSnapshot {
        measure(|| {
            metrics::add("test.snap_c", 2);
            metrics::set_max("test.snap_m", 3);
            histogram::observe("test.snap_h", 6);
        })
        .1
    }

    #[test]
    fn json_shape_groups_by_kind() {
        let j = sample().to_json();
        assert_eq!(
            j.get("counters").and_then(|c| c.get("test.snap_c")).and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            j.get("maxes").and_then(|c| c.get("test.snap_m")).and_then(Json::as_u64),
            Some(3)
        );
        let h = j.get("hists").and_then(|h| h.get("test.snap_h")).expect("hist");
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn jsonl_and_tables_render() {
        let snap = sample();
        let line = snap.to_json().dump();
        assert!(!line.contains('\n'), "one JSON line: {line}");
        assert!(line.contains(r#""counters":{"test.snap_c":2}"#), "{line}");
        assert!(line.contains(r#""maxes":{"test.snap_m":3}"#), "{line}");
        assert!(line.contains(r#""test.snap_h":{"count":1,"sum":6,"buckets":{"3":1}}"#), "{line}");
        assert!(snap.render_metrics().contains("test.snap_c"));
        assert!(snap.render_metrics().contains("(max)"));
        assert!(snap.render_hists().contains("test.snap_h"));
    }

    #[test]
    fn exporter_receives_emits_of_its_recorder_only() {
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = seen.clone();
        Recorder::new()
            .with_exporter(Box::new(move |label, snap| {
                sink.lock().unwrap().push(format!("{label}:{}", snap.metrics.len()));
            }))
            .install();
        assert!(exporter_installed());
        emit("round-1", &sample());
        // Measured scopes share their parent's exporter.
        let ((), _) = measure(|| emit("round-2", &MetricsSnapshot::default()));
        drop(Recorder::uninstall());
        assert!(!exporter_installed());
        emit("round-3", &MetricsSnapshot::default());
        assert_eq!(seen.lock().unwrap().as_slice(), ["round-1:2", "round-2:0"]);
    }
}
