//! The run record: everything one command measured, as one versioned
//! JSON object behind one flag (`--report F`) on every front end.
//!
//! [`Report::start`] installs a profiling [`Recorder`] whose exporter
//! collects every emitted snapshot; [`Report::finish`] takes the
//! recorder back, writes
//!
//! ```text
//! {"version":1,"argv":[..],"counters":{..},"maxes":{..},"hists":{..},
//!  "profile":{"mine;compress":{"calls":..,"total_us":..,"self_us":..},..},
//!  "rounds":[{"label":"session.round/1","counters":{..},"maxes":{..},"hists":{..}},..]}
//! ```
//!
//! on one line, and prints the metric, histogram and profile tables to
//! stderr. `counters`, `maxes` and `hists` are the run's totals in
//! [`MetricsSnapshot::to_json`]'s shape; `profile` holds one entry per
//! stack path (its collapsed-stack weight is `self_us`); `rounds` holds
//! one labelled snapshot per `MiningSession` round, in order, and is
//! empty on commands that have no rounds.

use crate::profile::Profile;
use crate::{MetricsSnapshot, Recorder};
use gogreen_util::Json;
use std::sync::{Arc, Mutex};

/// The record format's version, bumped when a field changes meaning.
pub const VERSION: u64 = 1;

/// A run record being collected. See the [module docs](self).
pub struct Report {
    argv: Vec<String>,
    path: String,
    rounds: Arc<Mutex<Vec<Json>>>,
}

impl Report {
    /// Installs `rec` on the calling thread, profiling and collecting
    /// every emitted snapshot, for a run launched as `argv` whose record
    /// [`Report::finish`] writes to `path`.
    pub fn start(argv: Vec<String>, path: String, rec: Recorder) -> Report {
        let rounds = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&rounds);
        rec.with_profile()
            .with_exporter(Box::new(move |label, snap| {
                let round = [("label", Json::from(label))].into_iter().chain(snap.json_fields());
                sink.lock().unwrap_or_else(|p| p.into_inner()).push(Json::obj(round));
            }))
            .install();
        Report { argv, path, rounds }
    }

    /// Takes the recorder [`Report::start`] installed, writes the record
    /// to its path, prints the tables to stderr and flushes the
    /// recorder's trace writer, if any.
    pub fn finish(self) -> Result<(), String> {
        let rec = Recorder::uninstall().expect("Report::start installed a recorder");
        let snap = rec.snapshot();
        let profile = rec.profile().expect("Report::start profiles");
        let rounds = std::mem::take(&mut *self.rounds.lock().unwrap_or_else(|p| p.into_inner()));
        let path = &self.path;
        std::fs::write(path, record(self.argv, &snap, profile, rounds).dump() + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics ({path}):\n{}", snap.render_metrics());
        if !snap.hists.is_empty() {
            eprintln!("histograms ({path}):\n{}", snap.render_hists());
        }
        eprintln!("profile ({path}):\n{}", profile.render_table());
        rec.flush_trace().map_err(|e| format!("flushing trace: {e}"))
    }
}

/// The record object of one run.
fn record(argv: Vec<String>, snap: &MetricsSnapshot, profile: &Profile, rounds: Vec<Json>) -> Json {
    let profile = profile.iter().map(|(path, n)| {
        let node = Json::obj([
            ("calls", n.calls.into()),
            ("total_us", n.total_us.into()),
            ("self_us", n.self_us.into()),
        ]);
        (path.to_owned(), node)
    });
    Json::obj(
        [("version", Json::from(VERSION)), ("argv", Json::from(argv))]
            .into_iter()
            .chain(snap.json_fields())
            .chain([("profile", Json::Obj(profile.collect())), ("rounds", Json::Arr(rounds))]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, snapshot, span};

    #[test]
    fn record_holds_totals_profile_and_rounds() {
        let path = std::env::temp_dir().join(format!("gogreen-report-{}.json", std::process::id()));
        let report = Report::start(
            vec!["prog".into(), "--report".into()],
            path.display().to_string(),
            Recorder::new(),
        );
        {
            let _sp = span("outer_r");
            metrics::add("test.report_c", 4);
            let ((), snap) = crate::measure(|| metrics::add("test.report_c", 1));
            snapshot::emit("round/1", &snap);
        }
        report.finish().unwrap();
        let json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(json.get("version").and_then(Json::as_u64), Some(VERSION));
        assert_eq!(json.get("argv").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        let total = json.get("counters").and_then(|c| c.get("test.report_c"));
        assert_eq!(total.and_then(Json::as_u64), Some(5));
        let node = json.get("profile").and_then(|p| p.get("outer_r")).expect("profiled span");
        assert_eq!(node.get("calls").and_then(Json::as_u64), Some(1));
        let rounds = json.get("rounds").and_then(Json::as_arr).expect("rounds array");
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].get("label").and_then(Json::as_str), Some("round/1"));
        let round_c = rounds[0].get("counters").and_then(|c| c.get("test.report_c"));
        assert_eq!(round_c.and_then(Json::as_u64), Some(1));
        assert!(Recorder::uninstall().is_none(), "finish takes the recorder back");
    }
}
