//! A minimal microbenchmark harness (stand-in for criterion, which is
//! not available in hermetic builds).
//!
//! Each measurement runs the closure once to warm caches, then `samples`
//! timed iterations, reporting min/median/mean. Results print as a table
//! and are returned so callers can archive them as JSON. When the
//! calling thread has a `gogreen_obs` recorder, each result also carries
//! the per-run counters of its own measured scope, so archived rows
//! explain *what work* the timed code did, not just how long it took.

use gogreen_obs::metrics;
use gogreen_util::{Json, Stopwatch, ToJson};

/// One benchmark's measured timings.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group name (e.g. "compression").
    pub group: String,
    /// Benchmark id within the group (e.g. "MCP").
    pub id: String,
    /// Input parameter (e.g. dataset name).
    pub param: String,
    /// Fastest sample, seconds.
    pub min_s: f64,
    /// Median sample, seconds.
    pub median_s: f64,
    /// Mean of samples, seconds.
    pub mean_s: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Per-run counters (counters only, averaged over warmup +
    /// samples). Empty unless a `gogreen_obs` recorder is installed.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-run histogram totals as `(name, count, sum)`, averaged
    /// the same way. Bucket vectors stay out of the archive: count+sum
    /// already pin the distribution for the perf gate, and the full
    /// vectors are available live in a `--report` run record.
    pub hists: Vec<(&'static str, u64, u64)>,
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("group", self.group.clone().into()),
            ("id", self.id.clone().into()),
            ("param", self.param.clone().into()),
            ("min_s", self.min_s.into()),
            ("median_s", self.median_s.into()),
            ("mean_s", self.mean_s.into()),
            ("samples", self.samples.into()),
        ];
        if !self.counters.is_empty() {
            let counters = self.counters.iter().map(|&(n, v)| (n, Json::from(v)));
            fields.push(("counters", Json::obj(counters)));
        }
        if !self.hists.is_empty() {
            let hists = self.hists.iter().map(|&(n, count, sum)| {
                (n, Json::obj([("count", Json::from(count)), ("sum", Json::from(sum))]))
            });
            fields.push(("hists", Json::obj(hists)));
        }
        Json::obj(fields)
    }
}

/// A group of benchmarks sharing a sample count.
pub struct BenchGroup {
    name: String,
    samples: usize,
    results: Vec<BenchResult>,
}

impl BenchGroup {
    /// Creates a group with a default of 10 samples per benchmark.
    pub fn new(name: &str) -> Self {
        BenchGroup { name: name.to_owned(), samples: 10, results: Vec::new() }
    }

    /// Sets the timed-sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Times `f` (one warmup + `samples` timed runs) and records the
    /// result under `id`/`param`. The closure's return value is consumed
    /// via `std::hint::black_box` so the work is not optimized away.
    pub fn bench<T>(&mut self, id: &str, param: &str, mut f: impl FnMut() -> T) -> &BenchResult {
        let samples = self.samples;
        let mut run = || {
            std::hint::black_box(f());
            let mut times = Vec::with_capacity(samples);
            // One stopwatch for the whole loop; each `lap()` reads the
            // split since the previous one, so bookkeeping between
            // samples (the push) is the only non-measured work charged
            // to the next sample.
            let mut watch = Stopwatch::started();
            for _ in 0..samples {
                std::hint::black_box(f());
                times.push(watch.lap().as_secs_f64());
            }
            times
        };
        let (mut times, snap) = if metrics::enabled() {
            gogreen_obs::measure(run)
        } else {
            (run(), Default::default())
        };
        // Deterministic workloads add the same counts every run, so the
        // total divided by the run count is the exact per-run cost.
        let runs = (samples + 1) as u64;
        let counters = snap
            .metrics
            .iter()
            .filter(|(_, m)| m.kind == metrics::Kind::Counter && m.value / runs > 0)
            .map(|(&name, m)| (name, m.value / runs))
            .collect();
        let hists = snap
            .hists
            .iter()
            .filter(|(_, h)| h.count / runs > 0)
            .map(|(&name, h)| (name, h.count / runs, h.sum / runs))
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let result = BenchResult {
            group: self.name.clone(),
            id: id.to_owned(),
            param: param.to_owned(),
            min_s: times[0],
            median_s: times[times.len() / 2],
            mean_s: times.iter().sum::<f64>() / times.len() as f64,
            samples: times.len(),
            counters,
            hists,
        };
        println!(
            "{}/{}/{}: min {} median {} ({} samples)",
            result.group,
            result.id,
            result.param,
            crate::report::fmt_secs(result.min_s),
            crate::report::fmt_secs(result.median_s),
            result.samples,
        );
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// Consumes the group, returning its results.
    pub fn finish(self) -> Vec<BenchResult> {
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_orders_stats() {
        let mut g = BenchGroup::new("t");
        g.sample_size(5);
        let r = g.bench("sum", "small", || (0..1000u64).sum::<u64>()).clone();
        assert_eq!(r.samples, 5);
        assert!(r.min_s <= r.median_s);
        assert!(r.min_s > 0.0 || r.mean_s >= 0.0);
        assert_eq!(g.finish().len(), 1);
    }

    #[test]
    fn json_round_shape() {
        let r = BenchResult {
            group: "g".into(),
            id: "i".into(),
            param: "p".into(),
            min_s: 0.1,
            median_s: 0.2,
            mean_s: 0.2,
            samples: 3,
            counters: vec![("mine.candidate_tests", 7)],
            hists: vec![("mine.projected_db_size", 3, 12)],
        };
        let s = r.to_json().dump();
        assert!(s.contains("\"group\":\"g\"") && s.contains("\"samples\":3"));
        assert!(s.contains("\"counters\":{\"mine.candidate_tests\":7}"));
        assert!(s.contains("\"hists\":{\"mine.projected_db_size\":{\"count\":3,\"sum\":12}}"));
    }

    #[test]
    fn counters_ride_along_when_enabled() {
        let mut g = BenchGroup::new("t");
        g.sample_size(4);
        let (r, _) = gogreen_obs::measure(|| {
            g.bench("count", "x", || metrics::add("bench.test_counter", 2)).clone()
        });
        // 5 runs (1 warmup + 4 samples) × 2 per run, averaged back to 2.
        assert!(r.counters.iter().any(|&(n, v)| n == "bench.test_counter" && v == 2));
    }
}
