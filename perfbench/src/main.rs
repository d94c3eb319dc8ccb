//! Recycle-vs-scratch pipeline benchmark.
//!
//! ```text
//! perfbench --workload <relax-sparse|fleet-dense|grow-ooc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload as a closed loop: one client, one
//! thread, serial engines. It sets up several times (reporting the
//! median set-up time), then runs stream passes (the system under test)
//! interleaved with scratch passes (the raw miners: the paper's baseline
//! and the oracle) until `--seconds` have passed. Every answer is
//! checked against the oracle's digest. The last stdout line is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1` (whose spans go to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`). Every timing is
//! calibrated (see [`calib`]); the raw figures go to stderr as one JSON
//! line.

mod calib;
mod ctx;
mod datasets;
mod fleet;
mod grow;
mod oracle;
mod relax;

use calib::Timing;
use ctx::{median, quantile, Ctx};
use oracle::Tally;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("answer_p50_ms", "ms"),
    ("answer_p90_ms", "ms"),
    ("stream_s", "s"),
    ("scratch_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order. A
/// workload that does not reach a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.generate_ms", "ms"),
    ("miners.raw_ms.hm", "ms"),
    ("miners.raw_ms.fp", "ms"),
    ("miners.raw_ms.tp", "ms"),
    ("miners.raw_ms.vt", "ms"),
    ("mine.tuple_touches", "count"),
    ("mine.candidate_tests", "count"),
    ("mine.projected_dbs", "count"),
    ("compress.ms", "ms"),
    ("compress.ratio", "ratio"),
    ("compress.groups_emitted", "count"),
    ("compress.tuples_covered", "count"),
    ("cover.words_scanned", "count"),
    ("recycle.ms.hm", "ms"),
    ("recycle.ms.fp", "ms"),
    ("recycle.ms.tp", "ms"),
    ("recycle.ms.vt", "ms"),
    ("recycle.tuple_touches", "count"),
    ("recycle.group_hits", "count"),
    ("recycle.fp_nodes", "count"),
    ("recycle.bitmap_words_scanned", "count"),
    ("recycle.projection_bytes", "bytes"),
    ("batch.run_ms", "ms"),
    ("batch.floor_ms", "ms"),
    ("batch.overhead_ms", "ms"),
    ("batch.shared_passes", "count"),
    ("batch.rejected", "count"),
    ("batch.demux_patterns", "count"),
    ("session.filter_ms", "ms"),
    ("session.recycle_ms", "ms"),
    ("session.rounds_filtered", "count"),
    ("session.rounds_recycled", "count"),
    ("session.rounds_fresh", "count"),
    ("storage.write_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("storage.segments_written", "count"),
    ("storage.write_amp", "ratio"),
    ("ooc.round_ms", "ms"),
    ("ooc.compress_ms", "ms"),
    ("ooc.mine_ms", "ms"),
    ("storage.segments_read", "count"),
    ("storage.resident_peak", "bytes"),
    ("storage.delta_bytes", "bytes"),
    ("ooc.space_amp", "ratio"),
    ("trace.overhead_frac", "frac"),
    ("calib.kernel_ms", "ms"),
    ("calib.spread", "frac"),
    ("fail_frac", "frac"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A run measures at least this many answers, so `answer_p90_ms` has
/// ten samples beyond it.
const MIN_ANSWERS: usize = 100;
/// A run measures at least this many stream passes.
const MIN_PASSES: usize = 3;

/// Engine families, as (registry key, metric tag).
pub const FAMILIES: [(&str, &str); 4] = [("hmine", "hm"), ("fp", "fp"), ("tp", "tp"), ("vt", "vt")];

/// What a run measured, each timing raw and calibrated.
#[derive(Default)]
pub struct Samples {
    pub setup: Vec<Timing>,
    pub answers: Vec<Timing>,
    /// Insert batches (grow-ooc only).
    pub writes: Vec<Timing>,
    pub stream: Vec<Pass>,
    /// Every call of the stream and scratch passes, keyed by what it
    /// computes: the same keys recur in every pass.
    pub stream_calls: BTreeMap<String, Vec<Timing>>,
    pub scratch_calls: BTreeMap<String, Vec<Timing>>,
    pub tally: Tally,
}

/// One stream pass: its total, whether it was traced, and its peak
/// resident set (see [`Ctx::stream`]).
pub struct Pass {
    pub t: Timing,
    pub traced: bool,
    pub peak_rss_mib: f64,
}

impl Samples {
    pub fn pass(&mut self, t: Timing, traced: bool, peak_rss_mib: f64) {
        self.stream.push(Pass { t, traced, peak_rss_mib });
    }

    pub fn stream_call(&mut self, key: String, t: Timing) {
        self.stream_calls.entry(key).or_default().push(t);
    }

    pub fn scratch_call(&mut self, key: String, t: Timing) {
        self.scratch_calls.entry(key).or_default().push(t);
    }
}

/// The makespan of a typical pass: each call at its median over the
/// passes. Unlike the median of pass totals, a burst of host noise in
/// one pass moves only the calls it hit, and only if it hit most of
/// their repeats.
fn typical_pass(calls: &BTreeMap<String, Vec<Timing>>, view: fn(&[Timing]) -> Vec<f64>) -> f64 {
    calls.values().map(|ts| median(&view(ts))).sum()
}

/// One workload. All state lives in the implementing value; [`drive`]
/// owns the loop and the clock.
pub trait Workload {
    /// Builds the inputs and warms up. Every call in it is timed: the
    /// sum is one `setup_s` sample. Called [`SETUPS`] times.
    fn setup(&mut self, ctx: &mut Ctx);
    /// One stream pass, after a scratch pass when one is due (`cycle`
    /// counts from 0).
    fn cycle(&mut self, ctx: &mut Ctx, s: &mut Samples, cycle: usize);
    /// The workload's per-layer metrics from a traced run.
    fn layers(&self, ctx: &Ctx) -> Vec<(&'static str, f64)>;
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Scratch space for the run (store directories, span files), inside
/// the checkout the benchmark runs from.
fn out_dir() -> PathBuf {
    PathBuf::from("perfbench/out")
}

fn drive(w: &mut dyn Workload, args: &Args) -> (Ctx, Samples) {
    let mut ctx = Ctx::new();
    let mut s = Samples::default();
    ctx.set_tracing(args.trace);
    for _ in 0..SETUPS {
        let ((), t) = ctx.group("setup", |ctx| w.setup(ctx));
        s.setup.push(t);
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut cycle = 0;
    loop {
        // Traced runs alternate traced and untraced cycles, which
        // measures the tracing overhead.
        ctx.set_tracing(args.trace && cycle % 2 == 0);
        w.cycle(&mut ctx, &mut s, cycle);
        cycle += 1;
        let passes = s.stream.iter().filter(|p| !p.traced || !args.trace).count();
        if start.elapsed() >= budget
            && s.answers.len() >= MIN_ANSWERS
            && passes >= MIN_PASSES
            && (!args.trace || s.stream.len() > passes)
        {
            break;
        }
    }
    ctx.set_tracing(false);
    (ctx, s)
}

fn cal(ts: &[Timing]) -> Vec<f64> {
    ts.iter().map(|t| t.cal_ms).collect()
}

fn raw(ts: &[Timing]) -> Vec<f64> {
    ts.iter().map(|t| t.raw_ms).collect()
}

/// The end-to-end metrics from one timing view (calibrated or raw).
fn end_to_end(s: &Samples, view: fn(&[Timing]) -> Vec<f64>) -> Vec<(&'static str, f64)> {
    let answers = view(&s.answers);
    vec![
        ("setup_s", median(&view(&s.setup)) / 1e3),
        ("answer_p50_ms", quantile(&answers, 0.5)),
        ("answer_p90_ms", quantile(&answers, 0.9)),
        ("stream_s", typical_pass(&s.stream_calls, view) / 1e3),
        ("scratch_s", typical_pass(&s.scratch_calls, view) / 1e3),
        ("peak_rss_mib", s.stream.iter().map(|p| p.peak_rss_mib).fold(0.0, f64::max)),
    ]
}

/// Per-layer metrics every workload shares: calibration, tracing
/// overhead and the oracle.
fn common_layers(ctx: &Ctx, s: &Samples) -> Vec<(&'static str, f64)> {
    let k = &ctx.clock.kernels;
    let k_med = median(k);
    let streams = |traced: bool| -> Vec<f64> {
        s.stream.iter().filter(|p| p.traced == traced).map(|p| p.t.cal_ms).collect()
    };
    let writes = cal(&s.writes);
    vec![
        ("write_p50_ms", quantile(&writes, 0.5)),
        ("write_p90_ms", quantile(&writes, 0.9)),
        ("trace.overhead_frac", median(&streams(true)) / median(&streams(false)) - 1.0),
        ("calib.kernel_ms", k_med),
        ("calib.spread", (quantile(k, 0.75) - quantile(k, 0.25)) / k_med),
        ("fail_frac", s.tally.fail_frac()),
    ]
}

fn render(metrics: &[(&str, &str)], values: &[(&'static str, f64)], s: &Samples) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.tally.failed == 0 && s.tally.attempted > 0,
        s.tally.attempted,
        s.tally.failed,
        body.join(", ")
    )
}

fn make(workload: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match workload {
        "relax-sparse" => Box::new(relax::Relax::new(seed)),
        "fleet-dense" => Box::new(fleet::Fleet::new(seed)),
        "grow-ooc" => Box::new(grow::Grow::new(seed, out_dir())),
        _ => return None,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(mut w) = make(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let (ctx, s) = drive(w.as_mut(), &args);
    if args.trace {
        let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = ctx.write_spans(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        let mut values = w.layers(&ctx);
        values.extend(common_layers(&ctx, &s));
        println!("{}", render(PER_LAYER, &values, &s));
    } else {
        let raw_view = end_to_end(&s, raw);
        let body: Vec<String> = raw_view.iter().map(|(n, v)| format!("\"{n}\": {v:?}")).collect();
        eprintln!("raw: {{{}}}", body.join(", "));
        println!("{}", render(END_TO_END, &end_to_end(&s, cal), &s));
    }
}

/// Serializes the tests that mine: `gogreen_obs` counters are
/// process-wide, and the traced-run test reads them.
#[cfg(test)]
pub static MINING: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_util::Json;

    /// The work counters of a traced run of `w` (its `*_ms` timings
    /// left out).
    fn traced_counts(w: &mut dyn Workload) -> Vec<(&'static str, f64)> {
        let args = Args { workload: String::new(), seed: 5, seconds: 0, trace: true };
        let (ctx, s) = drive(w, &args);
        assert_eq!(s.tally.failed, 0);
        let layers = ["mine.", "compress.", "cover.", "batch.", "storage.", "recycle."];
        w.layers(&ctx)
            .into_iter()
            .filter(|(n, _)| layers.iter().any(|l| n.starts_with(l)))
            .filter(|(n, _)| !n.split(['.', '_']).any(|part| part == "ms"))
            .collect()
    }

    #[test]
    fn traced_runs_repeat_their_counts_bit_for_bit() {
        let _lock = MINING.lock().unwrap_or_else(|e| e.into_inner());
        let out = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let tiny_grow = || grow::Shape {
            rows: 1_200,
            batch_rows: 50,
            mine_every: 4,
            segment_bytes: 4 << 10,
            budget_bytes: 8 << 10,
        };
        let run = || -> Vec<Vec<(&'static str, f64)>> {
            vec![
                traced_counts(&mut relax::Relax::with_rows(5, 2_000)),
                traced_counts(&mut fleet::Fleet::with_rows(5, 120)),
                traced_counts(&mut grow::Grow::with_shape(5, out.clone(), tiny_grow())),
            ]
        };
        let first = run();
        assert_eq!(first, run());
        for (workload, counts) in ["relax", "fleet", "grow"].iter().zip(&first) {
            let touches = counts.iter().find(|(n, _)| *n == "mine.tuple_touches").expect("counted");
            assert!(touches.1 > 0.0, "{workload}: no mining counted");
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    fn names(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let json = Json::parse(&text).expect("valid JSON");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&json, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload grow-ooc --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("grow-ooc", 7, 3, true));
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
