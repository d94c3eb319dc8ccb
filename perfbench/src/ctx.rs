//! The measuring context every workload runs in: calibrated timing of
//! each call into a layer, plus — in traced runs — a span per call with
//! the `gogreen_obs` counter deltas it caused.

use crate::calib::{Clock, Timing};
use gogreen_obs::metrics::{self, Kind};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span: a call into a layer (a leaf) or a group of calls.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Outermost enclosing span (itself for top-level spans).
    pub root: usize,
    pub start_us: f64,
    pub end_us: f64,
    /// Calibrated time of the span's own calls (kernels excluded).
    pub cal_ms: f64,
    /// Counter deltas (and max-gauge readings) over the span.
    pub counters: BTreeMap<&'static str, u64>,
}

pub struct Ctx {
    pub clock: Clock,
    /// Record spans and `gogreen_obs` counters for the calls that follow.
    tracing: bool,
    pub spans: Vec<Span>,
    /// Open groups: span index (when traced) and accumulated timing.
    open: Vec<(Option<usize>, Timing)>,
    t0: Instant,
}

fn counters_now() -> BTreeMap<&'static str, (Kind, u64)> {
    metrics::snapshot().into_iter().map(|(n, m)| (n, (m.kind, m.value))).collect()
}

fn counter_delta(
    before: &BTreeMap<&'static str, (Kind, u64)>,
    after: &BTreeMap<&'static str, (Kind, u64)>,
) -> BTreeMap<&'static str, u64> {
    after
        .iter()
        .filter_map(|(&name, &(kind, v))| {
            let d = match kind {
                Kind::Counter => v - before.get(name).map_or(0, |b| b.1),
                // A max-gauge is a high-water mark: report its reading.
                Kind::Max => v,
            };
            (d > 0).then_some((name, d))
        })
        .collect()
}

impl Ctx {
    pub fn new() -> Self {
        Ctx {
            clock: Clock::new(),
            tracing: false,
            spans: Vec::new(),
            open: Vec::new(),
            t0: Instant::now(),
        }
    }

    /// Switches span and counter recording on or off for what follows.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        metrics::set_enabled(on);
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// One timed call into a layer.
    pub fn op<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Timing) {
        self.call(name, true, f)
    }

    /// A timed call that does not count toward the enclosing groups'
    /// time: probe calls inside a stream.
    pub fn aside<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, Timing) {
        self.call(name, false, f)
    }

    fn call<T>(&mut self, name: &str, counts: bool, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.tracing.then(counters_now);
        let (out, t) = self.clock.time(f);
        if counts {
            for (_, acc) in &mut self.open {
                acc.raw_ms += t.raw_ms;
                acc.cal_ms += t.cal_ms;
            }
        }
        if let Some(before) = before {
            let counters = counter_delta(&before, &counters_now());
            let start_us = self.us(self.clock.last_start);
            self.push_span(name, start_us, start_us + t.raw_ms * 1e3, t.cal_ms, counters);
        }
        (out, t)
    }

    /// Work outside any measurement (oracle checks, bookkeeping).
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.clock.untimed(f)
    }

    /// One stream pass: a `stream` group, with the process's resident
    /// high-water mark reset before it and read after it. Returns the
    /// pass's result, its timing and its peak resident set in MiB, which
    /// covers the pass alone (plus what was resident when it started),
    /// not the set-ups or scratch passes before it.
    pub fn stream<T>(&mut self, f: impl FnOnce(&mut Ctx) -> T) -> (T, Timing, f64) {
        reset_peak_rss();
        let (out, t) = self.group("stream", f);
        (out, t, peak_rss_mib())
    }

    /// A group of calls; its timing is the sum of its calls' timings.
    pub fn group<T>(&mut self, name: &str, f: impl FnOnce(&mut Ctx) -> T) -> (T, Timing) {
        let idx = self.tracing.then(|| {
            let start = self.us(Instant::now());
            self.push_span(name, start, start, 0.0, BTreeMap::new())
        });
        self.open.push((idx, Timing { raw_ms: 0.0, cal_ms: 0.0 }));
        let out = f(self);
        let (idx, t) = self.open.pop().expect("group stack is balanced");
        if let Some(i) = idx {
            let end = self.us(Instant::now());
            let span = &mut self.spans[i];
            span.end_us = end;
            span.cal_ms = t.cal_ms;
        }
        (out, t)
    }

    fn push_span(
        &mut self,
        name: &str,
        start_us: f64,
        end_us: f64,
        cal_ms: f64,
        counters: BTreeMap<&'static str, u64>,
    ) -> usize {
        let idx = self.spans.len();
        let parent = self.open.iter().rev().find_map(|(i, _)| *i);
        let root = parent.map_or(idx, |p| self.spans[p].root);
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            root,
            start_us,
            end_us,
            cal_ms,
            counters,
        });
        idx
    }

    /// Writes every span as one JSON line: name, start, end, parent,
    /// calibrated time and counter deltas.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let counters: Vec<String> =
                s.counters.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\
                 \"parent\":{parent},\"cal_ms\":{},\"counters\":{{{}}}}}",
                s.name,
                s.start_us,
                s.end_us,
                s.cal_ms,
                counters.join(",")
            )?;
        }
        out.flush()
    }

    /// For each top-level span named `root`, in order: the sum of
    /// `value` over the spans under it (itself included) whose name
    /// satisfies `pick`.
    pub fn per_root(
        &self,
        root: &str,
        pick: impl Fn(&str) -> bool,
        value: impl Fn(&Span) -> f64,
    ) -> Vec<f64> {
        let roots = self.spans.iter().enumerate().filter(|&(i, s)| s.root == i && s.name == root);
        roots
            .map(|(r, _)| {
                self.spans.iter().filter(|s| s.root == r && pick(&s.name)).map(&value).sum()
            })
            .collect()
    }
}

/// Sum of one counter over a span.
pub fn counter(s: &Span, name: &str) -> f64 {
    s.counters.get(name).copied().unwrap_or(0) as f64
}

/// Median over `root` passes of the summed calibrated time of the
/// spans whose names satisfy `pick`.
pub fn ms(ctx: &Ctx, root: &str, pick: impl Fn(&str) -> bool) -> f64 {
    median(&ctx.per_root(root, pick, |s| s.cal_ms))
}

/// Median over `root` passes of one counter summed over picked spans.
pub fn count(ctx: &Ctx, root: &str, pick: impl Fn(&str) -> bool, name: &str) -> f64 {
    median(&ctx.per_root(root, pick, |s| counter(s, name)))
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set. Where the kernel refuses, `VmHWM` keeps covering the
/// whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) since the last reset, in
/// MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn groups_sum_their_calls_and_nest_spans() {
        let mut ctx = Ctx::new();
        ctx.tracing = true;
        let (_, g) = ctx.group("pass", |ctx| {
            ctx.op("a", || ());
            ctx.group("answer", |ctx| ctx.op("b", || ()));
        });
        ctx.tracing = false;
        ctx.op("untraced", || ());
        let names: Vec<&str> = ctx.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["pass", "a", "answer", "b"]);
        assert!(ctx.spans.iter().all(|s| s.root == 0));
        assert_eq!(ctx.spans[3].parent, Some(2));
        let sum: f64 = ctx.per_root("pass", |n| n == "a" || n == "b", |s| s.cal_ms)[0];
        assert!((sum - g.cal_ms).abs() < 1e-9);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn a_stream_pass_peak_leaves_out_what_ran_before_it() {
        let _lock = crate::MINING.lock().unwrap_or_else(|e| e.into_inner());
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let mut ctx = Ctx::new();
        let ((), _, peak) = ctx.stream(|ctx| ctx.op("small", || ()).0);
        assert!(peak > 0.0);
        assert!(peak < 48.0, "peak {peak} MiB still counts the freed 64 MiB buffer");
    }
}
