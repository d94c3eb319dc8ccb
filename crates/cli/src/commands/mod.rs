//! One module per subcommand.

pub mod compact;
pub mod compress;
pub mod diff;
pub mod generate;
pub mod mine;
pub mod recycle;
pub mod session;
pub mod stats;

use crate::args::Args;
use gogreen_core::utility::Strategy;
use gogreen_core::{oracle, CompressedDb};
use gogreen_data::{MinSupport, TransactionDb};
use gogreen_miners::engine::vt::VtRepr;
use gogreen_miners::{Family, Miner};
use gogreen_util::pool::Parallelism;
use std::io::Write;

/// Loads a transaction database with a friendly error.
pub fn load_db(path: &str) -> Result<TransactionDb, String> {
    gogreen_data::io::read_file(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Parses a `--strategy` value (default MCP).
pub fn parse_strategy(opt: Option<&str>) -> Result<Strategy, String> {
    match opt.unwrap_or("mcp") {
        "mcp" => Ok(Strategy::Mcp),
        "mlp" => Ok(Strategy::Mlp),
        other => Err(format!("unknown strategy {other:?} (mcp|mlp)")),
    }
}

/// Parses a `--threads` value (default 1 = serial; `0` = all cores).
pub fn parse_threads(opt: Option<&str>) -> Result<Parallelism, String> {
    match opt {
        None => Ok(Parallelism::serial()),
        Some(v) => {
            let n: usize = v.parse().map_err(|_| format!("invalid --threads {v:?}"))?;
            Ok(Parallelism::threads(n))
        }
    }
}

/// Resolves `--algo` to one of the four families, the vt family pinned
/// to `--vt-repr auto|bitmap|tidlist|diffset`. `Ok(None)` when `--algo`
/// names no family (an oracle, or nothing known).
pub fn parse_family(algo: &str, args: &Args) -> Result<Option<Family>, String> {
    let repr = match args.opt("vt-repr") {
        None => VtRepr::Auto,
        Some(v) => VtRepr::parse(v)
            .ok_or_else(|| format!("unknown --vt-repr {v:?} (auto|bitmap|tidlist|diffset)"))?,
    };
    Ok(Family::from_key(algo).map(|f| f.with_vt_repr(repr)))
}

/// The `mine --algo` spellings: the families' keys, then the oracles'.
pub fn mine_algos() -> String {
    format!("{}|{}", Family::keys(), oracle::KEYS.join("|"))
}

/// The `recycle --algo` spellings: the families' keys, then the oracles
/// that have a recycling counterpart.
pub fn recycle_algos() -> String {
    let oracles: Vec<&str> =
        oracle::KEYS.into_iter().filter(|k| oracle::recycling(k).is_some()).collect();
    format!("{}|{}", Family::keys(), oracles.join("|"))
}

/// The from-scratch miner `mine --algo` names.
pub fn raw_miner(algo: &str, args: &Args) -> Result<Box<dyn Miner>, String> {
    match parse_family(algo, args)? {
        Some(f) => Ok(Box::new(f)),
        None => {
            oracle::raw(algo).ok_or_else(|| format!("unknown algo {algo:?} ({})", mine_algos()))
        }
    }
}

/// The compressed-database miner `recycle --algo` names.
pub fn recycling_miner(algo: &str, args: &Args) -> Result<Box<dyn Miner<CompressedDb>>, String> {
    match parse_family(algo, args)? {
        Some(f) => Ok(Box::new(f)),
        None => oracle::recycling(algo)
            .ok_or_else(|| format!("unknown recycling algo {algo:?} ({})", recycle_algos())),
    }
}

/// Renders a support back for messages.
pub fn show_support(ms: MinSupport, db_len: usize) -> String {
    format!("{ms} (≥ {} tuples)", ms.to_absolute(db_len))
}

/// Measures a mining closure's arena traffic: runs `f` in a
/// [`gogreen_obs::measure`] scope and returns its
/// `alloc.projection_bytes` — the bytes every engine family's slab
/// arenas (horizontal projection slabs and vertical column arenas
/// alike) report on flush. The scope merges into any `--metrics-out`
/// recorder, so that accounting is unaffected.
pub fn measure_arena_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, snap) = gogreen_obs::measure(f);
    (out, snap.value("alloc.projection_bytes").unwrap_or(0))
}

/// Segment traffic of an out-of-core command, for the summary row.
pub struct StorageTraffic {
    /// Full segment payload loads (`storage.segments_read`).
    pub passes: u64,
    /// Largest segment payload resident at once during this command.
    pub resident_peak: u64,
}

/// Measures a closure's segment traffic alongside its arena bytes: the
/// out-of-core analog of [`measure_arena_bytes`], returning how many
/// segment passes the work made and its own resident high-water mark.
pub fn measure_storage<T>(f: impl FnOnce() -> T) -> (T, u64, StorageTraffic) {
    let (out, snap) = gogreen_obs::measure(f);
    let get = |name: &str| snap.value(name).unwrap_or(0);
    let traffic = StorageTraffic {
        passes: get("storage.segments_read"),
        resident_peak: get("storage.resident_peak"),
    };
    (out, get("alloc.projection_bytes"), traffic)
}

/// Parses a byte count with an optional binary suffix: `4096`, `64k`,
/// `4M`, `1g`, `8MiB`.
pub fn parse_bytes(text: &str) -> Result<usize, String> {
    let lower = text.to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = lower.strip_suffix("kib").or(lower.strip_suffix("kb")) {
        (d, 1usize << 10)
    } else if let Some(d) = lower.strip_suffix("mib").or(lower.strip_suffix("mb")) {
        (d, 1 << 20)
    } else if let Some(d) = lower.strip_suffix("gib").or(lower.strip_suffix("gb")) {
        (d, 1 << 30)
    } else if let Some(d) = lower.strip_suffix('k') {
        (d, 1 << 10)
    } else if let Some(d) = lower.strip_suffix('m') {
        (d, 1 << 20)
    } else if let Some(d) = lower.strip_suffix('g') {
        (d, 1 << 30)
    } else {
        (lower.as_str(), 1)
    };
    let n: usize = digits.trim().parse().map_err(|_| format!("invalid byte count {text:?}"))?;
    n.checked_mul(mult).ok_or_else(|| format!("byte count {text:?} overflows"))
}

/// Renders a byte count for summary rows (`1.4 MiB`, `312 KiB`, `96 B`).
pub fn show_bytes(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 20 => format!("{:.1} MiB", b as f64 / (1 << 20) as f64),
        b if b >= 1 << 10 => format!("{:.1} KiB", b as f64 / (1 << 10) as f64),
        b => format!("{b} B"),
    }
}

/// Observability wiring shared by the mining subcommands: honours
/// `--trace-out <file>`, `--metrics-out <file>`, `--profile-out <file>`,
/// `--snapshot-out <file>` and `--quiet-metrics`. Build one right after
/// [`Args::parse`] and call [`ObsGuard::finish`] once the command's work
/// is done.
pub struct ObsGuard {
    metrics_out: Option<String>,
    profile_out: Option<String>,
}

/// Installs a [`gogreen_obs::Recorder`] for the command when any output
/// flag is given — tracing, profiling and exporting snapshots as
/// requested — and records where to write each output on
/// [`ObsGuard::finish`].
pub fn setup_obs(args: &Args) -> Result<ObsGuard, String> {
    gogreen_obs::set_quiet(args.switch("quiet-metrics"));
    let create = |path: &str| {
        std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .map_err(|e| format!("creating {path}: {e}"))
    };
    let metrics_out = args.opt("metrics-out").map(str::to_owned);
    let profile_out = args.opt("profile-out").map(str::to_owned);
    let outputs = ["metrics-out", "profile-out", "trace-out", "snapshot-out"];
    if outputs.iter().all(|flag| args.opt(flag).is_none()) {
        return Ok(ObsGuard { metrics_out, profile_out });
    }
    let mut rec = gogreen_obs::Recorder::new();
    if let Some(path) = args.opt("trace-out") {
        rec = rec.with_trace(Box::new(create(path)?));
    }
    if profile_out.is_some() {
        rec = rec.with_profile();
    }
    if let Some(path) = args.opt("snapshot-out") {
        // Each emitted snapshot (e.g. one per session round) becomes one
        // JSON line: {"snapshot":label,"counters":{..},..}.
        let mut w = create(path)?;
        rec = rec.with_exporter(Box::new(move |label, snap| {
            let mut line = vec![("snapshot", gogreen_util::Json::from(label))];
            if let gogreen_util::Json::Obj(fields) = snap.to_json() {
                line.extend(fields.into_iter().map(|(k, v)| match k.as_str() {
                    "counters" => ("counters", v),
                    "maxes" => ("maxes", v),
                    _ => ("hists", v),
                }));
            }
            let _ = writeln!(w, "{}", gogreen_util::Json::obj(line).dump());
        }));
    }
    rec.install();
    Ok(ObsGuard { metrics_out, profile_out })
}

impl ObsGuard {
    /// Writes the metric snapshot as JSONL (counters + histograms),
    /// writes the collapsed-stack profile, prints the human-readable
    /// tables to stderr (unless `--quiet-metrics`), and flushes/closes
    /// the trace and snapshot writers.
    pub fn finish(self) -> Result<(), String> {
        let Some(rec) = gogreen_obs::Recorder::uninstall() else { return Ok(()) };
        if let Some(path) = &self.metrics_out {
            let snap = rec.snapshot();
            std::fs::write(path, snap.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
            if !gogreen_obs::quiet() {
                eprintln!("metrics ({path}):\n{}", snap.render_metrics());
                if !snap.hists.is_empty() {
                    eprintln!("histograms ({path}):\n{}", snap.render_hists());
                }
            }
        }
        if let (Some(path), Some(profile)) = (&self.profile_out, rec.profile()) {
            std::fs::write(path, profile.to_collapsed())
                .map_err(|e| format!("writing {path}: {e}"))?;
            if !gogreen_obs::quiet() {
                eprintln!("profile ({path}):\n{}", profile.render_table());
            }
        }
        rec.flush_trace().map_err(|e| format!("flushing trace: {e}"))?;
        // Dropping the recorder closes the trace and snapshot writers.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `--algo` spelling earlier releases accepted still resolves,
    /// and the families report under the archived bench ids
    /// (`check-perf` matches `H-Mine`, `HM-MCP`, `VT-Batch8`, … by name).
    #[test]
    fn algo_spellings_and_bench_ids_are_pinned() {
        let args = Args::parse(Vec::new()).unwrap();
        for algo in ["hmine", "hm", "fp", "tp", "vt", "eclat", "naive", "apriori"] {
            assert!(raw_miner(algo, &args).is_ok(), "mine --algo {algo}");
        }
        for algo in ["hm", "hmine", "fp", "tp", "vt", "eclat", "naive"] {
            assert!(recycling_miner(algo, &args).is_ok(), "recycle --algo {algo}");
        }
        assert!(raw_miner("bogus", &args).is_err());
        assert!(recycling_miner("apriori", &args).is_err());
        assert_eq!(mine_algos(), "hmine|fp|tp|vt|naive|apriori");
        assert_eq!(recycle_algos(), "hmine|fp|tp|vt|naive");
        assert_eq!(Family::ALL.map(Family::name), ["H-Mine", "FP-tree", "TreeProjection", "Eclat"]);
        assert_eq!(Family::ALL.map(Family::tag), ["HM", "FP", "TP", "VT"]);
        let vt = Args::parse(vec!["--vt-repr".into(), "diffset".into()]).unwrap();
        assert_eq!(parse_family("eclat", &vt).unwrap(), Some(Family::Vt(VtRepr::Diffset)));
    }
}
