//! Table 3: dataset properties, pattern statistics at `ξ_old`, and
//! compression time/ratio for both strategies.
//!
//! The paper's two time columns are reproduced as:
//!
//! * **run time (I/O)** — read the dataset from a text file, compress,
//!   and write the compressed database back to disk;
//! * **run time (pipeline)** — the in-memory compression alone (the
//!   paper deducts I/O because compression can ride along the mining
//!   scan that happens anyway).

use gogreen_core::{Compressor, Strategy};
use gogreen_data::{PatternSet, TransactionDb};
use gogreen_datagen::{DatasetPreset, PaperRow};
use gogreen_miners::{Family, Miner};
use gogreen_util::{Json, ToJson};
use std::io::Write;
use std::time::Instant;

/// One dataset row of Table 3 (ours + the paper's reference values).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Dataset name.
    pub name: String,
    /// Scaled tuple count actually generated.
    pub tuples: usize,
    /// Measured average tuple length.
    pub avg_len: f64,
    /// Measured distinct items.
    pub items: usize,
    /// `ξ_old` percentage.
    pub xi_old_pct: f64,
    /// Patterns mined at `ξ_old`.
    pub patterns: usize,
    /// Longest pattern at `ξ_old`.
    pub max_len: usize,
    /// MCP compression seconds including file I/O.
    pub t_io_mcp: f64,
    /// MCP compression seconds, in-memory only.
    pub t_pipe_mcp: f64,
    /// MLP compression seconds including file I/O.
    pub t_io_mlp: f64,
    /// MLP compression seconds, in-memory only.
    pub t_pipe_mlp: f64,
    /// MCP compression ratio `S_c / S_o`.
    pub ratio_mcp: f64,
    /// MLP compression ratio `S_c / S_o`.
    pub ratio_mlp: f64,
    /// The paper's reference row (original-scale values).
    pub paper_patterns: usize,
    /// The paper's maximal pattern length.
    pub paper_max_len: usize,
}

impl ToJson for Table3Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.clone().into()),
            ("tuples", self.tuples.into()),
            ("avg_len", self.avg_len.into()),
            ("items", self.items.into()),
            ("xi_old_pct", self.xi_old_pct.into()),
            ("patterns", self.patterns.into()),
            ("max_len", self.max_len.into()),
            ("t_io_mcp", self.t_io_mcp.into()),
            ("t_pipe_mcp", self.t_pipe_mcp.into()),
            ("t_io_mlp", self.t_io_mlp.into()),
            ("t_pipe_mlp", self.t_pipe_mlp.into()),
            ("ratio_mcp", self.ratio_mcp.into()),
            ("ratio_mlp", self.ratio_mlp.into()),
            ("paper_patterns", self.paper_patterns.into()),
            ("paper_max_len", self.paper_max_len.into()),
        ])
    }
}

/// Runs the Table 3 experiment for all four datasets at `scale`.
pub fn run_table3(scale: f64) -> Vec<Table3Row> {
    DatasetPreset::all(scale).into_iter().map(run_row).collect()
}

fn run_row(preset: DatasetPreset) -> Table3Row {
    let db = preset.generate();
    let stats = db.stats();
    let fp_old = Family::Hm.mine(&db, preset.xi_old());
    let paper: PaperRow = preset.paper_row();

    let (t_io_mcp, t_pipe_mcp, ratio_mcp) = compress_timings(&db, &fp_old, Strategy::Mcp);
    let (t_io_mlp, t_pipe_mlp, ratio_mlp) = compress_timings(&db, &fp_old, Strategy::Mlp);

    Table3Row {
        name: preset.name().to_owned(),
        tuples: stats.num_tuples,
        avg_len: stats.avg_len,
        items: stats.num_items,
        xi_old_pct: paper.xi_old_pct,
        patterns: fp_old.len(),
        max_len: fp_old.max_len(),
        t_io_mcp,
        t_pipe_mcp,
        t_io_mlp,
        t_pipe_mlp,
        ratio_mcp,
        ratio_mlp,
        paper_patterns: paper.num_patterns,
        paper_max_len: paper.max_len,
    }
}

/// Returns `(io_seconds, pipeline_seconds, ratio)`.
fn compress_timings(db: &TransactionDb, fp: &PatternSet, strategy: Strategy) -> (f64, f64, f64) {
    // Pipeline: pure in-memory compression.
    let (cdb, stats) = Compressor::new(strategy).compress_with_stats(db, fp);
    let pipeline = stats.duration.as_secs_f64();

    // I/O variant: read dataset from a text file, compress, write the
    // compressed database out.
    let dir = std::env::temp_dir().join(format!(
        "gogreen-table3-{}-{}",
        std::process::id(),
        strategy.suffix()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let in_path = dir.join("db.txt");
    gogreen_data::io::write_file(db, &in_path).expect("write dataset");
    let out_path = dir.join("cdb.txt");

    let start = Instant::now();
    let loaded = gogreen_data::io::read_file(&in_path).expect("read dataset");
    let (cdb_io, _) = Compressor::new(strategy).compress_with_stats(&loaded, fp);
    write_cdb(&cdb_io, &out_path);
    let io = start.elapsed().as_secs_f64();

    std::fs::remove_dir_all(&dir).ok();
    drop(cdb);
    (io, pipeline, stats.ratio)
}

/// Writes a compressed database in a simple text format (one group or
/// plain tuple per line) — the "write the compressed dataset" half of
/// the I/O timing.
fn write_cdb(cdb: &gogreen_core::CompressedDb, path: &std::path::Path) {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).expect("create cdb file"));
    let mut line = String::new();
    for g in cdb.groups() {
        line.clear();
        line.push_str("G ");
        for it in g.pattern {
            line.push_str(&it.id().to_string());
            line.push(' ');
        }
        line.push_str(&format!("| bare={} members={}", g.bare, g.outliers.len()));
        line.push('\n');
        w.write_all(line.as_bytes()).expect("write group");
        for o in g.outliers {
            line.clear();
            line.push_str("  O ");
            for it in o.iter() {
                line.push_str(&it.id().to_string());
                line.push(' ');
            }
            line.push('\n');
            w.write_all(line.as_bytes()).expect("write outliers");
        }
    }
    for t in cdb.plain() {
        line.clear();
        line.push_str("P ");
        for it in t {
            line.push_str(&it.id().to_string());
            line.push(' ');
        }
        line.push('\n');
        w.write_all(line.as_bytes()).expect("write plain");
    }
    w.flush().expect("flush cdb");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_table3_has_four_rows_with_sane_values() {
        let rows = run_table3(0.001);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.tuples >= 2000, "{}", r.name);
            assert!(r.patterns > 0, "{} mined no patterns at ξ_old", r.name);
            assert!(r.ratio_mcp > 0.0 && r.ratio_mcp <= 1.0);
            assert!(r.ratio_mlp > 0.0 && r.ratio_mlp <= 1.0);
            assert!(
                r.t_io_mcp >= r.t_pipe_mcp * 0.5,
                "I/O time should not undercut pipeline wildly"
            );
        }
        // Dense rows carry long patterns.
        let connect4 = rows.iter().find(|r| r.name == "connect4").unwrap();
        assert!(connect4.max_len >= 4, "connect4 max_len = {}", connect4.max_len);
    }
}
