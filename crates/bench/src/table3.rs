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

use crate::pipeline::{Experiment, PipelineSpec, Run};
use gogreen_core::Strategy;
use gogreen_datagen::DatasetPreset;
use gogreen_util::Json;

/// Table 3 for all four datasets at `scale`: per dataset, the MCP and
/// MLP compressions in memory and through files.
pub fn experiment(scale: f64) -> Experiment {
    let specs = DatasetPreset::all(scale)
        .into_iter()
        .flat_map(|preset| {
            let base = PipelineSpec::new(preset.kind, scale);
            [Strategy::Mcp, Strategy::Mlp]
                .map(|s| base.compressing(s))
                .into_iter()
                .flat_map(|spec| [spec.clone(), PipelineSpec { io: true, ..spec }])
        })
        .collect();
    Experiment {
        file: "table3".into(),
        title: format!("Table 3: dataset properties and compression statistics (scale {scale})"),
        specs,
        project: Box::new(|runs: &[Run]| {
            runs.chunks(4)
                .map(|r| {
                    let (preset, setup) = (r[0].spec.preset, r[0].setup);
                    let paper = preset.paper_row();
                    let ratio = |run: &Run| run.compression.unwrap_or_default().ratio;
                    Json::obj([
                        ("name", preset.name().into()),
                        ("tuples", setup.db.num_tuples.into()),
                        ("avg_len", setup.db.avg_len.into()),
                        ("items", setup.db.num_items.into()),
                        ("xi_old_pct", paper.xi_old_pct.into()),
                        ("patterns", setup.recycled.into()),
                        ("max_len", setup.max_len.into()),
                        ("t_io_mcp", r[1].secs.into()),
                        ("t_pipe_mcp", r[0].secs.into()),
                        ("t_io_mlp", r[3].secs.into()),
                        ("t_pipe_mlp", r[2].secs.into()),
                        ("ratio_mcp", ratio(&r[0]).into()),
                        ("ratio_mlp", ratio(&r[2]).into()),
                        ("paper_patterns", paper.num_patterns.into()),
                        ("paper_max_len", paper.max_len.into()),
                    ])
                })
                .collect()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_table3_has_four_rows_with_sane_values() {
        let rows = experiment(0.001).run();
        assert_eq!(rows.len(), 4);
        let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap();
        for r in &rows {
            let name = r.get("name").and_then(Json::as_str).unwrap();
            assert!(num(r, "tuples") >= 2000.0, "{name}");
            assert!(num(r, "patterns") > 0.0, "{name} mined no patterns at ξ_old");
            for ratio in ["ratio_mcp", "ratio_mlp"] {
                assert!(num(r, ratio) > 0.0 && num(r, ratio) <= 1.0);
            }
            assert!(
                num(r, "t_io_mcp") >= num(r, "t_pipe_mcp") * 0.5,
                "I/O time should not undercut pipeline wildly"
            );
        }
        // Dense rows carry long patterns.
        let connect4 =
            rows.iter().find(|r| r.get("name").and_then(Json::as_str) == Some("connect4"));
        let max_len = num(connect4.unwrap(), "max_len");
        assert!(max_len >= 4.0, "connect4 max_len = {max_len}");
    }
}
