//! `gogreen generate <preset> [--scale S] -o <db.txt> | --db-dir <dir>`
//! — write a calibrated synthetic dataset, as a text file and/or
//! streamed straight into an on-disk segment store.

use crate::args::Args;
use crate::commands::parse_bytes;
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_storage::SegmentWriter;

pub fn run(argv: Vec<String>) -> Result<(), String> {
    let args = Args::parse(argv, &["scale", "o", "db-dir", "segment-bytes"])?;
    let name = args.positional(0, "preset name (weather|forest|connect4|pumsb)")?;
    let kind = match name {
        "weather" => PresetKind::Weather,
        "forest" => PresetKind::Forest,
        "connect4" => PresetKind::Connect4,
        "pumsb" => PresetKind::Pumsb,
        other => return Err(format!("unknown preset {other:?}")),
    };
    let scale: f64 = match args.opt("scale") {
        Some(v) => v.parse().map_err(|_| format!("invalid --scale {v:?}"))?,
        None => 0.05,
    };
    if scale <= 0.0 {
        return Err("--scale must be positive".into());
    }
    let out = args.opt("o");
    let db_dir = args.opt("db-dir");
    if out.is_none() && db_dir.is_none() {
        return Err("need -o <db.txt> and/or --db-dir <dir>".into());
    }
    let preset = DatasetPreset::new(kind, scale);
    if let Some(dir) = db_dir {
        // Stream rows straight into bounded segments: peak memory is one
        // open segment, regardless of dataset size.
        let segment_bytes = match args.opt("segment-bytes") {
            Some(v) => parse_bytes(v)?,
            None => SegmentWriter::DEFAULT_SEGMENT_BYTES,
        };
        let mut w = SegmentWriter::create(dir, segment_bytes)
            .map_err(|e| format!("creating {dir}: {e}"))?;
        let mut write_err: Option<std::io::Error> = None;
        let mut rows = 0usize;
        let mut elems = 0usize;
        preset.for_each_transaction(|row| {
            if write_err.is_none() {
                rows += 1;
                elems += row.len();
                if let Err(e) = w.push_row(row) {
                    write_err = Some(e);
                }
            }
        });
        if let Some(e) = write_err {
            return Err(format!("writing {dir}: {e}"));
        }
        let segments = w.finish().map_err(|e| format!("sealing {dir}: {e}"))?;
        println!(
            "wrote {dir}: {rows} tuples, avg length {:.1}, {segments} segments \
             (analog of {}, ξ_old = {})",
            elems as f64 / rows.max(1) as f64,
            preset.name(),
            preset.xi_old(),
        );
    }
    if let Some(out) = out {
        let db = preset.generate();
        gogreen_data::io::write_file(&db, out).map_err(|e| format!("writing {out}: {e}"))?;
        let s = db.stats();
        println!(
            "wrote {out}: {} tuples, avg length {:.1}, {} items (analog of {}, ξ_old = {})",
            s.num_tuples,
            s.avg_len,
            s.num_items,
            preset.name(),
            preset.xi_old(),
        );
    }
    Ok(())
}
