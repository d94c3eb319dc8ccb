//! `gogreen compact <db-dir> [--segment-bytes N]` — rewrite a segment
//! store into full segments of the target size, dropping the
//! fragmentation appends leave behind.

use crate::args::Args;
use crate::commands::parse_bytes;
use gogreen_storage::SegmentWriter;

pub fn run(argv: Vec<String>) -> Result<(), String> {
    let args = Args::parse(argv, &["segment-bytes"])?;
    let dir = args.positional(0, "segment store directory")?;
    let segment_bytes = match args.opt("segment-bytes") {
        Some(v) => parse_bytes(v)?,
        None => SegmentWriter::DEFAULT_SEGMENT_BYTES,
    };
    let report = gogreen_storage::compact(dir, segment_bytes)
        .map_err(|e| format!("compacting {dir}: {e}"))?;
    println!(
        "compacted {dir}: {} segments -> {} ({} rows)",
        report.segments_before, report.segments_after, report.rows
    );
    Ok(())
}
