//! Metric-level contract of the out-of-core datapath: mining a
//! segmented store makes exactly one full payload pass per segment per
//! round, the resident peak is bounded by the largest segment, writes
//! land in their declared counters, and saving the compressed state
//! touches no segment. Each measured run reports its own counters and
//! its own peak.

use gogreen_core::Strategy;
use gogreen_data::MinSupport;
use gogreen_obs::measure;
use gogreen_storage::{version, MemoryBudget, OocMiner, SegmentWriter, SegmentedDb};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gogreen-oocmet-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// Writes 600 small rows into segments of `segment_bytes`, returning
/// the sealed segment count.
fn write_store(dir: &PathBuf, segment_bytes: usize) -> usize {
    let mut w = SegmentWriter::create(dir, segment_bytes).unwrap();
    for k in 0..600u32 {
        w.push_row(&[k % 4, 4 + k % 6, 10 + k % 3, 20 + k % 17]).unwrap();
    }
    w.finish().unwrap()
}

/// Opens a store under a budget of a quarter of its payload.
fn open_quarter_budget(dir: &PathBuf) -> (SegmentedDb, usize) {
    let db = SegmentedDb::open(dir).unwrap();
    let budget = db.total_payload_bytes() as usize / 4;
    assert!(
        db.max_segment_bytes() <= budget,
        "dataset must be >= 4x the resident budget for this test to mean anything"
    );
    (db.with_budget(MemoryBudget::bytes(budget)), budget)
}

#[test]
fn one_pass_per_segment_bounded_residency_and_declared_counters() {
    let dir = temp_dir("passes");
    let (sealed, writes) = measure(|| write_store(&dir, 1024));
    assert!(sealed > 4, "want many segments, got {sealed}");
    assert_eq!(writes.value("storage.segments_written"), Some(sealed as u64));
    assert_eq!(writes.hists["storage.segment_bytes"].count, sealed as u64);

    let (db, budget) = open_quarter_budget(&dir);
    let ((fp, cdb), run) = measure(|| {
        // Round 1: raw out-of-core mining — one encode pass per segment.
        let (fp, mined) = measure(|| OocMiner::new(&db).mine(MinSupport::Absolute(40)).unwrap());
        assert!(!fp.is_empty());
        assert_eq!(mined.value("storage.segments_read"), Some(db.num_segments() as u64));
        // Round 2: cover/compress pass — again one pass per segment.
        let (cdb, _) = OocMiner::new(&db).compress(&fp, Strategy::Mcp).unwrap();
        (fp, cdb)
    });
    assert!(!fp.is_empty());
    assert_eq!(run.value("storage.segments_read"), Some(2 * db.num_segments() as u64));

    // Residency stayed bounded by the largest single segment.
    let peak = run.value("storage.resident_peak").unwrap();
    assert!(peak <= db.max_segment_bytes() as u64);
    assert!(peak as usize <= budget);

    // State persistence: saving the CDB reads and writes no segment,
    // and saving it again replaces the one file with the same bytes.
    let vdir = temp_dir("state");
    std::fs::create_dir_all(&vdir).unwrap();
    let state = vdir.join("cdb.ggd");
    let (first, saved) = measure(|| version::save(&state, &cdb).unwrap());
    assert_eq!(saved.value("storage.segments_read"), None);
    assert_eq!(saved.value("storage.segments_written"), None);
    assert_eq!(version::save(&state, &cdb).unwrap(), first);
    assert_eq!(std::fs::read_dir(&vdir).unwrap().count(), 1);
    assert_eq!(std::fs::metadata(&state).unwrap().len(), first);
    assert_eq!(version::load(&state).unwrap(), Some(cdb));

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&vdir).unwrap();
}

/// Two stores in one process: B's segments are smaller and its budget is
/// below A's measured peak, yet each run reports its own peak within its
/// own budget — a high-water mark belongs to the run that set it.
#[test]
fn each_run_reports_its_own_resident_peak() {
    let (dir_a, dir_b) = (temp_dir("peak-a"), temp_dir("peak-b"));
    write_store(&dir_a, 2048);
    write_store(&dir_b, 256);
    let (a, budget_a) = open_quarter_budget(&dir_a);
    // B's budget is the tightest that still holds one of its segments.
    let b = SegmentedDb::open(&dir_b).unwrap();
    let budget_b = b.max_segment_bytes();
    let b = b.with_budget(MemoryBudget::bytes(budget_b));

    let ((), run_a) = measure(|| drop(OocMiner::new(&a).mine(MinSupport::Absolute(40)).unwrap()));
    let ((), run_b) = measure(|| drop(OocMiner::new(&b).mine(MinSupport::Absolute(40)).unwrap()));
    let peak_a = run_a.value("storage.resident_peak").unwrap();
    let peak_b = run_b.value("storage.resident_peak").unwrap();
    assert!(budget_b < peak_a as usize, "B's budget {budget_b} must undercut A's peak {peak_a}");
    assert!(peak_a as usize <= budget_a);
    assert!(peak_b as usize <= budget_b, "B's peak {peak_b} exceeds its budget {budget_b}");
    assert_eq!(peak_b, b.max_segment_bytes() as u64);

    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}
