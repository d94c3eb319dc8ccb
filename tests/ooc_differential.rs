//! Differential test for the out-of-core datapath: a
//! [`SegmentedIncrementalMiner`] fed the same update rounds as the
//! in-memory [`IncrementalMiner`] must emit **byte-identical** pattern
//! files every round, at `--threads 1` and `--threads 4` alike, and its
//! thread-invariant counters must be bit-identical across thread counts.

use gogreen::core::incremental::IncrementalMiner;
use gogreen::obs::{measure, metrics};
use gogreen::storage::SegmentedIncrementalMiner;
use gogreen_data::pattern_io::write_patterns_file;
use gogreen_data::{MinSupport, PatternSet, Transaction, TransactionDb};
use gogreen_datagen::{DatasetPreset, PresetKind};
use gogreen_util::pool::Parallelism;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gogreen-oocdiff-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// Three update batches of the weather analog, as raw sorted rows.
fn update_rounds() -> Vec<Vec<Vec<u32>>> {
    let db = DatasetPreset::new(PresetKind::Weather, 0.002).generate();
    let rows: Vec<Vec<u32>> = db.iter().map(|t| t.iter().map(|i| i.id()).collect()).collect();
    let third = rows.len() / 3;
    vec![rows[..third].to_vec(), rows[third..2 * third].to_vec(), rows[2 * third..].to_vec()]
}

fn pattern_bytes(patterns: &PatternSet, tag: &str) -> Vec<u8> {
    let path =
        std::env::temp_dir().join(format!("gogreen-oocdiff-fp-{tag}-{}", std::process::id()));
    write_patterns_file(patterns, path.display().to_string()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// Runs the segmented miner over the rounds at `threads`, returning the
/// per-round pattern file bytes and the final invariant counter totals.
fn segmented_rounds(
    threads: usize,
    rounds: &[Vec<Vec<u32>>],
) -> (Vec<Vec<u8>>, Vec<(&'static str, u64)>) {
    let dir = temp_dir(&format!("t{threads}"));
    let (out, snap) = measure(|| {
        let mut miner = SegmentedIncrementalMiner::create(&dir, 2048)
            .unwrap()
            .with_parallelism(Parallelism::threads(threads));
        let mut out = Vec::new();
        for (round, batch) in rounds.iter().enumerate() {
            miner.insert(batch.iter()).unwrap();
            let patterns = miner.mine(MinSupport::percent(5.0)).unwrap();
            out.push(pattern_bytes(&patterns, &format!("t{threads}-r{round}")));
        }
        out
    });
    let snap = snap
        .metrics
        .into_iter()
        .filter(|(name, _)| metrics::is_thread_invariant(name))
        .map(|(name, m)| (name, m.value))
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    (out, snap)
}

#[test]
fn segmented_rounds_match_in_memory_rounds_byte_for_byte() {
    let rounds = update_rounds();

    // In-memory reference: same batches through the core incremental
    // miner.
    let mut reference = IncrementalMiner::new(TransactionDb::new());
    let mut expected: Vec<Vec<u8>> = Vec::new();
    for (round, batch) in rounds.iter().enumerate() {
        reference.insert(batch.iter().map(|r| Transaction::from_ids(r.iter().copied())));
        let patterns = reference.mine(MinSupport::percent(5.0));
        assert!(!patterns.is_empty(), "round {round} mined nothing");
        expected.push(pattern_bytes(&patterns, &format!("mem-r{round}")));
    }

    let (serial, counters_serial) = segmented_rounds(1, &rounds);
    let (threaded, counters_threaded) = segmented_rounds(4, &rounds);

    assert_eq!(serial, expected, "serial out-of-core rounds diverge from in-memory");
    assert_eq!(threaded, expected, "threaded out-of-core rounds diverge from in-memory");

    // The declared storage counters actually fired…
    for required in ["storage.segments_written", "storage.segments_read", "mine.candidate_tests"] {
        assert!(
            counters_serial.iter().any(|&(n, v)| n == required && v > 0),
            "counter {required} missing from {counters_serial:?}"
        );
    }
    // …and parallelism changed none of the invariant ones.
    assert_eq!(counters_serial, counters_threaded);
}
