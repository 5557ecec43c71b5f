//! Archive retention: after an archive roll, the WAL segments wholly
//! covered by the *oldest retained* generation are deleted and every
//! other segment stays — and when that generation's meta frame cannot
//! be read, nothing is pruned at all.

use mapsynth_serve::{DeltaRequest, IndexSnapshot, PersistConfig, Persistence};
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mapsynth-retention-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Names of the files in `dir` ending in `suffix`, sorted.
fn files(dir: &Path, suffix: &str) -> Vec<String> {
    let mut out: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(suffix))
        .collect();
    out.sort();
    out
}

fn segments(first_seqs: &[u64]) -> Vec<String> {
    first_seqs
        .iter()
        .map(|s| format!("wal-{s:010}.mswal"))
        .collect()
}

/// Append `n` records; a 1-byte rotation threshold gives every record
/// its own sealed segment, named by its sequence number.
fn append(p: &mut Persistence, n: usize) {
    for _ in 0..n {
        p.record_accepted(&DeltaRequest::default()).unwrap();
    }
}

/// Three archive rolls with two generations kept: generation 1
/// (covers nothing), records 1–3, generation 2 (covers 3), records
/// 4–5, generation 3 (covers 5). The third roll deletes generation 1,
/// leaving generation 2 the oldest retained. `corrupt_gen2_meta` flips
/// a byte inside generation 2's meta frame just before that roll.
fn roll_three_generations(dir: &Path, corrupt_gen2_meta: bool) {
    let mut cfg = PersistConfig::new(dir);
    cfg.segment_bytes = 1;
    cfg.keep_generations = 2;
    let mut p = Persistence::create(cfg, 0).unwrap();
    let snapshot = IndexSnapshot::empty();
    p.write_archive(&snapshot, &[]).unwrap();
    append(&mut p, 3);
    p.write_archive(&snapshot, &[]).unwrap();
    // The oldest retained generation still covers nothing: no segment
    // may go yet.
    assert_eq!(files(dir, ".mswal"), segments(&[1, 2, 3]));
    append(&mut p, 2);
    if corrupt_gen2_meta {
        // Header (16 bytes) + frame length (4): byte 22 is inside the
        // meta payload, so the frame fails its CRC.
        let path = dir.join("archive-00000002.msa");
        let mut bytes = fs::read(&path).unwrap();
        bytes[22] ^= 0x40;
        fs::write(&path, bytes).unwrap();
    }
    p.write_archive(&snapshot, &[]).unwrap();
    assert_eq!(
        files(dir, ".msa"),
        ["archive-00000002.msa", "archive-00000003.msa"]
    );
}

#[test]
fn roll_prunes_exactly_the_segments_the_oldest_generation_covers() {
    let dir = tmp_dir("covered");
    roll_three_generations(&dir, false);
    // Generation 2 covers records 1–3: their segments go; segment 4
    // (record 4 > 3) and the last segment stay.
    assert_eq!(files(&dir, ".mswal"), segments(&[4, 5]));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unreadable_oldest_meta_prunes_nothing() {
    let dir = tmp_dir("corrupt-meta");
    roll_three_generations(&dir, true);
    assert_eq!(files(&dir, ".mswal"), segments(&[1, 2, 3, 4, 5]));
    let _ = fs::remove_dir_all(&dir);
}
