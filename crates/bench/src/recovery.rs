//! Crash-recovery bench tier: a deterministic kill-point sweep plus a
//! torn-write/corruption fault matrix over the serve-side persistence
//! layer ([`mapsynth_serve::Persistence`] + [`mapsynth_serve::recover`]).
//!
//! The harness proves the crash-safety contract end to end, at bench
//! scale and with exact, gateable counts:
//!
//! * **kill-point sweep** — a persisted delta stream is cut at chosen
//!   positions (right after the base archive, mid-WAL between
//!   publishes, on the final record). The ingestor's graceful shutdown
//!   deliberately leaves the same bytes on disk a `kill -9` would, so
//!   each cut *is* a kill state. Recovery from every cut must be
//!   observation-identical (served lookups, golden compatibility
//!   edges, live key set) to an uncrashed run over the same prefix.
//! * **corruption matrix** — a fully persisted directory is copied per
//!   cell and damaged in one specific way: the final WAL record torn
//!   mid-frame, the newest archive truncated at each frame boundary ±
//!   a partial record, single bits flipped in archive header / body /
//!   trailer, a crafted future-format-version header, an archive in
//!   the previous layout (`MSA1`, refused by its header kind), whole
//!   generations deleted, a sealed WAL segment rotted. Every cell must
//!   either recover (falling back to an older generation where the
//!   newest is damaged) or fail with the exact typed
//!   [`PersistError`] — never a panic, never silently wrong data.

use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth_corpus::{crc32, Corpus, FrameError, FRAME_VERSION};
use mapsynth_serve::ingest::{DeltaIngestor, DeltaRequest, IngestorConfig, NoFaults, TableSpec};
use mapsynth_serve::{
    recover, IndexSnapshot, MappingService, PersistConfig, PersistError, Persistence, Recovered,
    WalTail,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::StreamRng;

/// Initial corpus size of the recovery tier.
pub const RECOVERY_TABLES: usize = 48;
/// Deltas driven through the persisted ingestor. Deliberately *not* a
/// multiple of the publish × archive cadence (8 × 3 = 24), so the full
/// run always leaves a replayable WAL tail past the last archive.
pub const RECOVERY_DELTAS: usize = 100;
/// Publish cadence of the recovery tier's ingestor.
pub const RECOVERY_PUBLISH_EVERY: usize = 8;
/// Archive roll cadence (in publishes).
pub const RECOVERY_ARCHIVE_EVERY: u64 = 3;
/// WAL segment rotation threshold (bytes) — small enough that the
/// stream rotates several times.
pub const RECOVERY_SEGMENT_BYTES: u64 = 8 * 1024;

/// Kill points of the sweep: immediately after the base archive
/// (empty WAL), one accepted record, mid-stream between publishes,
/// one short of the end, and the full stream.
pub fn kill_points() -> Vec<usize> {
    vec![
        0,
        1,
        RECOVERY_DELTAS / 2,
        RECOVERY_DELTAS - 1,
        RECOVERY_DELTAS,
    ]
}

/// What one corruption-matrix cell did to the directory and what
/// happened.
#[derive(Debug)]
pub struct MatrixCell {
    /// Cell label (stable across runs; drives the per-cell log line).
    pub label: String,
    /// Whether recovery succeeded.
    pub recovered: bool,
    /// Whether recovery had to fall back past the newest generation.
    pub fell_back: bool,
    /// Whether a torn final WAL record was truncated away.
    pub torn_repaired: bool,
    /// Whether mid-WAL corruption halted replay with a typed cause.
    pub wal_halted: bool,
    /// The typed error when recovery (correctly) refused, as a stable
    /// variant label.
    pub typed_error: Option<String>,
    /// Recovery wall-clock for this cell (ms).
    pub recover_ms: f64,
}

/// Everything the recovery tier produced.
pub struct RecoveryMatrixOutcome {
    /// Kill points swept (each proven observation-identical under
    /// `verify`).
    pub kill_points: usize,
    /// WAL records replayed across the sweep.
    pub sweep_replayed: u64,
    /// WAL records skipped (already archived) across the sweep.
    pub sweep_skipped: u64,
    /// Mean recovery latency across the sweep (ms).
    pub sweep_recover_ms: f64,
    /// Archive generations on disk after the full persisted run.
    pub full_generations: usize,
    /// WAL segment files on disk after the full persisted run.
    pub full_wal_segments: usize,
    /// Records the full run's clean recovery replayed.
    pub full_replayed: u64,
    /// Corruption-matrix cells run.
    pub cells: Vec<MatrixCell>,
}

impl RecoveryMatrixOutcome {
    /// Cells that recovered (possibly from an older generation).
    pub fn cells_recovered(&self) -> usize {
        self.cells.iter().filter(|c| c.recovered).count()
    }
    /// Cells that fell back past the newest archive generation.
    pub fn cells_fallback(&self) -> usize {
        self.cells.iter().filter(|c| c.fell_back).count()
    }
    /// Cells that failed with the expected typed error.
    pub fn cells_typed_errors(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.typed_error.is_some())
            .count()
    }
    /// Cells that repaired a torn final WAL record.
    pub fn cells_torn_repaired(&self) -> usize {
        self.cells.iter().filter(|c| c.torn_repaired).count()
    }
    /// Cells that halted WAL replay on mid-log corruption.
    pub fn cells_wal_halted(&self) -> usize {
        self.cells.iter().filter(|c| c.wal_halted).count()
    }
}

fn pipe_cfg() -> PipelineConfig {
    PipelineConfig {
        compact_threshold: crate::STREAM_COMPACT_THRESHOLD,
        ..PipelineConfig::default()
    }
}

fn ing_cfg() -> IngestorConfig {
    IngestorConfig {
        publish_every: RECOVERY_PUBLISH_EVERY,
        ..IngestorConfig::default()
    }
}

fn persist_cfg(dir: &Path) -> PersistConfig {
    let mut cfg = PersistConfig::new(dir);
    cfg.segment_bytes = RECOVERY_SEGMENT_BYTES;
    cfg.archive_every_publishes = RECOVERY_ARCHIVE_EVERY;
    cfg.keep_generations = 2;
    cfg
}

/// The initial corpus plus its stable ingest keys (`0..tables`).
fn base_state() -> (Corpus, SynthesisSession, Vec<u64>) {
    let wc = crate::bench_corpus(RECOVERY_TABLES);
    let corpus = wc.corpus;
    let keys: Vec<u64> = (0..corpus.len() as u64).collect();
    let mut session = SynthesisSession::new(pipe_cfg());
    session.prepare(&corpus);
    (corpus, session, keys)
}

/// The deterministic delta stream: a pure function of
/// [`RECOVERY_DELTAS`]. Mostly adds (cloning a seed table's content
/// under a fresh domain with one table-unique row, so value overlap
/// keeps the synthesis graph connected), with a removal of an earlier
/// add every 9th position.
fn stream(corpus: &Corpus) -> Vec<DeltaRequest> {
    let mut rng = StreamRng::new(0x7ec0_4e59_5eed);
    let mut deltas = Vec::with_capacity(RECOVERY_DELTAS);
    let mut added: Vec<u64> = Vec::new();
    let mut removed_at = 0usize;
    for seq in 0..RECOVERY_DELTAS as u64 {
        if seq % 9 == 8 && removed_at < added.len() {
            let key = added[removed_at];
            removed_at += 1;
            deltas.push(DeltaRequest {
                remove: vec![key],
                ..Default::default()
            });
            continue;
        }
        let seed = &corpus.tables[rng.below(corpus.len())];
        let key = 1_000 + seq;
        let mut columns: Vec<(Option<String>, Vec<String>)> = seed
            .columns
            .iter()
            .map(|c| {
                (
                    c.header.map(|h| corpus.str_of(h).to_string()),
                    c.values
                        .iter()
                        .map(|&v| corpus.str_of(v).to_string())
                        .collect(),
                )
            })
            .collect();
        for (ci, (_, values)) in columns.iter_mut().enumerate() {
            values.push(format!("recrawl-{key}-{ci}"));
        }
        added.push(key);
        deltas.push(DeltaRequest {
            add: vec![TableSpec {
                key,
                domain: format!("recrawl-{seq}.example.org"),
                columns,
            }],
            ..Default::default()
        });
    }
    deltas
}

/// Drive the first `k` stream deltas through a persisted ingestor
/// rooted at `dir`, then shut down — leaving `dir` as the kill state.
fn run_persisted(dir: &Path, k: usize) -> (Arc<MappingService>, mapsynth_serve::IngestOutcome) {
    let (corpus, session, keys) = base_state();
    let deltas = stream(&corpus);
    let service = Arc::new(MappingService::new());
    let persistence = Persistence::create(persist_cfg(dir), 0).expect("init persistence");
    let ing = DeltaIngestor::spawn_with_persistence(
        session,
        corpus,
        &keys,
        Arc::clone(&service),
        ing_cfg(),
        Box::new(NoFaults),
        Some(persistence),
    )
    .expect("spawn persisted ingestor");
    for delta in deltas.into_iter().take(k) {
        ing.submit(delta);
    }
    let outcome = ing.shutdown();
    assert_eq!(outcome.stats.accepted, k as u64, "recovery stream is clean");
    assert_eq!(outcome.stats.wal_records, k as u64);
    assert_eq!(outcome.stats.persist_errors, 0, "no persistence failures");
    (service, outcome)
}

/// The uncrashed oracle over the same `k`-delta prefix (no
/// persistence).
fn run_oracle(k: usize) -> (Arc<MappingService>, mapsynth_serve::IngestOutcome) {
    let (corpus, session, keys) = base_state();
    let deltas = stream(&corpus);
    let service = Arc::new(MappingService::new());
    let ing = DeltaIngestor::spawn(
        session,
        corpus,
        &keys,
        Arc::clone(&service),
        ing_cfg(),
        Box::new(NoFaults),
    )
    .expect("spawn oracle ingestor");
    for delta in deltas.into_iter().take(k) {
        ing.submit(delta);
    }
    (service, ing.shutdown())
}

/// Golden edges of a state: fresh session on the live corpus (fresh
/// preparation is ID-stable, so identical content ⇒ identical bytes).
fn golden_edges(session: &SynthesisSession, corpus: &Corpus) -> String {
    let live = session.live_corpus(corpus);
    let mut fresh = SynthesisSession::new(session.config().clone());
    fresh.prepare(&live);
    let graph = fresh.graph(&fresh.config().synthesis);
    let mut edges: Vec<String> = graph
        .edges
        .iter()
        .map(|&(a, b, w)| format!("{a} {b} {:.17e} {:.17e}", w.pos, w.neg))
        .collect();
    edges.sort();
    edges.join("\n")
}

/// Content-level lookup observations (mapping ids excluded: an
/// incrementally patched snapshot and a one-shot rebuild number
/// mappings differently while serving the same translations).
fn lookups(snapshot: &IndexSnapshot, probes: &[String]) -> Vec<Vec<String>> {
    probes
        .iter()
        .map(|p| {
            let mut hits: Vec<String> = snapshot
                .lookup(p)
                .map(|h| h.translations().map(|(_, r)| r.to_string()).collect())
                .unwrap_or_default();
            hits.sort();
            hits
        })
        .collect()
}

/// Probe keys: a deterministic sample of initial-corpus values.
fn probe_keys(corpus: &Corpus) -> Vec<String> {
    corpus
        .tables
        .iter()
        .take(8)
        .flat_map(|t| t.columns.first())
        .flat_map(|c| c.values.iter().take(8))
        .map(|&v| corpus.str_of(v).to_string())
        .collect()
}

fn assert_equivalent(
    cell: &str,
    recovered: &Recovered,
    oracle_service: &MappingService,
    oracle: &mapsynth_serve::IngestOutcome,
    probes: &[String],
) {
    let mut a: Vec<u64> = recovered.key_of_table.keys().copied().collect();
    let mut b: Vec<u64> = oracle.key_of_table.keys().copied().collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "{cell}: live key set diverged");
    assert_eq!(
        golden_edges(&recovered.session, &recovered.corpus),
        golden_edges(&oracle.session, &oracle.corpus),
        "{cell}: golden edges diverged"
    );
    assert_eq!(
        lookups(&recovered.service.snapshot(), probes),
        lookups(&oracle_service.snapshot(), probes),
        "{cell}: served lookups diverged"
    );
    assert!(
        recovered.report.served_version >= recovered.report.archive_version,
        "{cell}: served version regressed below the archive's"
    );
}

/// Recursively copy a flat persistence directory.
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("create matrix cell dir");
    for entry in fs::read_dir(src).expect("read persistence dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy cell file");
    }
}

fn sorted_files(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| {
            let p = e.expect("entry").path();
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(suffix))
                .then_some(p)
        })
        .collect();
    out.sort();
    out
}

fn flip_byte(path: &Path, offset: u64) {
    let mut bytes = fs::read(path).expect("read file to corrupt");
    let at = (offset as usize).min(bytes.len() - 1);
    bytes[at] ^= 0x40;
    fs::write(path, bytes).expect("write corrupted file");
}

fn truncate_to(path: &Path, len: u64) {
    fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open file to truncate")
        .set_len(len)
        .expect("truncate");
}

/// Frame boundaries of a framed file: offsets right after the 16-byte
/// header and after each `len`-prefixed frame (trailer excluded).
fn frame_boundaries(path: &Path) -> Vec<u64> {
    let bytes = fs::read(path).expect("read framed file");
    let mut boundaries = vec![16u64];
    let mut at = 16usize;
    while at + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        if len == u32::MAX as usize {
            break; // trailer mark
        }
        let end = at + 4 + len + 4;
        if end > bytes.len() {
            break;
        }
        boundaries.push(end as u64);
        at = end;
    }
    boundaries
}

/// A stable label for the typed error a refused cell produced.
fn error_label(e: &PersistError) -> String {
    match e {
        PersistError::Io(_) => "io".into(),
        PersistError::Frame { error, .. } => format!("frame:{}", frame_label(error)),
        PersistError::Decode { .. } => "decode".into(),
        PersistError::Layout { .. } => "layout".into(),
        PersistError::NoArchive => "no_archive".into(),
        PersistError::AllArchivesCorrupt { .. } => "all_archives_corrupt".into(),
        PersistError::WalGap { .. } => "wal_gap".into(),
        PersistError::Replay { .. } => "replay".into(),
    }
}

fn frame_label(e: &FrameError) -> &'static str {
    match e {
        FrameError::Io(_) => "io",
        FrameError::BadMagic { .. } => "bad_magic",
        FrameError::VersionMismatch { .. } => "version_mismatch",
        FrameError::KindMismatch { .. } => "kind_mismatch",
        FrameError::HeaderCorrupt => "header_corrupt",
        FrameError::Truncated { .. } => "truncated",
        FrameError::OversizedFrame { .. } => "oversized",
        FrameError::ChecksumMismatch { .. } => "checksum_mismatch",
        FrameError::MissingTrailer { .. } => "missing_trailer",
        FrameError::TrailerMismatch { .. } => "trailer_mismatch",
    }
}

/// One corruption cell: copy the pristine directory, apply `damage`,
/// recover, and record what happened. Panics (the one hard "never") in
/// any cell fail the whole tier.
fn run_cell(
    pristine: &Path,
    scratch: &Path,
    label: &str,
    baseline_generation: u64,
    damage: impl FnOnce(&Path),
) -> (MatrixCell, Option<Recovered>) {
    let cell_dir = scratch.join(label.replace([' ', '/'], "_"));
    let _ = fs::remove_dir_all(&cell_dir);
    copy_dir(pristine, &cell_dir);
    damage(&cell_dir);
    let t = Instant::now();
    let result = recover(&cell_dir, pipe_cfg(), Resolver::Algorithm4);
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let cell = match &result {
        Ok(r) => MatrixCell {
            label: label.to_string(),
            recovered: true,
            fell_back: r.report.generation < baseline_generation || r.report.archives_tried > 1,
            torn_repaired: r.report.wal_tail == WalTail::Torn,
            wal_halted: r.report.wal_halted.is_some(),
            typed_error: None,
            recover_ms,
        },
        Err(e) => MatrixCell {
            label: label.to_string(),
            recovered: false,
            fell_back: false,
            torn_repaired: false,
            wal_halted: false,
            typed_error: Some(error_label(e)),
            recover_ms,
        },
    };
    let _ = fs::remove_dir_all(&cell_dir);
    (cell, result.ok())
}

/// Run the recovery tier: the kill-point sweep, then the corruption
/// matrix. With `verify`, every oracle equivalence and per-cell typed
/// expectation is asserted (the bench's `--check` mode); without it
/// only the structural invariants that double as counters run.
pub fn run_recovery_matrix(verify: bool) -> RecoveryMatrixOutcome {
    let scratch =
        std::env::temp_dir().join(format!("mapsynth-bench-recovery-{}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch).expect("create recovery scratch dir");
    let probes = probe_keys(&base_state().0);

    // ---- Kill-point sweep ----------------------------------------
    let points = kill_points();
    let mut sweep_replayed = 0u64;
    let mut sweep_skipped = 0u64;
    let mut sweep_ms = 0.0f64;
    let full_dir = scratch.join("full");
    let mut full_generations = 0usize;
    let mut full_wal_segments = 0usize;
    let mut full_replayed = 0u64;
    let mut full_baseline_generation = 0u64;
    for &k in &points {
        let dir = if k == RECOVERY_DELTAS {
            full_dir.clone()
        } else {
            scratch.join(format!("kill-{k}"))
        };
        run_persisted(&dir, k);
        let t = Instant::now();
        let recovered = recover(&dir, pipe_cfg(), Resolver::Algorithm4)
            .unwrap_or_else(|e| panic!("kill point {k}: recovery failed: {e}"));
        sweep_ms += t.elapsed().as_secs_f64() * 1e3;
        assert!(
            recovered.report.wal_halted.is_none(),
            "kill point {k}: clean WAL reported corrupt"
        );
        assert_eq!(
            recovered.report.next_seq,
            k as u64 + 1,
            "kill point {k}: next_seq resumes after the last accepted record"
        );
        sweep_replayed += recovered.report.wal_replayed;
        sweep_skipped += recovered.report.wal_skipped;
        if k == RECOVERY_DELTAS {
            full_generations = sorted_files(&dir, ".msa").len();
            full_wal_segments = sorted_files(&dir, ".mswal").len();
            full_replayed = recovered.report.wal_replayed;
            full_baseline_generation = recovered.report.generation;
        }
        if verify {
            let (oracle_service, oracle) = run_oracle(k);
            assert_equivalent(
                &format!("kill point {k}"),
                &recovered,
                &oracle_service,
                &oracle,
                &probes,
            );
        }
        if k != RECOVERY_DELTAS {
            let _ = fs::remove_dir_all(&dir);
        }
    }

    // The matrix needs room to fall back and a WAL tail to tear.
    assert!(
        full_generations >= 2,
        "archive cadence must retain ≥ 2 generations (got {full_generations})"
    );
    assert!(
        full_replayed >= 1,
        "full run must leave replayable WAL tail records (got {full_replayed})"
    );

    // ---- Corruption matrix ---------------------------------------
    let mut cells: Vec<MatrixCell> = Vec::new();
    let mut push = |cell: MatrixCell, expect: &str| {
        if verify {
            match cell.typed_error.as_deref() {
                Some(label) => assert_eq!(
                    label, expect,
                    "cell '{}' failed with the wrong typed error",
                    cell.label
                ),
                None => assert_eq!(
                    expect, "recovered",
                    "cell '{}' recovered where a typed error was expected",
                    cell.label
                ),
            }
        }
        cells.push(cell);
    };
    let gen0 = full_baseline_generation;

    // Cell: pristine copy — the matrix's control.
    let (cell, rec) = run_cell(&full_dir, &scratch, "control", gen0, |_| {});
    let control = rec.expect("control cell recovers");
    assert!(!cell.fell_back && !cell.torn_repaired && !cell.wal_halted);
    if verify {
        let (oracle_service, oracle) = run_oracle(RECOVERY_DELTAS);
        assert_equivalent(
            "matrix control",
            &control,
            &oracle_service,
            &oracle,
            &probes,
        );
    }
    push(cell, "recovered");

    // Cell: torn final WAL record (crash mid-append) — truncated away,
    // recovery lands one record short.
    let (cell, rec) = run_cell(&full_dir, &scratch, "wal torn tail", gen0, |d| {
        let segs = sorted_files(d, ".mswal");
        let last = segs.last().expect("wal segment present");
        // Cut 5 bytes into the *last record* (not merely the trailer,
        // if the segment happens to end sealed), so exactly one
        // record's bytes are incomplete.
        let end = *frame_boundaries(last).last().expect("wal record present");
        truncate_to(last, end - 5);
    });
    {
        let r = rec.expect("torn tail recovers");
        assert_eq!(r.report.wal_tail, WalTail::Torn, "torn tail detected");
        assert_eq!(
            r.report.wal_replayed,
            full_replayed - 1,
            "exactly the torn record is lost"
        );
        if verify {
            let (oracle_service, oracle) = run_oracle(RECOVERY_DELTAS - 1);
            assert_equivalent("torn tail", &r, &oracle_service, &oracle, &probes);
        }
    }
    push(cell, "recovered");

    // Cells: newest archive truncated at every frame boundary and just
    // past it (a partial record) — each falls back to the older
    // generation.
    let newest_archive = sorted_files(&full_dir, ".msa")
        .last()
        .expect("archive present")
        .clone();
    let boundaries = frame_boundaries(&newest_archive);
    for (i, &b) in boundaries.iter().enumerate() {
        let name = newest_archive.file_name().expect("file name").to_owned();
        let (cell, rec) = run_cell(
            &full_dir,
            &scratch,
            &format!("archive cut at frame boundary {i}"),
            gen0,
            |d| truncate_to(&d.join(&name), b),
        );
        assert!(
            rec.expect("boundary cut falls back").report.archives_tried > 1,
            "boundary cut must fall back"
        );
        push(cell, "recovered");

        let name = newest_archive.file_name().expect("file name").to_owned();
        let (cell, rec) = run_cell(
            &full_dir,
            &scratch,
            &format!("archive cut inside frame {i}"),
            gen0,
            |d| truncate_to(&d.join(&name), b + 3),
        );
        assert!(rec.is_some(), "partial-record cut falls back");
        push(cell, "recovered");
    }

    // Cells: single-bit damage in the newest archive's header, body,
    // and trailer — all detected, all fall back.
    let archive_len = fs::metadata(&newest_archive)
        .expect("archive metadata")
        .len();
    for (label, offset) in [
        ("archive header bitflip", 1u64),
        ("archive body bitflip", boundaries[0] + 12),
        ("archive trailer bitflip", archive_len - 2),
    ] {
        let name = newest_archive.file_name().expect("file name").to_owned();
        let (cell, rec) = run_cell(&full_dir, &scratch, label, gen0, |d| {
            flip_byte(&d.join(&name), offset);
        });
        let r = rec.unwrap_or_else(|| panic!("{label}: must fall back, not fail"));
        assert!(r.report.archives_tried > 1, "{label}: must fall back");
        push(cell, "recovered");
    }

    // Cells: a crafted header with a valid CRC — a future format
    // version, or the previous layout's kind `MSA1` — is refused as
    // VersionMismatch / KindMismatch, and recovery falls back.
    for (label, at, field, expect) in [
        (
            "archive future version",
            4,
            (FRAME_VERSION + 1).to_le_bytes(),
            "version_mismatch",
        ),
        (
            "archive in the previous format",
            8,
            *b"MSA1",
            "kind_mismatch",
        ),
    ] {
        let name = newest_archive.file_name().expect("file name").to_owned();
        let (cell, rec) = run_cell(&full_dir, &scratch, label, gen0, |d| {
            let path = d.join(&name);
            let mut bytes = fs::read(&path).expect("read archive");
            bytes[at..at + 4].copy_from_slice(&field);
            let crc = crc32(&bytes[..12]);
            bytes[12..16].copy_from_slice(&crc.to_le_bytes());
            fs::write(&path, bytes).expect("re-stamp archive header");
        });
        let r = rec.unwrap_or_else(|| panic!("{label}: must fall back, not fail"));
        let first = r.report.archive_errors.first().map(|(_, e)| e);
        assert!(
            matches!(first, Some(PersistError::Frame { error, .. }) if frame_label(error) == expect),
            "{label}: must be refused as {expect}, got {first:?}"
        );
        push(cell, "recovered");
    }

    // Cell: newest generation deleted outright — older one serves.
    {
        let name = newest_archive.file_name().expect("file name").to_owned();
        let (cell, rec) = run_cell(&full_dir, &scratch, "newest archive deleted", gen0, |d| {
            fs::remove_file(d.join(&name)).expect("delete newest archive");
        });
        let r = rec.expect("deletion falls back to the older generation");
        assert!(r.report.generation < gen0, "older generation must serve");
        push(cell, "recovered");
    }

    // Cell: every archive deleted — typed NoArchive, no panic.
    let (cell, _) = run_cell(&full_dir, &scratch, "all archives deleted", gen0, |d| {
        for p in sorted_files(d, ".msa") {
            fs::remove_file(p).expect("delete archive");
        }
    });
    push(cell, "no_archive");

    // Cell: every archive corrupted — typed AllArchivesCorrupt.
    let (cell, _) = run_cell(&full_dir, &scratch, "all archives corrupt", gen0, |d| {
        for p in sorted_files(d, ".msa") {
            flip_byte(&p, 20);
        }
    });
    push(cell, "all_archives_corrupt");

    // Cell: rot inside a sealed (non-final) WAL segment — recovery
    // serves the archive state and halts replay with the typed cause
    // instead of replaying past unverifiable records.
    {
        let segs = sorted_files(&full_dir, ".mswal");
        if segs.len() >= 2 {
            let name = segs[0].file_name().expect("file name").to_owned();
            let (cell, rec) = run_cell(&full_dir, &scratch, "sealed wal segment rot", gen0, |d| {
                let path = d.join(&name);
                let mid = fs::metadata(&path).expect("segment metadata").len() / 2;
                flip_byte(&path, mid);
            });
            let r = rec.expect("sealed-segment rot still recovers the archive state");
            assert!(
                r.report.wal_halted.is_some(),
                "sealed-segment rot must halt replay with a typed cause"
            );
            push(cell, "recovered");
        }
    }

    let _ = fs::remove_dir_all(&scratch);
    RecoveryMatrixOutcome {
        kill_points: points.len(),
        sweep_replayed,
        sweep_skipped,
        sweep_recover_ms: sweep_ms / points.len() as f64,
        full_generations,
        full_wal_segments,
        full_replayed,
        cells,
    }
}
