//! Crash-safe persistence: checksummed corpus archives + a delta WAL,
//! with typed recovery.
//!
//! Everything the serving layer holds dies with the process; this
//! module is the durability story beneath it (ROADMAP's cross-process
//! serving milestone). The design is the classic base-plus-log pair,
//! in the spirit of answering queries under an update stream:
//!
//! * an **archive** ([`Persistence::write_archive`]) captures a
//!   consistent cut — the live corpus in portable form, the sequence
//!   number of the last accepted delta it covers and the version then
//!   served — written to a temp file, fsynced, then atomically renamed
//!   into place (and the directory fsynced), so an archive is either
//!   entirely present or entirely absent. It stores the pipeline's
//!   input, never its output: the served index is derived state;
//! * a **delta WAL** appends every accepted delta as a
//!   [`PortableDelta`] record (append + fsync *per record*, before
//!   the delta can reach a publish), rotating to a new sealed segment
//!   at a size threshold;
//! * [`recover`] loads the newest *valid* archive — falling back to
//!   older generations when the newest is corrupt — rebuilds the
//!   session by re-preparing on the archived corpus, replays the WAL
//!   tail through the **same** apply path the live ingestor uses
//!   ([`crate::ingest`]'s shared apply), truncates a torn final record
//!   instead of failing, and derives the served snapshot from the
//!   replayed session. Every other corruption is a typed
//!   [`PersistError`] — never a panic, never silently wrong data.
//!
//! File formats ride on `mapsynth_corpus`'s checksummed framing
//! ([`FrameWriter`]/[`FrameReader`]): a versioned magic header binds
//! each file to a `kind`, every frame carries a CRC32, sealed files
//! end in a counted trailer. Archives are always sealed, two frames
//! `[meta][portable tables]`; the active WAL segment is deliberately
//! *never* sealed (not even on graceful shutdown), so the disk state
//! after a clean stop is byte-identical to the state after a kill at
//! the same point — the property the recovery oracle leans on. A
//! consequence: each recover→resume cycle leaves the pre-crash segment
//! behind unsealed while the resumed WAL opens a fresh one, so a
//! directory may legitimately hold *several* unsealed segments. Replay
//! accepts an unsealed non-final segment whenever the next segment
//! starts at or before the sequence replay expects next (contiguity —
//! no record can be missing between them); only a provable hole halts
//! it.

use crate::ingest::{apply_request_to, compact_with_keys, DeltaRequest, IngestError};
use crate::service::MappingService;
use crate::snapshot::{IndexSnapshot, SnapshotBuilder};
use mapsynth::delta::{PortableDelta, PortableTable};
use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth_corpus::wire::{self, WireError, WireReader};
use mapsynth_corpus::{Corpus, FrameError, FrameReader, FrameTail, FrameWriter, TableId};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Frame-file kind tag of archives (`"MSA2"`: meta + portable tables).
/// A file of any other kind is refused with `KindMismatch`.
const ARCHIVE_KIND: u32 = u32::from_le_bytes(*b"MSA2");
/// Frame-file kind tag of WAL segments (`"MSW1"`).
const WAL_KIND: u32 = u32::from_le_bytes(*b"MSW1");
/// Byte length of a framed file's header: a segment at exactly this
/// length holds no records at all.
const WAL_HEADER_LEN: u64 = 16;

/// Why persistence or recovery failed. Every failure mode the fault
/// matrix exercises maps to exactly one variant.
#[derive(Debug)]
pub enum PersistError {
    /// A filesystem operation failed.
    Io(io::Error),
    /// A framed file failed its integrity checks.
    Frame {
        /// File name (not full path) the error was found in.
        file: String,
        /// The typed framing failure.
        error: FrameError,
    },
    /// A frame's payload passed its CRC but did not decode — a format
    /// bug or a CRC collision, distinguished from bit rot.
    Decode {
        /// File name the record came from.
        file: String,
        /// The typed decode failure.
        error: WireError,
    },
    /// A file's content is well-formed but structurally wrong (frame
    /// count, out-of-range references).
    Layout {
        /// File name.
        file: String,
        /// What was wrong.
        what: &'static str,
    },
    /// The directory holds no archive generation at all.
    NoArchive,
    /// Every archive generation present failed to load.
    AllArchivesCorrupt {
        /// Generations tried (newest first, all failed).
        tried: usize,
    },
    /// The WAL's record sequence has a hole the retained archives
    /// cannot explain — replaying past it would silently skip
    /// accepted deltas.
    WalGap {
        /// The sequence number replay expected next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// A WAL record that was accepted by the original stream was
    /// rejected on replay — the store is inconsistent with itself.
    Replay {
        /// The record's sequence number.
        seq: u64,
        /// The apply path's rejection.
        error: IngestError,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Frame { file, error } => write!(f, "{file}: {error}"),
            PersistError::Decode { file, error } => write!(f, "{file}: record decode: {error}"),
            PersistError::Layout { file, what } => write!(f, "{file}: {what}"),
            PersistError::NoArchive => write!(f, "no archive generation found"),
            PersistError::AllArchivesCorrupt { tried } => {
                write!(f, "all {tried} archive generations failed to load")
            }
            PersistError::WalGap { expected, found } => {
                write!(f, "WAL gap: expected record {expected}, found {found}")
            }
            PersistError::Replay { seq, error } => {
                write!(f, "WAL record {seq} rejected on replay: {error}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Frame { error, .. } => Some(error),
            PersistError::Decode { error, .. } => Some(error),
            PersistError::Replay { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

fn frame_err(path: &Path, error: FrameError) -> PersistError {
    PersistError::Frame {
        file: file_name(path),
        error,
    }
}

fn decode_err(path: &Path, error: WireError) -> PersistError {
    PersistError::Decode {
        file: file_name(path),
        error,
    }
}

/// Durability barrier on the directory itself: the rename that
/// publishes an archive is only crash-safe once the directory entry
/// is on disk.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn archive_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("archive-{generation:08}.msa"))
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:010}.mswal"))
}

/// Scan `dir` for archive generations, ascending.
fn generations(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    scan(dir, "archive-", ".msa")
}

/// Scan `dir` for WAL segments by first contained sequence, ascending.
fn segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    scan(dir, "wal-", ".mswal")
}

fn scan(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix))
        else {
            continue;
        };
        if let Ok(n) = stem.parse::<u64>() {
            out.push((n, entry.path()));
        }
    }
    out.sort_by_key(|&(n, _)| n);
    Ok(out)
}

/// An archive's meta frame.
struct ArchiveMeta {
    generation: u64,
    /// Last accepted-delta sequence the archive captures; WAL records
    /// with `seq <= covered_seq` are redundant against it.
    covered_seq: u64,
    /// Version the service served when the archive was written.
    version: u64,
}

/// One loaded archive generation: its meta plus the live corpus.
struct LoadedArchive {
    meta: ArchiveMeta,
    tables: Vec<PortableTable>,
}

/// Open an archive and read its header and meta frame only — all that
/// retention needs, without decoding the corpus. The reader is left at
/// the corpus frame.
fn read_meta(path: &Path) -> Result<(ArchiveMeta, FrameReader), PersistError> {
    let mut reader = FrameReader::open(path, ARCHIVE_KIND).map_err(|e| frame_err(path, e))?;
    let frame = reader
        .next_frame()
        .map_err(|e| frame_err(path, e))?
        .ok_or_else(|| frame_err(path, FrameError::MissingTrailer { frames: 0 }))?;
    let mut r = WireReader::new(&frame);
    let meta = (|| -> Result<ArchiveMeta, WireError> {
        let meta = ArchiveMeta {
            generation: r.u64()?,
            covered_seq: r.u64()?,
            version: r.u64()?,
        };
        r.finish()?;
        Ok(meta)
    })()
    .map_err(|e| decode_err(path, e))?;
    Ok((meta, reader))
}

/// Load a whole archive: exactly two sealed frames, meta then the
/// portable live tables.
fn load_archive(path: &Path) -> Result<LoadedArchive, PersistError> {
    let (meta, mut reader) = read_meta(path)?;
    let mut rest = Vec::new();
    while let Some(f) = reader.next_frame().map_err(|e| frame_err(path, e))? {
        rest.push(f);
    }
    if reader.tail() != Some(FrameTail::Sealed) {
        let frames = reader.frames_read();
        return Err(frame_err(path, FrameError::MissingTrailer { frames }));
    }
    let [corpus_frame] = rest.as_slice() else {
        return Err(PersistError::Layout {
            file: file_name(path),
            what: "archive must hold exactly 2 frames (meta, corpus)",
        });
    };
    let mut r = WireReader::new(corpus_frame);
    let tables = (|| -> Result<Vec<PortableTable>, WireError> {
        let n = r.u32()? as usize;
        let mut tables = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            tables.push(PortableTable::decode_from(&mut r)?);
        }
        r.finish()?;
        Ok(tables)
    })()
    .map_err(|e| decode_err(path, e))?;
    Ok(LoadedArchive { meta, tables })
}

/// The live tables of `corpus` in portable (content + stable key)
/// form, in live-table order: exactly what a fresh `prepare` on the
/// recovered side needs to reconstruct an observation-identical
/// session. `key_of_table` must cover the live tables 1:1 (the
/// ingestor's invariant).
pub(crate) fn portable_tables(
    corpus: &Corpus,
    key_of_table: &HashMap<u64, TableId>,
) -> Vec<PortableTable> {
    let mut entries: Vec<(u64, TableId)> = key_of_table.iter().map(|(&k, &t)| (k, t)).collect();
    entries.sort_by_key(|&(_, tid)| tid.0);
    entries
        .into_iter()
        .map(|(key, tid)| {
            let table = corpus.table(tid);
            PortableTable {
                key,
                domain: corpus.domain_names[table.domain.0 as usize].clone(),
                columns: table
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
                    .collect(),
            }
        })
        .collect()
}

/// Tuning for the persistence hook.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// Directory holding archives and WAL segments (created if
    /// absent).
    pub dir: PathBuf,
    /// Rotate (and seal) the active WAL segment once it reaches this
    /// many bytes.
    pub segment_bytes: u64,
    /// Write a fresh archive generation every this many successful
    /// publishes (1 = archive on every publish).
    pub archive_every_publishes: u64,
    /// Archive generations retained after a new one lands (≥ 1; the
    /// matrix's fallback-to-older-generation cells need ≥ 2).
    pub keep_generations: usize,
}

impl PersistConfig {
    /// Defaults tuned for a delta stream of small tables: 64 KiB
    /// segments, an archive every 4 publishes, 2 generations kept.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 64 * 1024,
            archive_every_publishes: 4,
            keep_generations: 2,
        }
    }
}

/// The active WAL: an open (unsealed) segment plus rotation state.
struct DeltaWal {
    dir: PathBuf,
    segment_bytes: u64,
    /// The open segment, if any: writer + its path (for repair and
    /// error reporting).
    active: Option<(FrameWriter, PathBuf)>,
    /// Sequence number the next record will carry.
    next_seq: u64,
    /// Set when a failed append (or seal) could not be repaired: the
    /// active segment may hold a torn frame, and appending more
    /// records behind it would make the whole tail unreplayable.
    /// Every further append fails fast instead.
    poisoned: bool,
}

impl DeltaWal {
    /// Append one accepted delta as record `next_seq` and fsync it;
    /// rotates (sealing the old segment) once the active segment
    /// crosses the size threshold.
    ///
    /// A failed append never leaves a torn frame behind: the segment
    /// is truncated back to its last durable whole-frame boundary (or
    /// deleted outright if no frame ever landed) and the next append
    /// opens a fresh segment, so one transient i/o error costs exactly
    /// one record, not the replayability of the remaining tail. Only
    /// when that repair *itself* fails is the WAL poisoned (every
    /// further append errors).
    fn append(&mut self, delta: &PortableDelta) -> Result<u64, PersistError> {
        if self.poisoned {
            return Err(PersistError::Layout {
                file: file_name(&self.dir),
                what: "WAL disabled: a torn append could not be repaired",
            });
        }
        let seq = self.next_seq;
        if self.active.is_none() {
            let path = segment_path(&self.dir, seq);
            if path.exists() {
                // Orphaned records from a recovery that halted on
                // corruption — overwriting them would silently destroy
                // fsync-acknowledged data.
                return Err(PersistError::Layout {
                    file: file_name(&path),
                    what: "refusing to overwrite an existing WAL segment",
                });
            }
            let w = FrameWriter::create(&path, WAL_KIND).map_err(|e| frame_err(&path, e))?;
            // The segment file itself must be findable after a crash.
            sync_dir(&self.dir)?;
            self.active = Some((w, path));
        }
        let mut record = Vec::new();
        wire::put_u64(&mut record, seq);
        record.extend_from_slice(&delta.encode());
        let (durable_len, io) = {
            let (w, _) = self.active.as_mut().expect("just ensured active segment");
            let durable_len = w.len();
            let io = w.write_frame(&record).and_then(|()| w.sync());
            (durable_len, io)
        };
        if let Err(e) = io {
            let (w, path) = self.active.take().expect("active segment present");
            let file = file_name(&path);
            // Drop first: the buffered writer flushes on drop and may
            // push the torn frame's bytes to disk; the repair below
            // removes them again. The seq stays unconsumed — the frame
            // is physically gone, so the next record may reuse it.
            drop(w);
            self.repair_segment(&path, durable_len);
            return Err(PersistError::Frame { file, error: e });
        }
        self.next_seq += 1;
        let rotate = self
            .active
            .as_ref()
            .is_some_and(|(w, _)| w.len() >= self.segment_bytes);
        if rotate {
            // Seal and rotate; the next accepted delta opens a fresh
            // segment named by its sequence number.
            let (w, path) = self.active.take().expect("active segment present");
            let sealed_len = w.len();
            if let Err(e) = w.finish() {
                // The record itself is durable; only the trailer may
                // be torn. Truncate it away so the segment reads as a
                // clean unsealed tail (recovery's contiguity rule
                // accepts it once the next segment exists).
                let file = file_name(&path);
                self.repair_segment(&path, sealed_len);
                return Err(PersistError::Frame { file, error: e });
            }
        }
        Ok(seq)
    }

    /// Truncate a possibly-torn segment back to `durable_len` (its
    /// last durable whole-frame boundary), deleting it outright when
    /// no frame ever landed so the path is free for re-creation. On
    /// repair failure the WAL is poisoned.
    fn repair_segment(&mut self, path: &Path, durable_len: u64) {
        let repaired = (|| -> io::Result<()> {
            if durable_len <= WAL_HEADER_LEN {
                fs::remove_file(path)?;
            } else {
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(durable_len)?;
                f.sync_all()?;
            }
            sync_dir(&self.dir)
        })();
        if repaired.is_err() {
            self.poisoned = true;
        }
    }

    /// Delete every segment whose records are all `<= covered_seq`.
    /// A segment is covered iff the *next* segment starts at or below
    /// `covered_seq + 1` (its own records then all precede it); the
    /// active segment is never pruned.
    fn prune_covered(&self, covered_seq: u64) -> io::Result<usize> {
        let segs = segments(&self.dir)?;
        let mut pruned = 0;
        for (i, (first, path)) in segs.iter().enumerate() {
            let next_first = segs.get(i + 1).map(|&(n, _)| n);
            let covered = match next_first {
                Some(n) => n <= covered_seq + 1 && *first <= covered_seq,
                // Last (possibly active) segment: keep.
                None => false,
            };
            if covered {
                fs::remove_file(path)?;
                pruned += 1;
            }
        }
        if pruned > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(pruned)
    }
}

/// The ingestor's durability hook: owns the WAL and the archive
/// cadence. Create one with [`Persistence::create`] and hand it to
/// [`crate::ingest::DeltaIngestor::spawn_with_persistence`].
pub struct Persistence {
    cfg: PersistConfig,
    wal: DeltaWal,
    next_generation: u64,
    publishes_since_archive: u64,
    /// Archives written through this handle.
    archives_written: u64,
}

impl Persistence {
    /// Open (or initialize) a persistence directory. Orphaned temp
    /// files from a crashed archive write are removed; existing
    /// generations and WAL segments are left untouched (recovery reads
    /// them). `base_seq` is the sequence number of the last delta
    /// already durable *outside* the WAL this handle will write — 0
    /// for a fresh store, [`ReplayReport::next_seq`]` - 1` when
    /// resuming after [`recover`].
    pub fn create(cfg: PersistConfig, base_seq: u64) -> Result<Self, PersistError> {
        fs::create_dir_all(&cfg.dir)?;
        for entry in fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".tmp") {
                fs::remove_file(entry.path())?;
            }
        }
        let next_generation = generations(&cfg.dir)?
            .last()
            .map(|&(g, _)| g + 1)
            .unwrap_or(1);
        let wal = DeltaWal {
            dir: cfg.dir.clone(),
            segment_bytes: cfg.segment_bytes.max(1),
            active: None,
            next_seq: base_seq + 1,
            poisoned: false,
        };
        Ok(Self {
            cfg,
            wal,
            next_generation,
            publishes_since_archive: 0,
            archives_written: 0,
        })
    }

    /// Durably log one accepted delta (append + fsync) before it can
    /// reach a publish.
    pub fn record_accepted(&mut self, request: &DeltaRequest) -> Result<u64, PersistError> {
        self.wal.append(request)
    }

    /// Whether the publish cadence calls for an archive now. Counts
    /// the publish; the caller follows up with
    /// [`write_archive`](Self::write_archive) when `true`.
    pub fn archive_due(&mut self) -> bool {
        self.publishes_since_archive += 1;
        self.publishes_since_archive >= self.cfg.archive_every_publishes.max(1)
    }

    /// Write the next archive generation: temp file → two sealed
    /// frames (meta, portable corpus) → fsync → atomic rename →
    /// directory fsync. `snapshot` contributes only its version: the
    /// index itself is re-derived at recovery. On success, generations
    /// beyond `keep_generations` and WAL segments fully covered by the
    /// *oldest retained* generation are pruned — so even if the
    /// newest archive later rots, the older generation still has
    /// every WAL record it needs.
    pub fn write_archive(
        &mut self,
        snapshot: &IndexSnapshot,
        tables: &[PortableTable],
    ) -> Result<u64, PersistError> {
        let generation = self.next_generation;
        let covered_seq = self.wal.next_seq - 1;
        let final_path = archive_path(&self.cfg.dir, generation);
        let tmp_path = final_path.with_extension("msa.tmp");

        let mut meta = Vec::new();
        wire::put_u64(&mut meta, generation);
        wire::put_u64(&mut meta, covered_seq);
        wire::put_u64(&mut meta, snapshot.version());
        let mut corpus_frame = Vec::new();
        wire::put_u32(&mut corpus_frame, tables.len() as u32);
        for t in tables {
            t.encode_into(&mut corpus_frame);
        }

        let write = (|| {
            let mut w = FrameWriter::create(&tmp_path, ARCHIVE_KIND)?;
            w.write_frame(&meta)?;
            w.write_frame(&corpus_frame)?;
            w.finish()
        })();
        if let Err(e) = write {
            let _ = fs::remove_file(&tmp_path);
            return Err(frame_err(&tmp_path, e));
        }
        fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.cfg.dir)?;

        self.next_generation += 1;
        self.publishes_since_archive = 0;
        self.archives_written += 1;

        // Retention: drop generations beyond the keep window, then
        // prune WAL segments the *oldest survivor* no longer needs.
        let gens = generations(&self.cfg.dir)?;
        let keep = self.cfg.keep_generations.max(1);
        if gens.len() > keep {
            for (_, path) in &gens[..gens.len() - keep] {
                fs::remove_file(path)?;
            }
            sync_dir(&self.cfg.dir)?;
        }
        // An unreadable meta frame prunes nothing.
        let oldest_kept = &gens[gens.len().saturating_sub(keep)];
        let oldest_covered = read_meta(&oldest_kept.1).map_or(0, |(m, _)| m.covered_seq);
        self.wal.prune_covered(oldest_covered)?;
        Ok(generation)
    }

    /// Archives written through this handle so far.
    pub fn archives_written(&self) -> u64 {
        self.archives_written
    }
}

/// How the WAL ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// No WAL segments at all (or none past the archive).
    Empty,
    /// The final segment was sealed (rotation landed exactly at the
    /// end).
    Sealed,
    /// The final segment is open (in-progress) but every record in it
    /// is whole.
    Open,
    /// The final segment ended in a torn record, which was truncated
    /// away.
    Torn,
}

/// What [`recover`] did, cell by cell — the observability surface the
/// fault matrix asserts on.
#[derive(Debug)]
pub struct ReplayReport {
    /// Generation of the archive recovery loaded.
    pub generation: u64,
    /// Version the service served when the loaded archive was written.
    pub archive_version: u64,
    /// Archive generations tried before one loaded (1 = newest was
    /// valid).
    pub archives_tried: usize,
    /// The typed failure of each generation that was tried and failed,
    /// newest first.
    pub archive_errors: Vec<(u64, PersistError)>,
    /// WAL segment files scanned.
    pub wal_segments: usize,
    /// Records skipped as already covered by the archive.
    pub wal_skipped: u64,
    /// Records replayed through the apply path.
    pub wal_replayed: u64,
    /// Compaction passes triggered during replay.
    pub replay_compactions: u64,
    /// How the WAL ended.
    pub wal_tail: WalTail,
    /// Bytes removed when truncating a torn final record (0 unless
    /// `wal_tail == Torn`).
    pub torn_truncated_bytes: u64,
    /// A typed corruption that halted replay *mid-WAL* (sealed-segment
    /// rot). State is consistent up to the halt; records past it are
    /// lost and the caller decides whether that is acceptable.
    pub wal_halted: Option<Box<PersistError>>,
    /// Version served after recovery: what the uncrashed service would
    /// serve — `archive_version` when no records replayed, one past it
    /// otherwise (and 1 for a base archive of an unpublished service).
    pub served_version: u64,
    /// Sequence number the next accepted delta should carry — what
    /// [`Persistence::create`] takes as `base_seq + 1`.
    pub next_seq: u64,
    /// Wall-clock milliseconds spent in recovery end to end.
    pub elapsed_ms: f64,
}

/// Everything [`recover`] rebuilds.
pub struct Recovered {
    /// A fresh service already serving the recovered state.
    pub service: Arc<MappingService>,
    /// The replayed session (ready for more deltas or a respawned
    /// ingestor).
    pub session: SynthesisSession,
    /// The rebuilt corpus.
    pub corpus: Corpus,
    /// Stable key → live table id, in lockstep with the corpus.
    pub key_of_table: HashMap<u64, TableId>,
    /// What happened.
    pub report: ReplayReport,
}

/// Recover a serving state from `dir`: newest valid archive (with
/// generation fallback), then WAL tail replay through the shared
/// apply path, then one synthesis of the replayed session, indexed and
/// installed as the served snapshot. See the module docs for
/// the failure policy; the one *repair* performed is physically
/// truncating a torn final WAL record.
pub fn recover(
    dir: &Path,
    config: PipelineConfig,
    resolver: Resolver,
) -> Result<Recovered, PersistError> {
    let started = Instant::now();

    // Phase 1: newest valid archive, falling back generation by
    // generation.
    let gens = generations(dir)?;
    if gens.is_empty() {
        return Err(PersistError::NoArchive);
    }
    let mut archive_errors: Vec<(u64, PersistError)> = Vec::new();
    let mut loaded: Option<LoadedArchive> = None;
    for (gen, path) in gens.iter().rev() {
        match load_archive(path) {
            Ok(a) => {
                loaded = Some(a);
                break;
            }
            Err(e) => archive_errors.push((*gen, e)),
        }
    }
    let Some(archive) = loaded else {
        return Err(PersistError::AllArchivesCorrupt {
            tried: archive_errors.len(),
        });
    };
    let archives_tried = archive_errors.len() + 1;

    // Phase 2: rebuild corpus + session from the archived portable
    // tables.
    let mut corpus = Corpus::new();
    let mut key_of_table: HashMap<u64, TableId> = HashMap::new();
    for t in &archive.tables {
        let d = corpus.domain(&t.domain);
        let columns: Vec<(Option<&str>, Vec<&str>)> = t
            .columns
            .iter()
            .map(|(h, vs)| {
                (
                    h.as_deref(),
                    vs.iter().map(String::as_str).collect::<Vec<&str>>(),
                )
            })
            .collect();
        let tid = corpus.push_table(d, columns);
        key_of_table.insert(t.key, tid);
    }
    let mut session = SynthesisSession::new(config);
    session.prepare(&corpus);

    // Phase 3: replay the WAL tail.
    let covered = archive.meta.covered_seq;
    let mut expected = covered + 1;
    let segs = segments(dir)?;
    let mut wal_skipped = 0u64;
    let mut wal_replayed = 0u64;
    let mut replay_compactions = 0u64;
    let mut wal_tail = WalTail::Empty;
    let mut torn_truncated_bytes = 0u64;
    let mut wal_halted: Option<Box<PersistError>> = None;

    'segments: for (i, (_, path)) in segs.iter().enumerate() {
        let last = i + 1 == segs.len();
        let mut reader = match FrameReader::open(path, WAL_KIND) {
            Ok(r) => r,
            Err(e) => {
                wal_halted = Some(Box::new(frame_err(path, e)));
                break 'segments;
            }
        };
        loop {
            match reader.next_frame() {
                Ok(Some(record)) => {
                    let mut r = WireReader::new(&record);
                    let seq = r.u64().map_err(|e| decode_err(path, e))?;
                    if seq <= covered {
                        wal_skipped += 1;
                        continue;
                    }
                    if seq != expected {
                        return Err(PersistError::WalGap {
                            expected,
                            found: seq,
                        });
                    }
                    let delta = PortableDelta::decode(&record[r.position()..])
                        .map_err(|e| decode_err(path, e))?;
                    apply_request_to(&mut session, &mut corpus, &mut key_of_table, &delta, false)
                        .map_err(|error| PersistError::Replay { seq, error })?;
                    if session.compaction_due() {
                        compact_with_keys(&mut session, &mut corpus, &mut key_of_table);
                        replay_compactions += 1;
                    }
                    expected += 1;
                    wal_replayed += 1;
                }
                Ok(None) => {
                    match reader.tail() {
                        Some(FrameTail::Sealed) => {
                            if last {
                                wal_tail = WalTail::Sealed;
                            }
                        }
                        _ if last => {
                            wal_tail = WalTail::Open;
                            if reader.valid_len() <= WAL_HEADER_LEN {
                                // Header-only tail (crash between
                                // segment creation and the first
                                // record's fsync): delete it, so a
                                // resumed WAL can re-create the path
                                // for the same sequence number.
                                fs::remove_file(path)?;
                                sync_dir(dir)?;
                            }
                        }
                        // An unsealed non-final segment. This is the
                        // normal footprint of a recover→resume cycle:
                        // the pre-crash writer never seals its open
                        // segment, and the resumed WAL starts a fresh
                        // one. Accept it as long as the next segment
                        // begins at or before the record replay
                        // expects next — then nothing can be missing
                        // between the two (a genuine gap among
                        // uncovered records still trips `WalGap`
                        // below). A next segment starting *past*
                        // `expected` means this segment's tail was
                        // lost: halt with the typed cause.
                        _ => {
                            let next_first = segs[i + 1].0;
                            if next_first > expected {
                                wal_halted = Some(Box::new(frame_err(
                                    path,
                                    FrameError::MissingTrailer {
                                        frames: reader.frames_read(),
                                    },
                                )));
                                break 'segments;
                            }
                        }
                    }
                    continue 'segments;
                }
                Err(FrameError::Truncated { offset }) if last => {
                    // The torn-write case recovery repairs: drop the
                    // partial record so the next process appends from
                    // a whole-frame boundary.
                    let file_len = fs::metadata(path)?.len();
                    torn_truncated_bytes = file_len.saturating_sub(offset);
                    if offset <= WAL_HEADER_LEN {
                        // No whole record survived: drop the segment
                        // entirely so a resumed WAL can re-create the
                        // path.
                        fs::remove_file(path)?;
                    } else {
                        // The truncation itself must be durable before
                        // the directory barrier, or a crash here could
                        // resurrect the torn tail.
                        let f = OpenOptions::new().write(true).open(path)?;
                        f.set_len(offset)?;
                        f.sync_all()?;
                    }
                    sync_dir(dir)?;
                    wal_tail = WalTail::Torn;
                    break 'segments;
                }
                Err(e) => {
                    // Corruption inside a sealed segment (or a non-torn
                    // failure in the last): halt replay with the typed
                    // cause; state is consistent up to here.
                    wal_halted = Some(Box::new(frame_err(path, e)));
                    break 'segments;
                }
            }
        }
    }

    // Phase 4: derive the served snapshot from the replayed session,
    // stamped with the version the uncrashed service serves: the
    // archive's when nothing replayed, the next one after a replay (the
    // tail publish) or over a base archive of a never-published service.
    let archive_version = archive.meta.version;
    let synthesis = session.config().synthesis;
    let run = session.synthesize(&synthesis, resolver);
    let mut snapshot = SnapshotBuilder::from_synthesized(&run.mappings).build();
    snapshot.version = if wal_replayed > 0 || archive_version == 0 {
        archive_version + 1
    } else {
        archive_version
    };
    let service = Arc::new(MappingService::new());
    service.restore(snapshot);

    let report = ReplayReport {
        generation: archive.meta.generation,
        archive_version,
        archives_tried,
        archive_errors,
        wal_segments: segs.len(),
        wal_skipped,
        wal_replayed,
        replay_compactions,
        wal_tail,
        torn_truncated_bytes,
        wal_halted,
        served_version: service.version(),
        next_seq: expected,
        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
    };
    Ok(Recovered {
        service,
        session,
        corpus,
        key_of_table,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{DeltaIngestor, IngestorConfig, NoFaults, TableSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mapsynth-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn country_table(key: u64, rows: &[(&str, &str)]) -> TableSpec {
        TableSpec {
            key,
            domain: format!("d{}.example.org", key % 3),
            columns: vec![
                (
                    Some("country".into()),
                    rows.iter().map(|(c, _)| c.to_string()).collect(),
                ),
                (
                    Some("code".into()),
                    rows.iter().map(|(_, c)| c.to_string()).collect(),
                ),
            ],
        }
    }

    const ROWS: &[(&str, &str)] = &[
        ("United States", "USA"),
        ("Canada", "CAN"),
        ("Japan", "JPN"),
        ("Germany", "DEU"),
        ("France", "FRA"),
    ];

    fn base_state() -> (SynthesisSession, Corpus, Vec<u64>) {
        let mut corpus = Corpus::new();
        let mut keys = Vec::new();
        for k in 0..4u64 {
            let spec = country_table(100 + k, ROWS);
            let d = corpus.domain(&spec.domain);
            let columns: Vec<(Option<&str>, Vec<&str>)> = spec
                .columns
                .iter()
                .map(|(h, vs)| (h.as_deref(), vs.iter().map(String::as_str).collect()))
                .collect();
            corpus.push_table(d, columns);
            keys.push(100 + k);
        }
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);
        (session, corpus, keys)
    }

    fn fast_cfg() -> IngestorConfig {
        IngestorConfig {
            queue_depth: 8,
            publish_every: 2,
            resolver: Resolver::Algorithm4,
            quarantine_cap: 64,
        }
    }

    #[test]
    fn persistent_stream_recovers_identically() {
        let dir = tmp_dir("roundtrip");
        let (session, corpus, keys) = base_state();
        let service = Arc::new(MappingService::new());
        let mut pcfg = PersistConfig::new(&dir);
        pcfg.segment_bytes = 512; // force rotation
        pcfg.archive_every_publishes = 2;
        let persistence = Persistence::create(pcfg, 0).unwrap();
        let ing = DeltaIngestor::spawn_with_persistence(
            session,
            corpus,
            &keys,
            Arc::clone(&service),
            fast_cfg(),
            Box::new(NoFaults),
            Some(persistence),
        )
        .expect("spawn");
        for k in 0..6u64 {
            ing.submit(DeltaRequest {
                add: vec![country_table(200 + k, ROWS)],
                remove: if k >= 4 { vec![200 + k - 4] } else { vec![] },
                patches: vec![],
            });
        }
        let outcome = ing.shutdown();
        assert_eq!(outcome.stats.accepted, 6);
        assert_eq!(outcome.stats.wal_records, 6);
        assert_eq!(outcome.stats.persist_errors, 0);

        let recovered = recover(&dir, PipelineConfig::default(), Resolver::Algorithm4)
            .expect("recovery succeeds");
        let r = &recovered.report;
        assert!(r.wal_halted.is_none(), "no corruption: {:?}", r.wal_halted);
        assert!(r.archive_errors.is_empty(), "no generation failed to load");
        // The recovered live key set matches the uncrashed worker's.
        let mut live_a: Vec<u64> = outcome.key_of_table.keys().copied().collect();
        let mut live_b: Vec<u64> = recovered.key_of_table.keys().copied().collect();
        live_a.sort_unstable();
        live_b.sort_unstable();
        assert_eq!(live_a, live_b);
        // Served lookups agree between the uncrashed service and the
        // recovered one.
        let snap_a = service.snapshot();
        let snap_b = recovered.service.snapshot();
        for probe in ["United States", "USA", "Japan", "not-there"] {
            let a = snap_a.lookup(probe).map(|h| h.mappings().len());
            let b = snap_b.lookup(probe).map(|h| h.mappings().len());
            assert_eq!(a, b, "lookup {probe} diverged");
        }
        assert!(r.served_version >= r.archive_version);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A fresh append must never `File::create` over an existing
    /// segment: after a halted recovery the path can hold orphaned
    /// fsync-acknowledged records, and truncating them would be silent
    /// permanent loss. The WAL refuses with a typed error instead.
    #[test]
    fn wal_refuses_to_overwrite_an_existing_segment() {
        let dir = tmp_dir("clobber");
        let orphan = segment_path(&dir, 1);
        fs::write(&orphan, b"orphaned records").unwrap();
        let mut wal = DeltaWal {
            dir: dir.clone(),
            segment_bytes: u64::MAX,
            active: None,
            next_seq: 1,
            poisoned: false,
        };
        let err = wal.append(&PortableDelta::default()).unwrap_err();
        assert!(
            matches!(err, PersistError::Layout { .. }),
            "expected a typed refusal, got {err}"
        );
        assert_eq!(
            fs::read(&orphan).unwrap(),
            b"orphaned records",
            "the existing segment must be untouched"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_is_a_typed_error() {
        let dir = tmp_dir("empty");
        assert!(matches!(
            recover(&dir, PipelineConfig::default(), Resolver::Algorithm4),
            Err(PersistError::NoArchive)
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
