//! Incremental corpus deltas — re-enter the staged pipeline at
//! blocking instead of re-running the world.
//!
//! A [`SynthesisSession`] caches three expensive stage artifacts;
//! [`SynthesisSession::apply_delta`] advances all of them under a
//! [`CorpusDelta`] (tables appended to the corpus + live tables
//! removed + row-granular [`RowPatch`]es to surviving tables) so that
//! every variant derived afterwards —
//! [`SynthesisSession::synthesize`], `graph`, `weights_for` — is
//! **bit-identical** to what a fresh session on the post-delta corpus
//! would produce, at a fraction of the cost:
//!
//! | Stage | Delta work |
//! |---|---|
//! | 1. Extraction | old columns re-scored *arithmetically* from cached co-occurrence counts ([`mapsynth_extract::ExtractionCache`]); FD/structural filters never re-run for unchanged tables; row-patched tables patch the value index per changed column and re-extract only themselves |
//! | 2. Value space | interning extended **append-only** ([`crate::values::grow_value_space`]); removed tables tombstoned, never renumbered; row-patched candidates re-project in place, keeping their stage-2 position |
//! | 3a. Blocking | posting lists + pair counts patched for touched keys only ([`crate::blocking::BlockingIndex`]) |
//! | 3b. Approx memo | the fresh build's filtered enumeration (length window → signature prefilters → edit-distance kernel), restricted to newly queryable pairs ([`crate::approx::ApproxMemo::extend`]); `ValueSpace` signatures extend append-only with the interning |
//! | 3c. Match counts | merge-join recomputed only for pairs whose support changed (including every pair touching a row-patched table); surviving pairs keep their cached [`crate::compat::MatchCounts`] verbatim |
//! | 4. Variant tail | unchanged — runs over the patched artifacts |
//!
//! # Why bit-identity holds
//!
//! The incremental path keeps old [`crate::values::NormId`]s and table
//! positions (tombstones, not renumbering) while a fresh session
//! renumbers everything, so equality is only possible because nothing
//! in scoring depends on the *numbering*: canonical pair orientation
//! ties break on a content hash, residual conflicts record class
//! *sets*, majority-vote ties break on strings, and every downstream
//! tie-break (hub sampling, partition heap) depends only on the
//! *relative* order of live tables — which tombstoning preserves.
//! The one operation that genuinely reorders tables relative to a
//! fresh run — an *old* table gaining a candidate because a borderline
//! column crossed the coherence threshold (routine for additive
//! deltas: growing the corpus shifts every NPMI via `N`) — is detected
//! by the extraction cache and answered with the **renumber path**
//! (`reordered` in the report): candidate ids and table positions are
//! rebuilt in fresh order, but the value space, the approximate-match
//! memo and every surviving pair's match counts are still carried
//! over, so even that path skips all edit-distance DP and most of the
//! merge-join.
//!
//! ```
//! use mapsynth::delta::CorpusDelta;
//! use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
//! use mapsynth_corpus::{Corpus, RowPatch};
//!
//! let mut corpus = Corpus::new();
//! let d = corpus.domain("example.com");
//! for _ in 0..4 {
//!     corpus.push_table(d, vec![
//!         (Some("name"), vec!["United States", "Canada", "Japan", "Germany", "France"]),
//!         (Some("code"), vec!["USA", "CAN", "JPN", "DEU", "FRA"]),
//!     ]);
//! }
//! let mut session = SynthesisSession::new(PipelineConfig::default());
//! session.prepare(&corpus);
//!
//! // Corpus evolves: one table retired, one appended, one edited in
//! // place (rows change, the table id does not). Row patches are
//! // applied to the corpus *first*, then named in the delta.
//! let removed = vec![corpus.tables[1].id];
//! let added = vec![corpus.push_table(d, vec![
//!     (Some("name"), vec!["United States", "Canada", "Japan", "Germany", "France"]),
//!     (Some("code"), vec!["USA", "CAN", "JPN", "DEU", "FRA"]),
//! ])];
//! let patch = RowPatch {
//!     table: corpus.tables[0].id,
//!     deleted: vec![],
//!     inserted: vec![vec!["Italy".to_string(), "ITA".to_string()]],
//! };
//! corpus.apply_row_patch(&patch);
//! let delta = CorpusDelta { added, removed, patches: vec![patch] };
//! let report = session.apply_delta(&corpus, &delta).expect("valid delta");
//! assert_eq!(report.tables_added, 1);
//! assert_eq!(report.tables_patched, 1);
//!
//! // Derived variants now reflect the post-delta corpus.
//! let run = session.synthesize(&session.config().synthesis.clone(), Resolver::Algorithm4);
//! assert!(!run.mappings.is_empty());
//! ```

use crate::blocking::BlockingIndex;
use crate::session::SynthesisSession;
use crate::values::{
    grow_value_space, project_candidate_at, project_candidates, NormBinary, ValueInterning,
};
use mapsynth_corpus::{BinaryTable, Corpus, RowPatch, TableId};
use mapsynth_extract::ExtractionCache;
use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One batch of corpus evolution: tables appended to the corpus since
/// the session last saw it, live tables to retire, and row-granular
/// edits to tables that survive.
///
/// The corpus itself is append-only at table granularity — callers push
/// the new tables into the *same* [`Corpus`] the session was prepared
/// on and name them here; removal is logical (the session tombstones
/// every trace of the table). Row patches mutate the corpus in place:
/// callers apply each patch via [`Corpus::apply_row_patch`] **before**
/// handing the delta to [`SynthesisSession::apply_delta`], which uses
/// the patch lists to reconstruct the pre-patch state arithmetically.
/// [`CorpusDelta::post_corpus`] materializes the reference semantics
/// for oracles and benchmarks.
#[derive(Clone, Debug, Default)]
pub struct CorpusDelta {
    /// Ids of tables appended to the corpus, in push order. Must be
    /// exactly the tables past the session's last-seen corpus length.
    pub added: Vec<TableId>,
    /// Ids of live tables to remove.
    pub removed: Vec<TableId>,
    /// Row-granular edits, already applied to the corpus via
    /// [`Corpus::apply_row_patch`]. At most one patch per table per
    /// delta; a patched table must be live and may not also appear in
    /// `added` or `removed`.
    pub patches: Vec<RowPatch>,
}

impl CorpusDelta {
    /// A fresh corpus equal to `corpus` with this delta's removed
    /// tables gone (added tables are assumed already pushed): the
    /// corpus a batch run would see. Tables are re-interned and
    /// renumbered densely — see [`Corpus::subset`].
    pub fn post_corpus(&self, corpus: &Corpus) -> Corpus {
        let removed: HashSet<TableId> = self.removed.iter().copied().collect();
        corpus.subset(|tid| !removed.contains(&tid))
    }

    /// Full id-level validation of this delta against a live mask over
    /// the corpus as it stood before the delta (`alive[t]`: table `t`
    /// is live; `alive.len()` is the pre-delta table count) and the
    /// post-delta `corpus` (added tables pushed, row patches applied).
    /// Pure: nothing is touched. [`SynthesisSession::apply_delta`]
    /// runs it against the session's own mask, and corpus-only replay
    /// (`mapsynth-serve`'s recovery) against the mask it keeps, so both
    /// accept and reject exactly the same deltas.
    pub fn validate(&self, corpus: &Corpus, alive: &[bool]) -> Result<(), DeltaError> {
        let old_len = alive.len();
        let mut seen = HashSet::new();
        for &tid in &self.removed {
            if (tid.0 as usize) >= old_len {
                return Err(DeltaError::UnknownTable { id: tid });
            }
            if !alive[tid.0 as usize] {
                return Err(DeltaError::RemovedTableNotLive { id: tid });
            }
            if !seen.insert(tid) {
                return Err(DeltaError::DuplicateRemoval { id: tid });
            }
        }
        if corpus.len() != old_len + self.added.len() {
            return Err(DeltaError::FingerprintMismatch {
                expected: old_len + self.added.len(),
                got: corpus.len(),
            });
        }
        for (k, &tid) in self.added.iter().enumerate() {
            if tid.0 as usize != old_len + k {
                return Err(DeltaError::AddedIdOutOfOrder {
                    id: tid,
                    expected: (old_len + k) as u32,
                });
            }
        }
        let mut patched = HashSet::new();
        for p in &self.patches {
            let tid = p.table;
            if (tid.0 as usize) >= old_len {
                return Err(DeltaError::UnknownTable { id: tid });
            }
            if !alive[tid.0 as usize] {
                return Err(DeltaError::PatchToRemovedTable { id: tid });
            }
            if seen.contains(&tid) {
                return Err(DeltaError::PatchAndRemoveSameDelta { id: tid });
            }
            if !patched.insert(tid) {
                return Err(DeltaError::DuplicatePatch { id: tid });
            }
            if p.deleted.is_empty() && p.inserted.is_empty() {
                return Err(DeltaError::EmptyPatch { id: tid });
            }
            let expected = corpus.tables[tid.0 as usize].width();
            for row in p.deleted.iter().chain(&p.inserted) {
                if row.len() != expected {
                    return Err(DeltaError::ContradictoryPatch {
                        id: tid,
                        width: row.len(),
                        expected,
                    });
                }
            }
        }
        Ok(())
    }

    /// Advance a live mask past this (validated) delta: added tables
    /// join live, removed ones die.
    pub fn advance_live_mask(&self, alive: &mut Vec<bool>) {
        alive.resize(alive.len() + self.added.len(), true);
        for &tid in &self.removed {
            alive[tid.0 as usize] = false;
        }
    }
}

/// Wall-clock breakdown of one [`SynthesisSession::apply_delta`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaTimings {
    /// Incremental extraction: index patch + coherence re-scores +
    /// added-table extraction (plus candidate renumbering when
    /// `reordered`).
    pub extraction: Duration,
    /// Value-space extension + tombstoning.
    pub values: Duration,
    /// Blocking index patch + pair re-derivation.
    pub blocking: Duration,
    /// Context/memo growth + merge-join over changed pairs.
    pub scoring: Duration,
    /// End-to-end.
    pub total: Duration,
}

/// What one delta did to the session's artifacts.
#[derive(Clone, Debug, Default)]
pub struct DeltaReport {
    /// The delta hit a coherence-gain or projection-gain case (an old
    /// table gained a candidate, or a row-patched candidate that had
    /// been dropped below two usable pairs resurfaced) and was
    /// answered with the renumber path: candidate ids and table
    /// positions were rebuilt in fresh order, reusing the value space,
    /// the approximate-match memo and surviving match counts. Output
    /// is exactly the post-delta result either way, and the candidate
    /// counters below keep the same unified semantics on both paths.
    pub reordered: bool,
    /// Tables added / removed by the delta.
    pub tables_added: usize,
    /// Tables removed by the delta.
    pub tables_removed: usize,
    /// Tables edited in place by row patches.
    pub tables_patched: usize,
    /// Live candidate binary tables that exist after the delta but not
    /// before it — the same definition on the in-place and renumber
    /// paths, so `live_after = live_before + candidates_added -
    /// candidates_tombstoned` always holds.
    pub candidates_added: usize,
    /// Live candidates before the delta that are gone after it.
    pub candidates_tombstoned: usize,
    /// Live candidates surviving the delta with changed content (row
    /// patches): same extraction slot, new rows. Counted in neither
    /// `candidates_added` nor `candidates_tombstoned`.
    pub candidates_replaced: usize,
    /// Values newly interned into the space.
    pub new_values: usize,
    /// Old columns whose coherence verdict flipped.
    pub coherence_flips: usize,
    /// Blocked pairs surviving with their cached counts.
    pub pairs_kept: usize,
    /// Blocked pairs scored fresh (new tables, or old pairs surfaced
    /// by a hub-sample shift).
    pub pairs_added: usize,
    /// Blocked pairs dropped.
    pub pairs_removed: usize,
    /// Edit-distance kernel calls spent growing the approximate-match
    /// memo (candidates the signature prefilters could not reject).
    pub memo_dp_calls: usize,
    /// Cost breakdown.
    pub timings: DeltaTimings,
}

/// Why [`SynthesisSession::apply_delta`] rejected a [`CorpusDelta`].
///
/// Every rejection is **transactional**: the session is byte-identical
/// to its pre-apply state afterwards and keeps accepting deltas.
/// Malformed deltas (everything but [`ApplyPanicked`]) are caught by
/// upfront validation before any artifact is touched;
/// [`ApplyPanicked`] additionally contains a panic that escaped
/// mid-mutation — the session is restored from a pre-apply backup.
///
/// [`ApplyPanicked`]: DeltaError::ApplyPanicked
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// `apply_delta` was called on an unprepared session.
    NotPrepared,
    /// The corpus handed in does not hold exactly the delta's added
    /// tables appended to the corpus the session last saw — the
    /// session's fingerprint of the prepared corpus does not extend to
    /// this one.
    FingerprintMismatch {
        /// Tables the session expected (`last seen + added`).
        expected: usize,
        /// Tables the corpus actually holds.
        got: usize,
    },
    /// `delta.added` ids do not name the appended tables in push order.
    AddedIdOutOfOrder {
        /// The offending id.
        id: TableId,
        /// The id that position must carry.
        expected: u32,
    },
    /// A removed or patched table id past everything this session has
    /// ever seen.
    UnknownTable {
        /// The offending id.
        id: TableId,
    },
    /// `delta.removed` names a table a previous delta already removed.
    RemovedTableNotLive {
        /// The offending id.
        id: TableId,
    },
    /// The same table appears twice in `delta.removed`.
    DuplicateRemoval {
        /// The offending id.
        id: TableId,
    },
    /// A row patch targets a table that is not live (removed by a
    /// previous delta).
    PatchToRemovedTable {
        /// The offending id.
        id: TableId,
    },
    /// The same table is both patched and removed within one delta.
    PatchAndRemoveSameDelta {
        /// The offending id.
        id: TableId,
    },
    /// The same table is patched twice within one delta.
    DuplicatePatch {
        /// The offending id.
        id: TableId,
    },
    /// A row patch with neither deleted nor inserted rows: it cannot
    /// describe an edit, so it is rejected rather than silently
    /// re-scoring an unchanged table.
    EmptyPatch {
        /// The targeted table.
        id: TableId,
    },
    /// A row patch whose tuples contradict the shape of the table they
    /// claim to edit (wrong tuple width).
    ContradictoryPatch {
        /// The targeted table.
        id: TableId,
        /// The tuple width found in the patch.
        width: usize,
        /// The table's actual width.
        expected: usize,
    },
    /// The apply panicked mid-mutation (an internal invariant broke,
    /// or an induced fault fired). The panic was contained and the
    /// session restored byte-identical from its pre-apply backup.
    ApplyPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::NotPrepared => write!(f, "prepare() before apply_delta()"),
            DeltaError::FingerprintMismatch { expected, got } => write!(
                f,
                "corpus must hold exactly the delta's added tables appended to \
                 the prepared corpus (expected {expected} tables, got {got})"
            ),
            DeltaError::AddedIdOutOfOrder { id, expected } => write!(
                f,
                "added ids must name the appended tables in push order \
                 ({id:?} where TableId({expected}) was expected)"
            ),
            DeltaError::UnknownTable { id } => {
                write!(f, "table {id:?} unknown to this session")
            }
            DeltaError::RemovedTableNotLive { id } => {
                write!(f, "removed table {id:?} is not live")
            }
            DeltaError::DuplicateRemoval { id } => {
                write!(f, "table {id:?} removed twice in one delta")
            }
            DeltaError::PatchToRemovedTable { id } => {
                write!(f, "patched table {id:?} is not live")
            }
            DeltaError::PatchAndRemoveSameDelta { id } => {
                write!(f, "table {id:?} both patched and removed in one delta")
            }
            DeltaError::DuplicatePatch { id } => {
                write!(f, "table {id:?} patched twice in one delta")
            }
            DeltaError::EmptyPatch { id } => {
                write!(
                    f,
                    "patch to table {id:?} has neither deleted nor inserted rows"
                )
            }
            DeltaError::ContradictoryPatch {
                id,
                width,
                expected,
            } => write!(
                f,
                "patch to table {id:?} carries width-{width} tuples, table is width {expected}"
            ),
            DeltaError::ApplyPanicked { message } => {
                write!(
                    f,
                    "apply panicked mid-mutation (session restored): {message}"
                )
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Deterministic fault injection for crash-containment testing.
///
/// [`arm_induced_panic`](fault::arm_induced_panic) primes the
/// **current thread** so the next
/// [`SynthesisSession::apply_delta`] on it panics *after* the stage-1
/// extraction-cache mutation — past validation, in the middle of the
/// mutating section — exercising the backup/restore guard exactly
/// where a real invariant break would strike. The flag is one-shot:
/// it is consumed when it fires (and cleared defensively whenever an
/// apply is contained), so a harness arms it per sabotaged delta.
pub mod fault {
    use std::cell::Cell;

    thread_local! {
        static ARMED: Cell<bool> = const { Cell::new(false) };
    }

    /// Message carried by an induced panic, matched by harnesses.
    pub const INDUCED_PANIC_MESSAGE: &str = "induced apply fault (fault-injection harness)";

    /// Arm the current thread: the next `apply_delta` on it panics
    /// mid-mutation and must be contained + rolled back.
    pub fn arm_induced_panic() {
        ARMED.with(|a| a.set(true));
    }

    /// Clear the flag, returning whether it was armed.
    pub fn disarm() -> bool {
        ARMED.with(|a| a.replace(false))
    }

    /// Internal fire point, placed after the first artifact mutation.
    pub(crate) fn fire_if_armed() {
        if ARMED.with(|a| a.replace(false)) {
            panic!("{}", INDUCED_PANIC_MESSAGE);
        }
    }
}

/// A table in portable (content, not id) form: everything needed to
/// re-push it into any corpus. The serving layer's key-addressed
/// request types are aliases of these; they live here so the durable
/// formats (delta WAL records, snapshot archives) can be decoded
/// without the serving crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortableTable {
    /// Caller-chosen stable identity (survives compaction renumbering).
    pub key: u64,
    /// Provenance domain name.
    pub domain: String,
    /// Columns as `(header, values)`.
    pub columns: Vec<(Option<String>, Vec<String>)>,
}

/// A row patch in portable form, addressed by stable table key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortablePatch {
    /// Key of the table to edit.
    pub key: u64,
    /// Full-width tuples to delete.
    pub deleted: Vec<Vec<String>>,
    /// Full-width tuples to append.
    pub inserted: Vec<Vec<String>>,
}

/// A self-contained, replayable corpus delta. [`CorpusDelta`] names
/// added tables by [`TableId`] — meaningful only against the corpus
/// instance it was built for — so it cannot be written to a log and
/// replayed after a crash. `PortableDelta` carries the added tables'
/// *content* and addresses removals/patches by stable key, making a
/// WAL record sufficient on its own: recovery re-pushes the tables
/// into the rebuilt corpus and resolves keys there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PortableDelta {
    /// Tables to append, in order.
    pub add: Vec<PortableTable>,
    /// Keys of live tables to remove.
    pub remove: Vec<u64>,
    /// Row patches to live tables.
    pub patches: Vec<PortablePatch>,
}

mod portable_wire {
    //! Byte encoding of [`PortableDelta`](super::PortableDelta) for
    //! WAL records and archive frames, over the corpus crate's wire
    //! helpers. Integrity is the framing layer's job (CRC32 per
    //! frame); this layer still decodes defensively with typed
    //! [`WireError`]s — a decoder must never panic on bytes it did
    //! not write.

    use super::{PortableDelta, PortablePatch, PortableTable};
    use mapsynth_corpus::wire::{put_str, put_u32, put_u64, put_u8, WireError, WireReader};

    fn put_rows(buf: &mut Vec<u8>, rows: &[Vec<String>]) {
        put_u32(buf, rows.len() as u32);
        for row in rows {
            put_u32(buf, row.len() as u32);
            for cell in row {
                put_str(buf, cell);
            }
        }
    }

    fn read_rows(r: &mut WireReader<'_>) -> Result<Vec<Vec<String>>, WireError> {
        let n = r.u32()? as usize;
        let mut rows = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let w = r.u32()? as usize;
            let mut row = Vec::with_capacity(w.min(1 << 16));
            for _ in 0..w {
                row.push(r.str()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }

    pub(super) fn encode(delta: &PortableDelta) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, delta.add.len() as u32);
        for t in &delta.add {
            t.encode_into(&mut buf);
        }
        put_u32(&mut buf, delta.remove.len() as u32);
        for k in &delta.remove {
            put_u64(&mut buf, *k);
        }
        put_u32(&mut buf, delta.patches.len() as u32);
        for p in &delta.patches {
            put_u64(&mut buf, p.key);
            put_rows(&mut buf, &p.deleted);
            put_rows(&mut buf, &p.inserted);
        }
        // Tag byte reserved for future extension of the record shape;
        // 0 = nothing follows.
        put_u8(&mut buf, 0);
        buf
    }

    pub(super) fn decode(bytes: &[u8]) -> Result<PortableDelta, WireError> {
        let mut r = WireReader::new(bytes);
        let n_add = r.u32()? as usize;
        let mut add = Vec::with_capacity(n_add.min(1 << 16));
        for _ in 0..n_add {
            add.push(PortableTable::decode_from(&mut r)?);
        }
        let n_rm = r.u32()? as usize;
        let mut remove = Vec::with_capacity(n_rm.min(1 << 16));
        for _ in 0..n_rm {
            remove.push(r.u64()?);
        }
        let n_patch = r.u32()? as usize;
        let mut patches = Vec::with_capacity(n_patch.min(1 << 16));
        for _ in 0..n_patch {
            let key = r.u64()?;
            let deleted = read_rows(&mut r)?;
            let inserted = read_rows(&mut r)?;
            patches.push(PortablePatch {
                key,
                deleted,
                inserted,
            });
        }
        match r.u8()? {
            0 => {}
            found => {
                return Err(WireError::BadTag {
                    at: r.position() - 1,
                    found,
                })
            }
        }
        r.finish()?;
        Ok(PortableDelta {
            add,
            remove,
            patches,
        })
    }
}

impl PortableDelta {
    /// Serialize to the durable wire format (a WAL record's payload).
    pub fn encode(&self) -> Vec<u8> {
        portable_wire::encode(self)
    }

    /// Decode a record produced by [`encode`](Self::encode), with
    /// typed errors on malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, mapsynth_corpus::wire::WireError> {
        portable_wire::decode(bytes)
    }
}

impl PortableTable {
    /// Serialize one table onto `buf` (an archive's corpus frame is a
    /// length-prefixed sequence of these).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        use mapsynth_corpus::wire::{put_opt_str, put_str, put_u32, put_u64};
        put_u64(buf, self.key);
        put_str(buf, &self.domain);
        put_u32(buf, self.columns.len() as u32);
        for (header, values) in &self.columns {
            put_opt_str(buf, header.as_deref());
            put_u32(buf, values.len() as u32);
            for v in values {
                put_str(buf, v);
            }
        }
    }

    /// Decode one table from the cursor position.
    pub fn decode_from(
        r: &mut mapsynth_corpus::wire::WireReader<'_>,
    ) -> Result<Self, mapsynth_corpus::wire::WireError> {
        let key = r.u64()?;
        let domain = r.str()?;
        let n_cols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols.min(1 << 16));
        for _ in 0..n_cols {
            let header = r.opt_str()?;
            let n_vals = r.u32()? as usize;
            let mut values = Vec::with_capacity(n_vals.min(1 << 16));
            for _ in 0..n_vals {
                values.push(r.str()?);
            }
            columns.push((header, values));
        }
        Ok(Self {
            key,
            domain,
            columns,
        })
    }
}

/// Everything [`SynthesisSession::apply_delta`] needs beyond the stage
/// artifacts themselves. Built during `prepare`, advanced per delta.
#[derive(Clone)]
pub(crate) struct IncrementalState {
    pub(crate) extraction_cache: ExtractionCache,
    pub(crate) interning: ValueInterning,
    pub(crate) blocking: BlockingIndex,
    /// Candidate index → position in the stage-2 tables slice (`None`:
    /// dropped below two usable pairs, or tombstoned).
    pub(crate) pos_of_candidate: Vec<Option<u32>>,
    /// Tombstone mask over the stage-2 tables slice.
    pub(crate) dead: Vec<bool>,
    /// Live mask over corpus table ids.
    pub(crate) alive_tables: Vec<bool>,
}

/// Candidate index → stage-2 position, for the `n_candidates`
/// candidates `tables` was projected from (`None`: projected out).
pub(crate) fn positions_of_candidates(
    n_candidates: usize,
    tables: &[NormBinary],
) -> Vec<Option<u32>> {
    let mut pos_of_candidate = vec![None; n_candidates];
    for (pos, t) in tables.iter().enumerate() {
        pos_of_candidate[t.idx as usize] = Some(pos as u32);
    }
    pos_of_candidate
}

/// Dense renumbering of the live entries of a mask: each live
/// position's rank among the live ones (monotone), `None` for the rest.
pub(crate) fn dense_renumber(live: impl IntoIterator<Item = bool>) -> Vec<Option<u32>> {
    let mut next = 0u32;
    live.into_iter()
        .map(|l| {
            l.then(|| {
                next += 1;
                next - 1
            })
        })
        .collect()
}

impl SynthesisSession {
    /// The post-delta reference corpus for this session: `corpus`
    /// restricted to the tables still live after every delta applied
    /// so far. A fresh session prepared on this corpus is the oracle
    /// the incremental path is tested against.
    pub fn live_corpus(&self, corpus: &Corpus) -> Corpus {
        match &self.incr {
            Some(incr) => corpus.subset(|tid| incr.alive_tables[tid.0 as usize]),
            None => corpus.subset(|_| true),
        }
    }

    /// Advance the prepared session by one [`CorpusDelta`], re-entering
    /// the staged pipeline at blocking. Afterwards every derived
    /// variant is bit-identical to a fresh session on
    /// [`live_corpus`](Self::live_corpus) (see the module docs for the
    /// invariance argument). Deterministic for any worker count.
    ///
    /// The apply is **all-or-nothing**: a malformed delta is rejected
    /// by upfront validation before any artifact is touched, and a
    /// panic escaping the mutating section is contained
    /// (`catch_unwind`) with the session restored from a pre-apply
    /// backup — either way [`Err`] leaves the session byte-identical
    /// to its pre-apply state and ready for the next delta. The corpus
    /// is the caller's to roll back (appended tables and applied row
    /// patches; see `mapsynth-serve`'s `DeltaIngestor` for the
    /// transactional driver).
    pub fn apply_delta(
        &mut self,
        corpus: &Corpus,
        delta: &CorpusDelta,
    ) -> Result<DeltaReport, DeltaError> {
        // Upfront validation — no artifact is touched. `Ok` means the
        // mutating path cannot reject the delta (only an internal
        // invariant break — contained below — could still fail it).
        let (Some(incr), Some(_)) = (&self.incr, &self.scores) else {
            return Err(DeltaError::NotPrepared);
        };
        delta.validate(corpus, &incr.alive_tables)?;
        let backup = SessionBackup {
            extraction: self.extraction.clone(),
            values: self.values.clone(),
            scores: self.scores.clone(),
            incr: self.incr.clone(),
            fingerprint: self.corpus_fingerprint,
        };
        match catch_unwind(AssertUnwindSafe(|| {
            self.apply_delta_unchecked(corpus, delta)
        })) {
            Ok(report) => Ok(report),
            Err(payload) => {
                // A panic before the fire point leaves the arm set for
                // the next (innocent) apply — always clear it.
                fault::disarm();
                self.extraction = backup.extraction;
                self.values = backup.values;
                self.scores = backup.scores;
                self.incr = backup.incr;
                self.corpus_fingerprint = backup.fingerprint;
                Err(DeltaError::ApplyPanicked {
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }

    /// The mutating section: everything past validation. Runs under
    /// `catch_unwind` with a full artifact backup held by the caller,
    /// so internal invariant breaks surface as
    /// [`DeltaError::ApplyPanicked`] instead of corrupting the
    /// session.
    fn apply_delta_unchecked(&mut self, corpus: &Corpus, delta: &CorpusDelta) -> DeltaReport {
        let t_total = Instant::now();
        let mut report = DeltaReport {
            tables_added: delta.added.len(),
            tables_removed: delta.removed.len(),
            tables_patched: delta.patches.len(),
            ..Default::default()
        };
        delta.advance_live_mask(&mut self.incr.as_mut().unwrap().alive_tables);

        // Stage 1 — incremental extraction.
        let live_before = self
            .incr
            .as_ref()
            .unwrap()
            .extraction_cache
            .live_candidates();
        let t = Instant::now();
        let ex = {
            let incr = self.incr.as_mut().unwrap();
            incr.extraction_cache.apply_delta(
                corpus,
                &delta.added,
                &delta.removed,
                &delta.patches,
                &self.cfg.extraction,
                &self.mr,
            )
        };
        report.timings.extraction = t.elapsed();
        report.coherence_flips = ex.coherence_flips;
        // Past the first artifact mutation: an induced fault striking
        // here proves the extraction cache rolls back with the rest.
        fault::fire_if_armed();

        if ex.reordered {
            // The extraction cache has already sentineled any
            // row-patched survivors, so the rebuilt candidate list
            // assigns them fresh ids.
            self.apply_delta_reordered(corpus, &mut report, live_before, ex.replaced.len());
            self.corpus_fingerprint = Some((corpus.len(), corpus.total_columns() as u64));
            report.timings.total = t_total.elapsed();
            return report;
        }
        report.candidates_added = ex.added.len();
        report.candidates_tombstoned = ex.tombstoned.len();
        report.candidates_replaced = ex.replaced.len();

        // Stage 2 — append-only value-space growth, in-place
        // re-projection of row-patched candidates, tombstoning.
        let t = Instant::now();
        let idx_base = self.extraction.as_ref().unwrap().candidates.len() as u32;
        debug_assert!(ex
            .added
            .iter()
            .enumerate()
            .all(|(k, c)| c.id.0 as usize == idx_base as usize + k));
        let (grown_space, replaced_proj, added_proj) = {
            let incr = self.incr.as_mut().unwrap();
            let values = self.values.as_ref().unwrap();
            let mut to_intern: Vec<BinaryTable> =
                Vec::with_capacity(ex.replaced.len() + ex.added.len());
            to_intern.extend(ex.replaced.iter().cloned());
            to_intern.extend(ex.added.iter().cloned());
            let grown = grow_value_space(
                &values.space,
                &mut incr.interning,
                &corpus.interner,
                &to_intern,
                &self.synonyms,
                &self.mr,
                self.mr.workers(),
            );
            let replaced_proj: Vec<(u32, Option<NormBinary>)> = ex
                .replaced
                .iter()
                .map(|rb| {
                    (
                        rb.id.0,
                        project_candidate_at(&grown, &incr.interning, rb, rb.id.0),
                    )
                })
                .collect();
            let added_proj: Vec<NormBinary> = ex
                .added
                .iter()
                .filter_map(|cand| project_candidate_at(&grown, &incr.interning, cand, cand.id.0))
                .collect();
            (grown, replaced_proj, added_proj)
        };

        // A row-patched candidate that had been projected out (below
        // two usable pairs) resurfacing breaks the stage-2 table order
        // a fresh run would produce — fall back to the renumber path.
        // The interning has already advanced past the grown space, so
        // that space must be installed first: the renumber extends it
        // rather than the pre-delta one.
        let projection_gain = {
            let incr = self.incr.as_ref().unwrap();
            replaced_proj
                .iter()
                .any(|(id, proj)| incr.pos_of_candidate[*id as usize].is_none() && proj.is_some())
        };
        if projection_gain {
            {
                let values = self.values.as_mut().unwrap();
                report.new_values = grown_space.len() - values.space.len();
                values.space = grown_space;
            }
            report.timings.values = t.elapsed();
            let replaced_ids: Vec<u32> = ex.replaced.iter().map(|c| c.id.0).collect();
            self.incr
                .as_mut()
                .unwrap()
                .extraction_cache
                .sentinel_candidates(&replaced_ids);
            self.apply_delta_reordered(corpus, &mut report, live_before, ex.replaced.len());
            self.corpus_fingerprint = Some((corpus.len(), corpus.total_columns() as u64));
            report.timings.total = t_total.elapsed();
            return report;
        }

        let (removed_positions, added_positions, replaced_positions, swaps) = {
            let incr = self.incr.as_mut().unwrap();
            let values = self.values.as_mut().unwrap();
            report.new_values = grown_space.len() - values.space.len();
            values.space = grown_space;
            let mut removed_positions = Vec::new();
            for &cand in &ex.tombstoned {
                if let Some(pos) = incr.pos_of_candidate[cand as usize].take() {
                    incr.dead[pos as usize] = true;
                    removed_positions.push(pos);
                }
            }
            // Row-patched candidates: survivors swap their stage-2
            // entry in place (deferred until blocking unregisters the
            // old content); ones dropping below two usable pairs leave
            // the slice like tombstones.
            let mut replaced_positions = Vec::new();
            let mut swaps: Vec<(u32, NormBinary)> = Vec::new();
            for (id, proj) in replaced_proj {
                match (incr.pos_of_candidate[id as usize], proj) {
                    (Some(pos), Some(nb)) => {
                        replaced_positions.push(pos);
                        swaps.push((pos, nb));
                    }
                    (Some(pos), None) => {
                        incr.pos_of_candidate[id as usize] = None;
                        incr.dead[pos as usize] = true;
                        removed_positions.push(pos);
                    }
                    // Projected out before and after: the raw content
                    // update below is all there is.
                    (None, _) => {}
                }
            }
            incr.pos_of_candidate
                .resize(idx_base as usize + ex.added.len(), None);
            let mut added_positions = Vec::new();
            for nb in added_proj {
                let pos = values.tables.len() as u32;
                incr.pos_of_candidate[nb.idx as usize] = Some(pos);
                values.tables.push(nb);
                incr.dead.push(false);
                added_positions.push(pos);
            }
            (
                removed_positions,
                added_positions,
                replaced_positions,
                swaps,
            )
        };
        report.timings.values = t.elapsed();
        self.values.as_mut().unwrap().elapsed += report.timings.values;

        // Stage 3a — blocking index patch. Replaced positions
        // unregister under their old content, swap, then re-register
        // under the new content alongside the appended tables.
        let t = Instant::now();
        let (pairs, blocking_stats) = {
            let incr = self.incr.as_mut().unwrap();
            let values = self.values.as_mut().unwrap();
            let cfg = &self.cfg.synthesis;
            let mut drop_list = removed_positions.clone();
            drop_list.extend_from_slice(&replaced_positions);
            incr.blocking
                .remove_tables(&values.space, &values.tables, &drop_list, cfg);
            for (pos, nb) in swaps {
                values.tables[pos as usize] = nb;
            }
            let mut add_list = replaced_positions.clone();
            add_list.extend_from_slice(&added_positions);
            incr.blocking
                .add_tables(&values.space, &values.tables, &add_list, cfg);
            incr.blocking.pairs(cfg)
        };
        report.timings.blocking = t.elapsed();

        // Stage 3b + 3c — grow the scoring context (patching the views
        // of row-patched tables in place), then recompute match counts
        // only for pairs whose support changed. Surviving pairs keep
        // their cached counts verbatim: two live tables' counts depend
        // only on their contents, the class partition restricted to
        // their values, and memoized distances — all of which the
        // delta leaves untouched. Every pair touching a row-patched
        // table re-joins, cached or not.
        let t = Instant::now();
        let values = self.values.as_ref().unwrap();
        let scores = self.scores.as_mut().unwrap();
        let dp_before = scores.context.build_stats.memo.dp_calls;
        scores.context.patch(
            &values.space,
            &values.tables,
            &replaced_positions,
            &added_positions,
            &self.mr,
        );
        report.memo_dp_calls = scores.context.build_stats.memo.dp_calls - dp_before;

        let replaced_set: HashSet<u32> = replaced_positions.iter().copied().collect();
        let carried = scores.context.carry_counts(
            &values.space,
            &values.tables,
            &pairs,
            &scores.counts,
            |p| (!replaced_set.contains(&p)).then_some(p),
            &self.mr,
        );
        report.pairs_kept = carried.kept;
        report.pairs_added = carried.added;
        report.pairs_removed = carried.removed;
        scores.counts = carried.counts;
        scores.scored = carried.scored;
        scores.blocking = blocking_stats;
        report.timings.scoring = t.elapsed();
        scores.elapsed += report.timings.blocking + report.timings.scoring;

        // Stage 1 artifact bookkeeping (after the value stage borrowed
        // the old candidate list length). Replaced candidates keep
        // their slot — `candidates[i].id.0 == i` stays invariant.
        let extraction = self.extraction.as_mut().unwrap();
        for rb in ex.replaced {
            let idx = rb.id.0 as usize;
            debug_assert_eq!(extraction.candidates[idx].id, rb.id);
            extraction.candidates[idx] = rb;
        }
        extraction.candidates.extend(ex.added);
        extraction.stats = ex.stats;
        extraction.elapsed += report.timings.extraction;
        extraction.funnel = self
            .incr
            .as_ref()
            .unwrap()
            .extraction_cache
            .coherence_funnel();

        debug_assert_eq!(
            live_before + report.candidates_added - report.candidates_tombstoned,
            self.incr
                .as_ref()
                .unwrap()
                .extraction_cache
                .live_candidates(),
            "unified candidate counters must balance"
        );

        self.corpus_fingerprint = Some((corpus.len(), corpus.total_columns() as u64));
        report.timings.total = t_total.elapsed();
        report
    }

    /// The renumber path: an old table gained a candidate (a
    /// borderline column crossed the coherence threshold — routine for
    /// additive deltas, since growing the corpus shifts every NPMI via
    /// `N`), so the candidate list must be rebuilt in fresh order. The
    /// expensive artifacts still carry over: the value space extends
    /// append-only, the approximate-match memo is reused (DP only for
    /// newly queryable value pairs), and surviving pairs' match counts
    /// are *remapped* to the new numbering instead of re-joined —
    /// only blocking and the per-table views rebuild outright.
    ///
    /// `live_before` is the live-candidate count before the delta's
    /// extraction pass and `replaced` the number of row-patched
    /// survivors (already sentineled out of the surviving-id map);
    /// together with the rebuilt list they pin down the unified
    /// candidate counters.
    fn apply_delta_reordered(
        &mut self,
        corpus: &Corpus,
        report: &mut DeltaReport,
        live_before: usize,
        replaced: usize,
    ) {
        report.reordered = true;
        let t = Instant::now();
        let incr = self.incr.as_mut().expect("incremental state");
        let (candidates, ex_stats, id_map) = incr.extraction_cache.rebuild_candidates(corpus);
        report.timings.extraction += t.elapsed();

        // Value space: extend append-only with the full (renumbered)
        // candidate list — already-interned values resolve through the
        // retained state, so only genuinely new strings normalize.
        let t = Instant::now();
        let old_values = self.values.take().expect("prepared");
        let space = grow_value_space(
            &old_values.space,
            &mut incr.interning,
            &corpus.interner,
            &candidates,
            &self.synonyms,
            &self.mr,
            self.mr.workers(),
        );
        let tables = project_candidates(&space, &incr.interning, &candidates, 0, &self.mr);
        report.new_values += space.len() - old_values.space.len();
        let pos_of_candidate = positions_of_candidates(candidates.len(), &tables);
        report.timings.values += t.elapsed();

        // Old stage-2 position → new stage-2 position, for surviving
        // candidates (monotone: survivors keep their relative order).
        let old_scores = self.scores.take().expect("prepared");
        let old_pos_to_new: Vec<Option<u32>> = {
            let mut idx_to_new: Vec<Option<u32>> = vec![None; incr.pos_of_candidate.len().max(1)];
            for &(old_idx, new_idx) in &id_map {
                if (old_idx as usize) < idx_to_new.len() {
                    idx_to_new[old_idx as usize] = Some(new_idx);
                }
            }
            old_values
                .tables
                .iter()
                .map(|t| idx_to_new[t.idx as usize].and_then(|ni| pos_of_candidate[ni as usize]))
                .collect()
        };

        // Blocking: unregister vanished tables (old coordinates),
        // renumber the index through the monotone survivor map, then
        // register gained/added tables at their new positions — pair
        // counts carry over for every untouched key.
        let t = Instant::now();
        let cfg = &self.cfg.synthesis;
        let removed_old: Vec<u32> = (0..old_values.tables.len() as u32)
            .filter(|&p| !incr.dead[p as usize] && old_pos_to_new[p as usize].is_none())
            .collect();
        incr.blocking
            .remove_tables(&space, &old_values.tables, &removed_old, cfg);
        let new_sizes: Vec<u32> = tables.iter().map(|t| t.len() as u32).collect();
        incr.blocking.remap(&old_pos_to_new, new_sizes);
        let is_survivor: std::collections::HashSet<u32> =
            old_pos_to_new.iter().flatten().copied().collect();
        let added_new: Vec<u32> = (0..tables.len() as u32)
            .filter(|p| !is_survivor.contains(p))
            .collect();
        incr.blocking.add_tables(&space, &tables, &added_new, cfg);
        let (pairs, blocking_stats) = incr.blocking.pairs(cfg);
        report.timings.blocking = t.elapsed();

        // Scoring: views rebuilt, memo reused, surviving counts
        // remapped, only genuinely new pairs merge-joined.
        let t = Instant::now();
        let dp_before = old_scores.context.build_stats.memo.dp_calls;
        let context = crate::compat::ScoringContext::rebuild_reusing(
            &old_scores.context,
            &space,
            &tables,
            cfg,
            &self.mr,
        );
        report.memo_dp_calls = context.build_stats.memo.dp_calls - dp_before;

        let carried = context.carry_counts(
            &space,
            &tables,
            &pairs,
            &old_scores.counts,
            |p| old_pos_to_new[p as usize],
            &self.mr,
        );
        report.pairs_kept = carried.kept;
        report.pairs_added = carried.added;
        report.pairs_removed = carried.removed;
        report.timings.scoring = t.elapsed();
        // Unified counter semantics, identical to the in-place path.
        // `id_map` also carries ids handed to this delta's added-table
        // candidates before the renumber was detected, so pre-delta
        // survivors are the entries whose old id predates the
        // session's candidate list: those are live on both sides with
        // unchanged content, `replaced` are live on both sides with
        // changed content, everything else in the rebuilt list was
        // gained, and whatever was live before and is neither is gone.
        let idx_base = self.extraction.as_ref().expect("prepared").candidates.len() as u32;
        let survivors = id_map.iter().filter(|&&(old, _)| old < idx_base).count();
        report.candidates_replaced = replaced;
        report.candidates_added = candidates.len() - survivors - replaced;
        report.candidates_tombstoned = live_before - survivors - replaced;

        // Install the renumbered artifacts.
        let extraction = self.extraction.as_mut().expect("prepared");
        extraction.candidates = candidates;
        extraction.stats = ex_stats;
        extraction.elapsed += report.timings.extraction;
        extraction.funnel = incr.extraction_cache.coherence_funnel();
        incr.dead = vec![false; tables.len()];
        incr.pos_of_candidate = pos_of_candidate;
        self.values = Some(crate::session::ValueArtifact {
            space,
            tables,
            elapsed: old_values.elapsed + report.timings.values,
        });
        self.scores = Some(crate::session::ScoreArtifact {
            scored: carried.scored,
            counts: carried.counts,
            context,
            blocking: blocking_stats,
            elapsed: old_scores.elapsed + report.timings.blocking + report.timings.scoring,
            detail: old_scores.detail,
        });
    }
}

/// Pre-apply snapshot of every session artifact a delta mutates.
/// Restored wholesale when the guarded apply panics; dropped (one
/// deallocation pass, no copies back) when it succeeds.
struct SessionBackup {
    extraction: Option<crate::session::ExtractionArtifact>,
    values: Option<crate::session::ValueArtifact>,
    scores: Option<crate::session::ScoreArtifact>,
    incr: Option<IncrementalState>,
    fingerprint: Option<(usize, u64)>,
}

/// Best-effort extraction of a contained panic's payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineConfig, Resolver};

    #[test]
    fn portable_delta_round_trips() {
        let delta = PortableDelta {
            add: vec![
                PortableTable {
                    key: 42,
                    domain: "example.org".into(),
                    columns: vec![
                        (Some("name".into()), vec!["Japan".into(), "Perú".into()]),
                        (None, vec!["JPN".into(), "PER".into()]),
                    ],
                },
                PortableTable {
                    key: u64::MAX,
                    domain: String::new(),
                    columns: vec![],
                },
            ],
            remove: vec![7, 0],
            patches: vec![PortablePatch {
                key: 42,
                deleted: vec![vec!["Japan".into(), "JPN".into()]],
                inserted: vec![vec![], vec!["Chile".into(), "CHL".into()]],
            }],
        };
        let bytes = delta.encode();
        assert_eq!(PortableDelta::decode(&bytes).unwrap(), delta);
        let empty = PortableDelta::default();
        assert_eq!(PortableDelta::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn portable_delta_decode_is_total() {
        use mapsynth_corpus::wire::WireError;
        let bytes = PortableDelta {
            add: vec![PortableTable {
                key: 1,
                domain: "d".into(),
                columns: vec![(None, vec!["x".into()])],
            }],
            remove: vec![9],
            patches: vec![],
        }
        .encode();
        // Every strict prefix fails with a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                PortableDelta::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Trailing garbage is flagged.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            PortableDelta::decode(&long),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
        // A bad extension tag is flagged.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] = 3;
        assert!(matches!(
            PortableDelta::decode(&bad),
            Err(WireError::BadTag { found: 3, .. })
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Arbitrary bytes — raw, or a valid record with bytes
        /// overwritten at random positions — decode to a typed error
        /// or to a delta that re-encodes to exactly those bytes; no
        /// input panics.
        #[test]
        fn prop_portable_delta_decode_is_total(
            raw in proptest::collection::vec(0u8..=255, 0..256),
            edits in proptest::collection::vec((0usize..4096, 0u8..=255), 0..4),
            mutate_valid in 0u8..2,
        ) {
            let bytes = if mutate_valid == 1 {
                let mut bytes = PortableDelta {
                    add: vec![PortableTable {
                        key: 3,
                        domain: "d.org".into(),
                        columns: vec![(Some("h".into()), vec!["x".into(), "y".into()])],
                    }],
                    remove: vec![9],
                    patches: vec![PortablePatch {
                        key: 3,
                        deleted: vec![vec!["x".into()]],
                        inserted: vec![],
                    }],
                }
                .encode();
                for &(at, b) in &edits {
                    let at = at % bytes.len();
                    bytes[at] = b;
                }
                bytes
            } else {
                raw
            };
            if let Ok(delta) = PortableDelta::decode(&bytes) {
                proptest::prop_assert_eq!(delta.encode(), bytes);
            }
        }
    }

    /// A corpus of two conflicting standards (ISO vs IOC codes) spread
    /// over several domains, with typo'd spellings so approximate
    /// matching has real work.
    fn base_corpus() -> Corpus {
        let mut corpus = Corpus::new();
        let iso: Vec<(&str, &str)> = vec![
            ("Afghanistan", "AFG"),
            ("Albania", "ALB"),
            ("Algeria", "DZA"),
            ("Germany", "DEU"),
            ("Netherlands", "NLD"),
            ("Greece", "GRC"),
        ];
        let ioc: Vec<(&str, &str)> = vec![
            ("Afghanistan", "AFG"),
            ("Albania", "ALB"),
            ("Algeria", "ALG"),
            ("Germany", "GER"),
            ("Netherlands", "NED"),
            ("Greece", "GRE"),
        ];
        let typo: Vec<(&str, &str)> = vec![
            ("Afghanistan", "AFG"),
            ("Albania xy", "ALB"),
            ("Algeria", "DZA"),
            ("Germany z", "DEU"),
            ("Netherland", "NLD"),
            ("Greece", "GRC"),
        ];
        for (prefix, rows) in [("iso", &iso), ("ioc", &ioc), ("typo", &typo)] {
            for i in 0..5 {
                let d = corpus.domain(&format!("{prefix}-{i}.org"));
                let (l, r): (Vec<&str>, Vec<&str>) = rows.iter().cloned().unzip();
                corpus.push_table(d, vec![(Some("country"), l), (Some("code"), r)]);
            }
        }
        corpus
    }

    fn push_rows(corpus: &mut Corpus, domain: &str, rows: &[(&str, &str)]) -> TableId {
        let d = corpus.domain(domain);
        let (l, r): (Vec<&str>, Vec<&str>) = rows.iter().cloned().unzip();
        corpus.push_table(d, vec![(Some("country"), l), (Some("code"), r)])
    }

    /// Assert the delta session's derived output is bit-identical to a
    /// fresh session prepared on the live corpus, for every resolver.
    fn assert_matches_fresh(session: &SynthesisSession, corpus: &Corpus) {
        let fresh_corpus = session.live_corpus(corpus);
        let mut fresh = SynthesisSession::new(session.config().clone());
        fresh.prepare(&fresh_corpus);
        let base = session.config().synthesis;
        for resolver in [Resolver::Algorithm4, Resolver::MajorityVote, Resolver::None] {
            let a = session.synthesize(&base, resolver);
            let b = fresh.synthesize(&base, resolver);
            assert_eq!(a.edges, b.edges, "{resolver:?}: edge count");
            assert_eq!(a.partitions, b.partitions, "{resolver:?}: partitions");
            assert_eq!(a.mappings.len(), b.mappings.len(), "{resolver:?}: mappings");
            for (x, y) in a.mappings.iter().zip(&b.mappings) {
                assert_eq!(
                    x.materialize_pairs(),
                    y.materialize_pairs(),
                    "{resolver:?}: pair content"
                );
                assert_eq!(x.domains, y.domains, "{resolver:?}: domains");
                assert_eq!(x.source_tables, y.source_tables, "{resolver:?}: sources");
            }
        }
    }

    #[test]
    fn delta_equals_fresh_session() {
        let mut corpus = base_corpus();
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);

        let removed = vec![TableId(1), TableId(7)];
        let added = vec![
            push_rows(
                &mut corpus,
                "new-0.org",
                &[
                    ("Afghanistan", "AFG"),
                    ("Albania", "ALB"),
                    ("Algeria", "DZA"),
                    ("Germany", "DEU"),
                    ("Netherlands", "NLD"),
                    ("Greece", "GRC"),
                ],
            ),
            push_rows(
                &mut corpus,
                "new-1.org",
                &[
                    ("Afghanistan", "AFG"),
                    ("Albania q", "ALB"),
                    ("Algeria", "ALG"),
                    ("Germany", "GER"),
                    ("Netherlandsx", "NED"),
                    ("Greece", "GRE"),
                ],
            ),
        ];
        let report = session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    added,
                    removed,
                    patches: vec![],
                },
            )
            .unwrap();
        assert_eq!(report.tables_added, 2);
        assert_eq!(report.tables_removed, 2);
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn delta_sequence_with_reinsert_equals_fresh() {
        let mut corpus = base_corpus();
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);

        // Delta 1: remove two ISO tables.
        let r1 = CorpusDelta {
            added: vec![],
            removed: vec![TableId(0), TableId(2)],
            patches: vec![],
        };
        session.apply_delta(&corpus, &r1).unwrap();
        assert_matches_fresh(&session, &corpus);

        // Delta 2: re-insert the same content under a new id, remove an
        // IOC table.
        let rows: Vec<(&str, &str)> = vec![
            ("Afghanistan", "AFG"),
            ("Albania", "ALB"),
            ("Algeria", "DZA"),
            ("Germany", "DEU"),
            ("Netherlands", "NLD"),
            ("Greece", "GRC"),
        ];
        let added = vec![push_rows(&mut corpus, "iso-0.org", &rows)];
        let r2 = CorpusDelta {
            added,
            removed: vec![TableId(6)],
            patches: vec![],
        };
        let report = session.apply_delta(&corpus, &r2).unwrap();
        // Re-inserted values resurrect their old NormIds.
        assert_eq!(report.new_values, 0, "re-inserted content interns nothing");
        assert_matches_fresh(&session, &corpus);

        // Delta 3: remove the re-inserted table again.
        let last = TableId(corpus.len() as u32 - 1);
        session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    added: vec![],
                    removed: vec![last],
                    patches: vec![],
                },
            )
            .unwrap();
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn removing_every_table_of_a_relation_drops_its_mappings() {
        let corpus = base_corpus();
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);
        let base = session.config().synthesis;
        let before = session.synthesize(&base, Resolver::Algorithm4);
        assert!(before
            .mappings
            .iter()
            .any(|m| m.contains_pair("germany", "ger")));

        // Remove all five IOC tables (ids 5..10): every mapping
        // supported only by them must vanish.
        let delta = CorpusDelta {
            added: vec![],
            removed: (5..10).map(TableId).collect(),
            patches: vec![],
        };
        session.apply_delta(&corpus, &delta).unwrap();
        let after = session.synthesize(&base, Resolver::Algorithm4);
        assert!(
            !after
                .mappings
                .iter()
                .any(|m| m.contains_pair("germany", "ger")),
            "IOC-only mapping must be gone once its last supporting tables are removed"
        );
        assert!(after
            .mappings
            .iter()
            .any(|m| m.contains_pair("germany", "deu")));
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn reorder_path_is_transparent() {
        // Force the coherence-gain renumber with a tiny corpus where
        // one column sits just under the threshold until a near-clone
        // arrives. Even if a particular generator change stops
        // triggering it, the assertion chain stays valid: output must
        // match fresh either way.
        let mut corpus = base_corpus();
        // A weakly coherent table: values shared with nothing.
        let weak: Vec<(&str, &str)> = vec![
            ("zulu one", "q1"),
            ("zulu two", "q2"),
            ("zulu three", "q3"),
            ("zulu four", "q4"),
        ];
        push_rows(&mut corpus, "weak.org", &weak);
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);

        // Adding a clone of the weak table gives its values
        // co-occurrence evidence — its columns flip coherent.
        let added = vec![push_rows(&mut corpus, "weak-2.org", &weak)];
        let report = session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    added,
                    removed: vec![],
                    patches: vec![],
                },
            )
            .unwrap();
        assert!(report.reordered, "weak-table clone must flip coherence");
        assert_matches_fresh(&session, &corpus);

        // The renumbered session keeps taking deltas.
        let added = vec![push_rows(
            &mut corpus,
            "new-after-fallback.org",
            &[
                ("Afghanistan", "AFG"),
                ("Albania", "ALB"),
                ("Algeria", "DZA"),
                ("Germany", "DEU"),
                ("Netherlands", "NLD"),
                ("Greece", "GRC"),
            ],
        )];
        session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    added,
                    removed: vec![TableId(3)],
                    patches: vec![],
                },
            )
            .unwrap();
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn delta_path_deterministic_across_worker_counts() {
        let outputs: Vec<Vec<Vec<(String, String)>>> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let mut corpus = base_corpus();
                let mut session = SynthesisSession::new(PipelineConfig {
                    workers,
                    ..Default::default()
                });
                session.prepare(&corpus);
                let added = vec![push_rows(
                    &mut corpus,
                    "w.org",
                    &[
                        ("Afghanistan", "AFG"),
                        ("Albania w", "ALB"),
                        ("Algeria", "ALG"),
                        ("Germany", "GER"),
                        ("Netherlands", "NED"),
                        ("Greece", "GRE"),
                    ],
                )];
                session
                    .apply_delta(
                        &corpus,
                        &CorpusDelta {
                            added,
                            removed: vec![TableId(4), TableId(9)],
                            patches: vec![],
                        },
                    )
                    .unwrap();
                let run =
                    session.synthesize(&session.config().synthesis.clone(), Resolver::Algorithm4);
                run.mappings.iter().map(|m| m.materialize_pairs()).collect()
            })
            .collect();
        assert_eq!(outputs[0], outputs[1], "1 vs 2 workers");
        assert_eq!(outputs[0], outputs[2], "1 vs 8 workers");
    }

    fn string_rows(rows: &[(&str, &str)]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|&(l, r)| vec![l.to_string(), r.to_string()])
            .collect()
    }

    #[test]
    fn row_patch_delta_equals_fresh() {
        let mut corpus = base_corpus();
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);

        // One ISO table's Algeria row switches code standards in place.
        let patch = RowPatch {
            table: TableId(2),
            deleted: string_rows(&[("Algeria", "DZA")]),
            inserted: string_rows(&[("Algeria", "ALG")]),
        };
        corpus.apply_row_patch(&patch);
        let report = session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    patches: vec![patch],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(report.tables_patched, 1);
        assert!(
            report.candidates_replaced >= 1,
            "the surviving candidates of the patched table must be replaced"
        );
        assert_matches_fresh(&session, &corpus);

        // Patches compose with table-granular evolution in one delta.
        let patch = RowPatch {
            table: TableId(6),
            deleted: string_rows(&[("Netherlands", "NED")]),
            inserted: string_rows(&[("Netherlands", "NLD"), ("Italy", "ITA")]),
        };
        corpus.apply_row_patch(&patch);
        let added = vec![push_rows(
            &mut corpus,
            "mixed.org",
            &[
                ("Afghanistan", "AFG"),
                ("Albania", "ALB"),
                ("Algeria", "DZA"),
                ("Germany", "DEU"),
                ("Netherlands", "NLD"),
                ("Greece", "GRC"),
            ],
        )];
        let report = session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    added,
                    removed: vec![TableId(12)],
                    patches: vec![patch],
                },
            )
            .unwrap();
        assert_eq!(report.tables_patched, 1);
        assert_eq!(report.tables_added, 1);
        assert_eq!(report.tables_removed, 1);
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn emptying_patch_equals_fresh_and_session_keeps_going() {
        let mut corpus = base_corpus();
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);

        // Delete every row of one ISO table; the table itself stays.
        let all_rows: Vec<(&str, &str)> = vec![
            ("Afghanistan", "AFG"),
            ("Albania", "ALB"),
            ("Algeria", "DZA"),
            ("Germany", "DEU"),
            ("Netherlands", "NLD"),
            ("Greece", "GRC"),
        ];
        let patch = RowPatch {
            table: TableId(1),
            deleted: string_rows(&all_rows),
            inserted: vec![],
        };
        corpus.apply_row_patch(&patch);
        let report = session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    patches: vec![patch],
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            report.candidates_tombstoned >= 1,
            "an emptied table cannot keep candidates"
        );
        assert_matches_fresh(&session, &corpus);

        // The session keeps taking deltas afterwards — including a
        // patch refilling the emptied (still live) table.
        let patch = RowPatch {
            table: TableId(1),
            deleted: vec![],
            inserted: string_rows(&all_rows),
        };
        corpus.apply_row_patch(&patch);
        session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    patches: vec![patch],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn patch_below_two_usable_pairs_equals_fresh() {
        let mut corpus = base_corpus();
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);

        // Shrink a typo table to a single row: whatever survives
        // extraction cannot project (two usable pairs minimum).
        let patch = RowPatch {
            table: TableId(10),
            deleted: string_rows(&[
                ("Albania xy", "ALB"),
                ("Algeria", "DZA"),
                ("Germany z", "DEU"),
                ("Netherland", "NLD"),
                ("Greece", "GRC"),
            ]),
            inserted: vec![],
        };
        corpus.apply_row_patch(&patch);
        let report = session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    patches: vec![patch],
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            report.candidates_tombstoned + report.candidates_replaced >= 1,
            "a one-row table must lose its stage-2 presence one way or the other"
        );
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn patch_resurfacing_a_projection_renumbers_transparently() {
        // Two clone tables whose rows are mostly punctuation: the
        // punctuation values normalize to nothing, so each candidate
        // holds a single usable pair and is projected out of stage 2
        // even though extraction keeps it (the clones give its raw
        // values co-occurrence evidence). A patch that inserts one
        // usable row flips the projection back on — the old-table
        // gain that must renumber.
        let mut corpus = base_corpus();
        let junk: Vec<(&str, &str)> =
            vec![("Germany", "DEU"), ("**", "%%"), ("((", "@@"), ("[[", "]]")];
        push_rows(&mut corpus, "pg-1.org", &junk);
        push_rows(&mut corpus, "pg-2.org", &junk);
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);

        let patch = RowPatch {
            table: TableId(15),
            deleted: vec![],
            inserted: string_rows(&[("Greece", "GRC")]),
        };
        corpus.apply_row_patch(&patch);
        let report = session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    patches: vec![patch],
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            report.reordered,
            "a resurfacing projection must take the renumber path"
        );
        assert_matches_fresh(&session, &corpus);

        // And the renumbered session keeps taking row patches.
        let patch = RowPatch {
            table: TableId(16),
            deleted: string_rows(&[("[[", "]]")]),
            inserted: string_rows(&[("Albania", "ALB")]),
        };
        corpus.apply_row_patch(&patch);
        session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    patches: vec![patch],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn patch_to_removed_table_rejected() {
        let mut corpus = base_corpus();
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);
        session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    removed: vec![TableId(0)],
                    ..Default::default()
                },
            )
            .unwrap();
        // The physical table still exists, so the corpus-level patch
        // applies — the session must reject it, not corrupt state.
        let patch = RowPatch {
            table: TableId(0),
            deleted: vec![],
            inserted: string_rows(&[("Italy", "ITA")]),
        };
        corpus.apply_row_patch(&patch);
        let err = session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    patches: vec![patch.clone()],
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, DeltaError::PatchToRemovedTable { id: TableId(0) });
        // The rejection is transparent: the session still matches a
        // fresh oracle on its live corpus — which, because the patch
        // hit a tombstoned table, is unchanged by the corpus edit.
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn patch_and_remove_same_delta_rejected() {
        let mut corpus = base_corpus();
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);
        let patch = RowPatch {
            table: TableId(3),
            deleted: vec![],
            inserted: string_rows(&[("Italy", "ITA")]),
        };
        corpus.apply_row_patch(&patch);
        let err = session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    removed: vec![TableId(3)],
                    patches: vec![patch.clone()],
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, DeltaError::PatchAndRemoveSameDelta { id: TableId(3) });
        // The session accepted nothing — a retried, well-formed delta
        // (patch only) still goes through.
        session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    patches: vec![patch],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn double_removal_rejected() {
        let corpus = base_corpus();
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);
        let d = CorpusDelta {
            added: vec![],
            removed: vec![TableId(0)],
            patches: vec![],
        };
        session.apply_delta(&corpus, &d).unwrap();
        let err = session.apply_delta(&corpus, &d).unwrap_err();
        assert_eq!(err, DeltaError::RemovedTableNotLive { id: TableId(0) });
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn malformed_deltas_rejected_upfront() {
        let mut corpus = base_corpus();
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);

        // Unprepared session.
        let mut unprepared = SynthesisSession::new(PipelineConfig::default());
        assert_eq!(
            unprepared
                .apply_delta(&corpus, &CorpusDelta::default())
                .unwrap_err(),
            DeltaError::NotPrepared
        );

        // Empty patch.
        let err = session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    patches: vec![RowPatch {
                        table: TableId(2),
                        deleted: vec![],
                        inserted: vec![],
                    }],
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, DeltaError::EmptyPatch { id: TableId(2) });

        // Contradictory patch: tuple width disagrees with the table.
        let err = session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    patches: vec![RowPatch {
                        table: TableId(2),
                        deleted: vec![],
                        inserted: vec![vec!["one-column-only".to_string()]],
                    }],
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            DeltaError::ContradictoryPatch {
                id: TableId(2),
                width: 1,
                expected: 2
            }
        );

        // Unknown table, duplicate removal, duplicate patch.
        let far = TableId(10_000);
        assert_eq!(
            session
                .apply_delta(
                    &corpus,
                    &CorpusDelta {
                        removed: vec![far],
                        ..Default::default()
                    }
                )
                .unwrap_err(),
            DeltaError::UnknownTable { id: far }
        );
        assert_eq!(
            session
                .apply_delta(
                    &corpus,
                    &CorpusDelta {
                        removed: vec![TableId(4), TableId(4)],
                        ..Default::default()
                    }
                )
                .unwrap_err(),
            DeltaError::DuplicateRemoval { id: TableId(4) }
        );
        let p = RowPatch {
            table: TableId(4),
            deleted: vec![],
            inserted: string_rows(&[("Italy", "ITA")]),
        };
        assert_eq!(
            session
                .apply_delta(
                    &corpus,
                    &CorpusDelta {
                        patches: vec![p.clone(), p],
                        ..Default::default()
                    }
                )
                .unwrap_err(),
            DeltaError::DuplicatePatch { id: TableId(4) }
        );

        // Fingerprint mismatch: the corpus grew but the delta does not
        // name the appended table.
        push_rows(&mut corpus, "sneaky.org", &[("Italy", "ITA")]);
        assert_eq!(
            session
                .apply_delta(&corpus, &CorpusDelta::default())
                .unwrap_err(),
            DeltaError::FingerprintMismatch {
                expected: 15,
                got: 16
            }
        );
        // Naming it, but with the wrong id, is out of order.
        assert_eq!(
            session
                .apply_delta(
                    &corpus,
                    &CorpusDelta {
                        added: vec![TableId(3)],
                        ..Default::default()
                    }
                )
                .unwrap_err(),
            DeltaError::AddedIdOutOfOrder {
                id: TableId(3),
                expected: 15
            }
        );

        // None of the rejections touched the session: the appended
        // table, once properly named, still applies cleanly.
        session
            .apply_delta(
                &corpus,
                &CorpusDelta {
                    added: vec![TableId(15)],
                    ..Default::default()
                },
            )
            .unwrap();
        assert_matches_fresh(&session, &corpus);
    }

    #[test]
    fn induced_panic_is_contained_and_rolled_back() {
        let mut corpus = base_corpus();
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&corpus);

        // Sabotage a perfectly valid delta: the fault fires after the
        // extraction cache has mutated, so containment must restore
        // every artifact from the backup.
        let added = vec![push_rows(
            &mut corpus,
            "sabotaged.org",
            &[
                ("Afghanistan", "AFG"),
                ("Albania", "ALB"),
                ("Algeria", "DZA"),
                ("Germany", "DEU"),
                ("Netherlands", "NLD"),
                ("Greece", "GRC"),
            ],
        )];
        let delta = CorpusDelta {
            added,
            removed: vec![TableId(1)],
            patches: vec![],
        };
        fault::arm_induced_panic();
        let err = session.apply_delta(&corpus, &delta).unwrap_err();
        match &err {
            DeltaError::ApplyPanicked { message } => {
                assert_eq!(message, fault::INDUCED_PANIC_MESSAGE)
            }
            other => panic!("expected ApplyPanicked, got {other:?}"),
        }
        assert!(!fault::disarm(), "the fault flag must be consumed");

        // The session was restored byte-identical: retrying the same
        // delta un-sabotaged succeeds and matches a fresh oracle.
        let report = session.apply_delta(&corpus, &delta).unwrap();
        assert_eq!(report.tables_added, 1);
        assert_eq!(report.tables_removed, 1);
        assert_matches_fresh(&session, &corpus);
    }
}
