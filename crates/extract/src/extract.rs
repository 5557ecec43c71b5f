//! Candidate extraction (paper Algorithm 1), parallelized over tables
//! — plus the incremental re-extraction machinery corpus deltas need.
//!
//! Column coherence (Equation 2) is a *global* statistic: every NPMI
//! term depends on the corpus-wide column count `N` and on posting
//! lists that any table insert/delete perturbs. A delta therefore
//! cannot simply extract the new tables — it must re-decide every old
//! column's coherence against the post-delta evidence, or incremental
//! output would diverge from a fresh run. [`ExtractionCache`] makes
//! that re-decision cheap: it keeps the [`ValueIndex`] (incrementally
//! patched) and, per column, the raw co-occurrence counts behind its
//! coherence score ([`CoherenceDetail`]), so a delta re-scores old
//! columns arithmetically — posting intersections are recomputed only
//! for value pairs the delta actually touched. Structural filters, the
//! numeric-left filter and approximate-FD checks depend on table
//! content alone and are never re-run for unchanged tables.

use crate::filters::{fd_check, norm_ids, numeric_fraction, passes_with_distinct};
use mapsynth_corpus::{
    coherence_from_counts, column_coherence_detailed, BinaryId, BinaryTable, CoherenceConfig,
    CoherenceDetail, CoherenceFunnel, Column, Corpus, GlobalColId, Interner, RowPatch, Sym, Table,
    TableId, TableSource, ValueIndex,
};
use mapsynth_mapreduce::MapReduce;
use std::collections::{HashMap, HashSet};

/// Extraction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExtractionConfig {
    /// Minimum average-NPMI column coherence (Equation 2). Columns
    /// scoring below are dropped. Mixed-content columns land near −1
    /// (their values co-occur nowhere); coherent columns in *sparse*
    /// corpora still average below 0 because most value pairs have no
    /// co-occurrence evidence at all, so the threshold sits well below
    /// zero rather than at it.
    pub min_coherence: f64,
    /// Approximate-FD threshold θ (Definition 2), default 0.95.
    pub fd_theta: f64,
    /// Minimum distinct values per column.
    pub min_distinct: usize,
    /// Maximum average cell length (free-text rejection).
    pub max_avg_len: usize,
    /// Reject *left* columns that are ≥ this fraction short numerics
    /// (rank columns, years). The paper prunes numeric relationships
    /// before curation (§4.3); doing it here also keeps the candidate
    /// graph small. Set above 1.0 to disable.
    pub max_left_numeric: f64,
    /// Column-coherence sampling (Equation 2 cost control).
    pub coherence: CoherenceConfig,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        Self {
            min_coherence: -0.5,
            fd_theta: 0.95,
            min_distinct: 4,
            max_avg_len: 60,
            max_left_numeric: 0.8,
            coherence: CoherenceConfig::default(),
        }
    }
}

/// Counters describing what extraction did (paper: "around 78% \[of\]
/// candidates can be filtered out with these methods").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExtractionStats {
    /// Tables scanned.
    pub tables: usize,
    /// Columns scanned.
    pub columns: usize,
    /// Columns dropped by structural checks (distinct count, length).
    pub columns_structural: usize,
    /// Columns dropped by PMI coherence.
    pub columns_incoherent: usize,
    /// Ordered column pairs the table could produce (before any
    /// filtering): `2·C(width, 2)` per table.
    pub pairs_possible: usize,
    /// Ordered column pairs considered after column filtering.
    pub pairs_considered: usize,
    /// Pairs dropped by the FD filter.
    pub pairs_failed_fd: usize,
    /// Pairs dropped by the numeric-left filter.
    pub pairs_numeric_left: usize,
    /// Candidates emitted.
    pub candidates: usize,
}

impl ExtractionStats {
    /// Fraction of FD-checked pairs that were pruned. Always in
    /// `[0, 1]`: zero considered pairs prune nothing (0.0, not NaN),
    /// and the ratio is clamped so a caller merging stats from
    /// mismatched runs can never observe a negative rate.
    pub fn prune_rate(&self) -> f64 {
        Self::pruned_fraction(self.candidates, self.pairs_considered)
    }

    /// Fraction of *all possible* ordered column pairs pruned by the
    /// combined column + FD filters — the paper's "around 78% \[of\]
    /// candidates can be filtered out with these methods". Same
    /// `[0, 1]` guarantees as [`prune_rate`](Self::prune_rate).
    pub fn total_prune_rate(&self) -> f64 {
        Self::pruned_fraction(self.candidates, self.pairs_possible)
    }

    fn pruned_fraction(kept: usize, of: usize) -> f64 {
        if of == 0 {
            return 0.0;
        }
        (1.0 - kept as f64 / of as f64).clamp(0.0, 1.0)
    }
}

/// (left col, right col, raw row pairs) per emitted candidate.
type CandidateRows = (u16, u16, Vec<(Sym, Sym)>);

/// Cached per-column extraction state.
#[derive(Clone, Debug)]
struct ColumnCache {
    /// Passed the structural (distinct count / cell length) filters.
    /// Content-determined — never re-evaluated.
    structural: bool,
    /// Coherence evidence, present iff `structural`.
    detail: Option<CoherenceDetail>,
    /// Latest coherence score against the live corpus.
    coherence: f64,
    /// `coherence ≥ min_coherence` (the column feeds pair enumeration).
    kept: bool,
}

/// Cached per-table extraction state.
#[derive(Clone, Debug)]
struct TableCache {
    /// False once the table was removed by a delta.
    alive: bool,
    /// Global id of the table's first column (ids are never reused, so
    /// a delta-era corpus has gaps where removed tables were — the
    /// coherence arithmetic only ever uses *counts*, so gaps are
    /// harmless).
    first_gid: u32,
    cols: Vec<ColumnCache>,
    /// This table's contribution to the aggregate stats.
    stats: ExtractionStats,
    /// Emitted candidates: `(left col, right col, candidate index)`.
    /// Candidate indices address the session-wide candidate list.
    candidates: Vec<(u16, u16, u32)>,
}

/// One table's full extraction output (fresh path and delta path share
/// this single implementation, which is what makes them bit-identical).
struct TableExtraction {
    cols: Vec<ColumnCache>,
    pairs: Vec<CandidateRows>,
    stats: ExtractionStats,
    /// Sketch-filter work counters from this table's coherence scoring.
    /// Diagnostics only — kept out of [`ExtractionStats`] because the
    /// delta path re-scores old columns arithmetically (no coherence
    /// pass at all), so funnel counters legitimately differ between an
    /// incremental and a fresh run while the stats stay bit-identical.
    funnel: CoherenceFunnel,
}

fn extract_table(
    strs: &Interner,
    index: &ValueIndex,
    table: &Table,
    first_gid: u32,
    cfg: &ExtractionConfig,
) -> TableExtraction {
    let width = table.width();
    let mut stats = ExtractionStats {
        tables: 1,
        pairs_possible: width * width.saturating_sub(1),
        ..Default::default()
    };
    let mut funnel = CoherenceFunnel::default();
    // Column filtering (PMI + structural).
    let mut cols: Vec<ColumnCache> = Vec::with_capacity(width);
    let mut kept: Vec<usize> = Vec::new();
    for (ci, col) in table.columns.iter().enumerate() {
        stats.columns += 1;
        let distinct = col.distinct();
        if !passes_with_distinct(strs, col, distinct.len(), cfg.min_distinct, cfg.max_avg_len) {
            stats.columns_structural += 1;
            cols.push(ColumnCache {
                structural: false,
                detail: None,
                coherence: 0.0,
                kept: false,
            });
            continue;
        }
        let gid = GlobalColId(first_gid + ci as u32);
        let (coherence, detail) =
            column_coherence_detailed(index, &distinct, cfg.coherence, gid, &mut funnel);
        let keep = coherence >= cfg.min_coherence;
        if !keep {
            stats.columns_incoherent += 1;
        } else {
            kept.push(ci);
        }
        cols.push(ColumnCache {
            structural: true,
            detail: Some(detail),
            coherence,
            kept: keep,
        });
    }
    // Ordered pair enumeration + FD filtering.
    let pairs = enumerate_pairs(strs, table, &kept, cfg, &mut stats);
    TableExtraction {
        cols,
        pairs,
        stats,
        funnel,
    }
}

/// The ordered-pair tail of per-table extraction: numeric-left and
/// approximate-FD filters over the kept columns. Each kept column's
/// numeric share is computed once, and its cells are normalized once
/// into ids ([`norm_ids`]) that every ordered pair's FD check shares.
fn enumerate_pairs(
    strs: &Interner,
    table: &Table,
    kept: &[usize],
    cfg: &ExtractionConfig,
    stats: &mut ExtractionStats,
) -> Vec<CandidateRows> {
    let entry = *stats;
    let mut pairs = Vec::new();
    if kept.len() < 2 {
        return pairs;
    }
    let numeric_left: Vec<bool> = kept
        .iter()
        .map(|&i| numeric_fraction(strs, &table.columns[i]) >= cfg.max_left_numeric)
        .collect();
    let ids = if numeric_left.contains(&false) {
        let cols: Vec<&Column> = kept.iter().map(|&i| &table.columns[i]).collect();
        norm_ids(strs, &cols)
    } else {
        Vec::new()
    };
    let mut buf = Vec::new();
    for (a, &i) in kept.iter().enumerate() {
        for (b, &j) in kept.iter().enumerate() {
            if i == j {
                continue;
            }
            stats.pairs_considered += 1;
            if numeric_left[a] {
                stats.pairs_numeric_left += 1;
                continue;
            }
            let (ok, _) = fd_check(&ids[a], &ids[b], cfg.fd_theta, &mut buf);
            if !ok {
                stats.pairs_failed_fd += 1;
                continue;
            }
            stats.candidates += 1;
            pairs.push((i as u16, j as u16, row_pairs(table, i as u16, j as u16)));
        }
    }
    // Every considered pair lands in exactly one bucket — the prune
    // rates divide these counters, so a double- or un-counted pair
    // would silently skew them.
    debug_assert_eq!(
        stats.pairs_considered - entry.pairs_considered,
        (stats.candidates - entry.candidates)
            + (stats.pairs_numeric_left - entry.pairs_numeric_left)
            + (stats.pairs_failed_fd - entry.pairs_failed_fd),
        "pair filter buckets must partition the considered pairs"
    );
    pairs
}

/// Raw row pairs of `table`'s ordered column pair `(i, j)`.
fn row_pairs(table: &Table, i: u16, j: u16) -> Vec<(Sym, Sym)> {
    let (left, right) = (&table.columns[i as usize], &table.columns[j as usize]);
    left.values
        .iter()
        .copied()
        .zip(right.values.iter().copied())
        .collect()
}

/// The candidate `table` emits for its ordered column pair `(i, j)`.
fn candidate_of(table: &Table, id: BinaryId, i: u16, j: u16, rows: Vec<(Sym, Sym)>) -> BinaryTable {
    BinaryTable::new(id, table.id, table.domain, i, j, rows).with_headers(
        table.columns[i as usize].header,
        table.columns[j as usize].header,
    )
}

/// Carry a re-extracted table's cached candidate ids (`old`) over to
/// its new pair set. Lost candidates tombstone cleanly; a survivor
/// keeps its id; a *gained* candidate has no place in the old
/// numbering (a fresh run emits it in table order), so it forces
/// renumbering — recorded with a sentinel id until
/// [`ExtractionCache::rebuild_candidates`] assigns real ones.
fn carry_candidate_ids(
    old: &[(u16, u16, u32)],
    pairs: impl Iterator<Item = (u16, u16)> + Clone,
    delta: &mut ExtractionDelta,
) -> Vec<(u16, u16, u32)> {
    let old_ids: HashMap<(u16, u16), u32> = old.iter().map(|&(i, j, idx)| ((i, j), idx)).collect();
    let new_set: HashSet<(u16, u16)> = pairs.clone().collect();
    delta.tombstoned.extend(
        old.iter()
            .filter(|&&(i, j, _)| !new_set.contains(&(i, j)))
            .map(|&(_, _, idx)| idx),
    );
    pairs
        .map(|(i, j)| {
            let idx = old_ids.get(&(i, j)).copied().unwrap_or_else(|| {
                delta.reordered = true;
                GAINED_CANDIDATE
            });
            (i, j, idx)
        })
        .collect()
}

/// Run candidate extraction over a materialized corpus (paper
/// Algorithm 1), as one borrowed batch of
/// [`extract_candidates_streaming`].
///
/// Returns candidates with stable ids (`BinaryId` in table order) and
/// aggregate stats. Parallelized with [`MapReduce::par_map`]; output is
/// deterministic.
pub fn extract_candidates(
    corpus: &Corpus,
    cfg: &ExtractionConfig,
    mr: &MapReduce,
) -> (Vec<BinaryTable>, ExtractionStats) {
    let (candidates, stats, _) =
        extract_candidates_streaming(&mut corpus.stream(), cfg, mr, corpus.len());
    (candidates, stats)
}

/// Candidate extraction over a [`TableSource`], pulled in batches of
/// up to `batch_tables` tables, plus the [`ExtractionCache`] that lets
/// subsequent corpus deltas re-extract incrementally.
///
/// Two passes over the source. Pass 1 builds the [`ValueIndex`]
/// incrementally, assigning global column ids in `(table, column)`
/// order. Pass 2 [`rewind`](TableSource::rewind)s and runs the
/// per-table extraction against the complete index. A source that
/// produces tables on the fly keeps at most one batch of raw tables
/// alive at any moment; a materialized corpus
/// ([`Corpus::stream`]) lends its tables without copying them.
///
/// `batch_tables` trades parallelism against residency; it has no
/// effect on the output.
pub fn extract_candidates_streaming<S: TableSource>(
    source: &mut S,
    cfg: &ExtractionConfig,
    mr: &MapReduce,
    batch_tables: usize,
) -> (Vec<BinaryTable>, ExtractionStats, ExtractionCache) {
    let batch_tables = batch_tables.max(1);
    let n_tables = source.table_count();

    // Pass 1: value index + global column id assignment.
    let mut index = ValueIndex::empty();
    let mut first_col: Vec<u32> = Vec::with_capacity(n_tables);
    let mut next = 0u32;
    source.for_each_batch(batch_tables, |strs, batch| {
        let distincts: Vec<Vec<Vec<Sym>>> =
            mr.par_map(batch, |t| t.columns.iter().map(|c| c.distinct()).collect());
        // The source interned this batch's strings while producing it.
        index.grow_symbols(strs.len());
        for (t, cols) in batch.iter().zip(distincts) {
            debug_assert_eq!(
                t.id.0 as usize,
                first_col.len(),
                "table ids must be dense and ascending in yield order"
            );
            first_col.push(next);
            for (ci, distinct) in cols.into_iter().enumerate() {
                index.add_column(GlobalColId(next + ci as u32), distinct);
            }
            next += t.width() as u32;
        }
    });
    assert_eq!(
        first_col.len(),
        n_tables,
        "source yielded {} tables but table_count() promised {n_tables}",
        first_col.len(),
    );

    // Pass 2: per-table extraction against the complete index.
    source.rewind();
    let mut all = Vec::new();
    let mut stats = ExtractionStats::default();
    let mut funnel = CoherenceFunnel::default();
    let mut tables: Vec<TableCache> = Vec::with_capacity(n_tables);
    let index_ref = &index;
    let first_ref = &first_col;
    source.for_each_batch(batch_tables, |strs, batch| {
        let outputs: Vec<TableExtraction> = mr.par_map(batch, |t| {
            extract_table(strs, index_ref, t, first_ref[t.id.0 as usize], cfg)
        });
        for (t, out) in batch.iter().zip(outputs) {
            merge_stats(&mut stats, &out.stats);
            funnel.merge(&out.funnel);
            let mut emitted = Vec::with_capacity(out.pairs.len());
            for (i, j, rows) in out.pairs {
                let id = BinaryId(all.len() as u32);
                emitted.push((i, j, id.0));
                all.push(candidate_of(t, id, i, j, rows));
            }
            tables.push(TableCache {
                alive: true,
                first_gid: first_ref[t.id.0 as usize],
                cols: out.cols,
                stats: out.stats,
                candidates: emitted,
            });
        }
    });
    let cache = ExtractionCache {
        index,
        tables,
        next_gid: next,
        next_candidate: all.len() as u32,
        funnel,
    };
    (all, stats, cache)
}

fn merge_stats(into: &mut ExtractionStats, from: &ExtractionStats) {
    into.tables += from.tables;
    into.columns += from.columns;
    into.columns_structural += from.columns_structural;
    into.columns_incoherent += from.columns_incoherent;
    into.pairs_possible += from.pairs_possible;
    into.pairs_considered += from.pairs_considered;
    into.pairs_failed_fd += from.pairs_failed_fd;
    into.pairs_numeric_left += from.pairs_numeric_left;
    into.candidates += from.candidates;
}

/// What a corpus delta did to the candidate set.
#[derive(Clone, Debug, Default)]
pub struct ExtractionDelta {
    /// Freshly extracted candidates of the added tables, with ids
    /// continuing after the session's existing candidate list.
    /// Meaningless when `reordered` — use
    /// [`ExtractionCache::rebuild_candidates`] instead.
    pub added: Vec<BinaryTable>,
    /// Candidate indices (into the session-wide list) tombstoned by
    /// the delta: candidates of removed tables, plus candidates of
    /// surviving tables whose column lost coherence. Meaningless when
    /// `reordered`.
    pub tombstoned: Vec<u32>,
    /// Candidates of row-patched tables that survived with *changed
    /// content*: same id, same `(left, right)` columns, new rows. When
    /// `reordered`, these candidates' cached scores are already
    /// invalidated (sentineled out of the surviving-id map that
    /// [`ExtractionCache::rebuild_candidates`] returns) and the entries
    /// here — under their **old** ids — are reporting-only.
    pub replaced: Vec<BinaryTable>,
    /// Aggregate stats over the live post-delta view — bit-identical to
    /// a fresh extraction of the post-delta corpus.
    pub stats: ExtractionStats,
    /// An old table *gained* a candidate under the post-delta
    /// coherence statistics (a borderline column crossed the
    /// threshold — any delta that grows the corpus shifts every NPMI
    /// via `N`, so this is routine for additive deltas). Gained
    /// candidates cannot be appended without breaking the candidate
    /// order a fresh run would produce, so tombstone/append patching
    /// is off the table: the caller must renumber via
    /// [`ExtractionCache::rebuild_candidates`]. The cache itself is
    /// fully advanced either way.
    pub reordered: bool,
    /// Old columns whose coherence verdict flipped.
    pub coherence_flips: usize,
    /// Old tables re-extracted because their kept-column set changed.
    pub tables_reextracted: usize,
}

/// Sentinel id of a candidate gained by a coherence flip-up: it has no
/// position in the old numbering; [`ExtractionCache::rebuild_candidates`]
/// assigns the real one.
const GAINED_CANDIDATE: u32 = u32::MAX;

/// Incremental extraction state: the live [`ValueIndex`] plus each
/// table's cached column verdicts and coherence evidence. Built by
/// [`extract_candidates_streaming`]; advanced by
/// [`apply_delta`](Self::apply_delta).
#[derive(Clone)]
pub struct ExtractionCache {
    index: ValueIndex,
    tables: Vec<TableCache>,
    next_gid: u32,
    next_candidate: u32,
    /// Cumulative sketch-filter funnel over every coherence pass this
    /// cache has run (the fresh build plus each delta's re-extracted
    /// tables). Diagnostics only — never compared for bit-identity.
    funnel: CoherenceFunnel,
}

impl ExtractionCache {
    /// Live tables.
    pub fn alive_tables(&self) -> usize {
        self.tables.iter().filter(|t| t.alive).count()
    }

    /// Cumulative coherence sketch-filter counters: how many sampled
    /// value pairs were resolved by the sketch bounds alone
    /// (`sketch_rejects`) versus probed against posting lists
    /// (`list_probes`), over every coherence pass this cache has run.
    pub fn coherence_funnel(&self) -> CoherenceFunnel {
        self.funnel
    }

    /// Total columns walked so far (the next global column id) — the
    /// corpus-size component of a session's fingerprint when the
    /// corpus was streamed rather than materialized.
    pub fn total_columns(&self) -> u32 {
        self.next_gid
    }

    /// Advance the cache by one corpus delta and report the candidate
    /// changes.
    ///
    /// `added` must be the ids of tables appended to `corpus` since the
    /// cache last saw it (in order); `removed` must be live table ids;
    /// `patches` are row-granular edits whose [`RowPatch`]es were
    /// already applied to `corpus` (via [`Corpus::apply_row_patch`]) —
    /// the pre-patch column multisets are reconstructed from the
    /// post-patch corpus as `new − inserted + deleted`. The cache is
    /// fully advanced on return; when the delta flags `reordered` the
    /// caller must renumber through
    /// [`rebuild_candidates`](Self::rebuild_candidates) instead of
    /// using the tombstone/append/replace lists.
    ///
    /// # Panics
    /// On out-of-order `added` ids, unknown or dead `removed` ids, and
    /// patches that target a dead table, a table removed by the same
    /// delta, or the same table twice.
    pub fn apply_delta(
        &mut self,
        corpus: &Corpus,
        added: &[TableId],
        removed: &[TableId],
        patches: &[RowPatch],
        cfg: &ExtractionConfig,
        mr: &MapReduce,
    ) -> ExtractionDelta {
        let mut delta = ExtractionDelta::default();

        // Per-value membership in the delta's columns, as
        // `(delta column sequence id, ±1)`: the cached co-occurrence
        // counts are patched by intersecting these *tiny* lists (a
        // column pair's count changes only by the delta columns that
        // contain both values) instead of re-intersecting full posting
        // lists.
        let mut delta_cols: HashMap<mapsynth_corpus::Sym, Vec<u32>> = HashMap::new();
        let mut col_sign: Vec<i32> = Vec::new();
        let register = |delta_cols: &mut HashMap<mapsynth_corpus::Sym, Vec<u32>>,
                        col_sign: &mut Vec<i32>,
                        distinct: &[mapsynth_corpus::Sym],
                        sign: i32| {
            let seq = col_sign.len() as u32;
            col_sign.push(sign);
            for &v in distinct {
                delta_cols.entry(v).or_default().push(seq);
            }
        };

        // 1. Remove evidence of removed tables.
        for &tid in removed {
            let tc = self
                .tables
                .get_mut(tid.0 as usize)
                .expect("removed table id unknown to the extraction cache");
            assert!(tc.alive, "table {tid:?} removed twice");
            tc.alive = false;
            let table = corpus.table(tid);
            for (ci, col) in table.columns.iter().enumerate() {
                let distinct = col.distinct();
                register(&mut delta_cols, &mut col_sign, &distinct, -1);
                self.index
                    .remove_column(GlobalColId(tc.first_gid + ci as u32), distinct);
            }
            delta
                .tombstoned
                .extend(tc.candidates.iter().map(|&(_, _, idx)| idx));
            tc.candidates.clear();
        }

        // 1b. Row-patched tables: swap per-column value *membership* in
        // the index (the column keeps its gid) and register the full
        // old/new distinct sets as a −1/+1 delta-column pair. Values in
        // both sets cancel in the value counts, but registering both
        // full sets is what keeps the *pair* arithmetic exact: a pair
        // with one staying and one leaving value shares only the −1
        // pseudo-column, one staying and one entering only the +1 —
        // exactly the `[u,v ∈ new] − [u,v ∈ old]` change a fresh
        // intersection would see.
        self.index.grow_symbols(corpus.interner.len());
        let mut patched: Vec<u32> = Vec::new();
        for patch in patches {
            let tc = self
                .tables
                .get(patch.table.0 as usize)
                .expect("patched table id unknown to the extraction cache");
            assert!(tc.alive, "patched table {:?} is not live", patch.table);
            assert!(
                !removed.contains(&patch.table),
                "table {:?} both patched and removed in one delta",
                patch.table
            );
            assert!(
                !patched.contains(&patch.table.0),
                "table {:?} patched twice in one delta",
                patch.table
            );
            patched.push(patch.table.0);
            let table = corpus.table(patch.table);
            let first_gid = tc.first_gid;
            for (ci, col) in table.columns.iter().enumerate() {
                let new_distinct = col.distinct();
                let mut old_counts: HashMap<Sym, i64> = HashMap::with_capacity(col.values.len());
                for &v in &col.values {
                    *old_counts.entry(v).or_default() += 1;
                }
                for row in &patch.inserted {
                    let s = corpus
                        .interner
                        .get(&row[ci])
                        .expect("inserted value was interned by apply_row_patch");
                    *old_counts.entry(s).or_default() -= 1;
                }
                for row in &patch.deleted {
                    let s = corpus
                        .interner
                        .get(&row[ci])
                        .expect("deleted value existed in the corpus");
                    *old_counts.entry(s).or_default() += 1;
                }
                let mut old_distinct: Vec<Sym> = old_counts
                    .iter()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(&v, _)| v)
                    .collect();
                old_distinct.sort_unstable();
                let new_set: HashSet<Sym> = new_distinct.iter().copied().collect();
                let leaving: Vec<Sym> = old_distinct
                    .iter()
                    .copied()
                    .filter(|v| !new_set.contains(v))
                    .collect();
                let entering: Vec<Sym> = new_distinct
                    .iter()
                    .copied()
                    .filter(|v| old_counts.get(v).is_none_or(|&c| c <= 0))
                    .collect();
                if leaving.is_empty() && entering.is_empty() {
                    // Pure duplicate-count churn: no evidence moved.
                    continue;
                }
                self.index.patch_column(
                    GlobalColId(first_gid + ci as u32),
                    leaving.iter().copied(),
                    entering.iter().copied(),
                );
                register(&mut delta_cols, &mut col_sign, &old_distinct, -1);
                register(&mut delta_cols, &mut col_sign, &new_distinct, 1);
            }
        }

        // 2. Register added tables' evidence (fresh, never-reused gids).
        self.index.grow_symbols(corpus.interner.len());
        for &tid in added {
            assert_eq!(
                tid.0 as usize,
                self.tables.len(),
                "added table ids must be contiguous after the cached corpus"
            );
            let table = corpus.table(tid);
            let first_gid = self.next_gid;
            self.next_gid += table.width() as u32;
            for (ci, col) in table.columns.iter().enumerate() {
                let distinct = col.distinct();
                register(&mut delta_cols, &mut col_sign, &distinct, 1);
                self.index
                    .add_column(GlobalColId(first_gid + ci as u32), distinct);
            }
            self.tables.push(TableCache {
                alive: true,
                first_gid,
                cols: Vec::new(),
                stats: ExtractionStats::default(),
                candidates: Vec::new(),
            });
        }

        // 3. Re-score every live old column against the post-delta
        // evidence: counts patched arithmetically from the delta-column
        // lists, the NPMI mean recomputed from the patched counts
        // (bit-identical to a fresh gather). The per-value lists are
        // also flattened into a symbol-indexed lookup so the
        // O(samples²) pair loop probes in O(1).
        let mut touched_lists: Vec<Option<&[u32]>> = vec![None; corpus.interner.len()];
        for (sym, seqs) in &delta_cols {
            touched_lists[sym.index()] = Some(seqs.as_slice());
        }
        // Net column delta per value: Σ signs of its delta columns.
        let value_delta =
            |seqs: &[u32]| -> i64 { seqs.iter().map(|&s| col_sign[s as usize] as i64).sum() };
        // Co-occurrence delta of a value pair: Σ signs over delta
        // columns containing both (sorted-list intersection, lists are
        // at most the delta's column count long and usually tiny).
        let pair_delta = |a: &[u32], b: &[u32]| -> i64 {
            let (mut i, mut j, mut d) = (0usize, 0usize, 0i64);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        d += col_sign[a[i] as usize] as i64;
                        i += 1;
                        j += 1;
                    }
                }
            }
            d
        };
        let total = self.index.total_columns();
        // Patched tables are excluded: their own column content changed
        // (distinct sets, and with them the coherence sample lists), so
        // they are re-scored from scratch in step 4b instead of
        // arithmetically.
        let old_live: Vec<u32> = self
            .tables
            .iter()
            .enumerate()
            .take(self.tables.len() - added.len())
            .filter(|&(ti, t)| t.alive && !patched.contains(&(ti as u32)))
            .map(|(ti, _)| ti as u32)
            .collect();
        let touched_ref = &touched_lists;
        let tables_ref = &self.tables;
        // (table, column, new value_counts, new pair_counts, coherence)
        type Rescored = Vec<(u32, Vec<u32>, Vec<u32>, f64)>;
        let rescored: Vec<Rescored> = mr.par_map(&old_live, |&ti| {
            let tc = &tables_ref[ti as usize];
            let mut out = Vec::new();
            let mut lists: Vec<Option<&[u32]>> = Vec::new();
            for (ci, col) in tc.cols.iter().enumerate() {
                let Some(detail) = &col.detail else { continue };
                let mut value_counts = detail.value_counts.clone();
                lists.clear();
                let mut any = false;
                for (k, &u) in detail.samples.iter().enumerate() {
                    let l = touched_ref[u.index()];
                    lists.push(l);
                    if let Some(seqs) = l {
                        value_counts[k] = (value_counts[k] as i64 + value_delta(seqs)) as u32;
                        any = true;
                    }
                }
                let mut pair_counts = detail.pair_counts.clone();
                if any {
                    let mut k = 0usize;
                    for i in 0..detail.samples.len() {
                        for j in (i + 1)..detail.samples.len() {
                            if let (Some(a), Some(b)) = (lists[i], lists[j]) {
                                pair_counts[k] = (pair_counts[k] as i64 + pair_delta(a, b)) as u32;
                            }
                            k += 1;
                        }
                    }
                }
                let coherence = coherence_from_counts(&value_counts, &pair_counts, total);
                out.push((ci as u32, value_counts, pair_counts, coherence));
            }
            out
        });

        // 4. Apply the re-scores; re-extract tables whose kept set
        // flipped, tombstoning lost candidates and flagging `reordered`
        // on gains.
        let mut changed_tables: Vec<u32> = Vec::new();
        for (&ti, cols) in old_live.iter().zip(rescored) {
            let tc = &mut self.tables[ti as usize];
            let mut changed = false;
            for (ci, value_counts, pair_counts, coherence) in cols {
                let col = &mut tc.cols[ci as usize];
                let detail = col.detail.as_mut().expect("re-scored column has detail");
                detail.value_counts = value_counts;
                detail.pair_counts = pair_counts;
                col.coherence = coherence;
                let keep = coherence >= cfg.min_coherence;
                if keep != col.kept {
                    delta.coherence_flips += 1;
                    changed = true;
                }
                col.kept = keep;
            }
            if changed {
                changed_tables.push(ti);
            }
        }
        for ti in changed_tables {
            delta.tables_reextracted += 1;
            let tc = &mut self.tables[ti as usize];
            let table = &corpus.tables[ti as usize];
            let kept: Vec<usize> = tc
                .cols
                .iter()
                .enumerate()
                .filter(|(_, c)| c.kept)
                .map(|(ci, _)| ci)
                .collect();
            let mut stats = ExtractionStats {
                tables: 1,
                columns: tc.cols.len(),
                columns_structural: tc.cols.iter().filter(|c| !c.structural).count(),
                columns_incoherent: tc.cols.iter().filter(|c| c.structural && !c.kept).count(),
                pairs_possible: tc.cols.len() * tc.cols.len().saturating_sub(1),
                ..Default::default()
            };
            let pairs = enumerate_pairs(&corpus.interner, table, &kept, cfg, &mut stats);
            tc.stats = stats;
            tc.candidates = carry_candidate_ids(
                &tc.candidates,
                pairs.iter().map(|&(i, j, _)| (i, j)),
                &mut delta,
            );
        }

        // 4b. Re-extract row-patched tables in full against the
        // post-delta evidence: structural filters, coherence samples,
        // FD checks and pair enumeration all depend on row content, so
        // nothing cached about these tables' own columns survives a
        // patch. A surviving (left, right) pair keeps its candidate id
        // with replaced rows; a lost pair tombstones; a gained pair
        // forces a renumber exactly like a coherence flip-up.
        let repatched = self.extract_tables(corpus, &patched, cfg, mr);
        for (&ti, out) in patched.iter().zip(repatched) {
            delta.tables_reextracted += 1;
            self.funnel.merge(&out.funnel);
            let table = &corpus.tables[ti as usize];
            let tc = &mut self.tables[ti as usize];
            delta.coherence_flips += tc
                .cols
                .iter()
                .zip(&out.cols)
                .filter(|(a, b)| a.kept != b.kept)
                .count();
            let emitted = carry_candidate_ids(
                &tc.candidates,
                out.pairs.iter().map(|&(i, j, _)| (i, j)),
                &mut delta,
            );
            tc.cols = out.cols;
            tc.stats = out.stats;
            for (&(i, j, idx), (_, _, rows)) in emitted.iter().zip(out.pairs) {
                if idx != GAINED_CANDIDATE {
                    delta
                        .replaced
                        .push(candidate_of(table, BinaryId(idx), i, j, rows));
                }
            }
            tc.candidates = emitted;
        }

        // 5. Extract the added tables against the post-delta evidence.
        let added_idx: Vec<u32> = added.iter().map(|t| t.0).collect();
        let extracted = self.extract_tables(corpus, &added_idx, cfg, mr);
        for (&ti, out) in added_idx.iter().zip(extracted) {
            self.funnel.merge(&out.funnel);
            let table = &corpus.tables[ti as usize];
            let tc = &mut self.tables[ti as usize];
            tc.cols = out.cols;
            tc.stats = out.stats;
            for (i, j, rows) in out.pairs {
                let id = BinaryId(self.next_candidate);
                self.next_candidate += 1;
                tc.candidates.push((i, j, id.0));
                delta.added.push(candidate_of(table, id, i, j, rows));
            }
        }

        // 6. Aggregate stats over the live view (what a fresh run on
        // the post-delta corpus reports).
        let mut stats = ExtractionStats::default();
        for tc in self.tables.iter().filter(|t| t.alive) {
            merge_stats(&mut stats, &tc.stats);
        }
        delta.stats = stats;
        delta.tombstoned.sort_unstable();
        // A renumber rebuilds the candidate list from scratch, and the
        // surviving-id map must not carry stale scores: invalidate
        // every content-replaced candidate now (its rows are rebuilt
        // from the patched corpus by `rebuild_candidates` anyway).
        if delta.reordered {
            let ids: Vec<u32> = delta.replaced.iter().map(|c| c.id.0).collect();
            self.sentinel_candidates(&ids);
        }
        delta
    }

    /// Extract the tables at `tis` in full against the current index.
    fn extract_tables(
        &self,
        corpus: &Corpus,
        tis: &[u32],
        cfg: &ExtractionConfig,
        mr: &MapReduce,
    ) -> Vec<TableExtraction> {
        mr.par_map(tis, |&ti| {
            let table = &corpus.tables[ti as usize];
            let first_gid = self.tables[ti as usize].first_gid;
            extract_table(&corpus.interner, &self.index, table, first_gid, cfg)
        })
    }

    /// Number of live candidates the cache currently tracks.
    pub fn live_candidates(&self) -> usize {
        self.tables
            .iter()
            .filter(|t| t.alive)
            .map(|t| t.candidates.len())
            .sum()
    }

    /// Ids of every live candidate, in live-table order. The
    /// incremental session walks these to probe how much of its
    /// value space is still referenced (the compaction trigger).
    ///
    /// # Panics
    /// If a renumber is pending (sentineled candidates have no id).
    pub fn live_candidate_ids(&self) -> Vec<u32> {
        self.tables
            .iter()
            .filter(|t| t.alive)
            .flat_map(|t| t.candidates.iter().map(|c| c.2))
            .inspect(|&id| {
                assert_ne!(
                    id, GAINED_CANDIDATE,
                    "live_candidate_ids with a renumber pending"
                )
            })
            .collect()
    }

    /// Invalidate the given live candidates ahead of a renumber: their
    /// entries are replaced by the gained-candidate sentinel, so
    /// [`rebuild_candidates`](Self::rebuild_candidates) assigns them
    /// fresh ids and *excludes* them from the surviving-id map —
    /// downstream caches must re-derive their state. The incremental
    /// session uses this when it detects a content change the
    /// extraction layer cannot see (a replaced candidate whose
    /// normalized projection newly became usable).
    pub fn sentinel_candidates(&mut self, ids: &[u32]) {
        if ids.is_empty() {
            return;
        }
        let set: HashSet<u32> = ids.iter().copied().collect();
        let mut found = 0usize;
        for tc in self.tables.iter_mut().filter(|t| t.alive) {
            for c in tc.candidates.iter_mut() {
                if c.2 != GAINED_CANDIDATE && set.contains(&c.2) {
                    c.2 = GAINED_CANDIDATE;
                    found += 1;
                }
            }
        }
        assert_eq!(
            found,
            set.len(),
            "sentinel_candidates: some ids are unknown, dead, or already sentineled"
        );
    }

    /// Drop tombstoned tables and renumber the surviving candidates
    /// densely, in place — the extraction half of a session compaction.
    /// Table positions shrink to the live tables in order (matching
    /// [`Corpus::retain_interned`] of the live set); candidate ids are
    /// renumbered in `(table, pair)` order, which equals ascending old
    /// id order, so the returned old → new id map is monotone. Global
    /// column ids are *not* renumbered: dead gids already carry no
    /// postings, the coherence arithmetic only ever uses counts, and
    /// keeping them avoids rewriting every posting list.
    ///
    /// # Panics
    /// If called while a `reordered` delta is pending (sentineled
    /// candidates present).
    pub fn compact(&mut self) -> Vec<(u32, u32)> {
        self.tables.retain(|t| t.alive);
        let mut id_map = Vec::new();
        let mut next = 0u32;
        for tc in &mut self.tables {
            for c in tc.candidates.iter_mut() {
                assert_ne!(
                    c.2, GAINED_CANDIDATE,
                    "compact called with a renumber pending"
                );
                id_map.push((c.2, next));
                c.2 = next;
                next += 1;
            }
        }
        debug_assert!(
            id_map.windows(2).all(|w| w[0].0 < w[1].0),
            "live candidate ids must ascend in (table, pair) order"
        );
        self.next_candidate = next;
        id_map
    }

    /// Reassemble the full candidate list from the cache in fresh
    /// `(table, column-pair)` order, renumbering candidate ids densely
    /// — the renumber step of a `reordered` delta. The list (and its
    /// stats) is exactly what [`extract_candidates`] produces on the
    /// live post-delta corpus.
    ///
    /// Returns the candidates, aggregate stats, and the old → new id
    /// mapping of surviving candidates (ascending in both components;
    /// gained candidates appear only under new ids). The cache's ids
    /// are rewritten to the new numbering.
    pub fn rebuild_candidates(
        &mut self,
        corpus: &Corpus,
    ) -> (Vec<BinaryTable>, ExtractionStats, Vec<(u32, u32)>) {
        let mut all = Vec::new();
        let mut stats = ExtractionStats::default();
        let mut id_map = Vec::new();
        for ti in 0..self.tables.len() {
            let tc = &mut self.tables[ti];
            if !tc.alive {
                continue;
            }
            merge_stats(&mut stats, &tc.stats);
            let table = &corpus.tables[ti];
            for (i, j, old) in tc.candidates.iter_mut() {
                let new_id = all.len() as u32;
                if *old != GAINED_CANDIDATE {
                    id_map.push((*old, new_id));
                }
                *old = new_id;
                let rows = row_pairs(table, *i, *j);
                all.push(candidate_of(table, BinaryId(new_id), *i, *j, rows));
            }
        }
        self.next_candidate = all.len() as u32;
        (all, stats, id_map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth_gen::procedural::ProceduralConfig;
    use mapsynth_gen::{generate_web, WebConfig};

    fn small_corpus() -> mapsynth_gen::webgen::WebCorpus {
        generate_web(&WebConfig {
            tables: 250,
            domains: 30,
            procedural: ProceduralConfig {
                families: 8,
                temporal_families: 1,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    /// A corpus delivered the way an on-the-fly source delivers it:
    /// owned batches through the trait's default `for_each_batch`, not
    /// `CorpusStream`'s borrowed chunks.
    struct OwnedBatches<'a>(mapsynth_corpus::CorpusStream<'a>);

    impl TableSource for OwnedBatches<'_> {
        fn table_count(&self) -> usize {
            self.0.table_count()
        }
        fn interner(&self) -> &Interner {
            self.0.interner()
        }
        fn domain_names(&self) -> &[String] {
            self.0.domain_names()
        }
        fn next_table(&mut self) -> Option<Table> {
            self.0.next_table()
        }
        fn rewind(&mut self) {
            self.0.rewind()
        }
    }

    #[test]
    fn extracts_candidates_and_prunes() {
        let wc = small_corpus();
        let mr = MapReduce::new(4);
        let (cands, stats) = extract_candidates(&wc.corpus, &ExtractionConfig::default(), &mr);
        assert!(!cands.is_empty());
        assert_eq!(stats.tables, wc.corpus.len());
        assert!(
            stats.total_prune_rate() > 0.5,
            "total prune rate {:.2} too low (paper ~0.78)",
            stats.total_prune_rate()
        );
        // Every candidate has both orientations possible but only FD-
        // satisfying ones; ids are sequential.
        for (i, c) in cands.iter().enumerate() {
            assert_eq!(c.id.0 as usize, i);
            assert!(c.len() >= 2);
        }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let wc = small_corpus();
        let (a, _) =
            extract_candidates(&wc.corpus, &ExtractionConfig::default(), &MapReduce::new(1));
        let (b, _) =
            extract_candidates(&wc.corpus, &ExtractionConfig::default(), &MapReduce::new(8));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.pairs, y.pairs);
        }
    }

    #[test]
    fn incoherent_columns_removed() {
        let wc = small_corpus();
        let mr = MapReduce::new(4);
        let (_, stats) = extract_candidates(&wc.corpus, &ExtractionConfig::default(), &mr);
        assert!(
            stats.columns_incoherent > 0,
            "generator injects incoherent columns; none were filtered"
        );
    }

    #[test]
    fn fd_filter_blocks_non_functional_pairs() {
        let mut corpus = mapsynth_corpus::Corpus::new();
        let d = corpus.domain("x");
        // A many-to-many pair in an otherwise coherent context.
        for _ in 0..6 {
            corpus.push_table(
                d,
                vec![
                    (Some("team"), vec!["Bears", "Lions", "Packers", "Vikings"]),
                    (Some("other"), vec!["Lions", "Bears", "Vikings", "Packers"]),
                ],
            );
        }
        // team → opponent changes per table, so FD holds locally here
        // (each left appears once); construct a true violation:
        corpus.push_table(
            d,
            vec![
                (
                    Some("team"),
                    vec!["Bears", "Bears", "Lions", "Lions", "Packers", "Vikings"],
                ),
                (
                    Some("date"),
                    vec!["Lions", "Packers", "Bears", "Vikings", "Bears", "Lions"],
                ),
            ],
        );
        let mr = MapReduce::new(2);
        let (cands, stats) = extract_candidates(
            &corpus,
            &ExtractionConfig {
                min_distinct: 3,
                ..Default::default()
            },
            &mr,
        );
        assert!(stats.pairs_failed_fd >= 2, "stats: {stats:?}");
        // the violating table emitted no candidates
        assert!(cands
            .iter()
            .all(|c| c.source != corpus.tables.last().unwrap().id));
    }

    /// The incremental contract: after a delta, the cache's view of the
    /// candidate set (old minus tombstoned plus added) must exactly
    /// match a fresh extraction of the post-delta corpus — same sources,
    /// same column pairs, same rows, same aggregate stats.
    #[test]
    fn delta_matches_fresh_extraction() {
        let wc = small_corpus();
        let mut corpus = wc.corpus;
        let cfg = ExtractionConfig::default();
        let mr = MapReduce::new(2);
        let (base, _, mut cache) =
            extract_candidates_streaming(&mut corpus.stream(), &cfg, &mr, corpus.len());

        // Remove a spread of tables, add clones of two strongly
        // coherent tables under a new domain (content overlap on
        // purpose; sources chosen so no borderline column flips —
        // flips exercise the renumber path, tested separately below).
        let removed: Vec<TableId> = [3u32, 57, 110, 200].iter().map(|&i| TableId(i)).collect();
        let nd = corpus.domain("delta.example");
        let mut added = Vec::new();
        for &src in &[5u32, 6] {
            let cols: Vec<mapsynth_corpus::Column> = corpus.tables[src as usize].columns.clone();
            added.push(corpus.push_interned_table(nd, cols));
        }

        let delta = cache.apply_delta(&corpus, &added, &removed, &[], &cfg, &mr);
        assert!(!delta.reordered, "this delta must not force a renumber");

        // Survivors in order + added, from the incremental path.
        let tomb: std::collections::HashSet<u32> = delta.tombstoned.iter().copied().collect();
        let mut incremental: Vec<&BinaryTable> =
            base.iter().filter(|c| !tomb.contains(&c.id.0)).collect();
        incremental.extend(delta.added.iter());

        // Fresh extraction of the post-delta corpus.
        let removed_set: std::collections::HashSet<TableId> = removed.into_iter().collect();
        let fresh_corpus = corpus.subset(|tid| !removed_set.contains(&tid));
        let (fresh, fresh_stats) = extract_candidates(&fresh_corpus, &cfg, &mr);

        assert_eq!(incremental.len(), fresh.len(), "candidate count");
        assert_eq!(delta.stats, fresh_stats, "aggregate stats");
        for (a, b) in incremental.iter().zip(&fresh) {
            assert_eq!((a.left_col, a.right_col), (b.left_col, b.right_col));
            // Sym ids (and thus the sym-sorted pair order) differ
            // across corpora; compare the string pair sets.
            let strs = |c: &Corpus, t: &BinaryTable| -> Vec<(String, String)> {
                let mut v: Vec<(String, String)> = t
                    .pairs
                    .iter()
                    .map(|&(l, r)| (c.str_of(l).to_string(), c.str_of(r).to_string()))
                    .collect();
                v.sort();
                v
            };
            assert_eq!(strs(&corpus, a), strs(&fresh_corpus, b));
        }
    }

    /// A delta that pushes a borderline old column *over* the
    /// coherence threshold makes an old table gain a candidate —
    /// tombstone/append patching cannot reproduce a fresh run's
    /// candidate order, so the delta flags `reordered` and
    /// `rebuild_candidates` renumbers. Cloning a weakly coherent table
    /// reliably triggers it (the clone co-occurs with every value of
    /// its source).
    #[test]
    fn borderline_gain_renumbers_to_fresh_order() {
        let wc = small_corpus();
        let mut corpus = wc.corpus;
        let cfg = ExtractionConfig::default();
        let mr = MapReduce::new(2);
        let (base, _, mut cache) =
            extract_candidates_streaming(&mut corpus.stream(), &cfg, &mr, corpus.len());
        let nd = corpus.domain("delta.example");
        let mut added = Vec::new();
        for &src in &[0u32, 1] {
            let cols = corpus.tables[src as usize].columns.clone();
            added.push(corpus.push_interned_table(nd, cols));
        }
        let delta = cache.apply_delta(&corpus, &added, &[], &[], &cfg, &mr);
        assert!(delta.reordered, "borderline flip-up must demand a renumber");
        assert!(delta.coherence_flips > 0);

        let (rebuilt, stats, id_map) = cache.rebuild_candidates(&corpus);
        let (fresh, fresh_stats) = extract_candidates(&corpus, &cfg, &mr);
        assert_eq!(rebuilt.len(), fresh.len(), "candidate count");
        assert_eq!(stats, fresh_stats, "aggregate stats");
        for (a, b) in rebuilt.iter().zip(&fresh) {
            assert_eq!(a.source, b.source);
            assert_eq!((a.left_col, a.right_col), (b.left_col, b.right_col));
            assert_eq!(a.pairs, b.pairs);
        }
        // The id map is monotone (surviving candidates keep their
        // relative order) and covers only pre-delta ids.
        assert!(id_map
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        assert!(id_map.iter().all(|&(_, n)| (n as usize) < rebuilt.len()));
        let _ = base;
    }

    /// Extraction over owned batches of any size must be bit-identical
    /// to extraction over the borrowed corpus: same candidates (ids,
    /// sources, rows, headers), same stats, and a cache that behaves
    /// identically under a subsequent delta.
    #[test]
    fn streaming_matches_batch_bit_for_bit() {
        let wc = small_corpus();
        let mut corpus = wc.corpus;
        let cfg = ExtractionConfig::default();
        let mr = MapReduce::new(2);
        let (batch, batch_stats, mut batch_cache) =
            extract_candidates_streaming(&mut corpus.stream(), &cfg, &mr, corpus.len());
        for batch_size in [1usize, 7, 64, 10_000] {
            let mut stream = OwnedBatches(corpus.stream());
            let (streamed, stream_stats, _) =
                extract_candidates_streaming(&mut stream, &cfg, &mr, batch_size);
            assert_eq!(stream_stats, batch_stats, "batch_size {batch_size}");
            assert_eq!(streamed.len(), batch.len());
            for (a, b) in streamed.iter().zip(&batch) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.source, b.source);
                assert_eq!((a.left_col, a.right_col), (b.left_col, b.right_col));
                assert_eq!(a.pairs, b.pairs);
            }
        }
        // Cache equivalence: the same delta applied to the streaming
        // cache and the batch cache produces identical results.
        let (_, _, mut stream_cache) =
            extract_candidates_streaming(&mut OwnedBatches(corpus.stream()), &cfg, &mr, 32);
        let removed: Vec<TableId> = vec![TableId(10), TableId(42)];
        let nd = corpus.domain("delta.example");
        let cols = corpus.tables[5].columns.clone();
        let added = vec![corpus.push_interned_table(nd, cols)];
        let da = batch_cache.apply_delta(&corpus, &added, &removed, &[], &cfg, &mr);
        let db = stream_cache.apply_delta(&corpus, &added, &removed, &[], &cfg, &mr);
        assert_eq!(da.stats, db.stats);
        assert_eq!(da.tombstoned, db.tombstoned);
        assert_eq!(da.reordered, db.reordered);
        assert_eq!(da.added.len(), db.added.len());
        for (a, b) in da.added.iter().zip(&db.added) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.pairs, b.pairs);
        }
    }

    /// Streaming extraction over the *generator* source (no
    /// materialized corpus at all) matches extraction over the
    /// generated corpus.
    #[test]
    fn streaming_from_generator_matches_materialized() {
        let cfg_gen = WebConfig {
            tables: 250,
            domains: 30,
            procedural: ProceduralConfig {
                families: 8,
                temporal_families: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let cfg = ExtractionConfig::default();
        let mr = MapReduce::new(2);
        let wc = generate_web(&cfg_gen);
        let (batch, batch_stats) = extract_candidates(&wc.corpus, &cfg, &mr);
        let mut stream = mapsynth_gen::webgen::WebTableStream::new(cfg_gen);
        let (streamed, stream_stats, _) = extract_candidates_streaming(&mut stream, &cfg, &mr, 64);
        assert_eq!(stream_stats, batch_stats);
        assert_eq!(streamed.len(), batch.len());
        for (a, b) in streamed.iter().zip(&batch) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.source, b.source);
            assert_eq!((a.left_col, a.right_col), (b.left_col, b.right_col));
            assert_eq!(a.pairs, b.pairs);
        }
    }

    /// Composing deltas: a second delta over the advanced cache still
    /// matches fresh extraction.
    #[test]
    fn deltas_compose() {
        let wc = small_corpus();
        let mut corpus = wc.corpus;
        let cfg = ExtractionConfig::default();
        let mr = MapReduce::new(2);
        let (base, _, mut cache) =
            extract_candidates_streaming(&mut corpus.stream(), &cfg, &mr, corpus.len());

        let mut tombstoned: std::collections::HashSet<u32> = Default::default();
        let mut appended: Vec<BinaryTable> = Vec::new();
        let mut removed_all: std::collections::HashSet<TableId> = Default::default();

        for step in 0..2 {
            let removed: Vec<TableId> = vec![TableId(20 + step * 31), TableId(99 + step)];
            let nd = corpus.domain(&format!("delta-{step}.example"));
            let src = 5 + step as usize * 7;
            let cols = corpus.tables[src].columns.clone();
            let added = vec![corpus.push_interned_table(nd, cols)];
            let delta = cache.apply_delta(&corpus, &added, &removed, &[], &cfg, &mr);
            assert!(!delta.reordered);
            tombstoned.extend(delta.tombstoned.iter().copied());
            appended.extend(delta.added);
            removed_all.extend(removed);
        }

        let mut incremental: Vec<&BinaryTable> = base
            .iter()
            .chain(appended.iter())
            .filter(|c| !tombstoned.contains(&c.id.0))
            .collect();
        incremental.sort_by_key(|c| c.id.0);

        let fresh_corpus = corpus.subset(|tid| !removed_all.contains(&tid));
        let (fresh, _) = extract_candidates(&fresh_corpus, &cfg, &mr);
        assert_eq!(incremental.len(), fresh.len());
        for (a, b) in incremental.iter().zip(&fresh) {
            assert_eq!((a.left_col, a.right_col), (b.left_col, b.right_col));
        }
    }

    /// A row patch advances the cache to exactly what a fresh
    /// extraction of the patched corpus produces: same candidate set,
    /// same stats, with surviving candidates keeping their ids and
    /// reporting replaced rows.
    #[test]
    fn row_patch_matches_fresh_extraction() {
        let wc = small_corpus();
        let mut corpus = wc.corpus;
        let cfg = ExtractionConfig::default();
        let mr = MapReduce::new(2);
        let (base, _, mut cache) =
            extract_candidates_streaming(&mut corpus.stream(), &cfg, &mr, corpus.len());

        // Pick a table that emitted candidates, swap one row for two
        // new ones (one value reused from another table to overlap).
        let src = base[0].source;
        let t = corpus.table(src);
        let row_of = |c: &Corpus, t: &Table, ri: usize| -> Vec<String> {
            t.columns
                .iter()
                .map(|col| c.str_of(col.values[ri]).to_string())
                .collect()
        };
        let deleted = vec![row_of(&corpus, t, 0)];
        let width = t.width();
        // Insert rows copied from a same-width sibling so the new
        // values already co-occur in the corpus (a row of synthetic
        // strings would legitimately sink the column's coherence and
        // tombstone the candidate instead of replacing it).
        let donor = corpus
            .tables
            .iter()
            .find(|d| d.id != src && d.width() == width && d.rows() >= 2)
            .expect("corpus has a same-width donor table");
        let inserted = vec![row_of(&corpus, donor, 0), row_of(&corpus, donor, 1)];
        let patch = RowPatch {
            table: src,
            deleted,
            inserted,
        };
        corpus.apply_row_patch(&patch);

        let delta = cache.apply_delta(&corpus, &[], &[], &[patch], &cfg, &mr);
        let (fresh, fresh_stats, _) =
            extract_candidates_streaming(&mut corpus.stream(), &cfg, &mr, corpus.len());
        assert_eq!(delta.stats, fresh_stats, "aggregate stats");

        if delta.reordered {
            let (rebuilt, stats, _) = cache.rebuild_candidates(&corpus);
            assert_eq!(stats, fresh_stats);
            assert_eq!(rebuilt.len(), fresh.len());
            for (a, b) in rebuilt.iter().zip(&fresh) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.pairs, b.pairs);
            }
            return;
        }
        // Same corpus, same interner: candidates must match the fresh
        // run bit for bit after swapping in the replaced rows.
        let tomb: std::collections::HashSet<u32> = delta.tombstoned.iter().copied().collect();
        let replaced: std::collections::HashMap<u32, &BinaryTable> =
            delta.replaced.iter().map(|c| (c.id.0, c)).collect();
        let mut incremental: Vec<&BinaryTable> = base
            .iter()
            .map(|c| replaced.get(&c.id.0).copied().unwrap_or(c))
            .filter(|c| !tomb.contains(&c.id.0))
            .collect();
        incremental.extend(delta.added.iter());
        assert_eq!(incremental.len(), fresh.len(), "candidate count");
        assert!(
            !delta.replaced.is_empty(),
            "the patch touched an emitting table, so some candidate must be replaced"
        );
        let fresh_sorted = {
            let mut v: Vec<&BinaryTable> = fresh.iter().collect();
            v.sort_by_key(|c| c.id.0);
            v
        };
        incremental.sort_by_key(|c| c.id.0);
        for (a, b) in incremental.iter().zip(&fresh_sorted) {
            assert_eq!(a.source, b.source);
            assert_eq!((a.left_col, a.right_col), (b.left_col, b.right_col));
            assert_eq!(a.pairs, b.pairs, "rows of candidate {:?}", a.id);
        }
    }

    /// Degenerate patches at the extraction layer: emptying a table
    /// keeps it live with zero candidates, and a patch to a removed
    /// table panics rather than corrupting the cache.
    #[test]
    fn emptying_patch_drops_all_candidates() {
        let wc = small_corpus();
        let mut corpus = wc.corpus;
        let cfg = ExtractionConfig::default();
        let mr = MapReduce::new(2);
        let (base, _, mut cache) =
            extract_candidates_streaming(&mut corpus.stream(), &cfg, &mr, corpus.len());
        let src = base[0].source;
        let t = corpus.table(src);
        let deleted: Vec<Vec<String>> = (0..t.rows())
            .map(|ri| {
                t.columns
                    .iter()
                    .map(|col| corpus.str_of(col.values[ri]).to_string())
                    .collect()
            })
            .collect();
        let patch = RowPatch {
            table: src,
            deleted,
            inserted: vec![],
        };
        corpus.apply_row_patch(&patch);
        assert_eq!(corpus.table(src).rows(), 0);
        let delta = cache.apply_delta(&corpus, &[], &[], &[patch], &cfg, &mr);
        if delta.reordered {
            let (rebuilt, stats, _) = cache.rebuild_candidates(&corpus);
            let (fresh, fresh_stats, _) =
                extract_candidates_streaming(&mut corpus.stream(), &cfg, &mr, corpus.len());
            assert_eq!(stats, fresh_stats);
            assert_eq!(rebuilt.len(), fresh.len());
        } else {
            let (_, fresh_stats, _) =
                extract_candidates_streaming(&mut corpus.stream(), &cfg, &mr, corpus.len());
            assert_eq!(delta.stats, fresh_stats);
        }
        assert!(cache.live_candidates() < base.len());
        assert!(!base.is_empty());
    }

    /// Prune-rate boundary cases: zero pairs (fresh default and empty
    /// corpus), everything pruned, nothing pruned, and inconsistent
    /// counters (merged from mismatched runs) — the rates must stay in
    /// `[0, 1]` in every case, never NaN or negative.
    #[test]
    fn prune_rates_stay_in_unit_interval() {
        let zero = ExtractionStats::default();
        assert_eq!(zero.prune_rate(), 0.0);
        assert_eq!(zero.total_prune_rate(), 0.0);

        let all_pruned = ExtractionStats {
            pairs_possible: 12,
            pairs_considered: 6,
            pairs_failed_fd: 4,
            pairs_numeric_left: 2,
            ..Default::default()
        };
        assert_eq!(all_pruned.prune_rate(), 1.0);
        assert_eq!(all_pruned.total_prune_rate(), 1.0);

        let none_pruned = ExtractionStats {
            pairs_possible: 6,
            pairs_considered: 6,
            candidates: 6,
            ..Default::default()
        };
        assert_eq!(none_pruned.prune_rate(), 0.0);
        assert_eq!(none_pruned.total_prune_rate(), 0.0);

        // More candidates than pairs cannot come out of one extraction
        // (enumerate_pairs asserts the buckets partition), but a caller
        // summing stats across heterogeneous runs can build it; the
        // rate clamps instead of going negative.
        let skewed = ExtractionStats {
            pairs_possible: 2,
            pairs_considered: 2,
            candidates: 5,
            ..Default::default()
        };
        assert_eq!(skewed.prune_rate(), 0.0);
        assert_eq!(skewed.total_prune_rate(), 0.0);
    }

    #[test]
    fn empty_corpus_extracts_nothing_with_zero_rates() {
        let corpus = mapsynth_corpus::Corpus::new();
        let mr = MapReduce::new(1);
        let (cands, stats) = extract_candidates(&corpus, &ExtractionConfig::default(), &mr);
        assert!(cands.is_empty());
        assert_eq!(stats, ExtractionStats::default());
        assert_eq!(stats.prune_rate(), 0.0);
        assert_eq!(stats.total_prune_rate(), 0.0);
    }

    /// The coherence funnel is cumulative: a fresh build records the
    /// sketch-filter work, and a delta's re-extractions only ever add
    /// to it.
    #[test]
    fn funnel_accumulates_across_build_and_deltas() {
        let wc = small_corpus();
        let mut corpus = wc.corpus;
        let cfg = ExtractionConfig::default();
        let mr = MapReduce::new(2);
        let (_, _, mut cache) =
            extract_candidates_streaming(&mut corpus.stream(), &cfg, &mr, corpus.len());
        let base = cache.coherence_funnel();
        assert!(
            base.sketch_rejects + base.list_probes > 0,
            "a real corpus must exercise the coherence pair loop"
        );
        let nd = corpus.domain("delta.example");
        let cols = corpus.tables[5].columns.clone();
        let added = vec![corpus.push_interned_table(nd, cols)];
        cache.apply_delta(&corpus, &added, &[], &[], &cfg, &mr);
        let after = cache.coherence_funnel();
        assert!(after.sketch_rejects >= base.sketch_rejects);
        assert!(
            after.list_probes + after.sketch_rejects > base.list_probes + base.sketch_rejects,
            "the added table's extraction must add funnel work"
        );
    }

    #[test]
    #[should_panic(expected = "is not live")]
    fn patch_to_removed_table_panics() {
        let wc = small_corpus();
        let mut corpus = wc.corpus;
        let cfg = ExtractionConfig::default();
        let mr = MapReduce::new(1);
        let (_, _, mut cache) =
            extract_candidates_streaming(&mut corpus.stream(), &cfg, &mr, corpus.len());
        cache.apply_delta(&corpus, &[], &[TableId(0)], &[], &cfg, &mr);
        let patch = RowPatch {
            table: TableId(0),
            deleted: vec![],
            inserted: vec![],
        };
        corpus.apply_row_patch(&patch);
        cache.apply_delta(&corpus, &[], &[], &[patch], &cfg, &mr);
    }
}
