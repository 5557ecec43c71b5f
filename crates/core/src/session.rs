//! The staged synthesis engine — one [`SynthesisSession`] per corpus.
//!
//! The session splits the synthesis run into explicit, reusable
//! **stage artifacts**:
//!
//! | Stage | Artifact | Reusable across |
//! |---|---|---|
//! | 1. Extraction | [`ExtractionArtifact`] (candidates + stats) | everything |
//! | 2. Value space | [`ValueArtifact`] (`Arc<ValueSpace>` + `Vec<NormBinary>`) | everything |
//! | 3. Blocking + scoring | [`ScoreArtifact`] (match counts + scored pairs + [`ScoringContext`]) | `θ_edge` / `τ` / resolver / matching-parameter variants |
//! | 4. Graph + partition + resolve | [`SessionRun`] | — (cheap, per variant) |
//!
//! Evaluation harnesses and baselines run **many** configurations —
//! sweeping `θ_edge`, comparing `Algorithm4` vs `MajorityVote` vs no
//! resolution — and stages 1–3 dominate the wall-clock. A session runs
//! them once ([`SynthesisSession::prepare`]) and then derives each
//! variant with [`SynthesisSession::synthesize`], which reuses the
//! scored pairs and re-runs only the cheap filter → partition →
//! resolve tail. Per-stage wall-clock timings (the paper's Figure 8/9
//! measurements) are kept on every artifact and on every run.
//!
//! **Scope of reuse:** scored pairs are blocked with the session's
//! base config, so variants may differ in `theta_edge`, `tau`,
//! `use_negative` (graph-filter parameters) and in the resolver.
//! Because [`ScoreArtifact`] stores raw [`MatchCounts`] (exact and
//! approximate-inclusive) plus the [`ScoringContext`] with its
//! edit-distance memo, variants may **also** differ in matching
//! parameters: toggling `approx_matching` off derives weights
//! arithmetically from the stored counts, and tightening
//! `match_params` (`f_ed' ≤ f_ed`, `k_ed' ≤ k_ed`) or changing the
//! `max_approx_cross` guard re-runs only the merge-join against
//! memoized distances — zero edit-distance DP either way. Variants
//! that change blocking (`theta_overlap`, `max_key_fanout`) or *widen*
//! `match_params` need their own session.

use crate::approx::ApproxMemoStats;
use crate::blocking::BlockingIndex;
use crate::compat::{MatchCounts, PairWeights, ScoringContext};
use crate::config::SynthesisConfig;
use crate::conflict::{resolve_conflicts, resolve_majority_vote};
use crate::curate;
use crate::delta::{dense_renumber, positions_of_candidates, IncrementalState};
use crate::graph::{graph_from_scores, CompatGraph};
use crate::partition::{partition_by_components, Partitioning};
use crate::pipeline::{PipelineConfig, PipelineOutput, Resolver, StageTimings};
use crate::synth::SynthesizedMapping;
use crate::values::{build_value_space_sharded, NormBinary, ValueSpace};
use mapsynth_corpus::{BinaryId, CoherenceFunnel, Corpus, TableId, TableSource};
use mapsynth_extract::{extract_candidates_streaming, ExtractionStats};
use mapsynth_mapreduce::MapReduce;
use mapsynth_text::SynonymDict;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tables pulled per batch from a streaming source — small enough to
/// bound resident raw-table memory, large enough to keep the per-batch
/// parallel dispatch amortized. Batch size never affects results
/// (extraction is bit-identical for any batch size).
const STREAM_BATCH_TABLES: usize = 256;

/// Stage-1 artifact: extracted candidate tables.
#[derive(Clone)]
pub struct ExtractionArtifact {
    /// Ordered binary column pairs surviving extraction.
    pub candidates: Vec<mapsynth_corpus::BinaryTable>,
    /// Extraction counters.
    pub stats: ExtractionStats,
    /// Cumulative coherence sketch-filter funnel (sketch rejects and
    /// posting-list probes) over the build and every delta since.
    /// Diagnostics only — never part of the bit-identity contract.
    pub funnel: CoherenceFunnel,
    /// Stage wall-clock.
    pub elapsed: Duration,
}

/// Stage-2 artifact: the normalized value space.
#[derive(Clone)]
pub struct ValueArtifact {
    /// Shared value space handle.
    pub space: Arc<ValueSpace>,
    /// Candidates projected into the space.
    pub tables: Vec<NormBinary>,
    /// Stage wall-clock.
    pub elapsed: Duration,
}

/// Sub-stage cost breakdown of the scoring stage (the
/// `graph_detail` block of `BENCH_pipeline.json`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScoringDetail {
    /// Candidate-pair blocking (the key-sharded posting-list build).
    pub blocking: Duration,
    /// Per-table sorted-view construction.
    pub index_build: Duration,
    /// One-shot approximate-match memo pass (all edit distances).
    pub approx_memo: Duration,
    /// Merge-join match counting over all blocked pairs.
    pub merge_join: Duration,
    /// Approximate-memo counters (values, DP calls, cached pairs).
    pub memo: ApproxMemoStats,
}

/// Stage-3 artifact: blocked and scored candidate pairs.
///
/// Stores **raw match counts**, not just derived weights: weights for
/// matching-parameter variants (approximate matching off, tighter
/// `f_ed`/`k_ed`) derive from these without re-running edit distance —
/// see [`SynthesisSession::weights_for`].
#[derive(Clone)]
pub struct ScoreArtifact {
    /// `(a, b, weights)` for every blocked pair under the base config,
    /// sorted by `(a, b)`.
    pub scored: Vec<(u32, u32, PairWeights)>,
    /// `(a, b, raw match counts)` for every blocked pair, same order.
    pub counts: Vec<(u32, u32, MatchCounts)>,
    /// The shared scoring state (table views + edit-distance memo) the
    /// counts were computed from; kept for matching-parameter variants.
    pub context: ScoringContext,
    /// Blocking statistics.
    pub blocking: crate::blocking::BlockingStats,
    /// Stage wall-clock (blocking + context build + pairwise counting).
    pub elapsed: Duration,
    /// Sub-stage cost breakdown.
    pub detail: ScoringDetail,
}

/// One synthesis variant derived from a prepared session.
pub struct SessionRun {
    /// Synthesized mappings, curation-ranked.
    pub mappings: Vec<SynthesizedMapping>,
    /// Edges kept in this variant's graph.
    pub edges: usize,
    /// Hard negative edges kept.
    pub negative_edges: usize,
    /// Partitions (including singletons).
    pub partitions: usize,
    /// Per-stage timings. Shared prepare-stage costs (extraction,
    /// value space, scoring) are reported as incurred **once**; graph
    /// covers shared scoring plus this variant's filter.
    pub timings: StageTimings,
}

/// A staged, re-entrant synthesis engine over one corpus.
///
/// ```
/// use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
/// use mapsynth_corpus::Corpus;
///
/// let mut corpus = Corpus::new();
/// let d = corpus.domain("example.com");
/// for _ in 0..4 {
///     corpus.push_table(d, vec![
///         (Some("name"), vec!["United States", "Canada", "Japan", "Germany", "France"]),
///         (Some("code"), vec!["USA", "CAN", "JPN", "DEU", "FRA"]),
///     ]);
/// }
/// let mut session = SynthesisSession::new(PipelineConfig::default());
/// session.prepare(&corpus);
/// // Two resolver variants off one extraction + value space + scoring:
/// let a = session.synthesize(&session.config().synthesis.clone(), Resolver::Algorithm4);
/// let b = session.synthesize(&session.config().synthesis.clone(), Resolver::None);
/// assert_eq!(a.mappings.len(), b.mappings.len());
/// ```
pub struct SynthesisSession {
    pub(crate) cfg: PipelineConfig,
    pub(crate) synonyms: SynonymDict,
    pub(crate) mr: MapReduce,
    /// Identity of the corpus the cached artifacts came from:
    /// `(tables, total columns)`. Guards against silently serving one
    /// corpus's artifacts for another. Advanced by
    /// [`apply_delta`](Self::apply_delta).
    pub(crate) corpus_fingerprint: Option<(usize, u64)>,
    pub(crate) extraction: Option<ExtractionArtifact>,
    pub(crate) values: Option<ValueArtifact>,
    pub(crate) scores: Option<ScoreArtifact>,
    /// The incremental-update state behind
    /// [`apply_delta`](Self::apply_delta): extraction cache, interning
    /// state, blocking index, tombstone masks.
    pub(crate) incr: Option<IncrementalState>,
}

impl SynthesisSession {
    /// Create a session; `cfg.synthesis` is the **base config** used
    /// for blocking and pairwise matching.
    pub fn new(cfg: PipelineConfig) -> Self {
        let mr = if cfg.workers == 0 {
            MapReduce::default()
        } else {
            MapReduce::new(cfg.workers)
        };
        Self {
            cfg,
            synonyms: SynonymDict::new(),
            mr,
            corpus_fingerprint: None,
            extraction: None,
            values: None,
            scores: None,
            incr: None,
        }
    }

    /// Attach an external synonym feed (paper §4.1 "Synonyms"). Must
    /// be called before [`prepare`](Self::prepare).
    pub fn with_synonyms(mut self, synonyms: SynonymDict) -> Self {
        assert!(
            self.values.is_none(),
            "synonym feed must be attached before prepare()"
        );
        self.synonyms = synonyms;
        self
    }

    /// Configuration access.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Worker threads in use.
    pub fn workers(&self) -> usize {
        self.mr.workers()
    }

    /// The session's Map-Reduce engine.
    pub fn engine(&self) -> &MapReduce {
        &self.mr
    }

    /// Run stages 1–3 (extraction, value space, blocking + scoring) on
    /// `corpus`, caching each artifact. Idempotent: repeated calls
    /// return the cached artifacts without touching the corpus again.
    pub fn prepare(
        &mut self,
        corpus: &Corpus,
    ) -> (&ExtractionArtifact, &ValueArtifact, &ScoreArtifact) {
        self.prepare_with(corpus, |_| {})
    }

    /// [`prepare`](Self::prepare) with a stage probe: `stage_done` is
    /// called with `"extraction"`, `"value_space"` and `"scoring"` as
    /// each stage's artifact lands — the hook the benchmark harness
    /// uses to sample per-stage peak RSS. Not called when artifacts
    /// are already cached.
    pub fn prepare_with(
        &mut self,
        corpus: &Corpus,
        stage_done: impl FnMut(&'static str),
    ) -> (&ExtractionArtifact, &ValueArtifact, &ScoreArtifact) {
        if self.extraction.is_none() {
            // Lent tables cost no residency, so the whole corpus is
            // one batch: no barrier between batches for the workers.
            self.prepare_stages(&mut corpus.stream(), corpus.len(), stage_done);
        } else {
            // A materialized corpus knows its column count up front,
            // so the whole fingerprint is checked.
            self.check_fingerprint((corpus.len(), corpus.total_columns() as u64));
        }
        self.prepared()
    }

    /// [`prepare_with`](Self::prepare_with) off any [`TableSource`]:
    /// stages 1–3 driven batch by batch, so a source that produces
    /// tables on the fly never has the raw corpus resident — peak
    /// memory holds one batch of tables plus the (saturating) interner
    /// and the extracted artifacts. The artifacts are bit-identical to
    /// a `prepare` over the materialized corpus.
    pub fn prepare_streaming_with<S: TableSource>(
        &mut self,
        source: &mut S,
        stage_done: impl FnMut(&'static str),
    ) -> (&ExtractionArtifact, &ValueArtifact, &ScoreArtifact) {
        if self.extraction.is_none() {
            self.prepare_stages(source, STREAM_BATCH_TABLES, stage_done);
        } else {
            self.check_fingerprint_tables(source.table_count());
        }
        self.prepared()
    }

    fn prepared(&self) -> (&ExtractionArtifact, &ValueArtifact, &ScoreArtifact) {
        (
            // Invariant: every caller either found cached artifacts or
            // just built all three.
            self.extraction.as_ref().expect("artifacts built above"),
            self.values.as_ref().expect("artifacts built above"),
            self.scores.as_ref().expect("artifacts built above"),
        )
    }

    fn check_fingerprint(&mut self, fingerprint: (usize, u64)) {
        match self.corpus_fingerprint {
            None => self.corpus_fingerprint = Some(fingerprint),
            Some(prior) => assert_eq!(
                prior, fingerprint,
                "SynthesisSession artifacts were prepared from a different corpus; \
                 use one session per corpus (corpus deltas go through apply_delta)"
            ),
        }
    }

    fn check_fingerprint_tables(&self, n_tables: usize) {
        let prior = self
            .corpus_fingerprint
            .expect("cached artifacts imply a fingerprint");
        assert_eq!(
            prior.0, n_tables,
            "SynthesisSession artifacts were prepared from a different corpus; \
             use one session per corpus (corpus deltas go through apply_delta)"
        );
    }

    /// Build all three stage artifacts plus the incremental-update
    /// state — the one prepare body every public entry delegates to.
    fn prepare_stages<S: TableSource>(
        &mut self,
        source: &mut S,
        batch_tables: usize,
        mut stage_done: impl FnMut(&'static str),
    ) {
        let t = Instant::now();
        let (candidates, stats, extraction_cache) =
            extract_candidates_streaming(source, &self.cfg.extraction, &self.mr, batch_tables);
        // A source exposes its total columns only after the extraction
        // pass has walked them (`next_gid` counts every column), so the
        // fingerprint is checked post-extraction.
        let n_tables = source.table_count();
        self.check_fingerprint((n_tables, extraction_cache.total_columns() as u64));
        let extraction = self.extraction.insert(ExtractionArtifact {
            candidates,
            stats,
            funnel: extraction_cache.coherence_funnel(),
            elapsed: t.elapsed(),
        });
        stage_done("extraction");

        // Stages 2–3 need only the interner from the corpus side — raw
        // tables are already behind us.
        let t = Instant::now();
        let (space, tables, interning) = build_value_space_sharded(
            source.interner(),
            &extraction.candidates,
            &self.synonyms,
            &self.mr,
            self.mr.workers(),
        );
        let pos_of_candidate = positions_of_candidates(extraction.candidates.len(), &tables);
        let dead = vec![false; tables.len()];
        let values = self.values.insert(ValueArtifact {
            space,
            tables,
            elapsed: t.elapsed(),
        });
        stage_done("value_space");

        let t = Instant::now();
        let space = &values.space;
        let tables = &values.tables;
        let cfg = &self.cfg.synthesis;
        let (blocking_index, pairs, blocking) =
            BlockingIndex::build_sharded(space, tables, cfg, &self.mr, self.mr.workers());
        let blocking_time = t.elapsed();

        // Shared scoring state: per-table sorted views + the
        // one-shot approximate-match memo.
        let context = ScoringContext::build(space, tables, cfg, &self.mr);

        // Allocation-light merge-join per blocked pair (nothing is
        // cached yet, so every pair joins).
        let t_join = Instant::now();
        let carried = context.carry_counts(space, tables, &pairs, &[], Some, &self.mr);
        let merge_join = t_join.elapsed();

        let detail = ScoringDetail {
            blocking: blocking_time,
            index_build: context.build_stats.index_build,
            approx_memo: context.build_stats.approx_memo,
            merge_join,
            memo: context.build_stats.memo,
        };
        self.scores = Some(ScoreArtifact {
            scored: carried.scored,
            counts: carried.counts,
            context,
            blocking,
            elapsed: t.elapsed(),
            detail,
        });
        self.incr = Some(IncrementalState {
            extraction_cache,
            interning,
            blocking: blocking_index,
            pos_of_candidate,
            dead,
            alive_tables: vec![true; n_tables],
        });
        stage_done("scoring");
    }

    /// The stage-1 artifact, if [`prepare`](Self::prepare) has run.
    pub fn extraction(&self) -> Option<&ExtractionArtifact> {
        self.extraction.as_ref()
    }

    /// The stage-2 artifact, if [`prepare`](Self::prepare) has run.
    pub fn values(&self) -> Option<&ValueArtifact> {
        self.values.as_ref()
    }

    /// The stage-3 artifact, if [`prepare`](Self::prepare) has run.
    pub fn scores(&self) -> Option<&ScoreArtifact> {
        self.scores.as_ref()
    }

    /// Whether `cfg`'s matching settings equal the base config's (in
    /// which case the precomputed weights apply verbatim). With
    /// approximate matching on, the cross-product guard
    /// `max_approx_cross` changes counts too, so it is part of the
    /// identity check.
    fn base_matching(&self, cfg: &SynthesisConfig) -> bool {
        let base = &self.cfg.synthesis;
        cfg.approx_matching == base.approx_matching
            && (!cfg.approx_matching
                || (cfg.match_params == base.match_params
                    && cfg.max_approx_cross == base.max_approx_cross))
    }

    /// Per-pair weights for a config variant, derived from the stored
    /// match counts with **zero** edit-distance work:
    ///
    /// * same matching settings as the base config → the precomputed
    ///   weights;
    /// * `approx_matching` off → arithmetic derivation from the exact
    ///   counts;
    /// * tighter `match_params` and/or a different `max_approx_cross`
    ///   guard → the merge-join re-runs against the context's memoized
    ///   distances (no DP).
    ///
    /// Panics if [`prepare`](Self::prepare) has not run, or if the
    /// variant *widens* `match_params` beyond the memo (those need
    /// their own session).
    pub fn weights_for(&self, cfg: &SynthesisConfig) -> Vec<(u32, u32, PairWeights)> {
        let values = self
            .values
            .as_ref()
            .expect("prepare() before weights_for()");
        let scores = self
            .scores
            .as_ref()
            .expect("prepare() before weights_for()");
        if self.base_matching(cfg) {
            return scores.scored.clone();
        }
        assert!(
            scores.context.covers(cfg),
            "variant match params {:?} are wider than the session's memo; \
             use a separate session",
            cfg.match_params
        );
        let tables = &values.tables;
        if !cfg.approx_matching {
            scores
                .counts
                .iter()
                .map(|&(a, b, c)| {
                    let w = c.weights(tables[a as usize].len(), tables[b as usize].len(), false);
                    (a, b, w)
                })
                .collect()
        } else {
            let space = &values.space;
            let ctx = &scores.context;
            self.mr.par_map(&scores.counts, |&(a, b, _)| {
                let c = ctx.counts_with(space, a, b, cfg.match_params, true, cfg.max_approx_cross);
                let w = c.weights(tables[a as usize].len(), tables[b as usize].len(), true);
                (a, b, w)
            })
        }
    }

    /// Derive a compatibility graph for a config variant from the
    /// cached scores (cheap: a filter pass — plus, for matching
    /// variants, an arithmetic or memo-backed re-derivation of the
    /// weights; never any edit distance).
    ///
    /// Panics if [`prepare`](Self::prepare) has not run.
    pub fn graph(&self, cfg: &SynthesisConfig) -> CompatGraph {
        let values = self.values.as_ref().expect("prepare() before graph()");
        let scores = self.scores.as_ref().expect("prepare() before graph()");
        let mut g = if self.base_matching(cfg) {
            graph_from_scores(values.tables.len(), &scores.scored, cfg)
        } else {
            graph_from_scores(values.tables.len(), &self.weights_for(cfg), cfg)
        };
        g.blocking = scores.blocking;
        g
    }

    /// Partition a variant graph (Algorithm 3 over positive
    /// components).
    pub fn partition(&self, graph: &CompatGraph, cfg: &SynthesisConfig) -> Partitioning {
        partition_by_components(graph, cfg, &self.mr)
    }

    /// Whether the table at `idx` (into the stage-2 slice) is live.
    /// Tables only die by tombstoning through
    /// [`apply_delta`](Self::apply_delta).
    pub fn is_live(&self, idx: u32) -> bool {
        self.incr.as_ref().is_none_or(|s| !s.dead[idx as usize])
    }

    /// Number of live candidate tables.
    pub fn live_tables(&self) -> usize {
        let n = self.values.as_ref().map_or(0, |v| v.tables.len());
        match &self.incr {
            Some(s) => n - s.dead.iter().filter(|&&d| d).count(),
            None => n,
        }
    }

    /// How much of the session's artifacts tombstones have turned into
    /// garbage: `(value_garbage, candidate_garbage)`, both in
    /// `[0, 1]`. Value garbage is the fraction of the interned value
    /// space no live candidate references any more (deltas intern
    /// append-only, so departed values linger); candidate garbage is
    /// the tombstoned fraction of the stage-2 table slice. Computed on
    /// demand by walking the live candidates — no counters to
    /// maintain, so the probe costs one pass over live candidate
    /// cells, counted in a flag per value (`NormId`s index the value
    /// space densely). Returns `(0, 0)` before
    /// [`prepare`](Self::prepare).
    pub fn garbage_fractions(&self) -> (f64, f64) {
        let (Some(incr), Some(values), Some(extraction)) =
            (&self.incr, &self.values, &self.extraction)
        else {
            return (0.0, 0.0);
        };
        let dead = incr.dead.iter().filter(|&&d| d).count();
        let candidate_garbage = if incr.dead.is_empty() {
            0.0
        } else {
            dead as f64 / incr.dead.len() as f64
        };
        let value_garbage = if values.space.is_empty() {
            0.0
        } else {
            let mut live = vec![false; values.space.len()];
            for id in incr.extraction_cache.live_candidate_ids() {
                for &(l, r) in &extraction.candidates[id as usize].pairs {
                    if let Some(n) = incr.interning.norm_of(l) {
                        live[n.0 as usize] = true;
                    }
                    if let Some(n) = incr.interning.norm_of(r) {
                        live[n.0 as usize] = true;
                    }
                }
            }
            let n_live = live.iter().filter(|&&l| l).count();
            1.0 - n_live as f64 / values.space.len() as f64
        };
        (value_garbage, candidate_garbage)
    }

    /// The value-garbage fraction counted through a hash set of live
    /// `NormId`s — the oracle the flag-per-value count in
    /// [`garbage_fractions`](Self::garbage_fractions) is tested against.
    #[cfg(test)]
    fn value_garbage_by_hash_set(&self) -> f64 {
        let (Some(incr), Some(values), Some(extraction)) =
            (&self.incr, &self.values, &self.extraction)
        else {
            return 0.0;
        };
        if values.space.is_empty() {
            return 0.0;
        }
        let mut live: std::collections::HashSet<crate::values::NormId> = Default::default();
        for id in incr.extraction_cache.live_candidate_ids() {
            for &(l, r) in &extraction.candidates[id as usize].pairs {
                if let Some(n) = incr.interning.norm_of(l) {
                    live.insert(n);
                }
                if let Some(n) = incr.interning.norm_of(r) {
                    live.insert(n);
                }
            }
        }
        1.0 - live.len() as f64 / values.space.len() as f64
    }

    /// Whether either garbage fraction has crossed the configured
    /// [`PipelineConfig::compact_threshold`] — the signal that a
    /// [`compact`](Self::compact) pass would reclaim enough space to
    /// pay for itself.
    pub fn compaction_due(&self) -> bool {
        let (values, candidates) = self.garbage_fractions();
        values > self.cfg.compact_threshold || candidates > self.cfg.compact_threshold
    }

    /// Reclaim every tombstone in one pass: rebuild the corpus densely
    /// (dropping dead tables but **cloning** the interner, so the
    /// extraction cache's `Sym`s stay valid), renumber the surviving
    /// candidates, re-project the value space from scratch (departed
    /// values and their postings vanish), rebuild blocking, compact
    /// the approximate-match memo row-by-row through the old → new
    /// value map, and carry every surviving pair's match counts over
    /// the monotone live-position renumbering.
    ///
    /// Afterwards the session is **byte-identical** to a fresh session
    /// prepared on the returned corpus — same candidate ids, same
    /// `NormId`s, same stage-2 positions, zero tombstones — while
    /// skipping all extraction, normalization, edit-distance DP and
    /// merge-join work. Callers must adopt the returned corpus: the
    /// old one (and any `TableId`s into it) no longer matches the
    /// session, and subsequent [`apply_delta`](Self::apply_delta)
    /// calls push tables into the new corpus.
    ///
    /// # Panics
    /// If [`prepare`](Self::prepare) has not run, or if `corpus` is
    /// not the corpus the session has been tracking.
    pub fn compact(&mut self, corpus: &Corpus) -> Corpus {
        assert!(
            self.scores.is_some() && self.incr.is_some(),
            "prepare() before compact()"
        );
        assert_eq!(
            self.corpus_fingerprint,
            Some((corpus.len(), corpus.total_columns() as u64)),
            "compact() must receive the session's tracked corpus"
        );

        // Dense post-compaction corpus + old → new table id map.
        let alive = self
            .incr
            .as_ref()
            .expect("prepared (asserted above)")
            .alive_tables
            .clone();
        let new_corpus = corpus.retain_interned(|tid| alive[tid.0 as usize]);
        let table_map = dense_renumber(alive.iter().copied());

        // Candidate renumber inside the extraction cache (monotone,
        // so surviving candidates keep their relative order), then
        // remap the stage-1 artifact through it.
        let id_map = self
            .incr
            .as_mut()
            .expect("prepared (asserted above)")
            .extraction_cache
            .compact();
        let old_extraction = self.extraction.take().expect("prepared");
        let mut candidates = Vec::with_capacity(id_map.len());
        for &(old_id, new_id) in &id_map {
            let mut c = old_extraction.candidates[old_id as usize].clone();
            debug_assert_eq!(c.id.0, old_id);
            c.id = BinaryId(new_id);
            c.source =
                TableId(table_map[c.source.0 as usize].expect("live candidate in a live table"));
            candidates.push(c);
        }

        // Stage 2 rebuilt outright — this *is* the reclamation: only
        // strings live candidates reference get re-interned, exactly
        // as a fresh prepare would.
        let (space, tables, interning) = build_value_space_sharded(
            &new_corpus.interner,
            &candidates,
            &self.synonyms,
            &self.mr,
            self.mr.workers(),
        );

        // Stage 3a rebuilt outright (postings of dead tables vanish).
        let cfg = &self.cfg.synthesis;
        let (blocking_index, pairs, blocking_stats) =
            BlockingIndex::build_sharded(&space, &tables, cfg, &self.mr, self.mr.workers());

        // Stage 3b: fresh views, memo compacted through the old → new
        // value map — a string-keyed lookup, so values surviving via
        // other live tables land on their new ids and dead values map
        // to nothing.
        let old_scores = self.scores.take().expect("prepared");
        let old_values = self.values.take().expect("prepared");
        let old_space = &old_values.space;
        let context = ScoringContext::compacted(
            &old_scores.context,
            &space,
            &tables,
            cfg,
            |old| interning.id_of(old_space.string(old)),
            &self.mr,
        );

        // Stage 3c: carry surviving counts over the monotone live
        // stage-2 position renumbering. Projection usability depends
        // only on content, so live old positions biject with the new
        // slice.
        let dead = &self.incr.as_ref().expect("prepared (asserted above)").dead;
        let old_pos_to_new = dense_renumber(dead.iter().map(|&d| !d));
        assert_eq!(
            old_pos_to_new.iter().flatten().count(),
            tables.len(),
            "live stage-2 tables must survive compaction 1:1"
        );
        let carried = context.carry_counts(
            &space,
            &tables,
            &pairs,
            &old_scores.counts,
            |p| old_pos_to_new[p as usize],
            &self.mr,
        );
        // The maintained blocking state and the fresh build derive the
        // same pair set, so nothing should have needed a fresh join —
        // but a pair that did was scored rather than left to corrupt
        // the artifact.
        debug_assert_eq!(
            carried.added, 0,
            "compaction surfaced pairs the maintained blocking state lacked"
        );

        // Install the compacted artifacts; all tombstone state resets.
        let n_tables = tables.len();
        let pos_of_candidate = positions_of_candidates(candidates.len(), &tables);
        self.extraction = Some(ExtractionArtifact {
            candidates,
            stats: old_extraction.stats,
            funnel: old_extraction.funnel,
            elapsed: old_extraction.elapsed,
        });
        self.values = Some(ValueArtifact {
            space,
            tables,
            elapsed: old_values.elapsed,
        });
        let mut detail = old_scores.detail;
        detail.memo = context.build_stats.memo;
        self.scores = Some(ScoreArtifact {
            scored: carried.scored,
            counts: carried.counts,
            context,
            blocking: blocking_stats,
            elapsed: old_scores.elapsed,
            detail,
        });
        let incr = self.incr.as_mut().expect("prepared (asserted above)");
        incr.interning = interning;
        incr.blocking = blocking_index;
        incr.pos_of_candidate = pos_of_candidate;
        incr.dead = vec![false; n_tables];
        incr.alive_tables = vec![true; new_corpus.len()];
        self.corpus_fingerprint = Some((new_corpus.len(), new_corpus.total_columns() as u64));
        new_corpus
    }

    /// Run the full variant tail — graph filter, partitioning,
    /// conflict resolution, union, curation ranking — off the cached
    /// stage artifacts.
    ///
    /// Panics if [`prepare`](Self::prepare) has not run.
    pub fn synthesize(&self, cfg: &SynthesisConfig, resolver: Resolver) -> SessionRun {
        let values = self.values.as_ref().expect("prepare() before synthesize()");
        let scores = self.scores.as_ref().expect("prepare() before synthesize()");

        let t = Instant::now();
        let graph = self.graph(cfg);
        let graph_time = scores.elapsed + t.elapsed();
        let edges = graph.edges.len();
        let negative_edges = graph.negative_edges();

        let t = Instant::now();
        let mut partitioning = self.partition(&graph, cfg);
        // Tombstoned tables have no blocked pairs, so they can only
        // surface as singleton components — drop them before the
        // resolve/union tail (a fresh post-delta session never sees
        // them at all).
        if let Some(incr) = &self.incr {
            partitioning
                .groups
                .retain(|g| g.iter().any(|&v| !incr.dead[v as usize]));
        }
        let partitioning = partitioning;
        let partition_time = t.elapsed();
        let partitions = partitioning.groups.len();

        let t = Instant::now();
        let mappings = resolve_and_union(
            &values.space,
            &values.tables,
            partitioning,
            resolver,
            &self.mr,
        );
        let conflict_time = t.elapsed();

        let extraction_time = self
            .extraction
            .as_ref()
            .map_or(Duration::ZERO, |e| e.elapsed);
        let value_space_time = values.elapsed;
        SessionRun {
            mappings,
            edges,
            negative_edges,
            partitions,
            timings: StageTimings {
                extraction: extraction_time,
                value_space: value_space_time,
                graph: graph_time,
                partition: partition_time,
                conflict: conflict_time,
                total: extraction_time
                    + value_space_time
                    + graph_time
                    + partition_time
                    + conflict_time,
            },
        }
    }

    /// Full pipeline semantics: prepare (or reuse) stages 1–3, then
    /// synthesize with the base config and its implied resolver.
    pub fn run(&mut self, corpus: &Corpus) -> PipelineOutput {
        let t_total = Instant::now();
        let fresh = self.extraction.is_none();
        self.prepare(corpus);
        let resolver = if self.cfg.synthesis.resolve_conflicts {
            Resolver::Algorithm4
        } else {
            Resolver::None
        };
        let run = self.synthesize(&self.cfg.synthesis, resolver);
        let extraction = self.extraction.as_ref().expect("prepared above");
        let mut timings = run.timings;
        // On a fresh run the end-to-end wall-clock is observable;
        // reuse runs report the sum of stage costs actually incurred.
        if fresh {
            timings.total = t_total.elapsed();
        }
        let candidates = self.live_tables();
        PipelineOutput {
            mappings: run.mappings,
            extraction: extraction.stats,
            candidates,
            edges: run.edges,
            negative_edges: run.negative_edges,
            partitions: run.partitions,
            timings,
        }
    }
}

/// The variant tail: conflict-resolve each partition group, union,
/// curation-rank.
fn resolve_and_union(
    space: &Arc<ValueSpace>,
    tables: &[NormBinary],
    partitioning: Partitioning,
    resolver: Resolver,
    mr: &MapReduce,
) -> Vec<SynthesizedMapping> {
    let mut mappings: Vec<SynthesizedMapping> =
        mr.par_map(&partitioning.groups, |group| match resolver {
            Resolver::Algorithm4 if group.len() > 1 => {
                let (kept, stats) = resolve_conflicts(space, tables, group);
                let mut m = SynthesizedMapping::union_of(space, tables, &kept);
                m.tables_removed = stats.tables_removed;
                m
            }
            Resolver::MajorityVote => {
                let pairs = resolve_majority_vote(space, tables, group);
                SynthesizedMapping::over_group(space, tables, group, pairs)
            }
            _ => SynthesizedMapping::union_of(space, tables, group),
        });
    curate::curation_rank(&mut mappings);
    mappings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
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
        for (prefix, rows) in [("iso", &iso), ("ioc", &ioc)] {
            for i in 0..6 {
                let d = corpus.domain(&format!("{prefix}-{i}.org"));
                let (l, r): (Vec<&str>, Vec<&str>) = rows.iter().cloned().unzip();
                corpus.push_table(d, vec![(Some("country"), l), (Some("code"), r)]);
            }
        }
        corpus
    }

    #[test]
    #[should_panic(expected = "different corpus")]
    fn rejects_a_second_corpus() {
        let mut s = SynthesisSession::new(PipelineConfig::default());
        s.prepare(&corpus());
        let mut other = Corpus::new();
        let d = other.domain("x");
        other.push_table(
            d,
            vec![(Some("a"), vec!["1", "2"]), (Some("b"), vec!["3", "4"])],
        );
        s.prepare(&other);
    }

    #[test]
    fn prepare_is_idempotent() {
        let corpus = corpus();
        let mut s = SynthesisSession::new(PipelineConfig::default());
        s.prepare(&corpus);
        let n1 = s.values().unwrap().tables.len();
        let p1: *const _ = s.values().unwrap().tables.as_ptr();
        s.prepare(&corpus);
        assert_eq!(s.values().unwrap().tables.len(), n1);
        assert_eq!(s.values().unwrap().tables.as_ptr(), p1, "no recompute");
    }

    #[test]
    fn variants_share_artifacts_and_match_fresh_runs() {
        let corpus = corpus();
        let mut shared = SynthesisSession::new(PipelineConfig::default());
        shared.prepare(&corpus);

        for resolver in [Resolver::Algorithm4, Resolver::MajorityVote, Resolver::None] {
            let from_shared = shared.synthesize(&shared.cfg.synthesis.clone(), resolver);
            // Fresh session for the same variant.
            let mut fresh = SynthesisSession::new(PipelineConfig::default());
            fresh.prepare(&corpus);
            let from_fresh = fresh.synthesize(&fresh.cfg.synthesis.clone(), resolver);
            assert_eq!(from_shared.mappings.len(), from_fresh.mappings.len());
            for (a, b) in from_shared.mappings.iter().zip(&from_fresh.mappings) {
                assert_eq!(
                    a.materialize_pairs(),
                    b.materialize_pairs(),
                    "{resolver:?} differs"
                );
            }
        }
    }

    #[test]
    fn theta_edge_sweep_reuses_scoring() {
        let corpus = corpus();
        let mut s = SynthesisSession::new(PipelineConfig::default());
        s.prepare(&corpus);
        let scored_ptr = s.scores().unwrap().scored.as_ptr();
        for theta_edge in [0.3, 0.6, 0.85] {
            let cfg = SynthesisConfig {
                theta_edge,
                ..s.cfg.synthesis
            };
            let run = s.synthesize(&cfg, Resolver::Algorithm4);
            assert!(run.timings.partition >= Duration::ZERO);
            assert_eq!(s.scores().unwrap().scored.as_ptr(), scored_ptr);
        }
        // Lower θ_edge keeps at least as many edges.
        let loose = s.graph(&SynthesisConfig {
            theta_edge: 0.3,
            ..s.cfg.synthesis
        });
        let tight = s.graph(&SynthesisConfig {
            theta_edge: 0.85,
            ..s.cfg.synthesis
        });
        assert!(loose.edges.len() >= tight.edges.len());
    }

    #[test]
    fn matching_variants_reuse_counts_without_rescoring() {
        // Corpus with typo'd spellings so approximate matching has
        // real work to memoize.
        let mut corpus = corpus();
        for i in 0..4 {
            let d = corpus.domain(&format!("typo-{i}.org"));
            let rows: Vec<(&str, &str)> = vec![
                ("Afghanistan", "AFG"),
                ("Albania xy", "ALB"),
                ("Algeria", "DZA"),
                ("Germany z", "DEU"),
                ("Netherland", "NLD"),
                ("Greece", "GRC"),
            ];
            let (l, r): (Vec<&str>, Vec<&str>) = rows.iter().cloned().unzip();
            corpus.push_table(d, vec![(Some("country"), l), (Some("code"), r)]);
        }

        let mut shared = SynthesisSession::new(PipelineConfig::default());
        shared.prepare(&corpus);
        let base = shared.cfg.synthesis;

        // Variant 1: approximate matching off — derived arithmetically
        // from stored exact counts; must equal a fresh session.
        // Variant 2: tighter match params — merge-join over the memo;
        // must equal a fresh session scored at those params.
        // Variant 3: a tiny cross-product guard — disables the
        // residual pass for most pairs; the guard is part of matching
        // identity, so this must re-derive, not reuse base weights.
        let variants = [
            SynthesisConfig {
                approx_matching: false,
                ..base
            },
            SynthesisConfig {
                match_params: mapsynth_text::MatchParams { f_ed: 0.1, k_ed: 5 },
                ..base
            },
            SynthesisConfig {
                max_approx_cross: 4,
                ..base
            },
        ];
        for cfg in variants {
            let derived = shared.graph(&cfg);
            let mut fresh = SynthesisSession::new(PipelineConfig {
                synthesis: cfg,
                ..Default::default()
            });
            fresh.prepare(&corpus);
            let scratch = fresh.graph(&cfg);
            assert_eq!(
                derived.edges, scratch.edges,
                "derived variant graph must be byte-identical (approx={}, f_ed={})",
                cfg.approx_matching, cfg.match_params.f_ed
            );
        }
    }

    #[test]
    #[should_panic(expected = "wider than the session's memo")]
    fn widening_match_params_is_rejected() {
        let corpus = corpus();
        let mut s = SynthesisSession::new(PipelineConfig::default());
        s.prepare(&corpus);
        let wide = SynthesisConfig {
            match_params: mapsynth_text::MatchParams {
                f_ed: 0.5,
                k_ed: 10,
            },
            ..s.cfg.synthesis
        };
        let _ = s.weights_for(&wide);
    }

    /// The streaming prepare must land on the same artifacts as the
    /// in-memory prepare — candidates, value space, scored pairs and
    /// the synthesized mappings alike.
    #[test]
    fn streaming_prepare_matches_in_memory() {
        let corpus = corpus();
        let mut batch = SynthesisSession::new(PipelineConfig::default());
        batch.prepare(&corpus);
        let mut streamed = SynthesisSession::new(PipelineConfig::default());
        let mut stages: Vec<&'static str> = Vec::new();
        streamed.prepare_streaming_with(&mut corpus.stream(), |s| stages.push(s));
        assert_eq!(stages, ["extraction", "value_space", "scoring"]);
        assert_eq!(batch.corpus_fingerprint, streamed.corpus_fingerprint);

        let (be, bv, bs) = (
            batch.extraction().unwrap(),
            batch.values().unwrap(),
            batch.scores().unwrap(),
        );
        let (se, sv, ss) = (
            streamed.extraction().unwrap(),
            streamed.values().unwrap(),
            streamed.scores().unwrap(),
        );
        assert_eq!(be.candidates.len(), se.candidates.len());
        for (a, b) in be.candidates.iter().zip(&se.candidates) {
            assert_eq!(a.pairs, b.pairs);
            assert_eq!(a.id, b.id);
        }
        assert_eq!(bv.space.len(), sv.space.len());
        for i in 0..bv.space.len() as u32 {
            let id = crate::values::NormId(i);
            assert_eq!(bv.space.string(id), sv.space.string(id));
            assert_eq!(bv.space.class(id), sv.space.class(id));
        }
        assert_eq!(bv.tables.len(), sv.tables.len());
        assert_eq!(bs.scored.len(), ss.scored.len());
        for (a, b) in bs.scored.iter().zip(&ss.scored) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert_eq!(a.2.pos.to_bits(), b.2.pos.to_bits());
            assert_eq!(a.2.neg.to_bits(), b.2.neg.to_bits());
        }

        let from_batch = batch.synthesize(&batch.cfg.synthesis.clone(), Resolver::Algorithm4);
        let from_stream =
            streamed.synthesize(&streamed.cfg.synthesis.clone(), Resolver::Algorithm4);
        assert_eq!(from_batch.mappings.len(), from_stream.mappings.len());
        for (a, b) in from_batch.mappings.iter().zip(&from_stream.mappings) {
            assert_eq!(a.materialize_pairs(), b.materialize_pairs());
        }
    }

    /// The flag-per-value count of live values agrees exactly with the
    /// hash-set count across a delta stream that adds tables carrying a
    /// value of their own and removes them again (value garbage grows)
    /// — and after a compaction resets it.
    #[test]
    fn value_garbage_flags_match_the_hash_set_count() {
        use crate::delta::CorpusDelta;
        let mut corpus = corpus();
        let mut s = SynthesisSession::new(PipelineConfig::default());
        s.prepare(&corpus);
        let check = |s: &SynthesisSession| {
            let (values, _) = s.garbage_fractions();
            assert_eq!(values.to_bits(), s.value_garbage_by_hash_set().to_bits());
            values
        };
        assert_eq!(check(&s), 0.0);
        let mut peak: f64 = 0.0;
        let mut previous: Option<TableId> = None;
        for i in 0..8 {
            let d = corpus.domain(&format!("stream-{i}.org"));
            let (mut l, mut r): (Vec<String>, Vec<String>) = [
                ("Afghanistan", "AFG"),
                ("Albania", "ALB"),
                ("Algeria", "DZA"),
                ("Germany", "DEU"),
                ("Netherlands", "NLD"),
            ]
            .iter()
            .map(|&(a, b)| (a.to_string(), b.to_string()))
            .unzip();
            l.push(format!("Zamunda-{i}"));
            r.push(format!("ZAM{i}"));
            let tid = corpus.push_table(
                d,
                vec![
                    (Some("country"), l.iter().map(String::as_str).collect()),
                    (Some("code"), r.iter().map(String::as_str).collect()),
                ],
            );
            // Every other delta retires the table the previous one
            // added, orphaning its own values.
            let removed: Vec<TableId> = previous.filter(|_| i % 2 == 1).into_iter().collect();
            previous = Some(tid);
            let delta = CorpusDelta {
                added: vec![tid],
                removed,
                patches: vec![],
            };
            s.apply_delta(&corpus, &delta).expect("valid delta");
            peak = peak.max(check(&s));
        }
        assert!(peak > 0.0, "the stream must orphan some values");
        s.compact(&corpus);
        assert_eq!(check(&s), 0.0);
    }

    #[test]
    #[should_panic(expected = "different corpus")]
    fn streaming_rejects_a_second_corpus() {
        let mut s = SynthesisSession::new(PipelineConfig::default());
        s.prepare(&corpus());
        let mut other = Corpus::new();
        let d = other.domain("x");
        other.push_table(
            d,
            vec![(Some("a"), vec!["1", "2"]), (Some("b"), vec!["3", "4"])],
        );
        s.prepare_streaming_with(&mut other.stream(), |_| {});
    }
}
