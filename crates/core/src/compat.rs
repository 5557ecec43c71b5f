//! Pairwise table compatibility (paper §4.1).
//!
//! * Positive compatibility `w⁺(B,B′) = max{|B∩B′|/|B|, |B∩B′|/|B′|}`
//!   (Equation 3) — the symmetric Maximum-of-Containment, chosen over
//!   Jaccard because a small table fully contained in a large one is
//!   perfectly compatible.
//! * Negative incompatibility `w⁻(B,B′) = −max{|F|/|B|, |F|/|B′|}`
//!   (Equation 4) where `F(B,B′) = {l | (l,r)∈B, (l,r′)∈B′, r≠r′}` is
//!   the FD-conflict set.
//!
//! Value matching layers (fast → slow): class equality (normalized
//! string equality ∪ synonym feed), then bounded edit-distance
//! matching (paper Algorithm 2) for residual values.
//!
//! # The scoring hot path
//!
//! Scoring shares one [`ScoringContext`] across all pairs of a run:
//!
//! * per table, a sorted interned `(left_class, right_class, right_id,
//!   left_id)` view with precomputed left-class runs, so
//!   [`ScoringContext::counts`] is a merge-join over two sorted slices
//!   (class-equality matches resolve by binary search inside a run);
//! * a global [`ApproxMemo`]: every cross-class approximate value match
//!   is resolved once per *value pair* instead of once per *table
//!   pair* — via a similarity-join pass (length window → signature
//!   prefilters → bit-parallel Myers kernel, see [`crate::approx`]) —
//!   and queried as an `O(log)` adjacency lookup behind an `O(1)`
//!   union-find component filter;
//! * [`MatchCounts`] carries both exact and approximate-inclusive
//!   counts, so weights for matching-parameter variants derive
//!   arithmetically — no re-scoring.
//!
//! It is bit-identical to the naive per-pair loop (a hash index of
//! table `b` rebuilt and edit distance re-run for every pair), kept
//! under `#[cfg(test)]` as the property-test oracle.

use crate::approx::{ApproxMemo, ApproxMemoStats, ROLE_LEFT, ROLE_RIGHT};
use crate::config::SynthesisConfig;
use crate::values::{NormBinary, NormId, ValueSpace};
use mapsynth_mapreduce::MapReduce;
use mapsynth_text::MatchParams;
use std::time::{Duration, Instant};

/// Raw match counts between two candidate tables, in two variants:
/// `exact_*` uses class equality only (normalized equality ∪ synonyms),
/// the unprefixed fields additionally count approximate (edit-distance)
/// matches when the scoring run had them enabled. Keeping both lets
/// parameter sweeps toggle approximate matching arithmetically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchCounts {
    /// `|B ∩ B′|`: matching value pairs (approximate-inclusive).
    pub overlap: u32,
    /// `|F(B,B′)|`: left classes matched with conflicting rights
    /// (approximate-inclusive).
    pub conflicts: u32,
    /// Overlap under class equality alone.
    pub exact_overlap: u32,
    /// Conflicts under class equality alone.
    pub exact_conflicts: u32,
}

impl MatchCounts {
    /// Derive edge weights (Equations 3 and 4) from the stored counts —
    /// `approx` picks the approximate-inclusive or exact variant.
    pub fn weights(&self, len_a: usize, len_b: usize, approx: bool) -> PairWeights {
        let (o, f) = if approx {
            (self.overlap, self.conflicts)
        } else {
            (self.exact_overlap, self.exact_conflicts)
        };
        weights_from(o, f, len_a, len_b)
    }
}

/// Compatibility weights for a table pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairWeights {
    /// `w⁺` in `[0, 1]`.
    pub pos: f64,
    /// `w⁻` in `[-1, 0]`.
    pub neg: f64,
}

fn weights_from(overlap: u32, conflicts: u32, len_a: usize, len_b: usize) -> PairWeights {
    let la = len_a.max(1) as f64;
    let lb = len_b.max(1) as f64;
    let o = overlap as f64;
    let f = conflicts as f64;
    PairWeights {
        pos: (o / la).max(o / lb).min(1.0),
        neg: -((f / la).max(f / lb)).min(1.0),
    }
}

/// Turn match counts into edge weights (Equations 3 and 4), using the
/// approximate-inclusive counts.
pub fn pair_weights(counts: MatchCounts, len_a: usize, len_b: usize) -> PairWeights {
    weights_from(counts.overlap, counts.conflicts, len_a, len_b)
}

/// One table's scoring view: its pairs projected to interned classes,
/// sorted, with the structures the merge-join needs precomputed.
#[derive(Clone, Debug)]
struct TableView {
    /// `(left class, right class, right id, left id)` in the table's
    /// (class-sorted) pair order.
    trips: Vec<(u32, u32, NormId, NormId)>,
    /// Consecutive left-class runs: `(left class, start, end)`.
    runs: Vec<(u32, u32, u32)>,
    /// Distinct left values sorted by id: `(left id, left class)`.
    lefts: Vec<(NormId, u32)>,
    /// Renumbering-invariant content key (see [`content_key`]), the
    /// canonical-orientation sort key.
    key: (usize, u64),
}

fn view_of(space: &ValueSpace, t: &NormBinary) -> TableView {
    let trips: Vec<(u32, u32, NormId, NormId)> = t
        .pairs
        .iter()
        .map(|&(l, r)| (space.class(l), space.class(r), r, l))
        .collect();
    let mut runs = Vec::new();
    let mut start = 0usize;
    for i in 1..=trips.len() {
        if i == trips.len() || trips[i].0 != trips[start].0 {
            runs.push((trips[start].0, start as u32, i as u32));
            start = i;
        }
    }
    let mut lefts: Vec<(NormId, u32)> = trips.iter().map(|&(lc, _, _, l)| (l, lc)).collect();
    lefts.sort_unstable();
    lefts.dedup();
    let key = content_key(space, t);
    TableView {
        trips,
        runs,
        lefts,
        key,
    }
}

/// Renumbering-invariant content key of a table: `(pair count,
/// order-independent hash of the normalized pair strings)`.
///
/// Canonical orientation must not tie-break on interned ids: that
/// would make scoring depend on the *numbering* of the value space.
/// Incremental sessions ([`crate::delta`]) intern append-only while a
/// fresh session on the same corpus renumbers from scratch, so every
/// scoring tie-break must be a function of table *content* alone —
/// otherwise delta-derived and fresh outputs could diverge on
/// equal-length tables.
pub(crate) fn content_key(space: &ValueSpace, t: &NormBinary) -> (usize, u64) {
    let hash = t
        .pairs
        .iter()
        .map(|&(l, r)| pair_content_hash(space.string(l), space.string(r)))
        .fold(0u64, u64::wrapping_add);
    (t.pairs.len(), hash)
}

/// FNV-1a over `left NUL right` (NUL cannot appear inside a normalized
/// string, so the pair encoding is unambiguous).
fn pair_content_hash(left: &str, right: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(left.as_bytes());
    eat(&[0]);
    eat(right.as_bytes());
    h
}

/// Canonical orientation over raw tables: content key, with a full
/// pair-content comparison as the (collision-only) tie-break. Shared by
/// [`score_pair`], the naive reference oracle, and the
/// [`ScoringContext`] view path so all three orient identically.
pub(crate) fn canonical_le(space: &ValueSpace, a: &NormBinary, b: &NormBinary) -> bool {
    let (ka, kb) = (content_key(space, a), content_key(space, b));
    match ka.cmp(&kb) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => {
            let strs = |t: &NormBinary| {
                let mut v: Vec<(&str, &str)> = t
                    .pairs
                    .iter()
                    .map(|&(l, r)| (space.string(l), space.string(r)))
                    .collect();
                v.sort_unstable();
                v
            };
            strs(a) <= strs(b)
        }
    }
}

/// Build-time cost breakdown of a [`ScoringContext`] (surfaced as
/// `graph_detail` by the pipeline baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScoringBuildStats {
    /// Wall-clock to build the per-table sorted views.
    pub index_build: Duration,
    /// Wall-clock of the one-shot approximate-match memo pass.
    pub approx_memo: Duration,
    /// Memo counters (values, DP calls, cached pairs, components).
    pub memo: ApproxMemoStats,
}

/// Shared scoring state for one candidate set: per-table sorted views
/// plus the global approximate-match memo. Built once per session;
/// every scored pair reuses it. Corpus deltas advance it in place with
/// [`patch`](Self::patch).
#[derive(Clone, Debug)]
pub struct ScoringContext {
    views: Vec<TableView>,
    memo: Option<ApproxMemo>,
    /// Role bits per value (kept so a delta can tell which old values
    /// *gained* a role and need fresh memo pairs).
    roles: Vec<u8>,
    params: MatchParams,
    approx_matching: bool,
    max_approx_cross: usize,
    /// Build cost breakdown.
    pub build_stats: ScoringBuildStats,
}

/// Mark the role (left / right) every value of `tables` plays.
fn mark_roles<'a>(roles: &mut [u8], tables: impl IntoIterator<Item = &'a NormBinary>) {
    for tb in tables {
        for &(l, r) in &tb.pairs {
            roles[l.0 as usize] |= ROLE_LEFT;
            roles[r.0 as usize] |= ROLE_RIGHT;
        }
    }
}

impl ScoringContext {
    /// Build the context: per-table views (parallel) and, when the
    /// config enables approximate matching, the one-shot [`ApproxMemo`]
    /// over every value that appears in a table.
    pub fn build(
        space: &ValueSpace,
        tables: &[NormBinary],
        cfg: &SynthesisConfig,
        mr: &MapReduce,
    ) -> Self {
        Self::assemble(None, space, tables, cfg, mr, |roles| {
            cfg.approx_matching
                .then(|| ApproxMemo::build(space, roles, cfg.match_params, mr))
        })
    }

    /// Rebuild the context over a *renumbered* table list while
    /// reusing `prev`'s approximate-match memo. Value ids are
    /// append-only stable across deltas even when candidate tables are
    /// renumbered, so the memoized distances — the expensive part —
    /// survive; only value pairs that became queryable (one side new
    /// or newly role-carrying) run the edit-distance kernel. Views are
    /// rebuilt (they are position-indexed and cheap).
    ///
    /// `space` must be append-only over the space `prev` was built
    /// with, and `cfg`'s matching settings must equal `prev`'s.
    pub fn rebuild_reusing(
        prev: &ScoringContext,
        space: &ValueSpace,
        tables: &[NormBinary],
        cfg: &SynthesisConfig,
        mr: &MapReduce,
    ) -> Self {
        Self::assemble(Some(prev), space, tables, cfg, mr, |roles| {
            let memo = prev.memo.as_ref()?;
            Some(memo.extend(space, &prev.roles, roles, mr))
        })
    }

    /// Build the context for a *compacted* session: views and roles
    /// are computed fresh over the compacted table list (exactly as
    /// [`build`](Self::build) would), but the approximate-match memo is
    /// carried over through [`ApproxMemo::compact`] — `map` translates
    /// pre-compaction value ids into the freshly rebuilt space — so no
    /// edit-distance work re-runs. The fresh roles also serve as the
    /// compaction filter that sheds every stale-role-only pair, leaving
    /// the memo bit-identical in behavior to a fresh build's.
    pub fn compacted(
        prev: &ScoringContext,
        space: &ValueSpace,
        tables: &[NormBinary],
        cfg: &SynthesisConfig,
        map: impl Fn(NormId) -> Option<NormId>,
        mr: &MapReduce,
    ) -> Self {
        Self::assemble(Some(prev), space, tables, cfg, mr, |roles| {
            let memo = prev.memo.as_ref()?;
            Some(memo.compact(map, space.len(), roles))
        })
    }

    /// The one construction sequence — views, roles, memo, stats — that
    /// every lifecycle shares; they differ only in where the memo comes
    /// from (`memo_for` receives the fresh roles) and in whether a
    /// `prev` context's accumulated build costs carry forward.
    fn assemble(
        prev: Option<&ScoringContext>,
        space: &ValueSpace,
        tables: &[NormBinary],
        cfg: &SynthesisConfig,
        mr: &MapReduce,
        memo_for: impl FnOnce(&[u8]) -> Option<ApproxMemo>,
    ) -> Self {
        if let Some(prev) = prev {
            assert_eq!(cfg.match_params, prev.params, "matching identity");
            assert_eq!(
                cfg.approx_matching, prev.approx_matching,
                "matching identity"
            );
        }
        let t = Instant::now();
        let views: Vec<TableView> = mr.par_map(tables, |tb| view_of(space, tb));
        let index_build = t.elapsed();

        let mut roles = vec![0u8; space.len()];
        mark_roles(&mut roles, tables);

        let mut build_stats = ScoringBuildStats {
            index_build,
            ..prev.map(|p| p.build_stats).unwrap_or_default()
        };
        let t = Instant::now();
        let memo = memo_for(&roles);
        if let Some(memo) = &memo {
            build_stats.approx_memo += t.elapsed();
            build_stats.memo = memo.stats;
        }

        Self {
            views,
            memo,
            roles,
            params: cfg.match_params,
            approx_matching: cfg.approx_matching,
            max_approx_cross: cfg.max_approx_cross,
            build_stats,
        }
    }

    /// Advance the context for a corpus delta: rebuild the views of
    /// the tables at `replaced_positions` (whose `tables` entries now
    /// hold post-patch content), append views for `new_positions`
    /// (tombstoned tables' stale views are simply never queried
    /// again), and extend the memo with the pairs that became
    /// queryable — new values, or old values that gained a role.
    ///
    /// `space` is the *grown* value space (append-only over the one
    /// the context was built with). Replaced values' old role bits are
    /// kept — stale bits only ever cache extra memo pairs no live query
    /// can reach (the same argument that lets removed tables keep
    /// theirs) — so the memo grows monotonically and only genuinely new
    /// value pairs run the edit-distance kernel.
    pub fn patch(
        &mut self,
        space: &ValueSpace,
        tables: &[NormBinary],
        replaced_positions: &[u32],
        new_positions: &[u32],
        mr: &MapReduce,
    ) {
        let t = Instant::now();
        let replaced_views: Vec<TableView> = mr.par_map(replaced_positions, |&ti| {
            view_of(space, &tables[ti as usize])
        });
        for (&p, v) in replaced_positions.iter().zip(replaced_views) {
            self.views[p as usize] = v;
        }
        let new_views: Vec<TableView> =
            mr.par_map(new_positions, |&ti| view_of(space, &tables[ti as usize]));
        debug_assert_eq!(
            new_positions.first().map(|&p| p as usize),
            (!new_positions.is_empty()).then_some(self.views.len()),
            "new views must append contiguously"
        );
        self.views.extend(new_views);
        self.build_stats.index_build += t.elapsed();

        let old_roles = std::mem::take(&mut self.roles);
        let mut roles = old_roles.clone();
        roles.resize(space.len(), 0);
        mark_roles(
            &mut roles,
            replaced_positions
                .iter()
                .chain(new_positions)
                .map(|&ti| &tables[ti as usize]),
        );
        if let Some(memo) = &self.memo {
            let t = Instant::now();
            let grown = memo.extend(space, &old_roles, &roles, mr);
            self.build_stats.approx_memo += t.elapsed();
            self.build_stats.memo = grown.stats;
            self.memo = Some(grown);
        }
        self.roles = roles;
    }

    /// Number of tables in the context.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the context holds no tables.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The approximate-match memo, when the base config enabled
    /// approximate matching.
    pub fn memo(&self) -> Option<&ApproxMemo> {
        self.memo.as_ref()
    }

    /// The matching parameters the context was built with.
    pub fn params(&self) -> MatchParams {
        self.params
    }

    /// Whether match counts for `cfg`'s matching settings are derivable
    /// from this context without re-running edit distance: always, if
    /// `cfg` disables approximate matching; otherwise the memo must
    /// exist and cover (be at least as wide as) `cfg.match_params`.
    pub fn covers(&self, cfg: &SynthesisConfig) -> bool {
        !cfg.approx_matching
            || self
                .memo
                .as_ref()
                .is_some_and(|m| m.covers(cfg.match_params))
    }

    /// Match counts for the table pair `(a, b)` under the context's
    /// base matching settings, in canonical orientation (results are
    /// symmetric: `counts(a, b) == counts(b, a)`).
    pub fn counts(&self, space: &ValueSpace, a: u32, b: u32) -> MatchCounts {
        self.counts_with(
            space,
            a,
            b,
            self.params,
            self.approx_matching,
            self.max_approx_cross,
        )
    }

    /// Match counts under alternative matching settings — a merge-join
    /// over the cached views and memo, with **zero** edit-distance
    /// work. The memo is guard-independent, so any `max_approx_cross`
    /// is answerable. Panics if `approx` is requested but unanswerable
    /// (no memo or wider-than-build `params`); check with
    /// [`covers`](Self::covers).
    pub fn counts_with(
        &self,
        space: &ValueSpace,
        a: u32,
        b: u32,
        params: MatchParams,
        approx: bool,
        max_approx_cross: usize,
    ) -> MatchCounts {
        let memo = if approx {
            let m = self
                .memo
                .as_ref()
                .expect("approximate counts need a context built with approx_matching");
            assert!(
                m.covers(params),
                "match params {:?} wider than memoized {:?}; build a new context",
                params,
                m.params()
            );
            Some(m)
        } else {
            None
        };
        let (x, y) = if view_le(space, &self.views[a as usize], &self.views[b as usize]) {
            (&self.views[a as usize], &self.views[b as usize])
        } else {
            (&self.views[b as usize], &self.views[a as usize])
        };
        merge_join_counts(space, memo, x, y, params, max_approx_cross)
    }

    /// Match counts and weights for the sorted blocked `pairs` over
    /// `tables`, merge-joining only the pairs a previous artifact's
    /// `cached` counts (sorted by pair) do not already answer.
    ///
    /// `remap` translates a table position in `cached`'s coordinates
    /// to its position in `tables`, or `None` when nothing cached
    /// about that table may be reused — it is gone, or its content
    /// changed and its pairs must re-join. It must be monotone over the
    /// positions it keeps, so the reusable entries stay sorted. Two
    /// live tables' counts depend only on their contents, the class
    /// partition restricted to their values, and memoized distances, so
    /// a reused entry is exactly what the merge-join would recompute.
    pub(crate) fn carry_counts(
        &self,
        space: &ValueSpace,
        tables: &[NormBinary],
        pairs: &[(u32, u32)],
        cached: &[(u32, u32, MatchCounts)],
        remap: impl Fn(u32) -> Option<u32>,
        mr: &MapReduce,
    ) -> CarriedCounts {
        let mut reusable = cached
            .iter()
            .filter_map(|&(a, b, c)| {
                let (a2, b2) = (remap(a)?, remap(b)?);
                debug_assert!(a2 < b2, "monotone renumbering preserves pair order");
                Some((a2, b2, c))
            })
            .peekable();
        // One slot per pair, in pair order; `fresh` lists the slots no
        // cached entry answered, filled by the merge-join below.
        let mut counts: Vec<(u32, u32, MatchCounts)> = Vec::with_capacity(pairs.len());
        let mut fresh: Vec<usize> = Vec::new();
        for &(a, b) in pairs {
            while reusable.peek().is_some_and(|r| (r.0, r.1) < (a, b)) {
                reusable.next();
            }
            match reusable.next_if(|r| (r.0, r.1) == (a, b)) {
                Some(r) => counts.push(r),
                None => {
                    fresh.push(counts.len());
                    counts.push((a, b, MatchCounts::default()));
                }
            }
        }
        let joined: Vec<MatchCounts> = mr.par_map(&fresh, |&slot| {
            let (a, b, _) = counts[slot];
            self.counts(space, a, b)
        });
        for (&slot, c) in fresh.iter().zip(joined) {
            counts[slot].2 = c;
        }
        // Raw counts are the stored artifact; weights derive
        // arithmetically.
        let scored = counts
            .iter()
            .map(|&(a, b, c)| {
                let w = c.weights(
                    tables[a as usize].len(),
                    tables[b as usize].len(),
                    self.approx_matching,
                );
                (a, b, w)
            })
            .collect();
        let kept = pairs.len() - fresh.len();
        CarriedCounts {
            counts,
            scored,
            kept,
            added: fresh.len(),
            removed: cached.len() - kept,
        }
    }

    /// Score a table pair end to end from the cached state (canonical
    /// orientation, Equations 3–4).
    pub fn score_pair(&self, space: &ValueSpace, a: u32, b: u32) -> PairWeights {
        let counts = self.counts(space, a, b);
        counts.weights(
            self.views[a as usize].trips.len(),
            self.views[b as usize].trips.len(),
            self.approx_matching,
        )
    }
}

/// What [`ScoringContext::carry_counts`] produces: the stage-3 pair
/// lists plus the tallies a delta report needs.
pub(crate) struct CarriedCounts {
    /// `(a, b, raw match counts)` for every blocked pair, sorted.
    pub counts: Vec<(u32, u32, MatchCounts)>,
    /// `(a, b, weights)` under the context's base config, same order.
    pub scored: Vec<(u32, u32, PairWeights)>,
    /// Pairs answered from the cached counts.
    pub kept: usize,
    /// Pairs merge-joined fresh.
    pub added: usize,
    /// Cached entries that answered no pair.
    pub removed: usize,
}

/// Canonical orientation on views: the precomputed content key, with a
/// string comparison for (hash-collision-only) ties — identical to
/// [`canonical_le`] by construction.
fn view_le(space: &ValueSpace, a: &TableView, b: &TableView) -> bool {
    match a.key.cmp(&b.key) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => {
            let strs = |v: &TableView| {
                let mut out: Vec<(&str, &str)> = v
                    .trips
                    .iter()
                    .map(|&(_, _, r, l)| (space.string(l), space.string(r)))
                    .collect();
                out.sort_unstable();
                out
            };
            strs(a) <= strs(b)
        }
    }
}

/// The allocation-light merge-join core: walk `a`'s and `b`'s
/// left-class runs in lockstep; resolve class-equal rights by binary
/// search within the matched run; resolve residual (class-unmatched)
/// lefts by intersecting the memo's neighbor lists with `b`'s key set.
/// Exactly reproduces the naive per-pair loop's counts.
fn merge_join_counts(
    space: &ValueSpace,
    memo: Option<&ApproxMemo>,
    a: &TableView,
    b: &TableView,
    params: MatchParams,
    max_approx_cross: usize,
) -> MatchCounts {
    let mut overlap = 0u32;
    let mut exact_overlap = 0u32;
    let mut exact_conflicts = 0u32;
    let mut last_exact_conflict: Option<u32> = None;
    // Conflict classes can repeat (and the residual pass can emit
    // classes the class-matched pass also saw), so distinct-count at
    // the end. Typically a handful of entries.
    let mut conflicts: Vec<u32> = Vec::new();
    let mut residual_pairs = 0usize;

    let (mut ai, mut bi) = (0usize, 0usize);
    while ai < a.runs.len() && bi < b.runs.len() {
        let (alc, astart, aend) = a.runs[ai];
        let (blc, bstart, bend) = b.runs[bi];
        if alc < blc {
            residual_pairs += (aend - astart) as usize;
            ai += 1;
            continue;
        }
        if alc > blc {
            bi += 1;
            continue;
        }
        let brun = &b.trips[bstart as usize..bend as usize];
        for &(_, rc, ar, _) in &a.trips[astart as usize..aend as usize] {
            // Equal range of `rc` among the run's (sorted) right classes.
            let lo = brun.partition_point(|t| t.1 < rc);
            let hi = brun.partition_point(|t| t.1 <= rc);
            let exact_m = lo < hi;
            let exact_mm = brun.len() > hi - lo;
            if exact_m {
                exact_overlap += 1;
            }
            if exact_mm && last_exact_conflict != Some(alc) {
                exact_conflicts += 1;
                last_exact_conflict = Some(alc);
            }
            match memo {
                Some(m) if exact_mm => {
                    let mut matched = exact_m;
                    let mut mismatched = false;
                    for &(_, _, br, _) in brun[..lo].iter().chain(&brun[hi..]) {
                        if matched && mismatched {
                            break;
                        }
                        if m.matches(space, ar, br, params) {
                            matched = true;
                        } else {
                            mismatched = true;
                        }
                    }
                    if matched {
                        overlap += 1;
                    }
                    if mismatched {
                        conflicts.push(alc);
                    }
                }
                _ => {
                    if exact_m {
                        overlap += 1;
                    }
                    if exact_mm {
                        conflicts.push(alc);
                    }
                }
            }
        }
        ai += 1;
        bi += 1;
    }
    while ai < a.runs.len() {
        residual_pairs += (a.runs[ai].2 - a.runs[ai].1) as usize;
        ai += 1;
    }

    // Approximate matching for lefts with no class match, bounded by
    // the cross-product guard exactly like the naive loop (the guard is
    // part of the scoring semantics, even though the memo makes the
    // work far cheaper than a cross product).
    if let Some(m) = memo {
        if residual_pairs > 0 && residual_pairs * b.trips.len() <= max_approx_cross {
            let (mut ai, mut bi) = (0usize, 0usize);
            while ai < a.runs.len() {
                let (alc, astart, aend) = a.runs[ai];
                while bi < b.runs.len() && b.runs[bi].0 < alc {
                    bi += 1;
                }
                if bi < b.runs.len() && b.runs[bi].0 == alc {
                    ai += 1;
                    continue; // class-matched run, handled above
                }
                for &(_, rc, ar, al) in &a.trips[astart as usize..aend as usize] {
                    let mut matched = false;
                    // Every mismatching b-left class counts (distinct
                    // classes are deduplicated at the end). Recording a
                    // single "winning" class would have to pick it by
                    // class id — a value-space *numbering* choice that
                    // incremental (append-only interned) and fresh
                    // sessions make differently.
                    let mut mismatched_classes: Vec<u32> = Vec::new();
                    for &(bl_raw, d) in m.neighbors(al) {
                        let bl = NormId(bl_raw);
                        let Ok(pos) = b.lefts.binary_search_by_key(&bl, |&(l, _)| l) else {
                            continue;
                        };
                        if !crate::approx::residual_match(space, al, bl, d, params) {
                            continue; // residual keys need a non-zero threshold
                        }
                        // Left values match approximately; compare the
                        // rights of this exact b-left.
                        let blc = b.lefts[pos].1;
                        let ri = b.runs.partition_point(|&(lc, _, _)| lc < blc);
                        let (_, bstart, bend) = b.runs[ri];
                        for &(_, rc2, br, l2) in &b.trips[bstart as usize..bend as usize] {
                            if l2 != bl {
                                continue;
                            }
                            if rc2 == rc || m.matches(space, ar, br, params) {
                                matched = true;
                            } else {
                                mismatched_classes.push(blc);
                            }
                        }
                    }
                    if matched {
                        overlap += 1;
                    } else {
                        conflicts.extend(mismatched_classes);
                    }
                }
                ai += 1;
            }
        }
    }

    conflicts.sort_unstable();
    conflicts.dedup();
    MatchCounts {
        overlap,
        conflicts: conflicts.len() as u32,
        exact_overlap,
        exact_conflicts,
    }
}

/// Count pair matches and left conflicts between two tables
/// (direction-sensitive — callers wanting symmetric results use
/// [`score_pair`] or a [`ScoringContext`]). Builds a throwaway
/// two-table context; scoring loops should build one shared
/// [`ScoringContext`] instead.
pub fn match_counts(
    space: &ValueSpace,
    a: &NormBinary,
    b: &NormBinary,
    cfg: &SynthesisConfig,
) -> MatchCounts {
    let (va, vb) = (view_of(space, a), view_of(space, b));
    let memo = cfg.approx_matching.then(|| {
        let mut roles = vec![0u8; space.len()];
        mark_roles(&mut roles, [a, b]);
        ApproxMemo::build(space, &roles, cfg.match_params, &MapReduce::new(1))
    });
    merge_join_counts(
        space,
        memo.as_ref(),
        &va,
        &vb,
        cfg.match_params,
        cfg.max_approx_cross,
    )
}

/// Convenience: score a table pair end to end.
///
/// `w⁺` and `w⁻` are symmetric by definition (Eq. 3–4), but the
/// approximate-matching pass walks one table's residual lefts against
/// the other's, which makes raw counts direction-dependent in corner
/// cases (an a-left can approximately hit a b-left that was already
/// exactly matched from b's perspective). A canonical orientation —
/// smaller table first, ties broken by a content hash (`content_key`:
/// it must not depend on value-space numbering) —
/// restores `score_pair(a, b) == score_pair(b, a)` exactly.
pub fn score_pair(
    space: &ValueSpace,
    a: &NormBinary,
    b: &NormBinary,
    cfg: &SynthesisConfig,
) -> PairWeights {
    let (x, y) = if canonical_le(space, a, b) {
        (a, b)
    } else {
        (b, a)
    };
    let counts = match_counts(space, x, y, cfg);
    counts.weights(x.len(), y.len(), cfg.approx_matching)
}

/// The naive per-pair scoring loop, kept verbatim as the oracle for
/// property tests: rebuilds a hash index of `b` and re-runs banded
/// edit distance for every comparison. The production merge-join +
/// memo path must be bit-identical to this.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use mapsynth_text::{approx_match, fractional_threshold};
    use std::collections::{HashMap, HashSet};

    pub fn match_counts_naive(
        space: &ValueSpace,
        a: &NormBinary,
        b: &NormBinary,
        cfg: &SynthesisConfig,
    ) -> (u32, u32) {
        // Index b by left class.
        let mut b_index: HashMap<u32, Vec<(u32, NormId)>> = HashMap::with_capacity(b.len());
        for &(l, r) in &b.pairs {
            b_index
                .entry(space.class(l))
                .or_default()
                .push((space.class(r), r));
        }

        let mut overlap = 0u32;
        let mut conflict_lefts: HashSet<u32> = HashSet::new();
        let mut unmatched_a: Vec<(NormId, NormId)> = Vec::new();

        for &(l, r) in &a.pairs {
            let lc = space.class(l);
            match b_index.get(&lc) {
                Some(rights) => {
                    let rc = space.class(r);
                    let mut matched = false;
                    let mut mismatched = false;
                    for &(brc, br) in rights {
                        if brc == rc || right_approx(space, r, br, cfg) {
                            matched = true;
                        } else {
                            mismatched = true;
                        }
                    }
                    if matched {
                        overlap += 1;
                    }
                    if mismatched {
                        conflict_lefts.insert(lc);
                    }
                }
                None => unmatched_a.push((l, r)),
            }
        }

        if cfg.approx_matching
            && !unmatched_a.is_empty()
            && unmatched_a.len() * b.len() <= cfg.max_approx_cross
        {
            let mut b_lefts: Vec<(NormId, u32)> = Vec::new();
            let mut seen = HashSet::new();
            for &(l, _) in &b.pairs {
                if seen.insert(l) {
                    b_lefts.push((l, space.class(l)));
                }
            }
            for &(al, ar) in &unmatched_a {
                let a_str = space.compact(al);
                let a_len = a_str.chars().count();
                let mut matched = false;
                // All mismatching b-left classes count (mirrors the
                // production merge-join's renumbering-invariant
                // semantics).
                let mut mismatched_lefts: Vec<u32> = Vec::new();
                for &(bl, blc) in &b_lefts {
                    let b_str = space.compact(bl);
                    // The historical prefilter mixed bytes into the
                    // band; reproduced here (it is conservative — wider
                    // than needed — so it never changes results).
                    let max_band =
                        (a_len.max(b_str.len()) as f64 * cfg.match_params.f_ed) as usize + 1;
                    if a_len.abs_diff(b_str.chars().count()) > max_band {
                        continue;
                    }
                    if fractional_threshold(a_str, b_str, cfg.match_params) == 0 {
                        continue;
                    }
                    if !approx_match(a_str, b_str, cfg.match_params) {
                        continue;
                    }
                    let rc = space.class(ar);
                    for &(l2, r2) in &b.pairs {
                        if l2 != bl {
                            continue;
                        }
                        if space.class(r2) == rc || right_approx(space, ar, r2, cfg) {
                            matched = true;
                        } else {
                            mismatched_lefts.push(blc);
                        }
                    }
                }
                if matched {
                    overlap += 1;
                } else {
                    conflict_lefts.extend(mismatched_lefts);
                }
            }
        }

        (overlap, conflict_lefts.len() as u32)
    }

    fn right_approx(space: &ValueSpace, a: NormId, b: NormId, cfg: &SynthesisConfig) -> bool {
        cfg.approx_matching && approx_match(space.compact(a), space.compact(b), cfg.match_params)
    }

    /// Oracle `score_pair`: naive counts + canonical orientation.
    pub fn score_pair_naive(
        space: &ValueSpace,
        a: &NormBinary,
        b: &NormBinary,
        cfg: &SynthesisConfig,
    ) -> PairWeights {
        let (x, y) = if canonical_le(space, a, b) {
            (a, b)
        } else {
            (b, a)
        };
        let (overlap, conflicts) = match_counts_naive(space, x, y, cfg);
        weights_from(overlap, conflicts, x.len(), y.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::build_value_space;
    use mapsynth_corpus::{BinaryId, BinaryTable, Corpus, TableId};
    use mapsynth_mapreduce::MapReduce;
    use mapsynth_text::SynonymDict;

    fn setup(tables: Vec<Vec<(&str, &str)>>) -> (std::sync::Arc<ValueSpace>, Vec<NormBinary>) {
        let mut corpus = Corpus::new();
        let d = corpus.domain("x");
        let cands: Vec<BinaryTable> = tables
            .into_iter()
            .enumerate()
            .map(|(i, rows)| {
                let syms = rows
                    .iter()
                    .map(|(l, r)| (corpus.interner.intern(l), corpus.interner.intern(r)))
                    .collect();
                BinaryTable::new(BinaryId(i as u32), TableId(i as u32), d, 0, 1, syms)
            })
            .collect();
        build_value_space(
            &corpus.interner,
            &cands,
            &SynonymDict::new(),
            &MapReduce::new(2),
        )
    }

    /// Paper Table 8 / Examples 7–9: B1 (IOC), B2 (IOC with synonyms),
    /// B3 (ISO).
    fn paper_tables() -> (std::sync::Arc<ValueSpace>, Vec<NormBinary>) {
        setup(vec![
            vec![
                ("Afghanistan", "AFG"),
                ("Albania", "ALB"),
                ("Algeria", "ALG"),
                ("American Samoa", "ASA"),
                ("South Korea", "KOR"),
                ("US Virgin Islands", "ISV"),
            ],
            vec![
                ("Afghanistan", "AFG"),
                ("Albania", "ALB"),
                ("Algeria", "ALG"),
                ("American Samoa (US)", "ASA"),
                ("Korea, Republic of (South)", "KOR"),
                ("United States Virgin Islands", "ISV"),
            ],
            vec![
                ("Afghanistan", "AFG"),
                ("Albania", "ALB"),
                ("Algeria", "DZA"),
                ("American Samoa", "ASM"),
                ("South Korea", "KOR"),
                ("US Virgin Islands", "VIR"),
            ],
        ])
    }

    #[test]
    fn paper_example_7_exact_positive() {
        // Without approximate matching: w+(B1,B2) = 3/6 = 0.5.
        let (space, t) = paper_tables();
        let cfg = SynthesisConfig {
            approx_matching: false,
            ..Default::default()
        };
        let w = score_pair(&space, &t[0], &t[1], &cfg);
        assert!((w.pos - 0.5).abs() < 1e-9, "w+ = {}", w.pos);
        assert_eq!(w.neg, 0.0);
    }

    #[test]
    fn paper_example_8_approximate_positive() {
        // With approximate matching, "American Samoa" ≈ "American
        // Samoa (US)" is also a match → w+ = 4/6 ≈ 0.67.
        let (space, t) = paper_tables();
        let cfg = SynthesisConfig::default();
        let w = score_pair(&space, &t[0], &t[1], &cfg);
        assert!((w.pos - 4.0 / 6.0).abs() < 1e-9, "w+ = {}", w.pos);
        assert_eq!(w.neg, 0.0, "same standard must not conflict");
    }

    #[test]
    fn paper_example_9_negative() {
        // B1 (IOC) vs B3 (ISO): 3 matching rows, 3 conflicting rows →
        // w+ = 0.5, w− = −0.5.
        let (space, t) = paper_tables();
        let cfg = SynthesisConfig {
            approx_matching: false,
            ..Default::default()
        };
        let w = score_pair(&space, &t[0], &t[2], &cfg);
        assert!((w.pos - 0.5).abs() < 1e-9, "w+ = {}", w.pos);
        assert!((w.neg - -0.5).abs() < 1e-9, "w− = {}", w.neg);
    }

    #[test]
    fn symmetry() {
        let (space, t) = paper_tables();
        let cfg = SynthesisConfig::default();
        let ctx = ScoringContext::build(&space, &t, &cfg, &MapReduce::new(2));
        for i in 0..t.len() {
            for j in 0..t.len() {
                let wij = score_pair(&space, &t[i], &t[j], &cfg);
                let wji = score_pair(&space, &t[j], &t[i], &cfg);
                assert!((wij.pos - wji.pos).abs() < 1e-9, "pos asym {i},{j}");
                assert!((wij.neg - wji.neg).abs() < 1e-9, "neg asym {i},{j}");
                // Context path must agree and be symmetric too.
                let cij = ctx.score_pair(&space, i as u32, j as u32);
                assert_eq!(cij, ctx.score_pair(&space, j as u32, i as u32));
                assert_eq!(cij, wij);
            }
        }
    }

    #[test]
    fn containment_beats_jaccard() {
        // Small table fully contained in a big one: w+ must be 1.0
        // even though Jaccard would be small.
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2")],
            vec![
                ("a", "1"),
                ("b", "2"),
                ("c", "3"),
                ("d", "4"),
                ("e", "5"),
                ("f", "6"),
                ("g", "7"),
                ("h", "8"),
            ],
        ]);
        let w = score_pair(&space, &t[0], &t[1], &SynthesisConfig::default());
        assert_eq!(w.pos, 1.0);
    }

    #[test]
    fn self_similarity_is_one() {
        let (space, t) = paper_tables();
        let w = score_pair(&space, &t[0], &t[0], &SynthesisConfig::default());
        assert_eq!(w.pos, 1.0);
        assert_eq!(w.neg, 0.0);
    }

    #[test]
    fn disjoint_tables_score_zero() {
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2")],
            vec![("x", "9"), ("y", "8")],
        ]);
        let w = score_pair(&space, &t[0], &t[1], &SynthesisConfig::default());
        assert_eq!(w.pos, 0.0);
        assert_eq!(w.neg, 0.0);
    }

    #[test]
    fn short_codes_never_match_approximately() {
        // "USA" vs "RSA": fractional threshold 0 → distinct.
        let (space, t) = setup(vec![
            vec![("United States", "USA"), ("Canada", "CAN")],
            vec![("United States", "RSA"), ("Canada", "CAN")],
        ]);
        let w = score_pair(&space, &t[0], &t[1], &SynthesisConfig::default());
        assert!((w.pos - 0.5).abs() < 1e-9);
        assert!((w.neg - -0.5).abs() < 1e-9, "USA vs RSA must conflict");
    }

    #[test]
    fn weights_bounded() {
        let counts = MatchCounts {
            overlap: 100,
            conflicts: 100,
            ..Default::default()
        };
        let w = pair_weights(counts, 10, 10);
        assert!(w.pos <= 1.0 && w.neg >= -1.0);
    }

    #[test]
    fn exact_counts_match_approx_disabled_run() {
        // One merge-join carries both variants: the exact side must
        // equal a full scoring run with approximate matching off.
        let (space, t) = paper_tables();
        let cfg = SynthesisConfig::default();
        let no_approx = SynthesisConfig {
            approx_matching: false,
            ..cfg
        };
        let ctx = ScoringContext::build(&space, &t, &cfg, &MapReduce::new(2));
        for i in 0..t.len() as u32 {
            for j in 0..t.len() as u32 {
                let both = ctx.counts(&space, i, j);
                let exact_only =
                    ctx.counts_with(&space, i, j, cfg.match_params, false, cfg.max_approx_cross);
                assert_eq!(both.exact_overlap, exact_only.overlap);
                assert_eq!(both.exact_conflicts, exact_only.conflicts);
                let w = score_pair(&space, &t[i as usize], &t[j as usize], &no_approx);
                assert_eq!(
                    both.weights(t[i as usize].len(), t[j as usize].len(), false),
                    w
                );
            }
        }
    }

    #[test]
    fn covers_reflects_memo_width() {
        let (space, t) = paper_tables();
        let cfg = SynthesisConfig::default();
        let ctx = ScoringContext::build(&space, &t, &cfg, &MapReduce::new(1));
        assert!(ctx.covers(&cfg));
        let tighter = SynthesisConfig {
            match_params: MatchParams { f_ed: 0.1, k_ed: 5 },
            ..cfg
        };
        assert!(ctx.covers(&tighter));
        let wider = SynthesisConfig {
            match_params: MatchParams {
                f_ed: 0.5,
                k_ed: 10,
            },
            ..cfg
        };
        assert!(!ctx.covers(&wider));
        // Approx off is always derivable, even from a no-memo context.
        let no_approx_ctx = ScoringContext::build(
            &space,
            &t,
            &SynthesisConfig {
                approx_matching: false,
                ..cfg
            },
            &MapReduce::new(1),
        );
        assert!(no_approx_ctx.covers(&SynthesisConfig {
            approx_matching: false,
            ..cfg
        }));
        assert!(!no_approx_ctx.covers(&cfg));
    }

    /// The four lifecycles' call shapes of `carry_counts`: reused
    /// entries come through verbatim (sentinel counts no merge-join
    /// could produce), the rest are joined fresh, the output follows
    /// `pairs` order, and the tallies add up.
    #[test]
    fn carry_counts_reuses_joins_and_tallies() {
        let rows = vec![("a", "1"), ("b", "2"), ("c", "3")];
        let (space, t) = setup((0..4).map(|_| rows.clone()).collect());
        let mr = MapReduce::new(2);
        let ctx = ScoringContext::build(&space, &t, &SynthesisConfig::default(), &mr);
        let sentinel = |n: u32| MatchCounts {
            overlap: 90 + n,
            ..Default::default()
        };
        const ALL_PAIRS: &[(u32, u32)] = &[(0, 1), (0, 2), (1, 2)];
        type Remap = fn(u32) -> Option<u32>;
        type Case = (
            &'static str,
            &'static [(u32, u32)],
            Vec<(u32, u32, MatchCounts)>,
            Remap,
            Vec<Option<u32>>,      // per output pair: the sentinel it reuses
            (usize, usize, usize), // kept, added, removed
        );
        let cases: Vec<Case> = vec![
            (
                "fresh prepare: nothing cached",
                ALL_PAIRS,
                vec![],
                Some,
                vec![None, None, None],
                (0, 3, 0),
            ),
            (
                "compaction / renumber: cached subset through a monotone remap",
                ALL_PAIRS,
                vec![(0, 2, sentinel(1)), (2, 3, sentinel(2))],
                |p| [Some(0), None, Some(1), Some(2)][p as usize],
                vec![Some(1), None, Some(2)],
                (2, 1, 0),
            ),
            (
                "in-place delta: cached minus a must-rejoin table",
                ALL_PAIRS,
                vec![
                    (0, 1, sentinel(1)),
                    (0, 2, sentinel(2)),
                    (1, 2, sentinel(3)),
                ],
                |p| (p != 1).then_some(p),
                vec![None, Some(2), None],
                (1, 2, 2),
            ),
            (
                "shrinking pair set: cached superset",
                &[(0, 2)],
                vec![
                    (0, 1, sentinel(1)),
                    (0, 2, sentinel(2)),
                    (0, 3, sentinel(3)),
                    (1, 2, sentinel(4)),
                ],
                Some,
                vec![Some(2)],
                (1, 0, 3),
            ),
        ];
        for (name, pairs, cached, remap, reused, tallies) in cases {
            let out = ctx.carry_counts(&space, &t, pairs, &cached, remap, &mr);
            assert_eq!((out.kept, out.added, out.removed), tallies, "{name}");
            let got: Vec<(u32, u32)> = out.counts.iter().map(|&(a, b, _)| (a, b)).collect();
            assert_eq!(got, pairs, "{name}: output follows pair order");
            for ((&(a, b, c), &(sa, sb, w)), reused) in
                out.counts.iter().zip(&out.scored).zip(reused)
            {
                let expect = reused.map_or_else(|| ctx.counts(&space, a, b), sentinel);
                assert_eq!(c, expect, "{name}: counts of ({a}, {b})");
                assert_eq!((sa, sb), (a, b), "{name}: scored order");
                assert_eq!(w, c.weights(t[a as usize].len(), t[b as usize].len(), true));
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::values::build_value_space;
    use mapsynth_corpus::{BinaryId, BinaryTable, Corpus, TableId};
    use mapsynth_mapreduce::MapReduce;
    use mapsynth_text::SynonymDict;
    use proptest::prelude::*;

    /// Two strict-mapping tables as (left, right) entity-id rows.
    type TablePair = (Vec<(u8, u8)>, Vec<(u8, u8)>);

    /// Build two strict-mapping tables (unique lefts) over a small
    /// entity universe so they overlap and conflict randomly.
    fn strategy() -> impl Strategy<Value = TablePair> {
        let table = proptest::collection::btree_map(0u8..12, 0u8..6, 2..10)
            .prop_map(|m| m.into_iter().collect::<Vec<_>>());
        (table.clone(), table)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// For strict mappings, a table pair cannot be both strongly
        /// positive and strongly negative: overlap + conflicts ≤
        /// min(|B|, |B'|) bounds w⁺ + |w⁻| by 1 (the structural fact
        /// behind the paper's partition-level use of negatives).
        #[test]
        fn prop_pos_plus_neg_bounded((a, b) in strategy()) {
            let mut corpus = Corpus::new();
            let d = corpus.domain("x");
            let mk = |corpus: &mut Corpus, i: u32, rows: &[(u8, u8)]| {
                let syms = rows
                    .iter()
                    .map(|(l, r)| {
                        (
                            corpus.interner.intern(&format!("entity-{l}")),
                            corpus.interner.intern(&format!("code-{r}")),
                        )
                    })
                    .collect();
                BinaryTable::new(BinaryId(i), TableId(i), d, 0, 1, syms)
            };
            let cands = vec![mk(&mut corpus, 0, &a), mk(&mut corpus, 1, &b)];
            let (space, tables) = build_value_space(&corpus.interner, &cands, &SynonymDict::new(), &MapReduce::new(2));
            prop_assume!(tables.len() == 2);
            let cfg = SynthesisConfig::default();
            let w = score_pair(&space, &tables[0], &tables[1], &cfg);
            prop_assert!(w.pos >= 0.0 && w.pos <= 1.0);
            prop_assert!(w.neg <= 0.0 && w.neg >= -1.0);
            prop_assert!(w.pos - w.neg <= 1.0 + 1e-9,
                "w+ {} + |w-| {} exceeds 1 for strict mappings", w.pos, -w.neg);
            // Symmetry.
            let w2 = score_pair(&space, &tables[1], &tables[0], &cfg);
            prop_assert!((w.pos - w2.pos).abs() < 1e-9);
            prop_assert!((w.neg - w2.neg).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod oracle_tests {
    //! The merge-join + memo fast path property-checked against the
    //! naive reference implementation on generated corpora that
    //! exercise every matching layer: class equality, synonym folding,
    //! approximate left/right matches, residual keys, and conflicts.

    use super::reference::{match_counts_naive, score_pair_naive};
    use super::*;
    use crate::values::build_value_space;
    use mapsynth_corpus::{BinaryId, BinaryTable, Corpus, TableId};
    use mapsynth_mapreduce::MapReduce;
    use mapsynth_text::SynonymDict;
    use proptest::prelude::*;

    /// A generated table: rows of (entity id, variant, code id, code
    /// variant). Variants introduce typo'd spellings so approximate
    /// matching fires for both lefts and rights.
    type GenTable = Vec<(u8, u8, u8, u8)>;

    fn left_str(entity: u8, variant: u8) -> String {
        // ≥ 5 chars after compaction so the fractional threshold is
        // non-zero and typos land inside it.
        let base = format!("entity number {entity} of the corpus");
        match variant % 4 {
            0 => base,
            1 => base.replace("number", "numbr"),  // deletion
            2 => base.replace("corpus", "korpus"), // substitution
            _ => format!("{base}x"),               // insertion
        }
    }

    fn right_str(code: u8, variant: u8) -> String {
        let base = format!("mapping code {code}");
        match variant % 3 {
            0 => base,
            1 => base.replace("code", "cod"),
            _ => format!("{base}s"),
        }
    }

    fn tables_strategy() -> impl Strategy<Value = (Vec<GenTable>, bool, bool)> {
        let row = (0u8..10, 0u8..4, 0u8..5, 0u8..3);
        let table = proptest::collection::vec(row, 2..9);
        (
            proptest::collection::vec(table, 2..6),
            0u8..2, // attach a synonym feed
            0u8..2, // approximate matching on/off
        )
            .prop_map(|(t, s, a)| (t, s == 1, a == 1))
    }

    fn build(gen: &[GenTable], synonyms: bool) -> (std::sync::Arc<ValueSpace>, Vec<NormBinary>) {
        let mut corpus = Corpus::new();
        let d = corpus.domain("x");
        let cands: Vec<BinaryTable> = gen
            .iter()
            .enumerate()
            .map(|(i, rows)| {
                let syms = rows
                    .iter()
                    .map(|&(e, ev, c, cv)| {
                        (
                            corpus.interner.intern(&left_str(e, ev)),
                            corpus.interner.intern(&right_str(c, cv)),
                        )
                    })
                    .collect();
                BinaryTable::new(BinaryId(i as u32), TableId(i as u32), d, 0, 1, syms)
            })
            .collect();
        let mut dict = SynonymDict::new();
        if synonyms {
            // Fold a typo variant into its base spelling for one entity
            // and one code (distinct values collapse into one class, so
            // class equality fires across different strings).
            dict.declare(&left_str(1, 0), &left_str(1, 1));
            dict.declare(&right_str(1, 0), &right_str(1, 1));
        }
        build_value_space(&corpus.interner, &cands, &dict, &MapReduce::new(2))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The tentpole invariant: merge-join + memo counts are
        /// bit-identical to the naive loop for every table pair, every
        /// orientation, with and without approximate matching.
        #[test]
        fn prop_fast_path_matches_naive((gen, synonyms, approx) in tables_strategy()) {
            let (space, tables) = build(&gen, synonyms);
            prop_assume!(tables.len() >= 2);
            let cfg = SynthesisConfig {
                approx_matching: approx,
                ..Default::default()
            };
            let ctx = ScoringContext::build(&space, &tables, &cfg, &MapReduce::new(2));
            for i in 0..tables.len() {
                for j in 0..tables.len() {
                    let naive = match_counts_naive(&space, &tables[i], &tables[j], &cfg);
                    let fast = match_counts(&space, &tables[i], &tables[j], &cfg);
                    prop_assert_eq!(
                        (fast.overlap, fast.conflicts),
                        naive,
                        "direction-sensitive counts differ for ({}, {})", i, j
                    );
                    // Context path (canonical orientation) vs oracle
                    // score_pair.
                    let w_ctx = ctx.score_pair(&space, i as u32, j as u32);
                    let w_naive = score_pair_naive(&space, &tables[i], &tables[j], &cfg);
                    prop_assert_eq!(w_ctx, w_naive, "weights differ for ({}, {})", i, j);
                }
            }
        }

        /// Tiny cross-product guard: forcing the guard low must disable
        /// residual matching identically on both paths.
        #[test]
        fn prop_guard_respected((gen, synonyms, _) in tables_strategy(), guard in 0usize..64) {
            let (space, tables) = build(&gen, synonyms);
            prop_assume!(tables.len() >= 2);
            let cfg = SynthesisConfig {
                max_approx_cross: guard,
                ..Default::default()
            };
            for i in 0..tables.len() {
                for j in 0..tables.len() {
                    let naive = match_counts_naive(&space, &tables[i], &tables[j], &cfg);
                    let fast = match_counts(&space, &tables[i], &tables[j], &cfg);
                    prop_assert_eq!((fast.overlap, fast.conflicts), naive);
                }
            }
        }
    }
}
