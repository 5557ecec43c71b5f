//! Co-occurrence statistics: PMI, NPMI and column coherence.
//!
//! Paper §3.1. The coherence of a column is the average pairwise
//! Normalized Pointwise Mutual Information (NPMI) of its values, where
//! co-occurrence is measured over all columns of the corpus:
//!
//! * `PMI(u,v) = log( p(u,v) / (p(u)·p(v)) )`           (Equation 1)
//! * `NPMI(u,v) = PMI(u,v) / (−log p(u,v))` in `[-1, 1]`
//! * `S(C) = mean of s(v_i, v_j) over value pairs`       (Equation 2)
//!
//! Columns whose values never co-occur elsewhere ("Location" in the
//! paper's Table 7: mixed addresses, zip codes, free text) score low and
//! are pruned before candidate extraction.

use crate::index::{GlobalColId, ValueIndex};
use crate::intern::Sym;
use std::cell::RefCell;
use std::ops::Range;

/// Pre-resolved co-occurrence counts for a pair of values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CooccurrenceStats {
    /// `|C(u)|`
    pub count_u: usize,
    /// `|C(v)|`
    pub count_v: usize,
    /// `|C(u) ∩ C(v)|`
    pub count_uv: usize,
    /// Total columns `N`.
    pub total: usize,
}

impl CooccurrenceStats {
    /// Gather counts from the inverted index.
    pub fn gather(index: &ValueIndex, u: Sym, v: Sym) -> Self {
        Self {
            count_u: index.column_count(u),
            count_v: index.column_count(v),
            count_uv: index.cooccurrence(u, v),
            total: index.total_columns(),
        }
    }

    /// Gather counts while excluding one column from the statistics.
    ///
    /// When scoring the coherence of column `g` itself, `g` must not
    /// contribute evidence: otherwise any column trivially co-occurs
    /// with itself and junk columns of corpus-unique values would score
    /// +1 instead of −1.
    pub fn gather_excluding(index: &ValueIndex, u: Sym, v: Sym, exclude: GlobalColId) -> Self {
        let in_u = index.columns(u).binary_search(&exclude).is_ok();
        let in_v = index.columns(v).binary_search(&exclude).is_ok();
        Self {
            count_u: index.column_count(u) - usize::from(in_u),
            count_v: index.column_count(v) - usize::from(in_v),
            count_uv: index.cooccurrence(u, v) - usize::from(in_u && in_v),
            total: index.total_columns().saturating_sub(1),
        }
    }
}

/// Pointwise mutual information (paper Equation 1).
///
/// Returns `None` when any probability is zero (a value never observed
/// in a column, or the pair never co-occurring), where PMI is
/// undefined / −∞.
pub fn pmi(s: CooccurrenceStats) -> Option<f64> {
    if s.count_u == 0 || s.count_v == 0 || s.count_uv == 0 || s.total == 0 {
        return None;
    }
    let n = s.total as f64;
    let p_u = s.count_u as f64 / n;
    let p_v = s.count_v as f64 / n;
    let p_uv = s.count_uv as f64 / n;
    Some((p_uv / (p_u * p_v)).ln())
}

/// Normalized PMI in `[-1, 1]`; the coherence `s(u, v)` of §3.1.
///
/// Pairs that never co-occur get the minimum score −1 (the limit of
/// NPMI as `p(u,v) → 0`), so incoherent columns are penalized rather
/// than skipped. A pair that always co-occurs (`p(u,v) = p(u) = p(v)`)
/// scores +1. When `p(u,v) = 1` (both values in every column) the
/// normalizer is 0; such degenerate pairs score +1 by convention.
pub fn npmi(s: CooccurrenceStats) -> f64 {
    if s.count_uv == 0 || s.total == 0 {
        return -1.0;
    }
    if s.count_uv == s.total {
        return 1.0;
    }
    let p_uv = s.count_uv as f64 / s.total as f64;
    match pmi(s) {
        Some(p) => (p / -p_uv.ln()).clamp(-1.0, 1.0),
        None => -1.0,
    }
}

/// Configuration for column coherence scoring.
#[derive(Clone, Copy, Debug)]
pub struct CoherenceConfig {
    /// Maximum number of distinct values sampled from a column before
    /// computing pairwise scores. Equation 2 is O(|C|²); sampling keeps
    /// wide columns affordable with negligible effect on the mean
    /// (the paper computes the same statistic on Map-Reduce).
    pub max_sample: usize,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        Self { max_sample: 40 }
    }
}

/// Column coherence `S(C)` (paper Equation 2): average pairwise NPMI of
/// the column's distinct values.
///
/// Sampling is deterministic (evenly strided over first-occurrence
/// order) so results are reproducible. Columns with fewer than two
/// distinct values get coherence 1.0: a constant column is trivially
/// coherent (and will be rejected later by FD filtering if useless).
pub fn column_coherence(index: &ValueIndex, distinct_values: &[Sym], cfg: CoherenceConfig) -> f64 {
    coherence_inner(index, distinct_values, cfg, None)
}

/// Column coherence of the column with global id `exclude`, with that
/// column removed from the co-occurrence evidence. This is the form
/// used by extraction: a column must be coherent *according to the rest
/// of the corpus*, not according to itself.
pub fn column_coherence_excluding(
    index: &ValueIndex,
    distinct_values: &[Sym],
    cfg: CoherenceConfig,
    exclude: GlobalColId,
) -> f64 {
    coherence_inner(index, distinct_values, cfg, Some(exclude))
}

fn coherence_inner(
    index: &ValueIndex,
    distinct_values: &[Sym],
    cfg: CoherenceConfig,
    exclude: Option<GlobalColId>,
) -> f64 {
    let vals = sample_values(distinct_values, cfg);
    coherence_sum(vals.len(), |i, j| match exclude {
        Some(g) => CooccurrenceStats::gather_excluding(index, vals[i], vals[j], g),
        None => CooccurrenceStats::gather(index, vals[i], vals[j]),
    })
}

/// The deterministic sample (evenly strided over first-occurrence
/// order, no RNG) Equation 2 is evaluated over.
fn sample_values(distinct_values: &[Sym], cfg: CoherenceConfig) -> Vec<Sym> {
    if distinct_values.len() > cfg.max_sample {
        let stride = distinct_values.len() as f64 / cfg.max_sample as f64;
        (0..cfg.max_sample)
            .map(|i| distinct_values[(i as f64 * stride) as usize])
            .collect()
    } else {
        distinct_values.to_vec()
    }
}

/// The shared Equation 2 summation: mean NPMI over sampled pairs in
/// `i < j` order. Every coherence entry point funnels through this one
/// loop, so a score recomputed from cached counts is bit-identical to
/// one gathered from the index.
fn coherence_sum(
    n_vals: usize,
    mut stats_of: impl FnMut(usize, usize) -> CooccurrenceStats,
) -> f64 {
    if n_vals < 2 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..n_vals {
        for j in (i + 1)..n_vals {
            sum += npmi(stats_of(i, j));
            pairs += 1;
        }
    }
    sum / pairs as f64
}

/// Raw co-occurrence evidence behind one column's coherence score,
/// cached by incremental extraction so a corpus delta can re-score the
/// column arithmetically instead of re-intersecting posting lists.
///
/// Counts are *raw* (they still include the scored column itself); the
/// self-exclusion of [`column_coherence_excluding`] is pure arithmetic
/// — every sampled value is by definition in the column, so each count
/// is reduced by exactly one — and is re-applied by
/// [`coherence_from_counts`].
#[derive(Clone, Debug)]
pub struct CoherenceDetail {
    /// The sampled values, in sample order.
    pub samples: Vec<Sym>,
    /// `|C(u)|` per sampled value (including the scored column).
    pub value_counts: Vec<u32>,
    /// `|C(u) ∩ C(v)|` per sampled pair, in `i < j` order (including
    /// the scored column).
    pub pair_counts: Vec<u32>,
}

/// Funnel counters for the sketch-accelerated coherence pair loop:
/// how many sampled pairs were resolved from sketches alone versus
/// needing real posting-list data. Purely observational — the counts
/// themselves are exact either way — but committed to the scale-tier
/// baseline so a regression in sketch effectiveness fails CI.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoherenceFunnel {
    /// Pairs resolved without touching a posting list: zero-length or
    /// singleton shortcuts, and sketch bounds that pinched
    /// (`lower == upper`).
    pub sketch_rejects: u64,
    /// Pairs that fell through to posting-list data (small-list
    /// probes or the restricted-universe bitmap intersection).
    pub list_probes: u64,
}

impl CoherenceFunnel {
    /// Fold another funnel's counts into this one (per-table funnels
    /// are gathered in parallel and merged by the extraction cache).
    pub fn merge(&mut self, other: &CoherenceFunnel) {
        self.sketch_rejects += other.sketch_rejects;
        self.list_probes += other.list_probes;
    }
}

/// Below this length a direct gallop of the shorter list against the
/// longer is cheaper than routing the pair through the bitmap
/// intersection (and keeps the bitmap universe small).
const DIRECT_PROBE_MAX: usize = 8;

/// [`column_coherence_excluding`] plus the raw evidence it was computed
/// from. The score is bit-identical to the plain entry point.
///
/// The O(samples²) pair loop consults the posting-list sketches first
/// ([`crate::sketch::PostingSketch`]); pairs the exact bounds resolve
/// never touch a posting list, and the survivors are intersected
/// together over one restricted universe of column ids (64 columns per
/// machine word) instead of pair-by-pair list merges. Every count is
/// exact, so the detail — and therefore the score — is bit-identical
/// to the `#[cfg(test)]` probe oracle this path is tested against.
pub fn column_coherence_detailed(
    index: &ValueIndex,
    distinct_values: &[Sym],
    cfg: CoherenceConfig,
    exclude: GlobalColId,
    funnel: &mut CoherenceFunnel,
) -> (f64, CoherenceDetail) {
    let samples = sample_values(distinct_values, cfg);
    let value_counts: Vec<u32> = samples
        .iter()
        .map(|&u| {
            debug_assert!(index.columns(u).binary_search(&exclude).is_ok());
            index.column_count(u) as u32
        })
        .collect();
    let pair_counts = pair_cooccurrences(index, &samples, exclude, funnel);
    let score = coherence_from_counts(&value_counts, &pair_counts, index.total_columns());
    (
        score,
        CoherenceDetail {
            samples,
            value_counts,
            pair_counts,
        },
    )
}

/// `|C(u) ∩ C(v)|` for every sampled pair in `i < j` order — the exact
/// counts the old pair-by-pair [`ValueIndex::cooccurrence`] loop
/// produced, through a four-tier funnel (the first three classify a
/// pair on its own, the last counts all survivors together):
///
/// 1. **Shortcuts** — an empty list intersects nothing; when both
///    lists contain the scored column `g`, a singleton list is exactly
///    `{g}` and the pair counts 1.
/// 2. **Sketch resolution** — when both lists carry a sketch, its
///    exact lower/upper overlap bounds (floored at 1 when both lists
///    contain `g`); a pinched pair (`lb == ub`) is resolved without
///    list access.
/// 3. **Gallop** — when a side is unsketched and at most
///    [`DIRECT_PROBE_MAX`] long, the shorter list is binary-searched
///    in the longer.
/// 4. **Scatter-built bitmap intersection** — survivors are counted
///    over one shared restricted universe: every gid of the involved
///    posting lists gets a dense bit position on first touch (see
///    [`Universe::scatter`]), each list is read once into a bitvector,
///    each pair is a word-parallel AND/popcount. The cost is the postings
///    read plus the words intersected — no sort, no merge.
fn pair_cooccurrences(
    index: &ValueIndex,
    samples: &[Sym],
    exclude: GlobalColId,
    funnel: &mut CoherenceFunnel,
) -> Vec<u32> {
    let k = samples.len();
    let n_pairs = k * k.saturating_sub(1) / 2;
    let mut pair_counts = vec![0u32; n_pairs];
    if n_pairs == 0 {
        return pair_counts;
    }
    // Per-sample facts, gathered once: list length and whether the
    // scored column is a member (true by construction when extraction
    // calls this, but verified so the entry point stays exact for any
    // caller).
    let lens: Vec<usize> = samples.iter().map(|&u| index.column_count(u)).collect();
    let has_g: Vec<bool> = samples
        .iter()
        .map(|&u| index.columns(u).binary_search(&exclude).is_ok())
        .collect();

    // (i, j, slot) of pairs the sketches could not resolve.
    let mut unresolved: Vec<(u32, u32, u32)> = Vec::new();
    let mut slot = 0usize;
    for i in 0..k {
        for j in (i + 1)..k {
            let floor = u32::from(has_g[i] && has_g[j]);
            if lens[i] == 0 || lens[j] == 0 {
                // pair_counts[slot] stays 0.
                funnel.sketch_rejects += 1;
            } else if floor == 1 && (lens[i] == 1 || lens[j] == 1) {
                // A singleton list containing g is exactly {g}, and g
                // is in the other list too.
                pair_counts[slot] = 1;
                funnel.sketch_rejects += 1;
            } else if let (Some(su), Some(sv)) =
                (index.sketch(samples[i]), index.sketch(samples[j]))
            {
                let lb = floor.max(su.overlap_lower_bound(sv));
                let ub = su.overlap_upper_bound(sv, lens[i] as u32, lens[j] as u32);
                if lb == ub {
                    debug_assert_eq!(
                        lb,
                        index.cooccurrence(samples[i], samples[j]) as u32,
                        "sketch resolved a pair to the wrong count"
                    );
                    pair_counts[slot] = lb;
                    funnel.sketch_rejects += 1;
                } else {
                    unresolved.push((i as u32, j as u32, slot as u32));
                }
            } else if lens[i].min(lens[j]) <= DIRECT_PROBE_MAX {
                // Short lists gallop against the longer one directly —
                // cheaper than widening the bitmap universe for them.
                pair_counts[slot] =
                    gallop_intersection(index.columns(samples[i]), index.columns(samples[j]));
                funnel.list_probes += 1;
            } else {
                unresolved.push((i as u32, j as u32, slot as u32));
            }
            slot += 1;
        }
    }
    if unresolved.is_empty() {
        return pair_counts;
    }
    funnel.list_probes += unresolved.len() as u64;

    let mut involved = vec![false; k];
    for &(i, j, _) in &unresolved {
        involved[i as usize] = true;
        involved[j as usize] = true;
    }
    // One bitvector per involved sample over the restricted universe,
    // all in one arena, each posting list read exactly once. Rows grow
    // with the universe: a later, longer row has no bit of an earlier
    // list beyond that list's own row, so AND/popcount over the
    // shorter of two rows is exact.
    let mut arena: Vec<u64> = Vec::new();
    let mut rows = vec![0..0; k];
    with_universe(|universe| {
        for i in (0..k).filter(|&i| involved[i]) {
            rows[i] = universe.scatter(index.columns(samples[i]), &mut arena);
        }
    });
    for &(i, j, s) in &unresolved {
        let (ru, rv) = (
            &arena[rows[i as usize].clone()],
            &arena[rows[j as usize].clone()],
        );
        pair_counts[s as usize] = ru.iter().zip(rv).map(|(a, b)| (a & b).count_ones()).sum();
    }
    pair_counts
}

/// Marks a gid without a bit position in [`Scratch::position`].
const UNPLACED: u32 = u32::MAX;

/// Per-thread scratch behind [`Universe`]: a dense `gid → bit
/// position` table that outlives the call so scoring a column costs
/// its postings, not a table-sized clear.
struct Scratch {
    /// `position[gid]`, [`UNPLACED`] for every gid outside a
    /// [`with_universe`] section. Grown on demand to the largest gid a
    /// posting list mentions — [`ValueIndex::total_columns`] counts
    /// live columns and is no bound once deltas leave gaps.
    position: Vec<u32>,
    /// The gids placed so far, in first-touch order: `placed[p]` sits
    /// at bit `p`. Doubles as the undo list.
    placed: Vec<GlobalColId>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            position: Vec::new(),
            placed: Vec::new(),
        })
    };
}

/// The restricted universe of one [`pair_cooccurrences`] call: hands
/// out dense bit positions to gids in first-touch order, which is all
/// AND/popcount needs. Dropping it un-places every gid it placed, so
/// the thread's [`Scratch`] is clean on the next entry even when the
/// section is left by a panic that a caller contains
/// (`apply_delta`'s `catch_unwind`).
struct Universe<'a>(&'a mut Scratch);

impl Universe<'_> {
    /// Append the bitvector of one sorted posting list to `arena` and
    /// return its span. A gid gets the next free bit position the
    /// first time any list mentions it, so the row only extends to the
    /// universe size reached when this list ends.
    fn scatter(&mut self, list: &[GlobalColId], arena: &mut Vec<u64>) -> Range<usize> {
        let Scratch { position, placed } = &mut *self.0;
        // The list is sorted: its last gid is its largest.
        let bound = list.last().map_or(0, |g| g.0 as usize + 1);
        if position.len() < bound {
            position.resize(bound, UNPLACED);
        }
        let start = arena.len();
        arena.resize(start + (placed.len() + list.len()).div_ceil(64), 0);
        let row = &mut arena[start..];
        for &gid in list {
            let at = &mut position[gid.0 as usize];
            if *at == UNPLACED {
                *at = placed.len() as u32;
                placed.push(gid);
            }
            row[*at as usize / 64] |= 1u64 << (*at % 64);
        }
        arena.truncate(start + placed.len().div_ceil(64));
        start..arena.len()
    }
}

impl Drop for Universe<'_> {
    fn drop(&mut self) {
        for gid in self.0.placed.drain(..) {
            self.0.position[gid.0 as usize] = UNPLACED;
        }
    }
}

/// Run `f` over an empty [`Universe`] backed by this thread's scratch.
fn with_universe<R>(f: impl FnOnce(&mut Universe<'_>) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut Universe(&mut scratch.borrow_mut())))
}

/// `|a ∩ b|` by binary-searching each element of the shorter list in
/// the longer — exact, and O(short · log long) instead of the linear
/// merge, which matters when a rare value meets a hot one.
fn gallop_intersection(a: &[GlobalColId], b: &[GlobalColId]) -> u32 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short
        .iter()
        .filter(|g| long.binary_search(g).is_ok())
        .count() as u32
}

/// The pre-sketch pair loop, kept as the oracle the fast path is
/// tested against: plain pair-by-pair posting-list intersections.
#[cfg(test)]
fn pair_cooccurrences_probe(index: &ValueIndex, samples: &[Sym]) -> Vec<u32> {
    let mut pair_counts = Vec::with_capacity(samples.len() * samples.len().saturating_sub(1) / 2);
    for i in 0..samples.len() {
        for j in (i + 1)..samples.len() {
            pair_counts.push(index.cooccurrence(samples[i], samples[j]) as u32);
        }
    }
    pair_counts
}

/// Re-score a column from cached raw counts (see [`CoherenceDetail`])
/// against a corpus of `total` live columns. Bit-identical to
/// [`column_coherence_excluding`] gathered from an index with the same
/// counts.
pub fn coherence_from_counts(value_counts: &[u32], pair_counts: &[u32], total: usize) -> f64 {
    let mut k = 0usize;
    coherence_sum(value_counts.len(), |i, j| {
        let count_uv = pair_counts[k] as usize - 1;
        k += 1;
        CooccurrenceStats {
            count_u: value_counts[i] as usize - 1,
            count_v: value_counts[j] as usize - 1,
            count_uv,
            total: total.saturating_sub(1),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Corpus;

    #[test]
    fn pmi_example_from_paper() {
        // Paper Example 4: N = 100M, |C(u)|=1000, |C(v)|=500,
        // |C(u)∩C(v)|=300 → PMI = 4.78 (natural log in our
        // implementation gives ln(60000) ≈ 11.0; the paper's 4.78 is
        // log base 10: 10^4.78 ≈ 60256). Check the ratio itself.
        let s = CooccurrenceStats {
            count_u: 1000,
            count_v: 500,
            count_uv: 300,
            total: 100_000_000,
        };
        let p = pmi(s).unwrap();
        // ratio = (300/1e8) / ((1000/1e8)*(500/1e8)) = 60000
        assert!((p - 60000f64.ln()).abs() < 1e-9);
        // log10 form matches the paper's 4.78
        assert!(((p / 10f64.ln()) - 4.778).abs() < 1e-3);
        let n = npmi(s);
        assert!(n > 0.0 && n <= 1.0, "paper: strong coherence, got {n}");
    }

    #[test]
    fn npmi_bounds() {
        // never co-occur
        let s = CooccurrenceStats {
            count_u: 10,
            count_v: 10,
            count_uv: 0,
            total: 100,
        };
        assert_eq!(npmi(s), -1.0);
        // perfectly correlated
        let s = CooccurrenceStats {
            count_u: 5,
            count_v: 5,
            count_uv: 5,
            total: 100,
        };
        assert!((npmi(s) - 1.0).abs() < 1e-12);
        // degenerate: everything everywhere
        let s = CooccurrenceStats {
            count_u: 100,
            count_v: 100,
            count_uv: 100,
            total: 100,
        };
        assert_eq!(npmi(s), 1.0);
    }

    #[test]
    fn npmi_negative_for_anticorrelated() {
        // u and v each frequent, rarely together → below 0.
        let s = CooccurrenceStats {
            count_u: 5000,
            count_v: 5000,
            count_uv: 1,
            total: 10_000,
        };
        assert!(npmi(s) < 0.0);
    }

    #[test]
    fn coherent_vs_incoherent_column() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        // Countries co-occur in many columns.
        for _ in 0..20 {
            c.push_table(d, vec![(None, vec!["USA", "Canada", "Japan"])]);
        }
        // Unrelated background tables so no value spans the entire
        // corpus (PMI is uninformative for ubiquitous values).
        for i in 0..20 {
            let a = format!("city-{i}");
            let b = format!("city-{}", (i + 1) % 20);
            c.push_table(d, vec![(None, vec![&a, &b])]);
        }
        // A messy column whose values appear nowhere else.
        c.push_table(
            d,
            vec![(None, vec!["USA", "blob-1", "blob-2", "blob-3", "blob-4"])],
        );
        let idx = ValueIndex::build(&c);
        let cfg = CoherenceConfig::default();
        let coherent = &c.tables[0].columns[0];
        let messy = &c.tables[40].columns[0];
        // Column global ids: one column per table here, in order.
        let s_good = column_coherence_excluding(&idx, &coherent.distinct(), cfg, GlobalColId(0));
        let s_bad = column_coherence_excluding(&idx, &messy.distinct(), cfg, GlobalColId(40));
        assert!(
            s_good > 0.5 && s_bad < 0.0,
            "coherent={s_good:.3} messy={s_bad:.3}"
        );
    }

    #[test]
    fn self_column_excluded_from_evidence() {
        // A column of corpus-unique values must not look coherent by
        // co-occurring with itself.
        let mut c = Corpus::new();
        let d = c.domain("x");
        c.push_table(d, vec![(None, vec!["uniq-a", "uniq-b", "uniq-c"])]);
        c.push_table(d, vec![(None, vec!["other-1", "other-2"])]);
        let idx = ValueIndex::build(&c);
        let col = &c.tables[0].columns[0];
        let with_self = column_coherence(&idx, &col.distinct(), CoherenceConfig::default());
        let without = column_coherence_excluding(
            &idx,
            &col.distinct(),
            CoherenceConfig::default(),
            GlobalColId(0),
        );
        assert!(with_self > 0.9, "self-evidence inflates: {with_self}");
        assert_eq!(without, -1.0);
    }

    #[test]
    fn coherence_sampling_is_deterministic_and_bounded() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        let many: Vec<String> = (0..200).map(|i| format!("v{i}")).collect();
        let refs: Vec<&str> = many.iter().map(String::as_str).collect();
        c.push_table(d, vec![(None, refs.clone())]);
        c.push_table(d, vec![(None, refs)]);
        let idx = ValueIndex::build(&c);
        let col = &c.tables[0].columns[0];
        let cfg = CoherenceConfig { max_sample: 10 };
        let a = column_coherence(&idx, &col.distinct(), cfg);
        let b = column_coherence(&idx, &col.distinct(), cfg);
        assert_eq!(a, b);
        assert!((-1.0..=1.0).contains(&a));
        // Values always co-occur → high coherence.
        assert!(a > 0.9);
    }

    #[test]
    fn single_value_column_is_trivially_coherent() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        c.push_table(d, vec![(None, vec!["only", "only"])]);
        let idx = ValueIndex::build(&c);
        let col = &c.tables[0].columns[0];
        assert_eq!(
            column_coherence(&idx, &col.distinct(), CoherenceConfig::default()),
            1.0
        );
    }

    /// One live column of a test's model of the index: its gid and its
    /// distinct values in first-occurrence order.
    type ModelColumn = (GlobalColId, Vec<Sym>);

    /// The model of a freshly built single-column-per-table corpus.
    fn model_of(c: &Corpus) -> Vec<ModelColumn> {
        (c.tables.iter().enumerate())
            .map(|(ti, t)| (GlobalColId(ti as u32), t.columns[0].distinct()))
            .collect()
    }

    /// Score every live column on the calling thread — forward, then
    /// in reverse, so each call inherits the scratch a *different*
    /// column left behind — and hold every call to the probe oracle
    /// bit for bit: pair counts, and the f64 score.
    fn assert_columns_match_probe(
        idx: &ValueIndex,
        columns: &[ModelColumn],
        cfg: CoherenceConfig,
    ) -> CoherenceFunnel {
        let mut funnel = CoherenceFunnel::default();
        for (g, distinct) in columns.iter().chain(columns.iter().rev()) {
            let (score, detail) = column_coherence_detailed(idx, distinct, cfg, *g, &mut funnel);
            assert_eq!(
                detail.pair_counts,
                pair_cooccurrences_probe(idx, &detail.samples),
                "pair counts diverged from probe oracle on column {g:?}"
            );
            let oracle = column_coherence_excluding(idx, distinct, cfg, *g);
            assert_eq!(score.to_bits(), oracle.to_bits(), "score drifted, {g:?}");
        }
        funnel
    }

    /// The sketch fast path must reproduce the probe oracle bit for
    /// bit — pair counts, value counts, and the f64 score — on a
    /// corpus mixing hot (sketched), rare, and column-unique values.
    #[test]
    fn fast_pair_counts_match_probe_oracle() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        for i in 0..30 {
            let uniq = format!("u{i}");
            c.push_table(
                d,
                vec![(
                    None,
                    vec!["USA", "Canada", "Japan", uniq.as_str(), "rare-pair"],
                )],
            );
        }
        c.push_table(
            d,
            vec![(None, vec!["USA", "blob-1", "blob-2", "rare-pair", "u7"])],
        );
        let idx = ValueIndex::build(&c);
        let funnel = assert_columns_match_probe(&idx, &model_of(&c), CoherenceConfig::default());
        assert!(funnel.sketch_rejects > 0, "no pair resolved by sketch");
        assert!(funnel.list_probes > 0, "no pair needed a probe");
    }

    /// A 100-value column over 150 partially overlapping tables: every
    /// posting list is long enough to be sketched and no two overlap
    /// tidily, so the pairs land in the bitmap tier — over a universe
    /// of 151 columns, which the first lists do not yet span.
    fn wide_corpus() -> Corpus {
        let mut c = Corpus::new();
        let d = c.domain("x");
        let names: Vec<String> = (0..100).map(|v| format!("w{v}")).collect();
        c.push_table(d, vec![(None, names.iter().map(String::as_str).collect())]);
        for t in 0..150 {
            let vals = (0..100).filter(|v| (v * 31 + t * 17) % 7 < 3);
            c.push_table(d, vec![(None, vals.map(|v| names[v].as_str()).collect())]);
        }
        c
    }

    /// More than 64 samples in one restricted universe of more than
    /// 64 columns: rows span several words and later rows are longer
    /// than earlier ones.
    #[test]
    fn fast_pair_counts_match_probe_beyond_64_samples() {
        let c = wide_corpus();
        let idx = ValueIndex::build(&c);
        let cfg = CoherenceConfig { max_sample: 100 };
        let wide = &model_of(&c)[..1];
        let funnel = assert_columns_match_probe(&idx, wide, cfg);
        // Two calls on the wide column; 64 samples span at most
        // C(64, 2) = 2016 pairs, so more were involved at once.
        assert!(
            funnel.list_probes > 2 * 2016,
            "{} probes: the wide column did not reach the bitmap tier",
            funnel.list_probes
        );
        assert_columns_match_probe(&idx, &model_of(&c), cfg);
    }

    /// A panic that unwinds out of the scatter section (contained by a
    /// caller's `catch_unwind`, as `apply_delta` does) must leave the
    /// thread's scratch clean: the next call on the same thread equals
    /// the probe oracle bit for bit.
    #[test]
    fn scratch_is_clean_after_a_panic_unwinds_the_scatter() {
        let c = wide_corpus();
        let idx = ValueIndex::build(&c);
        let columns = model_of(&c);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_universe(|universe| {
                let mut arena = Vec::new();
                for &v in &columns[0].1 {
                    universe.scatter(idx.columns(v), &mut arena);
                }
                assert_eq!(
                    universe.0.placed.len(),
                    columns.len(),
                    "every column placed"
                );
                // Unwinds like a panic, without the hook's stderr noise.
                std::panic::resume_unwind(Box::new("induced"));
            })
        }));
        assert!(unwound.is_err());
        SCRATCH.with(|scratch| {
            let scratch = scratch.borrow();
            assert!(scratch.placed.is_empty());
            assert_eq!(scratch.position.len(), columns.len());
            assert!(scratch.position.iter().all(|&at| at == UNPLACED));
        });
        assert_columns_match_probe(&idx, &columns, CoherenceConfig { max_sample: 100 });
    }

    proptest::proptest! {
        /// Bit-identity on arbitrary corpora under arbitrary index
        /// maintenance: whatever mixture of list lengths, overlaps and
        /// saturations the generator produces, every column's fast
        /// pair loop equals the probe oracle — initially and after
        /// each `add_column` (at the next gid, or past a gap far above
        /// `total_columns()`), `remove_column` and `patch_column` —
        /// with all calls sharing one thread's scratch.
        #[test]
        fn prop_fast_pair_counts_match_probe(
            tables in proptest::collection::vec(
                proptest::collection::vec(0u8..24, 1..12),
                1..24,
            ),
            edits in proptest::collection::vec(
                (
                    0u8..3,
                    0usize..64,
                    proptest::collection::vec(0u8..32, 1..12),
                    0usize..3,
                ),
                0..8,
            ),
        ) {
            let mut c = Corpus::new();
            let d = c.domain("x");
            let syms: Vec<Sym> = (0..32).map(|v| c.interner.intern(&format!("v{v}"))).collect();
            for vals in &tables {
                let strs: Vec<String> = vals.iter().map(|v| format!("v{v}")).collect();
                let refs: Vec<&str> = strs.iter().map(String::as_str).collect();
                c.push_table(d, vec![(None, refs)]);
            }
            let mut idx = ValueIndex::build(&c);
            let mut columns = model_of(&c);
            let mut next_gid = columns.len() as u32;
            let cfg = CoherenceConfig::default();
            assert_columns_match_probe(&idx, &columns, cfg);
            for (op, target, vals, gap) in edits {
                let mut vals: Vec<Sym> = vals.iter().map(|&v| syms[v as usize]).collect();
                vals.sort_unstable();
                vals.dedup();
                match op {
                    0 => {
                        let gid = GlobalColId(next_gid + [0, 7, 100_000][gap]);
                        next_gid = gid.0 + 1;
                        idx.add_column(gid, vals.iter().copied());
                        columns.push((gid, vals));
                    }
                    _ if columns.is_empty() => continue,
                    1 => {
                        let (gid, distinct) = columns.remove(target % columns.len());
                        idx.remove_column(gid, distinct);
                    }
                    _ => {
                        let at = target % columns.len();
                        let (gid, distinct) = &mut columns[at];
                        let (leaving, entering): (Vec<Sym>, Vec<Sym>) =
                            vals.iter().partition(|v| distinct.contains(v));
                        distinct.retain(|v| !leaving.contains(v));
                        distinct.extend(&entering);
                        idx.patch_column(*gid, leaving, entering);
                    }
                }
                assert_columns_match_probe(&idx, &columns, cfg);
            }
        }
    }
}
