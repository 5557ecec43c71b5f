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
//!
//! Extraction evaluates Equation 2 for every structural column, so the
//! pairwise counts `|C(u) ∩ C(v)|` are the dominant cost. They come out
//! of a five-tier funnel (see [`column_coherence_detailed`]): shortcuts,
//! a [`HotTier`] that mirrors every hot posting list as a dense row and
//! caches hot-pair counts across columns and workers, the exact
//! [`PostingSketch`](crate::sketch::PostingSketch) bounds, a gallop for
//! short lists, and one AND/popcount pass over the rest. Every tier is
//! exact; the `#[cfg(test)]` probe oracle holds them to the plain
//! pair-by-pair intersections.

use crate::index::{GlobalColId, ValueIndex};
use crate::intern::Sym;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

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
    /// Pairs that fell through to posting-list data (hot-pair counts,
    /// small-list probes, hot-row probes or the restricted-universe
    /// bitmap intersection).
    pub list_probes: u64,
    /// The subset of `list_probes` whose two lists are both hot: counted
    /// from the [`HotTier`]'s shared pair cache.
    pub hot_probes: u64,
}

impl CoherenceFunnel {
    /// Fold another funnel's counts into this one (per-table funnels
    /// are gathered in parallel and merged by the extraction cache).
    pub fn merge(&mut self, other: &CoherenceFunnel) {
        self.sketch_rejects += other.sketch_rejects;
        self.list_probes += other.list_probes;
        self.hot_probes += other.hot_probes;
    }
}

/// Below this length a direct gallop of the shorter list against the
/// longer is cheaper than routing the pair through the bitmap
/// intersection (and keeps the bitmap universe small).
const DIRECT_PROBE_MAX: usize = 8;

/// [`column_coherence_excluding`] plus the raw evidence it was computed
/// from. The score is bit-identical to the plain entry point.
///
/// The O(samples²) pair loop runs through the five-tier funnel of
/// `pair_cooccurrences`: pairs of hot values are read from the
/// [`HotTier`]'s shared cache, pairs the exact sketch bounds resolve
/// never touch a posting list, and the survivors are counted against a
/// hot row or intersected together over one restricted universe of
/// column ids (64 columns per machine word) instead of pair-by-pair
/// list merges. Every count is exact, so the detail — and therefore the
/// score — is bit-identical to the `#[cfg(test)]` probe oracle this
/// path is tested against.
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
/// produced, through a five-tier funnel (the first four classify a
/// pair on its own, the last counts all survivors together):
///
/// 1. **Shortcuts** — an empty list intersects nothing; when both
///    lists contain the scored column `g`, a singleton list is exactly
///    `{g}` and the pair counts 1.
/// 2. **Hot pair** — when both lists are hot (see [`HotTier`]), the
///    count comes from the tier's cache, filled by one AND/popcount of
///    the two rows the first time any column asks. Two lists this long
///    all but never pinch their sketches' bounds, so the sketches are
///    not consulted and the pair counts as a list probe.
/// 3. **Sketch resolution** — when both lists carry a sketch, its
///    exact lower/upper overlap bounds (floored at 1 when both lists
///    contain `g`); a pinched pair (`lb == ub`) is resolved without
///    list access.
/// 4. **Gallop** — when a side is unsketched and at most
///    [`DIRECT_PROBE_MAX`] long, the shorter list is binary-searched
///    in the longer (or tested in its hot row).
/// 5. **The rest** — a hot–cold pair tests each gid of the cold list
///    in the hot row, once per tier: the count joins the tier's cache,
///    since the same pair recurs in many columns. Cold–cold pairs are
///    counted over one shared restricted universe: every gid of the
///    involved posting lists gets a dense bit position on first touch
///    (see [`Universe::scatter`]), each list is read once into a
///    bitvector, each pair is a word-parallel AND/popcount. No hot list
///    is ever scattered, so the cost is the cold postings read plus the
///    words intersected — no sort, no merge.
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
    let tier = index.hot_tier();
    // Per-sample facts, gathered once: list length, hot row, and
    // whether the scored column is a member (true by construction when
    // extraction calls this, but verified so the entry point stays
    // exact for any caller).
    let lens: Vec<usize> = samples.iter().map(|&u| index.column_count(u)).collect();
    let hot: Vec<Option<u32>> = samples
        .iter()
        .zip(&lens)
        .map(|(&u, &len)| tier.row_of(u, len))
        .collect();
    let has_g: Vec<bool> = (samples.iter().zip(&hot))
        .map(|(&u, &row)| match row {
            Some(r) => tier.contains(r, exclude),
            None => index.columns(u).binary_search(&exclude).is_ok(),
        })
        .collect();

    // (i, j, slot) of pairs the first four tiers could not resolve.
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
            } else if let (Some(a), Some(b)) = (hot[i], hot[j]) {
                pair_counts[slot] = tier.pair_count(a, b);
                funnel.list_probes += 1;
                funnel.hot_probes += 1;
                #[cfg(test)]
                tests::count_kind(0);
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
                // cheaper than widening the bitmap universe for them —
                // or test their gids in its hot row.
                let (a, b) = (index.columns(samples[i]), index.columns(samples[j]));
                pair_counts[slot] = match (hot[i], hot[j]) {
                    (Some(r), _) => tier.probe(r, b),
                    (_, Some(r)) => tier.probe(r, a),
                    (None, None) => gallop_intersection(a, b),
                };
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

    // Hot–cold pairs are counted against the hot row (once per tier,
    // through its cache); only cold–cold pairs stay.
    let mut involved = vec![false; k];
    unresolved.retain(|&(i, j, s)| {
        let (i, j) = (i as usize, j as usize);
        let (row, cold) = match (hot[i], hot[j]) {
            (Some(row), _) => (row, j),
            (_, Some(row)) => (row, i),
            (None, None) => {
                involved[i] = true;
                involved[j] = true;
                #[cfg(test)]
                tests::count_kind(2);
                return true;
            }
        };
        pair_counts[s as usize] =
            tier.cold_pair_count(row, samples[cold], index.columns(samples[cold]));
        #[cfg(test)]
        tests::count_kind(1);
        false
    });
    if unresolved.is_empty() {
        return pair_counts;
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
        pair_counts[s as usize] = and_popcount(ru, rv);
    }
    pair_counts
}

/// `Σ popcount(a & b)` over the common prefix of two bit rows.
fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

/// Every posting list at least this long is hot, whatever the corpus
/// size.
const HOT_MIN_LEN: usize = 128;

/// Lock stripes of the hot-pair cache: enough that workers rarely
/// contend, few enough that an empty tier costs nothing.
const HOT_STRIPES: usize = 64;

/// Multiplicative hasher for the integer keys of [`HotTier`]'s maps.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type IntMap<K> = HashMap<K, u32, BuildHasherDefault<IntHasher>>;

/// The coherence funnel's hot tier: a dense membership row over the gid
/// space for every *hot* posting list, and a cache of hot-pair counts
/// shared by every worker that scores columns against the same index.
///
/// A handful of values (country names, codes, small integers) sit in a
/// large share of all columns, and most columns sample a few of them,
/// so without this tier every column re-reads the same long lists.
/// Here a hot list is read once, when its row is built; a pair of hot
/// values is counted once, by AND/popcount of two rows, the first time
/// any column asks; a hot–cold pair the sketches leave open is counted
/// once, by testing the cold list's gids in the hot row.
///
/// A list is hot when it holds at least `max(128, w/4)` postings, where
/// `w` is the row length in 64-bit words (`⌈span/64⌉` for the gid span
/// `span`, which is `N` = [`ValueIndex::total_columns`] on a fresh
/// build) — so a row never costs more than 8× the postings it mirrors.
/// [`ValueIndex`] builds the tier on the first coherence call and drops
/// it on every mutation, so it always describes the current postings.
pub struct HotTier {
    /// Row number of each hot symbol.
    row_of: IntMap<u32>,
    /// The minimum hot list length.
    threshold: usize,
    /// Words per row.
    words: usize,
    /// Row `r` is `rows[r * words..(r + 1) * words]`; bit `g` is set
    /// iff column `g` is on the list.
    rows: Vec<u64>,
    /// Pair counts, split into lock stripes: hot–hot pairs keyed by
    /// `lo << 32 | hi` over row numbers, hot–cold pairs by
    /// `1 << 63 | row << 32 | sym`. An entry is only ever inserted
    /// complete, so a stripe poisoned by a panic elsewhere is still
    /// sound to use.
    pairs: Box<[Mutex<IntMap<u64>>]>,
}

impl HotTier {
    /// The tier over `index`'s current postings.
    pub(crate) fn build(index: &ValueIndex) -> Self {
        let words = row_words(index);
        Self::with_threshold(index, words, HOT_MIN_LEN.max(words.div_ceil(4)))
    }

    /// The tier with every list of at least `min_len` postings hot, so
    /// tests on small corpora reach it.
    #[cfg(test)]
    pub(crate) fn build_with_min(index: &ValueIndex, min_len: usize) -> Self {
        Self::with_threshold(index, row_words(index), min_len.max(1))
    }

    fn with_threshold(index: &ValueIndex, words: usize, threshold: usize) -> Self {
        let mut row_of = IntMap::default();
        let mut rows = Vec::new();
        for (sym, list) in index.posting_lists().iter().enumerate() {
            if list.len() < threshold {
                continue;
            }
            debug_assert!(
                row_of.len() < 1 << 31,
                "row numbers must leave the key's top bit"
            );
            row_of.insert(sym as u32, row_of.len() as u32);
            let start = rows.len();
            rows.resize(start + words, 0u64);
            let row = &mut rows[start..];
            for &g in list {
                row[g.0 as usize / 64] |= 1u64 << (g.0 % 64);
            }
        }
        Self {
            row_of,
            threshold,
            words,
            rows,
            pairs: (0..HOT_STRIPES).map(|_| Mutex::default()).collect(),
        }
    }

    /// Number of hot lists (rows).
    pub fn rows(&self) -> usize {
        self.row_of.len()
    }

    /// Bytes held by the rows.
    pub fn row_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<u64>()
    }

    /// The row of `u`, whose posting list has `len` entries, if hot.
    #[inline]
    fn row_of(&self, u: Sym, len: usize) -> Option<u32> {
        if len < self.threshold {
            return None;
        }
        self.row_of.get(&u.0).copied()
    }

    fn row(&self, r: u32) -> &[u64] {
        let start = r as usize * self.words;
        &self.rows[start..start + self.words]
    }

    /// Whether column `g` is on hot row `r`.
    #[inline]
    fn contains(&self, r: u32, g: GlobalColId) -> bool {
        self.probe(r, std::slice::from_ref(&g)) == 1
    }

    /// `|C(u) ∩ C(v)|` of two hot rows, from the cache or by one
    /// AND/popcount that fills it.
    fn pair_count(&self, a: u32, b: u32) -> u32 {
        let key = (u64::from(a.min(b)) << 32) | u64::from(a.max(b));
        self.cached(key, || and_popcount(self.row(a), self.row(b)))
    }

    /// `|C(u) ∩ C(v)|` of hot row `r` and the cold value `v` with
    /// posting list `list`, from the cache or by probing the row.
    fn cold_pair_count(&self, r: u32, v: Sym, list: &[GlobalColId]) -> u32 {
        // Row numbers stay below 2^31, so the top bit keeps these keys
        // apart from the hot–hot ones.
        let key = (1 << 63) | (u64::from(r) << 32) | u64::from(v.0);
        self.cached(key, || self.probe(r, list))
    }

    /// The cached count under `key`, or `count()` inserted for it.
    fn cached(&self, key: u64, count: impl FnOnce() -> u32) -> u32 {
        let stripe = &self.pairs[(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize];
        let lock = || stripe.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&n) = lock().get(&key) {
            return n;
        }
        // Counted outside the lock: two workers may both count a fresh
        // pair, and both insert the same exact value.
        let n = count();
        lock().insert(key, n);
        n
    }

    /// `|C(u) ∩ list|` for hot row `r` and any sorted posting list.
    fn probe(&self, r: u32, list: &[GlobalColId]) -> u32 {
        let row = self.row(r);
        list.iter()
            .map(|g| {
                row.get(g.0 as usize / 64)
                    .map_or(0, |w| (w >> (g.0 % 64)) as u32 & 1)
            })
            .sum()
    }
}

/// Row length in words covering every gid the postings mention.
fn row_words(index: &ValueIndex) -> usize {
    let span = (index.posting_lists().iter())
        .filter_map(|list| list.last())
        .max()
        .map_or(0, |g| g.0 as usize + 1);
    span.div_ceil(64)
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
    use std::cell::Cell;

    thread_local! {
        /// Pairs this thread sent to the hot tier, per kind: hot–hot,
        /// hot–cold, cold–cold (the last two only once tiers 1–4 left
        /// them unresolved).
        static KINDS: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
    }

    pub(super) fn count_kind(kind: usize) {
        KINDS.with(|k| {
            let mut v = k.get();
            v[kind] += 1;
            k.set(v);
        });
    }

    fn take_kinds() -> [u64; 3] {
        KINDS.with(|k| k.replace([0; 3]))
    }

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

    /// The wide corpus with a test tier whose threshold splits its
    /// 65- and 66-long lists into cold and hot ones.
    const WIDE_HOT_MIN: usize = 66;

    /// Through every kind of mutation, the index drops its tier, a
    /// rebuilt tier sends pairs down all three hot-tier routes, and
    /// every count equals the probe oracle.
    #[test]
    fn hot_tier_pairs_match_probe_through_mutation() {
        let c = wide_corpus();
        let mut idx = ValueIndex::build(&c);
        let mut columns = model_of(&c);
        let cfg = CoherenceConfig { max_sample: 100 };
        let check = |idx: &mut ValueIndex, columns: &[ModelColumn]| {
            assert!(!idx.has_hot_tier(), "a mutation left a stale tier");
            idx.install_hot_tier(HotTier::build_with_min(idx, WIDE_HOT_MIN));
            take_kinds();
            let funnel = assert_columns_match_probe(idx, columns, cfg);
            let kinds = take_kinds();
            assert!(
                kinds.iter().all(|&n| n > 0),
                "a route went unused: {kinds:?}"
            );
            assert_eq!(funnel.hot_probes, kinds[0]);
        };
        check(&mut idx, &columns);

        let names: Vec<Sym> = columns[0].1.clone();
        let added: Vec<Sym> = names.iter().copied().step_by(2).collect();
        idx.add_column(GlobalColId(151), added.iter().copied());
        columns.push((GlobalColId(151), added));
        check(&mut idx, &columns);

        let (gid, distinct) = columns.remove(7);
        idx.remove_column(gid, distinct);
        check(&mut idx, &columns);

        let (gid, distinct) = &mut columns[3];
        let leaving: Vec<Sym> = distinct.iter().copied().take(5).collect();
        let entering: Vec<Sym> = (names.iter().copied())
            .filter(|v| !distinct.contains(v))
            .take(5)
            .collect();
        distinct.retain(|v| !leaving.contains(v));
        distinct.extend(&entering);
        idx.patch_column(*gid, leaving, entering);
        check(&mut idx, &columns);
    }

    /// Four threads scoring the same columns through one shared tier
    /// race to fill its pair cache; every count equals the oracle.
    #[test]
    fn shared_hot_tier_is_exact_across_threads() {
        let c = wide_corpus();
        let mut idx = ValueIndex::build(&c);
        idx.install_hot_tier(HotTier::build_with_min(&idx, WIDE_HOT_MIN));
        let columns = model_of(&c);
        let cfg = CoherenceConfig { max_sample: 100 };
        let funnels: Vec<CoherenceFunnel> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| assert_columns_match_probe(&idx, &columns, cfg)))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(funnels[0].hot_probes > 0);
        assert!(funnels.iter().all(|f| f == &funnels[0]));
    }

    /// A panic that unwinds while a pair-cache stripe is held poisons
    /// it; later calls keep using the stripe and stay exact.
    #[test]
    fn poisoned_pair_cache_stays_exact() {
        let c = wide_corpus();
        let mut idx = ValueIndex::build(&c);
        idx.install_hot_tier(HotTier::build_with_min(&idx, WIDE_HOT_MIN));
        let columns = model_of(&c);
        let cfg = CoherenceConfig { max_sample: 100 };
        // Fill part of the cache first, so poisoned stripes hold entries.
        assert_columns_match_probe(&idx, &columns[..10], cfg);
        for stripe in idx.hot_tier().pairs.iter() {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _held = stripe.lock().unwrap();
                std::panic::resume_unwind(Box::new("induced"));
            }));
            assert!(unwound.is_err());
            assert!(stripe.is_poisoned());
        }
        let funnel = assert_columns_match_probe(&idx, &columns, cfg);
        assert!(funnel.hot_probes > 0);
    }

    /// The real rule keeps each row within 8× the postings it mirrors —
    /// on a fresh gid span, and after a far gid widens every row.
    #[test]
    fn hot_rows_cost_at_most_8x_their_postings() {
        let mut idx = ValueIndex::empty();
        // Value s sits in every column g with g % 200 == s, plus value
        // 200 + s in the first 150 + s columns: 40,000 columns, lists of
        // 150..=349 and 200 postings around the threshold of ⌈40000/256⌉.
        for g in 0..40_000u32 {
            let mut vals = vec![Sym(g % 200)];
            vals.extend((0..200).filter(|&s| g < 150 + s).map(|s| Sym(200 + s)));
            idx.add_column(GlobalColId(g), vals);
        }
        let bound = |idx: &ValueIndex| {
            let tier = idx.hot_tier();
            let mirrored: usize = (idx.posting_lists().iter().enumerate())
                .filter(|(sym, list)| tier.row_of(Sym(*sym as u32), list.len()).is_some())
                .map(|(_, list)| list.len())
                .sum();
            let postings_bytes = mirrored * std::mem::size_of::<GlobalColId>();
            assert!(
                tier.row_bytes() <= 8 * postings_bytes,
                "{} row bytes for {postings_bytes} bytes of postings",
                tier.row_bytes()
            );
            tier.rows()
        };
        let rows = bound(&idx);
        assert!((200..400).contains(&rows), "{rows} hot rows");
        idx.add_column(GlobalColId(1_000_000), [Sym(0)]);
        bound(&idx);
    }

    proptest::proptest! {
        /// Bit-identity on arbitrary corpora under arbitrary index
        /// maintenance: whatever mixture of list lengths, overlaps and
        /// saturations the generator produces, every column's fast
        /// pair loop equals the probe oracle — initially and after
        /// each `add_column` (at the next gid, or past a gap far above
        /// `total_columns()`), `remove_column` and `patch_column` —
        /// with all calls sharing one thread's scratch, and a hot tier
        /// whose threshold the case picks, dropped by each mutation and
        /// rebuilt after it.
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
            hot_min in 2usize..14,
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
            idx.install_hot_tier(HotTier::build_with_min(&idx, hot_min));
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
                proptest::prop_assert!(!idx.has_hot_tier(), "a mutation left a stale tier");
                idx.install_hot_tier(HotTier::build_with_min(&idx, hot_min));
                assert_columns_match_probe(&idx, &columns, cfg);
            }
        }
    }
}
