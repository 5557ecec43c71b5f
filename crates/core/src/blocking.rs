//! Candidate-pair blocking (paper §4.1 "Efficiency").
//!
//! Compatibility scores for all `O(N²)` table pairs are unaffordable
//! and almost all are zero. The paper re-groups tables by shared
//! content with an inverted index so that only tables sharing at least
//! `θ_overlap` value pairs (for `w⁺`) or left values (for `w⁻`) are
//! compared. This module builds those candidate pairs.
//!
//! A per-key fanout cap bounds hot keys: a value pair shared by
//! thousands of tables would alone contribute millions of candidate
//! pairs while adding no discriminative signal — tables of the same
//! relation meet anyway through their rarer values.
//!
//! **Hashing contract.** The posting and pair-count maps are
//! [`IdHashMap`]s: hashed by the unseeded multiply-mix
//! [`mapsynth_mapreduce::IdHasher`], not the std SipHash. That is sound
//! only because every key field is an id this program assigned — a
//! synonym-class id of the [`ValueSpace`], a table index, a key kind —
//! never bytes read from outside it, so nobody can craft colliding
//! keys. A map keyed by external strings (the serving index, say) must
//! keep the std `RandomState`. Shard assignment is a separate hash
//! ([`partition_of`], FNV-1a) and does not move with this one.

use crate::config::SynthesisConfig;
use crate::values::{NormBinary, ValueSpace};
use mapsynth_mapreduce::{partition_of, IdHashMap, MapReduce};

/// Statistics from blocking, used by the scalability experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockingStats {
    /// Distinct positive keys (value pairs).
    pub pos_keys: usize,
    /// Distinct negative keys (left values).
    pub neg_keys: usize,
    /// Keys skipped by the fanout cap.
    pub capped_keys: usize,
    /// Candidate pairs emitted.
    pub pairs: usize,
}

/// Blocking keys: positive keys are `(left class, right class)` value
/// pairs, negative keys are left classes alone.
const KIND_POS: u8 = 0;
/// Negative-key marker.
const KIND_NEG: u8 = 1;

/// Hot keys (shared by more than `max_key_fanout` tables) cannot
/// afford all-pairs emission, but skipping them entirely would erase
/// exactly the edges that matter most: popular relations' hub tables
/// (comprehensive reference lists) appear in *every* posting list of
/// their relation, so every one of their keys is hot. For hot keys we
/// emit pairs among the `HUB_SAMPLE` *largest* tables: deterministic,
/// bounded, and it guarantees cluster representatives stay connected.
const HUB_SAMPLE: usize = 12;

/// Compute candidate table pairs `(i, j)` with `i < j` (indices into
/// the `tables` slice). A pair qualifies if it shares ≥ `θ_overlap`
/// value-pair keys, or (when negative evidence is enabled) ≥
/// `θ_overlap` left-value keys.
///
/// Thin wrapper over [`BlockingIndex::build_sharded`] (one shard per
/// worker) that discards the reusable index state.
pub fn candidate_pairs(
    space: &ValueSpace,
    tables: &[NormBinary],
    cfg: &SynthesisConfig,
    mr: &MapReduce,
) -> (Vec<(u32, u32)>, BlockingStats) {
    let (_, pairs, stats) = BlockingIndex::build_sharded(space, tables, cfg, mr, mr.workers());
    (pairs, stats)
}

/// The blocking keys one table contributes, deduplicated (pairs are
/// sorted by class, so distinct keys are consecutive runs). The single
/// source of key truth for the batch build *and* the delta path.
fn table_keys(space: &ValueSpace, t: &NormBinary, cfg: &SynthesisConfig) -> Vec<(u8, u32, u32)> {
    let mut out = Vec::with_capacity(t.pairs.len());
    let mut last_pos = None;
    let mut last_neg = None;
    for &(l, r) in &t.pairs {
        let key = (space.class(l), space.class(r));
        if last_pos != Some(key) {
            out.push((KIND_POS, key.0, key.1));
            last_pos = Some(key);
        }
        if cfg.use_negative && last_neg != Some(key.0) {
            out.push((KIND_NEG, key.0, 0));
            last_neg = Some(key.0);
        }
    }
    out
}

/// The table pairs one posting list witnesses, after hub sampling,
/// handed to `emit` one by one.
fn contribution(
    tis: &[u32],
    kind: u8,
    sizes: &[u32],
    max_key_fanout: usize,
    mut emit: impl FnMut((u32, u32, u8)),
) {
    let mut hubs: Vec<u32>;
    let tis = if tis.len() > max_key_fanout {
        hubs = tis.to_vec();
        hubs.sort_by(|&a, &b| sizes[b as usize].cmp(&sizes[a as usize]).then(a.cmp(&b)));
        hubs.truncate(HUB_SAMPLE);
        hubs.sort_unstable();
        &hubs[..]
    } else {
        tis
    };
    for (i, &a) in tis.iter().enumerate() {
        for &b in &tis[i + 1..] {
            emit((a, b, kind));
        }
    }
}

/// `(kind, key) → ascending table indices`.
type Postings = IdHashMap<(u8, u32, u32), Vec<u32>>;
/// `(a, b, kind) → shared-key count`.
type PairCounts = IdHashMap<(u32, u32, u8), u32>;

/// Move the map with the most entries out of `shards` — the one the
/// stitch folds the others into, so the bulk of the entries is never
/// re-inserted.
fn take_largest<K, V>(shards: &mut Vec<IdHashMap<K, V>>) -> IdHashMap<K, V> {
    let largest = (0..shards.len()).max_by_key(|&i| shards[i].len());
    largest.map_or_else(IdHashMap::default, |i| shards.swap_remove(i))
}

/// The maintained blocking state: the inverted index (key → posting
/// list over live table indices) plus per-pair shared-key counts —
/// everything needed to re-derive the qualifying candidate-pair set
/// after a corpus delta *without* re-scanning unchanged tables.
///
/// A delta touches only the keys of the added/removed tables: their
/// posting lists are patched in place and the pair counts adjusted by
/// the difference between each touched list's old and new
/// contributions (hub sampling included — a hot key's sampled hub set
/// can shift, which may create or destroy pairs between two *old*
/// tables; contribution diffing handles that case for free).
#[derive(Clone)]
pub struct BlockingIndex {
    /// `(kind, key) → ascending live table indices`; empty lists are
    /// removed.
    postings: Postings,
    /// `(a, b, kind) → shared-key count`; zero entries are removed.
    pair_counts: PairCounts,
    /// Table sizes (`|B|`), index-aligned with the tables slice, for
    /// hub sampling.
    sizes: Vec<u32>,
}

impl BlockingIndex {
    /// Build the blocking index, qualifying pairs, and stats:
    /// partition blocking keys by hash (the FNV-1a
    /// [`partition_of`]) into `shards` independent groups, build each
    /// shard's posting lists and pair contributions in parallel, then
    /// stitch.
    ///
    /// Stitching is trivial because the decomposition is exact: every
    /// key lives in exactly one shard, so per-shard posting maps are
    /// disjoint (concatenate), while a table *pair* can be witnessed by
    /// keys in different shards, so pair counts sum. Bucketing scans
    /// tables in ascending index order, which keeps every posting list
    /// ti-ascending by plain push. The stored maps therefore hold
    /// exactly the content the unsharded reference
    /// ([`build_unsharded`](Self::build_unsharded)) produces, for any
    /// shard or worker count.
    pub fn build_sharded(
        space: &ValueSpace,
        tables: &[NormBinary],
        cfg: &SynthesisConfig,
        mr: &MapReduce,
        shards: usize,
    ) -> (Self, Vec<(u32, u32)>, BlockingStats) {
        let shards = shards.max(1);
        // Stage 1 — per-table blocking keys, in parallel
        // (order-preserving, so stage 2 sees tables in index order).
        let keys_per_table: Vec<Vec<(u8, u32, u32)>> =
            mr.par_map(tables, |t| table_keys(space, t, cfg));
        // Stage 2 — bucket (key, table) records by key shard.
        type ShardBucket = Vec<((u8, u32, u32), u32)>;
        let mut buckets: Vec<ShardBucket> = vec![Vec::new(); shards];
        for (ti, keys) in keys_per_table.iter().enumerate() {
            for &k in keys {
                buckets[partition_of(&k, shards)].push((k, ti as u32));
            }
        }
        drop(keys_per_table);
        let sizes: Vec<u32> = tables.iter().map(|t| t.len() as u32).collect();
        // Stage 3 — per-shard posting lists, each list's pair
        // contributions counted straight into the shard's map.
        let sizes_ref = &sizes;
        let shard_outs: Vec<(Postings, PairCounts)> = mr.par_map(&buckets, |bucket| {
            let mut postings = Postings::default();
            for &(k, ti) in bucket {
                // ti arrives ascending per key; a table emits each key
                // at most once, so the list is deduped by construction.
                postings.entry(k).or_default().push(ti);
            }
            let mut pair_counts = PairCounts::default();
            for ((kind, _, _), tis) in &postings {
                contribution(tis, *kind, sizes_ref, cfg.max_key_fanout, |p| {
                    *pair_counts.entry(p).or_insert(0) += 1;
                });
            }
            (postings, pair_counts)
        });
        // Stage 4 — stitch into the largest shard's maps: disjoint
        // postings concatenate, pair counts sum across shards.
        let (mut posting_shards, mut count_shards): (Vec<_>, Vec<_>) =
            shard_outs.into_iter().unzip();
        let mut postings = take_largest(&mut posting_shards);
        for p in posting_shards {
            postings.extend(p);
        }
        let mut pair_counts = take_largest(&mut count_shards);
        for c in count_shards {
            for (pair, n) in c {
                *pair_counts.entry(pair).or_insert(0) += n;
            }
        }
        let index = Self {
            postings,
            pair_counts,
            sizes,
        };
        let (pairs, stats) = index.pairs(cfg);
        (index, pairs, stats)
    }

    /// The sequential build — the reference implementation
    /// [`build_sharded`](Self::build_sharded) must match bit-for-bit
    /// (kept as the oracle for the shard-invariance tests): one pass
    /// over the tables into one posting map, then one pass over the
    /// posting lists into one pair-count map.
    pub fn build_unsharded(
        space: &ValueSpace,
        tables: &[NormBinary],
        cfg: &SynthesisConfig,
    ) -> (Self, Vec<(u32, u32)>, BlockingStats) {
        let mut postings = Postings::default();
        for (ti, t) in tables.iter().enumerate() {
            // Tables arrive in index order and emit each key at most
            // once, so every list is ascending and deduped.
            for key in table_keys(space, t, cfg) {
                postings.entry(key).or_default().push(ti as u32);
            }
        }
        let sizes: Vec<u32> = tables.iter().map(|t| t.len() as u32).collect();
        let mut pair_counts = PairCounts::default();
        for (&(kind, _, _), tis) in &postings {
            contribution(tis, kind, &sizes, cfg.max_key_fanout, |p| {
                *pair_counts.entry(p).or_insert(0) += 1;
            });
        }
        let index = Self {
            postings,
            pair_counts,
            sizes,
        };
        let (pairs, stats) = index.pairs(cfg);
        (index, pairs, stats)
    }

    /// Patch the index for a delta: `removed` and `added` are indices
    /// into `tables` (removed tables' `NormBinary` content must still
    /// be present — their keys are needed to unregister them; added
    /// indices must be larger than any live index). Returns the
    /// post-delta qualifying pairs and stats, identical to a fresh
    /// [`build_sharded`](Self::build_sharded) over the live tables.
    pub fn apply_delta(
        &mut self,
        space: &ValueSpace,
        tables: &[NormBinary],
        added: &[u32],
        removed: &[u32],
        cfg: &SynthesisConfig,
    ) -> (Vec<(u32, u32)>, BlockingStats) {
        self.remove_tables(space, tables, removed, cfg);
        self.add_tables(space, tables, added, cfg);
        self.pairs(cfg)
    }

    /// Adjust pair counts for a set of touched keys around `mutate`
    /// (which edits posting lists only): take the touched keys' old
    /// contributions out of the counts, run the mutation, count their
    /// new contributions in.
    fn diff_contributions(
        &mut self,
        changed: &[(u8, u32, u32)],
        cfg: &SynthesisConfig,
        mutate: impl FnOnce(&mut Self),
    ) {
        let pair_counts = &mut self.pair_counts;
        for key in changed {
            if let Some(tis) = self.postings.get(key) {
                contribution(
                    tis,
                    key.0,
                    &self.sizes,
                    cfg.max_key_fanout,
                    |p| match pair_counts.get_mut(&p) {
                        Some(c) if *c > 1 => *c -= 1,
                        Some(_) => {
                            pair_counts.remove(&p);
                        }
                        None => unreachable!("old contribution had no count"),
                    },
                );
            }
        }
        mutate(self);
        let pair_counts = &mut self.pair_counts;
        for key in changed {
            if let Some(tis) = self.postings.get(key) {
                contribution(tis, key.0, &self.sizes, cfg.max_key_fanout, |p| {
                    *pair_counts.entry(p).or_insert(0) += 1;
                });
            }
        }
    }

    /// Unregister tables (indices into `tables`, whose content must
    /// still be present) from the index, adjusting pair counts.
    pub fn remove_tables(
        &mut self,
        space: &ValueSpace,
        tables: &[NormBinary],
        removed: &[u32],
        cfg: &SynthesisConfig,
    ) {
        if removed.is_empty() {
            return;
        }
        let mut changed: Vec<(u8, u32, u32)> = Vec::new();
        for &ti in removed {
            changed.extend(table_keys(space, &tables[ti as usize], cfg));
        }
        changed.sort_unstable();
        changed.dedup();
        self.diff_contributions(&changed, cfg, |index| {
            for &ti in removed {
                for key in table_keys(space, &tables[ti as usize], cfg) {
                    let tis = index
                        .postings
                        .get_mut(&key)
                        .expect("removed table's key has a posting list");
                    let at = tis
                        .binary_search(&ti)
                        .expect("removed table is in its posting lists");
                    tis.remove(at);
                    if tis.is_empty() {
                        index.postings.remove(&key);
                    }
                }
            }
        });
    }

    /// Register tables into the index (sorted insertion — positions
    /// need not be larger than existing ones), adjusting pair counts.
    pub fn add_tables(
        &mut self,
        space: &ValueSpace,
        tables: &[NormBinary],
        added: &[u32],
        cfg: &SynthesisConfig,
    ) {
        if added.is_empty() {
            return;
        }
        self.sizes.resize(self.sizes.len().max(tables.len()), 0);
        for &ti in added {
            self.sizes[ti as usize] = tables[ti as usize].len() as u32;
        }
        let mut changed: Vec<(u8, u32, u32)> = Vec::new();
        for &ti in added {
            changed.extend(table_keys(space, &tables[ti as usize], cfg));
        }
        changed.sort_unstable();
        changed.dedup();
        self.diff_contributions(&changed, cfg, |index| {
            for &ti in added {
                for key in table_keys(space, &tables[ti as usize], cfg) {
                    let tis = index.postings.entry(key).or_default();
                    match tis.binary_search(&ti) {
                        Ok(_) => unreachable!("table added twice to a posting list"),
                        Err(at) => tis.insert(at, ti),
                    }
                }
            }
        });
    }

    /// Renumber the index's table coordinates through a **monotone**
    /// survivor map (`old_to_new[old] = Some(new)`, ascending over the
    /// survivors; tables mapped to `None` must already be
    /// unregistered). Because the map is monotone, hub-sampling
    /// tie-breaks — the only place blocking looks at index *values* —
    /// pick the same tables before and after, so every maintained
    /// count stays exactly what a fresh build in the new coordinates
    /// would produce.
    pub fn remap(&mut self, old_to_new: &[Option<u32>], new_sizes: Vec<u32>) {
        for tis in self.postings.values_mut() {
            for ti in tis.iter_mut() {
                *ti = old_to_new[*ti as usize].expect("remapped table is live");
            }
            debug_assert!(tis.windows(2).all(|w| w[0] < w[1]), "monotone remap");
        }
        self.pair_counts = self
            .pair_counts
            .drain()
            .map(|((a, b, k), c)| {
                let a2 = old_to_new[a as usize].expect("remapped table is live");
                let b2 = old_to_new[b as usize].expect("remapped table is live");
                debug_assert!(a2 < b2, "monotone remap");
                ((a2, b2, k), c)
            })
            .collect();
        self.sizes = new_sizes;
    }

    /// The θ-filtered pair set + stats from the maintained state —
    /// what [`apply_delta`](Self::apply_delta) returns; public so the
    /// renumber path can re-derive after composing
    /// `remove_tables`/`remap`/`add_tables` manually.
    pub fn pairs(&self, cfg: &SynthesisConfig) -> (Vec<(u32, u32)>, BlockingStats) {
        let mut stats = BlockingStats::default();
        stats.pos_keys = self
            .postings
            .keys()
            .filter(|(k, _, _)| *k == KIND_POS)
            .count();
        stats.neg_keys = self.postings.len() - stats.pos_keys;
        stats.capped_keys = self
            .postings
            .values()
            .filter(|tis| tis.len() > cfg.max_key_fanout)
            .count();
        let mut pairs: Vec<(u32, u32)> = self
            .pair_counts
            .iter()
            .filter(|&(_, &c)| c as usize >= cfg.theta_overlap)
            .map(|(&(a, b, _), _)| (a, b))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        stats.pairs = pairs.len();
        (pairs, stats)
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

    #[test]
    fn overlapping_tables_paired_disjoint_not() {
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2"), ("c", "3")],
            vec![("a", "1"), ("b", "2"), ("d", "4")],
            vec![("x", "9"), ("y", "8"), ("z", "7")],
        ]);
        let (pairs, stats) =
            candidate_pairs(&space, &t, &SynthesisConfig::default(), &MapReduce::new(2));
        assert_eq!(pairs, vec![(0, 1)]);
        assert!(stats.pos_keys >= 7);
    }

    #[test]
    fn negative_blocking_catches_conflicting_standards() {
        // Same lefts, totally different rights: zero shared pairs but
        // must still be compared (for w−).
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2"), ("c", "3")],
            vec![("a", "9"), ("b", "8"), ("c", "7")],
        ]);
        let cfg = SynthesisConfig::default();
        let (pairs, _) = candidate_pairs(&space, &t, &cfg, &MapReduce::new(2));
        assert_eq!(pairs, vec![(0, 1)]);
        // Without negative evidence the pair is not needed.
        let (pairs, _) = candidate_pairs(&space, &t, &cfg.without_negative(), &MapReduce::new(2));
        assert!(pairs.is_empty());
    }

    #[test]
    fn theta_overlap_excludes_single_shared_value() {
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2"), ("c", "3")],
            vec![("a", "1"), ("y", "8"), ("z", "7")],
        ]);
        // shares exactly one pair and one left < θ_overlap = 2
        let (pairs, _) =
            candidate_pairs(&space, &t, &SynthesisConfig::default(), &MapReduce::new(2));
        assert!(pairs.is_empty());
        let cfg = SynthesisConfig {
            theta_overlap: 1,
            ..Default::default()
        };
        let (pairs, _) = candidate_pairs(&space, &t, &cfg, &MapReduce::new(2));
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn fanout_cap_samples_hubs() {
        // 20 identical small tables plus 2 big "hub" tables sharing
        // the same hot keys; cap at 4 → only pairs among the sampled
        // hubs (largest tables) are emitted for the hot keys.
        let small = vec![("hot", "1"), ("hot2", "2")];
        let mut tables: Vec<Vec<(&str, &str)>> = (0..20).map(|_| small.clone()).collect();
        let big = vec![
            ("hot", "1"),
            ("hot2", "2"),
            ("x", "3"),
            ("y", "4"),
            ("z", "5"),
        ];
        tables.push(big.clone());
        tables.push(big);
        let (space, t) = setup(tables);
        let cfg = SynthesisConfig {
            max_key_fanout: 4,
            ..Default::default()
        };
        let (pairs, stats) = candidate_pairs(&space, &t, &cfg, &MapReduce::new(2));
        assert!(stats.capped_keys >= 2);
        // The two hubs (indices 20, 21) must be paired.
        assert!(pairs.contains(&(20, 21)), "hub pair missing: {pairs:?}");
        // Far fewer than the C(22,2)=231 all-pairs.
        assert!(pairs.len() < 100, "{} pairs", pairs.len());
    }

    /// The sharded build must reproduce the unsharded reference
    /// bit-for-bit — not just the qualifying pairs but the full stored
    /// state (postings, pair counts, sizes) — for every shard and
    /// worker count, hot keys included.
    #[test]
    fn sharded_build_matches_unsharded_reference() {
        let small = vec![("hot", "1"), ("hot2", "2")];
        let mut rows: Vec<Vec<(&str, &str)>> = (0..12).map(|_| small.clone()).collect();
        rows.push(vec![("hot", "1"), ("hot2", "2"), ("x", "3"), ("y", "4")]);
        rows.push(vec![("hot", "1"), ("x", "3"), ("y", "4"), ("z", "5")]);
        rows.push(vec![("p", "7"), ("q", "8")]);
        rows.push(vec![("p", "7"), ("q", "8"), ("r", "9")]);
        let (space, t) = setup(rows);
        let cfg = SynthesisConfig {
            max_key_fanout: 4,
            ..Default::default()
        };
        for workers in [1usize, 2, 8] {
            let mr = MapReduce::new(workers);
            let (ref_index, ref_pairs, ref_stats) =
                BlockingIndex::build_unsharded(&space, &t, &cfg);
            for shards in [1usize, 2, 8] {
                let (index, pairs, stats) =
                    BlockingIndex::build_sharded(&space, &t, &cfg, &mr, shards);
                assert_eq!(pairs, ref_pairs, "workers {workers} shards {shards}");
                assert_eq!(stats.pairs, ref_stats.pairs);
                assert_eq!(stats.pos_keys, ref_stats.pos_keys);
                assert_eq!(stats.neg_keys, ref_stats.neg_keys);
                assert_eq!(stats.capped_keys, ref_stats.capped_keys);
                assert_eq!(index.postings, ref_index.postings);
                assert_eq!(index.pair_counts, ref_index.pair_counts);
                assert_eq!(index.sizes, ref_index.sizes);
            }
        }
    }

    /// A sharded-built index feeds the delta path exactly like the
    /// reference: registering more tables lands on the same state as a
    /// fresh build over everything.
    #[test]
    fn sharded_build_composes_with_delta() {
        let rows: Vec<Vec<(&str, &str)>> = vec![
            vec![("a", "1"), ("b", "2"), ("c", "3")],
            vec![("a", "1"), ("b", "2"), ("d", "4")],
            vec![("a", "9"), ("b", "8"), ("c", "7")],
            vec![("x", "9"), ("y", "8"), ("z", "7")],
            vec![("a", "1"), ("c", "3"), ("z", "7")],
        ];
        let (space, t) = setup(rows);
        let cfg = SynthesisConfig::default();
        let mr = MapReduce::new(2);
        let (fresh, fresh_pairs, _) = BlockingIndex::build_unsharded(&space, &t, &cfg);
        for shards in [1usize, 2, 8] {
            let (mut index, _, _) =
                BlockingIndex::build_sharded(&space, &t[..3], &cfg, &mr, shards);
            index.sizes.resize(t.len(), 0);
            let (pairs, _) = index.apply_delta(&space, &t, &[3, 4], &[], &cfg);
            assert_eq!(pairs, fresh_pairs, "shards {shards}");
            assert_eq!(index.postings, fresh.postings);
            assert_eq!(index.pair_counts, fresh.pair_counts);
        }
    }

    #[test]
    fn pairs_sorted_and_unique() {
        let rows = vec![("a", "1"), ("b", "2"), ("c", "3")];
        let (space, t) = setup((0..5).map(|_| rows.clone()).collect());
        let (pairs, _) =
            candidate_pairs(&space, &t, &SynthesisConfig::default(), &MapReduce::new(2));
        assert_eq!(pairs.len(), 10); // C(5,2)
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted);
        assert!(pairs.iter().all(|&(a, b)| a < b));
    }
}
