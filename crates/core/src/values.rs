//! Normalized value space.
//!
//! Candidate tables arrive with corpus-interned raw cell symbols. The
//! synthesis step reasons about *values*: normalized strings
//! ([`mapsynth_text::normalize()`]) folded by the optional synonym feed.
//! This module builds:
//!
//! * a [`ValueSpace`]: dense [`NormId`]s for every distinct normalized
//!   string appearing in any candidate, plus a class id per value
//!   (synonym classes collapse to one class);
//! * a [`NormBinary`] per candidate: its deduplicated `(left, right)`
//!   class pairs plus the original strings for approximate matching.

use mapsynth_corpus::{BinaryTable, Interner, Sym};
use mapsynth_mapreduce::{partition_of, MapReduce};
use mapsynth_text::{normalize, CharSignature, SynonymDict};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Dense id of a distinct normalized string.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NormId(pub u32);

/// The normalized value universe of one synthesis run.
#[derive(Debug)]
pub struct ValueSpace {
    /// NormId → normalized string.
    strings: Vec<String>,
    /// NormId → whitespace-stripped normalized string, precomputed for
    /// the hot approximate-matching loop (paper Example 8 compares with
    /// separators ignored).
    compact: Vec<String>,
    /// NormId → class id. Values in the same synonym class share a
    /// class id; values outside any class have a unique one.
    class: Vec<u32>,
    /// NormId → `char` count of the compact string, precomputed so the
    /// approximate-matching hot path never re-walks UTF-8 (and never
    /// confuses byte lengths with character lengths — edit-distance
    /// thresholds are measured in characters).
    char_len: Vec<u32>,
    /// NormId → character-occurrence signature of the compact string
    /// (the form the edit-distance kernels compare), computed once at
    /// intern time. The similarity-join prefilters of
    /// [`crate::approx::ApproxMemo`] reject candidate pairs from these
    /// exact lower bounds before any DP runs; deltas extend the vector
    /// append-only alongside the strings.
    sigs: Vec<CharSignature>,
}

impl ValueSpace {
    /// The normalized string for a value.
    pub fn string(&self, id: NormId) -> &str {
        &self.strings[id.0 as usize]
    }

    /// The whitespace-stripped normalized string (for edit-distance
    /// comparison).
    pub fn compact(&self, id: NormId) -> &str {
        &self.compact[id.0 as usize]
    }

    /// The match class for a value (normalized-equality ∪ synonymy).
    #[inline]
    pub fn class(&self, id: NormId) -> u32 {
        self.class[id.0 as usize]
    }

    /// Cached `char` count of the compact string (the length used by
    /// fractional edit-distance thresholds).
    #[inline]
    pub fn compact_chars(&self, id: NormId) -> u32 {
        self.char_len[id.0 as usize]
    }

    /// Cached character-occurrence signature of the compact string
    /// (the approximate-matching prefilter input).
    #[inline]
    pub fn signature(&self, id: NormId) -> &CharSignature {
        &self.sigs[id.0 as usize]
    }

    /// Number of distinct normalized values.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Build a space directly from already-normalized strings, each in
    /// its own class. Mainly for tests and for materializing externally
    /// produced mappings; the synthesis path uses
    /// [`build_value_space`].
    pub fn from_strings<I: IntoIterator<Item = String>>(strings: I) -> Arc<Self> {
        let strings: Vec<String> = strings.into_iter().collect();
        let compact: Vec<String> = strings
            .iter()
            .map(|s| s.chars().filter(|c| !c.is_whitespace()).collect())
            .collect();
        let class = (0..strings.len() as u32).collect();
        let char_len = compact.iter().map(|s| s.chars().count() as u32).collect();
        let sigs = compact.iter().map(|s| CharSignature::of(s)).collect();
        Arc::new(Self {
            strings,
            compact,
            class,
            char_len,
            sigs,
        })
    }
}

/// A candidate table projected into the normalized value space.
#[derive(Clone, Debug)]
pub struct NormBinary {
    /// Index of the originating [`BinaryTable`] in the candidate list.
    pub idx: u32,
    /// Provenance domain (for curation statistics).
    pub domain: mapsynth_corpus::DomainId,
    /// Source table id.
    pub source: mapsynth_corpus::TableId,
    /// Deduplicated `(left, right)` value pairs sorted by `(left class,
    /// right class)`.
    pub pairs: Vec<(NormId, NormId)>,
}

impl NormBinary {
    /// Number of distinct pairs `|B|`.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// The sequential interning state behind a [`ValueSpace`], retained by
/// incremental sessions so a corpus delta can extend the space
/// **append-only**: values of removed tables keep their [`NormId`]s
/// (they are simply never referenced again), new values get fresh ids
/// after the existing ones. Nothing downstream may depend on the
/// numbering itself — only on identity and on the class *partition* —
/// which is exactly what lets an extended space serve artifacts that
/// must stay bit-identical to a fresh renumbered run.
#[derive(Clone, Debug, Default)]
pub struct ValueInterning {
    /// Corpus symbol → interned value (None: normalizes to empty).
    norm_of_sym: HashMap<Sym, Option<NormId>>,
    /// Normalized string → value id.
    id_of_string: HashMap<String, NormId>,
    /// External synonym class → representative value id (first member
    /// interned).
    rep_of_class: HashMap<usize, u32>,
}

impl ValueInterning {
    /// Resolve a corpus symbol to its interned value, if the symbol has
    /// been seen and does not normalize to the empty string. Used by
    /// the row-patch path to maintain per-value live reference counts
    /// without re-normalizing.
    pub fn norm_of(&self, sym: Sym) -> Option<NormId> {
        self.norm_of_sym.get(&sym).copied().flatten()
    }

    /// Resolve an already-normalized string to its value id, if
    /// interned. Compaction uses this to translate surviving values
    /// from a pre-compaction space into the freshly rebuilt one.
    pub fn id_of(&self, normalized: &str) -> Option<NormId> {
        self.id_of_string.get(normalized).copied()
    }
}

/// Build the value space and normalized candidates.
///
/// Pairs whose left or right normalizes to the empty string are
/// dropped; candidates left with fewer than two pairs are dropped
/// entirely (their `NormBinary` is omitted — callers use `idx` to map
/// back to the original candidate list).
///
/// The hot work — normalizing every distinct cell symbol, deduplicating
/// the normalized strings (sharded by value hash), and projecting each
/// candidate into the space — runs through the Map-Reduce engine; the
/// shard outputs are stitched back in global first-occurrence order, so
/// the result is byte-identical regardless of worker or shard count.
///
/// The space is returned behind an [`Arc`] so downstream artifacts
/// ([`crate::SynthesizedMapping`] in particular) can hold a handle to
/// it instead of cloning strings out of it.
///
/// `strs` is the interner resolving the candidate tables' symbols
/// (for a materialized corpus, its `interner` field; for a streaming
/// source, [`TableSource::interner`](mapsynth_corpus::TableSource)).
///
/// This is [`build_value_space_sharded`] with one dedup shard per
/// worker and the interning state dropped.
pub fn build_value_space(
    strs: &Interner,
    candidates: &[BinaryTable],
    synonyms: &SynonymDict,
    mr: &MapReduce,
) -> (Arc<ValueSpace>, Vec<NormBinary>) {
    let (space, tables, _) =
        build_value_space_sharded(strs, candidates, synonyms, mr, mr.workers());
    (space, tables)
}

/// The value-space build: [`build_value_space`] with an explicit shard
/// count for the normalized-value deduplication, returning also the
/// [`ValueInterning`] state that [`grow_value_space`] needs to extend
/// the space under corpus deltas.
///
/// The output is bit-identical for every `shards ≥ 1` (shard-count
/// invariance is a tested contract); the parameter only controls how
/// the dedup work is partitioned.
pub fn build_value_space_sharded(
    strs: &Interner,
    candidates: &[BinaryTable],
    synonyms: &SynonymDict,
    mr: &MapReduce,
    shards: usize,
) -> (Arc<ValueSpace>, Vec<NormBinary>, ValueInterning) {
    let mut interning = ValueInterning::default();
    let space = grow_value_space(
        &ValueSpace::from_strings([]),
        &mut interning,
        strs,
        candidates,
        synonyms,
        mr,
        shards,
    );
    let tables = project_candidates(&space, &interning, candidates, 0, mr);
    (space, tables, interning)
}

/// Extend an existing space with the values of freshly extracted
/// candidates, append-only: existing ids are untouched, new distinct
/// normalized strings get ids after [`ValueSpace::len`]. Returns the
/// grown space (a **new** `Arc` — prior mappings keep their old
/// handle, whose ids remain valid in both) **without** projecting
/// anything: the delta paths intern the values of patched *and* added
/// candidates in one deterministic pass, then project patched
/// survivors at their original positions ([`project_candidate_at`]),
/// added candidates at appended ones, and a renumbered list wholesale
/// ([`project_candidates`]). The build is this from the empty space.
///
/// `shards` is that of [`build_value_space_sharded`] and as invisible
/// in the output.
pub fn grow_value_space(
    space: &ValueSpace,
    interning: &mut ValueInterning,
    strs: &Interner,
    candidates: &[BinaryTable],
    synonyms: &SynonymDict,
    mr: &MapReduce,
    shards: usize,
) -> Arc<ValueSpace> {
    let mut strings = space.strings.clone();
    let mut class = space.class.clone();
    let old_len = strings.len();
    intern_candidates(
        strs,
        candidates,
        synonyms,
        mr,
        shards,
        interning,
        &mut strings,
        &mut class,
    );

    let new_compact: Vec<String> = mr.par_map(&strings[old_len..], |s| {
        s.chars().filter(|c| !c.is_whitespace()).collect()
    });
    let mut char_len = space.char_len.clone();
    char_len.extend(new_compact.iter().map(|s| s.chars().count() as u32));
    let mut sigs = space.sigs.clone();
    sigs.extend(mr.par_map(&new_compact, |s| CharSignature::of(s)));
    let mut compact = space.compact.clone();
    compact.extend(new_compact);

    Arc::new(ValueSpace {
        strings,
        compact,
        class,
        char_len,
        sigs,
    })
}

/// Per-position outcome of a shard's deduplication pass.
enum SymRes {
    /// The normalized string already had a [`NormId`] before this call.
    Known(NormId),
    /// First seen in this call: index into the shard's new-string list.
    New(u32),
}

/// Shared interning pass: normalize (parallel) the distinct unseen
/// symbols of `candidates` in first-occurrence order, deduplicate the
/// normalized strings in `shards` independent hash shards (parallel),
/// then stitch the shard outputs back in ascending first-occurrence
/// order — a deterministic monotone renumber that reproduces, exactly,
/// the id assignment a single sequential pass would make. Synonym
/// classes are folded in id order (class id = representative NormId:
/// the class's first-interned member). Appends to `strings`/`class`.
///
/// Shard and worker count affect only the partitioning of work; the
/// appended ids, strings, classes and the updated `interning` state
/// are bit-identical for every combination.
#[allow(clippy::too_many_arguments)]
fn intern_candidates(
    strs: &Interner,
    candidates: &[BinaryTable],
    synonyms: &SynonymDict,
    mr: &MapReduce,
    shards: usize,
    interning: &mut ValueInterning,
    strings: &mut Vec<String>,
    class: &mut Vec<u32>,
) {
    // Distinct unseen cell symbols in first-occurrence order (the
    // order NormIds are assigned in).
    let mut seen: HashSet<Sym> = HashSet::new();
    let mut distinct: Vec<Sym> = Vec::new();
    for cand in candidates {
        for &(l, r) in &cand.pairs {
            if !interning.norm_of_sym.contains_key(&l) && seen.insert(l) {
                distinct.push(l);
            }
            if !interning.norm_of_sym.contains_key(&r) && seen.insert(r) {
                distinct.push(r);
            }
        }
    }

    // Parallel normalization of the distinct symbols (the dominant
    // cost: unicode folding and footnote stripping per string).
    let normalized: Vec<String> = mr.par_map(&distinct, |&sym| normalize(strs.resolve(sym)));

    // Route each position to its shard by the hash of the normalized
    // string — the same stable partitioner blocking shards by. Positions
    // stay ascending within a shard, so each shard sees its strings in
    // global first-occurrence order.
    let shards = shards.max(1);
    let mut shard_pos: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for (pos, n) in normalized.iter().enumerate() {
        if n.is_empty() {
            continue; // resolves to None below, no id to assign
        }
        shard_pos[partition_of(&n, shards)].push(pos as u32);
    }

    // Per-shard dedup (parallel): resolve every position against the
    // pre-call id table and a shard-local first-occurrence map. Shards
    // are disjoint by construction (same string → same shard), so no
    // cross-shard coordination is needed.
    let id_of_string = &interning.id_of_string;
    // (per-shard first positions of new strings, per-shard resolutions)
    let (news_lists, res_lists): (Vec<Vec<u32>>, Vec<Vec<SymRes>>) = mr
        .par_map(&shard_pos, |positions| {
            let mut local: HashMap<&str, u32> = HashMap::new();
            let mut news: Vec<u32> = Vec::new();
            let mut res: Vec<SymRes> = Vec::with_capacity(positions.len());
            for &pos in positions {
                let n = normalized[pos as usize].as_str();
                if let Some(&id) = id_of_string.get(n) {
                    res.push(SymRes::Known(id));
                } else {
                    match local.entry(n) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            res.push(SymRes::New(*e.get()));
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            let li = news.len() as u32;
                            e.insert(li);
                            news.push(pos);
                            res.push(SymRes::New(li));
                        }
                    }
                }
            }
            (news, res)
        })
        .into_iter()
        .unzip();

    // Stitch: merge the shards' new strings by first-occurrence
    // position and assign NormIds in that order — the monotone
    // renumber that makes the shard partitioning invisible. Within a
    // shard `news` is ascending, so the k-way merge reduces to a sort
    // of (position, shard) heads and a per-shard cursor.
    let mut merged: Vec<(u32, u32)> = news_lists
        .iter()
        .enumerate()
        .flat_map(|(s, news)| news.iter().map(move |&p| (p, s as u32)))
        .collect();
    merged.sort_unstable();
    let mut local_to_global: Vec<Vec<NormId>> = news_lists
        .iter()
        .map(|news| Vec::with_capacity(news.len()))
        .collect();
    for &(pos, s) in &merged {
        let id = NormId(strings.len() as u32);
        local_to_global[s as usize].push(id);
        let n = &normalized[pos as usize];
        let c = match synonyms.class_of(n) {
            Some(sc) => *interning.rep_of_class.entry(sc).or_insert(id.0),
            None => id.0,
        };
        interning.id_of_string.insert(n.clone(), id);
        strings.push(n.clone());
        class.push(c);
    }

    // Resolve every distinct symbol to its final id (None: normalizes
    // to empty) and record the mapping.
    let mut resolved: Vec<Option<NormId>> = vec![None; distinct.len()];
    for (s, res) in res_lists.iter().enumerate() {
        for (&pos, r) in shard_pos[s].iter().zip(res) {
            resolved[pos as usize] = Some(match r {
                SymRes::Known(id) => *id,
                SymRes::New(li) => local_to_global[s][*li as usize],
            });
        }
    }
    for (&sym, r) in distinct.iter().zip(&resolved) {
        interning.norm_of_sym.insert(sym, *r);
    }
}

/// Bulk projection: each candidate's pairs mapped into the space,
/// deduplicated, class-sorted, with `idx` counting up from `idx_base`;
/// candidates below two usable pairs dropped. Every symbol in
/// `candidates` must already be interned.
pub fn project_candidates(
    space: &ValueSpace,
    interning: &ValueInterning,
    candidates: &[BinaryTable],
    idx_base: u32,
    mr: &MapReduce,
) -> Vec<NormBinary> {
    let indexed: Vec<(u32, &BinaryTable)> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| (idx_base + i as u32, c))
        .collect();
    mr.par_map(&indexed, |&(idx, cand)| {
        project_candidate_at(space, interning, cand, idx)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Project a single candidate into the space at an explicit `idx`:
/// pairs mapped into the space, deduplicated, class-sorted. The
/// row-patch path uses this to re-project a patched survivor **at its
/// original position** in the candidate list (the position encodes the
/// live-table order that bit-identity depends on). Returns `None` when
/// fewer than two usable pairs remain.
///
/// Every symbol in `cand` must already be interned (the caller runs
/// the interning pass over patched candidates first).
pub fn project_candidate_at(
    space: &ValueSpace,
    interning: &ValueInterning,
    cand: &BinaryTable,
    idx: u32,
) -> Option<NormBinary> {
    let norm_ref = &interning.norm_of_sym;
    let mut pairs: Vec<(NormId, NormId)> = cand
        .pairs
        .iter()
        .filter_map(|&(l, r)| Some(((*norm_ref.get(&l)?)?, (*norm_ref.get(&r)?)?)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    // Sort by class pair for the hash-join in compat scoring.
    pairs.sort_by_key(|&(l, r)| (space.class(l), space.class(r)));
    (pairs.len() >= 2).then_some(NormBinary {
        idx,
        domain: cand.domain,
        source: cand.source,
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth_corpus::{BinaryId, Corpus, DomainId, TableId};
    use mapsynth_mapreduce::MapReduce;

    fn mk_candidates(rows: Vec<Vec<(&str, &str)>>) -> (Corpus, Vec<BinaryTable>) {
        let mut corpus = Corpus::new();
        let d = corpus.domain("x");
        let mut out = Vec::new();
        for (i, pairs) in rows.into_iter().enumerate() {
            let syms: Vec<(Sym, Sym)> = pairs
                .iter()
                .map(|(l, r)| (corpus.interner.intern(l), corpus.interner.intern(r)))
                .collect();
            out.push(BinaryTable::new(
                BinaryId(i as u32),
                TableId(i as u32),
                d,
                0,
                1,
                syms,
            ));
        }
        let _ = DomainId(0);
        (corpus, out)
    }

    /// Reference implementation of the interning loop: the plain
    /// sequential first-occurrence pass the sharded build must
    /// reproduce bit-for-bit.
    fn sequential_intern(
        strs: &Interner,
        candidates: &[BinaryTable],
        synonyms: &SynonymDict,
    ) -> (Vec<String>, Vec<u32>, HashMap<Sym, Option<NormId>>) {
        let mut norm_of_sym: HashMap<Sym, Option<NormId>> = HashMap::new();
        let mut id_of_string: HashMap<String, NormId> = HashMap::new();
        let mut rep_of_class: HashMap<usize, u32> = HashMap::new();
        let mut strings: Vec<String> = Vec::new();
        let mut class: Vec<u32> = Vec::new();
        for cand in candidates {
            for &(l, r) in &cand.pairs {
                for sym in [l, r] {
                    if norm_of_sym.contains_key(&sym) {
                        continue;
                    }
                    let n = normalize(strs.resolve(sym));
                    let id = if n.is_empty() {
                        None
                    } else {
                        match id_of_string.get(&n) {
                            Some(&id) => Some(id),
                            None => {
                                let id = NormId(strings.len() as u32);
                                let c = match synonyms.class_of(&n) {
                                    Some(sc) => *rep_of_class.entry(sc).or_insert(id.0),
                                    None => id.0,
                                };
                                id_of_string.insert(n.clone(), id);
                                strings.push(n);
                                class.push(c);
                                Some(id)
                            }
                        }
                    };
                    norm_of_sym.insert(sym, id);
                }
            }
        }
        (strings, class, norm_of_sym)
    }

    /// The sharded build must be bit-identical to the sequential
    /// reference for every shard and worker count — ids, strings,
    /// classes, symbol resolutions and projections alike.
    #[test]
    fn sharded_interning_matches_sequential_reference() {
        let (corpus, cands) = mk_candidates(vec![
            vec![
                ("United States", "USA"),
                ("UNITED STATES[1]", "usa"),
                ("Canada", "CAN"),
                ("US Virgin Islands", "ISV"),
            ],
            vec![
                ("United States Virgin Islands", "ISV"),
                ("Côte d'Ivoire", "CIV"),
                ("***", "empty-left"),
                ("Canada", "CAN"),
            ],
            vec![("São Tomé", "STP"), ("Peru", "PER"), ("peru", "per")],
        ]);
        let mut dict = SynonymDict::new();
        dict.declare("US Virgin Islands", "United States Virgin Islands");
        let (ref_strings, ref_class, ref_norms) =
            sequential_intern(&corpus.interner, &cands, &dict);
        for workers in [1usize, 2, 8] {
            let mr = MapReduce::new(workers);
            for shards in [1usize, 2, 8] {
                let (space, tables, interning) =
                    build_value_space_sharded(&corpus.interner, &cands, &dict, &mr, shards);
                assert_eq!(
                    space.strings, ref_strings,
                    "workers {workers} shards {shards}"
                );
                assert_eq!(space.class, ref_class, "workers {workers} shards {shards}");
                assert_eq!(interning.norm_of_sym, ref_norms);
                // Projections are downstream of the ids; spot-check
                // they are stable too.
                let (s1, t1, _) =
                    build_value_space_sharded(&corpus.interner, &cands, &dict, &mr, 1);
                assert_eq!(s1.strings, space.strings);
                assert_eq!(tables.len(), t1.len());
                for (a, b) in tables.iter().zip(&t1) {
                    assert_eq!(a.idx, b.idx);
                    assert_eq!(a.pairs, b.pairs);
                }
            }
        }
    }

    /// Extending a space (the delta path) is shard-invariant too: any
    /// shard count appends the same ids in the same order.
    #[test]
    fn sharded_extension_matches_across_shard_counts() {
        let (corpus, cands) = mk_candidates(vec![
            vec![("United States", "USA"), ("Canada", "CAN"), ("Peru", "PER")],
            vec![
                ("Chile", "CHL"),
                ("canada", "CAN"),
                ("Argentina", "ARG"),
                ("Brazil", "BRA"),
            ],
        ]);
        let dict = SynonymDict::new();
        let mr = MapReduce::new(4);
        let mut reference: Option<(Vec<String>, Vec<u32>)> = None;
        for shards in [1usize, 2, 8] {
            let (space, _, mut interning) =
                build_value_space_sharded(&corpus.interner, &cands[..1], &dict, &mr, shards);
            let grown = grow_value_space(
                &space,
                &mut interning,
                &corpus.interner,
                &cands[1..],
                &dict,
                &mr,
                shards,
            );
            let tables = project_candidates(&grown, &interning, &cands[1..], 1, &mr);
            assert!(!tables.is_empty());
            match &reference {
                None => reference = Some((grown.strings.clone(), grown.class.clone())),
                Some((s, c)) => {
                    assert_eq!(&grown.strings, s, "shards {shards}");
                    assert_eq!(&grown.class, c, "shards {shards}");
                }
            }
        }
    }

    #[test]
    fn normalization_folds_case_and_footnotes() {
        let (corpus, cands) = mk_candidates(vec![vec![
            ("United States", "USA"),
            ("UNITED STATES[1]", "usa"),
            ("Canada", "CAN"),
        ]]);
        let (space, tables) = build_value_space(
            &corpus.interner,
            &cands,
            &SynonymDict::new(),
            &MapReduce::new(2),
        );
        assert_eq!(tables.len(), 1);
        // "United States" and "UNITED STATES[1]" fold to one value;
        // ("united states","usa") dedups to one pair.
        assert_eq!(tables[0].len(), 2);
        let strs: Vec<&str> = tables[0]
            .pairs
            .iter()
            .map(|&(l, _)| space.string(l))
            .collect();
        assert!(strs.contains(&"united states"));
        assert!(strs.contains(&"canada"));
    }

    #[test]
    fn empty_values_dropped_and_small_tables_omitted() {
        let (corpus, cands) = mk_candidates(vec![
            vec![("***", "x"), ("a", "1")], // one usable pair → dropped
            vec![("a", "1"), ("b", "2")],
        ]);
        let (_, tables) = build_value_space(
            &corpus.interner,
            &cands,
            &SynonymDict::new(),
            &MapReduce::new(2),
        );
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].idx, 1);
    }

    #[test]
    fn char_lengths_count_chars_not_bytes() {
        let (corpus, cands) = mk_candidates(vec![vec![
            ("Côte d'Ivoire", "CIV"),
            ("São Tomé", "STP"),
            ("Curaçao", "CUW"),
        ]]);
        let (space, tables) = build_value_space(
            &corpus.interner,
            &cands,
            &SynonymDict::new(),
            &MapReduce::new(2),
        );
        for &(l, r) in &tables[0].pairs {
            for id in [l, r] {
                assert_eq!(
                    space.compact_chars(id) as usize,
                    space.compact(id).chars().count(),
                    "cached char length must match {:?}",
                    space.compact(id)
                );
            }
        }
        // Multi-byte values must not report byte lengths.
        let cote = tables[0]
            .pairs
            .iter()
            .find(|&&(l, _)| space.string(l).contains("ivoire"))
            .unwrap()
            .0;
        assert!(space.compact(cote).len() > space.compact_chars(cote) as usize);
    }

    #[test]
    fn signatures_cached_at_intern_time_and_extended_on_delta() {
        let (corpus, cands) = mk_candidates(vec![
            vec![("United States", "USA"), ("Côte d'Ivoire", "CIV")],
            vec![("Canada", "CAN"), ("Peru", "PER")],
        ]);
        let mr = MapReduce::new(2);
        let (space, _, mut interning) = build_value_space_sharded(
            &corpus.interner,
            &cands[..1],
            &SynonymDict::new(),
            &mr,
            mr.workers(),
        );
        for i in 0..space.len() as u32 {
            assert_eq!(
                space.signature(NormId(i)),
                &CharSignature::of(space.compact(NormId(i))),
                "cached signature must match the compact string {:?}",
                space.compact(NormId(i))
            );
        }

        // Growing the space appends signatures for the new values and
        // leaves existing ones untouched.
        let grown = grow_value_space(
            &space,
            &mut interning,
            &corpus.interner,
            &cands[1..],
            &SynonymDict::new(),
            &mr,
            mr.workers(),
        );
        assert!(grown.len() > space.len());
        for i in 0..grown.len() as u32 {
            assert_eq!(
                grown.signature(NormId(i)),
                &CharSignature::of(grown.compact(NormId(i)))
            );
        }
        for i in 0..space.len() as u32 {
            assert_eq!(grown.signature(NormId(i)), space.signature(NormId(i)));
        }
    }

    #[test]
    fn synonym_classes_fold() {
        let (corpus, cands) = mk_candidates(vec![
            vec![("US Virgin Islands", "ISV"), ("Canada", "CAN")],
            vec![("United States Virgin Islands", "ISV"), ("Canada", "CAN")],
        ]);
        let mut dict = SynonymDict::new();
        dict.declare("US Virgin Islands", "United States Virgin Islands");
        let (space, tables) =
            build_value_space(&corpus.interner, &cands, &dict, &MapReduce::new(2));
        let l0 = tables[0]
            .pairs
            .iter()
            .find(|&&(l, _)| space.string(l).contains("virgin"))
            .unwrap()
            .0;
        let l1 = tables[1]
            .pairs
            .iter()
            .find(|&&(l, _)| space.string(l).contains("virgin"))
            .unwrap()
            .0;
        assert_ne!(l0, l1, "different strings, different values");
        assert_eq!(space.class(l0), space.class(l1), "same synonym class");
    }
}
