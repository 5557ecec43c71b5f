//! Shard-count invariance oracle: property-test that the sharded
//! value-space interning and the sharded blocking build are
//! **bit-identical** to their single-shard / unsharded references for
//! randomly generated candidate sets — across shard counts, worker
//! counts, the incremental extension path, and blocking deltas.
//!
//! This is the safety net behind PR 6's parallel artifact builds: the
//! production `build` entry points delegate to the sharded
//! implementations with one shard per worker, so any nondeterminism in
//! partitioning or stitching would surface here (and in the delta
//! oracle) before it could perturb golden dumps.

use mapsynth::blocking::BlockingIndex;
use mapsynth::config::SynthesisConfig;
use mapsynth::values::{
    build_value_space_sharded, grow_value_space, project_candidates, NormBinary, NormId, ValueSpace,
};
use mapsynth_corpus::{BinaryId, BinaryTable, Corpus, TableId};
use mapsynth_mapreduce::MapReduce;
use mapsynth_text::SynonymDict;
use proptest::prelude::*;

/// A generated candidate table: a relation selector plus rows keyed by
/// entity with a spelling-variant selector. Codes derive from
/// `(relation, entity)` so tables of one relation overlap heavily
/// (shared blocking keys) while different relations conflict on shared
/// entities; variants introduce near-duplicate spellings so
/// normalization and synonym folding have real work.
type GenTable = (u8, Vec<(u8, u8)>);

fn code_of(relation: u8, entity: u8) -> u8 {
    ((entity as u16 * 7 + relation as u16 * 13) % 8) as u8
}

fn left_str(entity: u8, variant: u8) -> String {
    let base = format!("entity number {entity} of the corpus");
    match variant % 4 {
        0 => base,
        1 => base.replace("number", "numbr"),
        2 => base.to_uppercase(),   // folds back via normalization
        _ => format!("{base} [1]"), // footnote marker, also folds back
    }
}

fn right_str(code: u8, variant: u8) -> String {
    let base = format!("mapping code {code}");
    if variant % 3 == 1 {
        format!("{base}s")
    } else {
        base
    }
}

fn synonyms() -> SynonymDict {
    let mut dict = SynonymDict::new();
    dict.declare(&left_str(1, 0), &left_str(1, 1));
    dict.declare(&right_str(1, 0), &right_str(1, 1));
    dict
}

fn mk_candidates(gen: &[GenTable]) -> (Corpus, Vec<BinaryTable>) {
    let mut corpus = Corpus::new();
    let d = corpus.domain("x");
    let cands = gen
        .iter()
        .enumerate()
        .map(|(i, (relation, rows))| {
            let syms = rows
                .iter()
                .map(|&(e, v)| {
                    (
                        corpus.interner.intern(&left_str(e, v)),
                        corpus.interner.intern(&right_str(code_of(*relation, e), v)),
                    )
                })
                .collect();
            BinaryTable::new(BinaryId(i as u32), TableId(i as u32), d, 0, 1, syms)
        })
        .collect();
    (corpus, cands)
}

/// Everything externally observable about a value space + projections:
/// normalized strings in id order, class representatives, and each
/// table's projected pairs.
type SpaceObs = (Vec<String>, Vec<u32>, Vec<(u32, Vec<(u32, u32)>)>);

fn observe_space(space: &ValueSpace, tables: &[NormBinary]) -> SpaceObs {
    let strings = (0..space.len() as u32)
        .map(|i| space.string(NormId(i)).to_string())
        .collect();
    let classes = (0..space.len() as u32)
        .map(|i| space.class(NormId(i)))
        .collect();
    let projected = tables
        .iter()
        .map(|t| {
            (
                t.idx,
                t.pairs.iter().map(|&(l, r)| (l.0, r.0)).collect::<Vec<_>>(),
            )
        })
        .collect();
    (strings, classes, projected)
}

fn table_strategy() -> impl Strategy<Value = GenTable> {
    let rows = proptest::collection::btree_map(0u8..12, 0u8..5, 4..9)
        .prop_map(|m| m.into_iter().collect::<Vec<_>>());
    (0u8..3, rows)
}

fn tables_strategy() -> impl Strategy<Value = Vec<GenTable>> {
    proptest::collection::vec(table_strategy(), 4..10)
}

/// Teeth check: a representative instance must produce a non-trivial
/// value space and at least one blocked pair — otherwise the property
/// would hold vacuously.
#[test]
fn generated_candidates_exercise_blocking() {
    let gen: Vec<GenTable> = (0..6)
        .map(|i| (i % 2, (0..8u8).map(|e| (e, (e + i) % 5)).collect()))
        .collect();
    let (corpus, cands) = mk_candidates(&gen);
    let mr = MapReduce::new(2);
    let (space, tables, _) =
        build_value_space_sharded(&corpus.interner, &cands, &synonyms(), &mr, 2);
    assert!(
        space.len() > 10,
        "generator must produce a real value space"
    );
    let (_, pairs, _) =
        BlockingIndex::build_sharded(&space, &tables, &SynthesisConfig::default(), &mr, 2);
    assert!(!pairs.is_empty(), "generator must produce blocked pairs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// For any generated candidate set, any worker count, and any
    /// shard count: the sharded value space equals the single-shard
    /// one, sharded blocking equals the unsharded reference, the
    /// extension (delta) path is shard-invariant, and a sharded-built
    /// blocking index fed through `apply_delta` lands on the fresh
    /// unsharded build's pairs.
    #[test]
    fn prop_sharded_builds_are_invariant(
        gen in tables_strategy(),
        worker_sel in 0usize..3,
        split_sel in 1usize..4,
    ) {
        let workers = [1usize, 2, 8][worker_sel];
        let mr = MapReduce::new(workers);
        let (corpus, cands) = mk_candidates(&gen);
        let dict = synonyms();
        let cfg = SynthesisConfig::default();

        let (ref_space, ref_tables, _) =
            build_value_space_sharded(&corpus.interner, &cands, &dict, &mr, 1);
        let reference = observe_space(&ref_space, &ref_tables);
        let (_, ref_pairs, ref_stats) = BlockingIndex::build_unsharded(&ref_space, &ref_tables, &cfg);

        // The extension reference: build on a prefix, extend with the
        // rest, single shard.
        let at = (cands.len() * split_sel / 4).clamp(1, cands.len() - 1);
        let ext_reference = {
            let (space, tables, mut interning) =
                build_value_space_sharded(&corpus.interner, &cands[..at], &dict, &mr, 1);
            let n_prefix = tables.len() as u32;
            let grown = grow_value_space(
                &space, &mut interning, &corpus.interner, &cands[at..], &dict, &mr, 1,
            );
            let added = project_candidates(&grown, &interning, &cands[at..], n_prefix, &mr);
            let mut all = tables;
            all.extend(added);
            observe_space(&grown, &all)
        };

        for shards in [2usize, 3, 8] {
            let (space, tables, _) =
                build_value_space_sharded(&corpus.interner, &cands, &dict, &mr, shards);
            prop_assert_eq!(observe_space(&space, &tables), reference.clone(),
                "value space diverged at {} shards, {} workers", shards, workers);

            let (_, pairs, stats) =
                BlockingIndex::build_sharded(&space, &tables, &cfg, &mr, shards);
            prop_assert_eq!(&pairs, &ref_pairs,
                "blocking pairs diverged at {} shards, {} workers", shards, workers);
            prop_assert_eq!(stats.pairs, ref_stats.pairs);
            prop_assert_eq!(stats.pos_keys, ref_stats.pos_keys);
            prop_assert_eq!(stats.neg_keys, ref_stats.neg_keys);
            prop_assert_eq!(stats.capped_keys, ref_stats.capped_keys);

            // Extension path at this shard count.
            let (pspace, ptables, mut interning) =
                build_value_space_sharded(&corpus.interner, &cands[..at], &dict, &mr, shards);
            let n_prefix = ptables.len() as u32;
            let grown = grow_value_space(
                &pspace, &mut interning, &corpus.interner, &cands[at..], &dict, &mr, shards,
            );
            let added = project_candidates(&grown, &interning, &cands[at..], n_prefix, &mr);
            let mut all = ptables;
            all.extend(added);
            prop_assert_eq!(observe_space(&grown, &all), ext_reference.clone(),
                "extension diverged at {} shards, {} workers", shards, workers);

            // Sharded-built index through the blocking delta path: add
            // the suffix tables incrementally, compare with the fresh
            // unsharded build over everything.
            let k = at.min(tables.len().saturating_sub(1)).max(1);
            if k < tables.len() {
                let (mut index, _, _) =
                    BlockingIndex::build_sharded(&space, &tables[..k], &cfg, &mr, shards);
                let added_idx: Vec<u32> = (k as u32..tables.len() as u32).collect();
                let (delta_pairs, _) =
                    index.apply_delta(&space, &tables, &added_idx, &[], &cfg);
                prop_assert_eq!(&delta_pairs, &ref_pairs,
                    "post-delta pairs diverged at {} shards, {} workers", shards, workers);
            }
        }
    }
}
