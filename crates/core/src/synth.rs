//! Synthesized mapping relationships: the union of a partition.

use crate::values::{NormBinary, NormId, ValueSpace};
use std::collections::HashSet;
use std::sync::Arc;

/// A synthesized mapping relationship: the deduplicated union of all
/// value pairs of the tables in one partition, with provenance
/// statistics for curation (paper §4.3).
///
/// Pairs are stored **interned** — `(NormId, NormId)` into the run's
/// shared [`ValueSpace`], which the mapping holds a handle to. Strings
/// are materialized only at application boundaries (display, CSV
/// export, index keys) via [`pair_strs`](Self::pair_strs) or
/// [`materialize_pairs`](Self::materialize_pairs); everything upstream
/// moves 8-byte id pairs instead of cloning `Vec<(String, String)>`
/// per mapping.
#[derive(Clone, Debug)]
pub struct SynthesizedMapping {
    /// Handle to the value space the ids resolve in.
    space: Arc<ValueSpace>,
    /// Interned `(left, right)` pairs, sorted by their normalized
    /// strings and deduplicated.
    pub pair_ids: Vec<(NormId, NormId)>,
    /// Indices (into the run's `NormBinary` slice) of member tables.
    pub member_tables: Vec<u32>,
    /// Number of distinct provenance domains contributing tables —
    /// the paper's primary popularity/curation signal.
    pub domains: usize,
    /// Number of distinct source tables.
    pub source_tables: usize,
    /// Number of tables removed by conflict resolution.
    pub tables_removed: usize,
}

impl SynthesizedMapping {
    /// Union the pairs of `group` (indices into `tables`) into a
    /// mapping. No conflict resolution — see [`crate::conflict`].
    pub fn union_of(space: &Arc<ValueSpace>, tables: &[NormBinary], group: &[u32]) -> Self {
        // Dedup by id before the string sort: comparing two ids is a
        // fraction of comparing the strings they resolve to.
        let mut pair_ids: Vec<(NormId, NormId)> = group
            .iter()
            .flat_map(|&ti| &tables[ti as usize].pairs)
            .copied()
            .collect();
        pair_ids.sort_unstable();
        pair_ids.dedup();
        Self::over_group(space, tables, group, pair_ids)
    }

    /// A mapping over `group` asserting `pair_ids` — the group's union,
    /// or what a resolver kept of it. Provenance counts come from the
    /// group's tables.
    pub(crate) fn over_group(
        space: &Arc<ValueSpace>,
        tables: &[NormBinary],
        group: &[u32],
        pair_ids: Vec<(NormId, NormId)>,
    ) -> Self {
        let members = || group.iter().map(|&ti| &tables[ti as usize]);
        Self::from_parts(
            Arc::clone(space),
            pair_ids,
            group.to_vec(),
            distinct(members().map(|t| t.domain).collect()),
            distinct(members().map(|t| t.source).collect()),
        )
    }

    /// Assemble a mapping from parts (tests, external loaders). Pairs
    /// are re-sorted by their strings.
    pub fn from_parts(
        space: Arc<ValueSpace>,
        pair_ids: Vec<(NormId, NormId)>,
        member_tables: Vec<u32>,
        domains: usize,
        source_tables: usize,
    ) -> Self {
        let pair_ids = sort_by_strings(&space, pair_ids);
        Self {
            space,
            pair_ids,
            member_tables,
            domains,
            source_tables,
            tables_removed: 0,
        }
    }

    /// The value space the pair ids resolve in.
    pub fn space(&self) -> &ValueSpace {
        &self.space
    }

    /// Handle to the value space (shared, cheap to clone).
    pub fn space_handle(&self) -> &Arc<ValueSpace> {
        &self.space
    }

    /// Number of value pairs.
    pub fn len(&self) -> usize {
        self.pair_ids.len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.pair_ids.is_empty()
    }

    /// The normalized string pairs, in sorted order, without
    /// allocating. This is the read path for application boundaries.
    pub fn pair_strs(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.pair_ids
            .iter()
            .map(|&(l, r)| (self.space.string(l), self.space.string(r)))
    }

    /// Materialize owned string pairs (export boundary only).
    pub fn materialize_pairs(&self) -> Vec<(String, String)> {
        self.pair_strs()
            .map(|(l, r)| (l.to_string(), r.to_string()))
            .collect()
    }

    /// Whether the mapping asserts the given normalized pair.
    pub fn contains_pair(&self, left: &str, right: &str) -> bool {
        self.pair_strs().any(|(l, r)| l == left && r == right)
    }

    /// Distinct left values.
    pub fn distinct_lefts(&self) -> usize {
        let lefts: HashSet<&str> = self.pair_strs().map(|(l, _)| l).collect();
        lefts.len()
    }

    /// Left values mapping to more than one right value (residual
    /// conflicts; zero after conflict resolution unless synonyms remain
    /// unresolved).
    pub fn conflicting_lefts(&self) -> usize {
        let mut count = 0;
        let mut i = 0;
        while i < self.pair_ids.len() {
            let left = self.space.string(self.pair_ids[i].0);
            let mut j = i + 1;
            while j < self.pair_ids.len() && self.space.string(self.pair_ids[j].0) == left {
                j += 1;
            }
            if j - i > 1 {
                count += 1;
            }
            i = j;
        }
        count
    }

    /// Lexicographic comparison of the materialized pair lists
    /// (deterministic curation tie-break).
    pub fn cmp_pairs(&self, other: &Self) -> std::cmp::Ordering {
        self.pair_strs().cmp(other.pair_strs())
    }
}

/// Number of distinct values.
fn distinct<T: Ord>(mut values: Vec<T>) -> usize {
    values.sort_unstable();
    values.dedup();
    values.len()
}

/// Sort interned pairs by their normalized strings and dedup.
fn sort_by_strings(
    space: &ValueSpace,
    mut pair_ids: Vec<(NormId, NormId)>,
) -> Vec<(NormId, NormId)> {
    pair_ids.sort_by(|&(al, ar), &(bl, br)| {
        (space.string(al), space.string(ar)).cmp(&(space.string(bl), space.string(br)))
    });
    pair_ids.dedup();
    pair_ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::build_value_space;
    use mapsynth_corpus::{BinaryId, BinaryTable, Corpus, TableId};
    use mapsynth_mapreduce::MapReduce;
    use mapsynth_text::SynonymDict;

    fn setup(tables: Vec<(usize, Vec<(&str, &str)>)>) -> (Arc<ValueSpace>, Vec<NormBinary>) {
        let mut corpus = Corpus::new();
        let domains: Vec<_> = (0..4).map(|i| corpus.domain(&format!("d{i}"))).collect();
        let cands: Vec<BinaryTable> = tables
            .into_iter()
            .enumerate()
            .map(|(i, (dom, rows))| {
                let syms = rows
                    .iter()
                    .map(|(l, r)| (corpus.interner.intern(l), corpus.interner.intern(r)))
                    .collect();
                BinaryTable::new(
                    BinaryId(i as u32),
                    TableId(i as u32),
                    domains[dom],
                    0,
                    1,
                    syms,
                )
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
    fn union_dedups_and_counts_domains() {
        let (space, t) = setup(vec![
            (0, vec![("a", "1"), ("b", "2")]),
            (1, vec![("b", "2"), ("c", "3")]),
            (0, vec![("a", "1"), ("c", "3")]),
        ]);
        let m = SynthesizedMapping::union_of(&space, &t, &[0, 1, 2]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.domains, 2);
        assert_eq!(m.source_tables, 3);
        assert_eq!(m.distinct_lefts(), 3);
        assert_eq!(m.conflicting_lefts(), 0);
    }

    #[test]
    fn conflicting_lefts_detected() {
        let (space, t) = setup(vec![
            (0, vec![("a", "1"), ("b", "2")]),
            (1, vec![("a", "9"), ("b", "2")]),
        ]);
        let m = SynthesizedMapping::union_of(&space, &t, &[0, 1]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.conflicting_lefts(), 1);
    }

    #[test]
    fn pairs_sorted_by_strings() {
        let (space, t) = setup(vec![(0, vec![("z", "9"), ("a", "1"), ("m", "5")])]);
        let m = SynthesizedMapping::union_of(&space, &t, &[0]);
        let pairs = m.materialize_pairs();
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs, sorted);
    }

    #[test]
    fn materialization_is_boundary_only() {
        let (space, t) = setup(vec![(0, vec![("a", "1"), ("b", "2")])]);
        let m = SynthesizedMapping::union_of(&space, &t, &[0]);
        // Borrowed reads resolve through the shared handle.
        assert!(m.contains_pair("a", "1"));
        assert_eq!(m.pair_strs().count(), 2);
        assert!(std::sync::Arc::ptr_eq(m.space_handle(), &space));
    }
}
