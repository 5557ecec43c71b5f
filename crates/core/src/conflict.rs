//! Conflict resolution — the paper's Problem 17 and Algorithm 4.
//!
//! Unioning a partition's tables often leaves a small number of rows
//! that share a left value but disagree on the right (dirty inputs like
//! Figure 4's swapped chemical symbols, or near-miss relations like
//! state→capital vs state→largest-city, §5.6). The exact problem —
//! keep the largest subset of tables with no pairwise conflicts — is
//! NP-hard (reduction from Maximum Independent Set, Appendix G), so
//! Algorithm 4 greedily removes the table containing the value pair
//! with the most conflicts until none remain.
//!
//! [`resolve_majority_vote`] is the alternative the paper compares
//! against in §5.6: per left value, keep pairs carrying the most common
//! right value.
//!
//! Both start from one sort of the group's pair occurrences by `(left
//! class, right class)`: a run of equal class pairs is a value pair
//! with its multiplicity, a run of equal lefts a left class. Algorithm
//! 4 numbers the runs densely and keeps the paper's per-value-pair
//! index as flat arrays built once per group — removing a table
//! decrements along that table's own occurrences — and majority voting
//! reads its votes off the run lengths. Nothing depends on how classes
//! are *numbered*, only on which values share one, so an incremental
//! session and a fresh one resolve alike.

use crate::values::{NormBinary, NormId, ValueSpace};

/// Outcome statistics of a conflict-resolution pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConflictStats {
    /// Tables in the partition before resolution.
    pub tables_before: usize,
    /// Tables removed.
    pub tables_removed: usize,
    /// Conflicting left classes before resolution.
    pub conflicts_before: usize,
}

/// Algorithm 4: iteratively remove the table whose worst value pair
/// conflicts with the most other value pairs, until the union of the
/// remaining tables has no conflicts.
///
/// `group` holds indices into `tables`; returns the retained subset (in
/// original order) and stats. Right values in the same synonym class do
/// not conflict (classes are already folded in [`ValueSpace`]).
pub fn resolve_conflicts(
    space: &ValueSpace,
    tables: &[NormBinary],
    group: &[u32],
) -> (Vec<u32>, ConflictStats) {
    // Every pair occurrence as (left class, right class, member).
    // Multiplicity matters: a wrong pair asserted by one table
    // conflicts with every table asserting the majority pair, so the
    // minority table accumulates the highest count and is removed
    // first.
    let mut occurrences: Vec<(u32, u32, u32)> = Vec::new();
    // Member → its slice of `pair_of` (one slot per occurrence).
    let mut start: Vec<usize> = Vec::with_capacity(group.len() + 1);
    for (m, &ti) in group.iter().enumerate() {
        start.push(occurrences.len());
        occurrences.extend(
            tables[ti as usize]
                .pairs
                .iter()
                .map(|&(l, r)| (space.class(l), space.class(r), m as u32)),
        );
    }
    start.push(occurrences.len());
    occurrences.sort_unstable();

    // The index the paper maintains per value pair, over dense run
    // numbers: a pair's live multiplicity and its left; a left's live
    // occurrences and how many of its right classes are still live.
    let mut mult: Vec<u32> = Vec::new();
    let mut left_of: Vec<u32> = Vec::new();
    let mut left_total: Vec<u32> = Vec::new();
    let mut live_rights: Vec<u32> = Vec::new();
    let mut pair_of: Vec<u32> = vec![0; occurrences.len()];
    let mut fill: Vec<usize> = start[..group.len()].to_vec();
    for left_run in occurrences.chunk_by(|x, y| x.0 == y.0) {
        let left = left_total.len() as u32;
        left_total.push(left_run.len() as u32);
        let mut rights = 0;
        for pair_run in left_run.chunk_by(|x, y| x.1 == y.1) {
            let pair = mult.len() as u32;
            mult.push(pair_run.len() as u32);
            left_of.push(left);
            rights += 1;
            for &(_, _, m) in pair_run {
                pair_of[fill[m as usize]] = pair;
                fill[m as usize] += 1;
            }
        }
        live_rights.push(rights);
    }
    // Lefts with more than one live right class: zero means done.
    let mut conflicting = live_rights.iter().filter(|&&n| n > 1).count();
    let mut stats = ConflictStats {
        tables_before: group.len(),
        conflicts_before: conflicting,
        ..Default::default()
    };

    let mut alive = vec![true; group.len()];
    while conflicting > 0 && group.len() - stats.tables_removed > 1 {
        // cntV(l, r) = occurrences of pairs (l, r') with r' ≠ r;
        // cntB(B) = max over B's pairs of cntV; remove argmax table.
        let mut worst: Option<(u32, usize)> = None; // (cnt, member)
        for m in (0..group.len()).filter(|&m| alive[m]) {
            let cnt = pair_of[start[m]..start[m + 1]]
                .iter()
                .map(|&p| left_total[left_of[p as usize] as usize] - mult[p as usize])
                .max()
                .unwrap_or(0);
            // Strict > keeps the earliest max for determinism; prefer
            // removing smaller tables on ties (preserves coverage).
            let better = match worst {
                None => true,
                Some((best_cnt, best_m)) => {
                    cnt > best_cnt
                        || (cnt == best_cnt
                            && start[m + 1] - start[m] < start[best_m + 1] - start[best_m])
                }
            };
            if better {
                worst = Some((cnt, m));
            }
        }
        let (cnt, m) = worst.expect("non-empty retained set");
        debug_assert!(cnt > 0, "a conflicting left has a live table on each side");
        alive[m] = false;
        stats.tables_removed += 1;
        for &p in &pair_of[start[m]..start[m + 1]] {
            let left = left_of[p as usize] as usize;
            left_total[left] -= 1;
            mult[p as usize] -= 1;
            if mult[p as usize] == 0 {
                live_rights[left] -= 1;
                if live_rights[left] == 1 {
                    conflicting -= 1;
                }
            }
        }
    }
    let retained = (0..group.len())
        .filter(|&m| alive[m])
        .map(|m| group[m])
        .collect();
    (retained, stats)
}

/// Majority-voting alternative (§5.6 comparison): per left class, keep
/// only pairs whose right class has the highest multiplicity across
/// member tables. Returns the retained interned pairs, sorted by id and
/// deduplicated.
pub fn resolve_majority_vote(
    space: &ValueSpace,
    tables: &[NormBinary],
    group: &[u32],
) -> Vec<(NormId, NormId)> {
    let mut occurrences: Vec<(u32, u32, NormId, NormId)> = group
        .iter()
        .flat_map(|&ti| &tables[ti as usize].pairs)
        .map(|&(l, r)| (space.class(l), space.class(r), l, r))
        .collect();
    occurrences.sort_unstable();
    let mut pairs: Vec<(NormId, NormId)> = Vec::new();
    for left_run in occurrences.chunk_by(|x, y| x.0 == y.0) {
        // A right class's votes are its run length; ties go to the
        // class with the lexicographically smallest member string. The
        // string is the deterministic tie-break: class *ids* are
        // value-space numbering, which incremental sessions
        // (append-only interning, [`crate::delta`]) and fresh sessions
        // assign differently for the same corpus.
        let smallest = |run: &[(u32, u32, NormId, NormId)]| {
            run.iter().map(|&(_, _, _, r)| space.string(r)).min()
        };
        let winner = left_run
            .chunk_by(|x, y| x.1 == y.1)
            .max_by(|x, y| (x.len().cmp(&y.len())).then_with(|| smallest(y).cmp(&smallest(x))))
            .expect("a left run has a right run");
        pairs.extend(winner.iter().map(|&(_, _, l, r)| (l, r)));
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::build_value_space;
    use mapsynth_corpus::{BinaryId, BinaryTable, Corpus, TableId};
    use mapsynth_mapreduce::MapReduce;
    use mapsynth_text::SynonymDict;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// The predecessor of [`resolve_conflicts`], kept as the oracle: both
    /// multisets are rebuilt from the retained tables before every removal.
    fn resolve_conflicts_rebuild(
        space: &ValueSpace,
        tables: &[NormBinary],
        group: &[u32],
    ) -> (Vec<u32>, ConflictStats) {
        let mut retained: Vec<u32> = group.to_vec();
        let mut stats = ConflictStats {
            tables_before: group.len(),
            ..Default::default()
        };

        // Count initial conflicts for stats.
        stats.conflicts_before = conflicting_lefts(space, tables, &retained).len();

        loop {
            // Multiset of (left class, right class) pairs across retained
            // tables. Multiplicity matters: a wrong pair asserted by one
            // table conflicts with every table asserting the majority pair,
            // so the minority table accumulates the highest count and is
            // removed first (the index the paper maintains per value pair).
            let mut multiplicity: HashMap<(u32, u32), usize> = HashMap::new();
            let mut left_total: HashMap<u32, usize> = HashMap::new();
            for &ti in &retained {
                for &(l, r) in &tables[ti as usize].pairs {
                    let key = (space.class(l), space.class(r));
                    *multiplicity.entry(key).or_default() += 1;
                    *left_total.entry(key.0).or_default() += 1;
                }
            }
            // cntV(l, r) = occurrences of pairs (l, r') with r' ≠ r.
            let conflict_count = |l: u32, r: u32| {
                left_total.get(&l).copied().unwrap_or(0)
                    - multiplicity.get(&(l, r)).copied().unwrap_or(0)
            };
            let any_conflict = multiplicity.keys().any(|&(l, r)| conflict_count(l, r) > 0);
            if !any_conflict || retained.len() <= 1 {
                break;
            }
            // cntB(B) = max over B's pairs of cntV; remove argmax table.
            let mut worst: Option<(usize, usize)> = None; // (cnt, position)
            for (pos, &ti) in retained.iter().enumerate() {
                let cnt = tables[ti as usize]
                    .pairs
                    .iter()
                    .map(|&(l, r)| conflict_count(space.class(l), space.class(r)))
                    .max()
                    .unwrap_or(0);
                // Strict > keeps the earliest max for determinism; prefer
                // removing smaller tables on ties (preserves coverage).
                let better = match worst {
                    None => true,
                    Some((best_cnt, best_pos)) => {
                        cnt > best_cnt
                            || (cnt == best_cnt
                                && tables[ti as usize].len()
                                    < tables[retained[best_pos] as usize].len())
                    }
                };
                if better {
                    worst = Some((cnt, pos));
                }
            }
            let (cnt, pos) = worst.expect("non-empty retained set");
            if cnt == 0 {
                break; // defensive: no table carries a conflicting pair
            }
            retained.remove(pos);
            stats.tables_removed += 1;
        }
        (retained, stats)
    }

    /// Left classes with more than one right class in the union of `group`.
    fn conflicting_lefts(space: &ValueSpace, tables: &[NormBinary], group: &[u32]) -> Vec<u32> {
        let mut rights_of: HashMap<u32, HashSet<u32>> = HashMap::new();
        for &ti in group {
            for &(l, r) in &tables[ti as usize].pairs {
                rights_of
                    .entry(space.class(l))
                    .or_default()
                    .insert(space.class(r));
            }
        }
        rights_of
            .into_iter()
            .filter(|(_, rs)| rs.len() > 1)
            .map(|(l, _)| l)
            .collect()
    }

    /// The predecessor of [`resolve_majority_vote`], kept as the oracle:
    /// nested vote maps, then a second pass over the group.
    fn resolve_majority_vote_maps(
        space: &ValueSpace,
        tables: &[NormBinary],
        group: &[u32],
    ) -> Vec<(NormId, NormId)> {
        // votes[left class][right class] = (number of member tables with
        // it, lexicographically smallest member string observed for the
        // class). The string is the deterministic tie-break: class *ids*
        // are value-space numbering, which incremental sessions
        // (append-only interning, [`crate::delta`]) and fresh sessions
        // assign differently for the same corpus.
        let mut votes: HashMap<u32, HashMap<u32, (usize, &str)>> = HashMap::new();
        for &ti in group {
            for &(l, r) in &tables[ti as usize].pairs {
                let entry = votes
                    .entry(space.class(l))
                    .or_default()
                    .entry(space.class(r))
                    .or_insert((0, space.string(r)));
                entry.0 += 1;
                entry.1 = entry.1.min(space.string(r));
            }
        }
        // winner per left class: max votes, tie-broken by smaller class
        // representative string.
        let winner: HashMap<u32, u32> = votes
            .into_iter()
            .map(|(l, rs)| {
                let best = rs
                    .into_iter()
                    .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(a.1 .1)))
                    .map(|(rc, _)| rc)
                    .expect("non-empty votes");
                (l, best)
            })
            .collect();
        let mut out: HashSet<(NormId, NormId)> = HashSet::new();
        for &ti in group {
            for &(l, r) in &tables[ti as usize].pairs {
                if winner.get(&space.class(l)) == Some(&space.class(r)) {
                    out.insert((l, r));
                }
            }
        }
        let mut pairs: Vec<_> = out.into_iter().collect();
        pairs.sort_unstable();
        pairs
    }

    fn setup_dict(
        tables: Vec<Vec<(&str, &str)>>,
        dict: SynonymDict,
    ) -> (std::sync::Arc<ValueSpace>, Vec<NormBinary>) {
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
        build_value_space(&corpus.interner, &cands, &dict, &MapReduce::new(2))
    }

    fn setup(tables: Vec<Vec<(&str, &str)>>) -> (std::sync::Arc<ValueSpace>, Vec<NormBinary>) {
        setup_dict(tables, SynonymDict::new())
    }

    #[test]
    fn removes_minority_dirty_table() {
        // Three agreeing tables + one with a wrong symbol (paper
        // Figure 4: Tellurium should be Te).
        let good = vec![("Tellurium", "Te"), ("Iodine", "I"), ("Xenon", "Xe")];
        let (space, t) = setup(vec![
            good.clone(),
            good.clone(),
            good,
            vec![("Tellurium", "I"), ("Iodine", "Te"), ("Xenon", "Xe")],
        ]);
        let (kept, stats) = resolve_conflicts(&space, &t, &[0, 1, 2, 3]);
        assert_eq!(kept, vec![0, 1, 2]);
        assert_eq!(stats.tables_removed, 1);
        assert_eq!(stats.conflicts_before, 2);
    }

    #[test]
    fn no_conflicts_is_noop() {
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2")],
            vec![("b", "2"), ("c", "3")],
        ]);
        let (kept, stats) = resolve_conflicts(&space, &t, &[0, 1]);
        assert_eq!(kept, vec![0, 1]);
        assert_eq!(stats.tables_removed, 0);
        assert_eq!(stats.conflicts_before, 0);
    }

    #[test]
    fn capital_vs_largest_city_case() {
        // §5.6: state→capital cluster polluted by a largest-city
        // table that disagrees on Washington only.
        let capital = vec![
            ("Washington", "Olympia"),
            ("Illinois", "Springfield"),
            ("Texas", "Austin"),
            ("Oregon", "Salem"),
        ];
        let mixed = vec![
            ("Washington", "Seattle"), // largest city, not capital
            ("Illinois", "Springfield"),
            ("Texas", "Austin"),
            ("Oregon", "Salem"),
        ];
        let (space, t) = setup(vec![capital.clone(), capital, mixed]);
        let (kept, _) = resolve_conflicts(&space, &t, &[0, 1, 2]);
        assert_eq!(kept, vec![0, 1], "majority capital tables win");
    }

    #[test]
    fn synonymous_rights_do_not_conflict() {
        let mut dict = SynonymDict::new();
        dict.declare("Myanmar", "Burma");
        let (space, t) = setup_dict(
            vec![
                vec![("MMR", "Myanmar"), ("THA", "Thailand")],
                vec![("MMR", "Burma"), ("THA", "Thailand")],
            ],
            dict,
        );
        let (kept, stats) = resolve_conflicts(&space, &t, &[0, 1]);
        assert_eq!(kept.len(), 2);
        assert_eq!(stats.conflicts_before, 0);
    }

    #[test]
    fn resolution_terminates_on_pathological_input() {
        // Every table conflicts with every other.
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "1")],
            vec![("a", "2"), ("b", "2")],
            vec![("a", "3"), ("b", "3")],
        ]);
        let (kept, stats) = resolve_conflicts(&space, &t, &[0, 1, 2]);
        assert_eq!(kept.len(), 1);
        assert_eq!(stats.tables_removed, 2);
    }

    #[test]
    fn majority_vote_keeps_popular_right() {
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2")],
            vec![("a", "1"), ("b", "2")],
            vec![("a", "9"), ("b", "2")],
        ]);
        let pairs = resolve_majority_vote(&space, &t, &[0, 1, 2]);
        let strs: Vec<(&str, &str)> = pairs
            .iter()
            .map(|&(l, r)| (space.string(l), space.string(r)))
            .collect();
        assert!(strs.contains(&("a", "1")));
        assert!(!strs.iter().any(|&(l, r)| l == "a" && r == "9"));
        assert!(strs.contains(&("b", "2")));
    }

    #[test]
    fn majority_vote_vs_algorithm4_coverage() {
        // Algorithm 4 removes whole tables; majority voting removes
        // only the conflicting pairs. A dirty table with unique good
        // pairs shows the coverage difference.
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2")],
            vec![("a", "1"), ("b", "2")],
            vec![("a", "9"), ("unique", "7")], // dirty on a, unique pair
        ]);
        let (kept, _) = resolve_conflicts(&space, &t, &[0, 1, 2]);
        assert_eq!(kept, vec![0, 1], "algorithm 4 drops the whole table");
        let mv = resolve_majority_vote(&space, &t, &[0, 1, 2]);
        assert!(
            mv.iter()
                .any(|&(l, r)| space.string(l) == "unique" && space.string(r) == "7"),
            "majority voting keeps the unique pair"
        );
    }

    /// Tables over six lefts and six rights as `(left, right)` digit
    /// pairs, with `r0 ≡ r1` and `l0 ≡ l1` declared synonymous: small
    /// enough that intra-table conflicting lefts, equal conflict counts
    /// (with equal and unequal table sizes) and single-vote ties are the
    /// common case.
    fn digit_setup(tables: &[Vec<(u8, u8)>]) -> (std::sync::Arc<ValueSpace>, Vec<NormBinary>) {
        let mut dict = SynonymDict::new();
        dict.declare("r0", "r1");
        dict.declare("l0", "l1");
        let named: Vec<Vec<(String, String)>> = tables
            .iter()
            .map(|rows| {
                rows.iter()
                    .map(|&(l, r)| (format!("l{l}"), format!("r{r}")))
                    .collect()
            })
            .collect();
        setup_dict(
            named
                .iter()
                .map(|rows| rows.iter().map(|(l, r)| (l.as_str(), r.as_str())).collect())
                .collect(),
            dict,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The build-once index removes the tables the per-iteration
        /// rebuild removed, in the same order, with the same stats.
        #[test]
        fn prop_maintained_index_matches_rebuild(
            tables in proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u8..6), 1..8), 1..10),
            mask in 1u16..1024,
        ) {
            let (space, t) = digit_setup(&tables);
            let group: Vec<u32> = (0..t.len() as u32).filter(|i| mask >> i & 1 == 1).collect();
            prop_assert_eq!(
                resolve_conflicts(&space, &t, &group),
                resolve_conflicts_rebuild(&space, &t, &group)
            );
        }

        /// Every table maps every left to its own right (`r1` up, clear
        /// of the `r0 ≡ r1` class): all but one table must go, in the
        /// oracle's order.
        #[test]
        fn prop_all_conflict_group_matches_rebuild(
            sizes in proptest::collection::vec(1u8..6, 2..6),
        ) {
            let tables: Vec<Vec<(u8, u8)>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &lefts)| (0..lefts).map(|l| (l, i as u8 + 1)).collect())
                .collect();
            let (space, t) = digit_setup(&tables);
            let group: Vec<u32> = (0..t.len() as u32).collect();
            let got = resolve_conflicts(&space, &t, &group);
            prop_assert_eq!(got.clone(), resolve_conflicts_rebuild(&space, &t, &group));
            prop_assert_eq!(got.0.len(), 1);
        }

        /// Run-length votes pick the winners the nested maps picked —
        /// most groups here tie on votes, so the smallest member string
        /// (of a synonym class: across its members) decides.
        #[test]
        fn prop_sorted_run_votes_match_maps(
            tables in proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u8..6), 1..6), 1..8),
        ) {
            let (space, t) = digit_setup(&tables);
            let group: Vec<u32> = (0..t.len() as u32).collect();
            prop_assert_eq!(
                resolve_majority_vote(&space, &t, &group),
                resolve_majority_vote_maps(&space, &t, &group)
            );
        }
    }
}
