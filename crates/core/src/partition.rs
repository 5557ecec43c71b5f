//! Greedy table-synthesis partitioning — the paper's Algorithm 3.
//!
//! Table synthesis (Problem 11) maximizes the sum of intra-partition
//! positive weights subject to *no hard negative edge inside any
//! partition*. The problem is NP-hard (Theorem 13, reduction from
//! multiway cut), and the O(log N) LP-rounding approximation is
//! impractical at corpus scale, so the paper uses a greedy
//! agglomerative heuristic:
//!
//! * start with singleton partitions;
//! * repeatedly merge the pair of partitions with the largest positive
//!   weight among pairs whose negative weight is not a hard constraint
//!   (`w⁻ ≥ τ`);
//! * on merge, positive weights to other partitions add up and negative
//!   weights take the minimum (most conflicting member pair governs);
//! * stop when no mergeable pair remains.
//!
//! Implemented with a lazily-invalidated max-heap over per-partition
//! adjacency maps. A popped entry `(pos, a, b)` is **valid iff both
//! roots are alive, `pos` equals the current positive weight of the
//! edge `a–b`, and that edge is still mergeable** — a function of the
//! current graph only. Every mergeable edge has an entry carrying its
//! current weight (pushed at the start, or by the merge that last
//! changed it), so the first valid entry popped is the maximum
//! mergeable edge under the `(pos, smaller a, smaller b)` order,
//! whatever stale entries sit beside it; a stale entry that happens to
//! match the current weight again *is* that edge. (Weights only grow,
//! so a stale entry in fact pops after its edge's current one, whose
//! merge killed a root; comparing weights makes validity hold without
//! leaning on that.) A merge therefore pushes entries only for the
//! edges it changed — the absorbed root's neighbours — and costs
//! `O(min(deg a, deg b))` map updates and heap pushes, so a run costs
//! `O((E + Σ_merges min-degree) · log E)`; the survivor's adjacency is
//! never rescanned.
//!
//! The divide-and-conquer variant ([`partition_by_components`]) first
//! splits the graph into positively-connected components (Appendix F;
//! union-find computes the components the paper's Hash-to-Min rounds
//! do) and partitions each independently — identical results,
//! with the non-trivial components scheduled largest first.

use crate::config::SynthesisConfig;
use crate::graph::{CompatGraph, EdgeWeights};
use mapsynth_mapreduce::{connected_components_union_find, IdHashMap, MapReduce};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};

/// A disjoint partitioning of graph vertices. Groups are sorted
/// internally and by first member; singletons included.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partitioning {
    /// Vertex groups.
    pub groups: Vec<Vec<u32>>,
}

impl Partitioning {
    /// Total objective value: sum of intra-partition positive edge
    /// weights (Equation 5) for a given graph.
    pub fn objective(&self, graph: &CompatGraph) -> f64 {
        let mut part_of: HashMap<u32, usize> = HashMap::new();
        for (gi, g) in self.groups.iter().enumerate() {
            for &v in g {
                part_of.insert(v, gi);
            }
        }
        graph
            .edges
            .iter()
            .filter(|&&(a, b, _)| part_of.get(&a) == part_of.get(&b))
            .map(|&(_, _, w)| w.pos)
            .sum()
    }

    /// Whether the partitioning violates any hard negative constraint.
    pub fn violates_constraints(&self, graph: &CompatGraph, tau: f64) -> bool {
        let mut part_of: HashMap<u32, usize> = HashMap::new();
        for (gi, g) in self.groups.iter().enumerate() {
            for &v in g {
                part_of.insert(v, gi);
            }
        }
        graph
            .edges
            .iter()
            .any(|&(a, b, w)| w.neg < tau && part_of.get(&a) == part_of.get(&b))
    }
}

/// Heap entry ordered by positive weight, tie-broken by vertex ids for
/// determinism.
struct MergeCandidate {
    pos: f64,
    a: u32,
    b: u32,
}

impl PartialEq for MergeCandidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeCandidate {}
impl PartialOrd for MergeCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeCandidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.pos
            .total_cmp(&other.pos)
            .then_with(|| other.a.cmp(&self.a)) // smaller ids first on tie
            .then_with(|| other.b.cmp(&self.b))
    }
}

/// Run Algorithm 3 on the whole graph.
pub fn greedy_partition(graph: &CompatGraph, cfg: &SynthesisConfig) -> Partitioning {
    Partitioning {
        groups: greedy_groups(graph.n, &graph.edges, cfg.tau),
    }
}

/// Algorithm 3 over `n` vertices and `edges` (`a < b`): the groups,
/// each sorted, ordered by first member.
fn greedy_groups(n: usize, edges: &[(u32, u32, EdgeWeights)], tau: f64) -> Vec<Vec<u32>> {
    // Per-partition adjacency: root vertex → (neighbor root → (pos, neg)).
    let mut adj: Vec<IdHashMap<u32, (f64, f64)>> = vec![IdHashMap::default(); n];
    let mut heap: BinaryHeap<MergeCandidate> = BinaryHeap::new();
    for &(a, b, w) in edges {
        adj[a as usize].insert(b, (w.pos, w.neg));
        adj[b as usize].insert(a, (w.pos, w.neg));
        if w.pos > 0.0 && w.neg >= tau {
            heap.push(MergeCandidate { pos: w.pos, a, b });
        }
    }
    let mut members: Vec<Vec<u32>> = (0..n as u32).map(|v| vec![v]).collect();
    let mut alive: Vec<bool> = vec![true; n];

    while let Some(cand) = heap.pop() {
        let (a, b) = (cand.a as usize, cand.b as usize);
        // Lazy invalidation: a dead root, or a weight since changed.
        if !alive[a] || !alive[b] {
            continue;
        }
        let Some(&(pos, neg)) = adj[a].get(&cand.b) else {
            continue;
        };
        if pos != cand.pos || neg < tau {
            continue;
        }

        // Merge the smaller adjacency into the larger (keep = larger).
        let (keep, gone) = if adj[a].len() >= adj[b].len() {
            (a, b)
        } else {
            (b, a)
        };
        alive[gone] = false;
        let moved_members = std::mem::take(&mut members[gone]);
        members[keep].extend(moved_members);
        let gone_adj = std::mem::take(&mut adj[gone]);
        adj[keep].remove(&(gone as u32));
        for (nb, (p2, n2)) in gone_adj {
            if nb as usize == keep {
                continue;
            }
            let merged = {
                let entry = adj[keep].entry(nb).or_insert((0.0, 0.0));
                entry.0 += p2;
                entry.1 = entry.1.min(n2);
                *entry
            };
            // Fix the neighbor's back-pointers.
            let nb_adj = &mut adj[nb as usize];
            nb_adj.remove(&(gone as u32));
            nb_adj.insert(keep as u32, merged);
            // The one edge of `keep` this step changed.
            if merged.0 > 0.0 && merged.1 >= tau {
                heap.push(MergeCandidate {
                    pos: merged.0,
                    a: (keep as u32).min(nb),
                    b: (keep as u32).max(nb),
                });
            }
        }
    }

    let mut groups: Vec<Vec<u32>> = (0..n)
        .filter(|&v| alive[v])
        .map(|v| {
            let mut g = std::mem::take(&mut members[v]);
            g.sort_unstable();
            g
        })
        .collect();
    groups.sort_by_key(|g| g[0]);
    groups
}

/// Divide-and-conquer variant (paper Appendix F): split into
/// positively-connected components, partition each independently in
/// parallel. Produces the same partitioning as [`greedy_partition`]
/// because merges never cross positive components.
pub fn partition_by_components(
    graph: &CompatGraph,
    cfg: &SynthesisConfig,
    mr: &MapReduce,
) -> Partitioning {
    // Components over positive edges only.
    let pos_edges: Vec<(u32, u32)> = graph
        .edges
        .iter()
        .filter(|(_, _, w)| w.pos > 0.0)
        .map(|&(a, b, _)| (a, b))
        .collect();
    let components = connected_components_union_find(graph.n, &pos_edges);

    // Vertex → its component, and its index within it (components are
    // sorted, so local order is global order and `a < b` survives).
    let mut comp_of: Vec<u32> = vec![0; graph.n];
    let mut local_of: Vec<u32> = vec![0; graph.n];
    for (ci, comp) in components.iter().enumerate() {
        for (li, &v) in comp.iter().enumerate() {
            comp_of[v] = ci as u32;
            local_of[v] = li as u32;
        }
    }
    let mut comp_edges: Vec<Vec<(u32, u32, EdgeWeights)>> = vec![Vec::new(); components.len()];
    for &(a, b, w) in &graph.edges {
        let (a, b) = (a as usize, b as usize);
        if comp_of[a] == comp_of[b] {
            comp_edges[comp_of[a] as usize].push((local_of[a], local_of[b], w));
        }
        // Negative edges across components can never merge anyway.
    }

    // Only non-trivial components are jobs, largest first: the union-
    // find emits components by first vertex, which says nothing about
    // their cost, and the scheduler balances best when the long jobs
    // start early.
    let mut jobs: Vec<usize> = (0..components.len())
        .filter(|&ci| components[ci].len() > 1)
        .collect();
    jobs.sort_by_key(|&ci| Reverse(comp_edges[ci].len()));
    let results: Vec<Vec<Vec<u32>>> = mr.par_map(&jobs, |&ci| {
        let comp = &components[ci];
        greedy_groups(comp.len(), &comp_edges[ci], cfg.tau)
            .into_iter()
            .map(|g| g.into_iter().map(|v| comp[v as usize] as u32).collect())
            .collect()
    });

    let mut groups: Vec<Vec<u32>> = results.into_iter().flatten().collect();
    groups.extend(
        components
            .iter()
            .filter(|comp| comp.len() == 1)
            .map(|comp| vec![comp[0] as u32]),
    );
    groups.sort_by_key(|g| g[0]);
    Partitioning { groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The predecessor of [`greedy_groups`], kept as the oracle: heap
    /// entries carry per-root versions, and every merge re-pushes the
    /// survivor's whole adjacency under its bumped version.
    fn greedy_partition_versioned(graph: &CompatGraph, cfg: &SynthesisConfig) -> Partitioning {
        let n = graph.n;
        let mut adj: Vec<HashMap<u32, (f64, f64)>> = vec![HashMap::new(); n];
        for &(a, b, w) in &graph.edges {
            adj[a as usize].insert(b, (w.pos, w.neg));
            adj[b as usize].insert(a, (w.pos, w.neg));
        }
        let mut members: Vec<Vec<u32>> = (0..n as u32).map(|v| vec![v]).collect();
        let mut alive: Vec<bool> = vec![true; n];
        let mut version: Vec<u64> = vec![0; n];

        // Versions only order entries equal in `(pos, a, b)`.
        let mut heap: BinaryHeap<(MergeCandidate, u64, u64)> = BinaryHeap::new();
        for &(a, b, w) in &graph.edges {
            if w.pos > 0.0 && w.neg >= cfg.tau {
                heap.push((MergeCandidate { pos: w.pos, a, b }, 0, 0));
            }
        }

        while let Some((cand, ver_a, ver_b)) = heap.pop() {
            let (a, b) = (cand.a as usize, cand.b as usize);
            if !alive[a] || !alive[b] || version[a] != ver_a || version[b] != ver_b {
                continue;
            }
            let Some(&(pos, neg)) = adj[a].get(&cand.b) else {
                continue;
            };
            if pos <= 0.0 || neg < cfg.tau {
                continue;
            }
            assert!((pos - cand.pos).abs() < 1e-12);

            let (keep, gone) = if adj[a].len() >= adj[b].len() {
                (a, b)
            } else {
                (b, a)
            };
            alive[gone] = false;
            version[keep] += 1;
            let moved_members = std::mem::take(&mut members[gone]);
            members[keep].extend(moved_members);
            let gone_adj = std::mem::take(&mut adj[gone]);
            adj[keep].remove(&(gone as u32));
            for (nb, (p2, n2)) in gone_adj {
                if nb as usize == keep {
                    continue;
                }
                let merged = {
                    let entry = adj[keep].entry(nb).or_insert((0.0, 0.0));
                    entry.0 += p2;
                    entry.1 = entry.1.min(n2);
                    *entry
                };
                let nb_adj = &mut adj[nb as usize];
                nb_adj.remove(&(gone as u32));
                nb_adj.insert(keep as u32, merged);
            }
            for (&nb, &(p2, n2)) in &adj[keep] {
                if p2 > 0.0 && n2 >= cfg.tau {
                    heap.push((
                        MergeCandidate {
                            pos: p2,
                            a: (keep as u32).min(nb),
                            b: (keep as u32).max(nb),
                        },
                        version[keep.min(nb as usize)],
                        version[keep.max(nb as usize)],
                    ));
                }
            }
        }

        let mut groups: Vec<Vec<u32>> = (0..n)
            .filter(|&v| alive[v])
            .map(|v| {
                let mut g = std::mem::take(&mut members[v]);
                g.sort_unstable();
                g
            })
            .collect();
        groups.sort_by_key(|g| g[0]);
        Partitioning { groups }
    }

    fn graph(n: usize, edges: Vec<(u32, u32, f64, f64)>) -> CompatGraph {
        CompatGraph::new(
            n,
            edges
                .into_iter()
                .map(|(a, b, p, ng)| (a, b, EdgeWeights { pos: p, neg: ng }))
                .collect(),
            Default::default(),
        )
    }

    fn cfg() -> SynthesisConfig {
        SynthesisConfig {
            theta_edge: 0.0,
            ..Default::default()
        }
    }

    /// Paper Figure 3 / Example 16: vertices 1,2 (ISO) and 3,4,5 (IOC)
    /// — 0-indexed here as 0,1 and 2,3,4.
    #[test]
    fn paper_example_16_figure_3() {
        let g = graph(
            5,
            vec![
                (0, 1, 0.5, 0.0),    // B1-B2
                (1, 2, 0.67, -0.7),  // B2-B3: positive but hard conflict
                (2, 4, 0.8, 0.0),    // B3-B5 (merged first)
                (3, 4, 0.7, 0.0),    // B4-B5
                (2, 3, 0.6, 0.0),    // B3-B4
                (0, 3, 0.33, -0.33), // B1-B4: weak positive, hard conflict
            ],
        );
        let p = greedy_partition(&g, &cfg());
        assert_eq!(p.groups, vec![vec![0, 1], vec![2, 3, 4]]);
    }

    #[test]
    fn respects_hard_constraints() {
        // Triangle: 0-1 strong positive, 1-2 positive, 0-2 hard
        // negative → 2 cannot join the 0-1 partition.
        let g = graph(
            3,
            vec![(0, 1, 0.9, 0.0), (1, 2, 0.8, 0.0), (0, 2, 0.0, -0.9)],
        );
        let p = greedy_partition(&g, &cfg());
        assert!(!p.violates_constraints(&g, cfg().tau));
        // 0 and 1 merge first (0.9); then {0,1}-2 inherits min neg
        // −0.9 → blocked. 2 stays alone.
        assert_eq!(p.groups, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn merge_order_affects_outcome_greedily() {
        // If 1-2 merged first (0.8 < 0.9 so it doesn't), 0 would be
        // blocked. Verify greedy picks the highest edge first.
        let g = graph(
            3,
            vec![(0, 1, 0.7, 0.0), (1, 2, 0.9, 0.0), (0, 2, 0.0, -0.9)],
        );
        let p = greedy_partition(&g, &cfg());
        assert_eq!(p.groups, vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn positive_weights_sum_on_merge() {
        // 0-1 (0.6), 0-2 (0.3), 1-2 (0.3). After merging 0-1, edge to
        // 2 sums to 0.6 and the merge proceeds → all one partition.
        let g = graph(
            3,
            vec![(0, 1, 0.6, 0.0), (0, 2, 0.3, 0.0), (1, 2, 0.3, 0.0)],
        );
        let p = greedy_partition(&g, &cfg());
        assert_eq!(p.groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn negative_min_propagates_through_merges() {
        // 2 conflicts with 1 only; after 0-1 merge, {0,1} must inherit
        // the conflict (min) and refuse 2 despite positive weight to 0.
        let g = graph(
            3,
            vec![(0, 1, 0.9, 0.0), (0, 2, 0.8, 0.0), (1, 2, 0.5, -0.9)],
        );
        let p = greedy_partition(&g, &cfg());
        assert_eq!(p.groups, vec![vec![0, 1], vec![2]]);
        assert!(!p.violates_constraints(&g, cfg().tau));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = graph(0, vec![]);
        assert!(greedy_partition(&g, &cfg()).groups.is_empty());
        let g = graph(3, vec![]);
        let p = greedy_partition(&g, &cfg());
        assert_eq!(p.groups, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn components_variant_matches_global() {
        // Two independent clusters plus a constraint inside one.
        let g = graph(
            7,
            vec![
                (0, 1, 0.9, 0.0),
                (1, 2, 0.8, 0.0),
                (0, 2, 0.0, -0.9),
                (3, 4, 0.7, 0.0),
                (4, 5, 0.6, 0.0),
                (3, 5, 0.5, 0.0),
            ],
        );
        let a = greedy_partition(&g, &cfg());
        let b = partition_by_components(&g, &cfg(), &MapReduce::new(4));
        assert_eq!(a, b);
        // vertex 6 isolated
        assert!(a.groups.contains(&vec![6]));
    }

    #[test]
    fn objective_counts_intra_partition_weight() {
        let g = graph(
            4,
            vec![
                (0, 1, 0.5, 0.0),
                (2, 3, 0.4, 0.0),
                (1, 2, 0.9, -0.9), // blocked
            ],
        );
        let p = greedy_partition(&g, &cfg());
        assert_eq!(p.groups, vec![vec![0, 1], vec![2, 3]]);
        assert!((p.objective(&g) - 0.9).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Weight validation pops in the order version validation did.
        /// Positive weights come off a five-step grid, so heap ties —
        /// and sums of merged edges that tie with untouched ones — are
        /// the common case; `pos` 0 makes negative-only edges, and
        /// `neg` sits on, just above and just below `tau`.
        #[test]
        fn prop_weight_validated_heap_matches_versioned(
            n in 1usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40, 0u8..6, 0u8..6), 0..160),
        ) {
            let cfg = cfg();
            let mut seen = std::collections::HashSet::new();
            let edges: Vec<(u32, u32, f64, f64)> = edges
                .into_iter()
                .filter_map(|(a, b, p, ng)| {
                    let (a, b) = (a.min(b), a.max(b));
                    if a == b || b as usize >= n || !seen.insert((a, b)) {
                        return None;
                    }
                    let pos = f64::from(p) * 0.125;
                    let neg = match ng {
                        0 => cfg.tau,
                        1 => cfg.tau - 1e-9,
                        2 => cfg.tau + 1e-9,
                        3 => -0.9,
                        _ => 0.0,
                    };
                    (pos > 0.0 || neg < 0.0).then_some((a, b, pos, neg))
                })
                .collect();
            let mut sorted = edges;
            sorted.sort_by_key(|&(a, b, _, _)| (a, b));
            let g = graph(n, sorted);
            let oracle = greedy_partition_versioned(&g, &cfg);
            prop_assert_eq!(&greedy_partition(&g, &cfg), &oracle);
            for workers in [1, 2, 3, 8] {
                let by_comp = partition_by_components(&g, &cfg, &MapReduce::new(workers));
                prop_assert_eq!(&by_comp, &oracle, "workers={}", workers);
            }
        }
    }
}
