//! The compatibility graph `G = (B, E)` (paper §4.2).
//!
//! Vertices are candidate tables; edges carry positive and negative
//! weights. Construction takes the scored blocked candidate pairs and
//! keeps an edge only if its positive weight clears `θ_edge` or its
//! negative weight breaches the hard-constraint threshold `τ`.

use crate::blocking::BlockingStats;
use crate::config::SynthesisConfig;

/// Edge weights.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeWeights {
    /// Positive compatibility `w⁺ ∈ [0, 1]` (0 if below `θ_edge`).
    pub pos: f64,
    /// Negative incompatibility `w⁻ ∈ [-1, 0]` (0 if above `τ`).
    pub neg: f64,
}

/// The compatibility graph: `n` vertices (indices into the
/// `NormBinary` slice) and a sorted, deduplicated edge list with
/// `a < b`.
#[derive(Clone, Debug)]
pub struct CompatGraph {
    /// Vertex count.
    pub n: usize,
    /// Edges `(a, b, weights)` with `a < b`, sorted. Fixed at
    /// construction — the sign counts below are computed once from
    /// them, not re-scanned per query.
    pub edges: Vec<(u32, u32, EdgeWeights)>,
    /// Blocking statistics (for the scalability experiments).
    pub blocking: BlockingStats,
    /// Edges with `neg < 0`, counted at construction.
    negative_edge_count: usize,
    /// Edges with `pos > 0`, counted at construction.
    positive_edge_count: usize,
}

impl CompatGraph {
    /// Build a graph from an edge list, counting edge signs once.
    pub fn new(n: usize, edges: Vec<(u32, u32, EdgeWeights)>, blocking: BlockingStats) -> Self {
        let negative_edge_count = edges.iter().filter(|(_, _, w)| w.neg < 0.0).count();
        let positive_edge_count = edges.iter().filter(|(_, _, w)| w.pos > 0.0).count();
        Self {
            n,
            edges,
            blocking,
            negative_edge_count,
            positive_edge_count,
        }
    }

    /// Number of edges with a hard negative constraint.
    pub fn negative_edges(&self) -> usize {
        self.negative_edge_count
    }

    /// Number of edges with positive weight.
    pub fn positive_edges(&self) -> usize {
        self.positive_edge_count
    }
}

/// Build the graph from pre-scored pairs (evaluation harnesses share
/// one scoring pass across Synthesis and the schema-matching
/// baselines, which use the same signals).
pub fn graph_from_scores(
    n: usize,
    scored: &[(u32, u32, crate::compat::PairWeights)],
    cfg: &SynthesisConfig,
) -> CompatGraph {
    let edges: Vec<(u32, u32, EdgeWeights)> = scored
        .iter()
        .filter_map(|&(a, b, w)| {
            let pos = if w.pos >= cfg.theta_edge { w.pos } else { 0.0 };
            let neg = if cfg.use_negative && w.neg < cfg.tau {
                w.neg
            } else {
                0.0
            };
            (pos > 0.0 || neg < 0.0).then_some((a, b, EdgeWeights { pos, neg }))
        })
        .collect();
    CompatGraph::new(n, edges, Default::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::candidate_pairs;
    use crate::compat::ScoringContext;
    use crate::pipeline::{PipelineConfig, SynthesisSession};
    use crate::values::{build_value_space, NormBinary, ValueSpace};
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

    /// Block and score `tables`, then filter: the session's graph
    /// stage over hand-built candidates.
    fn scored_graph(
        space: &ValueSpace,
        tables: &[NormBinary],
        cfg: &SynthesisConfig,
        mr: &MapReduce,
    ) -> CompatGraph {
        let (pairs, _) = candidate_pairs(space, tables, cfg, mr);
        let ctx = ScoringContext::build(space, tables, cfg, mr);
        let scored = mr.par_map(&pairs, |&(a, b)| (a, b, ctx.score_pair(space, a, b)));
        graph_from_scores(tables.len(), &scored, cfg)
    }

    #[test]
    fn graph_keeps_strong_pos_and_hard_neg() {
        let (space, t) = setup(vec![
            // 0 and 1: identical → pos 1.0
            vec![("a", "1"), ("b", "2"), ("c", "3")],
            vec![("a", "1"), ("b", "2"), ("c", "3")],
            // 2: conflicts with both on every row → hard negative
            vec![("a", "9"), ("b", "8"), ("c", "7")],
            // 3: weak overlap with 0 (2/4 = 0.5 < θ_edge) → filtered
            vec![("a", "1"), ("b", "2"), ("x", "5"), ("y", "6")],
        ]);
        let g = scored_graph(&space, &t, &SynthesisConfig::default(), &MapReduce::new(2));
        assert_eq!(g.n, 4);
        let find = |a: u32, b: u32| g.edges.iter().find(|&&(x, y, _)| (x, y) == (a, b));
        let e01 = find(0, 1).expect("identical tables edge");
        assert_eq!(e01.2.pos, 1.0);
        let e02 = find(0, 2).expect("conflict edge");
        assert!(e02.2.neg <= -0.9);
        // weak edge filtered: (0,3) pos = max(2/3, 2/4) = 0.67 < 0.85, no conflicts
        assert!(find(0, 3).is_none());
        // hard negatives: (0,2), (1,2), and (2,3) — table 3 also
        // conflicts with 2 on lefts a and b.
        assert_eq!(g.negative_edges(), 3);
    }

    #[test]
    fn without_negative_drops_hard_constraints() {
        let (space, t) = setup(vec![
            vec![("a", "1"), ("b", "2"), ("c", "3")],
            vec![("a", "9"), ("b", "8"), ("c", "7")],
        ]);
        let g = scored_graph(
            &space,
            &t,
            &SynthesisConfig::default().without_negative(),
            &MapReduce::new(1),
        );
        assert_eq!(g.edges.len(), 0);
    }

    /// The session's graph is the same for any worker count.
    #[test]
    fn deterministic_across_workers() {
        let mut corpus = Corpus::new();
        for i in 0..6 {
            let d = corpus.domain(&format!("site-{i}.org"));
            let last = if i % 2 == 0 { ("f", "6") } else { ("g", "7") };
            let rows = [
                ("a", "1"),
                ("b", "2"),
                ("c", "3"),
                ("d", "4"),
                ("e", "5"),
                last,
            ];
            let (l, r): (Vec<&str>, Vec<&str>) = rows.iter().cloned().unzip();
            corpus.push_table(d, vec![(Some("name"), l), (Some("code"), r)]);
        }
        let graph_with = |workers: usize| {
            let mut session = SynthesisSession::new(PipelineConfig {
                workers,
                ..Default::default()
            });
            session.prepare(&corpus);
            session.graph(&SynthesisConfig::default())
        };
        let g1 = graph_with(1);
        let g8 = graph_with(8);
        assert!(!g1.edges.is_empty());
        assert_eq!(g1.edges.len(), g8.edges.len());
        for (a, b) in g1.edges.iter().zip(&g8.edges) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert_eq!(a.2, b.2);
        }
    }
}
