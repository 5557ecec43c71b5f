//! End-to-end synthesis pipeline (paper Figure 1).
//!
//! `corpus → candidate extraction → value space → compatibility graph
//! → greedy partitioning → conflict resolution → synthesized mappings`
//! with per-stage wall-clock timings (the measurements behind the
//! paper's Figures 8 and 9).
//!
//! The engine is [`crate::session::SynthesisSession`] (re-exported
//! here): [`SynthesisSession::run`] is the one-shot entry, and callers
//! running many configurations share its stage artifacts.

pub use crate::session::{
    ExtractionArtifact, ScoreArtifact, SessionRun, SynthesisSession, ValueArtifact,
};

use crate::config::SynthesisConfig;
use crate::synth::SynthesizedMapping;
use mapsynth_extract::{ExtractionConfig, ExtractionStats};
use std::time::Duration;

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Step-1 extraction parameters.
    pub extraction: ExtractionConfig,
    /// Step-2/3 synthesis parameters.
    pub synthesis: SynthesisConfig,
    /// Worker threads (0 = auto).
    pub workers: usize,
    /// Garbage fraction (tombstoned values or candidates over totals)
    /// above which [`SynthesisSession::compaction_due`] reports that a
    /// [`SynthesisSession::compact`] pass would pay off.
    pub compact_threshold: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            extraction: ExtractionConfig::default(),
            synthesis: SynthesisConfig::default(),
            workers: 0,
            compact_threshold: 0.5,
        }
    }
}

/// Wall-clock duration of each stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Candidate extraction (Step 1).
    pub extraction: Duration,
    /// Value-space construction (normalization, synonym folding).
    pub value_space: Duration,
    /// Blocking + pairwise scoring + graph construction.
    pub graph: Duration,
    /// Greedy partitioning (Algorithm 3).
    pub partition: Duration,
    /// Conflict resolution + union (Step 3).
    pub conflict: Duration,
    /// Whole pipeline.
    pub total: Duration,
}

/// Everything a pipeline run produces.
pub struct PipelineOutput {
    /// Synthesized mappings, curation-ranked (most popular first).
    pub mappings: Vec<SynthesizedMapping>,
    /// Extraction counters.
    pub extraction: ExtractionStats,
    /// Candidate tables surviving extraction + normalization.
    pub candidates: usize,
    /// Edges in the compatibility graph.
    pub edges: usize,
    /// Hard negative edges.
    pub negative_edges: usize,
    /// Partitions before filtering (including singletons).
    pub partitions: usize,
    /// Stage timings.
    pub timings: StageTimings,
}

/// How synthesized partitions are cleaned before union (paper §5.6
/// comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolver {
    /// The paper's Algorithm 4: greedily drop whole conflicting tables.
    Algorithm4,
    /// Per-left majority voting over value pairs.
    MajorityVote,
    /// No conflict resolution.
    None,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth_corpus::Corpus;

    /// Hand-built corpus: two conflicting code standards plus noise.
    fn two_standard_corpus() -> Corpus {
        let mut corpus = Corpus::new();
        // ISO-style tables across several domains.
        let iso_rows: Vec<(&str, &str)> = vec![
            ("Afghanistan", "AFG"),
            ("Albania", "ALB"),
            ("Algeria", "DZA"),
            ("Germany", "DEU"),
            ("Netherlands", "NLD"),
            ("Greece", "GRC"),
        ];
        let ioc_rows: Vec<(&str, &str)> = vec![
            ("Afghanistan", "AFG"),
            ("Albania", "ALB"),
            ("Algeria", "ALG"),
            ("Germany", "GER"),
            ("Netherlands", "NED"),
            ("Greece", "GRE"),
        ];
        for i in 0..6 {
            let d = corpus.domain(&format!("iso-{i}.org"));
            let (l, r): (Vec<&str>, Vec<&str>) = iso_rows.iter().cloned().unzip();
            corpus.push_table(d, vec![(Some("country"), l), (Some("code"), r)]);
        }
        for i in 0..5 {
            let d = corpus.domain(&format!("ioc-{i}.org"));
            let (l, r): (Vec<&str>, Vec<&str>) = ioc_rows.iter().cloned().unzip();
            corpus.push_table(d, vec![(Some("country"), l), (Some("code"), r)]);
        }
        corpus
    }

    #[test]
    fn pipeline_separates_conflicting_standards() {
        let corpus = two_standard_corpus();
        let out = SynthesisSession::new(PipelineConfig::default()).run(&corpus);
        assert!(out.negative_edges > 0, "standards must conflict");
        // Find the mappings containing Germany.
        let deu: Vec<&SynthesizedMapping> = out
            .mappings
            .iter()
            .filter(|m| m.pair_strs().any(|(l, _)| l == "germany"))
            .collect();
        assert!(deu.len() >= 2, "ISO and IOC must stay separate");
        let codes: std::collections::HashSet<&str> = deu
            .iter()
            .flat_map(|m| m.pair_strs())
            .filter(|(l, _)| *l == "germany")
            .map(|(_, r)| r)
            .collect();
        assert!(codes.contains("deu") && codes.contains("ger"));
        // But no single mapping may contain both.
        for m in &deu {
            let rights: Vec<&str> = m
                .pair_strs()
                .filter(|(l, _)| *l == "germany")
                .map(|(_, r)| r)
                .collect();
            assert_eq!(
                rights.len(),
                1,
                "mixed standards in one mapping: {rights:?}"
            );
        }
    }

    #[test]
    fn without_negative_merges_standards() {
        // The SynthesisPos ablation: same corpus, negatives off — the
        // two standards collapse into one conflicted mapping. Conflict
        // resolution is also disabled to observe the raw merge.
        let corpus = two_standard_corpus();
        let mut cfg = PipelineConfig::default();
        cfg.synthesis.use_negative = false;
        cfg.synthesis.resolve_conflicts = false;
        // Lower θ_edge so the cross-standard overlap (2/6) forms an
        // edge — the point is that nothing except negatives stops the
        // merge.
        cfg.synthesis.theta_edge = 0.3;
        let out = SynthesisSession::new(cfg).run(&corpus);
        let germany_mappings: Vec<&SynthesizedMapping> = out
            .mappings
            .iter()
            .filter(|m| m.pair_strs().any(|(l, _)| l == "germany"))
            .collect();
        assert_eq!(
            germany_mappings.len(),
            1,
            "everything merges without negatives"
        );
        assert!(germany_mappings[0].conflicting_lefts() > 0);
    }

    #[test]
    fn timings_and_counters_populated() {
        let corpus = two_standard_corpus();
        let out = SynthesisSession::new(PipelineConfig::default()).run(&corpus);
        assert!(out.candidates >= 11, "both orientations per table");
        assert!(out.edges > 0);
        assert!(out.timings.total >= out.timings.partition);
        assert!(out.partitions >= 2);
    }

    #[test]
    fn mappings_ranked_by_popularity() {
        let corpus = two_standard_corpus();
        let out = SynthesisSession::new(PipelineConfig::default()).run(&corpus);
        for w in out.mappings.windows(2) {
            assert!(
                w[0].domains >= w[1].domains,
                "curation rank must be by domains desc"
            );
        }
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use mapsynth_corpus::Corpus;

    #[test]
    fn empty_corpus_produces_nothing() {
        let corpus = Corpus::new();
        let out = SynthesisSession::new(PipelineConfig::default()).run(&corpus);
        assert!(out.mappings.is_empty());
        assert_eq!(out.candidates, 0);
        assert_eq!(out.edges, 0);
    }

    #[test]
    fn single_table_corpus_yields_single_table_mappings() {
        let mut corpus = Corpus::new();
        let d = corpus.domain("solo.org");
        corpus.push_table(
            d,
            vec![
                (Some("name"), vec!["a", "b", "c", "d", "e"]),
                (Some("code"), vec!["1", "2", "3", "4", "5"]),
            ],
        );
        let out = SynthesisSession::new(PipelineConfig::default()).run(&corpus);
        // Both orientations, no merging possible.
        assert_eq!(out.edges, 0);
        for m in &out.mappings {
            assert_eq!(m.source_tables, 1);
            assert_eq!(m.conflicting_lefts(), 0);
        }
    }

    #[test]
    fn corpus_of_identical_columns_is_harmless() {
        // Left == right column values (identity mapping): FD holds,
        // nothing crashes, output is the identity pairs.
        let mut corpus = Corpus::new();
        let d = corpus.domain("x");
        for _ in 0..3 {
            corpus.push_table(
                d,
                vec![
                    (Some("a"), vec!["p", "q", "r", "s"]),
                    (Some("b"), vec!["p", "q", "r", "s"]),
                ],
            );
        }
        let out = SynthesisSession::new(PipelineConfig::default()).run(&corpus);
        assert!(out
            .mappings
            .iter()
            .all(|m| m.pair_strs().all(|(l, r)| l == r)));
    }
}
