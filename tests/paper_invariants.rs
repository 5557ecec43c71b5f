//! Workspace integration test: the paper's qualitative claims hold as
//! invariants of the implementation.

use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth::SynthesisConfig;
use mapsynth_eval::{web_benchmark_attested, PreparedWeb, ResultScorer};
use mapsynth_gen::procedural::ProceduralConfig;
use mapsynth_gen::{generate_enterprise, generate_web, EnterpriseConfig, WebConfig};

fn prepared() -> PreparedWeb {
    let wc = generate_web(&WebConfig {
        tables: 1200,
        domains: 100,
        procedural: ProceduralConfig {
            families: 10,
            temporal_families: 1,
            ..Default::default()
        },
        ..Default::default()
    });
    PreparedWeb::prepare(wc, 0.5, 0)
}

#[test]
fn conflicting_standards_never_share_a_mapping() {
    // ISO vs IOC for countries whose codes differ (Figure 2): after
    // conflict resolution, no multi-table mapping may assert two
    // *non-synonymous* rights for the same left. (Synonymous rights are
    // legitimate — Table 6; single tables keep their θ-approximate
    // ambiguity like Portland → Oregon/Maine by design.)
    let p = prepared();
    // Same feed construction as PreparedWeb::prepare (seed 11).
    let feed = p.registry.partial_synonym_feed(0.5, 11);
    let mappings = p.synthesize(&SynthesisConfig::default(), Resolver::Algorithm4);
    for m in &mappings {
        if m.source_tables < 2 {
            continue;
        }
        let mut by_left: std::collections::HashMap<&str, Vec<&str>> =
            std::collections::HashMap::new();
        for (l, r) in m.pair_strs() {
            by_left.entry(l).or_default().push(r);
        }
        for (l, rights) in by_left {
            for w in rights.windows(2) {
                assert!(
                    feed.are_synonyms(w[0], w[1]),
                    "mapping ({} tables) asserts non-synonymous rights {:?} for left {l:?}",
                    m.source_tables,
                    w
                );
            }
        }
    }
}

#[test]
fn negative_evidence_improves_confusable_cases() {
    // §5.2: SynthesisPos suffers on relations that share lefts with a
    // sibling code standard.
    let p = prepared();
    let cases = web_benchmark_attested(&p.registry, &p.emitted_pairs, 80);
    let cfg = SynthesisConfig {
        theta_edge: 0.5,
        ..Default::default()
    };
    let with_neg = p.run_synthesis(&cfg, Resolver::Algorithm4);
    let without = p.run_synthesis(&cfg.without_negative(), Resolver::Algorithm4);
    let mean_f = |results: &[mapsynth_baselines::RelationResult]| {
        let scorer = ResultScorer::new(results);
        cases
            .iter()
            .map(|c| scorer.best_for(&c.gt).0.f)
            .sum::<f64>()
            / cases.len() as f64
    };
    let f_neg = mean_f(&with_neg);
    let f_pos = mean_f(&without);
    assert!(
        f_neg >= f_pos,
        "negatives must not hurt: with={f_neg:.3} without={f_pos:.3}"
    );
}

#[test]
fn conflict_resolution_raises_precision_without_large_recall_cost() {
    // §5.6 shape: precision up, recall roughly flat.
    let p = prepared();
    let cases = web_benchmark_attested(&p.registry, &p.emitted_pairs, 80);
    let cfg = SynthesisConfig {
        theta_edge: 0.5,
        ..Default::default()
    };
    let resolved = p.run_synthesis(&cfg, Resolver::Algorithm4);
    let raw = p.run_synthesis(&cfg, Resolver::None);
    let mean = |results: &[mapsynth_baselines::RelationResult]| {
        let scorer = ResultScorer::new(results);
        let s: Vec<_> = cases.iter().map(|c| scorer.best_for(&c.gt).0).collect();
        (
            s.iter().map(|x| x.precision).sum::<f64>() / s.len() as f64,
            s.iter().map(|x| x.recall).sum::<f64>() / s.len() as f64,
        )
    };
    let (p_res, r_res) = mean(&resolved);
    let (p_raw, r_raw) = mean(&raw);
    assert!(
        p_res >= p_raw,
        "resolution must not lower precision: {p_res:.3} vs {p_raw:.3}"
    );
    assert!(
        r_res >= r_raw - 0.05,
        "resolution must not cost much recall: {r_res:.3} vs {r_raw:.3}"
    );
}

#[test]
fn enterprise_corpus_synthesizes_high_precision_mappings() {
    // §5.5 shape: enterprise synthesis has high precision relative
    // recall; rich mappings exist with zero KB coverage.
    let ec = generate_enterprise(&EnterpriseConfig {
        tables: 800,
        families: 20,
        ..Default::default()
    });
    let out = SynthesisSession::new(PipelineConfig::default()).run(&ec.corpus);
    assert!(out.mappings.len() > 20);
    // Multi-table clusters must exist (synthesis happened).
    assert!(out.mappings.iter().any(|m| m.source_tables >= 5));
    // No conflicts after resolution.
    for m in out.mappings.iter().take(50) {
        assert_eq!(m.conflicting_lefts(), 0);
    }
}
