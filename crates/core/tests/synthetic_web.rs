//! End-to-end integration test: synthesize mappings from a generated
//! web corpus and check quality against the generator's ground truth.

use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_gen::procedural::ProceduralConfig;
use mapsynth_gen::{generate_web, WebConfig};
use std::collections::HashSet;

fn web_config(tables: usize) -> WebConfig {
    WebConfig {
        tables,
        domains: 120,
        procedural: ProceduralConfig {
            families: 15,
            temporal_families: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Best F-score over all synthesized mappings for one ground truth set.
fn best_f(
    mappings: &[mapsynth::SynthesizedMapping],
    gt: &HashSet<(String, String)>,
) -> (f64, f64, f64) {
    let mut best = (0.0, 0.0, 0.0);
    for m in mappings {
        if m.is_empty() {
            continue;
        }
        let hits = m
            .pair_strs()
            .filter(|&(l, r)| gt.contains(&(l.to_string(), r.to_string())))
            .count();
        if hits == 0 {
            continue;
        }
        let p = hits as f64 / m.len() as f64;
        let r = hits as f64 / gt.len() as f64;
        let f = 2.0 * p * r / (p + r);
        if f > best.0 {
            best = (f, p, r);
        }
    }
    best
}

#[test]
fn synthesis_quality_on_generated_corpus() {
    let wc = generate_web(&web_config(1500));
    let mut session = SynthesisSession::new(PipelineConfig::default());
    let start = std::time::Instant::now();
    let out = session.run(&wc.corpus);
    let elapsed = start.elapsed();

    eprintln!(
        "tables={} candidates={} edges={} (neg {}) partitions={} mappings={} in {:?}",
        wc.corpus.len(),
        out.candidates,
        out.edges,
        out.negative_edges,
        out.partitions,
        out.mappings.len(),
        elapsed
    );
    eprintln!(
        "timings: extract={:?} values={:?} graph={:?} partition={:?} conflict={:?}",
        out.timings.extraction,
        out.timings.value_space,
        out.timings.graph,
        out.timings.partition,
        out.timings.conflict
    );

    // Quality on a few popular benchmark relations.
    let mut scored = Vec::new();
    for name in [
        "country->iso3",
        "country->capital",
        "state->abbr",
        "company->ticker",
        "element->symbol",
        "city->state",
    ] {
        let rel = wc.registry.get(name).expect(name);
        let gt = rel.ground_truth_pairs();
        let (f, p, r) = best_f(&out.mappings, &gt);
        eprintln!("{name}: F={f:.3} P={p:.3} R={r:.3} (gt={} pairs)", gt.len());
        scored.push((name, f, p, r));
    }
    let mean_f = scored.iter().map(|s| s.1).sum::<f64>() / scored.len() as f64;
    eprintln!("mean F over popular cases: {mean_f:.3}");
    assert!(
        mean_f > 0.5,
        "synthesis quality collapsed: mean F = {mean_f:.3}, details: {scored:?}"
    );

    // Negative evidence must be in play on this corpus (ISO vs IOC vs
    // FIFA all share country names).
    assert!(out.negative_edges > 0);
}
