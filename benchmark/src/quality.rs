//! `quality_f1`: the paper's §5.1 score, computed by the benchmark
//! itself. For every benchmark case of the registry (the first
//! [`MAX_CASES`], as the evaluation harness takes them) the ground
//! truth is the case's synonym cross-product restricted to pairs that
//! are canonical or that some generated table attests; the case scores
//! the F-measure of the synthesized mapping that fits it best; the
//! metric is the mean over cases. A self-test proves it equal to
//! `mapsynth_eval`'s scorer.

use mapsynth::SynthesizedMapping;
use mapsynth_gen::Registry;
use mapsynth_text::normalize;
use std::collections::{HashMap, HashSet};

pub const MAX_CASES: usize = 80;

pub fn quality_f1(
    registry: &Registry,
    attested: &HashSet<(String, String)>,
    mappings: &[SynthesizedMapping],
) -> f64 {
    // Pair → mappings asserting it, so a case only visits mappings
    // that share a pair with it.
    let mut asserting: HashMap<(&str, &str), Vec<u32>> = HashMap::new();
    for (mi, m) in mappings.iter().enumerate() {
        for pair in m.pair_strs() {
            asserting.entry(pair).or_default().push(mi as u32);
        }
    }
    let mut total = 0.0;
    let mut cases = 0usize;
    for relation in registry.benchmark_cases().take(MAX_CASES) {
        let canonical: HashSet<(String, String)> = relation
            .entries
            .iter()
            .map(|e| (normalize(&e.left[0]), normalize(&e.right[0])))
            .collect();
        let truth: Vec<(String, String)> = relation
            .ground_truth_pairs()
            .into_iter()
            .filter(|p| canonical.contains(p) || attested.contains(p))
            .collect();
        let mut hits: HashMap<u32, usize> = HashMap::new();
        for (l, r) in &truth {
            for &mi in asserting
                .get(&(l.as_str(), r.as_str()))
                .into_iter()
                .flatten()
            {
                *hits.entry(mi).or_default() += 1;
            }
        }
        let best = hits
            .into_iter()
            .map(|(mi, h)| {
                let precision = h as f64 / mappings[mi as usize].len() as f64;
                let recall = h as f64 / truth.len() as f64;
                2.0 * precision * recall / (precision + recall)
            })
            .fold(0.0, f64::max);
        total += best;
        cases += 1;
    }
    if cases == 0 {
        0.0
    } else {
        total / cases as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::web_corpus;
    use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
    use mapsynth_baselines::RelationResult;
    use mapsynth_eval::benchmark::web_benchmark_attested;
    use mapsynth_eval::metrics::{mean_score, ResultScorer, Score};

    #[test]
    fn equals_the_evaluation_harness_on_300_tables() {
        let web = web_corpus(300, 42);
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&web.corpus);
        let run = session.synthesize(&session.config().synthesis, Resolver::Algorithm4);
        assert!(run.mappings.len() > 10);

        let results: Vec<RelationResult> = run
            .mappings
            .iter()
            .map(|m| RelationResult {
                pairs: m.materialize_pairs(),
            })
            .collect();
        let scorer = ResultScorer::new(&results);
        let scores: Vec<Score> = web_benchmark_attested(&web.registry, &web.attested, MAX_CASES)
            .iter()
            .map(|case| scorer.best_for(&case.gt).0)
            .collect();
        let reference = mean_score(&scores).f;

        let ours = quality_f1(&web.registry, &web.attested, &run.mappings);
        assert!(reference > 0.1, "reference score {reference}");
        assert!(
            (ours - reference).abs() < 1e-12,
            "benchmark {ours} vs eval {reference}"
        );
    }
}
