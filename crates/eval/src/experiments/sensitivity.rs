//! §5.4 sensitivity analysis: θ (approximate-FD), τ (hard-conflict),
//! θ_overlap (blocking), θ_edge (positive-edge filter), and the
//! matching thresholds `f_ed` / approximate-matching toggle (served
//! from the session's stored match counts — no edit distance re-runs).
//!
//! Paper findings to reproduce in shape: mapping counts barely move for
//! θ ∈ [0.93, 0.97]; quality is insensitive to small τ with a peak near
//! −0.05; |E| drops quickly as θ_overlap grows while quality holds;
//! θ_edge has a broad optimum.

use super::ExpConfig;
use crate::benchmark::web_benchmark_attested;
use crate::methods::PreparedWeb;
use crate::metrics::{mean_score, ResultScorer, Score};
use crate::report::{emit, Table};
use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth::SynthesisConfig;
use mapsynth_baselines::RelationResult;
use mapsynth_extract::ExtractionConfig;
use mapsynth_gen::generate_web;

fn mean_f(
    session: &SynthesisSession,
    cases: &[crate::BenchmarkCase],
    cfg: &SynthesisConfig,
) -> Score {
    let results: Vec<RelationResult> = session
        .synthesize(cfg, Resolver::Algorithm4)
        .mappings
        .into_iter()
        .map(|m| RelationResult {
            pairs: m.materialize_pairs(),
        })
        .collect();
    let scorer = ResultScorer::new(&results);
    let per: Vec<Score> = cases.iter().map(|c| scorer.best_for(&c.gt).0).collect();
    mean_score(&per)
}

/// A session of its own over `prepared`'s corpus, built the way
/// [`PreparedWeb::prepare`] builds the shared one: sweeps over
/// parameters the prepare stages consume (`fd_theta`, `theta_overlap`)
/// cannot derive their points from the shared artifacts.
fn prepared_session(
    prepared: &PreparedWeb,
    cfg: &ExpConfig,
    extraction: ExtractionConfig,
    synthesis: SynthesisConfig,
) -> SynthesisSession {
    let feed = prepared
        .registry
        .partial_synonym_feed(cfg.synonym_fraction, 11);
    let mut session = SynthesisSession::new(PipelineConfig {
        extraction,
        synthesis,
        workers: cfg.workers,
        ..Default::default()
    })
    .with_synonyms(feed);
    session.prepare(&prepared.corpus);
    session
}

/// The θ_overlap sweep: `(theta_overlap, blocked candidate pairs, mean
/// score)` per point, each from a session blocked at that threshold.
fn theta_overlap_sweep(
    prepared: &PreparedWeb,
    cases: &[crate::BenchmarkCase],
    cfg: &ExpConfig,
) -> Vec<(usize, usize, Score)> {
    [1usize, 2, 3, 4, 5]
        .into_iter()
        .map(|theta_overlap| {
            let scfg = SynthesisConfig {
                theta_overlap,
                ..Default::default()
            };
            let session = prepared_session(prepared, cfg, ExtractionConfig::default(), scfg);
            let pairs = session.scores().expect("prepared").blocking.pairs;
            (theta_overlap, pairs, mean_f(&session, cases, &scfg))
        })
        .collect()
}

/// Run all four sweeps.
pub fn run(cfg: &ExpConfig) {
    // Smaller corpus for the sweep grid.
    let mut web_cfg = cfg.web_config();
    web_cfg.tables = (cfg.tables / 2).max(500);
    let wc = generate_web(&web_cfg);
    let prepared = PreparedWeb::prepare(wc, cfg.synonym_fraction, cfg.workers);
    let cases = web_benchmark_attested(&prepared.registry, &prepared.emitted_pairs, 80);

    // --- θ (approximate FD) sweep: candidate & mapping counts ---
    let mut t = Table::new(&["theta_fd", "candidates", "mappings"]);
    for theta in [0.93, 0.94, 0.95, 0.96, 0.97] {
        let extraction = ExtractionConfig {
            fd_theta: theta,
            ..Default::default()
        };
        let session = prepared_session(&prepared, cfg, extraction, SynthesisConfig::default());
        let candidates = session.extraction().expect("prepared").candidates.len();
        let mappings = session
            .synthesize(&SynthesisConfig::default(), Resolver::Algorithm4)
            .mappings;
        t.row(vec![
            format!("{theta:.2}"),
            candidates.to_string(),
            mappings.len().to_string(),
        ]);
    }
    emit(
        &cfg.out_dir,
        "sensitivity_theta_fd",
        "Sensitivity (§5.4): approximate-FD threshold θ",
        &t,
    );

    // --- τ sweep ---
    let mut t = Table::new(&["tau", "avg_fscore", "avg_precision", "avg_recall"]);
    for tau in [-0.4, -0.3, -0.2, -0.1, -0.05, -0.02] {
        let s = mean_f(
            &prepared.session,
            &cases,
            &SynthesisConfig {
                tau,
                ..Default::default()
            },
        );
        t.row(vec![
            format!("{tau}"),
            format!("{:.3}", s.f),
            format!("{:.3}", s.precision),
            format!("{:.3}", s.recall),
        ]);
    }
    emit(
        &cfg.out_dir,
        "sensitivity_tau",
        "Sensitivity (§5.4): hard-conflict threshold τ",
        &t,
    );

    // --- θ_overlap sweep: edge count and quality ---
    let mut t = Table::new(&["theta_overlap", "candidate_pairs", "avg_fscore"]);
    for (overlap, pairs, s) in theta_overlap_sweep(&prepared, &cases, cfg) {
        t.row(vec![
            overlap.to_string(),
            pairs.to_string(),
            format!("{:.3}", s.f),
        ]);
    }
    emit(
        &cfg.out_dir,
        "sensitivity_theta_overlap",
        "Sensitivity (§5.4): blocking threshold θ_overlap",
        &t,
    );

    // --- matching-threshold sweep (f_ed + approx toggle) ---
    // Weights derive from the session's cached match counts; the sweep
    // re-runs zero edit-distance DP (tighter f_ed resolves against the
    // memoized distances, "exact" drops to the class-equality counts).
    let mut t = Table::new(&["matching", "avg_fscore", "avg_precision", "avg_recall"]);
    let mut settings: Vec<SynthesisConfig> = [0.05, 0.1, 0.2]
        .iter()
        .map(|&f_ed| SynthesisConfig {
            match_params: mapsynth_text::MatchParams { f_ed, k_ed: 10 },
            ..Default::default()
        })
        .collect();
    settings.push(SynthesisConfig {
        approx_matching: false,
        ..Default::default()
    });
    for run in prepared.sweep_matching(&settings, Resolver::Algorithm4) {
        let scorer = ResultScorer::new(&run.results);
        let per: Vec<Score> = cases.iter().map(|c| scorer.best_for(&c.gt).0).collect();
        let s = mean_score(&per);
        t.row(vec![
            run.label,
            format!("{:.3}", s.f),
            format!("{:.3}", s.precision),
            format!("{:.3}", s.recall),
        ]);
    }
    emit(
        &cfg.out_dir,
        "sensitivity_matching",
        "Sensitivity (§5.4): approximate-matching thresholds (reused match counts)",
        &t,
    );

    // --- θ_edge sweep ---
    let mut t = Table::new(&["theta_edge", "avg_fscore", "avg_precision", "avg_recall"]);
    for edge in [0.4, 0.5, 0.6, 0.7, 0.85, 0.95] {
        let s = mean_f(
            &prepared.session,
            &cases,
            &SynthesisConfig {
                theta_edge: edge,
                ..Default::default()
            },
        );
        t.row(vec![
            format!("{edge}"),
            format!("{:.3}", s.f),
            format!("{:.3}", s.precision),
            format!("{:.3}", s.recall),
        ]);
    }
    emit(
        &cfg.out_dir,
        "sensitivity_theta_edge",
        "Sensitivity (§5.4): positive-edge threshold θ_edge",
        &t,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth_gen::procedural::ProceduralConfig;
    use mapsynth_gen::WebConfig;

    /// Raising θ_overlap can only shrink the blocked pair set, and the
    /// default point (θ_overlap = 2) is the shared `PreparedWeb`
    /// session's own blocking and score.
    #[test]
    fn theta_overlap_sweep_is_monotone_and_matches_shared_session_at_default() {
        let cfg = ExpConfig::default();
        let wc = generate_web(&WebConfig {
            tables: 260,
            domains: 30,
            procedural: ProceduralConfig {
                families: 8,
                temporal_families: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        let prepared = PreparedWeb::prepare(wc, cfg.synonym_fraction, cfg.workers);
        let cases = web_benchmark_attested(&prepared.registry, &prepared.emitted_pairs, 80);
        assert!(!cases.is_empty());

        let rows = theta_overlap_sweep(&prepared, &cases, &cfg);
        assert_eq!(
            rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5]
        );
        assert!(rows[0].1 > 0);
        for w in rows.windows(2) {
            assert!(
                w[0].1 >= w[1].1,
                "candidate_pairs rose from θ_overlap {} to {}",
                w[0].0,
                w[1].0
            );
        }

        let default = SynthesisConfig::default();
        assert_eq!(default.theta_overlap, 2);
        let shared = prepared.session.scores().expect("prepared");
        assert_eq!(rows[1].1, shared.blocking.pairs);
        assert_eq!(rows[1].2, mean_f(&prepared.session, &cases, &default));
    }
}
