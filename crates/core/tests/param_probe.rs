//! Exploratory parameter probe (ignored by default): sweeps θ_edge on
//! a small generated corpus and reports mean best-F over popular
//! benchmark cases. Run with:
//! `cargo test -p mapsynth --release --test param_probe -- --ignored --nocapture`

use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_gen::procedural::ProceduralConfig;
use mapsynth_gen::{generate_web, WebConfig};
use std::collections::HashSet;

fn best_f(mappings: &[mapsynth::SynthesizedMapping], gt: &HashSet<(String, String)>) -> f64 {
    let mut best = 0.0f64;
    for m in mappings {
        let hits = m
            .pair_strs()
            .filter(|&(l, r)| gt.contains(&(l.to_string(), r.to_string())))
            .count();
        if hits == 0 {
            continue;
        }
        let p = hits as f64 / m.len() as f64;
        let r = hits as f64 / gt.len() as f64;
        best = best.max(2.0 * p * r / (p + r));
    }
    best
}

#[test]
#[ignore = "exploratory; run manually"]
fn theta_edge_sweep() {
    let wc = generate_web(&WebConfig {
        tables: 1500,
        domains: 120,
        procedural: ProceduralConfig {
            families: 15,
            temporal_families: 2,
            ..Default::default()
        },
        ..Default::default()
    });
    let cases = [
        "country->iso3",
        "country->capital",
        "state->abbr",
        "company->ticker",
        "element->symbol",
        "city->state",
        "airport->iata",
        "country->ioc",
    ];
    for theta in [0.4, 0.5, 0.6, 0.7, 0.85, 0.95] {
        let mut cfg = PipelineConfig::default();
        cfg.synthesis.theta_edge = theta;
        let out = SynthesisSession::new(cfg).run(&wc.corpus);
        let mut sum = 0.0;
        let mut per = Vec::new();
        for name in cases {
            let gt = wc.registry.get(name).unwrap().ground_truth_pairs();
            let f = best_f(&out.mappings, &gt);
            sum += f;
            per.push(format!("{name}={f:.2}"));
        }
        eprintln!(
            "theta_edge={theta}: meanF={:.3} [{}]",
            sum / cases.len() as f64,
            per.join(" ")
        );
    }
}

#[test]
#[ignore = "exploratory; run manually"]
fn synonym_feed_effect() {
    let wc = generate_web(&WebConfig {
        tables: 1500,
        domains: 120,
        procedural: ProceduralConfig {
            families: 15,
            temporal_families: 2,
            ..Default::default()
        },
        ..Default::default()
    });
    let cases = [
        "country->iso3",
        "country->capital",
        "state->abbr",
        "company->ticker",
        "element->symbol",
        "city->state",
        "airport->iata",
        "country->ioc",
    ];
    for frac in [0.0, 0.3, 0.6, 1.0] {
        let out = SynthesisSession::new(PipelineConfig::default())
            .with_synonyms(wc.registry.partial_synonym_feed(frac, 5))
            .run(&wc.corpus);
        let mut sum = 0.0;
        let mut per = Vec::new();
        for name in cases {
            let gt = wc.registry.get(name).unwrap().ground_truth_pairs();
            let f = best_f(&out.mappings, &gt);
            sum += f;
            per.push(format!("{name}={f:.2}"));
        }
        eprintln!(
            "feed={frac}: meanF={:.3} [{}]",
            sum / cases.len() as f64,
            per.join(" ")
        );
    }
}
