//! Exploratory cluster inspector (ignored by default).

use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_gen::procedural::ProceduralConfig;
use mapsynth_gen::{generate_web, WebConfig};

#[test]
#[ignore = "exploratory; run manually"]
fn inspect_capital_clusters() {
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
    // How many tables were generated for country->capital?
    let n_tables = wc
        .table_relation
        .iter()
        .filter(|r| r.as_deref() == Some("country->capital"))
        .count();
    eprintln!("country->capital tables in corpus: {n_tables}");

    let out = SynthesisSession::new(PipelineConfig::default()).run(&wc.corpus);
    let gt = wc
        .registry
        .get("country->capital")
        .unwrap()
        .ground_truth_pairs();

    let mut matches: Vec<(usize, usize, usize, usize)> = Vec::new(); // (hits, size, tables, domains)
    for m in &out.mappings {
        let hits = m
            .pair_strs()
            .filter(|&(l, r)| gt.contains(&(l.to_string(), r.to_string())))
            .count();
        if hits >= 3 {
            matches.push((hits, m.len(), m.source_tables, m.domains));
        }
    }
    matches.sort_by_key(|m| std::cmp::Reverse(m.0));
    eprintln!("clusters overlapping country->capital gt (hits,size,tables,domains):");
    for m in matches.iter().take(15) {
        eprintln!("  {m:?}");
    }
    eprintln!("gt size: {}", gt.len());
}
