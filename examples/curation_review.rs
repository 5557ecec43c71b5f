//! Curation workflow (paper §4.3): synthesize from a web-scale corpus,
//! rank clusters by popularity, and print the review queue a human
//! curator would see — including a synonym-rich mapping like the
//! paper's Table 6.
//!
//! ```text
//! cargo run --release -p mapsynth-eval --example curation_review
//! ```

use mapsynth::curate;
use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_gen::{generate_web, WebConfig};
use std::collections::HashMap;

fn main() {
    let wc = generate_web(&WebConfig {
        tables: 1500,
        domains: 150,
        ..Default::default()
    });
    let output = SynthesisSession::new(PipelineConfig::default()).run(&wc.corpus);

    let summary = curate::summarize(&output.mappings, 4);
    println!(
        "{} synthesized mappings; {} backed by >= 4 independent domains \
         (mean {:.1} tables, {:.1} domains)\n",
        summary.total, summary.above_floor, summary.mean_tables, summary.mean_domains
    );

    println!("curation queue (top 8 by popularity):");
    for (i, m) in output.mappings.iter().take(8).enumerate() {
        let (l, r) = m.pair_strs().next().expect("non-empty mapping");
        println!(
            "  #{:<3} {:>4} pairs  {:>3} tables  {:>3} domains   e.g. ({l} -> {r})",
            i + 1,
            m.len(),
            m.source_tables,
            m.domains,
        );
    }

    // Table 6 flavour: the synthesized country->ISO3 cluster carries
    // synonymous mentions of the same entity (the generator's ground
    // truth tells us which cluster that is).
    let gt = wc
        .registry
        .get("country->iso3")
        .expect("registry case")
        .ground_truth_pairs();
    let best = output.mappings.iter().max_by_key(|m| {
        m.pair_strs()
            .filter(|&(l, r)| gt.contains(&(l.to_string(), r.to_string())))
            .count()
    });
    if let Some(m) = best {
        let mut by_right: HashMap<&str, Vec<&str>> = HashMap::new();
        for (l, r) in m.pair_strs() {
            by_right.entry(r).or_default().push(l);
        }
        let mut rich: Vec<(&str, Vec<&str>)> =
            by_right.into_iter().filter(|(_, v)| v.len() >= 3).collect();
        rich.sort_by_key(|(_, v)| std::cmp::Reverse(v.len()));
        println!("\nsynonym-rich entries of the country->ISO3 cluster (paper Table 6):");
        for (code, names) in rich.into_iter().take(4) {
            println!("  {code}:");
            for n in names {
                println!("      {n}");
            }
        }
    }
}
