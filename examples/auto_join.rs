//! Auto-join (paper §1, Table 5): join a stock table keyed by ticker
//! with a political-contributions table keyed by company name, through
//! a synthesized (company → ticker) bridge mapping.
//!
//! ```text
//! cargo run --release -p mapsynth-eval --example auto_join
//! ```

use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_apps::autojoin;
use mapsynth_gen::procedural::ProceduralConfig;
use mapsynth_gen::{generate_web, WebConfig};
use mapsynth_serve::SnapshotBuilder;

fn main() {
    // Synthesize mappings from a generated web corpus.
    let wc = generate_web(&WebConfig {
        tables: 1600,
        domains: 80,
        procedural: ProceduralConfig {
            families: 8,
            ..Default::default()
        },
        ..Default::default()
    });
    let output = SynthesisSession::new(PipelineConfig::default()).run(&wc.corpus);
    let index = SnapshotBuilder::from_synthesized(&output.mappings).build();
    println!("indexed {} synthesized mappings", index.mapping_count());

    // Paper Table 5: left table lists stocks by market cap (keyed by
    // ticker); right table lists companies by political contributions
    // (keyed by name). No shared key — a bridge is needed.
    let stocks = [
        ("GE", "255.88B"),
        ("WMT", "212.13B"),
        ("MSFT", "380.15B"),
        ("ORCL", "255.88B"),
        ("UPS", "94.27B"),
    ];
    let contributions = [
        ("General Electric", "$59,456,031"),
        ("Walmart", "$47,497,295"),
        ("Oracle", "$34,216,308"),
        ("Microsoft Corp", "$33,910,357"),
        ("United Parcel Service", "$33,752,009"),
    ];

    let left_keys: Vec<&str> = stocks.iter().map(|(t, _)| *t).collect();
    let right_keys: Vec<&str> = contributions.iter().map(|(n, _)| *n).collect();

    match autojoin(&index, &left_keys, &right_keys, 0.5) {
        Some(join) => {
            println!(
                "bridge mapping #{} found (left keys on {} side); joined rows:",
                join.mapping,
                if join.left_keys_on_left {
                    "left"
                } else {
                    "right"
                }
            );
            println!(
                "{:<8}{:<12}{:<24}Total '89-'13",
                "Ticker", "Market Cap", "Company"
            );
            for (li, ri) in &join.rows {
                println!(
                    "{:<8}{:<12}{:<24}{}",
                    stocks[*li].0, stocks[*li].1, contributions[*ri].0, contributions[*ri].1
                );
            }
        }
        None => println!("no bridge mapping covers both key sets"),
    }
}
