//! Auto-fill (paper §1, Table 4): the user types one example state for
//! a list of cities; the system discovers the (city → state) intent
//! from synthesized mappings and fills the rest.
//!
//! ```text
//! cargo run --release -p mapsynth-eval --example auto_fill
//! ```

use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_apps::autofill;
use mapsynth_gen::procedural::ProceduralConfig;
use mapsynth_gen::{generate_web, WebConfig};
use mapsynth_serve::SnapshotBuilder;

fn main() {
    let wc = generate_web(&WebConfig {
        tables: 800,
        domains: 80,
        procedural: ProceduralConfig {
            families: 8,
            ..Default::default()
        },
        ..Default::default()
    });
    let output = SynthesisSession::new(PipelineConfig::default()).run(&wc.corpus);
    let index = SnapshotBuilder::from_synthesized(&output.mappings).build();

    // Paper Table 4: cities with one example state value given.
    let cities = [
        "San Francisco",
        "Seattle",
        "Los Angeles",
        "Houston",
        "Denver",
    ];
    let states: Vec<Option<&str>> = vec![Some("California"), None, None, None, None];

    println!("{:<16}State", "City");
    for (c, s) in cities.iter().zip(&states) {
        println!("{c:<16}{}", s.unwrap_or("?"));
    }

    match autofill(&index, &cities, &states, 1) {
        Some(fill) => {
            println!("\nintent matched mapping #{}; auto-filled:", fill.mapping);
            for (row, value) in &fill.filled {
                println!("  {:<16}{}", cities[*row], value);
            }
        }
        None => println!("\nno mapping consistent with the example"),
    }
}
