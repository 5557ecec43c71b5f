//! Auto-correction (paper §1, Table 3): detect and fix a column that
//! mixes full US state names with postal abbreviations, using a
//! synthesized (state → abbreviation) mapping.
//!
//! ```text
//! cargo run --release -p mapsynth-eval --example auto_correct
//! ```

use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_apps::autocorrect;
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

    // Paper Table 3: employee residence states, two rows entered as
    // abbreviations.
    let employees = [
        ("2910", "Brent, Steven", "California"),
        ("1923", "Morris, Peggy", "Washington"),
        ("1928", "Raynal, David", "Oregon"),
        ("2491", "Crispin, Neal", "CA"),
        ("4850", "Wells, William", "WA"),
    ];
    let state_column: Vec<&str> = employees.iter().map(|(_, _, s)| *s).collect();

    println!("{:<6}{:<18}Residence State", "ID", "Employee");
    for (id, name, state) in &employees {
        println!("{id:<6}{name:<18}{state}");
    }
    match autocorrect(&index, &state_column, 2) {
        Some(fixes) => {
            println!("\ninconsistent representations detected; suggested corrections:");
            for fix in fixes {
                println!("  row {}: {:?} -> {:?}", fix.row + 1, fix.from, fix.to);
            }
        }
        None => println!("\ncolumn is consistent"),
    }
}
