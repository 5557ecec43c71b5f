//! Quickstart: synthesize mapping tables from a tiny hand-built corpus.
//!
//! ```text
//! cargo run --release -p mapsynth-eval --example quickstart
//! ```
//!
//! Builds a corpus of small web-style tables about country codes —
//! fragments, synonyms, one dirty cell, and a second conflicting code
//! standard — and runs the three-step pipeline (paper Figure 1).

use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_corpus::Corpus;

fn main() {
    let mut corpus = Corpus::new();

    // Fragments of (country → ISO3) from different sites, with
    // different synonym styles.
    let d1 = corpus.domain("codes.example.org");
    corpus.push_table(
        d1,
        vec![
            (
                Some("name"),
                vec!["United States", "Canada", "Mexico", "Brazil", "Japan"],
            ),
            (Some("code"), vec!["USA", "CAN", "MEX", "BRA", "JPN"]),
        ],
    );
    let d2 = corpus.domain("travel.example.com");
    corpus.push_table(
        d2,
        vec![
            (
                Some("country"),
                vec!["Japan", "South Korea", "China", "India", "Thailand"],
            ),
            (Some("iso"), vec!["JPN", "KOR", "CHN", "IND", "THA"]),
        ],
    );
    let d3 = corpus.domain("stats.example.net");
    corpus.push_table(
        d3,
        vec![
            // Synonymous mentions: a different surface form of Korea.
            (
                Some("name"),
                vec!["Korea, Republic of", "China", "India", "Brazil", "Mexico"],
            ),
            (Some("code"), vec!["KOR", "CHN", "IND", "BRA", "MEX"]),
        ],
    );
    // A reference list covering everything (the containment hub).
    let wiki = corpus.domain("wikipedia.example.org");
    corpus.push_table(
        wiki,
        vec![
            (
                Some("Country"),
                vec![
                    "United States",
                    "Canada",
                    "Mexico",
                    "Brazil",
                    "Japan",
                    "South Korea",
                    "China",
                    "India",
                    "Thailand",
                    "Germany",
                ],
            ),
            (
                Some("ISO 3166-1 Alpha-3"),
                vec![
                    "USA", "CAN", "MEX", "BRA", "JPN", "KOR", "CHN", "IND", "THA", "DEU",
                ],
            ),
        ],
    );
    // A *different* code standard sharing the same countries — the
    // negative FD evidence must keep it out of the ISO cluster.
    let ioc = corpus.domain("olympics.example.org");
    for _ in 0..2 {
        corpus.push_table(
            ioc,
            vec![
                (
                    Some("country"),
                    vec!["Germany", "Netherlands", "Greece", "India", "Japan"],
                ),
                (Some("ioc"), vec!["GER", "NED", "GRE", "IND", "JPN"]),
            ],
        );
    }
    // The hub also lists Netherlands/Greece with their ISO codes, so
    // the two standards conflict on three countries.
    corpus.push_table(
        wiki,
        vec![
            (
                Some("Country"),
                vec![
                    "Germany",
                    "Netherlands",
                    "Greece",
                    "India",
                    "Japan",
                    "Canada",
                ],
            ),
            (
                Some("ISO 3166-1 Alpha-3"),
                vec!["DEU", "NLD", "GRC", "IND", "JPN", "CAN"],
            ),
        ],
    );

    let output = SynthesisSession::new(PipelineConfig::default()).run(&corpus);

    println!(
        "corpus: {} tables -> {} candidates -> {} edges ({} negative) -> {} mappings\n",
        corpus.len(),
        output.candidates,
        output.edges,
        output.negative_edges,
        output.mappings.len()
    );
    for (i, m) in output.mappings.iter().take(6).enumerate() {
        println!(
            "mapping #{i}: {} pairs from {} tables across {} domains",
            m.len(),
            m.source_tables,
            m.domains
        );
        for (l, r) in m.pair_strs().take(12) {
            println!("    {l:<22} -> {r}");
        }
        println!();
    }
}
