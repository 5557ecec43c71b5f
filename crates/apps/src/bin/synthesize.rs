//! `synthesize`: run the full pipeline on a CSV corpus directory,
//! write the synthesized mapping tables as TSV files, and publish them
//! into a versioned serving snapshot.
//!
//! ```text
//! synthesize <corpus-dir> [--out DIR] [--min-domains N] [--min-pairs N]
//!            [--workers W] [--shards S] [--probe VALUE]...
//!
//! corpus layout: <corpus-dir>/<domain>/<table>.csv  (header row = column names)
//! output:        <out>/mapping-NNNN.tsv  (left \t right), curation-ranked
//!                <out>/index.tsv         (id, pairs, tables, domains)
//! serving:       mappings are published into a mapsynth-serve
//!                MappingService; each --probe VALUE is answered from
//!                the served snapshot (mappings containing it + its
//!                translations).
//! ```

use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_corpus::load_csv_dir;
use mapsynth_serve::{MappingService, SnapshotBuilder};
use std::io::Write;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut corpus_dir: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from("mappings");
    let mut min_domains = 1usize;
    let mut min_pairs = 3usize;
    let mut workers = 0usize;
    let mut shards = mapsynth_serve::DEFAULT_SHARDS;
    let mut probes: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).expect("--out needs a value"));
            }
            "--min-domains" => {
                i += 1;
                min_domains = args
                    .get(i)
                    .expect("--min-domains needs a value")
                    .parse()
                    .unwrap();
            }
            "--min-pairs" => {
                i += 1;
                min_pairs = args
                    .get(i)
                    .expect("--min-pairs needs a value")
                    .parse()
                    .unwrap();
            }
            "--workers" => {
                i += 1;
                workers = args
                    .get(i)
                    .expect("--workers needs a value")
                    .parse()
                    .unwrap();
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .expect("--shards needs a value")
                    .parse()
                    .unwrap();
            }
            "--probe" => {
                i += 1;
                probes.push(args.get(i).expect("--probe needs a value").clone());
            }
            other if !other.starts_with("--") && corpus_dir.is_none() => {
                corpus_dir = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unexpected argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(corpus_dir) = corpus_dir else {
        eprintln!(
            "usage: synthesize <corpus-dir> [--out DIR] [--min-domains N] [--min-pairs N] \
             [--workers W] [--shards S] [--probe VALUE]..."
        );
        std::process::exit(2);
    };

    let corpus = match load_csv_dir(&corpus_dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to load corpus from {}: {e}", corpus_dir.display());
            std::process::exit(1);
        }
    };
    eprintln!(
        "loaded {} tables from {} domains",
        corpus.len(),
        corpus.domain_names.len()
    );

    let output = SynthesisSession::new(PipelineConfig {
        workers,
        ..Default::default()
    })
    .run(&corpus);
    eprintln!(
        "{} candidates -> {} edges ({} negative) -> {} mappings in {:.2?}",
        output.candidates,
        output.edges,
        output.negative_edges,
        output.mappings.len(),
        output.timings.total
    );

    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let mut index = std::fs::File::create(out_dir.join("index.tsv")).expect("create index");
    writeln!(index, "id\tpairs\ttables\tdomains").unwrap();
    // Every exported mapping enters the serving snapshot as it is
    // written, labelled with its export filename, so probe answers
    // point at the exact TSV a mapping landed in.
    let mut builder = SnapshotBuilder::with_shards(shards);
    let mut written = 0usize;
    for (mi, m) in output.mappings.iter().enumerate() {
        if m.domains < min_domains || m.len() < min_pairs {
            continue;
        }
        let name = format!("mapping-{mi:04}.tsv");
        let mut f = std::fs::File::create(out_dir.join(&name)).expect("create mapping file");
        for (l, r) in m.pair_strs() {
            writeln!(f, "{l}\t{r}").unwrap();
        }
        writeln!(
            index,
            "{mi}\t{}\t{}\t{}",
            m.len(),
            m.source_tables,
            m.domains
        )
        .unwrap();
        builder.add_synthesized_named(Some(name), m);
        written += 1;
    }
    eprintln!("wrote {written} mapping tables to {}", out_dir.display());

    // Publish the run into the serving layer: applications hold the
    // service handle and keep answering from their snapshot while
    // later runs publish newer versions.
    let service = MappingService::new();
    let version = service.publish(builder.build());
    let snap = service.snapshot();
    eprintln!(
        "serving snapshot v{version}: {} mappings, {} values across {} shards",
        snap.mapping_count(),
        snap.value_count(),
        snap.shard_count(),
    );
    let label = |mi: u32| {
        snap.meta(mi)
            .name
            .clone()
            .unwrap_or_else(|| format!("#{mi}"))
    };
    for probe in &probes {
        match snap.lookup(probe) {
            None => println!("probe {probe:?}: not served"),
            Some(hit) => {
                let mappings: Vec<String> = hit.mappings().iter().map(|&mi| label(mi)).collect();
                let translations: Vec<String> = hit
                    .translations()
                    .map(|(mi, r)| format!("{}->{r:?}", label(mi)))
                    .collect();
                println!(
                    "probe {probe:?}: mappings [{}], translations [{}]",
                    mappings.join(", "),
                    translations.join(", "),
                );
            }
        }
    }
}
