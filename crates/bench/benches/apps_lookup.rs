//! §1 "why pre-compute mappings": containment lookup against the
//! materialized mapping index (Bloom prefilter + hash maps) — the
//! simple, scalable runtime the paper contrasts with online corpus
//! reasoning.

use criterion::{criterion_group, criterion_main, Criterion};
use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_bench::bench_corpus;
use mapsynth_serve::SnapshotBuilder;

fn lookup(c: &mut Criterion) {
    let wc = bench_corpus(400);
    let out = SynthesisSession::new(PipelineConfig::default()).run(&wc.corpus);
    let index = SnapshotBuilder::from_synthesized(&out.mappings).build();

    let present: Vec<&str> = vec!["united states", "canada", "japan", "germany", "france"];
    let absent: Vec<&str> = vec!["zzz-1", "zzz-2", "zzz-3", "zzz-4", "zzz-5"];

    let mut g = c.benchmark_group("mapping_index");
    g.bench_function("rank_by_containment_present", |b| {
        b.iter(|| index.rank_by_containment(&present))
    });
    g.bench_function("rank_by_containment_absent", |b| {
        b.iter(|| index.rank_by_containment(&absent))
    });
    let values: Vec<String> = present.iter().map(|s| s.to_string()).collect();
    g.bench_function("coverage_bloom_prefilter", |b| {
        b.iter(|| index.coverage(0, &values))
    });
    g.finish();
}

criterion_group!(benches, lookup);
criterion_main!(benches);
