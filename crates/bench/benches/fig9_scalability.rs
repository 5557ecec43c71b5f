//! Figure 9 workload: pipeline runtime at growing input fractions.
//! The paper reports near-linear scaling thanks to edge sparsity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_bench::bench_corpus;
use mapsynth_eval::experiments::scalability::subsample;

fn fig9(c: &mut Criterion) {
    let wc = bench_corpus(800);
    let mut g = c.benchmark_group("fig9_scalability");
    g.sample_size(10);
    for pct in [20usize, 60, 100] {
        let k = wc.corpus.len() * pct / 100;
        let sub = subsample(&wc.corpus, k);
        g.throughput(Throughput::Elements(k as u64));
        g.bench_with_input(BenchmarkId::new("input_pct", pct), &sub, |b, sub| {
            b.iter(|| SynthesisSession::new(PipelineConfig::default()).run(sub))
        });
    }
    g.finish();
}

criterion_group!(benches, fig9);
criterion_main!(benches);
