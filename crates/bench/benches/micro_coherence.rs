//! §3.1 kernel in isolation: `column_coherence_detailed` over every
//! structural column of the benchmark corpus, one thread — the PMI
//! column filter that is most of extraction, never timed alone before.
//!
//! The per-call cost is the postings read per column: hot lists are
//! read once into the index's hot tier, whose pair cache the columns
//! share; the rest go through the sketches, gallops and the
//! restricted-universe bitmap tier. That grows with the corpus, so the
//! bench runs at two sizes and reports the pass both per structural
//! column and per list probe (the pairs the sketches could not
//! resolve), with the share of those the hot tier counted and the
//! tier's size. At 7,500 tables it asserts the hot tier is engaged, so
//! a smoke run fails if the tier silently stops serving pairs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mapsynth_bench::bench_corpus;
use mapsynth_corpus::{
    column_coherence_detailed, CoherenceConfig, CoherenceFunnel, GlobalColId, Sym, ValueIndex,
};
use mapsynth_extract::{column_passes, ExtractionConfig};
use std::time::Instant;

/// Score every column; the summed scores keep the work observable.
fn score_all(
    index: &ValueIndex,
    columns: &[(GlobalColId, Vec<Sym>)],
    cfg: CoherenceConfig,
    funnel: &mut CoherenceFunnel,
) -> f64 {
    columns
        .iter()
        .map(|(gid, distinct)| column_coherence_detailed(index, distinct, cfg, *gid, funnel).0)
        .sum()
}

fn coherence(c: &mut Criterion) {
    let ecfg = ExtractionConfig::default();
    let mut g = c.benchmark_group("coherence");
    g.sample_size(10);
    for tables in [600usize, 7_500] {
        let wc = bench_corpus(tables);
        let index = ValueIndex::build(&wc.corpus);
        // Structural columns with their distinct values precomputed,
        // so the timed loop is the kernel and nothing else.
        let strs = &wc.corpus.interner;
        let columns: Vec<(GlobalColId, Vec<Sym>)> = (wc.corpus.tables.iter())
            .flat_map(|t| &t.columns)
            .enumerate()
            .filter(|(_, col)| column_passes(strs, col, ecfg.min_distinct, ecfg.max_avg_len))
            .map(|(gid, col)| (GlobalColId(gid as u32), col.distinct()))
            .collect();
        // One counted pass: the funnel is the per-probe denominator.
        // It includes building the hot tier.
        let mut funnel = CoherenceFunnel::default();
        let t = Instant::now();
        criterion::black_box(score_all(&index, &columns, ecfg.coherence, &mut funnel));
        let pass = t.elapsed();
        let tier = index.hot_tier();
        println!(
            "coherence/{tables}: {} structural columns, {} sketch-resolved pairs, {} list probes \
             ({} hot; {} hot rows, {:.1} MB): {:.2} µs/column, {:.1} ns/list probe",
            columns.len(),
            funnel.sketch_rejects,
            funnel.list_probes,
            funnel.hot_probes,
            tier.rows(),
            tier.row_bytes() as f64 / (1 << 20) as f64,
            pass.as_secs_f64() * 1e6 / columns.len().max(1) as f64,
            pass.as_secs_f64() * 1e9 / funnel.list_probes.max(1) as f64,
        );
        if tables >= 7_500 {
            assert!(
                funnel.hot_probes > 0,
                "coherence/{tables}: the hot tier counted no pair"
            );
        }
        g.throughput(Throughput::Elements(columns.len() as u64));
        g.bench_function(BenchmarkId::new("score_all_columns", tables), |b| {
            b.iter(|| {
                score_all(
                    &index,
                    &columns,
                    ecfg.coherence,
                    &mut CoherenceFunnel::default(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, coherence);
criterion_main!(benches);
