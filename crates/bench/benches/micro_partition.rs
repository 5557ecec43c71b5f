//! The variant tail's kernels in isolation, at 600 and 7,500 tables:
//! Algorithm 3 (lazy-heap greedy partitioning, global vs
//! divide-and-conquer by connected components, Appendix F) and, over
//! the groups it produces, Algorithm 4, majority voting and the plain
//! union — one thread each, every multi-table group per pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mapsynth::partition::{greedy_partition, partition_by_components};
use mapsynth::{resolve_conflicts, resolve_majority_vote, SynthesisConfig, SynthesizedMapping};
use mapsynth_bench::bench_corpus;
use mapsynth_eval::PreparedWeb;
use mapsynth_mapreduce::MapReduce;

fn tail(c: &mut Criterion) {
    let cfg = SynthesisConfig {
        theta_edge: 0.5,
        ..Default::default()
    };
    let mr = MapReduce::default();
    for tables in [600usize, 7_500] {
        let prepared = PreparedWeb::prepare(bench_corpus(tables), 0.5, 0);
        // The session's cached score artifact feeds the variant graph.
        let graph = prepared.session.graph(&cfg);

        let mut g = c.benchmark_group("partition");
        g.sample_size(20);
        g.throughput(Throughput::Elements(graph.edges.len() as u64));
        g.bench_function(BenchmarkId::new("greedy_global", tables), |b| {
            b.iter(|| greedy_partition(&graph, &cfg))
        });
        g.bench_function(BenchmarkId::new("greedy_by_components", tables), |b| {
            b.iter(|| partition_by_components(&graph, &cfg, &mr))
        });
        g.finish();

        // Singletons resolve to themselves; the kernels' work is the
        // multi-table groups.
        let groups: Vec<Vec<u32>> = partition_by_components(&graph, &cfg, &mr)
            .groups
            .into_iter()
            .filter(|group| group.len() > 1)
            .collect();
        let (space, norm) = (prepared.space(), prepared.tables());
        let members: usize = groups.iter().map(Vec::len).sum();
        println!(
            "conflict/{tables}: {} multi-table groups, {members} member tables, largest {}",
            groups.len(),
            groups.iter().map(Vec::len).max().unwrap_or(0),
        );

        let mut g = c.benchmark_group("conflict");
        g.sample_size(20);
        g.throughput(Throughput::Elements(members as u64));
        g.bench_function(BenchmarkId::new("algorithm4", tables), |b| {
            b.iter(|| {
                groups
                    .iter()
                    .map(|group| resolve_conflicts(space, norm, group).1.tables_removed)
                    .sum::<usize>()
            })
        });
        g.bench_function(BenchmarkId::new("majority_vote", tables), |b| {
            b.iter(|| {
                groups
                    .iter()
                    .map(|group| resolve_majority_vote(space, norm, group).len())
                    .sum::<usize>()
            })
        });
        g.bench_function(BenchmarkId::new("union_of", tables), |b| {
            b.iter(|| {
                groups
                    .iter()
                    .map(|group| SynthesizedMapping::union_of(space, norm, group).len())
                    .sum::<usize>()
            })
        });
        g.finish();
    }
}

criterion_group!(benches, tail);
criterion_main!(benches);
