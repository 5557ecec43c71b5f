//! Workspace integration test: generator → extraction → synthesis →
//! applications, end to end.

use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_apps::{autocorrect, autofill, autojoin};
use mapsynth_gen::procedural::ProceduralConfig;
use mapsynth_gen::{generate_web, WebConfig};
use mapsynth_serve::SnapshotBuilder;

fn corpus() -> mapsynth_gen::webgen::WebCorpus {
    generate_web(&WebConfig {
        tables: 1200,
        domains: 100,
        procedural: ProceduralConfig {
            families: 10,
            temporal_families: 1,
            ..Default::default()
        },
        ..Default::default()
    })
}

#[test]
fn pipeline_to_applications_round_trip() {
    let wc = corpus();
    let output = SynthesisSession::new(PipelineConfig::default()).run(&wc.corpus);
    assert!(output.mappings.len() > 50);
    assert!(
        output.negative_edges > 0,
        "conflicting standards must produce negatives"
    );

    let index = SnapshotBuilder::from_synthesized(&output.mappings).build();

    // Auto-correct (paper Table 3): mixed state names/abbreviations.
    let column = ["California", "Washington", "Oregon", "Texas", "CA", "WA"];
    let fixes = autocorrect(&index, &column, 2).expect("mixed column detected");
    assert!(fixes.iter().any(|f| f.from == "CA" && f.to == "california"));
    assert!(fixes.iter().any(|f| f.from == "WA" && f.to == "washington"));

    // Auto-fill (paper Table 4): one example state, fill the rest.
    let cities = ["San Francisco", "Seattle", "Houston", "Denver"];
    let target = [Some("California"), None, None, None];
    let fill = autofill(&index, &cities, &target, 1).expect("intent discovered");
    let filled: std::collections::HashMap<usize, String> = fill.filled.into_iter().collect();
    assert_eq!(filled[&1], "washington");
    assert_eq!(filled[&2], "texas");
    assert_eq!(filled[&3], "colorado");

    // Auto-join (paper Table 5): tickers to company names.
    let left = ["MSFT", "AAPL", "GE", "ORCL"];
    let right = [
        "Microsoft Corporation",
        "Apple Inc",
        "General Electric",
        "Oracle Corporation",
    ];
    let join = autojoin(&index, &left, &right, 0.5).expect("bridge mapping found");
    assert!(join.rows.len() >= 3, "joined {} rows", join.rows.len());
    assert!(join.rows.contains(&(0, 0)), "MSFT must join Microsoft");
}

#[test]
fn synthesis_beats_no_synthesis_on_recall() {
    // The core claim of the paper's §5.2: synthesized mappings have far
    // better recall than the best single table, at comparable
    // precision.
    use mapsynth_eval::{web_benchmark_attested, PreparedWeb, ResultScorer};

    let wc = corpus();
    let prepared = PreparedWeb::prepare(wc, 0.5, 0);
    let cases = web_benchmark_attested(&prepared.registry, &prepared.emitted_pairs, 80);

    let synth = prepared.run_synthesis(
        &mapsynth::SynthesisConfig {
            theta_edge: 0.5,
            ..Default::default()
        },
        mapsynth::Resolver::Algorithm4,
    );
    let single =
        mapsynth_baselines::single_table::single_tables(prepared.space(), prepared.tables());

    let mean = |results: &[mapsynth_baselines::RelationResult]| {
        let scorer = ResultScorer::new(results);
        let scores: Vec<_> = cases.iter().map(|c| scorer.best_for(&c.gt).0).collect();
        (
            scores.iter().map(|s| s.f).sum::<f64>() / scores.len() as f64,
            scores.iter().map(|s| s.recall).sum::<f64>() / scores.len() as f64,
        )
    };
    let (f_synth, r_synth) = mean(&synth);
    let (f_single, r_single) = mean(&single);
    assert!(
        r_synth > r_single + 0.05,
        "synthesis recall {r_synth:.3} vs single-table {r_single:.3}"
    );
    assert!(
        f_synth > f_single,
        "synthesis F {f_synth:.3} vs single-table {f_single:.3}"
    );
}

#[test]
fn deterministic_outputs_across_runs() {
    let wc1 = corpus();
    let wc2 = corpus();
    let out1 = SynthesisSession::new(PipelineConfig::default()).run(&wc1.corpus);
    let out2 = SynthesisSession::new(PipelineConfig::default()).run(&wc2.corpus);
    assert_eq!(out1.mappings.len(), out2.mappings.len());
    for (a, b) in out1.mappings.iter().zip(&out2.mappings).take(50) {
        assert_eq!(a.materialize_pairs(), b.materialize_pairs());
    }
}

#[test]
fn scoring_deterministic_across_worker_counts() {
    // The scoring rewrite (shared views + approximate-match memo) must
    // keep the engine's determinism contract: identical compatibility
    // graphs — edge sets *and* weights — for any worker count.
    use mapsynth::pipeline::SynthesisSession;

    let wc = corpus();
    let mut graphs = Vec::new();
    for workers in [1usize, 2, 8] {
        let mut session = SynthesisSession::new(PipelineConfig {
            workers,
            ..Default::default()
        });
        session.prepare(&wc.corpus);
        graphs.push((workers, session.graph(&session.config().synthesis)));
    }
    let (_, reference) = &graphs[0];
    for (workers, g) in &graphs[1..] {
        assert_eq!(
            g.edges.len(),
            reference.edges.len(),
            "{workers} workers: edge count"
        );
        for (a, b) in g.edges.iter().zip(&reference.edges) {
            assert_eq!(a, b, "{workers} workers: edge mismatch");
        }
        assert_eq!(g.negative_edges(), reference.negative_edges());
        assert_eq!(g.positive_edges(), reference.positive_edges());
    }
}

#[test]
fn stage_artifacts_reused_across_resolvers() {
    // The staged-engine contract: prepare stages 1–3 once, then derive
    // every resolver variant from the same extraction + value space +
    // scored pairs, producing results identical to fresh full runs.
    use mapsynth::pipeline::{Resolver, SynthesisSession};

    let wc = corpus();
    let mut shared = SynthesisSession::new(PipelineConfig::default());
    shared.prepare(&wc.corpus);
    let base = shared.config().synthesis;
    let scored_before: *const _ = shared.scores().expect("prepared").scored.as_ptr();

    for resolver in [Resolver::Algorithm4, Resolver::MajorityVote, Resolver::None] {
        let from_shared = shared.synthesize(&base, resolver);
        // Per-stage timings stay observable on every variant run; the
        // graph stage carries the (shared) scoring cost, so it is
        // strictly positive even though only the filter re-ran.
        assert!(from_shared.timings.graph > std::time::Duration::ZERO);
        assert!(from_shared.timings.total >= from_shared.timings.conflict);

        // A fresh session running the same variant from scratch.
        let mut fresh = SynthesisSession::new(PipelineConfig::default());
        fresh.prepare(&wc.corpus);
        let from_fresh = fresh.synthesize(&base, resolver);

        assert_eq!(
            from_shared.mappings.len(),
            from_fresh.mappings.len(),
            "{resolver:?}: mapping count"
        );
        for (a, b) in from_shared.mappings.iter().zip(&from_fresh.mappings) {
            assert_eq!(
                a.materialize_pairs(),
                b.materialize_pairs(),
                "{resolver:?}: pair content"
            );
            assert_eq!(a.domains, b.domains);
            assert_eq!(a.source_tables, b.source_tables);
        }
        assert_eq!(from_shared.edges, from_fresh.edges);
        assert_eq!(from_shared.partitions, from_fresh.partitions);
    }

    // The shared session never re-ran stages 1–3.
    assert_eq!(
        shared.scores().expect("prepared").scored.as_ptr(),
        scored_before,
        "scored pairs must not be recomputed across variants"
    );

    // Resolvers actually differ in effect: without resolution at least
    // as many residual conflicts survive as with Algorithm 4.
    let resolved = shared.synthesize(&base, Resolver::Algorithm4);
    let raw = shared.synthesize(&base, Resolver::None);
    let conflicts = |ms: &[mapsynth::SynthesizedMapping]| -> usize {
        ms.iter().map(|m| m.conflicting_lefts()).sum()
    };
    assert!(conflicts(&raw.mappings) >= conflicts(&resolved.mappings));
}

#[test]
fn delta_tombstones_mappings_end_to_end() {
    // The tombstone edge case, all the way to the serving layer:
    // deleting the last tables supporting a mapping must drop it from
    // the next published snapshot — while untouched mappings survive
    // the incremental publish verbatim.
    use mapsynth::delta::CorpusDelta;
    use mapsynth::pipeline::{Resolver, SynthesisSession};
    use mapsynth_serve::{MappingService, SnapshotBuilder};

    let wc = corpus();
    let mut corpus = wc.corpus;
    let mut session = SynthesisSession::new(PipelineConfig::default());
    session.prepare(&corpus);
    let base = session.config().synthesis;
    let run = session.synthesize(&base, Resolver::Algorithm4);

    let service = MappingService::new();
    service.publish(SnapshotBuilder::from_synthesized(&run.mappings).build());

    // Pick a well-supported mapping and find the source tables backing
    // it; removing those tables removes its last support.
    let victim = run
        .mappings
        .iter()
        .find(|m| m.source_tables >= 2 && m.len() >= 4)
        .expect("a multi-table mapping exists");
    let victim_pairs: Vec<(String, String)> = victim.materialize_pairs();
    let tables = &session.values().expect("prepared").tables;
    let removed: Vec<mapsynth_corpus::TableId> = victim
        .member_tables
        .iter()
        .map(|&ti| tables[ti as usize].source)
        .collect();
    let n_removed = removed.len();

    let report = session
        .apply_delta(
            &corpus,
            &CorpusDelta {
                added: vec![],
                removed,
                patches: vec![],
            },
        )
        .expect("valid delta");
    assert_eq!(report.tables_removed, n_removed);
    let after = session.synthesize(&base, Resolver::Algorithm4);
    let (_, stats) = service.publish_delta(&after.mappings);
    assert!(stats.removed > 0, "the victim mapping must be retired");
    assert!(
        stats.unchanged > after.mappings.len() / 2,
        "most mappings must survive the delta publish untouched"
    );

    // The victim's pairs are no longer served in any one mapping.
    let snap = service.snapshot();
    let victim_still_served = after.mappings.iter().any(|m| {
        let got: Vec<(String, String)> = m.materialize_pairs();
        got == victim_pairs && m.source_tables == victim.source_tables
    });
    assert!(
        !victim_still_served,
        "mapping must not survive removal of its last supporting tables"
    );
    // And a forward probe for a pair unique to the victim misses or
    // resolves through a different (still-supported) mapping set.
    assert_eq!(snap.mapping_count(), after.mappings.len());

    // The incremental session still matches a fresh batch run.
    let mut fresh = SynthesisSession::new(PipelineConfig::default());
    fresh.prepare(&session.live_corpus(&corpus));
    let fresh_run = fresh.synthesize(&base, Resolver::Algorithm4);
    assert_eq!(after.mappings.len(), fresh_run.mappings.len());
    for (a, b) in after.mappings.iter().zip(&fresh_run.mappings) {
        assert_eq!(a.materialize_pairs(), b.materialize_pairs());
    }

    // Push a replacement crawl re-asserting the victim relation; the
    // next delta + publish serves it again.
    let mats: Vec<Vec<(String, String)>> = vec![victim_pairs.clone(); 3];
    let mut added = Vec::new();
    for (i, rows) in mats.iter().enumerate() {
        let d = corpus.domain(&format!("recrawl-{i}.example"));
        let (l, r): (Vec<&str>, Vec<&str>) =
            rows.iter().map(|(l, r)| (l.as_str(), r.as_str())).unzip();
        added.push(corpus.push_table(d, vec![(Some("left"), l), (Some("right"), r)]));
    }
    session
        .apply_delta(
            &corpus,
            &CorpusDelta {
                added,
                removed: vec![],
                patches: vec![],
            },
        )
        .expect("valid delta");
    let revived = session.synthesize(&base, Resolver::Algorithm4);
    service.publish_delta(&revived.mappings);
    let snap = service.snapshot();
    let (l0, r0) = &victim_pairs[0];
    let hit = snap.lookup_norm(l0).expect("revived mapping serves again");
    assert!(hit.translations().any(|(_, r)| r == r0));
}

#[test]
fn delta_path_deterministic_across_worker_counts_at_scale() {
    // The incremental path must keep the engine's determinism
    // contract at generator scale: identical post-delta mappings for
    // 1, 2 and 8 workers.
    use mapsynth::delta::CorpusDelta;
    use mapsynth::pipeline::{Resolver, SynthesisSession};

    let outputs: Vec<Vec<Vec<(String, String)>>> = [1usize, 2, 8]
        .iter()
        .map(|&workers| {
            let wc = corpus();
            let mut corpus = wc.corpus;
            let mut session = SynthesisSession::new(PipelineConfig {
                workers,
                ..Default::default()
            });
            session.prepare(&corpus);
            // Remove a spread of tables and re-add clones of two of
            // them under new domains (overlapping content on purpose).
            let removed: Vec<mapsynth_corpus::TableId> =
                (0..10).map(|k| mapsynth_corpus::TableId(k * 97)).collect();
            let mut added = Vec::new();
            for &src in &[7usize, 19] {
                let cols: Vec<(Option<String>, Vec<String>)> = corpus.tables[src]
                    .columns
                    .iter()
                    .map(|c| {
                        (
                            c.header.map(|h| corpus.str_of(h).to_string()),
                            c.values
                                .iter()
                                .map(|&v| corpus.str_of(v).to_string())
                                .collect(),
                        )
                    })
                    .collect();
                let d = corpus.domain("recrawl.example");
                let cols_ref: Vec<(Option<&str>, Vec<&str>)> = cols
                    .iter()
                    .map(|(h, vs)| {
                        (
                            h.as_deref(),
                            vs.iter().map(String::as_str).collect::<Vec<&str>>(),
                        )
                    })
                    .collect();
                added.push(corpus.push_table(d, cols_ref));
            }
            session
                .apply_delta(
                    &corpus,
                    &CorpusDelta {
                        added,
                        removed,
                        patches: vec![],
                    },
                )
                .expect("valid delta");
            let run = session.synthesize(&session.config().synthesis.clone(), Resolver::Algorithm4);
            run.mappings.iter().map(|m| m.materialize_pairs()).collect()
        })
        .collect();
    assert!(!outputs[0].is_empty());
    assert_eq!(outputs[0], outputs[1], "1 vs 2 workers");
    assert_eq!(outputs[0], outputs[2], "1 vs 8 workers");
}
