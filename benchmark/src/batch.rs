//! The batch phase: the paper's offline job, source → published
//! snapshot, and — in the traced run — its decomposition layer by
//! layer.

use crate::inputs::{web_corpus, Rng, WebInput};
use crate::quality::quality_f1;
use crate::run::{rss_mb, timed_reps, Run, Sampler};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use mapsynth::pipeline::{PipelineConfig, Resolver, SessionRun, SynthesisSession};
use mapsynth_corpus::{
    column_coherence_detailed, CoherenceFunnel, Corpus, GlobalColId, Table, ValueIndex,
};
use mapsynth_extract::{approx_fd_holds, column_passes, numeric_fraction, ExtractionConfig};
use mapsynth_mapreduce::MapReduce;
use mapsynth_serve::{MappingService, SnapshotBuilder};
use mapsynth_text::{edit_distance_within_myers, fractional_threshold, normalize, MatchParams};
use std::time::{Duration, Instant};

pub struct BatchScale {
    /// Relation-backed tables of the web corpus.
    pub tables: usize,
    /// Precede every sample of the untraced run with a discarded
    /// operation: at probe scale a sample follows seconds of another
    /// phase's work and would start on a cold cache.
    pub settle: bool,
    /// Timed operations one sample of the untraced run takes.
    pub reps_per_sample: usize,
    /// Seconds of repetitions in the traced run.
    pub traced_budget_s: f64,
}

/// What must repeat exactly from one repetition to the next.
#[derive(Clone, Debug, PartialEq)]
struct Counts {
    candidates: usize,
    values: usize,
    blocked_pairs: usize,
    edges: usize,
    partitions: usize,
    mappings: usize,
}

/// One repetition's products, kept for the checks that follow it.
struct Outcome {
    session: SynthesisSession,
    run: SessionRun,
    service: MappingService,
    /// Resident memory after extraction and after scoring.
    rss_after: [f64; 2],
}

impl Outcome {
    fn counts(&self) -> Counts {
        Counts {
            candidates: self.extraction().candidates.len(),
            values: self.session.values().expect("prepared").space.len(),
            blocked_pairs: self.session.scores().expect("prepared").blocking.pairs,
            edges: self.run.edges,
            partitions: self.run.partitions,
            mappings: self.run.mappings.len(),
        }
    }

    fn extraction(&self) -> &mapsynth::ExtractionArtifact {
        self.session.extraction().expect("prepared")
    }
}

/// The timed operation: a new session, streaming prepare, synthesis
/// with the default configuration, snapshot build, publish.
fn synthesize_and_publish(tracer: &mut Tracer, corpus: &Corpus, cfg: &PipelineConfig) -> Outcome {
    tracer.span("batch.op", |tr| {
        let want_rss = tr.enabled();
        let mut session = SynthesisSession::new(cfg.clone());
        let mut rss_after = [0.0; 2];
        tr.span("core.session.prepare_streaming", |tr| {
            let started = Instant::now();
            let mut marks: Vec<Duration> = Vec::with_capacity(3);
            session.prepare_streaming_with(&mut corpus.stream(), |stage| {
                marks.push(started.elapsed());
                if want_rss && stage != "value_space" {
                    rss_after[usize::from(stage == "scoring")] = rss_mb();
                }
            });
            let stages = tr.reported(&[
                ("extract.extraction", marks[0]),
                ("core.values.build", marks[1] - marks[0]),
                ("core.scoring", marks[2] - marks[1]),
            ]);
            if let Some(first) = stages {
                let d = session.scores().expect("prepared").detail;
                tr.reported_under(
                    first + 2,
                    &[
                        ("core.blocking.build", d.blocking),
                        ("core.compat.index_build", d.index_build),
                        ("core.approx.memo", d.approx_memo),
                        ("core.compat.merge_join", d.merge_join),
                    ],
                );
            }
        });
        let base = session.config().synthesis;
        let run = tr.call("core.session.synthesize", || {
            session.synthesize(&base, Resolver::Algorithm4)
        });
        let snapshot = tr.call("serve.snapshot.build", || {
            SnapshotBuilder::from_synthesized(&run.mappings).build()
        });
        let service = MappingService::new();
        tr.call("serve.service.publish", || service.publish(snapshot));
        Outcome {
            session,
            run,
            service,
            rss_after,
        }
    })
}

/// The untraced run's batch phase: one sample is one timed operation.
pub struct BatchSampler {
    web: WebInput,
    /// The first quarter of the corpus, for the warm-up.
    warm: Corpus,
    settle: bool,
    reps_per_sample: usize,
    cfg: PipelineConfig,
    times: Vec<f64>,
    counts: Vec<Counts>,
    last: Option<Outcome>,
}

impl BatchSampler {
    pub fn new(run: &mut Run, scale: &BatchScale) -> Self {
        let (seed, tables) = (run.seed, scale.tables);
        let web = run.generate(|| web_corpus(tables, seed));
        let quarter = web.corpus.len() / 4;
        Self {
            warm: run.setup(|_| web.corpus.subset(|id| (id.0 as usize) < quarter)),
            web,
            settle: scale.settle,
            reps_per_sample: scale.reps_per_sample,
            cfg: PipelineConfig {
                workers: run.workers,
                ..Default::default()
            },
            times: Vec::new(),
            counts: Vec::new(),
            last: None,
        }
    }
}

impl Sampler for BatchSampler {
    /// The discarded warm-up runs on a quarter of the corpus: a full
    /// repetition would take a fifth of the run's wall time, and the
    /// median discards the first timed repetition if it is still the
    /// slowest.
    fn warm_up(&mut self, run: &mut Run) {
        synthesize_and_publish(&mut run.tracer, &self.warm, &self.cfg);
    }

    fn sample(&mut self, run: &mut Run) -> f64 {
        if self.settle {
            drop(self.last.take());
            synthesize_and_publish(&mut run.tracer, &self.web.corpus, &self.cfg);
        }
        let mut spent = 0.0;
        for _ in 0..self.reps_per_sample {
            // Free the previous repetition's artifacts outside the timing.
            drop(self.last.take());
            let t = Instant::now();
            let outcome = synthesize_and_publish(&mut run.tracer, &self.web.corpus, &self.cfg);
            let secs = t.elapsed().as_secs_f64();
            self.counts.push(outcome.counts());
            self.last = Some(outcome);
            self.times.push(secs);
            spent += secs;
        }
        spent
    }

    fn finish(self: Box<Self>, run: &mut Run) {
        let outcome = self.last.expect("at least one sample was taken");
        run.checks.ops(self.times.len() as u64);
        run.checks.check(
            "batch: counts repeat across repetitions",
            self.counts.windows(2).all(|w| w[0] == w[1]),
        );
        check_lookups(run, &outcome);
        run.record.e2e("synth_s", Summary::of(&self.times));
        let f1 = quality_f1(
            &self.web.registry,
            &self.web.attested,
            &outcome.run.mappings,
        );
        run.record.e2e("quality_f1", Summary::single(f1, 1));
    }
}

/// The traced run's batch phase: traced repetitions, then the
/// decomposition and the per-call loops.
pub fn traced(run: &mut Run, scale: &BatchScale) {
    let seed = run.seed;
    let web = run.generate(|| web_corpus(scale.tables, seed));
    let cfg = PipelineConfig {
        workers: run.workers,
        ..Default::default()
    };

    let mut last: Option<Outcome> = None;
    let mut counts: Vec<Counts> = Vec::new();
    let tracer = &mut run.tracer;
    let spans_before = tracer.span_count();
    let mut rss_after = [0.0; 2];
    let times = timed_reps(scale.traced_budget_s, 1, |rep| {
        drop(last.take());
        // The warm-up leaves no spans behind.
        tracer.set_enabled(rep.is_some());
        let t = Instant::now();
        let outcome = synthesize_and_publish(tracer, &web.corpus, &cfg);
        let secs = t.elapsed().as_secs_f64();
        if rep.is_some() {
            counts.push(outcome.counts());
            rss_after = outcome.rss_after;
        }
        last = Some(outcome);
        secs
    });
    let spans = tracer.span_count() - spans_before;
    tracer.set_enabled(false);
    let outcome = last.expect("at least one repetition ran");
    run.checks.ops(times.len() as u64);
    run.checks.check(
        "batch: counts repeat across repetitions",
        counts.windows(2).all(|w| w[0] == w[1]),
    );
    check_lookups(run, &outcome);

    let op_s = median(&times);
    run.record.layer(
        "batch.trace_overhead",
        Tracer::estimated_overhead(spans, times.iter().sum()),
    );
    let span_s = |tracer: &Tracer, name: &str| median(&tracer.secs(name));
    let t = &run.tracer;
    let extraction_s = span_s(t, "extract.extraction");
    let values_s = span_s(t, "core.values.build");
    let scoring_s = span_s(t, "core.scoring");
    let synthesize_s = span_s(t, "core.session.synthesize");
    let build_s = span_s(t, "serve.snapshot.build");
    let publish_s = span_s(t, "serve.service.publish");
    let unattributed = t.unattributed_share("batch.op");
    let layers = [
        ("extract.extraction_s", extraction_s),
        ("core.values.build_s", values_s),
        ("core.scoring_s", scoring_s),
        ("core.blocking.build_s", span_s(t, "core.blocking.build")),
        (
            "core.compat.index_build_s",
            span_s(t, "core.compat.index_build"),
        ),
        ("core.approx.memo_s", span_s(t, "core.approx.memo")),
        (
            "core.compat.merge_join_s",
            span_s(t, "core.compat.merge_join"),
        ),
        ("core.session.synthesize_s", synthesize_s),
        ("serve.snapshot.build_s", build_s),
        ("serve.service.publish_s", publish_s),
        ("batch.extract_share", extraction_s / op_s),
        ("batch.scoring_share", (values_s + scoring_s) / op_s),
        (
            "batch.tail_share",
            (synthesize_s + build_s + publish_s) / op_s,
        ),
        ("batch.unattributed_share", unattributed),
    ];
    for (name, value) in layers {
        run.record.layer(name, value);
    }

    let stats = outcome.extraction().stats;
    let funnel = outcome.extraction().funnel;
    let memo = outcome.session.scores().expect("prepared").detail.memo;
    let c = outcome.counts();
    let resolved = funnel.sketch_rejects as f64;
    let counts = [
        ("extract.candidates", c.candidates as f64),
        ("extract.prune_rate", stats.total_prune_rate()),
        ("corpus.stats.sketch_rejects", resolved),
        ("corpus.stats.list_probes", funnel.list_probes as f64),
        (
            "corpus.stats.sketch_resolve_rate",
            resolved / (resolved + funnel.list_probes as f64).max(1.0),
        ),
        ("core.values.values", c.values as f64),
        ("core.blocking.pairs", c.blocked_pairs as f64),
        ("core.approx.candidate_pairs", memo.candidate_pairs as f64),
        ("core.approx.dp_calls", memo.dp_calls as f64),
        (
            "core.approx.filter_pass_rate",
            memo.dp_calls as f64 / (memo.candidate_pairs as f64).max(1.0),
        ),
        ("core.graph.edges", c.edges as f64),
        ("core.partition.partitions", c.partitions as f64),
        ("core.session.mappings", c.mappings as f64),
        ("core.session.rss_after_extraction_mb", rss_after[0]),
        ("core.session.rss_after_scoring_mb", rss_after[1]),
    ];
    for (name, value) in counts {
        run.record.layer(name, value);
    }
    decompose_extraction(run, &web, &cfg, &outcome, extraction_s);
    micro_layers(run, &web.corpus, &outcome);
}

/// 1000 synthesized pairs, sampled by the seed, must look up to their
/// right value in the published snapshot.
fn check_lookups(run: &mut Run, outcome: &Outcome) {
    let mut rng = Rng::new(run.seed, "batch lookups");
    let snapshot = outcome.service.snapshot();
    let mappings = &outcome.run.mappings;
    let mut wrong = 0;
    const SAMPLES: u64 = 1000;
    for _ in 0..SAMPLES {
        let mi = rng.below(mappings.len());
        let pairs: Vec<(&str, &str)> = mappings[mi].pair_strs().collect();
        let (left, _) = pairs[rng.below(pairs.len())];
        // Pairs are sorted, and the index serves the first right value
        // of a left that (unresolved synonyms aside) has only one.
        let want = pairs.iter().find(|(l, _)| *l == left).map(|&(_, r)| r);
        let got = snapshot.lookup(left).and_then(|hit| hit.forward(mi as u32));
        wrong += u64::from(got != want);
    }
    run.checks.ops(SAMPLES);
    run.checks.fail(
        "batch: synthesized pair looked up to the wrong value",
        wrong,
    );
}

/// What one table contributes to the decomposition.
#[derive(Default)]
struct TableParts {
    /// Columns that pass the structural filter, with their global ids.
    structural: Vec<(usize, GlobalColId)>,
    /// Columns that also pass the coherence filter.
    kept: Vec<usize>,
    funnel: CoherenceFunnel,
    fd_checked: usize,
    candidates: usize,
}

/// Extraction, re-run from outside through its public parts over the
/// same corpus at the same worker count: index build, coherence over
/// every structurally sound column, approximate-FD over every ordered
/// pair of kept columns. What the three do not cover is
/// `extract.other_s`: streaming, sampling, cache writes.
fn decompose_extraction(
    run: &mut Run,
    web: &WebInput,
    cfg: &PipelineConfig,
    outcome: &Outcome,
    extraction_s: f64,
) {
    let corpus = &web.corpus;
    let ecfg: ExtractionConfig = cfg.extraction;
    let mr = MapReduce::new(run.workers);
    let strs = &corpus.interner;
    run.tracer.set_enabled(true);
    let (index_s, coherence_s, fd_s, parts) = run.tracer.span("batch.decompose", |tr| {
        let t = Instant::now();
        let index = tr.call("corpus.index.build", || ValueIndex::build(corpus));
        let index_s = t.elapsed().as_secs_f64();

        // Global column ids count every column of every earlier table.
        let mut first_gid = Vec::with_capacity(corpus.len());
        let mut next = 0u32;
        for table in &corpus.tables {
            first_gid.push(next);
            next += table.width() as u32;
        }
        let tables: Vec<(&Table, u32)> = corpus.tables.iter().zip(first_gid).collect();
        let mut parts: Vec<TableParts> = tr.call("extract.filters.column_passes", || {
            mr.par_map(&tables, |&(table, gid)| TableParts {
                structural: (0..table.width())
                    .filter(|&ci| {
                        column_passes(
                            strs,
                            &table.columns[ci],
                            ecfg.min_distinct,
                            ecfg.max_avg_len,
                        )
                    })
                    .map(|ci| (ci, GlobalColId(gid + ci as u32)))
                    .collect(),
                ..Default::default()
            })
        });

        let t = Instant::now();
        let scored: Vec<(Vec<usize>, CoherenceFunnel)> = tr.call("corpus.stats.coherence", || {
            let work: Vec<(&Table, &TableParts)> = corpus.tables.iter().zip(&parts).collect();
            mr.par_map(&work, |&(table, part)| {
                let mut funnel = CoherenceFunnel::default();
                let kept = part
                    .structural
                    .iter()
                    .filter(|&&(ci, gid)| {
                        let (score, _) = column_coherence_detailed(
                            &index,
                            &table.columns[ci].distinct(),
                            ecfg.coherence,
                            gid,
                            &mut funnel,
                        );
                        score >= ecfg.min_coherence
                    })
                    .map(|&(ci, _)| ci)
                    .collect();
                (kept, funnel)
            })
        });
        let coherence_s = t.elapsed().as_secs_f64();
        for (part, (kept, funnel)) in parts.iter_mut().zip(scored) {
            part.kept = kept;
            part.funnel = funnel;
        }

        let t = Instant::now();
        let checked: Vec<(usize, usize)> = tr.call("extract.filters.fd", || {
            let work: Vec<(&Table, &TableParts)> = corpus.tables.iter().zip(&parts).collect();
            mr.par_map(&work, |&(table, part)| {
                let (mut checked, mut held) = (0, 0);
                for &i in &part.kept {
                    for &j in &part.kept {
                        let (left, right) = (&table.columns[i], &table.columns[j]);
                        // The numeric-left filter runs before the FD
                        // check in extraction too.
                        if i == j || numeric_fraction(strs, left) >= ecfg.max_left_numeric {
                            continue;
                        }
                        checked += 1;
                        held += usize::from(approx_fd_holds(strs, left, right, ecfg.fd_theta).0);
                    }
                }
                (checked, held)
            })
        });
        let fd_s = t.elapsed().as_secs_f64();
        for (part, (checked, held)) in parts.iter_mut().zip(checked) {
            part.fd_checked = checked;
            part.candidates = held;
        }
        (index_s, coherence_s, fd_s, parts)
    });
    run.tracer.set_enabled(false);

    let mut funnel = CoherenceFunnel::default();
    parts.iter().for_each(|p| funnel.merge(&p.funnel));
    let fd_checked: usize = parts.iter().map(|p| p.fd_checked).sum();
    let candidates: usize = parts.iter().map(|p| p.candidates).sum();
    run.checks.check_eq(
        "batch: decomposition's coherence funnel equals the extraction artifact's",
        funnel,
        outcome.extraction().funnel,
    );
    run.checks.check_eq(
        "batch: decomposition's candidate count equals the extraction artifact's",
        candidates,
        outcome.extraction().stats.candidates,
    );
    let layers = [
        ("corpus.index.build_s", index_s),
        ("corpus.stats.coherence_s", coherence_s),
        ("extract.filters.fd_s", fd_s),
        (
            "extract.other_s",
            extraction_s - index_s - coherence_s - fd_s,
        ),
        (
            "extract.filters.fd_pass_rate",
            candidates as f64 / (fd_checked as f64).max(1.0),
        ),
    ];
    for (name, value) in layers {
        run.record.layer(name, value);
    }
}

/// Per-call costs of the leaf layers on this corpus's own strings.
fn micro_layers(run: &mut Run, corpus: &Corpus, outcome: &Outcome) {
    let strings: Vec<&str> = corpus.interner.iter().map(|(_, s)| s).collect();
    let t = Instant::now();
    let mut bytes = 0usize;
    for s in &strings {
        bytes += std::hint::black_box(normalize(s)).len();
    }
    std::hint::black_box(bytes);
    let normalize_ns = t.elapsed().as_nanos() as f64 / strings.len().max(1) as f64;

    // Values adjacent in length are the pairs the approximate matcher's
    // length window lets through to the kernel.
    let space = &outcome.session.values().expect("prepared").space;
    let mut compact: Vec<&str> = (0..space.len() as u32)
        .map(|i| space.compact(mapsynth::NormId(i)))
        .collect();
    compact.sort_by_key(|s| (s.len(), *s));
    const PAIRS: usize = 20_000;
    let params = MatchParams::default();
    let sample = &compact[..compact.len().min(PAIRS + 1)];
    let t = Instant::now();
    let mut within = 0usize;
    for w in sample.windows(2) {
        let bound = fractional_threshold(w[0], w[1], params);
        within += usize::from(edit_distance_within_myers(w[0], w[1], bound).is_some());
    }
    std::hint::black_box(within);
    let myers_ns = t.elapsed().as_nanos() as f64 / (sample.len().max(2) - 1) as f64;

    let items: Vec<u32> = (0..1_000_000).collect();
    let mr = MapReduce::new(run.workers);
    let t = Instant::now();
    let mapped = mr.par_map(&items, |&x| x.wrapping_add(1));
    let par_map_ns = t.elapsed().as_nanos() as f64 / items.len() as f64;
    std::hint::black_box(mapped);

    run.record.layer("text.normalize_corpus_ns", normalize_ns);
    run.record.layer("text.editdist.myers_ns", myers_ns);
    run.record
        .layer("mapreduce.par_map_ns_per_item", par_map_ns);
}
