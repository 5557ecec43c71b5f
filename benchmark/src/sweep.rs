//! The sweep phase: twelve synthesis variants off one prepared session —
//! what the evaluation's methods and the ingestor's publish cadence do.
//! Extraction, blocking and the edit-distance memo are bypassed: only
//! how the cached artifacts are *read* shows here.

use crate::inputs::web_corpus;
use crate::run::{timed_reps, Run, Sampler};
use crate::stats::Summary;
use crate::trace::Tracer;
use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth::SynthesisConfig;
use std::time::Instant;

pub struct SweepScale {
    pub tables: usize,
    /// Sweeps one sample of the untraced run times.
    pub sweeps_per_sample: usize,
    /// Precede every sample of the untraced run with a discarded row of
    /// the grid (see `BatchScale::settle`).
    pub settle: bool,
    /// Seconds of sweeps in the traced run.
    pub traced_budget_s: f64,
}

const THETAS: [f64; 4] = [0.5, 0.7, 0.85, 0.95];
const RESOLVERS: [(Resolver, &str); 3] = [
    (Resolver::Algorithm4, "core.conflict.alg4"),
    (Resolver::MajorityVote, "core.conflict.majority"),
    (Resolver::None, "core.conflict.none"),
];

/// `(edges, partitions, mappings)` of one variant.
type VariantCounts = (usize, usize, usize);

/// One sweep: the 4 × 3 grid through `synthesize`, then one
/// `weights_for` with approximate matching off.
fn sweep(tracer: &mut Tracer, session: &SynthesisSession) -> Vec<VariantCounts> {
    sweep_rows(tracer, session, &THETAS)
}

fn sweep_rows(
    tracer: &mut Tracer,
    session: &SynthesisSession,
    thetas: &[f64],
) -> Vec<VariantCounts> {
    tracer.span("sweep.op", |tr| {
        let base = session.config().synthesis;
        let shared_scoring = session.scores().expect("prepared").elapsed;
        let mut counts = Vec::with_capacity(thetas.len() * RESOLVERS.len());
        for &theta_edge in thetas {
            let cfg = SynthesisConfig { theta_edge, ..base };
            for (resolver, conflict_span) in RESOLVERS {
                tr.span("core.session.synthesize", |tr| {
                    let run = session.synthesize(&cfg, resolver);
                    // `timings.graph` carries the prepare-time scoring
                    // cost on top of this variant's filter pass.
                    tr.reported(&[
                        ("core.graph.build", run.timings.graph - shared_scoring),
                        ("core.partition.partition", run.timings.partition),
                        (conflict_span, run.timings.conflict),
                    ]);
                    counts.push((run.edges, run.partitions, run.mappings.len()));
                });
            }
        }
        let exact = SynthesisConfig {
            approx_matching: false,
            ..base
        };
        let weights = tr.call("core.session.weights_for", || session.weights_for(&exact));
        std::hint::black_box(weights.len());
        counts
    })
}

fn prepared_session(run: &mut Run, tables: usize) -> SynthesisSession {
    let seed = run.seed;
    let web = run.generate(|| web_corpus(tables, seed));
    let workers = run.workers;
    run.setup(|_| {
        let mut session = SynthesisSession::new(PipelineConfig {
            workers,
            ..Default::default()
        });
        session.prepare(&web.corpus);
        session
    })
}

/// What every sweep must reproduce, and what must hold between its
/// variants.
fn check_counts(run: &mut Run, per_sweep: &[Vec<VariantCounts>]) {
    run.checks.check(
        "sweep: per-variant counts repeat across sweeps",
        per_sweep.windows(2).all(|w| w[0] == w[1]),
    );
    // Variant order is θ-major, resolver-minor; Algorithm4 first, None last.
    let of = |theta: usize, resolver: usize| per_sweep[0][theta * RESOLVERS.len() + resolver];
    run.checks.check(
        "sweep: edges do not increase with theta_edge",
        (1..THETAS.len()).all(|t| of(t, 0).0 <= of(t - 1, 0).0),
    );
    run.checks.check(
        "sweep: Resolver::None and Algorithm4 yield equally many mappings",
        (0..THETAS.len()).all(|t| of(t, 0).2 == of(t, 2).2),
    );
}

/// The untraced run's sweep phase: one sample is `sweeps_per_sample`
/// timed sweeps.
pub struct SweepSampler {
    session: SynthesisSession,
    sweeps_per_sample: usize,
    settle: bool,
    times: Vec<f64>,
    per_sweep: Vec<Vec<VariantCounts>>,
}

impl SweepSampler {
    pub fn new(run: &mut Run, scale: &SweepScale) -> Self {
        Self {
            session: prepared_session(run, scale.tables),
            sweeps_per_sample: scale.sweeps_per_sample,
            settle: scale.settle,
            times: Vec::new(),
            per_sweep: Vec::new(),
        }
    }
}

impl Sampler for SweepSampler {
    /// The discarded warm-up is one row of the grid — the default
    /// threshold under the three resolvers — a quarter of a sweep.
    fn warm_up(&mut self, run: &mut Run) {
        sweep_rows(&mut run.tracer, &self.session, &THETAS[2..3]);
    }

    fn sample(&mut self, run: &mut Run) -> f64 {
        if self.settle {
            self.warm_up(run);
        }
        let mut spent = 0.0;
        for _ in 0..self.sweeps_per_sample {
            let t = Instant::now();
            let counts = sweep(&mut run.tracer, &self.session);
            let secs = t.elapsed().as_secs_f64();
            self.times.push(secs);
            self.per_sweep.push(counts);
            spent += secs;
        }
        spent
    }

    fn finish(self: Box<Self>, run: &mut Run) {
        let variants = THETAS.len() * RESOLVERS.len();
        run.checks.ops((self.times.len() * (variants + 1)) as u64);
        check_counts(run, &self.per_sweep);
        run.record.e2e("sweep_s", Summary::of(&self.times));
    }
}

/// The traced run's sweep phase: traced sweeps.
pub fn traced(run: &mut Run, scale: &SweepScale) {
    let session = prepared_session(run, scale.tables);
    let tracer = &mut run.tracer;
    let mut per_rep: Vec<Vec<VariantCounts>> = Vec::new();
    let spans_before = tracer.span_count();
    let times = timed_reps(scale.traced_budget_s, 1, |rep| {
        // The warm-up leaves no spans behind.
        tracer.set_enabled(rep.is_some());
        let t = Instant::now();
        let counts = sweep(tracer, &session);
        let secs = t.elapsed().as_secs_f64();
        if rep.is_some() {
            per_rep.push(counts);
        }
        secs
    });
    let spans = tracer.span_count() - spans_before;
    tracer.set_enabled(false);

    let variants = THETAS.len() * RESOLVERS.len();
    run.checks.ops((times.len() * (variants + 1)) as u64);
    check_counts(run, &per_rep);
    let counts = &per_rep[0];
    let of = |theta: usize, resolver: usize| counts[theta * RESOLVERS.len() + resolver];

    let traced_sweeps = times.len() as f64;
    let t = &run.tracer;
    // Milliseconds per sweep: the span's total over the traced sweeps.
    let per_sweep_ms = |name: &str| t.secs(name).iter().sum::<f64>() * 1e3 / traced_sweeps;
    let conflict: Vec<f64> = RESOLVERS
        .iter()
        .map(|(_, span)| per_sweep_ms(span))
        .collect();
    let layers = [
        (
            "core.session.weights_for_ms",
            per_sweep_ms("core.session.weights_for"),
        ),
        ("core.graph.build_ms", per_sweep_ms("core.graph.build")),
        (
            "core.partition.partition_ms",
            per_sweep_ms("core.partition.partition"),
        ),
        ("core.conflict.resolve_ms", conflict.iter().sum()),
        ("core.conflict.alg4_ms", conflict[0]),
        ("core.conflict.majority_ms", conflict[1]),
        ("core.conflict.none_ms", conflict[2]),
        ("sweep.unattributed_share", t.unattributed_share("sweep.op")),
        (
            "sweep.trace_overhead",
            Tracer::estimated_overhead(spans, times.iter().sum()),
        ),
    ];
    for (name, value) in layers {
        run.record.layer(name, value);
    }
    const EDGES: [&str; 4] = [
        "core.graph.edges.t50",
        "core.graph.edges.t70",
        "core.graph.edges.t85",
        "core.graph.edges.t95",
    ];
    const PARTITIONS: [&str; 4] = [
        "core.partition.partitions.t50",
        "core.partition.partitions.t70",
        "core.partition.partitions.t85",
        "core.partition.partitions.t95",
    ];
    const MAPPINGS: [&str; 4] = [
        "core.session.mappings.t50",
        "core.session.mappings.t70",
        "core.session.mappings.t85",
        "core.session.mappings.t95",
    ];
    for theta in 0..THETAS.len() {
        let (edges, partitions, mappings) = of(theta, 0);
        run.record.layer(EDGES[theta], edges as f64);
        run.record.layer(PARTITIONS[theta], partitions as f64);
        run.record.layer(MAPPINGS[theta], mappings as f64);
    }
}
