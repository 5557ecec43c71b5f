//! The serve phase: the application-facing read path. A snapshot of raw
//! mappings far larger than the last-level cache, a stream of batched
//! key lookups (phase A) and a stream of column requests in the shape
//! of the three applications (phase B). One thread, closed loop.

use crate::inputs::{serve_input, Probe, ServeInput, REQUEST_WIDTH};
use crate::run::{rss_mb, timed_reps, trace_overhead, Run, Sampler};
use crate::stats::{highest_supported, median, tail_percentile, Summary};
use crate::trace::Tracer;
use mapsynth_serve::{IndexSnapshot, MappingService, SnapshotBuilder};
use mapsynth_text::normalize;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct ServeScale {
    pub mappings: usize,
    pub pairs: usize,
    /// Distinct probe keys; one phase-A repetition looks each up
    /// `passes` times.
    pub probes: usize,
    pub passes: usize,
    /// Phase-B requests one sample of the untraced run times, each on
    /// its own.
    pub stretch: usize,
    /// Precede every sample's lookups and requests with a short
    /// discarded stretch of each (see `BatchScale::settle`).
    pub settle: bool,
    /// Phase-A repetitions, each followed by a stretch of requests, that
    /// one sample of the untraced run takes.
    pub reps_per_sample: usize,
    /// Snapshot builds the untraced run times in its warm-up (full
    /// scale; at probe scale every sample has one) and the traced run
    /// makes.
    pub builds: usize,
    /// Seconds of phase-A repetitions in the traced run.
    pub traced_lookup_budget_s: f64,
    /// Phase-B requests of the traced run, half of them with spans;
    /// enough that either half's p99 has ten samples beyond it.
    pub traced_requests: usize,
}

/// Keys per `lookup_many` call in phase A.
const BATCH: usize = 256;
/// Distinct column requests phase B rotates through.
const DISTINCT_REQUESTS: usize = 4096;
/// Requests per traced / untraced stretch of phase B in the traced run.
const STRETCH: usize = 1000;
/// The snapshot that fits in cache, for `lookup_qps_small`.
const SMALL_MAPPINGS: usize = 20;

/// `add_raw` per mapping, `build`, `publish`: a served snapshot.
fn build(tracer: &mut Tracer, input: &ServeInput) -> MappingService {
    tracer.span("serve.build", |tr| {
        let mut builder = SnapshotBuilder::new();
        tr.call("serve.snapshot.add", || {
            for (i, pairs) in input.mappings.iter().enumerate() {
                builder.add_raw(Some(format!("mapping {i}")), pairs);
            }
        });
        let snapshot = tr.call("serve.snapshot.finalize", || builder.build());
        let service = MappingService::new();
        tr.call("serve.service.install", || service.publish(snapshot));
        service
    })
}

/// One pass of every probe through `lookup_many`; returns how many
/// answers were wrong (a present key without its right value, an absent
/// key found).
fn lookup_pass(
    tracer: &mut Tracer,
    snapshot: &IndexSnapshot,
    probes: &[Probe],
    keys: &[&str],
) -> u64 {
    let mut wrong = 0u64;
    for (batch, expected) in keys.chunks(BATCH).zip(probes.chunks(BATCH)) {
        let hits = tracer.call("serve.snapshot.lookup_many", || snapshot.lookup_many(batch));
        for (hit, probe) in hits.iter().zip(expected) {
            let ok = match (&probe.expect, hit) {
                (None, None) => true,
                (Some(want), Some(hit)) => hit.translations().any(|(_, r)| r == want),
                _ => false,
            };
            wrong += u64::from(!ok);
        }
    }
    wrong
}

/// Phase A on `snapshot`: timed repetitions of `passes` passes; returns
/// keys per second of each.
fn lookup_reps(
    tracer: &mut Tracer,
    snapshot: &IndexSnapshot,
    probes: &[Probe],
    passes: usize,
    budget_s: f64,
    min_reps: usize,
    wrong: &mut u64,
) -> Vec<f64> {
    let keys: Vec<&str> = probes.iter().map(|p| p.raw.as_str()).collect();
    let per_rep = (keys.len() * passes) as f64;
    let secs = timed_reps(budget_s, min_reps, |_| {
        let t = Instant::now();
        tracer.span("serve.lookup_rep", |tr| {
            for _ in 0..passes {
                *wrong += lookup_pass(tr, snapshot, probes, &keys);
            }
        });
        t.elapsed().as_secs_f64()
    });
    secs.iter().map(|s| per_rep / s).collect()
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Translate,
    Rank,
    Autocorrect,
}

const KINDS: [(Kind, &str); 3] = [
    (Kind::Translate, "serve.snapshot.translate_column"),
    (Kind::Rank, "serve.snapshot.rank_by_containment"),
    (Kind::Autocorrect, "serve.snapshot.autocorrect"),
];

/// One column request; returns whether the answer covers the
/// three-quarters of the column that the snapshot holds.
fn request(tracer: &mut Tracer, snapshot: &IndexSnapshot, kind: usize, column: &[&str]) -> bool {
    let served = REQUEST_WIDTH * 3 / 4;
    tracer.span("serve.request", |tr| match KINDS[kind] {
        (Kind::Translate, span) => tr
            .call(span, || snapshot.translate_column(column))
            .is_some_and(|t| t.covered == served),
        (Kind::Rank, span) => tr
            .call(span, || snapshot.rank_by_containment(column))
            .first()
            .is_some_and(|&(_, contained)| contained == served),
        (Kind::Autocorrect, span) => {
            tr.call(span, || {
                column
                    .iter()
                    .filter(|v| snapshot.lookup(v).is_some())
                    .count()
            }) == served
        }
    })
}

/// `value_count` of a snapshot built from `input`: two distinct values
/// per generated pair.
fn check_values(run: &mut Run, snapshot: &IndexSnapshot, scale: &ServeScale) {
    run.checks.check_eq(
        "serve: the snapshot holds every generated value",
        snapshot.value_count(),
        scale.mappings * scale.pairs * 2,
    );
}

/// The untraced run's serve phase. One sample is `reps_per_sample`
/// times a phase-A repetition and a stretch of phase-B requests.
pub struct ServeSampler {
    input: ServeInput,
    scale: ServeScale,
    /// `None` only while a build replaces it.
    service: Option<MappingService>,
    build_s: Vec<f64>,
    qps: Vec<f64>,
    latency_us: Vec<f64>,
    /// p99 of each sample's stretch of requests.
    stretch_p99_us: Vec<f64>,
    next_request: usize,
    wrong: u64,
    uncovered: u64,
}

impl ServeSampler {
    pub fn new(run: &mut Run, scale: &ServeScale) -> Self {
        let seed = run.seed;
        let distinct = DISTINCT_REQUESTS.min(scale.stretch * 4);
        let input =
            run.generate(|| serve_input(scale.mappings, scale.pairs, scale.probes, distinct, seed));
        // The first build is the warm-up of the build timings; what it
        // builds serves until the first timed build replaces it.
        let service = Some(build(&mut run.tracer, &input));
        Self {
            input,
            scale: *scale,
            service,
            build_s: Vec::new(),
            qps: Vec::new(),
            latency_us: Vec::new(),
            stretch_p99_us: Vec::new(),
            next_request: 0,
            wrong: 0,
            uncovered: 0,
        }
    }

    fn snapshot(&self) -> std::sync::Arc<IndexSnapshot> {
        self.service
            .as_ref()
            .expect("a snapshot is served")
            .snapshot()
    }

    /// One phase-A repetition: `passes` passes of every probe.
    fn lookups(&mut self, run: &mut Run) -> f64 {
        let snapshot = self.snapshot();
        let keys: Vec<&str> = self.input.probes.iter().map(|p| p.raw.as_str()).collect();
        let t = Instant::now();
        for _ in 0..self.scale.passes {
            self.wrong += lookup_pass(&mut run.tracer, &snapshot, &self.input.probes, &keys);
        }
        let secs = t.elapsed().as_secs_f64();
        self.qps
            .push((keys.len() * self.scale.passes) as f64 / secs);
        secs
    }

    fn requests(&mut self, run: &mut Run, count: usize, record: bool) -> f64 {
        let snapshot = self.snapshot();
        let columns: Vec<Vec<&str>> = self
            .input
            .requests
            .iter()
            .map(|c| c.iter().map(String::as_str).collect())
            .collect();
        let mut spent = 0.0;
        for _ in 0..count {
            let i = self.next_request;
            self.next_request += 1;
            let t = Instant::now();
            let ok = request(
                &mut run.tracer,
                &snapshot,
                i % KINDS.len(),
                &columns[i % columns.len()],
            );
            let secs = t.elapsed().as_secs_f64();
            if record {
                self.latency_us.push(secs * 1e6);
                self.uncovered += u64::from(!ok);
                spent += secs;
            }
        }
        spent
    }
}

impl ServeSampler {
    /// A snapshot build replacing the served one, timed.
    fn timed_build(&mut self, run: &mut Run) -> f64 {
        // The replaced snapshot is freed first, outside the timing: two
        // of them at once would double the peak memory.
        drop(self.service.take());
        let t = Instant::now();
        self.service = Some(build(&mut run.tracer, &self.input));
        let secs = t.elapsed().as_secs_f64();
        self.build_s.push(secs);
        secs
    }

    /// A discarded pass of lookups and stretch of requests.
    fn settle(&mut self, run: &mut Run) {
        let snapshot = self.snapshot();
        let keys: Vec<&str> = self.input.probes.iter().map(|p| p.raw.as_str()).collect();
        lookup_pass(&mut run.tracer, &snapshot, &self.input.probes, &keys);
        self.requests(run, self.scale.stretch.min(STRETCH), false);
    }
}

impl Sampler for ServeSampler {
    /// At full scale the timed builds come first, here: each frees and
    /// reallocates the whole snapshot (290 MB in 1.6 M pieces), and the
    /// heap that leaves behind slows every other phase of the process —
    /// the probe-scale batch operation took 0.07 s before the first
    /// rebuild and 0.11 s from the third on, a recovery 0.2 s and 0.4 s.
    /// With the rebuilds spread over the samples, the other phases'
    /// medians fell between the two states, on one side or the other.
    fn warm_up(&mut self, run: &mut Run) {
        for _ in 0..self.scale.builds {
            self.timed_build(run);
        }
        self.settle(run);
    }

    fn sample(&mut self, run: &mut Run) -> f64 {
        let mut spent = 0.0;
        if self.scale.settle {
            // At probe scale a build is cheap and every sample has one.
            spent += self.timed_build(run);
            self.settle(run);
        }
        for _ in 0..self.scale.reps_per_sample {
            spent += self.lookups(run);
            let first = self.latency_us.len();
            spent += self.requests(run, self.scale.stretch, true);
            // NaN (and a failed run) if a stretch is too short for a p99.
            self.stretch_p99_us
                .push(tail_percentile(&self.latency_us[first..], 0.99).unwrap_or(f64::NAN));
        }
        spent
    }

    fn finish(self: Box<Self>, run: &mut Run) {
        check_values(run, &self.snapshot(), &self.scale);
        let looked_up = self.qps.len() * self.scale.passes * self.input.probes.len();
        run.checks
            .ops((self.build_s.len() + looked_up + self.latency_us.len()) as u64);
        run.checks
            .fail("serve: lookup answered wrongly", self.wrong);
        run.checks.fail(
            "serve: request did not cover the served part of its column",
            self.uncovered,
        );
        run.record
            .e2e("snapshot_build_s", Summary::of(&self.build_s));
        run.record.e2e("lookup_qps", Summary::of(&self.qps));
        run.record
            .e2e("request_p50_us", Summary::of(&self.latency_us));
        // The median over the stretches of each stretch's p99: one
        // stretch that met a slow spell of the machine does not set it.
        run.record
            .e2e("request_p99_us", Summary::of(&self.stretch_p99_us));
    }
}

/// The traced run's serve phase: traced and untraced builds and
/// stretches of requests in alternation, then the per-call loops.
pub fn traced(run: &mut Run, scale: &ServeScale) {
    let requests = scale.traced_requests;
    assert!(
        highest_supported(requests / 2) >= Some(0.99),
        "{requests} requests cannot support a p99"
    );
    let seed = run.seed;
    let distinct = DISTINCT_REQUESTS.min(requests);
    let input =
        run.generate(|| serve_input(scale.mappings, scale.pairs, scale.probes, distinct, seed));

    // Builds: every other one is traced.
    let mut service: Option<MappingService> = None;
    let mut bytes_per_value = 0.0;
    for i in 0..scale.builds.max(2) {
        drop(service.take());
        let before = rss_mb();
        run.tracer.set_enabled(i % 2 == 1);
        let built = build(&mut run.tracer, &input);
        if i == 0 {
            let values = built.snapshot().value_count().max(1);
            bytes_per_value = (rss_mb() - before) * 1024.0 * 1024.0 / values as f64;
        }
        service = Some(built);
    }
    run.tracer.set_enabled(false);
    let service = service.expect("at least two builds");
    let snapshot = service.snapshot();
    run.checks.ops(scale.builds.max(2) as u64);
    check_values(run, &snapshot, scale);

    // Phase A, traced throughout: a span per batch.
    let before = snapshot.stats();
    let mut wrong = 0u64;
    run.tracer.set_enabled(true);
    lookup_reps(
        &mut run.tracer,
        &snapshot,
        &input.probes,
        scale.passes,
        scale.traced_lookup_budget_s,
        2,
        &mut wrong,
    );
    run.tracer.set_enabled(false);
    let after = snapshot.stats();
    let looked_up = (after.hits + after.misses) - (before.hits + before.misses);
    run.checks.ops(looked_up);
    run.checks.fail("serve: lookup answered wrongly", wrong);
    let hit_rate = (after.hits - before.hits) as f64 / looked_up.max(1) as f64;
    run.checks.check(
        "serve: half of the probes hit",
        (hit_rate - 0.5).abs() < 1e-9,
    );

    // Phase B: stretches with and without spans in alternation.
    let columns: Vec<Vec<&str>> = input
        .requests
        .iter()
        .map(|c| c.iter().map(String::as_str).collect())
        .collect();
    let mut latency_us = Vec::with_capacity(requests);
    let mut with_spans = Vec::with_capacity(requests);
    let mut uncovered = 0u64;
    for (i, column) in columns.iter().take(STRETCH).enumerate() {
        request(&mut run.tracer, &snapshot, i % KINDS.len(), column);
    }
    for i in 0..requests {
        let spans = (i / STRETCH) % 2 == 1;
        if i % STRETCH == 0 {
            run.tracer.set_enabled(spans);
        }
        let column = &columns[i % columns.len()];
        let t = Instant::now();
        let ok = request(&mut run.tracer, &snapshot, i % KINDS.len(), column);
        latency_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        with_spans.push(spans);
        uncovered += u64::from(!ok);
    }
    run.tracer.set_enabled(false);
    run.checks.ops(requests as u64);
    run.checks.fail(
        "serve: request did not cover the served part of its column",
        uncovered,
    );

    // Per-call costs, each one loop over the probe set.
    let probes = &input.probes;
    let per_call_ns = |f: &mut dyn FnMut(&Probe) -> bool, over: &[&Probe]| {
        let t = Instant::now();
        let mut found = 0usize;
        for p in over {
            found += usize::from(f(p));
        }
        std::hint::black_box(found);
        t.elapsed().as_nanos() as f64 / over.len().max(1) as f64
    };
    let all: Vec<&Probe> = probes.iter().collect();
    let norms: Vec<String> = probes.iter().map(|p| normalize(&p.raw)).collect();
    let by_presence = |present: bool| -> Vec<usize> {
        (0..probes.len())
            .filter(|&i| probes[i].expect.is_some() == present)
            .collect()
    };
    let norm_ns = |indices: &[usize]| {
        let t = Instant::now();
        let mut found = 0usize;
        for &i in indices {
            found += usize::from(snapshot.lookup_norm(&norms[i]).is_some());
        }
        std::hint::black_box(found);
        t.elapsed().as_nanos() as f64 / indices.len().max(1) as f64
    };
    let normalize_ns = per_call_ns(&mut |p| !normalize(&p.raw).is_empty(), &all);
    let lookup_ns = per_call_ns(&mut |p| snapshot.lookup(&p.raw).is_some(), &all);
    let everything: Vec<usize> = (0..probes.len()).collect();
    let lookup_norm_ns = norm_ns(&everything);
    let hit_ns = norm_ns(&by_presence(true));
    let miss_ns = norm_ns(&by_presence(false));

    // The same phase A on a snapshot that fits in cache, and on the
    // large one from two threads at once.
    let small_input = serve_input(
        SMALL_MAPPINGS,
        scale.pairs,
        scale.probes.min(20_000),
        1,
        seed,
    );
    let small = build(&mut run.tracer, &small_input);
    let mut small_wrong = 0u64;
    let small_qps = lookup_reps(
        &mut run.tracer,
        &small.snapshot(),
        &small_input.probes,
        scale.passes,
        0.0,
        3,
        &mut small_wrong,
    );
    run.checks.fail(
        "serve: lookup answered wrongly (small snapshot)",
        small_wrong,
    );
    let keys: Vec<&str> = probes.iter().map(|p| p.raw.as_str()).collect();
    let t = Instant::now();
    let wrong_2t: u64 = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (snapshot, keys) = (&snapshot, &keys);
                s.spawn(move || {
                    let mut off = Tracer::new(false);
                    (0..scale.passes)
                        .map(|_| lookup_pass(&mut off, snapshot, probes, keys))
                        .sum::<u64>()
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|r| r.join().expect("reader thread"))
            .sum()
    });
    let qps_2t = (2 * scale.passes * keys.len()) as f64 / t.elapsed().as_secs_f64();
    run.checks
        .fail("serve: lookup answered wrongly (two readers)", wrong_2t);

    let tr = &run.tracer;
    let span_s = |name: &str| median(&tr.secs(name));
    let batch_ns: Vec<f64> = tr
        .secs("serve.snapshot.lookup_many")
        .iter()
        .map(|s| s * 1e9 / BATCH as f64)
        .collect();
    let layers = [
        ("text.normalize_key_ns", normalize_ns),
        ("serve.snapshot.lookup_ns", lookup_ns),
        ("serve.snapshot.lookup_norm_ns", lookup_norm_ns),
        ("serve.snapshot.hit_ns", hit_ns),
        ("serve.snapshot.miss_ns", miss_ns),
        ("serve.snapshot.lookup_many_ns_per_key", median(&batch_ns)),
        (
            "serve.snapshot.translate_column_us",
            span_s(KINDS[0].1) * 1e6,
        ),
        (
            "serve.snapshot.rank_by_containment_us",
            span_s(KINDS[1].1) * 1e6,
        ),
        ("serve.snapshot.autocorrect_us", span_s(KINDS[2].1) * 1e6),
        ("serve.snapshot.add_s", span_s("serve.snapshot.add")),
        (
            "serve.snapshot.finalize_s",
            span_s("serve.snapshot.finalize"),
        ),
        ("serve.service.install_s", span_s("serve.service.install")),
        ("serve.snapshot.bytes_per_value", bytes_per_value),
        ("serve.snapshot.hit_rate", hit_rate),
        ("serve.snapshot.lookup_qps_small", median(&small_qps)),
        ("serve.snapshot.lookup_qps_2t", qps_2t),
        (
            "serve.unattributed_share",
            tr.unattributed_share("serve.request"),
        ),
        (
            "serve.trace_overhead",
            trace_overhead(&latency_us, &with_spans),
        ),
    ];
    for (name, value) in layers {
        run.record.layer(name, value);
    }
}
