//! Records the pipeline baseline on deterministic generated corpora —
//! the batch run with per-stage wall-clock and peak RSS, serving
//! throughput, the standard 5% delta, and the sustained-stream,
//! fault-injection and crash-recovery tiers — as JSON on stdout and
//! optionally into a file; with `--check`, re-runs one tier and
//! compares it with a committed file instead (usage and the CI
//! invocations: `crates/bench/README.md`).
//!
//! Each tier is one function returning a [`Record`] whose fields carry
//! their check rule. The baseline runs the stream, fault and recovery
//! tiers, and the scale tier each of its points, in a child process of
//! this binary, so each one's RSS probes read only its own footprint.

use mapsynth::pipeline::{PipelineConfig, Resolver, SessionRun, SynthesisSession};
use mapsynth::SynthesizedMapping;
use mapsynth_bench::fault::{run_fault_stream, FAULT_STREAM_DELTAS, FAULT_STREAM_TABLES};
use mapsynth_bench::harness::{
    check, get, parse, parse_args, render, scale_point, Args, Field, Record, Tier, Value, USAGE,
};
use mapsynth_bench::recovery::{run_recovery_matrix, RECOVERY_DELTAS, RECOVERY_TABLES};
use mapsynth_bench::{
    bench_corpus, bench_delta, bench_stream, current_rss_kb, format_edges, peak_rss_kb,
    post_delta_edge_dump, run_delta_stream, STREAM_DELTAS, STREAM_TABLES,
};
use mapsynth_corpus::Corpus;
use mapsynth_serve::{MappingService, SnapshotBuilder};
use std::process::{exit, Command, Stdio};
use std::time::{Duration, Instant};

/// Lookups issued by the serving throughput measurement.
const SERVING_LOOKUPS: usize = 200_000;
/// Batch size fed to `lookup_many` (amortizes shard dispatch).
const SERVING_BATCH: usize = 256;
/// Probe keys sampled from the served mappings (half the probe set;
/// the other half are guaranteed misses, a 50% target hit rate).
const SERVING_KEYS: usize = 2000;
/// Wall-clock ceiling margin: generous enough to absorb machine
/// variance in CI, tight enough that a complexity-class regression
/// (linear → quadratic between committed points) still trips it.
const MS_CEILING_MARGIN: f64 = 4.0;
/// RSS ceiling margin for the stream tier's post-compaction reading:
/// resident size varies far less across machines than timings do.
const RSS_CEILING_MARGIN: f64 = 2.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mb(kb: u64) -> f64 {
    kb as f64 / 1024.0
}

/// The `VmHWM` reading (MiB) the stage probe took after `stage`.
fn rss_after(stage_rss: &[(&str, u64)], stage: &str) -> f64 {
    let reading = stage_rss.iter().find(|(s, _)| *s == stage);
    reading.map_or(0.0, |&(_, kb)| mb(kb))
}

/// Nearest-rank percentile over a sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The session's default synthesis variant.
fn synthesize(session: &SynthesisSession) -> SessionRun {
    session.synthesize(&session.config().synthesis.clone(), Resolver::Algorithm4)
}

/// Run this binary again with `args` and read back the record it prints.
fn child(args: &[&str]) -> Vec<Field> {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn a child tier");
    assert!(out.status.success(), "child tier {args:?} failed");
    let text = String::from_utf8(out.stdout).expect("child record is UTF-8");
    parse(&text).unwrap_or_else(|e| panic!("child tier {args:?} printed no record: {e}"))
}

/// Serving stage: publish the run's mappings into a `MappingService`
/// and drive batched lookups from one thread against the snapshot.
fn serving(mappings: &[SynthesizedMapping]) -> Record {
    let service = MappingService::new();
    let t = Instant::now();
    let snapshot = SnapshotBuilder::from_synthesized(mappings).build();
    let build_ms = ms(t.elapsed());
    service.publish(snapshot);
    let snap = service.snapshot();

    // Probe set: the served mappings' first left values (hits), then
    // as many absent keys (misses).
    let lefts = mappings.iter().flat_map(|m| m.pair_strs()).map(|(l, _)| l);
    let mut keys: Vec<String> = lefts.take(SERVING_KEYS).map(str::to_string).collect();
    keys.extend((0..keys.len()).map(|i| format!("absent probe {i}")));
    let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    let (mut done, t) = (0, Instant::now());
    for chunk in key_refs.chunks(SERVING_BATCH).cycle() {
        if done >= SERVING_LOOKUPS {
            break;
        }
        snap.lookup_many(chunk);
        done += chunk.len();
    }
    let qps = done as f64 / t.elapsed().as_secs_f64();
    let stats = snap.stats();
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    Record::new()
        .info("shards", snap.shard_count())
        .info("values", snap.value_count())
        .info("mappings", snap.mapping_count())
        .num("snapshot_build_ms", build_ms, 3)
        .info("probe_keys", key_refs.len())
        .info("lookups", SERVING_LOOKUPS)
        .num("single_thread_qps", qps, 0)
        .num("hit_rate", hit_rate, 3)
}

/// The incremental stage: apply the standard 5% delta through
/// `session.apply_delta`, re-derive the synthesis variant, publish the
/// post-delta mappings incrementally, and time a full rebuild on the
/// post-delta corpus — asserting that it yields the same mappings.
fn delta(
    session: &mut SynthesisSession,
    corpus: &mut Corpus,
    tables: usize,
    base: &[SynthesizedMapping],
) -> Record {
    let delta = bench_delta(corpus, tables);
    let report = session.apply_delta(corpus, &delta).expect("valid delta");
    let t = Instant::now();
    let run = synthesize(session);
    let synth_ms = ms(t.elapsed());

    let service = MappingService::new();
    service.publish(SnapshotBuilder::from_synthesized(base).build());
    let t = Instant::now();
    let (_, serve) = service.publish_delta(&run.mappings);
    let publish_delta_ms = ms(t.elapsed());

    let live = session.live_corpus(corpus);
    let t = Instant::now();
    let mut fresh = SynthesisSession::new(PipelineConfig::default());
    let fresh_out = fresh.run(&live);
    let rebuild_ms = ms(t.elapsed());
    let pairs =
        |m: &[SynthesizedMapping]| -> Vec<_> { m.iter().map(|m| m.materialize_pairs()).collect() };
    let same = pairs(&run.mappings) == pairs(&fresh_out.mappings);
    assert!(same, "incremental delta diverged from the fresh rebuild");

    let timings = report.timings;
    let apply_ms = ms(timings.total);
    let apply = Record::new()
        .num("extraction", ms(timings.extraction), 3)
        .num("values", ms(timings.values), 3)
        .num("blocking", ms(timings.blocking), 3)
        .num("scoring", ms(timings.scoring), 3)
        .num("total", apply_ms, 3);
    let publish = Record::new()
        .info("publish_added", serve.added)
        .info("publish_removed", serve.removed)
        .info("publish_unchanged", serve.unchanged)
        .info("rebuilt_shards", serve.rebuilt_shards)
        .info("total_shards", serve.total_shards)
        .num("publish_delta_ms", publish_delta_ms, 3);
    Record::new()
        .info("delta_removed_tables", report.tables_removed)
        .info("delta_added_tables", report.tables_added)
        .info("delta_reordered", usize::from(report.reordered))
        .info("delta_coherence_flips", report.coherence_flips)
        .exact("delta_candidates", session.live_tables())
        .exact("delta_edges", run.edges)
        .exact("delta_partitions", run.partitions)
        .exact("delta_mappings", run.mappings.len())
        .info("delta_pairs_kept", report.pairs_kept)
        .info("delta_pairs_added", report.pairs_added)
        .info("delta_pairs_removed", report.pairs_removed)
        .info("delta_memo_dp_calls", report.memo_dp_calls)
        .obj("delta_apply_ms", apply)
        .num("delta_synth_ms", synth_ms, 3)
        .num("full_rebuild_ms", rebuild_ms, 3)
        .num("delta_speedup", rebuild_ms / (apply_ms + synth_ms), 2)
        .obj("delta_serve", publish)
}

/// The batch baseline at `tables` tables: prepare with the stage RSS
/// probe attached, synthesize, then the serving and delta stages on
/// the result. The post-delta golden edge dump (200 tables) rides
/// along for `--check`.
fn baseline(tables: usize) -> Record {
    let mut wc = bench_corpus(tables);
    let cfg = PipelineConfig::default();
    let requested_workers = cfg.workers;
    let mut session = SynthesisSession::new(cfg);
    let rss_start = peak_rss_kb();
    let mut stage_rss = Vec::new();
    session.prepare_with(&wc.corpus, |stage| stage_rss.push((stage, peak_rss_kb())));
    let output = session.run(&wc.corpus);
    // Read the memo counters before the delta stage grows the memo:
    // the committed ceilings describe the batch build.
    let detail = session.scores().expect("prepared").detail;
    let serving = serving(&output.mappings);
    let delta = delta(&mut session, &mut wc.corpus, tables, &output.mappings);
    let rss_end = peak_rss_kb();
    // The coherence funnel counts the build and every delta since.
    let funnel = session.extraction().expect("prepared").funnel;

    let t = output.timings;
    let stage_ms = Record::new()
        .num("extraction", ms(t.extraction), 3)
        .num("value_space", ms(t.value_space), 3)
        .num("graph", ms(t.graph), 3)
        .num("partition", ms(t.partition), 3)
        .num("conflict", ms(t.conflict), 3)
        .num("total", ms(t.total), 3);
    let memo = detail.memo;
    let graph_detail = Record::new()
        .num("blocking_ms", ms(detail.blocking), 3)
        .num("index_build_ms", ms(detail.index_build), 3)
        .num("approx_memo_ms", ms(detail.approx_memo), 3)
        .num("merge_join_ms", ms(detail.merge_join), 3)
        .info("memo_values", memo.values)
        .at_most("memo_candidate_pairs", memo.candidate_pairs)
        .info("memo_sig_mask_rejects", memo.sig_mask_rejects)
        .info("memo_sig_hist_rejects", memo.sig_hist_rejects)
        .at_most("memo_dp_calls", memo.dp_calls)
        .info("memo_matched_pairs", memo.matched_pairs);
    let peak_rss = Record::new()
        .num("start", mb(rss_start), 1)
        .num("extraction", rss_after(&stage_rss, "extraction"), 1)
        .num("value_space", rss_after(&stage_rss, "value_space"), 1)
        .num("scoring", rss_after(&stage_rss, "scoring"), 1)
        .num("end", mb(rss_end), 1);
    let available = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = Record::new()
        .info("requested", requested_workers)
        .info("effective", session.workers())
        .info("available", available);
    Record::new()
        .info("corpus_tables", tables)
        .exact("candidates", output.candidates)
        .exact("edges", output.edges)
        .exact("partitions", output.partitions)
        .exact("mappings", output.mappings.len())
        .info("coh_sketch_rejects", funnel.sketch_rejects)
        .info("coh_list_probes", funnel.list_probes)
        .obj("stage_ms", stage_ms)
        .obj("graph_detail", graph_detail)
        .obj("stage_peak_rss_mb", peak_rss)
        .obj("workers", workers)
        .obj("serving", serving)
        .obj("delta_detail", delta)
        .golden(
            "delta_edges_200.txt",
            200,
            "--delta",
            post_delta_edge_dump(200),
        )
}

/// The sustained-stream tier: the full deterministic row-delta stream,
/// self-checked against fresh rebuilds at its midpoint and end and
/// published every `STREAM_PUBLISH_EVERY` deltas (the first publish
/// full, the rest incremental); then the final counts, the per-delta
/// latency distribution and the RSS probes.
fn stream() -> Record {
    let service = MappingService::new();
    let (mut publishes, mut publish_ms) = (0usize, 0.0);
    let out = run_delta_stream(STREAM_TABLES, STREAM_DELTAS, true, |mappings| {
        let t = Instant::now();
        if publishes == 0 {
            service.publish(SnapshotBuilder::from_synthesized(mappings).build());
        } else {
            service.publish_delta(mappings);
        }
        publish_ms += ms(t.elapsed());
        publishes += 1;
    });
    let session = &out.session;
    let run = synthesize(session);
    let memo_values = session.scores().expect("prepared").detail.memo.values;
    let dump = format_edges(&session.graph(&session.config().synthesis));
    let mut apply = out.apply_ms.clone();
    apply.sort_by(f64::total_cmp);
    let (end_rss, end_hwm) = (mb(current_rss_kb()), mb(peak_rss_kb()));
    let compacted = out.post_compact_vmrss_mb;
    let rss = if compacted > 0.0 { compacted } else { end_rss };
    let (p99, max) = (
        percentile(&apply, 0.99),
        apply.last().copied().unwrap_or(0.0),
    );
    let detail = Record::new()
        .info("stream_tables", STREAM_TABLES)
        .exact("stream_deltas", STREAM_DELTAS)
        .exact("stream_row_patches", out.row_patches)
        .exact("stream_removals", out.removals)
        .exact("stream_additions", out.additions)
        .exact("stream_reorders", out.reorders)
        .exact("stream_compactions", out.compactions)
        .exact("stream_publishes", publishes)
        .exact("stream_candidates", session.live_tables())
        .exact("stream_edges", run.edges)
        .exact("stream_partitions", run.partitions)
        .exact("stream_mappings", run.mappings.len())
        .exact("stream_memo_values", memo_values)
        .num("stream_apply_p50_ms", percentile(&apply, 0.50), 3)
        .num("stream_apply_p90_ms", percentile(&apply, 0.90), 3)
        .num("stream_apply_p99_ms", p99, 3)
        .num("stream_apply_max_ms", max, 3)
        .num("stream_apply_total_ms", apply.iter().sum(), 3)
        .num("stream_publish_total_ms", publish_ms, 3)
        .num("post_compact_vmrss_mb", out.post_compact_vmrss_mb, 1)
        .num("post_compact_vmhwm_mb", out.post_compact_vmhwm_mb, 1)
        .num("stream_end_vmrss_mb", end_rss, 1)
        .num("stream_end_vmhwm_mb", end_hwm, 1)
        .ceiling("ceil_stream_p99_ms", p99, MS_CEILING_MARGIN)
        .ceiling("ceil_stream_rss_mb", rss, RSS_CEILING_MARGIN);
    let golden = "delta_stream_edges_200.txt";
    Record::new()
        .obj("delta_stream_detail", detail)
        .golden(golden, STREAM_TABLES, "--stream", dump)
}

/// The fault-injection tier: the fully verified fault stream through a
/// `DeltaIngestor` with the concurrent-reader probe on, then the
/// surviving (accepted-only) session's final counts.
fn fault() -> Record {
    let out = run_fault_stream(FAULT_STREAM_TABLES, FAULT_STREAM_DELTAS, true, true);
    let (session, s) = (&out.session, &out.stats);
    let run = synthesize(session);
    let dump = format_edges(&session.graph(&session.config().synthesis));
    let detail = Record::new()
        .info("fault_tables", FAULT_STREAM_TABLES)
        .exact("fault_deltas", FAULT_STREAM_DELTAS)
        .exact("fault_submitted", s.submitted)
        .exact("fault_accepted", s.accepted)
        .exact("fault_rejected", s.rejected)
        .exact("fault_quarantined", s.quarantined)
        .exact("fault_malformed", out.malformed)
        .exact("fault_sabotaged", out.sabotaged)
        .exact("fault_publishes", s.publishes)
        .exact("fault_compactions", s.compactions)
        .exact("fault_served_version", out.served_version)
        .exact("fault_candidates", session.live_tables())
        .exact("fault_edges", run.edges)
        .exact("fault_partitions", run.partitions)
        .exact("fault_mappings", run.mappings.len())
        .info("fault_churn_lookups", out.churn_lookups)
        .num("fault_churn_qps", out.churn_qps, 0);
    let golden = "fault_stream_edges_100.txt";
    Record::new()
        .obj("fault_detail", detail)
        .golden(golden, FAULT_STREAM_TABLES, "--faults", dump)
}

/// The crash-recovery tier: the kill-point sweep and the corruption
/// matrix, every oracle equivalence and typed expectation asserted.
fn recovery() -> Record {
    let r = run_recovery_matrix(true);
    for c in &r.cells {
        let (label, error, ms) = (&c.label, &c.typed_error, c.recover_ms);
        eprintln!(
            "recovery cell '{label}': error {error:?}, fell back {} ({ms:.1} ms)",
            c.fell_back
        );
    }
    let detail = Record::new()
        .exact("recovery_tables", RECOVERY_TABLES)
        .exact("recovery_deltas", RECOVERY_DELTAS)
        .exact("recovery_kill_points", r.kill_points)
        .exact("recovery_sweep_replayed", r.sweep_replayed)
        .exact("recovery_sweep_skipped", r.sweep_skipped)
        .exact("recovery_generations", r.full_generations)
        .exact("recovery_wal_segments", r.full_wal_segments)
        .exact("recovery_full_replayed", r.full_replayed)
        .exact("recovery_matrix_cells", r.cells.len())
        .exact("recovery_matrix_recovered", r.cells_recovered())
        .exact("recovery_matrix_fallbacks", r.cells_fallback())
        .exact("recovery_matrix_typed_errors", r.cells_typed_errors())
        .exact("recovery_matrix_torn_repaired", r.cells_torn_repaired())
        .exact("recovery_matrix_wal_halted", r.cells_wal_halted())
        .num("recovery_sweep_recover_ms", r.sweep_recover_ms, 3);
    Record::new().obj("recovery_detail", detail)
}

/// One scale point: the corpus generated as a stream (never
/// materialized — why peak RSS stays sublinear) through the streaming
/// prepare with the stage probe sampling `VmHWM`, then the synthesis
/// tail. Serving and delta stages are skipped: this tier is about how
/// extraction, blocking and the match memo grow.
fn scale_point_record(tables: usize) -> Record {
    let rss_start = peak_rss_kb();
    let mut stream = bench_stream(tables);
    let mut session = SynthesisSession::new(PipelineConfig::default());
    let mut stage_rss = Vec::new();
    session.prepare_streaming_with(&mut stream, |stage| stage_rss.push((stage, peak_rss_kb())));
    let run = synthesize(&session);
    let peak = peak_rss_kb();

    let extraction = session.extraction().expect("prepared");
    let scores = session.scores().expect("prepared");
    let (memo, funnel, pairs) = (scores.detail.memo, extraction.funnel, scores.blocking.pairs);
    let extraction_ms = ms(extraction.elapsed);
    let blocking_ms = ms(scores.detail.blocking);
    let (peak_mb, hwm) = (mb(peak), |stage| rss_after(&stage_rss, stage));
    eprintln!("scale {tables} tables: extraction {extraction_ms:.1}ms, blocking {blocking_ms:.1}ms, peak rss {peak_mb:.1}MB");
    let scoring_ms = ms(scores.elapsed.saturating_sub(scores.detail.blocking));
    let value_space_ms = ms(session.values().expect("prepared").elapsed);
    Record::new()
        .info("tables", tables)
        .exact("candidates", session.live_tables())
        .exact("edges", run.edges)
        .exact("mappings", run.mappings.len())
        .info("blocking_pairs", pairs)
        .info("memo_values", memo.values)
        .info("memo_candidate_pairs", memo.candidate_pairs)
        .info("memo_sig_mask_rejects", memo.sig_mask_rejects)
        .info("memo_sig_hist_rejects", memo.sig_hist_rejects)
        .info("memo_dp_calls", memo.dp_calls)
        .info("memo_matched_pairs", memo.matched_pairs)
        .info("coh_sketch_rejects", funnel.sketch_rejects)
        .info("coh_list_probes", funnel.list_probes)
        .num("extraction_ms", extraction_ms, 3)
        .num("value_space_ms", value_space_ms, 3)
        .num("blocking_ms", blocking_ms, 3)
        .num("scoring_ms", scoring_ms, 3)
        .num("approx_memo_ms", ms(scores.detail.approx_memo), 3)
        .num("graph_ms", ms(run.timings.graph), 3)
        .num("total_ms", ms(run.timings.total), 3)
        .num("vmhwm_start_mb", mb(rss_start), 1)
        .num("vmhwm_extraction_mb", hwm("extraction"), 1)
        .num("vmhwm_value_space_mb", hwm("value_space"), 1)
        .num("vmhwm_scoring_mb", hwm("scoring"), 1)
        .num("vmhwm_peak_mb", peak_mb, 1)
        .num("vmrss_end_mb", mb(current_rss_kb()), 1)
        .ceiling("ceil_extraction_ms", extraction_ms, MS_CEILING_MARGIN)
        .ceiling("ceil_blocking_ms", blocking_ms, MS_CEILING_MARGIN)
        .at_most("ceil_blocking_pairs", pairs)
        .at_most("ceil_memo_candidate_pairs", memo.candidate_pairs)
        .at_most("ceil_memo_dp_calls", memo.dp_calls)
        .at_most("ceil_coh_list_probes", funnel.list_probes)
}

/// `--check PATH`: re-run `tier` and compare it with the committed
/// file — the baseline at its committed `corpus_tables`, a scale point
/// against the committed point of the same size. Exits 1 on any drift.
fn check_tier(tier: &Tier, path: &str) -> ! {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let file = parse(&text).unwrap_or_else(|e| panic!("{path} is not a baseline file: {e}"));
    let drifts = match tier {
        Tier::Baseline(_) => {
            let Some(Value::Num(tables, _)) = get(&file, "corpus_tables") else {
                panic!("no corpus_tables in {path}");
            };
            check(&file, &baseline(*tables as usize))
        }
        Tier::Scale(n, _) | Tier::ScalePoint(n) => {
            let point = scale_point(&file, *n);
            let point = point.unwrap_or_else(|| panic!("no scale point of {n} tables in {path}"));
            check(point, &scale_point_record(*n))
        }
        Tier::Stream => check(&file, &stream()),
        Tier::Fault => check(&file, &fault()),
        Tier::Recovery => check(&file, &recovery()),
    };
    for drift in &drifts {
        eprintln!("check {drift} (DRIFT)");
    }
    if drifts.is_empty() {
        eprintln!("{tier:?} matches {path}");
        exit(0);
    }
    eprintln!("{tier:?} drifted from {path}; regenerate the baseline if intended");
    exit(1)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args { tier, check, out } = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("pipeline_baseline: {e}\n{USAGE}");
        exit(2)
    });
    if let Some(path) = check {
        check_tier(&tier, &path);
    }
    let fields = match tier {
        Tier::Baseline(tables) => {
            let mut fields = baseline(tables).fields;
            fields.extend(child(&["--delta-stream"]));
            fields.extend(child(&["--delta-stream", "--faults"]));
            fields.extend(child(&["--recovery"]));
            fields
        }
        Tier::Scale(max_tables, points) => {
            let default = [max_tables / 4, max_tables / 2, max_tables];
            let points = points.unwrap_or_else(|| default.into_iter().filter(|&t| t > 0).collect());
            let point = |t: &usize| Value::Obj(child(&["--scale-point", &t.to_string()]));
            let detail = Record::new().info("max_tables", max_tables);
            let detail = detail.list("points", points.iter().map(point).collect());
            Record::new().obj("scale_detail", detail).fields
        }
        Tier::ScalePoint(tables) => scale_point_record(tables).fields,
        Tier::Stream => stream().fields,
        Tier::Fault => fault().fields,
        Tier::Recovery => recovery().fields,
    };
    let json = render(&fields);
    if let Some(path) = out {
        std::fs::write(&path, &json).expect("write the baseline file");
        eprintln!("wrote {path}");
    }
    print!("{json}");
}
