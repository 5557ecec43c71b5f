//! Records a stage-timing baseline for the synthesis pipeline — plus a
//! serving-throughput stage over the synthesized mappings — on a
//! deterministic generated corpus, as JSON on stdout or into a file.
//!
//! ```text
//! cargo run --release -p mapsynth-bench --bin pipeline_baseline -- BENCH_pipeline.json
//! # verify counts against a committed baseline (CI drift gate):
//! cargo run --release -p mapsynth-bench --bin pipeline_baseline -- --check BENCH_pipeline.json
//! # corpus scale tier: growth-curve points up to N tables
//! cargo run --release -p mapsynth-bench --bin pipeline_baseline -- --tables 30000 BENCH_scale.json
//! # explicit point list instead of the default N/4, N/2, N:
//! cargo run --release -p mapsynth-bench --bin pipeline_baseline -- --tables 100000 --points 600,7500,15000,30000,100000 BENCH_scale.json
//! # verify one committed scale point (CI growth-curve gate):
//! cargo run --release -p mapsynth-bench --bin pipeline_baseline -- --tables 600 --check BENCH_scale.json
//! # fault-injection tier: deterministic stream with planned malformed
//! # deltas, induced apply panics and publish failures:
//! cargo run --release -p mapsynth-bench --bin pipeline_baseline -- --delta-stream --faults BENCH_fault.json
//! # verify the committed fault counts + post-fault edge golden (CI gate):
//! cargo run --release -p mapsynth-bench --bin pipeline_baseline -- --delta-stream --faults --check BENCH_pipeline.json
//! ```
//!
//! See `crates/bench/README.md` for the output schema. In `--check`
//! mode the corpus size is read from the committed file, the pipeline
//! re-runs, and the process exits non-zero if any deterministic count
//! (candidates, edges, partitions, mappings) drifted, or if the memo's
//! filter counters (`memo_candidate_pairs`, `memo_dp_calls`) **exceed**
//! their committed ceilings (a silent prefilter regression) — timings
//! are machine-dependent and informational only. In `--tables N` mode
//! the binary runs the **streaming** synthesis pipeline (the corpus is
//! generated table-by-table, never materialized) at each point —
//! `N/4`, `N/2` and `N` tables unless `--points` lists them — each
//! point in a child process so its peak-RSS reading is isolated, and
//! writes a `scale_detail` block with per-stage wall-clock, per-stage
//! peak RSS, and growth-curve ceilings. `--tables N --check FILE`
//! re-runs the single committed point with `"tables": N` and fails on
//! exact-count drift or on any `ceil_*` ceiling being exceeded —
//! count ceilings are the committed measurements themselves, the
//! wall-clock ceilings (`ceil_extraction_ms`, `ceil_blocking_ms`)
//! carry a 4× machine-variance margin.

use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth_bench::{bench_corpus, bench_delta, bench_stream, peak_rss_kb};
use mapsynth_serve::{DeltaPublishStats, MappingService, SnapshotBuilder};
use std::time::Instant;

/// Lookups issued per throughput measurement (single- and multi-thread).
const SERVING_LOOKUPS: usize = 200_000;
/// Batch size fed to `lookup_many` (amortizes shard dispatch).
const SERVING_BATCH: usize = 256;
/// Probe keys sampled from the served mappings (half the probe set;
/// the other half are guaranteed misses, a 50% target hit rate).
const SERVING_KEYS: usize = 2000;

struct ServingReport {
    shards: usize,
    values: usize,
    mappings: usize,
    build_ms: f64,
    probe_keys: usize,
    single_thread_qps: f64,
    threads: usize,
    multi_thread_qps: f64,
    hit_rate: f64,
}

/// Drive `SERVING_LOOKUPS` batched lookups over `keys`, returning QPS.
fn drive_lookups(snapshot: &mapsynth_serve::IndexSnapshot, keys: &[&str]) -> f64 {
    let mut done = 0usize;
    let t = Instant::now();
    while done < SERVING_LOOKUPS {
        for chunk in keys.chunks(SERVING_BATCH) {
            snapshot.lookup_many(chunk);
            done += chunk.len();
            if done >= SERVING_LOOKUPS {
                break;
            }
        }
    }
    done as f64 / t.elapsed().as_secs_f64()
}

/// Serving stage: publish the run's mappings into a `MappingService`
/// and measure lookup throughput against the served snapshot.
fn serving_stage(mappings: &[mapsynth::SynthesizedMapping], threads: usize) -> ServingReport {
    let service = MappingService::new();
    let t = Instant::now();
    let snapshot = SnapshotBuilder::from_synthesized(mappings).build();
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    service.publish(snapshot);
    let snap = service.snapshot();

    // Probe set: every k-th left value of the served mappings (hits),
    // interleaved with as many absent keys (misses).
    let mut keys: Vec<String> = Vec::with_capacity(2 * SERVING_KEYS);
    'outer: for m in mappings {
        for (l, _) in m.pair_strs() {
            keys.push(l.to_string());
            if keys.len() >= SERVING_KEYS {
                break 'outer;
            }
        }
    }
    let hits = keys.len();
    for i in 0..hits {
        keys.push(format!("absent probe {i}"));
    }
    let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();

    let single_thread_qps = drive_lookups(&snap, &key_refs);

    // Multi-thread: each worker holds its own snapshot handle (the
    // realistic serving shape — one `snapshot()` call, many lookups).
    let per_thread = SERVING_LOOKUPS.div_ceil(threads);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let service = &service;
            let key_refs = &key_refs;
            s.spawn(move || {
                let snap = service.snapshot();
                let mut done = 0usize;
                while done < per_thread {
                    for chunk in key_refs.chunks(SERVING_BATCH) {
                        snap.lookup_many(chunk);
                        done += chunk.len();
                        if done >= per_thread {
                            break;
                        }
                    }
                }
            });
        }
    });
    let multi_thread_qps = (per_thread * threads) as f64 / t.elapsed().as_secs_f64();

    let stats = snap.stats();
    ServingReport {
        shards: snap.shard_count(),
        values: snap.value_count(),
        mappings: snap.mapping_count(),
        build_ms,
        probe_keys: key_refs.len(),
        single_thread_qps,
        threads,
        multi_thread_qps,
        hit_rate: stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    }
}

/// Outcome of the incremental stage: counts + timings of the standard
/// 5% bench delta, against a fresh full rebuild on the same corpus.
struct DeltaBenchReport {
    report: mapsynth::delta::DeltaReport,
    /// Post-delta deterministic counts.
    candidates: usize,
    edges: usize,
    partitions: usize,
    mappings: usize,
    /// Variant-tail wall-clock after the delta.
    synth_ms: f64,
    /// Fresh prepare + synthesize on the post-delta corpus.
    rebuild_ms: f64,
    /// Incremental snapshot publish of the post-delta mappings.
    serve: DeltaPublishStats,
    publish_delta_ms: f64,
}

/// The incremental stage: apply the standard 5% delta through
/// `session.apply_delta`, re-derive the synthesis variant, publish the
/// post-delta mappings incrementally, and time a full rebuild on the
/// post-delta corpus as the reference — asserting along the way that
/// the incremental output is identical to the rebuild's.
fn delta_stage(
    session: &mut SynthesisSession,
    corpus: &mut mapsynth_corpus::Corpus,
    tables: usize,
    base_mappings: &[mapsynth::SynthesizedMapping],
) -> DeltaBenchReport {
    let delta = bench_delta(corpus, tables);
    let report = session.apply_delta(corpus, &delta).expect("valid delta");

    let t = Instant::now();
    let run = session.synthesize(&session.config().synthesis.clone(), Resolver::Algorithm4);
    let synth_ms = t.elapsed().as_secs_f64() * 1e3;

    // Incremental snapshot publish on top of the base mappings.
    let service = MappingService::new();
    service.publish(SnapshotBuilder::from_synthesized(base_mappings).build());
    let t = Instant::now();
    let (_, serve) = service.publish_delta(&run.mappings);
    let publish_delta_ms = t.elapsed().as_secs_f64() * 1e3;

    // Reference: a batch session on the post-delta corpus.
    let live = session.live_corpus(corpus);
    let t = Instant::now();
    let mut fresh = SynthesisSession::new(PipelineConfig::default());
    let fresh_out = fresh.run(&live);
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        run.mappings.len(),
        fresh_out.mappings.len(),
        "incremental delta diverged from the fresh rebuild"
    );
    for (a, b) in run.mappings.iter().zip(&fresh_out.mappings) {
        assert_eq!(
            a.materialize_pairs(),
            b.materialize_pairs(),
            "incremental delta diverged from the fresh rebuild"
        );
    }

    DeltaBenchReport {
        candidates: session.live_tables(),
        edges: run.edges,
        partitions: run.partitions,
        mappings: run.mappings.len(),
        synth_ms,
        rebuild_ms,
        serve,
        publish_delta_ms,
        report,
    }
}

/// Pull an integer field out of a (flat-keyed) baseline JSON file.
/// The baseline is written by this binary with unique key names, so a
/// plain text scan is sufficient — no JSON dependency needed.
fn json_int(json: &str, key: &str) -> Option<i64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pull a float field out of a baseline JSON snippet (same text-scan
/// approach as [`json_int`]).
fn json_num(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '-' && c != '.')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Slice the committed `scale_detail` point object whose `"tables"`
/// equals `tables`. Points are flat objects with `"tables"` as their
/// first key, so the scope runs from that key to the next `}`.
fn scale_point_block(json: &str, tables: usize) -> Option<&str> {
    let mut rest = json;
    loop {
        let at = rest.find("\"tables\":")?;
        let block_end = rest[at..].find('}').map(|e| at + e).unwrap_or(rest.len());
        let block = &rest[at..block_end];
        if json_int(block, "tables") == Some(tables as i64) {
            return Some(block);
        }
        rest = &rest[block_end..];
    }
}

/// `--tables N --check FILE`: re-measure the single committed scale
/// point at `N` tables and fail on exact-count drift (candidates,
/// edges, mappings) or on any committed ceiling being exceeded —
/// growth-curve counts (`ceil_blocking_pairs`,
/// `ceil_memo_candidate_pairs`, `ceil_memo_dp_calls`,
/// `ceil_coh_list_probes`) and the margin-carrying wall-clock
/// ceilings (`ceil_extraction_ms`, `ceil_blocking_ms`).
fn check_scale_point(tables: usize, path: &str) -> ! {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read scale baseline {path}: {e}"));
    let block = scale_point_block(&committed, tables)
        .unwrap_or_else(|| panic!("no committed scale point with \"tables\": {tables} in {path}"));

    let p = measure_scale_point(tables);
    let mut drifted = false;
    let exact = [
        ("candidates", p.candidates as i64),
        ("edges", p.edges as i64),
        ("mappings", p.mappings as i64),
    ];
    for (key, actual) in exact {
        match json_int(block, key) {
            Some(expected) if expected == actual => {
                eprintln!("scale-check {key}: {actual} (ok)");
            }
            Some(expected) => {
                eprintln!("scale-check {key}: expected {expected}, got {actual} (DRIFT)");
                drifted = true;
            }
            None => {
                eprintln!("scale-check {key}: missing from baseline point (DRIFT)");
                drifted = true;
            }
        }
    }
    let count_ceilings = [
        ("ceil_blocking_pairs", p.blocking_pairs as i64),
        ("ceil_memo_candidate_pairs", p.memo.candidate_pairs as i64),
        ("ceil_memo_dp_calls", p.memo.dp_calls as i64),
        ("ceil_coh_list_probes", p.coh_list_probes as i64),
    ];
    for (key, actual) in count_ceilings {
        match json_int(block, key) {
            Some(ceiling) if actual <= ceiling => {
                eprintln!("scale-check {key}: {actual} ≤ {ceiling} (ok)");
            }
            Some(ceiling) => {
                eprintln!("scale-check {key}: {actual} exceeds ceiling {ceiling} (DRIFT)");
                drifted = true;
            }
            None => {
                eprintln!("scale-check {key}: missing from baseline point (DRIFT)");
                drifted = true;
            }
        }
    }
    let ms_ceilings = [
        ("ceil_extraction_ms", p.extraction_ms),
        ("ceil_blocking_ms", p.blocking_ms),
    ];
    for (key, actual) in ms_ceilings {
        match json_num(block, key) {
            Some(ceiling) if actual <= ceiling => {
                eprintln!("scale-check {key}: {actual:.1}ms ≤ {ceiling:.0}ms (ok)");
            }
            Some(ceiling) => {
                eprintln!(
                    "scale-check {key}: {actual:.1}ms exceeds ceiling {ceiling:.0}ms (DRIFT)"
                );
                drifted = true;
            }
            None => {
                eprintln!("scale-check {key}: missing from baseline point (DRIFT)");
                drifted = true;
            }
        }
    }
    if drifted {
        eprintln!("scale point {tables} drifted from {path}; regenerate the baseline if intended");
        std::process::exit(1);
    }
    eprintln!("scale point {tables} matches {path}");
    std::process::exit(0);
}

/// Committed golden dump of the post-stream compatibility-graph edges
/// (the final graph after the full `run_delta_stream` sequence of row
/// patches, table churn and compactions).
const STREAM_GOLDEN_PATH: &str = "crates/bench/golden/delta_stream_edges_200.txt";

/// RSS ceiling margin for the stream tier's post-compaction reading:
/// tighter than the wall-clock margin (resident size varies far less
/// across machines than timings do), loose enough for allocator noise.
const RSS_CEILING_MARGIN: f64 = 2.0;

/// Outcome of the sustained row-delta stream tier: latency
/// distribution of `apply_delta` across the whole stream, churn and
/// compaction counts, final deterministic counts, and the RSS probes
/// that bound the session's footprint under sustained churn.
struct StreamBenchReport {
    outcome: mapsynth_bench::DeltaStreamOutcome,
    publishes: usize,
    publish_total_ms: f64,
    candidates: usize,
    edges: usize,
    partitions: usize,
    mappings: usize,
    memo_values: usize,
    apply_p50_ms: f64,
    apply_p90_ms: f64,
    apply_p99_ms: f64,
    apply_max_ms: f64,
    apply_total_ms: f64,
    end_vmrss_mb: f64,
    end_vmhwm_mb: f64,
    /// Post-stream edge dump (byte-compared against the committed
    /// golden file in `--delta-stream --check`).
    edge_dump: String,
}

/// Nearest-rank percentile over a sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The sustained-stream stage: drive the full deterministic row-delta
/// stream at [`mapsynth_bench::STREAM_TABLES`] tables, publishing into
/// a `MappingService` every [`mapsynth_bench::STREAM_PUBLISH_EVERY`]
/// deltas (first publish full, the rest incremental), then derive the
/// final counts and the latency distribution. With `verify` the stream
/// self-checks against fresh rebuilds at its midpoint and end.
fn stream_stage(verify: bool) -> StreamBenchReport {
    use mapsynth_bench::{current_rss_kb, run_delta_stream, STREAM_DELTAS, STREAM_TABLES};
    let service = MappingService::new();
    let mut publishes = 0usize;
    let mut publish_total_ms = 0.0;
    let outcome = run_delta_stream(STREAM_TABLES, STREAM_DELTAS, verify, |mappings| {
        let t = Instant::now();
        if publishes == 0 {
            service.publish(SnapshotBuilder::from_synthesized(mappings).build());
        } else {
            service.publish_delta(mappings);
        }
        publish_total_ms += t.elapsed().as_secs_f64() * 1e3;
        publishes += 1;
    });

    let run = outcome.session.synthesize(
        &outcome.session.config().synthesis.clone(),
        Resolver::Algorithm4,
    );
    let memo_values = outcome
        .session
        .scores()
        .expect("prepared")
        .detail
        .memo
        .values;
    let edge_dump =
        mapsynth_bench::format_edges(&outcome.session.graph(&outcome.session.config().synthesis));

    let mut sorted = outcome.apply_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    StreamBenchReport {
        publishes,
        publish_total_ms,
        candidates: outcome.session.live_tables(),
        edges: run.edges,
        partitions: run.partitions,
        mappings: run.mappings.len(),
        memo_values,
        apply_p50_ms: percentile(&sorted, 0.50),
        apply_p90_ms: percentile(&sorted, 0.90),
        apply_p99_ms: percentile(&sorted, 0.99),
        apply_max_ms: sorted.last().copied().unwrap_or(0.0),
        apply_total_ms: sorted.iter().sum(),
        end_vmrss_mb: current_rss_kb() as f64 / 1024.0,
        end_vmhwm_mb: peak_rss_kb() as f64 / 1024.0,
        edge_dump,
        outcome,
    }
}

/// Render the stream report as the `delta_stream_detail` JSON object
/// (indented for embedding at depth 1 in the main baseline file).
fn render_stream(r: &StreamBenchReport) -> String {
    let rss_measured = if r.outcome.post_compact_vmrss_mb > 0.0 {
        r.outcome.post_compact_vmrss_mb
    } else {
        r.end_vmrss_mb
    };
    format!(
        "{{\n    \"stream_tables\": {},\n    \"stream_deltas\": {},\n    \"stream_row_patches\": {},\n    \"stream_removals\": {},\n    \"stream_additions\": {},\n    \"stream_reorders\": {},\n    \"stream_compactions\": {},\n    \"stream_publishes\": {},\n    \"stream_candidates\": {},\n    \"stream_edges\": {},\n    \"stream_partitions\": {},\n    \"stream_mappings\": {},\n    \"stream_memo_values\": {},\n    \"stream_apply_p50_ms\": {:.3},\n    \"stream_apply_p90_ms\": {:.3},\n    \"stream_apply_p99_ms\": {:.3},\n    \"stream_apply_max_ms\": {:.3},\n    \"stream_apply_total_ms\": {:.3},\n    \"stream_publish_total_ms\": {:.3},\n    \"post_compact_vmrss_mb\": {:.1},\n    \"post_compact_vmhwm_mb\": {:.1},\n    \"stream_end_vmrss_mb\": {:.1},\n    \"stream_end_vmhwm_mb\": {:.1},\n    \"ceil_stream_p99_ms\": {:.0},\n    \"ceil_stream_rss_mb\": {:.0}\n  }}",
        mapsynth_bench::STREAM_TABLES,
        mapsynth_bench::STREAM_DELTAS,
        r.outcome.row_patches,
        r.outcome.removals,
        r.outcome.additions,
        r.outcome.reorders,
        r.outcome.compactions,
        r.publishes,
        r.candidates,
        r.edges,
        r.partitions,
        r.mappings,
        r.memo_values,
        r.apply_p50_ms,
        r.apply_p90_ms,
        r.apply_p99_ms,
        r.apply_max_ms,
        r.apply_total_ms,
        r.publish_total_ms,
        r.outcome.post_compact_vmrss_mb,
        r.outcome.post_compact_vmhwm_mb,
        r.end_vmrss_mb,
        r.end_vmhwm_mb,
        (r.apply_p99_ms * MS_CEILING_MARGIN).ceil().max(1.0),
        (rss_measured * RSS_CEILING_MARGIN).ceil().max(1.0),
    )
}

/// `--delta-stream --check FILE`: re-run the full verified stream and
/// fail on exact-count drift against the committed
/// `delta_stream_detail` block, on the per-delta p99 latency or the
/// post-compaction RSS exceeding their committed ceilings, or on the
/// post-stream edge dump differing from the committed golden file.
fn check_stream(path: &str) -> ! {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let r = stream_stage(true);

    let exact = [
        ("stream_deltas", mapsynth_bench::STREAM_DELTAS as i64),
        ("stream_row_patches", r.outcome.row_patches as i64),
        ("stream_removals", r.outcome.removals as i64),
        ("stream_additions", r.outcome.additions as i64),
        ("stream_reorders", r.outcome.reorders as i64),
        ("stream_compactions", r.outcome.compactions as i64),
        ("stream_publishes", r.publishes as i64),
        ("stream_candidates", r.candidates as i64),
        ("stream_edges", r.edges as i64),
        ("stream_partitions", r.partitions as i64),
        ("stream_mappings", r.mappings as i64),
        ("stream_memo_values", r.memo_values as i64),
    ];
    let mut drifted = false;
    for (key, actual) in exact {
        match json_int(&committed, key) {
            Some(expected) if expected == actual => {
                eprintln!("stream-check {key}: {actual} (ok)");
            }
            Some(expected) => {
                eprintln!("stream-check {key}: expected {expected}, got {actual} (DRIFT)");
                drifted = true;
            }
            None => {
                eprintln!("stream-check {key}: missing from baseline (DRIFT)");
                drifted = true;
            }
        }
    }

    let rss_measured = if r.outcome.post_compact_vmrss_mb > 0.0 {
        r.outcome.post_compact_vmrss_mb
    } else {
        r.end_vmrss_mb
    };
    let ceilings = [
        ("ceil_stream_p99_ms", r.apply_p99_ms),
        ("ceil_stream_rss_mb", rss_measured),
    ];
    for (key, actual) in ceilings {
        match json_num(&committed, key) {
            Some(ceiling) if actual <= ceiling => {
                eprintln!("stream-check {key}: {actual:.1} ≤ {ceiling:.0} (ok)");
            }
            Some(ceiling) => {
                eprintln!("stream-check {key}: {actual:.1} exceeds ceiling {ceiling:.0} (DRIFT)");
                drifted = true;
            }
            None => {
                eprintln!("stream-check {key}: missing from baseline (DRIFT)");
                drifted = true;
            }
        }
    }

    match std::fs::read_to_string(STREAM_GOLDEN_PATH) {
        Ok(golden) => {
            if golden == r.edge_dump {
                eprintln!("stream-check golden edges: {} bytes (ok)", golden.len());
            } else {
                eprintln!(
                    "stream-check golden edges: dump differs from {STREAM_GOLDEN_PATH} (DRIFT); \
                     regenerate via `cargo run --release -p mapsynth-bench --example dump_edges -- \
                     {STREAM_GOLDEN_PATH} {} --stream` if intended",
                    mapsynth_bench::STREAM_TABLES
                );
                drifted = true;
            }
        }
        Err(e) => {
            eprintln!("stream-check golden edges: cannot read {STREAM_GOLDEN_PATH}: {e} (DRIFT)");
            drifted = true;
        }
    }

    if drifted {
        eprintln!("delta-stream tier drifted from {path}; regenerate the baseline if intended");
        std::process::exit(1);
    }
    eprintln!("delta-stream tier matches {path}");
    std::process::exit(0);
}

/// Committed golden dump of the post-fault-stream compatibility-graph
/// edges (the final graph after the deterministic fault-injection
/// stream: every planted rejection rolled back, accepted deltas only).
const FAULT_GOLDEN_PATH: &str = "crates/bench/golden/fault_stream_edges_100.txt";

/// Outcome of the fault-injection tier: the ingestor's counters under
/// a planted fault plan, serving throughput under churn, and the final
/// deterministic counts of the surviving (accepted-only) state.
struct FaultBenchReport {
    outcome: mapsynth_bench::fault::FaultStreamOutcome,
    candidates: usize,
    edges: usize,
    partitions: usize,
    mappings: usize,
    /// Post-fault-stream edge dump (byte-compared against the
    /// committed golden file in `--delta-stream --faults --check`).
    edge_dump: String,
}

/// The fault-injection stage: drive the full deterministic fault
/// stream through a `DeltaIngestor` (with the concurrent-reader QPS
/// probe on), then derive the final counts. With `verify` every
/// robustness assertion runs — exact quarantine, retry/abandon
/// counters, the accepted-deltas-only oracle.
fn fault_stage(verify: bool) -> FaultBenchReport {
    use mapsynth_bench::fault::{run_fault_stream, FAULT_STREAM_DELTAS, FAULT_STREAM_TABLES};
    let outcome = run_fault_stream(FAULT_STREAM_TABLES, FAULT_STREAM_DELTAS, verify, true);
    let run = outcome.session.synthesize(
        &outcome.session.config().synthesis.clone(),
        Resolver::Algorithm4,
    );
    let edge_dump =
        mapsynth_bench::format_edges(&outcome.session.graph(&outcome.session.config().synthesis));
    FaultBenchReport {
        candidates: outcome.session.live_tables(),
        edges: run.edges,
        partitions: run.partitions,
        mappings: run.mappings.len(),
        edge_dump,
        outcome,
    }
}

/// Render the fault report as the `fault_detail` JSON object (indented
/// for embedding at depth 1 in the main baseline file).
fn render_fault(r: &FaultBenchReport) -> String {
    let s = &r.outcome.stats;
    format!(
        "{{\n    \"fault_tables\": {},\n    \"fault_deltas\": {},\n    \"fault_submitted\": {},\n    \"fault_accepted\": {},\n    \"fault_rejected\": {},\n    \"fault_quarantined\": {},\n    \"fault_malformed\": {},\n    \"fault_sabotaged\": {},\n    \"fault_publishes\": {},\n    \"fault_publish_retries\": {},\n    \"fault_publishes_abandoned\": {},\n    \"fault_compactions\": {},\n    \"fault_served_version\": {},\n    \"fault_candidates\": {},\n    \"fault_edges\": {},\n    \"fault_partitions\": {},\n    \"fault_mappings\": {},\n    \"fault_churn_lookups\": {},\n    \"fault_churn_qps\": {:.0}\n  }}",
        mapsynth_bench::fault::FAULT_STREAM_TABLES,
        mapsynth_bench::fault::FAULT_STREAM_DELTAS,
        s.submitted,
        s.accepted,
        s.rejected,
        s.quarantined,
        r.outcome.malformed,
        r.outcome.sabotaged,
        s.publishes,
        s.publish_retries,
        s.publishes_abandoned,
        s.compactions,
        r.outcome.served_version,
        r.candidates,
        r.edges,
        r.partitions,
        r.mappings,
        r.outcome.churn_lookups,
        r.outcome.churn_qps,
    )
}

/// `--delta-stream --faults --check FILE`: re-run the fully verified
/// fault stream and fail on exact-count drift against the committed
/// `fault_detail` block (acceptance/rejection/quarantine/retry/abandon
/// counters and the final deterministic counts are all exact — the
/// fault plan is deterministic, so there is nothing to tolerate), or
/// on the post-fault-stream edge dump differing from the committed
/// golden file. Serving QPS under churn is informational only.
fn check_fault(path: &str) -> ! {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let r = fault_stage(true);

    let s = &r.outcome.stats;
    let exact = [
        (
            "fault_deltas",
            mapsynth_bench::fault::FAULT_STREAM_DELTAS as i64,
        ),
        ("fault_submitted", s.submitted as i64),
        ("fault_accepted", s.accepted as i64),
        ("fault_rejected", s.rejected as i64),
        ("fault_quarantined", s.quarantined as i64),
        ("fault_malformed", r.outcome.malformed as i64),
        ("fault_sabotaged", r.outcome.sabotaged as i64),
        ("fault_publishes", s.publishes as i64),
        ("fault_publish_retries", s.publish_retries as i64),
        ("fault_publishes_abandoned", s.publishes_abandoned as i64),
        ("fault_compactions", s.compactions as i64),
        ("fault_served_version", r.outcome.served_version as i64),
        ("fault_candidates", r.candidates as i64),
        ("fault_edges", r.edges as i64),
        ("fault_partitions", r.partitions as i64),
        ("fault_mappings", r.mappings as i64),
    ];
    let mut drifted = false;
    for (key, actual) in exact {
        match json_int(&committed, key) {
            Some(expected) if expected == actual => {
                eprintln!("fault-check {key}: {actual} (ok)");
            }
            Some(expected) => {
                eprintln!("fault-check {key}: expected {expected}, got {actual} (DRIFT)");
                drifted = true;
            }
            None => {
                eprintln!("fault-check {key}: missing from baseline (DRIFT)");
                drifted = true;
            }
        }
    }

    match std::fs::read_to_string(FAULT_GOLDEN_PATH) {
        Ok(golden) => {
            if golden == r.edge_dump {
                eprintln!("fault-check golden edges: {} bytes (ok)", golden.len());
            } else {
                eprintln!(
                    "fault-check golden edges: dump differs from {FAULT_GOLDEN_PATH} (DRIFT); \
                     regenerate via `cargo run --release -p mapsynth-bench --example dump_edges -- \
                     {FAULT_GOLDEN_PATH} {} --faults` if intended",
                    mapsynth_bench::fault::FAULT_STREAM_TABLES
                );
                drifted = true;
            }
        }
        Err(e) => {
            eprintln!("fault-check golden edges: cannot read {FAULT_GOLDEN_PATH}: {e} (DRIFT)");
            drifted = true;
        }
    }

    if drifted {
        eprintln!("fault-injection tier drifted from {path}; regenerate the baseline if intended");
        std::process::exit(1);
    }
    eprintln!("fault-injection tier matches {path}");
    std::process::exit(0);
}

/// The crash-recovery tier: kill-point sweep plus torn-write/corruption
/// fault matrix over the persistence layer. `verify` turns on the
/// oracle equivalence and per-cell typed-error assertions.
fn recovery_stage(verify: bool) -> mapsynth_bench::recovery::RecoveryMatrixOutcome {
    mapsynth_bench::recovery::run_recovery_matrix(verify)
}

/// Render the recovery report as the `recovery_detail` JSON object
/// (indented for embedding at depth 1 in the main baseline file).
fn render_recovery(r: &mapsynth_bench::recovery::RecoveryMatrixOutcome) -> String {
    use mapsynth_bench::recovery::{RECOVERY_DELTAS, RECOVERY_TABLES};
    format!(
        "{{\n    \"recovery_tables\": {},\n    \"recovery_deltas\": {},\n    \"recovery_kill_points\": {},\n    \"recovery_sweep_replayed\": {},\n    \"recovery_sweep_skipped\": {},\n    \"recovery_generations\": {},\n    \"recovery_wal_segments\": {},\n    \"recovery_full_replayed\": {},\n    \"recovery_matrix_cells\": {},\n    \"recovery_matrix_recovered\": {},\n    \"recovery_matrix_fallbacks\": {},\n    \"recovery_matrix_typed_errors\": {},\n    \"recovery_matrix_torn_repaired\": {},\n    \"recovery_matrix_wal_halted\": {},\n    \"recovery_sweep_recover_ms\": {:.3}\n  }}",
        RECOVERY_TABLES,
        RECOVERY_DELTAS,
        r.kill_points,
        r.sweep_replayed,
        r.sweep_skipped,
        r.full_generations,
        r.full_wal_segments,
        r.full_replayed,
        r.cells.len(),
        r.cells_recovered(),
        r.cells_fallback(),
        r.cells_typed_errors(),
        r.cells_torn_repaired(),
        r.cells_wal_halted(),
        r.sweep_recover_ms,
    )
}

/// `--recovery --check FILE`: re-run the fully verified recovery tier
/// (kill-point oracle equivalence plus every corruption-matrix cell's
/// typed expectation) and fail on exact-count drift against the
/// committed `recovery_detail` block. The sweep and the matrix are
/// deterministic, so every count is exact; recovery latency is
/// informational only.
fn check_recovery(path: &str) -> ! {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let r = recovery_stage(true);

    let exact = [
        (
            "recovery_tables",
            mapsynth_bench::recovery::RECOVERY_TABLES as i64,
        ),
        (
            "recovery_deltas",
            mapsynth_bench::recovery::RECOVERY_DELTAS as i64,
        ),
        ("recovery_kill_points", r.kill_points as i64),
        ("recovery_sweep_replayed", r.sweep_replayed as i64),
        ("recovery_sweep_skipped", r.sweep_skipped as i64),
        ("recovery_generations", r.full_generations as i64),
        ("recovery_wal_segments", r.full_wal_segments as i64),
        ("recovery_full_replayed", r.full_replayed as i64),
        ("recovery_matrix_cells", r.cells.len() as i64),
        ("recovery_matrix_recovered", r.cells_recovered() as i64),
        ("recovery_matrix_fallbacks", r.cells_fallback() as i64),
        (
            "recovery_matrix_typed_errors",
            r.cells_typed_errors() as i64,
        ),
        (
            "recovery_matrix_torn_repaired",
            r.cells_torn_repaired() as i64,
        ),
        ("recovery_matrix_wal_halted", r.cells_wal_halted() as i64),
    ];
    let mut drifted = false;
    for (key, actual) in exact {
        match json_int(&committed, key) {
            Some(expected) if expected == actual => {
                eprintln!("recovery-check {key}: {actual} (ok)");
            }
            Some(expected) => {
                eprintln!("recovery-check {key}: expected {expected}, got {actual} (DRIFT)");
                drifted = true;
            }
            None => {
                eprintln!("recovery-check {key}: missing from baseline (DRIFT)");
                drifted = true;
            }
        }
    }
    for cell in &r.cells {
        eprintln!(
            "recovery-check cell '{}': {} ({:.1} ms)",
            cell.label,
            match (&cell.typed_error, cell.fell_back) {
                (Some(e), _) => format!("typed error {e}"),
                (None, true) => "recovered via fallback".to_string(),
                (None, false) => "recovered".to_string(),
            },
            cell.recover_ms,
        );
    }

    if drifted {
        eprintln!("recovery tier drifted from {path}; regenerate the baseline if intended");
        std::process::exit(1);
    }
    eprintln!("recovery tier matches {path}");
    std::process::exit(0);
}

/// Corpus size of the committed post-delta golden edge dump.
const GOLDEN_TABLES: usize = 200;
/// Committed golden dump of the post-delta compatibility-graph edges
/// (repo-relative; `--check` runs from the workspace root in CI).
const GOLDEN_PATH: &str = "crates/bench/golden/delta_edges_200.txt";

/// `--check` mode: rerun the pipeline (batch *and* incremental stages)
/// at the committed corpus size and fail on any deterministic-count
/// drift — plus a byte-level compare of the post-delta edge dump
/// against the committed golden file.
fn check_against(path: &str) -> ! {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let tables = json_int(&committed, "corpus_tables").expect("corpus_tables in baseline") as usize;

    let mut wc = bench_corpus(tables);
    let mut session = SynthesisSession::new(PipelineConfig::default());
    let output = session.run(&wc.corpus);
    // Snapshot the memo counters now: the committed ceilings describe
    // the batch build, so they must be read before the delta stage
    // grows the memo.
    let memo = session.scores().expect("prepared session").detail.memo;

    // Incremental stage re-run (counts only; the full bench also times
    // a rebuild).
    let delta = bench_delta(&mut wc.corpus, tables);
    session
        .apply_delta(&wc.corpus, &delta)
        .expect("valid delta");
    let run = session.synthesize(&session.config().synthesis.clone(), Resolver::Algorithm4);

    let expectations = [
        ("candidates", output.candidates as i64),
        ("edges", output.edges as i64),
        ("partitions", output.partitions as i64),
        ("mappings", output.mappings.len() as i64),
        ("delta_candidates", session.live_tables() as i64),
        ("delta_edges", run.edges as i64),
        ("delta_partitions", run.partitions as i64),
        ("delta_mappings", run.mappings.len() as i64),
    ];
    let mut drifted = false;
    for (key, actual) in expectations {
        match json_int(&committed, key) {
            Some(expected) if expected == actual => {
                eprintln!("check {key}: {actual} (ok)");
            }
            Some(expected) => {
                eprintln!("check {key}: expected {expected}, got {actual} (DRIFT)");
                drifted = true;
            }
            None => {
                eprintln!("check {key}: missing from baseline (DRIFT)");
                drifted = true;
            }
        }
    }

    // Filter-regression guard: the memo's enumeration and kernel work
    // may only shrink. Counts above the committed ceilings mean the
    // length window or the signature prefilters silently regressed —
    // exactly the failure mode a wall-clock check can't see on CI.
    let ceilings = [
        ("memo_candidate_pairs", memo.candidate_pairs as i64),
        ("memo_dp_calls", memo.dp_calls as i64),
    ];
    for (key, actual) in ceilings {
        match json_int(&committed, key) {
            Some(ceiling) if actual <= ceiling => {
                eprintln!("check {key}: {actual} ≤ {ceiling} (ok)");
            }
            Some(ceiling) => {
                eprintln!("check {key}: {actual} exceeds committed ceiling {ceiling} (DRIFT)");
                drifted = true;
            }
            None => {
                eprintln!("check {key}: missing from baseline (DRIFT)");
                drifted = true;
            }
        }
    }

    // Golden post-delta edge dump: byte-identical or drift.
    match std::fs::read_to_string(GOLDEN_PATH) {
        Ok(golden) => {
            let fresh = mapsynth_bench::post_delta_edge_dump(GOLDEN_TABLES);
            if golden == fresh {
                eprintln!("check golden delta edges: {} bytes (ok)", golden.len());
            } else {
                eprintln!(
                    "check golden delta edges: dump differs from {GOLDEN_PATH} (DRIFT); \
                     regenerate via `cargo run --release -p mapsynth-bench --example dump_edges -- \
                     {GOLDEN_PATH} {GOLDEN_TABLES} --delta` if intended"
                );
                drifted = true;
            }
        }
        Err(e) => {
            eprintln!("check golden delta edges: cannot read {GOLDEN_PATH}: {e} (DRIFT)");
            drifted = true;
        }
    }

    if drifted {
        eprintln!("pipeline counts drifted from {path}; regenerate the baseline if intended");
        std::process::exit(1);
    }
    eprintln!("pipeline counts match {path}");
    std::process::exit(0);
}

/// One measured point of the corpus scale tier.
struct ScalePoint {
    tables: usize,
    candidates: usize,
    edges: usize,
    mappings: usize,
    blocking_pairs: usize,
    memo: mapsynth::approx::ApproxMemoStats,
    /// Coherence sketch-filter funnel: pairs the content sketch
    /// rejected outright, and pairs that went on to probe posting
    /// lists. Their sum tracks the O(samples²) pair loop; the probe
    /// count is the expensive tail the sketch exists to shrink.
    coh_sketch_rejects: u64,
    coh_list_probes: u64,
    extraction_ms: f64,
    value_space_ms: f64,
    blocking_ms: f64,
    scoring_ms: f64,
    approx_memo_ms: f64,
    graph_ms: f64,
    total_ms: f64,
    /// `VmHWM` watermarks (MiB): process start, then after each
    /// prepare stage, then the run's overall peak. `VmHWM` is
    /// monotone, so consecutive differences attribute the growth.
    vmhwm_start_mb: f64,
    vmhwm_extraction_mb: f64,
    vmhwm_value_space_mb: f64,
    vmhwm_scoring_mb: f64,
    vmhwm_peak_mb: f64,
    /// `VmRSS` when the run finished — unlike the watermarks this
    /// drops as stages release memory, so peak − end is the
    /// transient share of the footprint.
    vmrss_end_mb: f64,
}

/// Wall-clock ceiling margin for committed scale points: generous
/// enough to absorb machine variance in CI, tight enough that a
/// complexity-class regression (linear → quadratic between committed
/// points) still trips it.
const MS_CEILING_MARGIN: f64 = 4.0;

/// Measure one scale point: generate the corpus as a stream (never
/// materialized — the whole reason peak RSS stays sublinear), run the
/// streaming prepare with the stage probe sampling `VmHWM`, then the
/// synthesis tail. Serving/delta stages are skipped: this tier is
/// about how extraction, blocking, and the match memo *grow*.
fn measure_scale_point(tables: usize) -> ScalePoint {
    let mb = |kb: u64| kb as f64 / 1024.0;
    let rss_start = peak_rss_kb();
    let mut stream = bench_stream(tables);
    let mut session = SynthesisSession::new(PipelineConfig::default());
    let mut stage_rss: Vec<(&'static str, u64)> = Vec::new();
    session.prepare_streaming_with(&mut stream, |stage| stage_rss.push((stage, peak_rss_kb())));
    let run = session.synthesize(&session.config().synthesis.clone(), Resolver::Algorithm4);
    let peak = peak_rss_kb();

    let rss_of = |stage: &str| {
        stage_rss
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0.0, |&(_, kb)| mb(kb))
    };
    let extraction = session.extraction().expect("prepared");
    let values = session.values().expect("prepared");
    let scores = session.scores().expect("prepared");
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let point = ScalePoint {
        tables,
        candidates: session.live_tables(),
        edges: run.edges,
        mappings: run.mappings.len(),
        blocking_pairs: scores.blocking.pairs,
        memo: scores.detail.memo,
        coh_sketch_rejects: extraction.funnel.sketch_rejects,
        coh_list_probes: extraction.funnel.list_probes,
        extraction_ms: ms(extraction.elapsed),
        value_space_ms: ms(values.elapsed),
        blocking_ms: ms(scores.detail.blocking),
        scoring_ms: ms(scores.elapsed.saturating_sub(scores.detail.blocking)),
        approx_memo_ms: ms(scores.detail.approx_memo),
        graph_ms: ms(run.timings.graph),
        total_ms: ms(run.timings.total),
        vmhwm_start_mb: mb(rss_start),
        vmhwm_extraction_mb: rss_of("extraction"),
        vmhwm_value_space_mb: rss_of("value_space"),
        vmhwm_scoring_mb: rss_of("scoring"),
        vmhwm_peak_mb: mb(peak),
        vmrss_end_mb: mb(mapsynth_bench::current_rss_kb()),
    };
    eprintln!(
        "scale {} tables: {} blocked pairs, {} memo candidate pairs, {} dp calls, \
         {} sketch rejects / {} list probes, extraction {:.1}ms, blocking {:.1}ms, \
         peak rss {:.1}MB",
        tables,
        point.blocking_pairs,
        point.memo.candidate_pairs,
        point.memo.dp_calls,
        point.coh_sketch_rejects,
        point.coh_list_probes,
        point.extraction_ms,
        point.blocking_ms,
        point.vmhwm_peak_mb
    );
    point
}

/// Render one scale point as its (flat-keyed) JSON object. `"tables"`
/// is deliberately the first key: the per-point `--check` scanner
/// scopes its text scan from that key to the object's closing brace.
fn render_point(p: &ScalePoint) -> String {
    format!(
        "      {{\n        \"tables\": {},\n        \"candidates\": {},\n        \"edges\": {},\n        \"mappings\": {},\n        \"blocking_pairs\": {},\n        \"memo_values\": {},\n        \"memo_candidate_pairs\": {},\n        \"memo_sig_mask_rejects\": {},\n        \"memo_sig_hist_rejects\": {},\n        \"memo_dp_calls\": {},\n        \"memo_matched_pairs\": {},\n        \"coh_sketch_rejects\": {},\n        \"coh_list_probes\": {},\n        \"extraction_ms\": {:.3},\n        \"value_space_ms\": {:.3},\n        \"blocking_ms\": {:.3},\n        \"scoring_ms\": {:.3},\n        \"approx_memo_ms\": {:.3},\n        \"graph_ms\": {:.3},\n        \"total_ms\": {:.3},\n        \"vmhwm_start_mb\": {:.1},\n        \"vmhwm_extraction_mb\": {:.1},\n        \"vmhwm_value_space_mb\": {:.1},\n        \"vmhwm_scoring_mb\": {:.1},\n        \"vmhwm_peak_mb\": {:.1},\n        \"vmrss_end_mb\": {:.1},\n        \"ceil_extraction_ms\": {:.0},\n        \"ceil_blocking_ms\": {:.0},\n        \"ceil_blocking_pairs\": {},\n        \"ceil_memo_candidate_pairs\": {},\n        \"ceil_memo_dp_calls\": {},\n        \"ceil_coh_list_probes\": {}\n      }}",
        p.tables,
        p.candidates,
        p.edges,
        p.mappings,
        p.blocking_pairs,
        p.memo.values,
        p.memo.candidate_pairs,
        p.memo.sig_mask_rejects,
        p.memo.sig_hist_rejects,
        p.memo.dp_calls,
        p.memo.matched_pairs,
        p.coh_sketch_rejects,
        p.coh_list_probes,
        p.extraction_ms,
        p.value_space_ms,
        p.blocking_ms,
        p.scoring_ms,
        p.approx_memo_ms,
        p.graph_ms,
        p.total_ms,
        p.vmhwm_start_mb,
        p.vmhwm_extraction_mb,
        p.vmhwm_value_space_mb,
        p.vmhwm_scoring_mb,
        p.vmhwm_peak_mb,
        p.vmrss_end_mb,
        (p.extraction_ms * MS_CEILING_MARGIN).ceil().max(1.0),
        (p.blocking_ms * MS_CEILING_MARGIN).ceil().max(1.0),
        p.blocking_pairs,
        p.memo.candidate_pairs,
        p.memo.dp_calls,
        p.coh_list_probes,
    )
}

/// The scale tier driver: one child process per point (so each point's
/// `VmHWM` watermark is its own, not inherited from a bigger earlier
/// point), assembling the children's stdout blocks into `scale_detail`.
fn scale_stage(points: &[usize]) -> Vec<String> {
    let exe = std::env::current_exe().expect("current_exe");
    points
        .iter()
        .map(|&tables| {
            let out = std::process::Command::new(&exe)
                .args(["--scale-point", &tables.to_string()])
                .output()
                .expect("spawn scale-point child");
            std::io::Write::write_all(&mut std::io::stderr(), &out.stderr).ok();
            assert!(out.status.success(), "scale point {tables} failed");
            String::from_utf8(out.stdout).expect("scale point JSON is UTF-8")
        })
        .collect()
}

/// Render the scale points as the `scale_detail` JSON block.
fn scale_json(max_tables: usize, rows: &[String]) -> String {
    format!(
        "{{\n  \"scale_detail\": {{\n    \"max_tables\": {},\n    \"points\": [\n{}\n    ]\n  }}\n}}\n",
        max_tables,
        rows.join(",\n")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--scale-point") {
        let tables: usize = args
            .get(1)
            .and_then(|v| v.parse().ok())
            .expect("--scale-point needs a corpus size");
        let p = measure_scale_point(tables);
        print!("{}", render_point(&p));
        return;
    }
    if args.first().map(String::as_str) == Some("--delta-stream") {
        if args.get(1).map(String::as_str) == Some("--faults") {
            if args.get(2).map(String::as_str) == Some("--check") {
                let path = args
                    .get(3)
                    .map(String::as_str)
                    .unwrap_or("BENCH_pipeline.json");
                check_fault(path);
            }
            // Standalone (child-process) mode: print the bare
            // `fault_detail` object for embedding by the parent run.
            let r = fault_stage(true);
            print!("{}", render_fault(&r));
            return;
        }
        if args.get(1).map(String::as_str) == Some("--check") {
            let path = args
                .get(2)
                .map(String::as_str)
                .unwrap_or("BENCH_pipeline.json");
            check_stream(path);
        }
        // Standalone (child-process) mode: print the bare
        // `delta_stream_detail` object for embedding by the parent run.
        let r = stream_stage(true);
        print!("{}", render_stream(&r));
        return;
    }
    if args.first().map(String::as_str) == Some("--recovery") {
        if args.get(1).map(String::as_str) == Some("--check") {
            let path = args
                .get(2)
                .map(String::as_str)
                .unwrap_or("BENCH_pipeline.json");
            check_recovery(path);
        }
        // Standalone (child-process) mode: print the bare
        // `recovery_detail` object for embedding by the parent run.
        let r = recovery_stage(true);
        print!("{}", render_recovery(&r));
        return;
    }
    if args.first().map(String::as_str) == Some("--check") {
        let path = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("BENCH_pipeline.json");
        check_against(path);
    }
    if args.first().map(String::as_str) == Some("--tables") {
        let max_tables: usize = args
            .get(1)
            .and_then(|v| v.parse().ok())
            .expect("--tables needs a corpus size");
        let mut points: Option<Vec<usize>> = None;
        let mut check: Option<String> = None;
        let mut out: Option<String> = None;
        let mut i = 2;
        while i < args.len() {
            match args[i].as_str() {
                "--points" => {
                    let arg = args
                        .get(i + 1)
                        .expect("--points needs a comma-separated list");
                    points = Some(mapsynth_bench::parse_points(arg).unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }));
                    i += 2;
                }
                "--check" => {
                    // The path is optional: a following flag is not it.
                    let path = args.get(i + 1).filter(|a| !a.starts_with("--"));
                    i += 1 + usize::from(path.is_some());
                    check =
                        Some(path.map_or_else(|| "BENCH_scale.json".to_string(), String::clone));
                }
                other => {
                    out = Some(other.to_string());
                    i += 1;
                }
            }
        }
        if let Some(path) = check {
            check_scale_point(max_tables, &path);
        }
        let points = points.unwrap_or_else(|| {
            [max_tables / 4, max_tables / 2, max_tables]
                .into_iter()
                .filter(|&t| t > 0)
                .collect()
        });
        let rows = scale_stage(&points);
        let json = scale_json(max_tables, &rows);
        match out {
            Some(path) => {
                std::fs::write(&path, &json).expect("write scale file");
                eprintln!("wrote {path}");
                print!("{json}");
            }
            None => print!("{json}"),
        }
        return;
    }
    let out_path = args.first().cloned();
    let tables: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(600);

    let mut wc = bench_corpus(tables);
    let cfg = PipelineConfig::default();
    let requested_workers = cfg.workers;
    let mut session = SynthesisSession::new(cfg);
    let rss_start_kb = peak_rss_kb();
    let mut stage_rss: Vec<(&'static str, u64)> = Vec::new();
    session.prepare_with(&wc.corpus, |stage| stage_rss.push((stage, peak_rss_kb())));
    let output = session.run(&wc.corpus);
    let t = output.timings;
    let detail = session.scores().expect("prepared").detail;

    let threads = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let serving = serving_stage(&output.mappings, threads);

    let delta = delta_stage(&mut session, &mut wc.corpus, tables, &output.mappings);
    let rss_end_kb = peak_rss_kb();

    // Sustained-stream tier in a child process, so its RSS probes read
    // only the stream's own footprint — not the 600-table batch state
    // still resident in this process.
    let stream_block = {
        let exe = std::env::current_exe().expect("current_exe");
        let out = std::process::Command::new(&exe)
            .arg("--delta-stream")
            .output()
            .expect("spawn delta-stream child");
        std::io::Write::write_all(&mut std::io::stderr(), &out.stderr).ok();
        assert!(out.status.success(), "delta-stream stage failed");
        String::from_utf8(out.stdout).expect("delta-stream JSON is UTF-8")
    };

    // Fault-injection tier, also in a child process (it spawns its own
    // ingestor + reader threads and runs a fresh-oracle rebuild).
    let fault_block = {
        let exe = std::env::current_exe().expect("current_exe");
        let out = std::process::Command::new(&exe)
            .args(["--delta-stream", "--faults"])
            .output()
            .expect("spawn fault-stream child");
        std::io::Write::write_all(&mut std::io::stderr(), &out.stderr).ok();
        assert!(out.status.success(), "fault-injection stage failed");
        String::from_utf8(out.stdout).expect("fault-stream JSON is UTF-8")
    };

    // Crash-recovery tier, also in a child process (it persists and
    // recovers its own ingestor states in a scratch directory keyed by
    // the child's pid).
    let recovery_block = {
        let exe = std::env::current_exe().expect("current_exe");
        let out = std::process::Command::new(&exe)
            .arg("--recovery")
            .output()
            .expect("spawn recovery child");
        std::io::Write::write_all(&mut std::io::stderr(), &out.stderr).ok();
        assert!(out.status.success(), "recovery stage failed");
        String::from_utf8(out.stdout).expect("recovery JSON is UTF-8")
    };
    let mb = |kb: u64| kb as f64 / 1024.0;
    let rss_of = |stage: &str| {
        stage_rss
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0.0, |&(_, kb)| mb(kb))
    };

    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let delta_apply_ms = ms(delta.report.timings.total);
    let json = format!(
        "{{\n  \"corpus_tables\": {},\n  \"candidates\": {},\n  \"edges\": {},\n  \"partitions\": {},\n  \"mappings\": {},\n  \"coh_sketch_rejects\": {},\n  \"coh_list_probes\": {},\n  \"stage_ms\": {{\n    \"extraction\": {:.3},\n    \"value_space\": {:.3},\n    \"graph\": {:.3},\n    \"partition\": {:.3},\n    \"conflict\": {:.3},\n    \"total\": {:.3}\n  }},\n  \"graph_detail\": {{\n    \"blocking_ms\": {:.3},\n    \"index_build_ms\": {:.3},\n    \"approx_memo_ms\": {:.3},\n    \"merge_join_ms\": {:.3},\n    \"memo_values\": {},\n    \"memo_candidate_pairs\": {},\n    \"memo_sig_mask_rejects\": {},\n    \"memo_sig_hist_rejects\": {},\n    \"memo_dp_calls\": {},\n    \"memo_matched_pairs\": {}\n  }},\n  \"stage_peak_rss_mb\": {{\n    \"start\": {:.1},\n    \"extraction\": {:.1},\n    \"value_space\": {:.1},\n    \"scoring\": {:.1},\n    \"end\": {:.1}\n  }},\n  \"workers\": {{\n    \"requested\": {},\n    \"effective\": {},\n    \"available\": {}\n  }},\n  \"serving\": {{\n    \"shards\": {},\n    \"values\": {},\n    \"mappings\": {},\n    \"snapshot_build_ms\": {:.3},\n    \"probe_keys\": {},\n    \"lookups\": {},\n    \"single_thread_qps\": {:.0},\n    \"threads\": {},\n    \"multi_thread_qps\": {:.0},\n    \"hit_rate\": {:.3}\n  }},\n  \"delta_detail\": {{\n    \"delta_removed_tables\": {},\n    \"delta_added_tables\": {},\n    \"delta_reordered\": {},\n    \"delta_coherence_flips\": {},\n    \"delta_candidates\": {},\n    \"delta_edges\": {},\n    \"delta_partitions\": {},\n    \"delta_mappings\": {},\n    \"delta_pairs_kept\": {},\n    \"delta_pairs_added\": {},\n    \"delta_pairs_removed\": {},\n    \"delta_memo_dp_calls\": {},\n    \"delta_apply_ms\": {{\n      \"extraction\": {:.3},\n      \"values\": {:.3},\n      \"blocking\": {:.3},\n      \"scoring\": {:.3},\n      \"total\": {:.3}\n    }},\n    \"delta_synth_ms\": {:.3},\n    \"full_rebuild_ms\": {:.3},\n    \"delta_speedup\": {:.2},\n    \"delta_serve\": {{\n      \"publish_added\": {},\n      \"publish_removed\": {},\n      \"publish_unchanged\": {},\n      \"rebuilt_shards\": {},\n      \"total_shards\": {},\n      \"publish_delta_ms\": {:.3}\n    }}\n  }},\n  \"delta_stream_detail\": {},\n  \"fault_detail\": {},\n  \"recovery_detail\": {}\n}}\n",
        tables,
        output.candidates,
        output.edges,
        output.partitions,
        output.mappings.len(),
        session.extraction().expect("prepared").funnel.sketch_rejects,
        session.extraction().expect("prepared").funnel.list_probes,
        ms(t.extraction),
        ms(t.value_space),
        ms(t.graph),
        ms(t.partition),
        ms(t.conflict),
        ms(t.total),
        ms(detail.blocking),
        ms(detail.index_build),
        ms(detail.approx_memo),
        ms(detail.merge_join),
        detail.memo.values,
        detail.memo.candidate_pairs,
        detail.memo.sig_mask_rejects,
        detail.memo.sig_hist_rejects,
        detail.memo.dp_calls,
        detail.memo.matched_pairs,
        mb(rss_start_kb),
        rss_of("extraction"),
        rss_of("value_space"),
        rss_of("scoring"),
        mb(rss_end_kb),
        requested_workers,
        session.workers(),
        threads,
        serving.shards,
        serving.values,
        serving.mappings,
        serving.build_ms,
        serving.probe_keys,
        SERVING_LOOKUPS,
        serving.single_thread_qps,
        serving.threads,
        serving.multi_thread_qps,
        serving.hit_rate,
        delta.report.tables_removed,
        delta.report.tables_added,
        usize::from(delta.report.reordered),
        delta.report.coherence_flips,
        delta.candidates,
        delta.edges,
        delta.partitions,
        delta.mappings,
        delta.report.pairs_kept,
        delta.report.pairs_added,
        delta.report.pairs_removed,
        delta.report.memo_dp_calls,
        ms(delta.report.timings.extraction),
        ms(delta.report.timings.values),
        ms(delta.report.timings.blocking),
        ms(delta.report.timings.scoring),
        delta_apply_ms,
        delta.synth_ms,
        delta.rebuild_ms,
        delta.rebuild_ms / (delta_apply_ms + delta.synth_ms),
        delta.serve.added,
        delta.serve.removed,
        delta.serve.unchanged,
        delta.serve.rebuilt_shards,
        delta.serve.total_shards,
        delta.publish_delta_ms,
        stream_block,
        fault_block,
        recovery_block,
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("write baseline file");
            eprintln!("wrote {path}");
            print!("{json}");
        }
        None => print!("{json}"),
    }
}
