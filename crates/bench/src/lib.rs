//! # mapsynth-bench
//!
//! Shared fixtures for the Criterion micro-benchmarks and the
//! `pipeline_baseline` tiers ([`harness`] holds the tiers' record,
//! renderer and check engine). The benches are kernel ablations of the
//! paper's algorithms; the paper's figures themselves are the `eval`
//! crate's `experiments` subcommands. Every bench runs in CI's smoke
//! step:
//!
//! | Bench | Paper artifact |
//! |---|---|
//! | `micro_edit_distance` | Algorithm 2 ablation: banded vs bit-parallel Myers vs full DP, across length buckets |
//! | `micro_blocking` | §4.1 ablation: blocked vs all-pairs scoring |
//! | `micro_coherence` | §3.1 kernel: `column_coherence_detailed` per structural column and per list probe, at 600 and 7,500 tables |
//! | `micro_partition` | Algorithms 3–4: greedy partition, conflict resolution, majority vote, union |
//! | `micro_scoring` | §4.1 hot path: shared `ScoringContext` vs throwaway per-pair scoring |

pub mod fault;
pub mod harness;
pub mod recovery;

use mapsynth::delta::CorpusDelta;
use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth_corpus::{Corpus, RowPatch, TableId};
use mapsynth_gen::procedural::ProceduralConfig;
use mapsynth_gen::webgen::WebCorpus;
use mapsynth_gen::{generate_web, WebConfig, WebTableStream};

/// The generator configuration behind every benchmark corpus —
/// [`bench_corpus`] and [`bench_stream`] share it, so the streamed and
/// materialized fixtures are the same corpus.
pub fn bench_config(tables: usize) -> WebConfig {
    WebConfig {
        tables,
        domains: (tables / 20).clamp(30, 200),
        procedural: ProceduralConfig {
            families: 20,
            temporal_families: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A small deterministic web corpus for benchmarks.
pub fn bench_corpus(tables: usize) -> WebCorpus {
    generate_web(&bench_config(tables))
}

/// The benchmark corpus as a bounded-memory
/// [`TableSource`](mapsynth_corpus::TableSource): yields exactly the tables
/// [`bench_corpus`] materializes, one at a time, for the scale tier's
/// streaming runs.
pub fn bench_stream(tables: usize) -> WebTableStream {
    WebTableStream::new(bench_config(tables))
}

/// Peak resident-set size of this process in kibibytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable. A
/// monotone high-water mark: sampling it after each pipeline stage
/// shows which stage pushed the peak.
pub fn peak_rss_kb() -> u64 {
    proc_status_kb("VmHWM:")
}

/// Current resident-set size of this process in kibibytes (`VmRSS`
/// from `/proc/self/status`), or 0 where procfs is unavailable.
/// Unlike [`peak_rss_kb`] this goes *down* when memory is reclaimed —
/// the probe behind the delta-stream tier's post-compaction reading.
pub fn current_rss_kb() -> u64 {
    proc_status_kb("VmRSS:")
}

fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Parse a `--points` argument: a comma-separated list of corpus
/// sizes that must be strictly increasing and non-zero. Duplicate,
/// unsorted, zero, or non-numeric points are configuration mistakes —
/// each gets its own error message rather than a silent reorder (the
/// scale harness assumes growth-curve order) or a cryptic panic.
pub fn parse_points(arg: &str) -> Result<Vec<usize>, String> {
    let mut points = Vec::new();
    for part in arg.split(',') {
        let part = part.trim();
        let n: usize = part
            .parse()
            .map_err(|_| format!("--points: `{part}` is not a table count"))?;
        if n == 0 {
            return Err("--points: table counts must be non-zero".to_string());
        }
        if let Some(&prev) = points.last() {
            if n == prev {
                return Err(format!("--points: duplicate point {n}"));
            }
            if n < prev {
                return Err(format!(
                    "--points: {n} after {prev} — points must be sorted ascending"
                ));
            }
        }
        points.push(n);
    }
    if points.is_empty() {
        return Err("--points: expected at least one table count".to_string());
    }
    Ok(points)
}

/// Append one table of `src` to `dst`, re-interning its strings (the
/// two corpora own separate interners).
pub fn append_table(dst: &mut Corpus, src: &Corpus, ti: usize) -> TableId {
    let t = &src.tables[ti];
    let name = &src.domain_names[t.domain.0 as usize];
    let d = dst.domain(name);
    let cols: Vec<(Option<&str>, Vec<&str>)> = t
        .columns
        .iter()
        .map(|c| {
            (
                c.header.map(|h| src.str_of(h)),
                c.values.iter().map(|&v| src.str_of(v)).collect(),
            )
        })
        .collect();
    dst.push_table(d, cols)
}

/// Format a compatibility graph's edge list (weights at 17 significant
/// digits) for byte-identity golden comparisons.
pub fn format_edges(graph: &mapsynth::CompatGraph) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for &(a, b, w) in &graph.edges {
        writeln!(out, "{a} {b} {:.17e} {:.17e}", w.pos, w.neg).unwrap();
    }
    out
}

/// The post-delta golden dump: prepare a [`bench_corpus`] of `tables`
/// tables, apply the standard [`bench_delta`], and format the
/// resulting compatibility-graph edges. Committed under
/// `crates/bench/golden/` and byte-compared by
/// `pipeline_baseline --check` so any drift in the incremental path —
/// blocking, memo growth, count reuse — fails CI.
pub fn post_delta_edge_dump(tables: usize) -> String {
    use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
    let mut wc = bench_corpus(tables);
    let mut session = SynthesisSession::new(PipelineConfig::default());
    session.prepare(&wc.corpus);
    let delta = bench_delta(&mut wc.corpus, tables);
    session
        .apply_delta(&wc.corpus, &delta)
        .expect("valid delta");
    format_edges(&session.graph(&session.config().synthesis))
}

/// The standard incremental-update workload over a [`bench_corpus`] of
/// `tables` tables: remove `tables/40` spread tables and append the
/// same number of freshly generated ones (a "new crawl" of unseen
/// sites) — a ~5% churn. Deterministic; mutates `corpus` by appending
/// the new tables and returns the delta to apply.
pub fn bench_delta(corpus: &mut Corpus, tables: usize) -> CorpusDelta {
    let n = (tables / 40).max(1);
    let mut seen = std::collections::HashSet::new();
    let removed: Vec<TableId> = (0u32..)
        .map(|k| TableId((k * 53) % tables as u32))
        .filter(|t| seen.insert(*t))
        .take(n)
        .collect();
    let fresh = generate_web(&WebConfig {
        tables: n,
        domains: (n / 3).max(2),
        procedural: ProceduralConfig {
            families: 4,
            temporal_families: 0,
            ..Default::default()
        },
        ..Default::default()
    });
    let added: Vec<TableId> = (0..fresh.corpus.len())
        .map(|ti| append_table(corpus, &fresh.corpus, ti))
        .collect();
    CorpusDelta {
        added,
        removed,
        patches: vec![],
    }
}

/// Corpus size of the sustained row-delta stream tier.
pub const STREAM_TABLES: usize = 200;
/// Deltas driven through the session by the stream tier.
pub const STREAM_DELTAS: usize = 1200;
/// The stream publishes an incremental snapshot every this many deltas.
pub const STREAM_PUBLISH_EVERY: usize = 32;
/// Compaction threshold used by the stream tier: garbage is reclaimed
/// aggressively so a 1000+-delta run exercises several compactions.
pub const STREAM_COMPACT_THRESHOLD: f64 = 0.05;

/// Deterministic splitmix64 generator driving the row-delta stream.
pub struct StreamRng(u64);

impl StreamRng {
    /// Seeded generator; the stream tier always uses the same seed.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A removed table's content, stashed for later re-insertion (the
/// stream's re-crawl churn): domain name plus full columns.
type StashedTable = (String, Vec<(Option<String>, Vec<String>)>);

/// Everything the sustained row-delta stream produced, for the
/// `delta_stream_detail` bench block and the post-stream golden dump.
pub struct DeltaStreamOutcome {
    /// The session after the full stream (compacted zero or more times).
    pub session: SynthesisSession,
    /// The corpus the session tracks (replaced at each compaction).
    pub corpus: Corpus,
    /// Wall-clock of each `apply_delta` call, milliseconds.
    pub apply_ms: Vec<f64>,
    /// Deltas that were a row patch.
    pub row_patches: usize,
    /// Deltas that removed a table.
    pub removals: usize,
    /// Deltas that re-inserted a stashed table.
    pub additions: usize,
    /// Deltas that took the renumber path.
    pub reorders: usize,
    /// Compaction passes triggered by `compaction_due`.
    pub compactions: usize,
    /// `VmRSS` (MiB) right after the last compaction (0 if none) —
    /// the instantaneous residency, which *drops* when compaction
    /// reclaims memory.
    pub post_compact_vmrss_mb: f64,
    /// `VmHWM` (MiB) at the same instant — the process-lifetime
    /// high-water mark, which never drops.
    pub post_compact_vmhwm_mb: f64,
}

/// Drive the sustained row-delta stream: `deltas` deterministic deltas
/// over a [`bench_corpus`] of `tables` tables — mostly single-row
/// patches (delete, insert, edit, touch), with an occasional table
/// removal or re-insertion of stashed content — each applied through
/// [`SynthesisSession::apply_delta`], compacting whenever
/// [`SynthesisSession::compaction_due`] fires. Every
/// [`STREAM_PUBLISH_EVERY`] deltas the current synthesis output is
/// handed to `on_publish` (the bench binary feeds it to
/// `MappingService::publish_delta`; the golden dump passes a no-op).
///
/// With `verify`, the session is compared pair-for-pair against a
/// fresh batch session at the midpoint and the end, and the unified
/// candidate counters are balance-checked across the whole stream.
/// The sequence of corpus states, compaction points and session
/// artifacts is a pure function of `(tables, deltas)` — `on_publish`
/// and `verify` never influence it — which is what makes the
/// committed post-stream edge dump reproducible.
pub fn run_delta_stream(
    tables: usize,
    deltas: usize,
    verify: bool,
    mut on_publish: impl FnMut(&[mapsynth::SynthesizedMapping]),
) -> DeltaStreamOutcome {
    let wc = bench_corpus(tables);
    let mut corpus = wc.corpus;
    let mut session = SynthesisSession::new(PipelineConfig {
        compact_threshold: STREAM_COMPACT_THRESHOLD,
        ..Default::default()
    });
    session.prepare(&corpus);
    let mut alive: Vec<TableId> = (0..corpus.len() as u32).map(TableId).collect();
    let mut stash: Vec<StashedTable> = Vec::new();
    let mut rng = StreamRng::new(0x5eed_cafe);
    let mut expected_live = session.extraction().expect("prepared").candidates.len();

    let mut out = DeltaStreamOutcome {
        apply_ms: Vec::with_capacity(deltas),
        row_patches: 0,
        removals: 0,
        additions: 0,
        reorders: 0,
        compactions: 0,
        post_compact_vmrss_mb: 0.0,
        post_compact_vmhwm_mb: 0.0,
        session: SynthesisSession::new(PipelineConfig::default()),
        corpus: Corpus::new(),
    };

    for k in 0..deltas {
        let delta = if k % 48 == 17 && alive.len() > tables / 2 {
            // Table churn: retire one live table, stashing its content.
            let tid = alive[rng.below(alive.len())];
            let t = corpus.table(tid);
            let name = corpus.domain_names[t.domain.0 as usize].clone();
            let cols: Vec<(Option<String>, Vec<String>)> = t
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
            stash.push((name, cols));
            if stash.len() > 8 {
                stash.remove(0);
            }
            alive.retain(|&t| t != tid);
            out.removals += 1;
            CorpusDelta {
                added: vec![],
                removed: vec![tid],
                patches: vec![],
            }
        } else if k % 48 == 33 && !stash.is_empty() {
            // Re-crawl: push a stashed table back under a fresh id.
            let (name, cols) = stash.remove(0);
            let d = corpus.domain(&name);
            let cols_ref: Vec<(Option<&str>, Vec<&str>)> = cols
                .iter()
                .map(|(h, vs)| (h.as_deref(), vs.iter().map(String::as_str).collect()))
                .collect();
            let tid = corpus.push_table(d, cols_ref);
            alive.push(tid);
            out.additions += 1;
            CorpusDelta {
                added: vec![tid],
                removed: vec![],
                patches: vec![],
            }
        } else {
            // A single-row patch on a random live table.
            let tid = alive[rng.below(alive.len())];
            let (deleted, inserted) = {
                let t = corpus.table(tid);
                let nrows = t.rows();
                let row_at = |r: usize| -> Vec<String> {
                    t.columns
                        .iter()
                        .map(|c| corpus.str_of(c.values[r]).to_string())
                        .collect()
                };
                match (rng.below(4), nrows) {
                    (0, 1..) => (vec![row_at(rng.below(nrows))], vec![]),
                    (1, _) | (_, 0) => {
                        // Insert a brand-new row: fresh values that only
                        // compaction will ever reclaim.
                        let fresh: Vec<String> = (0..t.width())
                            .map(|c| format!("stream row {k} col {c}"))
                            .collect();
                        (vec![], vec![fresh])
                    }
                    (2, _) => {
                        // Edit: replace one cell of an existing row.
                        let row = row_at(rng.below(nrows));
                        let mut edited = row.clone();
                        let c = rng.below(edited.len());
                        edited[c] = format!("{} v{k}", edited[c]);
                        (vec![row], vec![edited])
                    }
                    (_, _) => {
                        // Touch: delete + re-insert the same tuple.
                        let row = row_at(rng.below(nrows));
                        (vec![row.clone()], vec![row])
                    }
                }
            };
            let patch = RowPatch {
                table: tid,
                deleted,
                inserted,
            };
            corpus.apply_row_patch(&patch);
            out.row_patches += 1;
            CorpusDelta {
                added: vec![],
                removed: vec![],
                patches: vec![patch],
            }
        };

        let t = std::time::Instant::now();
        let report = session.apply_delta(&corpus, &delta).expect("valid delta");
        out.apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.reorders += usize::from(report.reordered);
        expected_live = expected_live + report.candidates_added - report.candidates_tombstoned;

        if session.compaction_due() {
            corpus = session.compact(&corpus);
            alive = (0..corpus.len() as u32).map(TableId).collect();
            out.compactions += 1;
            out.post_compact_vmrss_mb = current_rss_kb() as f64 / 1024.0;
            out.post_compact_vmhwm_mb = peak_rss_kb() as f64 / 1024.0;
        }

        if (k + 1) % STREAM_PUBLISH_EVERY == 0 {
            let run = session.synthesize(&session.config().synthesis.clone(), Resolver::Algorithm4);
            on_publish(&run.mappings);
        }

        if verify && (k + 1 == deltas / 2 || k + 1 == deltas) {
            assert_eq!(
                expected_live,
                session.extraction().expect("prepared").candidates.len()
                    - (0..session.extraction().expect("prepared").candidates.len() as u32)
                        .filter(|&i| !session.is_live(i))
                        .count(),
                "candidate counters out of balance after {} deltas",
                k + 1
            );
            let live = session.live_corpus(&corpus);
            let mut fresh = SynthesisSession::new(PipelineConfig::default());
            let fresh_out = fresh.run(&live);
            let run = session.synthesize(&session.config().synthesis.clone(), Resolver::Algorithm4);
            assert_eq!(
                run.mappings.len(),
                fresh_out.mappings.len(),
                "stream diverged from fresh rebuild after {} deltas",
                k + 1
            );
            for (a, b) in run.mappings.iter().zip(&fresh_out.mappings) {
                assert_eq!(
                    a.materialize_pairs(),
                    b.materialize_pairs(),
                    "stream diverged from fresh rebuild after {} deltas",
                    k + 1
                );
            }
        }
    }

    out.session = session;
    out.corpus = corpus;
    out
}

/// The post-stream golden dump: run the full deterministic delta
/// stream and format the final compatibility-graph edges. Committed
/// under `crates/bench/golden/` and byte-compared by
/// `pipeline_baseline --delta-stream --check`, so any drift in the
/// row-patch path, the compaction renumbering, or their interleaving
/// fails CI.
pub fn post_stream_edge_dump(tables: usize, deltas: usize) -> String {
    let out = run_delta_stream(tables, deltas, false, |_| {});
    format_edges(&out.session.graph(&out.session.config().synthesis))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short verified stream: exercises every step kind (patch modes,
    /// removal at k=17, stashed re-insertion at k=33), at least one
    /// publish, and the midpoint/endpoint fresh-rebuild comparison.
    #[test]
    fn short_stream_matches_fresh_rebuilds() {
        let mut publishes = 0usize;
        let out = run_delta_stream(12, 60, true, |mappings| {
            publishes += 1;
            assert!(!mappings.is_empty(), "stream publish produced no mappings");
        });
        assert_eq!(publishes, 60 / STREAM_PUBLISH_EVERY);
        assert_eq!(out.apply_ms.len(), 60);
        assert_eq!(out.removals, 1);
        assert_eq!(out.additions, 1);
        assert_eq!(out.row_patches, 58);
        assert!(
            out.session.garbage_fractions().0 <= STREAM_COMPACT_THRESHOLD
                && out.session.garbage_fractions().1 <= STREAM_COMPACT_THRESHOLD,
            "stream ended above the compaction threshold"
        );
    }

    #[test]
    fn parse_points_accepts_sorted_unique_lists() {
        assert_eq!(parse_points("600").unwrap(), vec![600]);
        assert_eq!(
            parse_points("600, 7500,15000").unwrap(),
            vec![600, 7500, 15000]
        );
    }

    #[test]
    fn parse_points_rejects_malformed_lists() {
        for (arg, needle) in [
            ("", "not a table count"),
            ("abc", "not a table count"),
            ("600,,7500", "not a table count"),
            ("0,600", "non-zero"),
            ("600,600", "duplicate point 600"),
            ("7500,600", "sorted ascending"),
        ] {
            let err = parse_points(arg).unwrap_err();
            assert!(
                err.contains(needle),
                "parse_points({arg:?}) → {err:?}, expected {needle:?}"
            );
        }
    }

    /// The stream is a pure function of (tables, deltas): two dumps of
    /// the same stream are byte-identical.
    #[test]
    fn stream_edge_dump_is_deterministic() {
        let a = post_stream_edge_dump(50, 50);
        let b = post_stream_edge_dump(50, 50);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
