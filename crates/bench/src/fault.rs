//! Deterministic fault-injection harness over the serve-side
//! [`DeltaIngestor`]: a seeded request stream with malformed deltas
//! and induced apply panics at *chosen* positions — so the harness
//! knows every expected rejection and quarantine entry **a priori** and
//! can gate them exactly.
//!
//! The stream mirrors the sustained row-delta stream's churn shape
//! (row patches, table removals, stashed re-insertions) but goes
//! through the key-addressed [`DeltaRequest`] API, while the driver
//! keeps a *shadow* of the accepted-only corpus content. At the end
//! the harness proves the robustness contract:
//!
//! * the post-stream session is bit-identical (observable synthesis
//!   output) to a **fresh session prepared on a corpus rebuilt from
//!   the shadow** — i.e. from the accepted deltas only, as if every
//!   poisoned delta had never been submitted;
//! * every rejected delta is present in the quarantine with its exact
//!   stream position and expected typed reason;
//! * a concurrent reader sustained lookups throughout, observing only
//!   monotone snapshot versions (serving QPS under churn is recorded).

use crate::{StreamRng, STREAM_COMPACT_THRESHOLD};
use mapsynth::delta::DeltaError;
use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth_corpus::{Corpus, RowPatchError};
use mapsynth_serve::ingest::{
    DeltaIngestor, DeltaRequest, FaultInjector, IngestError, IngestOutcome, IngestStats,
    IngestorConfig, PatchSpec, TableSpec,
};
use mapsynth_serve::MappingService;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Corpus size of the fault-injection stream tier.
pub const FAULT_STREAM_TABLES: usize = 100;
/// Requests driven through the ingestor by the fault tier.
pub const FAULT_STREAM_DELTAS: usize = 400;
/// Ingestor publish cadence used by the fault tier.
pub const FAULT_PUBLISH_EVERY: usize = 25;

/// The kind of poison planted at a malformed stream position. Kinds
/// cycle in this order, exercising key resolution, corpus-level patch
/// validation and session-level delta validation respectively.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MalformedKind {
    /// A removal naming a key that was never live.
    UnknownKey,
    /// An add re-using a live key.
    DuplicateKey,
    /// A patch deleting a row its table does not contain.
    MissingRow,
    /// A patch with no deletions and no insertions.
    EmptyPatch,
}

const MALFORMED_CYCLE: [MalformedKind; 4] = [
    MalformedKind::UnknownKey,
    MalformedKind::DuplicateKey,
    MalformedKind::MissingRow,
    MalformedKind::EmptyPatch,
];

/// What the plan expects the quarantine to hold for one rejected
/// position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpectedRejection {
    /// One of the malformed kinds.
    Malformed(MalformedKind),
    /// An induced apply panic, contained by the session.
    ApplyPanicked,
}

/// The deterministic fault plan: which stream positions carry
/// malformed requests and which valid requests get their apply
/// sabotaged. A pure function of the stream length, so the harness can
/// compute every expected counter before the stream runs.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Stream positions carrying a malformed request, with its kind.
    pub malformed: Vec<(u64, MalformedKind)>,
    /// Stream positions whose (valid) request gets an induced apply
    /// panic.
    pub sabotaged: Vec<u64>,
}

impl FaultPlan {
    /// The standard plan over a `deltas`-long stream: a malformed
    /// request every 37 positions (kinds cycling) and an induced panic
    /// every 53 positions (where not already malformed).
    pub fn standard(deltas: usize) -> Self {
        let mut malformed = Vec::new();
        let mut sabotaged = Vec::new();
        for seq in 0..deltas as u64 {
            if seq % 37 == 7 {
                malformed.push((seq, MALFORMED_CYCLE[malformed.len() % 4]));
            } else if seq % 53 == 23 {
                sabotaged.push(seq);
            }
        }
        Self {
            malformed,
            sabotaged,
        }
    }
}

/// [`FaultInjector`] driving the ingestor from a [`FaultPlan`]: the
/// positions whose apply is sabotaged.
struct PlanInjector(std::collections::HashSet<u64>);

impl FaultInjector for PlanInjector {
    fn sabotage_apply(&mut self, seq: u64) -> bool {
        self.0.contains(&seq)
    }
}

/// One shadow table: stable key, domain name, full columns. The shadow
/// is the driver's accepted-deltas-only record of corpus content —
/// insertion-ordered, exactly like live tables in the ingestor's
/// corpus (compaction preserves relative order).
#[derive(Clone)]
struct ShadowTable {
    key: u64,
    domain: String,
    columns: Vec<(Option<String>, Vec<String>)>,
}

impl ShadowTable {
    fn rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, v)| v.len())
    }
    fn row_at(&self, r: usize) -> Vec<String> {
        self.columns.iter().map(|(_, v)| v[r].clone()).collect()
    }
    fn delete_row_matching(&mut self, tuple: &[String]) {
        let rows = self.rows();
        let at = (0..rows)
            .find(|&r| {
                self.columns
                    .iter()
                    .zip(tuple)
                    .all(|((_, v), cell)| &v[r] == cell)
            })
            .expect("shadow row sampled from shadow content");
        for (_, v) in &mut self.columns {
            v.remove(at);
        }
    }
    fn insert_row(&mut self, tuple: &[String]) {
        for ((_, v), cell) in self.columns.iter_mut().zip(tuple) {
            v.push(cell.clone());
        }
    }
}

/// Everything the fault-injection stream produced.
pub struct FaultStreamOutcome {
    /// The post-stream session (from the ingestor's shutdown).
    pub session: SynthesisSession,
    /// The post-stream corpus the session tracks.
    pub corpus: Corpus,
    /// Final ingestor counters.
    pub stats: IngestStats,
    /// Requests planted malformed.
    pub malformed: usize,
    /// Requests whose apply was sabotaged.
    pub sabotaged: usize,
    /// Reader lookups completed while the stream ran.
    pub churn_lookups: u64,
    /// Reader lookup throughput under churn (0 when the probe is off).
    pub churn_qps: f64,
    /// Served snapshot version at shutdown (== publishes).
    pub served_version: u64,
}

/// Drive [`FAULT_STREAM_DELTAS`]-shaped request streams with the given
/// sizes through a [`DeltaIngestor`] under [`FaultPlan::standard`].
///
/// With `verify`, every robustness assertion runs: exact quarantine
/// positions + typed reasons, monotone reader versions, and the
/// accepted-deltas-only oracle (a fresh session on a corpus rebuilt
/// from the shadow must observe exactly what the streamed session
/// observes). With `qps_probe`, a concurrent
/// reader hammers the served snapshot throughout and its throughput is
/// recorded.
///
/// The session/corpus outcome is a pure function of `(tables, deltas)`
/// — the reader and `verify` never influence it — which is what makes
/// the committed post-stream edge dump reproducible.
pub fn run_fault_stream(
    tables: usize,
    deltas: usize,
    verify: bool,
    qps_probe: bool,
) -> FaultStreamOutcome {
    let plan = FaultPlan::standard(deltas);
    let wc = crate::bench_corpus(tables);
    let corpus = wc.corpus;

    // Shadow: accepted-only content, seeded from the initial corpus.
    let mut shadow: Vec<ShadowTable> = (0..corpus.len())
        .map(|ti| {
            let t = &corpus.tables[ti];
            ShadowTable {
                key: ti as u64,
                domain: corpus.domain_names[t.domain.0 as usize].clone(),
                columns: t
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
                    .collect(),
            }
        })
        .collect();
    let initial_keys: Vec<u64> = shadow.iter().map(|t| t.key).collect();

    let mut session = SynthesisSession::new(PipelineConfig {
        compact_threshold: STREAM_COMPACT_THRESHOLD,
        ..Default::default()
    });
    session.prepare(&corpus);

    let service = Arc::new(MappingService::new());
    let cfg = IngestorConfig {
        publish_every: FAULT_PUBLISH_EVERY,
        ..IngestorConfig::default()
    };
    let ingestor = DeltaIngestor::spawn(
        session,
        corpus,
        &initial_keys,
        Arc::clone(&service),
        cfg,
        Box::new(PlanInjector(plan.sabotaged.iter().copied().collect())),
    )
    .expect("ingestor config is valid");

    // Concurrent reader: holds the graceful-degradation contract to
    // account — lookups must keep answering from complete snapshots
    // with monotone versions through every fault.
    let stop = Arc::new(AtomicBool::new(false));
    let probe_keys: Vec<String> = shadow
        .iter()
        .take(8)
        .flat_map(|t| {
            t.columns
                .first()
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        })
        .take(64)
        .collect();
    let reader = qps_probe.then(|| {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let keys = probe_keys.clone();
        std::thread::spawn(move || {
            let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
            let mut lookups = 0u64;
            let mut last_version = 0u64;
            let t = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                let snap = service.snapshot();
                let v = snap.version();
                assert!(
                    v >= last_version,
                    "served version moved backwards: {last_version} -> {v}"
                );
                last_version = v;
                snap.lookup_many(&refs);
                lookups += refs.len() as u64;
                std::thread::yield_now();
            }
            (lookups, t.elapsed().as_secs_f64())
        })
    });

    // Drive the stream. The driver tracks expected rejections as it
    // plants them; everything else lands in the shadow.
    let mut rng = StreamRng::new(0x000f_a017_5eed);
    let mut expected: Vec<(u64, ExpectedRejection)> = Vec::new();
    let mut stash: Vec<ShadowTable> = Vec::new();
    let mut next_key = 1_000_000u64;
    let mut malformed_iter = plan.malformed.iter().peekable();
    let sabotaged: std::collections::HashSet<u64> = plan.sabotaged.iter().copied().collect();

    for seq in 0..deltas as u64 {
        if malformed_iter.peek().is_some_and(|&&(s, _)| s == seq) {
            let (_, kind) = *malformed_iter.next().expect("peeked");
            let victim = &shadow[rng.below(shadow.len())];
            let request = match kind {
                MalformedKind::UnknownKey => DeltaRequest {
                    remove: vec![0xdead_0000 + seq],
                    ..Default::default()
                },
                MalformedKind::DuplicateKey => DeltaRequest {
                    add: vec![TableSpec {
                        key: victim.key,
                        domain: victim.domain.clone(),
                        columns: victim.columns.clone(),
                    }],
                    ..Default::default()
                },
                MalformedKind::MissingRow => DeltaRequest {
                    patches: vec![PatchSpec {
                        key: victim.key,
                        deleted: vec![(0..victim.columns.len())
                            .map(|c| format!("no such row {seq} col {c}"))
                            .collect()],
                        inserted: vec![],
                    }],
                    ..Default::default()
                },
                MalformedKind::EmptyPatch => DeltaRequest {
                    patches: vec![PatchSpec {
                        key: victim.key,
                        deleted: vec![],
                        inserted: vec![],
                    }],
                    ..Default::default()
                },
            };
            expected.push((seq, ExpectedRejection::Malformed(kind)));
            ingestor.submit(request);
            continue;
        }

        // A well-formed request, mirroring the delta-stream churn.
        let apply_to_shadow = !sabotaged.contains(&seq);
        if apply_to_shadow {
            // (recorded below per kind)
        } else {
            expected.push((seq, ExpectedRejection::ApplyPanicked));
        }
        if seq % 48 == 17 && shadow.len() > tables / 2 {
            let at = rng.below(shadow.len());
            let request = DeltaRequest {
                remove: vec![shadow[at].key],
                ..Default::default()
            };
            if apply_to_shadow {
                let t = shadow.remove(at);
                stash.push(t);
                if stash.len() > 8 {
                    stash.remove(0);
                }
            }
            ingestor.submit(request);
        } else if seq % 48 == 33 && !stash.is_empty() {
            let mut t = if apply_to_shadow {
                stash.remove(0)
            } else {
                stash[0].clone()
            };
            t.key = next_key;
            next_key += 1;
            let request = DeltaRequest {
                add: vec![TableSpec {
                    key: t.key,
                    domain: t.domain.clone(),
                    columns: t.columns.clone(),
                }],
                ..Default::default()
            };
            if apply_to_shadow {
                shadow.push(t);
            }
            ingestor.submit(request);
        } else {
            let at = rng.below(shadow.len());
            let (deleted, inserted) = {
                let t = &shadow[at];
                let nrows = t.rows();
                match (rng.below(4), nrows) {
                    (0, 1..) => (vec![t.row_at(rng.below(nrows))], vec![]),
                    (1, _) | (_, 0) => {
                        let fresh: Vec<String> = (0..t.columns.len())
                            .map(|c| format!("fault row {seq} col {c}"))
                            .collect();
                        (vec![], vec![fresh])
                    }
                    (2, _) => {
                        let row = t.row_at(rng.below(nrows));
                        let mut edited = row.clone();
                        let c = rng.below(edited.len());
                        edited[c] = format!("{} v{seq}", edited[c]);
                        (vec![row], vec![edited])
                    }
                    (_, _) => {
                        let row = t.row_at(rng.below(nrows));
                        (vec![row.clone()], vec![row])
                    }
                }
            };
            let request = DeltaRequest {
                patches: vec![PatchSpec {
                    key: shadow[at].key,
                    deleted: deleted.clone(),
                    inserted: inserted.clone(),
                }],
                ..Default::default()
            };
            if apply_to_shadow {
                let t = &mut shadow[at];
                for tuple in &deleted {
                    t.delete_row_matching(tuple);
                }
                for tuple in &inserted {
                    t.insert_row(tuple);
                }
            }
            ingestor.submit(request);
        }
    }

    let outcome: IngestOutcome = ingestor.shutdown();
    stop.store(true, Ordering::Relaxed);
    let (churn_lookups, churn_qps) = reader.map_or((0, 0.0), |r| {
        let (lookups, secs) = r.join().expect("reader thread");
        (lookups, lookups as f64 / secs.max(1e-9))
    });

    let stats = outcome.stats;
    let served_version = service.version();
    if verify {
        assert_eq!(stats.submitted, deltas as u64);
        assert_eq!(
            stats.rejected,
            (plan.malformed.len() + plan.sabotaged.len()) as u64,
            "every planted fault (and nothing else) must be rejected"
        );
        assert_eq!(stats.accepted + stats.rejected, stats.submitted);
        assert_eq!(
            served_version, stats.publishes,
            "every publish installs exactly one version"
        );

        // Quarantine transparency: exact positions, exact typed reasons.
        assert_eq!(outcome.quarantine.len(), expected.len());
        for (entry, &(seq, kind)) in outcome.quarantine.iter().zip(&expected) {
            assert_eq!(entry.seq, seq, "quarantine out of order");
            let ok = matches!(
                (kind, &entry.error),
                (
                    ExpectedRejection::Malformed(MalformedKind::UnknownKey),
                    IngestError::UnknownKey { .. },
                ) | (
                    ExpectedRejection::Malformed(MalformedKind::DuplicateKey),
                    IngestError::DuplicateKey { .. },
                ) | (
                    ExpectedRejection::Malformed(MalformedKind::MissingRow),
                    IngestError::Patch(RowPatchError::MissingRow { .. }),
                ) | (
                    ExpectedRejection::Malformed(MalformedKind::EmptyPatch),
                    IngestError::Delta(DeltaError::EmptyPatch { .. }),
                ) | (
                    ExpectedRejection::ApplyPanicked,
                    IngestError::Delta(DeltaError::ApplyPanicked { .. }),
                )
            );
            assert!(
                ok,
                "quarantine seq {seq}: expected {kind:?}, got {:?}",
                entry.error
            );
        }

        // The accepted-deltas-only oracle: rebuild a corpus from the
        // shadow and fresh-prepare on it. The streamed session must
        // observe exactly the same synthesis output — every rejected
        // delta left zero residue.
        let mut oracle_corpus = Corpus::new();
        for t in &shadow {
            let d = oracle_corpus.domain(&t.domain);
            let cols: Vec<(Option<&str>, Vec<&str>)> = t
                .columns
                .iter()
                .map(|(h, vs)| (h.as_deref(), vs.iter().map(String::as_str).collect()))
                .collect();
            oracle_corpus.push_table(d, cols);
        }
        let mut oracle = SynthesisSession::new(outcome.session.config().clone());
        oracle.prepare(&oracle_corpus);
        let observe = |s: &SynthesisSession| {
            let run = s.synthesize(&s.config().synthesis, Resolver::Algorithm4);
            let mut out: Vec<Vec<(String, String)>> = run
                .mappings
                .iter()
                .map(|m| {
                    let mut pairs: Vec<(String, String)> = m
                        .pair_strs()
                        .map(|(a, b)| (a.to_string(), b.to_string()))
                        .collect();
                    pairs.sort();
                    pairs
                })
                .collect();
            out.sort();
            out
        };
        assert_eq!(
            observe(&outcome.session),
            observe(&oracle),
            "post-stream session diverged from the accepted-deltas-only oracle"
        );
        assert!(
            !service.snapshot().is_empty(),
            "the service must end on a non-empty last good snapshot"
        );
    }

    FaultStreamOutcome {
        session: outcome.session,
        corpus: outcome.corpus,
        stats,
        malformed: plan.malformed.len(),
        sabotaged: plan.sabotaged.len(),
        churn_lookups,
        churn_qps,
        served_version,
    }
}

/// The post-fault-stream golden dump: run the full deterministic fault
/// stream and format the final compatibility-graph edges. Committed
/// under `crates/bench/golden/` and byte-compared by
/// `pipeline_baseline --delta-stream --faults --check`, so any drift
/// in validation order, rollback, or the rejected-delta bookkeeping
/// fails CI.
pub fn post_fault_stream_edge_dump(tables: usize, deltas: usize) -> String {
    let out = run_fault_stream(tables, deltas, false, false);
    crate::format_edges(&out.session.graph(&out.session.config().synthesis))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short fully-verified fault stream: covers all four malformed
    /// kinds (positions 7, 44, 81, 118), several induced panics, plus
    /// the accepted-only oracle and the QPS probe.
    #[test]
    fn short_fault_stream_holds_every_contract() {
        let out = run_fault_stream(24, 160, true, true);
        assert_eq!(out.stats.submitted, 160);
        assert_eq!(out.malformed, 5);
        assert!(out.sabotaged >= 2);
        assert_eq!(out.stats.rejected, (out.malformed + out.sabotaged) as u64);
        assert!(out.stats.publishes >= 1);
        assert!(out.churn_lookups > 0, "reader made no lookups under churn");
    }

    /// The fault stream is a pure function of (tables, deltas).
    #[test]
    fn fault_stream_dump_is_deterministic() {
        let a = post_fault_stream_edge_dump(50, 80);
        let b = post_fault_stream_edge_dump(50, 80);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
