//! Fault-tolerant ingestion end to end: the background worker must
//! apply clean deltas transactionally, quarantine every poisoned one
//! with a typed reason and survive induced apply panics — and the
//! post-stream session must be bit-identical (observable synthesis
//! output) to a fresh session built from only the accepted deltas.

use mapsynth::delta::fault::INDUCED_PANIC_MESSAGE;
use mapsynth::delta::DeltaError;
use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth_corpus::{Corpus, RowPatchError};
use mapsynth_serve::ingest::{
    DeltaIngestor, DeltaRequest, FaultInjector, IngestError, IngestorConfig, IngestorConfigError,
    NoFaults, PatchSpec, TableSpec,
};
use mapsynth_serve::MappingService;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

const ROWS: [(&str, &str); 6] = [
    ("Afghanistan", "AFG"),
    ("Albania", "ALB"),
    ("Algeria", "DZA"),
    ("Germany", "DEU"),
    ("Netherlands", "NLD"),
    ("Greece", "GRC"),
];

/// `n` country→code tables under distinct domains — each with one
/// table-unique row, so removals actually orphan values (making
/// compaction reachable) — with stable ingest keys `100..100+n`.
fn fixture(n: usize) -> (Corpus, SynthesisSession, Vec<u64>) {
    let mut corpus = Corpus::new();
    for i in 0..n {
        let d = corpus.domain(&format!("iso-{i}.org"));
        let (mut l, mut r): (Vec<String>, Vec<String>) = ROWS
            .iter()
            .map(|&(a, b)| (a.to_string(), b.to_string()))
            .unzip();
        l.push(format!("Zamunda-{i}"));
        r.push(format!("ZAM{i}"));
        let cols: Vec<(Option<&str>, Vec<&str>)> = vec![
            (Some("country"), l.iter().map(String::as_str).collect()),
            (Some("code"), r.iter().map(String::as_str).collect()),
        ];
        corpus.push_table(d, cols);
    }
    let cfg = PipelineConfig {
        compact_threshold: 0.2,
        ..PipelineConfig::default()
    };
    let mut session = SynthesisSession::new(cfg);
    session.prepare(&corpus);
    let keys: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    (corpus, session, keys)
}

fn add_table(key: u64, domain: &str, rows: &[(&str, &str)]) -> TableSpec {
    let (l, r): (Vec<String>, Vec<String>) = rows
        .iter()
        .map(|&(a, b)| (a.to_string(), b.to_string()))
        .unzip();
    TableSpec {
        key,
        domain: domain.to_string(),
        columns: vec![(Some("country".into()), l), (Some("code".into()), r)],
    }
}

fn patch(key: u64, deleted: &[(&str, &str)], inserted: &[(&str, &str)]) -> PatchSpec {
    let tup = |rows: &[(&str, &str)]| {
        rows.iter()
            .map(|&(a, b)| vec![a.to_string(), b.to_string()])
            .collect::<Vec<_>>()
    };
    PatchSpec {
        key,
        deleted: tup(deleted),
        inserted: tup(inserted),
    }
}

/// One observed mapping: sorted value pairs + provenance counts.
type ObservedMapping = (Vec<(String, String)>, usize, usize);

/// The full observable synthesis output, content-keyed: for bit-identity
/// oracles between an evolved session and a fresh one.
fn observed(session: &SynthesisSession) -> Vec<ObservedMapping> {
    let cfg = session.config().synthesis;
    let mut out: Vec<_> = session
        .synthesize(&cfg, Resolver::Algorithm4)
        .mappings
        .iter()
        .map(|m| {
            let mut pairs: Vec<(String, String)> = m
                .pair_strs()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect();
            pairs.sort();
            (pairs, m.domains, m.source_tables)
        })
        .collect();
    out.sort();
    out
}

/// The bit-identity oracle: a fresh session prepared on the live
/// corpus (accepted deltas only — rejected ones were rolled back) must
/// observe exactly what the streamed session observes.
fn assert_matches_fresh(session: &SynthesisSession, corpus: &Corpus) {
    let live = session.live_corpus(corpus);
    let mut fresh = SynthesisSession::new(session.config().clone());
    fresh.prepare(&live);
    assert_eq!(
        observed(session),
        observed(&fresh),
        "streamed session diverged from the accepted-deltas oracle"
    );
}

fn wait_until(ing: &DeltaIngestor, pred: impl Fn(mapsynth_serve::IngestStats) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !pred(ing.stats()) {
        assert!(
            std::time::Instant::now() < deadline,
            "ingestor did not reach expected state: {:?}",
            ing.stats()
        );
        std::thread::yield_now();
    }
}

/// Scripted deterministic fault plan for tests: the stream positions
/// whose apply is sabotaged with an induced panic.
struct ScriptedFaults(HashSet<u64>);

impl FaultInjector for ScriptedFaults {
    fn sabotage_apply(&mut self, seq: u64) -> bool {
        self.0.contains(&seq)
    }
}

#[test]
fn clean_stream_applies_compacts_and_publishes() {
    let (corpus, session, keys) = fixture(6);
    let service = Arc::new(MappingService::new());
    let cfg = IngestorConfig {
        publish_every: 2,
        ..IngestorConfig::default()
    };
    let ing = DeltaIngestor::spawn(
        session,
        corpus,
        &keys,
        Arc::clone(&service),
        cfg,
        Box::new(NoFaults),
    )
    .expect("ingestor config is valid");

    // Patch, add, then enough removals to push the garbage fraction
    // over the compaction threshold — the key map must survive the
    // renumbering (the final patch addresses a key that only resolves
    // if the remap tracked it through compaction).
    ing.submit(DeltaRequest {
        patches: vec![patch(100, &[("Algeria", "DZA")], &[("Algeria", "ALG")])],
        ..Default::default()
    });
    ing.submit(DeltaRequest {
        add: vec![add_table(200, "fresh.org", &ROWS)],
        ..Default::default()
    });
    ing.submit(DeltaRequest {
        remove: vec![101, 102, 103],
        ..Default::default()
    });
    ing.submit(DeltaRequest {
        patches: vec![patch(105, &[("Greece", "GRC")], &[("Greece", "GRE")])],
        ..Default::default()
    });

    let outcome = ing.shutdown();
    assert_eq!(outcome.stats.submitted, 4);
    assert_eq!(outcome.stats.accepted, 4);
    assert_eq!(outcome.stats.rejected, 0);
    assert!(outcome.quarantine.is_empty());
    assert!(
        outcome.stats.compactions >= 1,
        "removing half the corpus must trigger a compaction pass"
    );
    assert!(outcome.stats.publishes >= 2);
    assert_eq!(service.version(), outcome.stats.publishes);
    assert!(!service.snapshot().is_empty());
    assert_matches_fresh(&outcome.session, &outcome.corpus);
}

#[test]
fn poisoned_deltas_are_quarantined_and_rolled_back() {
    let (corpus, session, keys) = fixture(4);
    let service = Arc::new(MappingService::new());
    let ing = DeltaIngestor::spawn(
        session,
        corpus,
        &keys,
        Arc::clone(&service),
        IngestorConfig::default(),
        Box::new(NoFaults),
    )
    .expect("ingestor config is valid");

    // seq 0: good patch.
    ing.submit(DeltaRequest {
        patches: vec![patch(100, &[("Algeria", "DZA")], &[("Algeria", "ALG")])],
        ..Default::default()
    });
    // seq 1: unknown removal key.
    ing.submit(DeltaRequest {
        remove: vec![999],
        ..Default::default()
    });
    // seq 2: duplicate add key (100 is live).
    ing.submit(DeltaRequest {
        add: vec![add_table(100, "dup.org", &ROWS)],
        ..Default::default()
    });
    // seq 3: patch deleting a row the table does not have — and
    // bundled with an add + a second (valid) patch, all of which must
    // roll back together.
    ing.submit(DeltaRequest {
        add: vec![add_table(300, "doomed.org", &ROWS)],
        patches: vec![
            patch(101, &[("Albania", "ALB")], &[("Albania", "AL")]),
            patch(102, &[("Atlantis", "ATL")], &[("Atlantis", "AT")]),
        ],
        ..Default::default()
    });
    // seq 4: patch + removal of the same key in one delta.
    ing.submit(DeltaRequest {
        remove: vec![103],
        patches: vec![patch(103, &[("Greece", "GRC")], &[("Greece", "GRE")])],
        ..Default::default()
    });
    // seq 5: empty patch.
    ing.submit(DeltaRequest {
        patches: vec![patch(101, &[], &[])],
        ..Default::default()
    });
    // seq 6: an add with ragged columns, bundled with a valid patch —
    // refused before the corpus is touched, not a worker panic.
    let mut ragged = add_table(301, "ragged.org", &ROWS);
    ragged.columns[1].1.pop();
    ing.submit(DeltaRequest {
        add: vec![ragged],
        patches: vec![patch(101, &[("Albania", "ALB")], &[("Albania", "ALX")])],
        ..Default::default()
    });
    // seq 7: good add — the stream continues past every rejection.
    ing.submit(DeltaRequest {
        add: vec![add_table(400, "tail.org", &ROWS)],
        ..Default::default()
    });

    let outcome = ing.shutdown();
    assert_eq!(outcome.stats.submitted, 8);
    assert_eq!(outcome.stats.accepted, 2);
    assert_eq!(outcome.stats.rejected, 6);
    assert_eq!(outcome.stats.quarantined, 6);

    let q = &outcome.quarantine;
    assert_eq!(q.len(), 6);
    assert_eq!(
        q.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![1, 2, 3, 4, 5, 6],
        "quarantine records exact stream positions"
    );
    assert_eq!(q[0].error, IngestError::UnknownKey { key: 999 });
    assert_eq!(q[1].error, IngestError::DuplicateKey { key: 100 });
    assert!(
        matches!(
            q[2].error,
            IngestError::Patch(RowPatchError::MissingRow { .. })
        ),
        "got {:?}",
        q[2].error
    );
    assert!(
        matches!(
            q[3].error,
            IngestError::Delta(DeltaError::PatchAndRemoveSameDelta { .. })
        ),
        "got {:?}",
        q[3].error
    );
    assert!(
        matches!(
            q[4].error,
            IngestError::Delta(DeltaError::EmptyPatch { .. })
        ),
        "got {:?}",
        q[4].error
    );
    assert_eq!(q[5].error, IngestError::RaggedTable { key: 301 });
    // The poisoned request rides along for repair/replay.
    assert_eq!(q[2].request.add.len(), 1);
    assert_eq!(q[2].request.patches.len(), 2);

    // Rollback proof: the surviving state is exactly the accepted
    // deltas (seq 0 and seq 7) — no half-applied adds or patches.
    assert_matches_fresh(&outcome.session, &outcome.corpus);
    let live = outcome.session.live_corpus(&outcome.corpus);
    assert_eq!(live.len(), 5, "4 initial tables + the one accepted add");
    let cells: HashSet<&str> = live
        .tables
        .iter()
        .flat_map(|t| &t.columns)
        .flat_map(|c| &c.values)
        .map(|&v| live.str_of(v))
        .collect();
    assert!(
        !cells.contains("ALX"),
        "the ragged delta's bundled patch leaked into the corpus"
    );
}

#[test]
fn induced_apply_panics_are_contained_and_replayable() {
    let (corpus, session, keys) = fixture(4);
    let service = Arc::new(MappingService::new());
    let faults = ScriptedFaults([1u64, 3].into_iter().collect());
    let ing = DeltaIngestor::spawn(
        session,
        corpus,
        &keys,
        Arc::clone(&service),
        IngestorConfig::default(),
        Box::new(faults),
    )
    .expect("ingestor config is valid");

    for i in 0..5u64 {
        ing.submit(DeltaRequest {
            add: vec![add_table(500 + i, &format!("gen-{i}.org"), &ROWS)],
            ..Default::default()
        });
    }
    wait_until(&ing, |s| s.accepted + s.rejected == 5);
    assert_eq!(ing.stats().accepted, 3);
    assert_eq!(ing.stats().rejected, 2);

    // Drain mid-stream, then replay the sabotaged requests verbatim —
    // nothing about them was wrong, so the replay (no longer
    // sabotaged: seqs 5 and 6) must be accepted.
    let drained = ing.drain_quarantine();
    assert_eq!(drained.len(), 2);
    for entry in &drained {
        match &entry.error {
            IngestError::Delta(DeltaError::ApplyPanicked { message }) => {
                assert_eq!(message, INDUCED_PANIC_MESSAGE);
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        ing.submit(entry.request.clone());
    }
    wait_until(&ing, |s| s.accepted == 5);
    assert!(ing.quarantined().is_empty(), "drain took ownership");

    let outcome = ing.shutdown();
    assert_eq!(outcome.stats.accepted, 5);
    assert_eq!(outcome.stats.rejected, 2);
    assert_eq!(outcome.stats.quarantined, 0);
    assert_matches_fresh(&outcome.session, &outcome.corpus);
    assert_eq!(outcome.session.live_corpus(&outcome.corpus).len(), 9);
}

#[test]
fn quarantine_cap_evicts_oldest_and_counts() {
    let (corpus, session, keys) = fixture(2);
    let service = Arc::new(MappingService::new());
    let cfg = IngestorConfig {
        quarantine_cap: 2,
        ..IngestorConfig::default()
    };
    let ing = DeltaIngestor::spawn(
        session,
        corpus,
        &keys,
        Arc::clone(&service),
        cfg,
        Box::new(NoFaults),
    )
    .expect("ingestor config is valid");

    // Five poisoned deltas (unknown removal keys): all rejected, only
    // the newest two survive in quarantine.
    for i in 0..5u64 {
        ing.submit(DeltaRequest {
            remove: vec![900 + i],
            ..Default::default()
        });
    }
    let outcome = ing.shutdown();
    assert_eq!(outcome.stats.rejected, 5);
    // `quarantined` gauges what is *held*, capped at 2.
    assert_eq!(outcome.stats.quarantined, 2);
    assert_eq!(outcome.stats.quarantine_evicted, 3);
    assert_eq!(
        outcome.quarantine.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![3, 4],
        "drop-oldest keeps the newest entries"
    );
}

#[test]
fn invalid_configs_are_refused_at_spawn() {
    let cases: Vec<(IngestorConfig, IngestorConfigError)> = vec![
        (
            IngestorConfig {
                queue_depth: 0,
                ..IngestorConfig::default()
            },
            IngestorConfigError::ZeroQueueDepth,
        ),
        (
            IngestorConfig {
                publish_every: 0,
                ..IngestorConfig::default()
            },
            IngestorConfigError::ZeroPublishEvery,
        ),
    ];
    for (cfg, expected) in cases {
        let (corpus, session, keys) = fixture(1);
        let service = Arc::new(MappingService::new());
        match DeltaIngestor::spawn(
            session,
            corpus,
            &keys,
            Arc::clone(&service),
            cfg,
            Box::new(NoFaults),
        ) {
            Err(e) => assert_eq!(e, expected),
            Ok(_) => panic!("invalid config accepted: expected {expected:?}"),
        }
        // Refusal happens before any worker spawns or snapshot publishes.
        assert_eq!(service.version(), 0);
    }
}
