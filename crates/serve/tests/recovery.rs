//! The recovery oracle: for every kill point along a persisted delta
//! stream — right after the base archive, mid-WAL between publishes,
//! and inside a torn final record — [`mapsynth_serve::recover`] must
//! rebuild a service whose lookups, golden compatibility edges, and
//! live key set are identical to an uncrashed run over the same
//! prefix, with a monotone served version.
//!
//! The ingestor's graceful shutdown deliberately performs no
//! persistence finalization, so the on-disk state after `shutdown()`
//! at stream position `k` is byte-identical to a `kill -9` at the
//! same point — each sweep cell below *is* a kill state, constructed
//! without killing processes.

use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth_corpus::Corpus;
use mapsynth_serve::ingest::{DeltaIngestor, DeltaRequest, IngestorConfig, NoFaults, TableSpec};
use mapsynth_serve::{recover, MappingService, PersistConfig, Persistence, WalTail};
use std::fs;
use std::path::PathBuf;
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

fn add_table(key: u64, domain: &str, extra: &str) -> TableSpec {
    let (mut l, mut r): (Vec<String>, Vec<String>) = ROWS
        .iter()
        .map(|&(a, b)| (a.to_string(), b.to_string()))
        .unzip();
    l.push(extra.to_string());
    r.push(format!("X{key}"));
    TableSpec {
        key,
        domain: domain.to_string(),
        columns: vec![(Some("country".into()), l), (Some("code".into()), r)],
    }
}

/// The deterministic delta stream every sweep cell replays a prefix
/// of: adds, a removal, more adds — enough accepted deltas to cross
/// several publishes and (at the cadence below) archive rolls.
fn stream() -> Vec<DeltaRequest> {
    let mut deltas = Vec::new();
    for i in 0..4u64 {
        deltas.push(DeltaRequest {
            add: vec![add_table(
                200 + i,
                &format!("wave-a-{i}.org"),
                &format!("Aland-{i}"),
            )],
            ..Default::default()
        });
    }
    deltas.push(DeltaRequest {
        remove: vec![200, 201],
        ..Default::default()
    });
    for i in 0..3u64 {
        deltas.push(DeltaRequest {
            add: vec![add_table(
                300 + i,
                &format!("wave-b-{i}.org"),
                &format!("Borduria-{i}"),
            )],
            ..Default::default()
        });
    }
    deltas
}

fn ing_cfg() -> IngestorConfig {
    IngestorConfig {
        publish_every: 2,
        retry_base: Duration::from_micros(100),
        retry_cap: Duration::from_micros(500),
        ..IngestorConfig::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mapsynth-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The pipeline config every run (persisted, oracle, recovery) shares.
fn pipe_cfg() -> PipelineConfig {
    PipelineConfig {
        compact_threshold: 0.2,
        ..PipelineConfig::default()
    }
}

/// Run the first `k` stream deltas through a **persistent** ingestor
/// rooted at `pcfg.dir`, then shut down — leaving the directory as
/// the kill state.
fn run_persisted(k: usize, pcfg: PersistConfig) -> mapsynth_serve::IngestOutcome {
    let (corpus, session, keys) = fixture(4);
    let service = Arc::new(MappingService::new());
    let persistence = Persistence::create(pcfg, 0).expect("init persistence");
    let ing = DeltaIngestor::spawn_with_persistence(
        session,
        corpus,
        &keys,
        Arc::clone(&service),
        ing_cfg(),
        Box::new(NoFaults),
        Some(persistence),
    )
    .expect("spawn persisted ingestor");
    for delta in stream().into_iter().take(k) {
        ing.submit(delta);
    }
    let outcome = ing.shutdown();
    assert_eq!(
        outcome.stats.accepted, k as u64,
        "clean stream: all accepted"
    );
    assert_eq!(
        outcome.stats.wal_records, k as u64,
        "every accept hit the WAL"
    );
    assert_eq!(outcome.stats.persist_errors, 0);
    outcome
}

/// The uncrashed oracle: the same `k` deltas through a plain
/// (non-persistent) ingestor.
fn run_oracle(k: usize) -> (mapsynth_serve::IngestOutcome, Arc<MappingService>) {
    let (corpus, session, keys) = fixture(4);
    let service = Arc::new(MappingService::new());
    let ing = DeltaIngestor::spawn(
        session,
        corpus,
        &keys,
        Arc::clone(&service),
        ing_cfg(),
        Box::new(NoFaults),
    )
    .expect("spawn oracle ingestor");
    for delta in stream().into_iter().take(k) {
        ing.submit(delta);
    }
    (ing.shutdown(), service)
}

/// Golden edges of a state: a *fresh* session prepared on the live
/// corpus, graphed. Fresh preparation gives ID-stable edge lists, so
/// two states with identical content produce byte-identical dumps.
fn golden_edges(session: &SynthesisSession, corpus: &Corpus) -> String {
    use std::fmt::Write as _;
    let live = session.live_corpus(corpus);
    let mut fresh = SynthesisSession::new(session.config().clone());
    fresh.prepare(&live);
    let graph = fresh.graph(&fresh.config().synthesis);
    let mut edges: Vec<String> = graph
        .edges
        .iter()
        .map(|&(a, b, w)| format!("{a} {b} {:.17e} {:.17e}", w.pos, w.neg))
        .collect();
    edges.sort();
    let mut out = String::new();
    for e in &edges {
        writeln!(out, "{e}").unwrap();
    }
    out
}

const PROBES: [&str; 6] = [
    "Afghanistan",
    "DZA",
    "Aland-2",
    "Borduria-0",
    "Zamunda-1",
    "definitely-not-present",
];

/// Lookup observations of a snapshot: per probe, the sorted forward
/// translations across every mapping that hits. Mapping *ids* are
/// deliberately not compared — an incrementally patched snapshot and
/// a one-shot rebuild number mappings differently while serving the
/// same content.
fn lookups(snapshot: &mapsynth_serve::IndexSnapshot) -> Vec<(String, Vec<String>)> {
    PROBES
        .iter()
        .map(|&p| {
            let mut hits: Vec<String> = snapshot
                .lookup(p)
                .map(|h| h.translations().map(|(_, r)| r.to_string()).collect())
                .unwrap_or_default();
            hits.sort();
            (p.to_string(), hits)
        })
        .collect()
}

fn assert_state_matches(
    recovered: &mapsynth_serve::Recovered,
    oracle: &mapsynth_serve::IngestOutcome,
    oracle_service: &MappingService,
    cell: &str,
) {
    // Live key set.
    let mut a: Vec<u64> = recovered.key_of_table.keys().copied().collect();
    let mut b: Vec<u64> = oracle.key_of_table.keys().copied().collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "{cell}: live key set diverged");
    // Golden compatibility edges.
    assert_eq!(
        golden_edges(&recovered.session, &recovered.corpus),
        golden_edges(&oracle.session, &oracle.corpus),
        "{cell}: golden edges diverged"
    );
    // Served lookups.
    assert_eq!(
        lookups(&recovered.service.snapshot()),
        lookups(&oracle_service.snapshot()),
        "{cell}: served lookups diverged"
    );
    // Version monotonicity: replay never rolls the served version
    // backwards past what the archive carried.
    assert!(
        recovered.report.served_version >= recovered.report.archive_version,
        "{cell}: served version regressed below the archive's"
    );
}

/// Kill-point sweep: every prefix length of the stream, from
/// "archive only, empty WAL" (k = 0) through "mid-WAL between
/// publishes" to the full stream.
#[test]
fn kill_point_sweep_recovers_identically() {
    let n = stream().len();
    for k in 0..=n {
        let dir = tmp_dir(&format!("sweep-{k}"));
        let mut pcfg = PersistConfig::new(&dir);
        pcfg.segment_bytes = 700; // several rotations across the stream
        pcfg.archive_every_publishes = 2;
        run_persisted(k, pcfg);

        let recovered = recover(&dir, pipe_cfg(), Resolver::Algorithm4)
            .unwrap_or_else(|e| panic!("kill point {k}: recovery failed: {e}"));
        assert!(
            recovered.report.wal_halted.is_none(),
            "kill point {k}: clean WAL reported corrupt"
        );
        assert_ne!(
            recovered.report.wal_tail,
            WalTail::Torn,
            "kill point {k}: clean WAL reported torn"
        );
        assert_eq!(
            recovered.report.next_seq,
            k as u64 + 1,
            "kill point {k}: next_seq resumes after the last accepted record"
        );

        let (oracle, oracle_service) = run_oracle(k);
        assert_state_matches(
            &recovered,
            &oracle,
            &oracle_service,
            &format!("kill point {k}"),
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A torn final record — the tail of the last WAL segment cut
/// mid-frame, as a crash during the final append would leave it — is
/// truncated away, and recovery lands on the previous record's state
/// (the torn record was never durably acknowledged). A second
/// recovery over the repaired directory sees a clean tail.
#[test]
fn torn_final_record_truncates_to_previous_state() {
    let k = stream().len();
    let dir = tmp_dir("torn");
    let mut pcfg = PersistConfig::new(&dir);
    // No archive rolls beyond the base generation: every record lives
    // in the WAL, so tearing the last one is observable.
    pcfg.archive_every_publishes = 1_000_000;
    pcfg.segment_bytes = u64::MAX;
    run_persisted(k, pcfg);

    // Shear the last WAL segment mid-record: 5 bytes is inside the
    // final frame's payload/checksum for any non-trivial record.
    let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().and_then(|s| s.to_str()) == Some("mswal")).then_some(p)
        })
        .collect();
    segs.sort();
    let last = segs.last().expect("stream wrote a WAL segment");
    let len = fs::metadata(last).unwrap().len();
    let f = fs::OpenOptions::new().write(true).open(last).unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);

    let recovered =
        recover(&dir, pipe_cfg(), Resolver::Algorithm4).expect("torn tail must recover, not fail");
    assert_eq!(recovered.report.wal_tail, WalTail::Torn);
    assert!(recovered.report.torn_truncated_bytes > 0);
    assert_eq!(
        recovered.report.wal_replayed,
        k as u64 - 1,
        "the torn record is dropped; every whole record replays"
    );
    let (oracle, oracle_service) = run_oracle(k - 1);
    assert_state_matches(&recovered, &oracle, &oracle_service, "torn tail");

    // The repair was physical: a second recovery sees a clean tail
    // and the same state.
    let again = recover(&dir, pipe_cfg(), Resolver::Algorithm4)
        .expect("repaired directory recovers cleanly");
    assert_ne!(
        again.report.wal_tail,
        WalTail::Torn,
        "repair did not persist"
    );
    assert_eq!(again.report.wal_replayed, k as u64 - 1);
    assert_state_matches(&again, &oracle, &oracle_service, "torn tail (second pass)");
    let _ = fs::remove_dir_all(&dir);
}

/// Stable keys of a recovered state in live-table order — what a
/// respawn over it passes as `initial_keys`. The recovered corpus is
/// dense in live tables (rebuilt from the archive + replay with
/// compaction), so keys line up 1:1.
fn live_keys(recovered: &mapsynth_serve::Recovered) -> Vec<u64> {
    let mut entries: Vec<(u64, u32)> = recovered
        .key_of_table
        .iter()
        .map(|(&k, &t)| (k, t.0))
        .collect();
    entries.sort_by_key(|&(_, t)| t);
    assert_eq!(entries.len(), recovered.corpus.len());
    entries.into_iter().map(|(k, _)| k).collect()
}

/// Recovery composes with resumption: a recovered state can seed a
/// fresh persistent ingestor (base archive from the recovered
/// snapshot, WAL continuing at `next_seq`), accept more deltas, and a
/// final recovery over the same directory matches an uncrashed run of
/// the whole stream.
#[test]
fn recovered_state_resumes_and_survives_a_second_crash() {
    let n = stream().len();
    let split = n / 2;
    let dir = tmp_dir("resume");
    let mut pcfg = PersistConfig::new(&dir);
    pcfg.archive_every_publishes = 2;
    pcfg.segment_bytes = 700;
    run_persisted(split, pcfg.clone());

    let recovered = recover(&dir, pipe_cfg(), Resolver::Algorithm4).expect("first recovery");
    let base_seq = recovered.report.next_seq - 1;
    let keys = live_keys(&recovered);

    let persistence = Persistence::create(pcfg, base_seq).expect("re-init persistence");
    let ing = DeltaIngestor::spawn_with_persistence(
        recovered.session,
        recovered.corpus,
        &keys,
        Arc::clone(&recovered.service),
        ing_cfg(),
        Box::new(NoFaults),
        Some(persistence),
    )
    .expect("respawn over recovered state");
    for delta in stream().into_iter().skip(split) {
        ing.submit(delta);
    }
    let outcome = ing.shutdown();
    assert_eq!(outcome.stats.accepted, (n - split) as u64);
    assert_eq!(outcome.stats.persist_errors, 0);

    let final_recovery = recover(&dir, pipe_cfg(), Resolver::Algorithm4).expect("second recovery");
    assert_eq!(final_recovery.report.next_seq, n as u64 + 1);
    let (oracle, oracle_service) = run_oracle(n);
    assert_state_matches(&final_recovery, &oracle, &oracle_service, "resume");
    let _ = fs::remove_dir_all(&dir);
}

/// The crash window the archive cadence can't paper over: a resumed
/// stream dies again *before any archive roll*, so the post-resume
/// records live only in the WAL — behind the pre-crash segment, which
/// the resume left unsealed and non-final. Recovery must accept that
/// segment by contiguity and replay every fsync-acknowledged record,
/// not halt and (on the next resume) overwrite them. A third
/// crash/resume cycle then chains *two* unsealed non-final segments.
#[test]
fn resume_crash_before_archive_roll_loses_nothing() {
    let n = stream().len();
    let split = n / 2;
    let dir = tmp_dir("resume-no-roll");
    let mut pcfg = PersistConfig::new(&dir);
    // One unbounded segment per process lifetime and no archive rolls
    // past each spawn's base generation: every post-resume record is
    // recoverable only via WAL replay. Retention is deep enough that
    // no resume prunes the earlier unsealed segments away — the chain
    // itself is under test.
    pcfg.segment_bytes = u64::MAX;
    pcfg.archive_every_publishes = 1_000_000;
    pcfg.keep_generations = 3;
    run_persisted(split, pcfg.clone());

    // Crash 1 → resume: the first segment stays behind, unsealed.
    let recovered = recover(&dir, pipe_cfg(), Resolver::Algorithm4).expect("first recovery");
    assert!(recovered.report.wal_halted.is_none());
    let keys = live_keys(&recovered);
    let persistence =
        Persistence::create(pcfg.clone(), recovered.report.next_seq - 1).expect("resume 1");
    let ing = DeltaIngestor::spawn_with_persistence(
        recovered.session,
        recovered.corpus,
        &keys,
        Arc::clone(&recovered.service),
        ing_cfg(),
        Box::new(NoFaults),
        Some(persistence),
    )
    .expect("respawn over recovered state");
    for delta in stream().into_iter().skip(split) {
        ing.submit(delta);
    }
    let outcome = ing.shutdown();
    assert_eq!(outcome.stats.wal_records, (n - split) as u64);
    assert_eq!(outcome.stats.persist_errors, 0);

    // Crash 2: no archive covered the resumed records, so replay must
    // walk past the unsealed pre-crash segment into the resumed one.
    let second = recover(&dir, pipe_cfg(), Resolver::Algorithm4).expect("second recovery");
    assert!(
        second.report.wal_halted.is_none(),
        "the resume's unsealed predecessor segment was mistaken for corruption: {:?}",
        second.report.wal_halted
    );
    assert_eq!(
        second.report.next_seq,
        n as u64 + 1,
        "every fsync-acknowledged record must survive the resume crash"
    );
    assert_eq!(second.report.wal_replayed, (n - split) as u64);
    let (oracle, oracle_service) = run_oracle(n);
    assert_state_matches(
        &second,
        &oracle,
        &oracle_service,
        "resume without archive roll",
    );

    // Crash 3: resume once more (two unsealed non-final segments now
    // precede the tail) and prove the chain still replays end to end.
    let keys = live_keys(&second);
    let persistence =
        Persistence::create(pcfg.clone(), second.report.next_seq - 1).expect("resume 2");
    let ing = DeltaIngestor::spawn_with_persistence(
        second.session,
        second.corpus,
        &keys,
        Arc::clone(&second.service),
        ing_cfg(),
        Box::new(NoFaults),
        Some(persistence),
    )
    .expect("respawn twice over recovered state");
    ing.submit(DeltaRequest {
        add: vec![add_table(400, "wave-c-0.org", "Cydonia")],
        ..Default::default()
    });
    let outcome = ing.shutdown();
    assert_eq!(outcome.stats.persist_errors, 0);

    let third = recover(&dir, pipe_cfg(), Resolver::Algorithm4).expect("third recovery");
    assert!(third.report.wal_halted.is_none());
    assert_eq!(third.report.next_seq, n as u64 + 2);
    assert!(
        third.key_of_table.contains_key(&400),
        "the post-second-resume record must replay"
    );
    let snapshot = third.service.snapshot();
    assert!(
        snapshot.lookup("Cydonia").is_some(),
        "served state must include the final delta"
    );
    let _ = fs::remove_dir_all(&dir);
}
