//! The delta phase: live operation. A closed loop of one producer
//! feeds a stream of deltas to a `DeltaIngestor` with persistence on
//! and reads the served snapshot while it waits for each
//! acknowledgement; then the directory is recovered. The traced run
//! replays the same stream through the public calls the ingestor's
//! worker makes, in the worker's order, one span per call.

use crate::inputs::{
    corpus_of, delta_stream, plain_table, push_plain, web_corpus, DeltaKind, DeltaStream, Rng,
};
use crate::run::{Run, Sampler};
use crate::stats::{highest_supported, median, tail_percentile, Summary};
use crate::trace::Tracer;
use mapsynth::delta::{CorpusDelta, PortableTable};
use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
use mapsynth_corpus::{Corpus, RowPatch, TableId};
use mapsynth_serve::{
    recover, DeltaIngestor, DeltaRequest, IndexSnapshot, IngestorConfig, MappingService, NoFaults,
    PersistConfig, Persistence, SnapshotBuilder,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct DeltaScale {
    pub tables: usize,
    /// Deltas one sample of the untraced run sends.
    pub chunk: usize,
    /// Deltas of the untraced run's stream, the discarded ones included.
    /// All of them are sent whatever the clock says, so that the
    /// directory recovered afterwards always holds the same WAL tail.
    pub deltas: usize,
    /// Acknowledgements discarded at the head of every sample: at probe
    /// scale a sample follows seconds of another phase's work and starts
    /// on a cold cache.
    pub settle: usize,
    /// Recoveries timed (each on a fresh copy of the directory).
    pub recoveries: usize,
    /// Deltas the traced run replays; enough that p95 has ten samples
    /// beyond it.
    pub traced_deltas: usize,
}

/// Deltas of the stream's head that the traced run also sends through a
/// live ingestor, to set the replay's per-call times against a real
/// acknowledgement.
const LIVE_PREFIX: usize = 80;
/// Width of the columns the reader translates, and how many it rotates.
const READ_WIDTH: usize = 32;
const READ_COLUMNS: usize = 64;
const PROBES: usize = 1000;

fn pipeline_config() -> PipelineConfig {
    // One worker: the ingest thread and the producer are the two
    // threads of this workload.
    PipelineConfig {
        workers: 1,
        ..Default::default()
    }
}

/// A prepared, published starting state; keys of the initial tables are
/// their positions.
struct Base {
    corpus: Corpus,
    session: SynthesisSession,
    service: Arc<MappingService>,
    keys: Vec<u64>,
}

fn base_state(corpus: Corpus) -> Base {
    let mut session = SynthesisSession::new(pipeline_config());
    session.prepare(&corpus);
    let run = session.synthesize(&session.config().synthesis, Resolver::Algorithm4);
    let service = Arc::new(MappingService::new());
    service.publish(SnapshotBuilder::from_synthesized(&run.mappings).build());
    let keys = (0..corpus.len() as u64).collect();
    Base {
        corpus,
        session,
        service,
        keys,
    }
}

/// Columns for the reader: left values the first snapshot serves,
/// every other one replaced by a value nothing serves.
fn read_columns(base: &Base, seed: u64) -> Vec<Vec<String>> {
    let run = base
        .session
        .synthesize(&base.session.config().synthesis, Resolver::Algorithm4);
    let lefts: Vec<&str> = run
        .mappings
        .iter()
        .flat_map(|m| m.pair_strs().map(|(l, _)| l))
        .collect();
    let mut rng = Rng::new(seed, "delta reads");
    (0..READ_COLUMNS)
        .map(|c| {
            (0..READ_WIDTH)
                .map(|i| {
                    if i % 2 == 0 && !lefts.is_empty() {
                        lefts[rng.below(lefts.len())].to_string()
                    } else {
                        format!("unserved {c} {i}")
                    }
                })
                .collect()
        })
        .collect()
}

/// What a key answers: its right images in every mapping, sorted, and
/// how many mappings hold it. Mapping ids are left out — a recovered
/// service numbers its mappings afresh.
fn answer(snapshot: &IndexSnapshot, key: &str) -> (Vec<String>, usize) {
    match snapshot.lookup(key) {
        None => (Vec::new(), 0),
        Some(hit) => {
            let mut rights: Vec<String> = hit.translations().map(|(_, r)| r.to_string()).collect();
            rights.sort();
            (rights, hit.mappings().len())
        }
    }
}

/// The synthesis output of a session, order-free: what "the same state"
/// means between the ingestor, the replay and a fresh session.
fn observe(session: &SynthesisSession) -> Vec<Vec<(String, String)>> {
    let run = session.synthesize(&session.config().synthesis, Resolver::Algorithm4);
    let mut out: Vec<Vec<(String, String)>> = run
        .mappings
        .iter()
        .map(|m| {
            let mut pairs = m.materialize_pairs();
            pairs.sort();
            pairs
        })
        .collect();
    out.sort();
    out
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create recovery directory");
    for entry in std::fs::read_dir(from).expect("read persistence directory") {
        let entry = entry.expect("directory entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy persisted file");
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A live ingestor with persistence on, driven as a closed loop of one
/// producer that reads the served snapshot while it waits.
struct LiveIngest {
    ingestor: DeltaIngestor,
    service: Arc<MappingService>,
    columns: Vec<Vec<String>>,
    next_column: usize,
    submitted: u64,
    acks_ms: Vec<f64>,
    reads_us: Vec<f64>,
}

impl LiveIngest {
    fn spawn(base: Base, columns: Vec<Vec<String>>, dir: &Path) -> Self {
        let persistence =
            Persistence::create(PersistConfig::new(dir), 0).expect("open persistence directory");
        let service = Arc::clone(&base.service);
        let ingestor = DeltaIngestor::spawn_with_persistence(
            base.session,
            base.corpus,
            &base.keys,
            Arc::clone(&service),
            IngestorConfig::default(),
            Box::new(NoFaults),
            Some(persistence),
        )
        .expect("spawn the ingestor");
        Self {
            ingestor,
            service,
            columns,
            next_column: 0,
            submitted: 0,
            acks_ms: Vec::new(),
            reads_us: Vec::new(),
        }
    }

    /// Submit each request in turn: after delta *k*, translate columns
    /// on the served snapshot back to back until the ingestor has
    /// accounted for *k + 1* deltas. Latencies of all but the first
    /// `discard` deltas are kept; returns the seconds those took.
    fn submit(&mut self, requests: &[DeltaRequest], discard: usize) -> f64 {
        let columns: Vec<Vec<&str>> = self
            .columns
            .iter()
            .map(|c| c.iter().map(String::as_str).collect())
            .collect();
        // Cloned before the clock starts: the producer hands over owned
        // requests.
        let owned: Vec<DeltaRequest> = requests.to_vec();
        let mut started = Instant::now();
        for (k, request) in owned.into_iter().enumerate() {
            let record = k >= discard;
            if k == discard {
                started = Instant::now();
            }
            let submitted = Instant::now();
            self.ingestor.submit(request);
            self.submitted += 1;
            loop {
                let t = Instant::now();
                let snapshot = self.service.snapshot();
                let column = &columns[self.next_column % columns.len()];
                std::hint::black_box(snapshot.translate_column(column));
                if record {
                    self.reads_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                }
                self.next_column += 1;
                // Between reads the client gives the processor away:
                // where a neighbour has taken one of the box's two
                // cores, a reader that spins takes half of the other
                // from the ingest worker it is waiting for.
                std::thread::yield_now();
                let stats = self.ingestor.stats();
                if stats.accepted + stats.rejected == self.submitted {
                    break;
                }
            }
            if record {
                self.acks_ms
                    .push(submitted.elapsed().as_nanos() as f64 / 1e6);
            }
        }
        if requests.len() > discard {
            started.elapsed().as_secs_f64()
        } else {
            0.0
        }
    }
}

/// `recover()` call → first correct lookup, on a fresh copy of `dir`.
fn timed_recovery(
    run: &mut Run,
    dir: &Path,
    probe: &ProbeAnswer,
) -> (f64, mapsynth_serve::Recovered) {
    let copy = run.scratch_dir("recover");
    copy_dir(dir, &copy);
    let t = Instant::now();
    let recovered =
        recover(&copy, pipeline_config(), Resolver::Algorithm4).expect("recover the directory");
    let first = answer(&recovered.service.snapshot(), &probe.0);
    let secs = t.elapsed().as_secs_f64();
    run.checks.check(
        "delta: first lookup after recovery is correct",
        first == probe.1,
    );
    (secs, recovered)
}

/// Probe keys: values of the live tables' first columns, and as many
/// values nothing serves.
fn probe_keys(live: &Corpus, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, "delta probes");
    let values: Vec<&str> = live
        .tables
        .iter()
        .filter_map(|t| t.columns.first())
        .flat_map(|c| c.values.iter().map(|&v| live.str_of(v)))
        .collect();
    (0..PROBES)
        .map(|i| {
            if i % 2 == 0 && !values.is_empty() {
                values[rng.below(values.len())].to_string()
            } else {
                format!("unserved probe {i}")
            }
        })
        .collect()
}

/// Each probe key with what `snapshot` answers for it.
fn probe_answers(
    snapshot: &IndexSnapshot,
    keys: Vec<String>,
) -> Vec<(String, (Vec<String>, usize))> {
    keys.into_iter()
        .map(|k| {
            let a = answer(snapshot, &k);
            (k, a)
        })
        .collect()
}

/// The untraced run's delta phase. Its samples are, in order: the
/// stream chunk by chunk through one live ingestor; then, the ingestor
/// shut down, one timed recovery each. Taking the recoveries as samples
/// lets the scheduler spread them over the run like everything else.
pub struct DeltaSampler {
    stream: DeltaStream,
    next: usize,
    chunk: usize,
    settle: usize,
    recoveries: usize,
    /// The ingestor, until the stream is used up.
    live: Option<LiveIngest>,
    /// What the ingestor left, once it is shut down.
    stopped: Option<Stopped>,
    dir: std::path::PathBuf,
    /// Seconds spent in timed chunks.
    busy_s: f64,
}

/// A probe key with what the service answered for it at shutdown.
type ProbeAnswer = (String, (Vec<String>, usize));

struct Stopped {
    acks_ms: Vec<f64>,
    reads_us: Vec<f64>,
    probes: Vec<ProbeAnswer>,
    /// A probe the service has an answer for: the first lookup a
    /// recovered service must get right.
    first_hit: ProbeAnswer,
    recover_s: Vec<f64>,
}

impl DeltaSampler {
    pub fn new(run: &mut Run, scale: &DeltaScale) -> Self {
        let (seed, tables, count) = (run.seed, scale.tables, scale.deltas);
        let web = run.generate(|| web_corpus(tables, seed));
        let stream = run.generate(|| delta_stream(&web.corpus, count, seed));
        let dir = run.scratch_dir("persist");
        let live = run.setup(|run| {
            let base = base_state(web.corpus);
            let columns = read_columns(&base, run.seed);
            LiveIngest::spawn(base, columns, &dir)
        });
        Self {
            stream,
            next: 0,
            chunk: scale.chunk,
            settle: scale.settle,
            recoveries: scale.recoveries,
            live: Some(live),
            stopped: None,
            dir,
            busy_s: 0.0,
        }
    }

    fn take(&mut self, count: usize) -> Vec<DeltaRequest> {
        let end = (self.next + count).min(self.stream.requests.len());
        let requests = self.stream.requests[self.next..end]
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        self.next = end;
        requests
    }

    /// Shut the ingestor down and check what it did.
    fn stop(&mut self, run: &mut Run, live: LiveIngest) {
        let LiveIngest {
            ingestor,
            service,
            acks_ms,
            reads_us,
            ..
        } = live;
        let outcome = ingestor.shutdown();
        let stats = outcome.stats;
        let submitted = self.next as u64;
        run.checks.ops(submitted + reads_us.len() as u64);
        run.checks.fail("delta: rejected deltas", stats.rejected);
        run.checks
            .fail("delta: persistence errors", stats.persist_errors);
        run.checks
            .check_eq("delta: every delta was accepted", stats.accepted, submitted);
        run.checks.check_eq(
            "delta: one WAL record per accepted delta",
            stats.wal_records,
            stats.accepted,
        );
        let live_corpus = outcome.session.live_corpus(&outcome.corpus);
        let fresh = {
            let mut s = SynthesisSession::new(pipeline_config());
            s.prepare(&live_corpus);
            s
        };
        run.checks.check(
            "delta: the ingestor's outcome equals a fresh session on its live corpus",
            observe(&outcome.session) == observe(&fresh),
        );
        let probes = probe_answers(&service.snapshot(), probe_keys(&live_corpus, run.seed));
        let first_hit = probes
            .iter()
            .find(|(_, a)| !a.0.is_empty())
            .unwrap_or(&probes[0])
            .clone();
        self.stopped = Some(Stopped {
            acks_ms,
            reads_us,
            probes,
            first_hit,
            recover_s: Vec::new(),
        });
    }
}

/// Deltas of the discarded warm-up.
pub const WARM_UP_DELTAS: usize = 8;

impl DeltaScale {
    /// Samples the untraced run's phase consists of: the chunks of the
    /// stream, then the recoveries.
    pub fn samples(&self) -> usize {
        self.deltas.div_ceil(self.chunk) + self.recoveries
    }
}

impl Sampler for DeltaSampler {
    fn warm_up(&mut self, _: &mut Run) {
        let requests = self.take(WARM_UP_DELTAS);
        if let Some(live) = &mut self.live {
            live.submit(&requests, WARM_UP_DELTAS);
        }
    }

    /// Returns 0 once the stream and the recoveries are done.
    fn sample(&mut self, run: &mut Run) -> f64 {
        if let Some(mut live) = self.live.take() {
            let requests = self.take(self.chunk);
            if !requests.is_empty() {
                let secs = live.submit(&requests, self.settle);
                self.busy_s += secs;
                self.live = Some(live);
                return secs;
            }
            self.stop(run, live);
        }
        let recoveries = self.recoveries;
        let stopped = self.stopped.as_mut().expect("stopped once not live");
        if stopped.recover_s.len() == recoveries {
            return 0.0;
        }
        let (secs, recovered) = timed_recovery(run, &self.dir, &stopped.first_hit);
        stopped.recover_s.push(secs);
        let snapshot = recovered.service.snapshot();
        let wrong = stopped
            .probes
            .iter()
            .filter(|(k, a)| answer(&snapshot, k) != *a)
            .count();
        run.checks.ops(PROBES as u64);
        run.checks.fail(
            "delta: recovered service answers a probe differently",
            wrong as u64,
        );
        secs
    }

    fn finish(mut self: Box<Self>, run: &mut Run) {
        // Whatever the scheduler left undone happens now.
        while self.sample(run) > 0.0 {}
        let stopped = self.stopped.expect("the loop above stops the ingestor");
        let acks_ms = &stopped.acks_ms;
        // NaN (and a failed run) if the stream was too short for a p95.
        let p95 = tail_percentile(acks_ms, 0.95).unwrap_or(f64::NAN);
        run.record.e2e("ack_p50_ms", Summary::of(acks_ms));
        run.record
            .e2e("ack_p95_ms", Summary::single(p95, acks_ms.len()));
        run.record.e2e(
            "ingest_deltas_per_s",
            Summary::single(acks_ms.len() as f64 / self.busy_s, acks_ms.len()),
        );
        run.record.e2e("recover_s", Summary::of(&stopped.recover_s));
        run.record
            .e2e("churn_read_p50_us", Summary::of(&stopped.reads_us));
    }
}

/// The worker's state, held by the benchmark for the replay.
struct Replay {
    corpus: Corpus,
    session: SynthesisSession,
    service: Arc<MappingService>,
    key_of_table: HashMap<u64, TableId>,
    persist: Persistence,
    accepted_since_publish: usize,
    /// Seconds `apply_delta` took, per delta, with its kind.
    applies: Vec<(DeltaKind, f64)>,
    rebuilt_shard_shares: Vec<f64>,
    compactions: u64,
}

/// The live tables in portable form, in table order: what an archive
/// stores beside the snapshot.
fn portable_tables(corpus: &Corpus, key_of_table: &HashMap<u64, TableId>) -> Vec<PortableTable> {
    let mut entries: Vec<(u64, TableId)> = key_of_table.iter().map(|(&k, &t)| (k, t)).collect();
    entries.sort_by_key(|&(_, tid)| tid.0);
    entries
        .into_iter()
        .map(|(key, tid)| {
            let table = plain_table(corpus, tid, key);
            PortableTable {
                key,
                domain: table.domain,
                columns: table.columns,
            }
        })
        .collect()
}

impl Replay {
    /// One delta, as the worker processes it: evolve the corpus, apply,
    /// log, check for compaction, publish on cadence.
    fn process(&mut self, tr: &mut Tracer, kind: DeltaKind, request: &DeltaRequest) {
        tr.span("delta.op", |tr| {
            let delta = tr.call("corpus.table.evolve", || {
                let patches: Vec<RowPatch> = request
                    .patches
                    .iter()
                    .map(|p| RowPatch {
                        table: self.key_of_table[&p.key],
                        deleted: p.deleted.clone(),
                        inserted: p.inserted.clone(),
                    })
                    .collect();
                for p in &patches {
                    self.corpus.apply_row_patch(p);
                }
                let added = request
                    .add
                    .iter()
                    .map(|t| push_plain(&mut self.corpus, &t.domain, &t.columns))
                    .collect();
                CorpusDelta {
                    added,
                    removed: request
                        .remove
                        .iter()
                        .map(|k| self.key_of_table[k])
                        .collect(),
                    patches,
                }
            });
            tr.span("core.delta.apply", |tr| {
                let t = Instant::now();
                let report = self
                    .session
                    .apply_delta(&self.corpus, &delta)
                    .expect("the stream holds only valid deltas");
                self.applies.push((kind, t.elapsed().as_secs_f64()));
                tr.reported(&[
                    ("core.delta.extraction", report.timings.extraction),
                    ("core.delta.values", report.timings.values),
                    ("core.delta.blocking", report.timings.blocking),
                    ("core.delta.scoring", report.timings.scoring),
                ]);
            });
            for (t, &tid) in request.add.iter().zip(&delta.added) {
                self.key_of_table.insert(t.key, tid);
            }
            for key in &request.remove {
                self.key_of_table.remove(key);
            }
            tr.call("serve.persist.wal_append", || {
                self.persist
                    .record_accepted(request)
                    .expect("append to the WAL")
            });
            if tr.call("core.session.compaction_due", || {
                self.session.compaction_due()
            }) {
                tr.call("core.session.compact", || {
                    self.corpus = self.session.compact(&self.corpus);
                    // Compaction keeps live tables in order: the k-th
                    // smallest live id becomes `TableId(k)`.
                    let mut entries: Vec<(u64, TableId)> = self.key_of_table.drain().collect();
                    entries.sort_by_key(|&(_, tid)| tid.0);
                    for (k, (key, _)) in entries.into_iter().enumerate() {
                        self.key_of_table.insert(key, TableId(k as u32));
                    }
                });
                self.compactions += 1;
            }
            self.accepted_since_publish += 1;
            if self.accepted_since_publish >= IngestorConfig::default().publish_every {
                self.publish(tr);
            }
        });
    }

    fn publish(&mut self, tr: &mut Tracer) {
        let synthesis = self.session.config().synthesis;
        let run = tr.call("core.session.synthesize", || {
            self.session.synthesize(&synthesis, Resolver::Algorithm4)
        });
        let (_, stats) = tr.call("serve.service.publish_delta", || {
            self.service.publish_delta(&run.mappings)
        });
        self.rebuilt_shard_shares
            .push(stats.rebuilt_shards as f64 / stats.total_shards.max(1) as f64);
        self.accepted_since_publish = 0;
        if self.persist.archive_due() {
            tr.call("serve.persist.archive", || {
                let tables = portable_tables(&self.corpus, &self.key_of_table);
                self.persist
                    .write_archive(&self.service.snapshot(), &tables)
                    .expect("write the archive")
            });
        }
    }
}

/// The traced run's delta phase: the stream's head through a live
/// ingestor, then the whole stream replayed call by call.
pub fn traced(run: &mut Run, scale: &DeltaScale) {
    let deltas = scale.traced_deltas;
    assert!(
        highest_supported(deltas) >= Some(0.95),
        "{deltas} deltas cannot support a p95"
    );
    let (seed, tables) = (run.seed, scale.tables);
    let corpus = run.generate(|| web_corpus(tables, seed)).corpus;
    let stream = &run.generate(|| delta_stream(&corpus, deltas, seed));

    // A live ingestor over the head of the stream: real acknowledgements
    // and real reads-beside-writes to set the replay against.
    let live_dir = run.scratch_dir("persist-live");
    let prefix = LIVE_PREFIX.min(stream.requests.len());
    let mut live = run.setup(|run| {
        let base = base_state(corpus.subset(|_| true));
        let columns = read_columns(&base, run.seed);
        LiveIngest::spawn(base, columns, &live_dir)
    });
    let head: Vec<DeltaRequest> = stream.requests[..prefix]
        .iter()
        .map(|(_, r)| r.clone())
        .collect();
    live.submit(&head, 0);
    let LiveIngest {
        ingestor,
        acks_ms: live_acks_ms,
        reads_us: live_reads_us,
        ..
    } = live;
    run.checks.ops(prefix as u64);
    run.checks
        .fail("delta: rejected deltas", ingestor.shutdown().stats.rejected);

    let dir = run.scratch_dir("persist-replay");
    let mut replay = run.setup(|_| {
        let base = base_state(corpus);
        let key_of_table: HashMap<u64, TableId> = base
            .keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, TableId(i as u32)))
            .collect();
        // The ingestor writes a base archive before its worker starts.
        let mut persist =
            Persistence::create(PersistConfig::new(&dir), 0).expect("open persistence directory");
        persist
            .write_archive(
                &base.service.snapshot(),
                &portable_tables(&base.corpus, &key_of_table),
            )
            .expect("write the base archive");
        Replay {
            corpus: base.corpus,
            session: base.session,
            service: base.service,
            key_of_table,
            persist,
            accepted_since_publish: 0,
            applies: Vec::new(),
            rebuilt_shard_shares: Vec::new(),
            compactions: 0,
        }
    });

    let spans_before = run.tracer.span_count();
    run.tracer.set_enabled(true);
    let t = Instant::now();
    for (kind, request) in &stream.requests {
        replay.process(&mut run.tracer, *kind, request);
    }
    if replay.accepted_since_publish > 0 {
        run.tracer
            .span("delta.tail_publish", |tr| replay.publish(tr));
    }
    let replay_s = t.elapsed().as_secs_f64();
    run.tracer.set_enabled(false);
    run.checks.ops(deltas as u64);

    let fresh = {
        let mut s = SynthesisSession::new(pipeline_config());
        s.prepare(&corpus_of(&stream.live));
        s
    };
    run.checks.check(
        "delta: the replay ends in the state of a fresh session on the stream's live tables",
        observe(&replay.session) == observe(&fresh),
    );

    let probe = probe_answers(
        &replay.service.snapshot(),
        probe_keys(&corpus_of(&stream.live), run.seed),
    )
    .into_iter()
    .find(|(_, a)| !a.0.is_empty())
    .unwrap_or_default();
    let disk_bytes = dir_bytes(&dir);
    let (recover_secs, recovered) = timed_recovery(run, &dir, &probe);

    let tr = &run.tracer;
    let p50_ms = |name: &str| {
        let secs = tr.secs(name);
        if secs.is_empty() {
            0.0
        } else {
            median(&secs) * 1e3
        }
    };
    let applies_ms = |kind: Option<DeltaKind>, upto: usize| -> Vec<f64> {
        replay.applies[..upto]
            .iter()
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .map(|&(_, s)| s * 1e3)
            .collect()
    };
    let all = applies_ms(None, deltas);
    let kind_p50 = |kind| {
        let v = applies_ms(Some(kind), deltas);
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let apply_p50 = median(&all);
    // What an acknowledgement costs beyond the calls the replay times:
    // the queue hand-off and the worker's own bookkeeping. Both sides
    // cover the same head of the stream.
    let head_ms = |name: &str| median(&tr.secs(name)[..prefix]) * 1e3;
    let overhead_ms = median(&live_acks_ms)
        - median(&applies_ms(None, prefix))
        - head_ms("corpus.table.evolve")
        - head_ms("serve.persist.wal_append")
        - head_ms("core.session.compaction_due");
    let spans = tr.span_count() - spans_before;

    let snapshot_ns = {
        const CALLS: usize = 200_000;
        let t = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(replay.service.snapshot());
        }
        t.elapsed().as_nanos() as f64 / CALLS as f64
    };
    let churn_p99 = tail_percentile(&live_reads_us, 0.99).unwrap_or(f64::NAN);
    let shares = &replay.rebuilt_shard_shares;

    let layers = [
        (
            "serve.persist.wal_append_ms",
            p50_ms("serve.persist.wal_append"),
        ),
        ("core.delta.apply_ms", apply_p50),
        (
            "core.delta.apply_p95_ms",
            tail_percentile(&all, 0.95).expect("at least 200 deltas"),
        ),
        ("core.delta.extraction_ms", p50_ms("core.delta.extraction")),
        ("core.delta.values_ms", p50_ms("core.delta.values")),
        ("core.delta.blocking_ms", p50_ms("core.delta.blocking")),
        ("core.delta.scoring_ms", p50_ms("core.delta.scoring")),
        ("core.delta.apply_patch_ms", kind_p50(DeltaKind::Patch)),
        ("core.delta.apply_add_ms", kind_p50(DeltaKind::Add)),
        ("core.delta.apply_remove_ms", kind_p50(DeltaKind::Remove)),
        ("corpus.table.evolve_ms", p50_ms("corpus.table.evolve")),
        (
            "core.session.compaction_due_ms",
            p50_ms("core.session.compaction_due"),
        ),
        (
            "core.session.synthesize_ms",
            p50_ms("core.session.synthesize"),
        ),
        (
            "serve.service.publish_delta_ms",
            p50_ms("serve.service.publish_delta"),
        ),
        (
            "serve.service.rebuilt_shard_share",
            shares.iter().sum::<f64>() / shares.len().max(1) as f64,
        ),
        ("serve.persist.archive_ms", p50_ms("serve.persist.archive")),
        ("core.session.compact_ms", p50_ms("core.session.compact")),
        ("core.session.compactions", replay.compactions as f64),
        ("serve.ingest.overhead_ms", overhead_ms),
        (
            "serve.persist.disk_bytes_per_delta",
            disk_bytes as f64 / deltas as f64,
        ),
        ("serve.persist.wal_records", deltas as f64),
        (
            "serve.persist.replayed",
            recovered.report.wal_replayed as f64,
        ),
        (
            "serve.persist.archive_load_s",
            recover_secs - recovered.report.wal_replayed as f64 * apply_p50 / 1e3,
        ),
        ("serve.service.snapshot_ns", snapshot_ns),
        ("serve.snapshot.churn_read_p99_us", churn_p99),
        (
            "delta.unattributed_share",
            tr.unattributed_share("delta.op"),
        ),
        (
            "delta.trace_overhead",
            Tracer::estimated_overhead(spans, replay_s),
        ),
        ("trace.span_cost_ns", Tracer::span_cost_ns()),
    ];
    for (name, value) in layers {
        run.record.layer(name, value);
    }
}
