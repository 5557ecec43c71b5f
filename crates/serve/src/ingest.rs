//! Fault-tolerant background delta ingestion: a bounded queue, a
//! publisher thread, quarantine for poisoned deltas.
//!
//! [`DeltaIngestor`] moves the delta stream behind the service
//! boundary (the ROADMAP's serving-while-streaming milestone): callers
//! [`submit`](DeltaIngestor::submit) key-addressed [`DeltaRequest`]s
//! into a **bounded** queue (a full queue blocks the producer —
//! backpressure, never unbounded memory) while a background worker
//! owns the [`SynthesisSession`] + [`Corpus`] and drives them
//! transactionally:
//!
//! 1. **validate** — keys resolve against the live table set, added
//!    tables' columns share one length, row patches are checked
//!    non-mutating ([`Corpus::check_row_patch`]);
//! 2. **apply** — the corpus is evolved, then
//!    [`SynthesisSession::apply_delta`] runs all-or-nothing (typed
//!    [`DeltaError`] + `catch_unwind` containment). On rejection the
//!    corpus is rolled back (appended tables truncated, applied row
//!    patches inverted in reverse order) so corpus and session stay
//!    in lockstep;
//! 3. **publish** — every `publish_every` accepted deltas the worker
//!    synthesizes and calls [`MappingService::publish_delta`]. The
//!    snapshot is derived in memory from the session, so publishing
//!    cannot fail;
//! 4. **quarantine** — every rejected delta is recorded with its
//!    stream position, typed reason and the original request, and is
//!    observable while the stream runs
//!    ([`quarantined`](DeltaIngestor::quarantined) /
//!    [`drain_quarantine`](DeltaIngestor::drain_quarantine)).
//!
//! Readers are never involved: they keep cloning the last good
//! snapshot from the shared [`MappingService`] and sustain lookups
//! through malformed deltas, induced apply panics and persistence
//! errors alike — the service degrades to *stale-until-next-publish*,
//! never to torn or absent.
//!
//! Determinism: the worker applies deltas in submission order on one
//! thread, so for a fixed request stream and [`FaultInjector`] plan
//! the post-stream session is reproducible and bit-identical to a
//! fresh session built from only the accepted deltas (the bench
//! crate's `--delta-stream --faults` tier gates exactly that).

use crate::persist::{PersistError, Persistence};
use crate::service::MappingService;
use mapsynth::delta::{
    fault, CorpusDelta, DeltaError, PortableDelta, PortablePatch, PortableTable,
};
use mapsynth::pipeline::{Resolver, SynthesisSession};
use mapsynth::SynthesisConfig;
use mapsynth_corpus::{Corpus, RowPatch, RowPatchError, TableId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

/// A table shipped to the ingestor: a caller-chosen stable key (the
/// ingestor's table ids shift across compactions; keys never do), the
/// provenance domain, and the columns. The key must not collide with a
/// live table's, and all value vectors must share one length.
pub type TableSpec = PortableTable;

/// A row patch addressed by table key instead of [`TableId`]; each
/// deleted tuple must match a current row.
pub type PatchSpec = PortablePatch;

/// One unit of corpus evolution submitted to the ingestor — the
/// key-addressed analogue of [`CorpusDelta`], and the record the WAL
/// stores as is.
pub type DeltaRequest = PortableDelta;

/// Why the ingestor rejected (and quarantined) a [`DeltaRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// A `remove` or patch key that names no live table.
    UnknownKey {
        /// The unresolvable key.
        key: u64,
    },
    /// An `add` key that is already live (or repeated within the
    /// request).
    DuplicateKey {
        /// The colliding key.
        key: u64,
    },
    /// An `add` whose columns do not all have the same length.
    RaggedTable {
        /// The added table's key.
        key: u64,
    },
    /// A row patch the corpus cannot apply.
    Patch(RowPatchError),
    /// The session rejected the delta (including contained apply
    /// panics — [`DeltaError::ApplyPanicked`]).
    Delta(DeltaError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::UnknownKey { key } => write!(f, "key {key} names no live table"),
            IngestError::DuplicateKey { key } => write!(f, "key {key} is already live"),
            IngestError::RaggedTable { key } => {
                write!(f, "table {key} has columns of unequal length")
            }
            IngestError::Patch(e) => write!(f, "corpus rejected patch: {e}"),
            IngestError::Delta(e) => write!(f, "session rejected delta: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Patch(e) => Some(e),
            IngestError::Delta(e) => Some(e),
            _ => None,
        }
    }
}

/// A rejected delta held for inspection: where in the stream it sat,
/// why it was refused, and the request itself (for repair/replay).
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// 0-based position in the submission stream.
    pub seq: u64,
    /// The typed rejection reason.
    pub error: IngestError,
    /// The original request, verbatim.
    pub request: DeltaRequest,
}

/// Counters of everything the worker has done so far. Monotone except
/// `quarantined`, which is the *currently held* entry count (drains
/// subtract).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Requests submitted to the queue.
    pub submitted: u64,
    /// Deltas applied end to end.
    pub accepted: u64,
    /// Deltas rejected (each one is quarantined).
    pub rejected: u64,
    /// Quarantine entries currently held (not yet drained).
    pub quarantined: u64,
    /// Snapshot publishes.
    pub publishes: u64,
    /// Mid-stream compaction passes.
    pub compactions: u64,
    /// Quarantine entries dropped (oldest first) to hold
    /// [`IngestorConfig::quarantine_cap`].
    pub quarantine_evicted: u64,
    /// Accepted deltas durably appended to the WAL (0 without a
    /// persistence hook).
    pub wal_records: u64,
    /// Persistence operations (WAL appends, archive writes) that
    /// failed. Serving continues — durability degrades, lookups don't —
    /// but a nonzero count means recovery would lose the failed tail.
    pub persist_errors: u64,
}

/// Deterministic fault plan hook: the harness decides, per stream
/// position, whether to sabotage the apply (induced panic past
/// validation). The default method injects nothing, so production code
/// passes [`NoFaults`].
pub trait FaultInjector: Send {
    /// Return `true` to arm an induced panic inside this delta's
    /// `apply_delta` (fired after the first artifact mutation —
    /// exercising containment + rollback). `seq` is the request's
    /// 0-based stream position.
    fn sabotage_apply(&mut self, seq: u64) -> bool {
        let _ = seq;
        false
    }
}

/// The production injector: no faults.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// Tuning knobs for [`DeltaIngestor::spawn`].
#[derive(Clone, Copy, Debug)]
pub struct IngestorConfig {
    /// Bounded queue depth; a full queue blocks `submit`
    /// (backpressure).
    pub queue_depth: usize,
    /// Publish after this many accepted deltas (and once more at
    /// shutdown for the tail).
    pub publish_every: usize,
    /// Resolver used for the published mappings.
    pub resolver: Resolver,
    /// Most quarantine entries held at once. When a rejection would
    /// exceed the cap the **oldest** entries are dropped (counted in
    /// [`IngestStats::quarantine_evicted`]), so a hostile stream of
    /// poison deltas cannot grow memory without bound. `0` keeps
    /// nothing (every rejection is counted, then immediately evicted).
    pub quarantine_cap: usize,
}

impl Default for IngestorConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            publish_every: 8,
            resolver: Resolver::Algorithm4,
            quarantine_cap: 1024,
        }
    }
}

/// A structurally invalid [`IngestorConfig`], refused at
/// [`DeltaIngestor::spawn`] instead of being silently clamped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestorConfigError {
    /// `queue_depth == 0`: a zero-capacity channel would deadlock the
    /// producer against the worker.
    ZeroQueueDepth,
    /// `publish_every == 0`: the publish cadence would never trigger.
    ZeroPublishEvery,
}

impl fmt::Display for IngestorConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestorConfigError::ZeroQueueDepth => write!(f, "queue_depth must be nonzero"),
            IngestorConfigError::ZeroPublishEvery => write!(f, "publish_every must be nonzero"),
        }
    }
}

impl std::error::Error for IngestorConfigError {}

/// Why [`DeltaIngestor::spawn_with_persistence`] refused to start.
#[derive(Debug)]
pub enum SpawnError {
    /// The config failed [`IngestorConfig::validate`].
    Config(IngestorConfigError),
    /// The base archive could not be written durably — starting the
    /// stream anyway would log WAL records no generation covers.
    Persist(PersistError),
}

impl fmt::Display for SpawnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpawnError::Config(e) => write!(f, "invalid ingestor config: {e}"),
            SpawnError::Persist(e) => write!(f, "base archive write failed: {e}"),
        }
    }
}

impl std::error::Error for SpawnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpawnError::Config(e) => Some(e),
            SpawnError::Persist(e) => Some(e),
        }
    }
}

impl IngestorConfig {
    /// Check the structural invariants `spawn` relies on.
    pub fn validate(&self) -> Result<(), IngestorConfigError> {
        if self.queue_depth == 0 {
            return Err(IngestorConfigError::ZeroQueueDepth);
        }
        if self.publish_every == 0 {
            return Err(IngestorConfigError::ZeroPublishEvery);
        }
        Ok(())
    }
}

/// Everything the worker hands back at shutdown.
pub struct IngestOutcome {
    /// The post-stream session (bit-identical to a fresh session on
    /// the accepted-deltas-only corpus).
    pub session: SynthesisSession,
    /// The post-stream corpus (rolled back past every rejected delta).
    pub corpus: Corpus,
    /// Final counters.
    pub stats: IngestStats,
    /// Quarantine entries never drained mid-stream (the tail the cap
    /// kept).
    pub quarantine: Vec<Quarantined>,
    /// Stable key → live table id at shutdown (covers exactly the
    /// live tables; what a persistence archive stores per table).
    pub key_of_table: HashMap<u64, TableId>,
}

#[derive(Default)]
struct SharedState {
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    publishes: AtomicU64,
    compactions: AtomicU64,
    quarantine_evicted: AtomicU64,
    wal_records: AtomicU64,
    persist_errors: AtomicU64,
    quarantine: Mutex<Vec<Quarantined>>,
}

impl SharedState {
    fn quarantine_lock(&self) -> std::sync::MutexGuard<'_, Vec<Quarantined>> {
        // Pushes/drains of a Vec under the lock can't leave torn data;
        // recovering keeps inspection working even if a holder died.
        self.quarantine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self) -> IngestStats {
        IngestStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Acquire),
            rejected: self.rejected.load(Ordering::Relaxed),
            quarantined: self.quarantine_lock().len() as u64,
            publishes: self.publishes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            quarantine_evicted: self.quarantine_evicted.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
            persist_errors: self.persist_errors.load(Ordering::Relaxed),
        }
    }
}

enum WorkerMsg {
    Delta(DeltaRequest),
    Shutdown,
}

/// The background ingestion handle. See the module docs for the
/// pipeline it drives.
pub struct DeltaIngestor {
    tx: SyncSender<WorkerMsg>,
    shared: Arc<SharedState>,
    service: Arc<MappingService>,
    #[allow(clippy::type_complexity)]
    handle: Option<JoinHandle<(SynthesisSession, Corpus, HashMap<u64, TableId>)>>,
}

impl DeltaIngestor {
    /// Start the background worker over a prepared session and its
    /// corpus. `initial_keys[i]` is the caller's stable key for
    /// `TableId(i)`; the session must be freshly prepared (every
    /// corpus table live) so keys and tables correspond 1:1. The
    /// config is [validated](IngestorConfig::validate) first.
    ///
    /// # Panics
    /// Panics if `initial_keys` does not cover the corpus exactly
    /// (len mismatch or duplicate keys) — a programming error in the
    /// caller, not stream data.
    pub fn spawn(
        session: SynthesisSession,
        corpus: Corpus,
        initial_keys: &[u64],
        service: Arc<MappingService>,
        cfg: IngestorConfig,
        injector: Box<dyn FaultInjector>,
    ) -> Result<Self, IngestorConfigError> {
        match Self::spawn_with_persistence(
            session,
            corpus,
            initial_keys,
            service,
            cfg,
            injector,
            None,
        ) {
            Ok(ing) => Ok(ing),
            Err(SpawnError::Config(e)) => Err(e),
            // Unreachable without a persistence hook; keep the type
            // honest rather than panicking.
            Err(SpawnError::Persist(e)) => {
                unreachable!("persistence error without a persistence hook: {e}")
            }
        }
    }

    /// [`spawn`](Self::spawn) with an optional crash-safety hook: when
    /// `persistence` is `Some`, a **base archive** capturing the
    /// initial corpus and the currently served version is written
    /// durably before the worker starts (so the WAL always has a
    /// covering generation beneath it), every accepted delta is
    /// appended + fsynced to the WAL before it can reach a publish,
    /// and archives are rolled forward on the configured publish
    /// cadence. Persistence failures *after* spawn never stop serving:
    /// they are counted in [`IngestStats::persist_errors`] and the
    /// worker keeps going on the in-memory path.
    pub fn spawn_with_persistence(
        session: SynthesisSession,
        corpus: Corpus,
        initial_keys: &[u64],
        service: Arc<MappingService>,
        cfg: IngestorConfig,
        injector: Box<dyn FaultInjector>,
        persistence: Option<Persistence>,
    ) -> Result<Self, SpawnError> {
        cfg.validate().map_err(SpawnError::Config)?;
        assert_eq!(initial_keys.len(), corpus.len(), "one key per corpus table");
        let mut key_of_table: HashMap<u64, TableId> = HashMap::new();
        for (i, &key) in initial_keys.iter().enumerate() {
            let prev = key_of_table.insert(key, TableId(i as u32));
            assert!(prev.is_none(), "duplicate initial key {key}");
        }
        let mut persist = persistence;
        if let Some(p) = &mut persist {
            p.write_archive(
                &service.snapshot(),
                &crate::persist::portable_tables(&corpus, &key_of_table),
            )
            .map_err(SpawnError::Persist)?;
        }
        let shared = Arc::new(SharedState::default());
        let (tx, rx) = sync_channel(cfg.queue_depth);
        let synthesis = session.config().synthesis;
        let worker = Worker {
            session,
            corpus,
            key_of_table,
            synthesis,
            service: Arc::clone(&service),
            shared: Arc::clone(&shared),
            cfg,
            injector,
            persist,
            seq: 0,
            accepted_since_publish: 0,
        };
        let handle = thread::Builder::new()
            .name("delta-ingestor".into())
            .spawn(move || worker.run(rx))
            .expect("spawn delta-ingestor thread");
        Ok(Self {
            tx,
            shared,
            service,
            handle: Some(handle),
        })
    }

    /// Enqueue one delta. **Blocks** while the queue is at
    /// `queue_depth` — backpressure toward the producer, so a slow
    /// apply can never grow memory without bound.
    pub fn submit(&self, request: DeltaRequest) {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(WorkerMsg::Delta(request))
            .expect("delta-ingestor worker exited before shutdown");
    }

    /// The shared serving handle readers hold. Lookups on snapshots
    /// from here sustain through every ingestion failure mode.
    pub fn service(&self) -> &Arc<MappingService> {
        &self.service
    }

    /// Current counters (racy against the worker by design — exact
    /// after `shutdown`).
    pub fn stats(&self) -> IngestStats {
        self.shared.stats()
    }

    /// Inspect the quarantine without draining it.
    pub fn quarantined(&self) -> Vec<Quarantined> {
        self.shared.quarantine_lock().clone()
    }

    /// Drain the quarantine, taking ownership of every held entry
    /// (subsequent calls see only newer rejections).
    pub fn drain_quarantine(&self) -> Vec<Quarantined> {
        std::mem::take(&mut *self.shared.quarantine_lock())
    }

    /// Stop the worker: every already-submitted delta is processed,
    /// the tail of accepted-but-unpublished deltas is published, and
    /// the session + corpus come back for offline use (e.g. the
    /// bit-identity oracle).
    pub fn shutdown(mut self) -> IngestOutcome {
        let _ = self.tx.send(WorkerMsg::Shutdown);
        let handle = self.handle.take().expect("shutdown called once");
        match handle.join() {
            Ok((session, corpus, key_of_table)) => IngestOutcome {
                session,
                corpus,
                stats: self.shared.stats(),
                quarantine: std::mem::take(&mut *self.shared.quarantine_lock()),
                key_of_table,
            },
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

struct Worker {
    session: SynthesisSession,
    corpus: Corpus,
    /// Stable key → current live table id (remapped on compaction).
    key_of_table: HashMap<u64, TableId>,
    synthesis: SynthesisConfig,
    service: Arc<MappingService>,
    shared: Arc<SharedState>,
    cfg: IngestorConfig,
    injector: Box<dyn FaultInjector>,
    persist: Option<Persistence>,
    seq: u64,
    accepted_since_publish: usize,
}

impl Worker {
    fn run(mut self, rx: Receiver<WorkerMsg>) -> (SynthesisSession, Corpus, HashMap<u64, TableId>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                WorkerMsg::Delta(request) => self.process(request),
                WorkerMsg::Shutdown => break,
            }
        }
        if self.accepted_since_publish > 0 || self.shared.publishes.load(Ordering::Relaxed) == 0 {
            self.publish();
        }
        // Deliberately NO persistence finalization here: the on-disk
        // state a graceful shutdown leaves behind is exactly the state
        // a kill at this point would leave (modulo the tail publish's
        // archive cadence), which is what lets the recovery oracle
        // construct kill states without killing a process.
        (self.session, self.corpus, self.key_of_table)
    }

    fn process(&mut self, request: DeltaRequest) {
        let seq = self.seq;
        self.seq += 1;
        let sabotage = self.injector.sabotage_apply(seq);
        match apply_request_to(
            &mut self.session,
            &mut self.corpus,
            &mut self.key_of_table,
            &request,
            sabotage,
        ) {
            Ok(()) => {
                self.accepted_since_publish += 1;
                // Durability before visibility, best-effort: the
                // accepted delta is fsynced into the WAL before it is
                // counted `accepted` (so `wal_records + persist_errors
                // >= accepted` on every `stats()` read) and before the
                // publish cadence can pick it up. On an append failure
                // the WAL repairs itself (the torn frame is physically
                // removed — see `DeltaWal::append`) but the delta
                // stays applied and may still reach a publish: with
                // `persist_errors > 0` the served state can outrun
                // what recovery reconstructs. Durability degrades,
                // serving doesn't — the module's standing trade.
                if let Some(p) = &mut self.persist {
                    match p.record_accepted(&request) {
                        Ok(_seq) => {
                            self.shared.wal_records.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            self.shared.persist_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Release pairs with the Acquire load in `stats()`: a
                // reader that sees this count also sees the WAL
                // counters bumped above.
                self.shared.accepted.fetch_add(1, Ordering::Release);
                if self.session.compaction_due() {
                    self.compact();
                }
                if self.accepted_since_publish >= self.cfg.publish_every {
                    self.publish();
                }
            }
            Err(error) => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                let mut quarantine = self.shared.quarantine_lock();
                quarantine.push(Quarantined {
                    seq,
                    error,
                    request,
                });
                // Drop-oldest to the cap: the newest rejection is the
                // one an operator inspects first.
                if quarantine.len() > self.cfg.quarantine_cap {
                    let excess = quarantine.len() - self.cfg.quarantine_cap;
                    quarantine.drain(..excess);
                    self.shared
                        .quarantine_evicted
                        .fetch_add(excess as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// Reclaim tombstones and densely renumber, keeping the key map in
    /// lockstep.
    fn compact(&mut self) {
        compact_with_keys(&mut self.session, &mut self.corpus, &mut self.key_of_table);
        self.shared.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Synthesize, install the result as the served snapshot, and roll
    /// the archive forward on its cadence: the live corpus and the
    /// just-installed version, covering every WAL record so far —
    /// older generations and fully covered WAL segments are then
    /// prunable.
    fn publish(&mut self) {
        let run = self.session.synthesize(&self.synthesis, self.cfg.resolver);
        self.service.publish_delta(&run.mappings);
        self.shared.publishes.fetch_add(1, Ordering::Relaxed);
        self.accepted_since_publish = 0;
        if let Some(p) = &mut self.persist {
            if p.archive_due() {
                let tables = crate::persist::portable_tables(&self.corpus, &self.key_of_table);
                if p.write_archive(&self.service.snapshot(), &tables).is_err() {
                    self.shared.persist_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Resolve a key-addressed request against the live table set, evolve
/// the corpus, and run the guarded [`SynthesisSession::apply_delta`] —
/// the single apply path shared by the live ingestion worker and WAL
/// replay during recovery (which is what makes replay
/// observation-identical to the original stream). On any rejection the
/// corpus is rolled back to byte-equivalent content (appended tables
/// truncated, applied patches inverted in reverse order — table row
/// *order* may differ, which extraction canonicalizes away), keeping
/// it in lockstep with the untouched session. `sabotage` arms the
/// fault injector's induced apply panic (always `false` outside the
/// fault harness).
pub(crate) fn apply_request_to(
    session: &mut SynthesisSession,
    corpus: &mut Corpus,
    key_of_table: &mut HashMap<u64, TableId>,
    request: &DeltaRequest,
    sabotage: bool,
) -> Result<(), IngestError> {
    // Key resolution — pure.
    let mut removed: Vec<TableId> = Vec::with_capacity(request.remove.len());
    for &key in &request.remove {
        let tid = *key_of_table
            .get(&key)
            .ok_or(IngestError::UnknownKey { key })?;
        removed.push(tid);
    }
    let mut patches: Vec<RowPatch> = Vec::with_capacity(request.patches.len());
    for p in &request.patches {
        let tid = *key_of_table
            .get(&p.key)
            .ok_or(IngestError::UnknownKey { key: p.key })?;
        patches.push(RowPatch {
            table: tid,
            deleted: p.deleted.clone(),
            inserted: p.inserted.clone(),
        });
    }
    let mut fresh: std::collections::HashSet<u64> = Default::default();
    for t in &request.add {
        if key_of_table.contains_key(&t.key) || !fresh.insert(t.key) {
            return Err(IngestError::DuplicateKey { key: t.key });
        }
        let rows = t.columns.first().map_or(0, |(_, vs)| vs.len());
        if t.columns.iter().any(|(_, vs)| vs.len() != rows) {
            return Err(IngestError::RaggedTable { key: t.key });
        }
    }

    // Corpus evolution, recorded for rollback.
    let len_before = corpus.len();
    let mut applied: Vec<RowPatch> = Vec::new();
    let mut failure: Option<IngestError> = None;
    for p in &patches {
        if let Err(e) = corpus.check_row_patch(p) {
            failure = Some(IngestError::Patch(e));
            break;
        }
        corpus.apply_row_patch(p);
        applied.push(p.clone());
    }
    let mut added: Vec<TableId> = Vec::with_capacity(request.add.len());
    if failure.is_none() {
        for t in &request.add {
            let d = corpus.domain(&t.domain);
            let columns: Vec<(Option<&str>, Vec<&str>)> = t
                .columns
                .iter()
                .map(|(h, vs)| {
                    (
                        h.as_deref(),
                        vs.iter().map(String::as_str).collect::<Vec<&str>>(),
                    )
                })
                .collect();
            added.push(corpus.push_table(d, columns));
        }
        let delta = CorpusDelta {
            added: added.clone(),
            removed,
            patches: applied.clone(),
        };
        if sabotage {
            fault::arm_induced_panic();
        }
        let applied_result = session.apply_delta(corpus, &delta);
        // A validation-rejected sabotaged delta never reaches the
        // fire point; don't let the arm leak onto the next delta.
        fault::disarm();
        match applied_result {
            Ok(_) => {
                for (t, tid) in request.add.iter().zip(added) {
                    key_of_table.insert(t.key, tid);
                }
                for key in &request.remove {
                    key_of_table.remove(key);
                }
                return Ok(());
            }
            Err(e) => failure = Some(IngestError::Delta(e)),
        }
    }

    // Rollback: drop appended tables, invert applied patches.
    corpus.truncate_tables(len_before);
    for p in applied.iter().rev() {
        let inverse = RowPatch {
            table: p.table,
            deleted: p.inserted.clone(),
            inserted: p.deleted.clone(),
        };
        corpus.apply_row_patch(&inverse);
    }
    Err(failure.unwrap_or(IngestError::DuplicateKey { key: u64::MAX }))
}

/// Reclaim tombstones and densely renumber, keeping the key map in
/// lockstep: compaction preserves the relative order of live tables,
/// so the k-th smallest live id becomes `TableId(k)`. Shared by the
/// ingestion worker and WAL replay.
pub(crate) fn compact_with_keys(
    session: &mut SynthesisSession,
    corpus: &mut Corpus,
    key_of_table: &mut HashMap<u64, TableId>,
) {
    *corpus = session.compact(corpus);
    let mut entries: Vec<(u64, TableId)> = key_of_table.drain().collect();
    entries.sort_by_key(|&(_, tid)| tid.0);
    debug_assert_eq!(
        entries.len(),
        corpus.len(),
        "key map must cover exactly the live tables"
    );
    for (k, (key, _)) in entries.into_iter().enumerate() {
        key_of_table.insert(key, TableId(k as u32));
    }
}
