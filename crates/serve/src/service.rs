//! The atomic snapshot-swap handle: publish, rollback, versioning.
//!
//! [`MappingService`] is the long-lived object applications hold. It
//! owns the *current* [`IndexSnapshot`] behind an
//! `RwLock<Arc<IndexSnapshot>>`; readers take the read lock only long
//! enough to clone the `Arc` — never across a lookup — so a lookup
//! storm proceeds on a private handle while a background publisher
//! installs the next version under the write lock. Version ids are
//! assigned monotonically at publish time; a bounded history of
//! superseded snapshots supports [`rollback`](MappingService::rollback)
//! to the previously served version without a rebuild.
//!
//! ```text
//!  synthesis session ──► SnapshotBuilder ──► IndexSnapshot (v=N)
//!                                                  │ publish()
//!            readers ──► snapshot() ──► Arc ◄── RwLock<Arc<..>>
//!            (lock held only to clone)             │ rollback()
//!                                          history: [v=N-1, N-2, …]
//! ```

use crate::snapshot::{mapping_content_hash, IndexSnapshot};
use mapsynth::SynthesizedMapping;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Superseded snapshots retained for rollback.
pub const HISTORY_DEPTH: usize = 4;

// Lock poisoning recovery: every critical section in this module
// either performs a single atomic assignment (`Arc` swap / clone) or
// mutates the history `Vec` with operations that cannot leave it
// half-updated from the reader's point of view, so a thread that
// panicked while holding a lock cannot have left torn data behind.
// Recovering (instead of propagating the poison) is what lets readers
// keep serving the last good snapshot after a publisher thread dies —
// the graceful-degradation contract of the ingestion path.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn mutex_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What an incremental publish
/// ([`MappingService::publish_delta`]) did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaPublishStats {
    /// Mappings appended under fresh ids.
    pub added: usize,
    /// Mapping ids retired.
    pub removed: usize,
    /// Mappings kept verbatim (id, meta and shard entries untouched).
    pub unchanged: usize,
    /// Shards rebuilt for this version.
    pub rebuilt_shards: usize,
    /// Total shards (rebuilt + shared with the previous version).
    pub total_shards: usize,
}

/// A concurrent, versioned serving handle over mapping snapshots.
///
/// Cheap to share (`Arc<MappingService>`); all methods take `&self`.
pub struct MappingService {
    current: RwLock<Arc<IndexSnapshot>>,
    /// Most-recent-last stack of superseded snapshots.
    history: Mutex<Vec<Arc<IndexSnapshot>>>,
    /// Next version id to assign (published ids start at 1).
    next_version: AtomicU64,
}

impl Default for MappingService {
    fn default() -> Self {
        Self::new()
    }
}

impl MappingService {
    /// A service with an empty version-0 snapshot installed.
    pub fn new() -> Self {
        Self {
            current: RwLock::new(Arc::new(IndexSnapshot::empty())),
            history: Mutex::new(Vec::new()),
            next_version: AtomicU64::new(1),
        }
    }

    /// The currently served snapshot. The internal read lock is held
    /// only for the `Arc` clone — callers then run any number of
    /// lookups against the returned handle without blocking (or being
    /// blocked by) publishers. A handle stays fully valid even after
    /// its version is superseded.
    pub fn snapshot(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&read_lock(&self.current))
    }

    /// Version id of the currently served snapshot.
    pub fn version(&self) -> u64 {
        self.snapshot().version()
    }

    /// Atomically install `snapshot` as the served version, stamping
    /// it with the next monotonically increasing version id (returned).
    /// The superseded snapshot is retained for [`rollback`](Self::rollback)
    /// (up to [`HISTORY_DEPTH`] deep); in-flight readers on old handles
    /// are unaffected.
    pub fn publish(&self, mut snapshot: IndexSnapshot) -> u64 {
        // Take the history lock before assigning the version and hold
        // it across the swap: concurrent publishers serialize on it,
        // so install order always matches version order and readers
        // never see the served version move backwards.
        let mut history = mutex_lock(&self.history);
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        snapshot.version = version;
        let next = Arc::new(snapshot);
        {
            let mut current = write_lock(&self.current);
            history.push(std::mem::replace(&mut *current, next));
        }
        if history.len() > HISTORY_DEPTH {
            history.remove(0);
        }
        version
    }

    /// Publish `mappings` as the next version **incrementally**: diff
    /// against the currently served snapshot by content (normalized
    /// pairs + provenance stats), retire mappings that disappeared,
    /// append the new ones, and rebuild only the shards their values
    /// hash into — untouched shards are shared with the current
    /// version instead of copying all pairs
    /// ([`IndexSnapshot::apply_delta`]).
    ///
    /// Serialized against concurrent publishers exactly like
    /// [`publish`](Self::publish): the diff, the delta build and the
    /// install happen under the same lock, so the base snapshot cannot
    /// be swapped out from under the delta. Readers still only ever
    /// observe complete snapshots with monotone versions.
    ///
    /// Mapping ids stay stable across delta publishes **until a
    /// compaction**: retired id slots accumulate, and once they would
    /// outnumber the live mappings the publish densely rebuilds
    /// (renumbering ids from 0) instead of patching, keeping a long
    /// churny publish stream O(live mappings) per publish.
    pub fn publish_delta(&self, mappings: &[SynthesizedMapping]) -> (u64, DeltaPublishStats) {
        let mut history = mutex_lock(&self.history);
        let base = Arc::clone(&read_lock(&self.current));

        // Content diff: unchanged mappings keep their ids (and their
        // shard entries); duplicates are matched by multiplicity.
        let mut by_hash: HashMap<u64, Vec<u32>> = HashMap::new();
        for (mi, h) in base.live_hashes() {
            by_hash.entry(h).or_default().push(mi);
        }
        let mut added: Vec<&SynthesizedMapping> = Vec::new();
        for m in mappings {
            match by_hash.get_mut(&mapping_content_hash(m)) {
                Some(ids) if !ids.is_empty() => {
                    ids.pop();
                }
                _ => added.push(m),
            }
        }
        let removed: Vec<u32> = {
            let mut r: Vec<u32> = by_hash.into_values().flatten().collect();
            r.sort_unstable();
            r
        };
        let stats = DeltaPublishStats {
            added: added.len(),
            removed: removed.len(),
            unchanged: mappings.len() - added.len(),
            total_shards: base.shard_count(),
            rebuilt_shards: 0,
        };

        // Retired id slots accumulate across delta publishes (ids are
        // stable, so every snapshot carries every id ever assigned).
        // Once the dead slots would outnumber the live mappings, a
        // dense rebuild is both smaller and cheaper than the delta —
        // compact instead of patching, so a long churny publish stream
        // stays O(live), not O(everything ever published).
        let live_after = base.mapping_count() - removed.len() + added.len();
        let retired_after = base.total_slots() - base.mapping_count() + removed.len();
        let compact = retired_after > live_after;
        let mut snapshot = if compact {
            let mut b = crate::snapshot::SnapshotBuilder::with_shards(base.shard_count());
            for m in mappings {
                b.add_synthesized(m);
            }
            b.build()
        } else {
            base.apply_delta(&added, &removed)
        };
        let stats = DeltaPublishStats {
            rebuilt_shards: if compact {
                base.shard_count()
            } else {
                snapshot.rebuilt_shards(&base)
            },
            ..stats
        };

        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        snapshot.version = version;
        let next = Arc::new(snapshot);
        {
            let mut current = write_lock(&self.current);
            history.push(std::mem::replace(&mut *current, next));
        }
        if history.len() > HISTORY_DEPTH {
            history.remove(0);
        }
        (version, stats)
    }

    /// Install a snapshot **rebuilt by recovery**, keeping the version
    /// id it carries (the one the crashed service served) instead of
    /// stamping a fresh one. The version counter is advanced past it
    /// (monotonically — a concurrent publish can only push it
    /// further), so every later publish gets a strictly larger id than
    /// anything the crashed service ever served. Returns the installed
    /// version.
    pub fn restore(&self, snapshot: IndexSnapshot) -> u64 {
        let mut history = mutex_lock(&self.history);
        let version = snapshot.version;
        self.next_version.fetch_max(version + 1, Ordering::Relaxed);
        let next = Arc::new(snapshot);
        {
            let mut current = write_lock(&self.current);
            history.push(std::mem::replace(&mut *current, next));
        }
        if history.len() > HISTORY_DEPTH {
            history.remove(0);
        }
        version
    }

    /// Re-install the previously served snapshot (keeping its original
    /// version id), dropping the current one. Returns the reinstated
    /// version, or `None` when no history remains.
    pub fn rollback(&self) -> Option<u64> {
        let mut history = mutex_lock(&self.history);
        let prev = history.pop()?;
        let version = prev.version();
        let mut current = write_lock(&self.current);
        *current = prev;
        Some(version)
    }

    /// Versions currently available to roll back to, oldest first.
    pub fn rollback_versions(&self) -> Vec<u64> {
        mutex_lock(&self.history)
            .iter()
            .map(|s| s.version())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotBuilder;

    fn one_pair_snapshot(left: &str, right: &str) -> IndexSnapshot {
        let mut b = SnapshotBuilder::with_shards(2);
        b.add_raw(None, &[(left.to_string(), right.to_string())]);
        b.build()
    }

    #[test]
    fn starts_empty_at_version_zero() {
        let svc = MappingService::new();
        assert_eq!(svc.version(), 0);
        assert!(svc.snapshot().is_empty());
        assert!(svc.rollback().is_none());
    }

    #[test]
    fn publish_assigns_monotonic_versions() {
        let svc = MappingService::new();
        assert_eq!(svc.publish(one_pair_snapshot("a", "1")), 1);
        assert_eq!(svc.publish(one_pair_snapshot("b", "2")), 2);
        assert_eq!(svc.version(), 2);
        assert_eq!(svc.snapshot().lookup("b").unwrap().forward(0), Some("2"));
    }

    #[test]
    fn old_handles_survive_publish() {
        let svc = MappingService::new();
        svc.publish(one_pair_snapshot("a", "1"));
        let old = svc.snapshot();
        svc.publish(one_pair_snapshot("b", "2"));
        // The superseded handle still answers from its own version.
        assert_eq!(old.version(), 1);
        assert_eq!(old.lookup("a").unwrap().forward(0), Some("1"));
        assert!(old.lookup("b").is_none());
    }

    #[test]
    fn rollback_restores_previous_version() {
        let svc = MappingService::new();
        svc.publish(one_pair_snapshot("a", "1"));
        svc.publish(one_pair_snapshot("b", "2"));
        assert_eq!(svc.rollback_versions(), vec![0, 1]);
        assert_eq!(svc.rollback(), Some(1));
        assert_eq!(svc.version(), 1);
        assert!(svc.snapshot().lookup("a").is_some());
        // A fresh publish after rollback still gets a higher id than
        // anything ever published.
        assert_eq!(svc.publish(one_pair_snapshot("c", "3")), 3);
    }

    #[test]
    fn restore_keeps_archived_version_and_advances_counter() {
        let svc = MappingService::new();
        let mut snap = one_pair_snapshot("a", "1");
        snap.version = 7;
        assert_eq!(svc.restore(snap), 7);
        assert_eq!(svc.version(), 7);
        assert_eq!(svc.snapshot().lookup("a").unwrap().forward(0), Some("1"));
        // Publishes after a restore are strictly newer than the
        // archived version.
        assert_eq!(svc.publish(one_pair_snapshot("b", "2")), 8);
    }

    #[test]
    fn history_is_bounded() {
        let svc = MappingService::new();
        for i in 0..10 {
            svc.publish(one_pair_snapshot(&format!("k{i}"), "v"));
        }
        assert_eq!(svc.rollback_versions().len(), HISTORY_DEPTH);
        assert_eq!(svc.rollback_versions(), vec![6, 7, 8, 9]);
    }
}
