//! # mapsynth-serve
//!
//! The concurrent, versioned **serving layer** over synthesized
//! mappings. The paper's pitch for pre-computing mappings (§1) is that
//! applications can then *look them up fast*; this crate is that
//! lookup path — the one index the `mapsynth-apps` applications read:
//!
//! * [`snapshot::IndexSnapshot`] — an immutable index over a set of
//!   mappings, **sharded by hash of the normalized lookup key** so a
//!   lookup touches exactly one shard's Bloom filter + hash map, with
//!   per-shard hit/miss counters and batch APIs
//!   ([`lookup_many`](snapshot::IndexSnapshot::lookup_many),
//!   [`translate_column`](snapshot::IndexSnapshot::translate_column))
//!   that amortize normalization and shard dispatch, plus the
//!   per-mapping queries (coverage, side membership, forward / reverse
//!   translation) the auto-correct / auto-fill / auto-join
//!   applications are written against;
//! * [`service::MappingService`] — the atomic snapshot-swap handle:
//!   readers clone an `Arc` (no lock held across a lookup) while a
//!   background publisher installs new versions with monotonically
//!   increasing ids, and a bounded history supports rollback to the
//!   previously served version;
//! * [`bloom::BloomFilter`] — the containment prefilter.
//!
//! New synthesis sessions swap into the serving path without a
//! stop-the-world rebuild — in the spirit of answering queries under
//! updates (Berkholz et al.): build a snapshot off to the side, then
//! publish it in one atomic pointer swap.
//!
//! ```
//! use mapsynth_serve::{MappingService, SnapshotBuilder};
//!
//! let service = MappingService::new();
//! let mut builder = SnapshotBuilder::with_shards(4);
//! builder.add_raw(
//!     Some("state->abbr".into()),
//!     &[("California".into(), "CA".into()), ("Oregon".into(), "OR".into())],
//! );
//! let version = service.publish(builder.build());
//! assert_eq!(version, 1);
//!
//! // Readers hold a private snapshot handle; no lock across lookups.
//! let snap = service.snapshot();
//! let hit = snap.lookup("California").expect("served");
//! assert_eq!(hit.forward(0), Some("ca"));
//! ```

// Serving/ingestion code must degrade, not panic: every fallible path
// carries a typed error or a documented `expect` invariant. Unit tests
// (cfg(test)) are exempt; CI runs clippy on this lib with -D warnings,
// which makes this deny a hard gate.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bloom;
pub mod ingest;
pub mod persist;
pub mod service;
pub mod snapshot;

pub use bloom::BloomFilter;
pub use ingest::{
    DeltaIngestor, DeltaRequest, FaultInjector, IngestError, IngestOutcome, IngestStats,
    IngestorConfig, IngestorConfigError, NoFaults, PatchSpec, Quarantined, SpawnError, TableSpec,
};
pub use persist::{
    recover, PersistConfig, PersistError, Persistence, Recovered, ReplayReport, WalTail,
};
pub use service::{DeltaPublishStats, MappingService, HISTORY_DEPTH};
pub use snapshot::{
    ColumnTranslation, IndexSnapshot, MappingMeta, SnapshotBuilder, SnapshotStats, ValueHit,
    DEFAULT_SHARDS,
};
