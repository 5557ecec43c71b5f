//! # mapsynth-apps
//!
//! The applications that motivate mapping synthesis (paper §1):
//!
//! * [`autocorrect`](mod@autocorrect) — detect and fix mixed representations in a
//!   column (paper Table 3: full state names mixed with abbreviations);
//! * [`autofill`](mod@autofill) — complete a column from a few example pairs (paper
//!   Table 4);
//! * [`autojoin`](mod@autojoin) — join two tables whose key columns use different
//!   representations through a bridge mapping (paper Table 5).
//!
//! All three read one index, [`mapsynth_serve::IndexSnapshot`] —
//! synthesized mappings materialized behind hash maps and Bloom
//! filters ("one could index synthesized mapping tables using
//! hash-based techniques (e.g., bloom filters) for efficient lookup
//! based on value containment"). A local index is
//! `SnapshotBuilder::from_synthesized(&mappings).build()`; under
//! traffic the same code reads the versioned snapshot handle a
//! [`mapsynth_serve::MappingService`] serves.

pub mod autocorrect;
pub mod autofill;
pub mod autojoin;

pub use autocorrect::{autocorrect, Correction};
pub use autofill::{autofill, FillResult};
pub use autojoin::{autojoin, JoinResult};
