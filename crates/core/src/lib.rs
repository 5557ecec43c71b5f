//! # mapsynth
//!
//! A from-scratch implementation of **"Synthesizing Mapping
//! Relationships Using Table Corpus"** (Wang & He, SIGMOD 2017).
//!
//! Mapping tables — two-column tables where the left column
//! functionally determines the right, like `(country, country-code)` or
//! `(company, stock-ticker)` — power auto-correction, auto-fill and
//! auto-join. This crate synthesizes them from a heterogeneous table
//! corpus in three steps (paper Figure 1):
//!
//! 1. **Candidate extraction** (via [`mapsynth_extract`]) — ordered
//!    column pairs filtered by PMI coherence and approximate FD;
//! 2. **Table synthesis** — a compatibility graph over candidates with
//!    positive max-containment weights ([`compat`], Eq. 3) and negative
//!    FD-conflict weights (Eq. 4), partitioned by a greedy agglomerative
//!    algorithm ([`partition`], Algorithm 3) that never merges across a
//!    hard conflict; the exact solvers for the paper's complexity
//!    trichotomy live in [`exact`];
//! 3. **Conflict resolution** ([`conflict`], Algorithm 4) — remove the
//!    fewest tables so the unioned mapping has no internal conflicts.
//!
//! # The staged engine
//!
//! The synthesis engine is **staged**: a [`session::SynthesisSession`]
//! holds each stage's output — extracted candidates, the interned
//! [`values::ValueSpace`] with its [`values::NormBinary`] projections,
//! scored candidate pairs, and per-variant [`graph::CompatGraph`] /
//! [`partition::Partitioning`] — as a first-class, reusable artifact
//! with its own wall-clock timing. Sweeping a threshold or comparing
//! conflict [`pipeline::Resolver`]s re-runs only the cheap tail, not
//! extraction or scoring; [`session::SynthesisSession::run`] is the
//! one-shot entry. Corpora evolve without re-preparing: a
//! [`delta::CorpusDelta`] (tables appended + tables retired) re-enters
//! the pipeline at blocking via
//! [`session::SynthesisSession::apply_delta`], bit-identical to a
//! fresh session on the post-delta corpus.
//!
//! Synthesized mappings carry **interned** `(NormId, NormId)` pairs
//! plus a shared handle to the value space
//! ([`synth::SynthesizedMapping`]); strings are materialized only at
//! application boundaries. One such boundary is the **serving
//! handoff**: `mapsynth-serve`'s `SnapshotBuilder::from_synthesized`
//! reads a run's mappings through
//! [`synth::SynthesizedMapping::pair_strs`] (pairs are already
//! normalized, so snapshot construction skips re-normalization) and
//! publishes them as an immutable, versioned lookup snapshot.
//!
//! ```
//! use mapsynth::pipeline::{PipelineConfig, Resolver, SynthesisSession};
//! use mapsynth::SynthesisConfig;
//! use mapsynth_corpus::Corpus;
//!
//! let mut corpus = Corpus::new();
//! let d = corpus.domain("example.com");
//! for _ in 0..4 {
//!     corpus.push_table(d, vec![
//!         (Some("name"), vec!["United States", "Canada", "Japan", "Germany", "France"]),
//!         (Some("code"), vec!["USA", "CAN", "JPN", "DEU", "FRA"]),
//!     ]);
//! }
//!
//! // Stages 1–3 (extraction, value space, blocking + scoring) run once.
//! let mut session = SynthesisSession::new(PipelineConfig::default());
//! session.prepare(&corpus);
//! let base = session.config().synthesis;
//!
//! // Many variants reuse those artifacts: here, two resolvers and a
//! // θ_edge sweep, all without re-extracting or re-scoring.
//! let strict = session.synthesize(&base, Resolver::Algorithm4);
//! let raw = session.synthesize(&base, Resolver::None);
//! let loose = session.synthesize(&SynthesisConfig { theta_edge: 0.5, ..base }, Resolver::Algorithm4);
//! assert!(loose.edges >= strict.edges);
//! assert_eq!(strict.mappings.len(), raw.mappings.len());
//!
//! // Both orientations are synthesized (name→code and code→name);
//! // pairs materialize to strings only at this boundary.
//! assert!(strict.mappings.iter().any(|m| m.contains_pair("united states", "usa")));
//!
//! // One-shot: prepare (cached here) + synthesize with the base config.
//! let output = session.run(&corpus);
//! assert_eq!(output.mappings.len(), strict.mappings.len());
//! ```

pub mod approx;
pub mod blocking;
pub mod compat;
pub mod config;
pub mod conflict;
pub mod curate;
pub mod delta;
pub mod exact;
pub mod expand;
pub mod graph;
pub mod partition;
pub mod pipeline;
pub mod session;
pub mod synth;
pub mod values;

pub use approx::{ApproxMemo, ApproxMemoStats};
pub use compat::{MatchCounts, PairWeights, ScoringContext};
pub use config::SynthesisConfig;
pub use conflict::{resolve_conflicts, resolve_majority_vote, ConflictStats};
pub use delta::{
    CorpusDelta, DeltaError, DeltaReport, DeltaTimings, PortableDelta, PortablePatch, PortableTable,
};
pub use graph::{CompatGraph, EdgeWeights};
pub use partition::{greedy_partition, Partitioning};
pub use pipeline::{PipelineConfig, PipelineOutput, Resolver, StageTimings};
pub use session::{
    ExtractionArtifact, ScoreArtifact, ScoringDetail, SessionRun, SynthesisSession, ValueArtifact,
};
pub use synth::SynthesizedMapping;
pub use values::{NormBinary, NormId, ValueSpace};
