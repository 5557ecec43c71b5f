//! # mapsynth-mapreduce
//!
//! The execution substrate standing in for the paper's production
//! Map-Reduce cluster (§2.2, §5.1 "Computing Environment"). The
//! synthesis pipeline was designed as Map-Reduce jobs — inverted-index
//! re-grouping for blocking, Hash-to-Min for connected components
//! (Appendix F) — and this crate provides the same programming model
//! in-process:
//!
//! * [`engine::MapReduce`] — a deterministic parallel map → shuffle →
//!   reduce over in-memory collections, built on std scoped threads,
//!   plus [`MapReduce::par_map`]: an input-ordered parallel map whose
//!   workers pull blocks off a shared cursor, so uneven inputs balance;
//! * [`engine::IdHasher`] / [`IdHashMap`] — the deterministic cheap
//!   hasher for in-process maps keyed by interned ids (blocking's
//!   posting and pair-count maps), beside the FNV-1a [`partition_of`];
//! * [`cc`] — connected components via Hash-to-Min rounds
//!   (Chitnis et al., paper reference \[13\]) and via union-find;
//! * [`unionfind::UnionFind`] — disjoint sets with union by rank and
//!   path compression (Hopcroft-Ullman, paper reference \[25\]), used by
//!   the iterative partitioner.
//!
//! The engine is deterministic for any worker count — the shuffle
//! orders reducer inputs by mapper emission order, not thread arrival:
//!
//! ```
//! use mapsynth_mapreduce::MapReduce;
//!
//! let mr = MapReduce::new(2);
//! let docs = ["to be or not to be", "be that as it may"];
//! let counts = mr.run(
//!     &docs,
//!     |doc| doc.split_whitespace().map(|w| (w, 1u32)).collect(),
//!     |_word, ones| ones.len() as u32,
//! );
//! assert!(counts.contains(&("be", 3)));
//! assert_eq!(counts, MapReduce::new(7).run(
//!     &docs,
//!     |doc| doc.split_whitespace().map(|w| (w, 1u32)).collect(),
//!     |_word, ones| ones.len() as u32,
//! ));
//! ```

pub mod cc;
pub mod engine;
pub mod unionfind;

pub use cc::{connected_components_hash_to_min, connected_components_union_find};
pub use engine::{partition_of, IdHashMap, IdHasher, MapReduce};
pub use unionfind::UnionFind;
