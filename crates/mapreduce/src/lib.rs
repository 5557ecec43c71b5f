//! # mapsynth-mapreduce
//!
//! The execution substrate standing in for the paper's production
//! Map-Reduce cluster (§2.2, §5.1 "Computing Environment"). The paper
//! runs blocking (inverted-index re-grouping) and connected components
//! (Hash-to-Min, Appendix F) as Map-Reduce jobs; in process, every
//! stage is a parallel map over in-memory records:
//!
//! * [`engine::MapReduce`] — [`MapReduce::par_map`], an input-ordered
//!   parallel map on std scoped threads whose workers pull blocks off a
//!   shared cursor, so uneven inputs balance;
//! * [`engine::IdHasher`] / [`IdHashMap`] — the deterministic cheap
//!   hasher for in-process maps keyed by interned ids (blocking's
//!   posting and pair-count maps), beside the FNV-1a [`partition_of`]
//!   that the key-sharded builds partition by;
//! * [`cc`] — connected components via union-find;
//! * [`unionfind::UnionFind`] — disjoint sets with union by rank and
//!   path compression (Hopcroft-Ullman, paper reference \[25\]), used by
//!   the iterative partitioner.
//!
//! A map's output is in input order for any worker count, not in
//! thread-arrival order:
//!
//! ```
//! use mapsynth_mapreduce::MapReduce;
//!
//! let docs = ["to be or not to be", "be that as it may"];
//! let words = |doc: &&str| doc.split_whitespace().count();
//! let counts = MapReduce::new(2).par_map(&docs, words);
//! assert_eq!(counts, vec![6, 5]);
//! assert_eq!(counts, MapReduce::new(7).par_map(&docs, words));
//! ```

pub mod cc;
pub mod engine;
pub mod unionfind;

pub use cc::connected_components_union_find;
pub use engine::{partition_of, IdHashMap, IdHasher, MapReduce};
pub use unionfind::UnionFind;
