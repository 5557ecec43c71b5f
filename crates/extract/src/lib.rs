//! # mapsynth-extract
//!
//! Step 1 of the pipeline (paper §3, Algorithm 1): extract candidate
//! two-column tables from the corpus.
//!
//! From each table `T = {C1 … Cn}` all `2·C(n,2)` ordered column pairs
//! are candidates, but most are useless. Two filters prune them:
//!
//! 1. **PMI column filter** (§3.1) — drop columns whose values rarely
//!    co-occur elsewhere in the corpus (mis-extracted or mixed-content
//!    columns like Table 7's "Location");
//! 2. **approximate-FD filter** (§3.2) — keep only ordered pairs whose
//!    left column functionally determines the right on ≥ θ of rows
//!    (θ = 0.95, tolerating name ambiguity like Portland → Oregon /
//!    Maine).
//!
//! The paper reports ~78% of candidates pruned at this stage; the
//! [`ExtractionStats`] returned alongside the candidates exposes the
//! same measurement.
//!
//! ```
//! use mapsynth_corpus::Corpus;
//! use mapsynth_extract::{extract_candidates, ExtractionConfig};
//! use mapsynth_mapreduce::MapReduce;
//!
//! let mut corpus = Corpus::new();
//! for i in 0..4 {
//!     let d = corpus.domain(&format!("site-{i}.org"));
//!     corpus.push_table(d, vec![
//!         (Some("country"), vec!["United States", "Canada", "Japan", "Germany", "France"]),
//!         (Some("code"), vec!["USA", "CAN", "JPN", "DEU", "FRA"]),
//!     ]);
//! }
//! let (candidates, stats) =
//!     extract_candidates(&corpus, &ExtractionConfig::default(), &MapReduce::new(2));
//! assert_eq!(stats.tables, 4);
//! assert!(!candidates.is_empty());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod extract;
pub mod filters;

pub use extract::{
    extract_candidates, extract_candidates_streaming, ExtractionCache, ExtractionConfig,
    ExtractionDelta, ExtractionStats,
};
pub use filters::{approx_fd_holds, column_passes, numeric_fraction, FdCheck};
