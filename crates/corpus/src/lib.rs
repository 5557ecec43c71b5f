//! # mapsynth-corpus
//!
//! The table-corpus substrate for the `mapsynth` workspace: an in-memory
//! model of a heterogeneous corpus of relational tables (web tables or
//! enterprise spreadsheets), together with the statistics the synthesis
//! pipeline needs:
//!
//! * a [`Interner`] mapping cell strings to compact [`Sym`] ids,
//! * [`Table`]/[`Column`]/[`Corpus`] containers with provenance
//!   (originating web domain),
//! * a [`ValueIndex`] inverted index from values to the columns that
//!   contain them,
//! * PMI / NPMI co-occurrence statistics and column coherence scores
//!   (paper §3.1, Equations 1–2),
//! * the [`BinaryTable`] candidate type produced by extraction and
//!   consumed by synthesis.
//!
//! The corpus is the *only* input to the synthesis problem (paper
//! Definition 3): `T = {T}` where each table is a set of columns.
//!
//! ```
//! use mapsynth_corpus::Corpus;
//!
//! let mut corpus = Corpus::new();
//! let d = corpus.domain("example.org");
//! let t = corpus.push_table(d, vec![
//!     (Some("country"), vec!["United States", "Canada"]),
//!     (Some("code"), vec!["USA", "CAN"]),
//! ]);
//! assert_eq!(corpus.len(), 1);
//! assert_eq!(corpus.total_columns(), 2);
//! // Cells are interned: the table stores compact `Sym` ids.
//! let sym = corpus.table(t).columns[1].values[0];
//! assert_eq!(corpus.str_of(sym), "USA");
//! ```

// The corpus layer underpins the durable persistence formats: library
// code must degrade to typed errors, never panic, on rotten input.
// Unit tests are exempt (they assert with unwrap freely).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod binary;
pub mod index;
pub mod intern;
pub mod io;
pub mod sketch;
pub mod stats;
pub mod stream;
pub mod table;

pub use binary::{
    crc32, read_sealed, wire, BinaryId, BinaryTable, FrameError, FrameReader, FrameTail,
    FrameWriter, FRAME_VERSION, MAX_FRAME_LEN,
};
pub use index::{GlobalColId, ValueIndex};
pub use intern::{Interner, Sym};
pub use io::{load_csv_dir, load_csv_table, parse_csv};
pub use sketch::{PostingSketch, SKETCH_MIN_LEN};
pub use stats::{
    coherence_from_counts, column_coherence, column_coherence_detailed, column_coherence_excluding,
    npmi, pmi, CoherenceConfig, CoherenceDetail, CoherenceFunnel, CooccurrenceStats, HotTier,
};
pub use stream::{CorpusStream, TableSource};
pub use table::{Column, Corpus, DomainId, RowPatch, RowPatchError, Table, TableId};
