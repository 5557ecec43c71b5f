//! Streaming access to a table corpus.
//!
//! The batch pipeline materializes every [`Table`] of a [`Corpus`] in
//! memory before extraction starts. At web scale (the paper's 100M-table
//! setting, our 30k-table bench tier) the raw tables dominate peak
//! memory even though extraction only ever looks at one table at a
//! time. A [`TableSource`] decouples *production* of tables from their
//! *consumption*: extraction pulls tables one by one (or in small
//! batches for parallelism), accumulates its per-table statistics
//! incrementally, and lets each raw table be dropped as soon as it has
//! been scanned. Only the shared [`Interner`] — whose size tracks the
//! number of *distinct* strings, which saturates long before the table
//! count does — is retained across the whole pass.
//!
//! Extraction needs two passes (one to build the value index and
//! co-occurrence statistics, one to enumerate candidate pairs), so a
//! source must be [`rewind`](TableSource::rewind)-able: after a rewind
//! it re-yields the *identical* table sequence, with identical
//! [`Sym`](crate::Sym) assignments (the interner is append-only and
//! deduplicating, so re-interning the same strings is a no-op).

use crate::intern::Interner;
use crate::table::{Corpus, Table};

/// A rewindable, bounded-memory producer of corpus tables.
///
/// Implementations own the [`Interner`] that resolves the `Sym`s in the
/// tables they yield. Table ids must be dense and ascending:
/// `TableId(0), TableId(1), …` in yield order, identical on every pass.
pub trait TableSource {
    /// Total number of tables this source will yield per pass. Known up
    /// front so consumers can size per-table accumulators without
    /// buffering the tables themselves.
    fn table_count(&self) -> usize;

    /// The interner resolving symbols in yielded tables. Grows as
    /// tables are produced; symbols already yielded stay valid.
    fn interner(&self) -> &Interner;

    /// Names of provenance domains, indexed by `DomainId`. Like the
    /// interner this may still be growing while tables are produced.
    fn domain_names(&self) -> &[String];

    /// Produce the next table, or `None` at end of pass.
    fn next_table(&mut self) -> Option<Table>;

    /// Reset to the start. The next pass must yield the same tables
    /// (ids, domains, symbols) as the previous one.
    fn rewind(&mut self);

    /// Feed the rest of the pass to `f` in batches of up to `max`
    /// tables, each with the interner that resolves its symbols. The
    /// default pulls owned batches table by table; a source whose
    /// tables are already resident lends them instead of cloning.
    fn for_each_batch(&mut self, max: usize, mut f: impl FnMut(&Interner, &[Table]))
    where
        Self: Sized,
    {
        let max = max.max(1);
        loop {
            let mut batch = Vec::with_capacity(max.min(64));
            while batch.len() < max {
                match self.next_table() {
                    Some(t) => batch.push(t),
                    None => break,
                }
            }
            if batch.is_empty() {
                break;
            }
            f(self.interner(), &batch);
        }
    }

    /// Drain the source into a materialized [`Corpus`].
    ///
    /// The interner and domain names are cloned at end of pass, so the
    /// resulting corpus is self-contained and bit-identical to what a
    /// batch producer would have built.
    fn collect_corpus(&mut self) -> Corpus
    where
        Self: Sized,
    {
        let mut tables = Vec::with_capacity(self.table_count());
        while let Some(t) = self.next_table() {
            tables.push(t);
        }
        let mut interner = Interner::with_capacity(self.interner().len());
        for (_, s) in self.interner().iter() {
            interner.intern(s);
        }
        Corpus {
            interner,
            tables,
            domain_names: self.domain_names().to_vec(),
        }
    }
}

/// Adapter presenting an existing in-memory [`Corpus`] as a
/// [`TableSource`]. Batch consumers
/// ([`for_each_batch`](TableSource::for_each_batch)) borrow the
/// corpus's tables in place; [`next_table`](TableSource::next_table)
/// clones on demand.
///
/// This exists so every consumer can be written once against
/// [`TableSource`] and still accept a materialized corpus; the memory
/// win comes from sources that generate or parse tables on the fly
/// (e.g. the web-corpus generator's streaming mode).
pub struct CorpusStream<'a> {
    corpus: &'a Corpus,
    next: usize,
}

impl<'a> CorpusStream<'a> {
    /// Stream over `corpus` from the first table.
    pub fn new(corpus: &'a Corpus) -> Self {
        Self { corpus, next: 0 }
    }
}

impl TableSource for CorpusStream<'_> {
    fn table_count(&self) -> usize {
        self.corpus.tables.len()
    }

    fn interner(&self) -> &Interner {
        &self.corpus.interner
    }

    fn domain_names(&self) -> &[String] {
        &self.corpus.domain_names
    }

    fn next_table(&mut self) -> Option<Table> {
        let t = self.corpus.tables.get(self.next)?.clone();
        self.next += 1;
        Some(t)
    }

    fn rewind(&mut self) {
        self.next = 0;
    }

    fn for_each_batch(&mut self, max: usize, mut f: impl FnMut(&Interner, &[Table])) {
        let corpus = self.corpus;
        for batch in corpus.tables[self.next..].chunks(max.max(1)) {
            f(&corpus.interner, batch);
        }
        self.next = corpus.tables.len();
    }
}

impl Corpus {
    /// A streaming view over this corpus's tables.
    pub fn stream(&self) -> CorpusStream<'_> {
        CorpusStream::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Corpus {
        let mut c = Corpus::new();
        let d = c.domain("a.org");
        c.push_table(d, vec![(Some("x"), vec!["1", "2"])]);
        let d2 = c.domain("b.org");
        c.push_table(d2, vec![(None, vec!["3"])]);
        c.push_table(d, vec![(Some("y"), vec!["4", "5", "6"])]);
        c
    }

    #[test]
    fn stream_yields_all_tables_in_order() {
        let c = sample();
        let mut s = c.stream();
        assert_eq!(s.table_count(), 3);
        let mut ids = Vec::new();
        while let Some(t) = s.next_table() {
            ids.push(t.id.0);
        }
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(s.next_table().is_none());
    }

    #[test]
    fn rewind_replays_identically() {
        let c = sample();
        let mut s = c.stream();
        let first: Vec<Table> = std::iter::from_fn(|| s.next_table()).collect();
        s.rewind();
        let second: Vec<Table> = std::iter::from_fn(|| s.next_table()).collect();
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.columns.len(), b.columns.len());
            for (ca, cb) in a.columns.iter().zip(&b.columns) {
                assert_eq!(ca.header, cb.header);
                assert_eq!(ca.values, cb.values);
            }
        }
    }

    /// Borrowed batches chunk the rest of the pass — from wherever the
    /// cursor stands — and terminate it.
    #[test]
    fn for_each_batch_chunks_and_terminates() {
        let c = sample();
        let mut s = c.stream();
        s.next_table();
        let mut lent: Vec<Vec<u32>> = Vec::new();
        s.for_each_batch(1, |strs, batch| {
            assert_eq!(strs.len(), c.interner.len());
            lent.push(batch.iter().map(|t| t.id.0).collect());
        });
        assert_eq!(lent, vec![vec![1], vec![2]]);
        assert!(s.next_table().is_none());
        s.rewind();
        let mut all = Vec::new();
        s.for_each_batch(10, |_, batch| all.extend(batch.iter().map(|t| t.id.0)));
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn collect_corpus_roundtrips() {
        let c = sample();
        let mut s = c.stream();
        let out = s.collect_corpus();
        assert_eq!(out.len(), c.len());
        assert_eq!(out.domain_names, c.domain_names);
        assert_eq!(out.interner.len(), c.interner.len());
        for (a, b) in c.tables.iter().zip(&out.tables) {
            assert_eq!(a.id, b.id);
            for (ca, cb) in a.columns.iter().zip(&b.columns) {
                assert_eq!(ca.values, cb.values);
            }
        }
    }
}
