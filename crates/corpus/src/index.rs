//! Inverted index from values to the corpus columns containing them.
//!
//! This is the `C(u)` of paper §3.1: the set of columns that contain
//! value `u`. Column sets are stored as sorted vectors of
//! [`GlobalColId`], so co-occurrence counts `|C(u) ∩ C(v)|` reduce to a
//! linear sorted-set intersection.

use crate::intern::Sym;
use crate::sketch::{PostingSketch, SKETCH_MIN_LEN};
use crate::stats::HotTier;
use crate::table::Corpus;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Global identifier of a column: dense index over all columns in the
/// corpus in `(table, column)` order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GlobalColId(pub u32);

/// Inverted index: value symbol → sorted list of columns containing it.
///
/// A value is counted at most once per column (set semantics), matching
/// the paper's definition of `C(u)`.
#[derive(Clone)]
pub struct ValueIndex {
    /// postings[sym.index()] = sorted column ids containing that value.
    postings: Vec<Vec<GlobalColId>>,
    /// Constant-size overlap sketch per posting list, maintained only
    /// once a list reaches [`SKETCH_MIN_LEN`] (short lists are cheaper
    /// to probe than to summarize). [`crate::stats`] resolves a
    /// coherence pair from a sketch only when its lower and upper
    /// bounds meet, so a sketch must always describe its list exactly:
    /// additions extend it append-only, removals rebuild it (a dropped
    /// gid could have been a stored bucket minimum).
    sketches: Vec<Option<Box<PostingSketch>>>,
    total_columns: usize,
    /// Dense membership rows of the hot posting lists, built by the
    /// first coherence call (whichever worker gets there first) and
    /// dropped by every mutation, so it always mirrors the postings.
    /// Clones share it until one of them mutates.
    hot: OnceLock<Arc<HotTier>>,
}

impl ValueIndex {
    /// An index with no columns. Streaming construction starts here
    /// and registers columns with [`add_column`](Self::add_column) in
    /// ascending gid order; the result is identical to
    /// [`build`](Self::build) over the same columns.
    pub fn empty() -> Self {
        Self {
            postings: Vec::new(),
            sketches: Vec::new(),
            total_columns: 0,
            hot: OnceLock::new(),
        }
    }

    /// Build the index over an entire corpus.
    pub fn build(corpus: &Corpus) -> Self {
        let mut postings: Vec<Vec<GlobalColId>> = vec![Vec::new(); corpus.interner.len()];
        let mut total = 0usize;
        for column in corpus.tables.iter().flat_map(|t| &t.columns) {
            let gid = GlobalColId(total as u32);
            total += 1;
            let mut seen: HashSet<Sym> = HashSet::with_capacity(column.values.len());
            for &v in &column.values {
                if seen.insert(v) {
                    postings[v.index()].push(gid);
                }
            }
        }
        // Postings are produced in ascending column order already, but
        // sort defensively so intersection invariants cannot silently
        // break if construction order changes.
        for p in &mut postings {
            debug_assert!(p.windows(2).all(|w| w[0] < w[1]));
            p.sort_unstable();
        }
        let sketches = postings.iter().map(|p| sketch_of(p)).collect();
        Self {
            postings,
            sketches,
            total_columns: total,
            hot: OnceLock::new(),
        }
    }

    /// `|C(u)|`: the number of columns containing `u`. Zero for symbols
    /// that only appear as headers.
    #[inline]
    pub fn column_count(&self, u: Sym) -> usize {
        self.postings.get(u.index()).map_or(0, Vec::len)
    }

    /// The sorted postings list for `u`.
    pub fn columns(&self, u: Sym) -> &[GlobalColId] {
        self.postings.get(u.index()).map_or(&[], Vec::as_slice)
    }

    /// `|C(u) ∩ C(v)|`: number of columns containing both values.
    pub fn cooccurrence(&self, u: Sym, v: Sym) -> usize {
        intersection_len(self.columns(u), self.columns(v))
    }

    /// The overlap sketch of `u`'s posting list, when the list is long
    /// enough to carry one (see [`SKETCH_MIN_LEN`]).
    #[inline]
    pub fn sketch(&self, u: Sym) -> Option<&PostingSketch> {
        self.sketches.get(u.index()).and_then(|s| s.as_deref())
    }

    /// The hot tier over the current postings (see [`HotTier`]), built
    /// on first use.
    pub fn hot_tier(&self) -> &HotTier {
        self.hot.get_or_init(|| Arc::new(HotTier::build(self)))
    }

    /// Every posting list, indexed by symbol.
    pub(crate) fn posting_lists(&self) -> &[Vec<GlobalColId>] {
        &self.postings
    }

    /// Install `tier` in place of the one [`hot_tier`](Self::hot_tier)
    /// would build, so tests can lower the hot threshold.
    #[cfg(test)]
    pub(crate) fn install_hot_tier(&mut self, tier: HotTier) {
        self.hot = OnceLock::from(Arc::new(tier));
    }

    /// Whether a hot tier is currently built.
    #[cfg(test)]
    pub(crate) fn has_hot_tier(&self) -> bool {
        self.hot.get().is_some()
    }

    /// Total number of columns contributing evidence (the `N` of
    /// Equation 1). After incremental updates this counts *live*
    /// columns only — removed columns no longer contribute.
    pub fn total_columns(&self) -> usize {
        self.total_columns
    }

    /// Grow the posting table to cover symbols up to `interner_len`
    /// (new tables intern new cell strings; their postings start
    /// empty).
    pub fn grow_symbols(&mut self, interner_len: usize) {
        if self.postings.len() < interner_len {
            self.postings.resize(interner_len, Vec::new());
            self.sketches.resize(interner_len, None);
        }
    }

    /// Register a new column's distinct values under `gid`.
    ///
    /// Incremental-update contract: `gid` must be larger than every
    /// column id currently in the index (fresh columns are appended
    /// after the corpus' existing ones), which keeps every posting
    /// list sorted by a plain push.
    pub fn add_column<I: IntoIterator<Item = Sym>>(&mut self, gid: GlobalColId, distinct: I) {
        self.hot.take();
        for v in distinct {
            self.grow_symbols(v.index() + 1);
            let p = &mut self.postings[v.index()];
            debug_assert!(p.last().is_none_or(|&last| last < gid));
            p.push(gid);
            // Append-only sketch maintenance: extend an existing
            // sketch in place, or start one when the list crosses the
            // threshold.
            match &mut self.sketches[v.index()] {
                Some(s) => s.insert(gid),
                slot => *slot = sketch_of(p),
            }
        }
        self.total_columns += 1;
    }

    /// Patch one registered column's evidence in place: `leaving`
    /// values no longer appear in the column, `entering` values now do.
    /// Unlike [`add_column`](Self::add_column), the column keeps its
    /// (possibly mid-range) `gid`, so entering postings are inserted at
    /// their sorted position rather than pushed. The column count is
    /// unchanged — only value membership moved.
    pub fn patch_column(
        &mut self,
        gid: GlobalColId,
        leaving: impl IntoIterator<Item = Sym>,
        entering: impl IntoIterator<Item = Sym>,
    ) {
        self.hot.take();
        for v in leaving {
            let p = &mut self.postings[v.index()];
            let at = p
                .binary_search(&gid)
                .expect("patch_column: column was not registered for this value");
            p.remove(at);
            // The removed gid may have been a stored bucket minimum:
            // rebuild (or drop) the sketch from the surviving list.
            self.sketches[v.index()] = sketch_of(p);
        }
        for v in entering {
            self.grow_symbols(v.index() + 1);
            let p = &mut self.postings[v.index()];
            let at = p
                .binary_search(&gid)
                .expect_err("patch_column: column already registered for this value");
            p.insert(at, gid);
            match &mut self.sketches[v.index()] {
                Some(s) => s.insert(gid),
                slot => *slot = sketch_of(p),
            }
        }
    }

    /// Remove a column's evidence. `distinct` must be the same distinct
    /// value set the column was registered with.
    pub fn remove_column<I: IntoIterator<Item = Sym>>(&mut self, gid: GlobalColId, distinct: I) {
        self.hot.take();
        for v in distinct {
            let p = &mut self.postings[v.index()];
            let at = p
                .binary_search(&gid)
                .expect("remove_column: column was not registered for this value");
            p.remove(at);
            self.sketches[v.index()] = sketch_of(p);
        }
        self.total_columns -= 1;
    }
}

/// The sketch a posting list should carry: one iff the list is long
/// enough to be worth summarizing. The single policy point shared by
/// batch builds and incremental maintenance, so an incrementally grown
/// index always matches a fresh build.
fn sketch_of(postings: &[GlobalColId]) -> Option<Box<PostingSketch>> {
    (postings.len() >= SKETCH_MIN_LEN).then(|| Box::new(PostingSketch::of(postings)))
}

/// Length of the intersection of two sorted, duplicate-free slices, by
/// plain merge. Not on extraction's hot path: it serves
/// [`ValueIndex::cooccurrence`], i.e. the pairwise
/// `CooccurrenceStats::gather*` entry points and the probe oracle the
/// coherence funnel in [`crate::stats`] is tested against, so it stays
/// the simplest thing to verify.
fn intersection_len(a: &[GlobalColId], b: &[GlobalColId]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Corpus;

    fn corpus() -> Corpus {
        let mut c = Corpus::new();
        let d = c.domain("t.org");
        // col0: {USA, Canada}, col1: {1,2}
        c.push_table(
            d,
            vec![(None, vec!["USA", "Canada"]), (None, vec!["1", "2"])],
        );
        // col2: {USA, Mexico}
        c.push_table(d, vec![(None, vec!["USA", "Mexico", "USA"])]);
        // col3: {Canada}
        c.push_table(d, vec![(None, vec!["Canada"])]);
        c
    }

    #[test]
    fn counts_and_cooccurrence() {
        let c = corpus();
        let idx = ValueIndex::build(&c);
        let usa = c.interner.get("USA").unwrap();
        let can = c.interner.get("Canada").unwrap();
        let mex = c.interner.get("Mexico").unwrap();
        assert_eq!(idx.total_columns(), 4);
        assert_eq!(idx.column_count(usa), 2); // col0, col2 (dup inside col2 counted once)
        assert_eq!(idx.column_count(can), 2); // col0, col3
        assert_eq!(idx.column_count(mex), 1);
        assert_eq!(idx.cooccurrence(usa, can), 1); // only col0
        assert_eq!(idx.cooccurrence(usa, mex), 1); // col2
        assert_eq!(idx.cooccurrence(can, mex), 0);
    }

    /// Incremental sketch maintenance (append, patch, remove) must
    /// land on exactly the sketches a fresh build over the same
    /// postings produces — the invariant that keeps sketch-resolved
    /// coherence pairs exact under deltas.
    #[test]
    fn sketches_track_postings_through_mutation() {
        let mut c = Corpus::new();
        let d = c.domain("t.org");
        // Enough repetition that some values cross SKETCH_MIN_LEN.
        for i in 0..12 {
            let extra = format!("only-{i}");
            c.push_table(d, vec![(None, vec!["USA", "Canada", extra.as_str()])]);
        }
        let mut idx = ValueIndex::build(&c);
        let usa = c.interner.get("USA").unwrap();
        let can = c.interner.get("Canada").unwrap();
        let fresh = PostingSketch::of(idx.columns(usa));
        assert_eq!(
            idx.sketch(usa),
            Some(&fresh),
            "12-column list must be sketched"
        );

        // Remove a mid-range column, patch another, append a new one.
        idx.remove_column(
            GlobalColId(3),
            [usa, can, c.interner.get("only-3").unwrap()],
        );
        idx.patch_column(GlobalColId(5), [usa], [c.interner.get("only-0").unwrap()]);
        idx.add_column(GlobalColId(12), [usa, can]);

        for v in [usa, can, c.interner.get("only-0").unwrap()] {
            let expect = if idx.column_count(v) >= SKETCH_MIN_LEN {
                Some(PostingSketch::of(idx.columns(v)))
            } else {
                None
            };
            assert_eq!(
                idx.sketch(v),
                expect.as_ref(),
                "sketch out of sync for {:?}",
                c.str_of(v)
            );
        }
    }

    #[test]
    fn intersection_len_basics() {
        let a: Vec<GlobalColId> = [1u32, 3, 5, 7].iter().map(|&x| GlobalColId(x)).collect();
        let b: Vec<GlobalColId> = [2u32, 3, 7, 9].iter().map(|&x| GlobalColId(x)).collect();
        assert_eq!(intersection_len(&a, &b), 2);
        assert_eq!(intersection_len(&a, &[]), 0);
        assert_eq!(intersection_len(&a, &a), 4);
    }
}
