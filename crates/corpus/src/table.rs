//! Tables, columns and the corpus container.
//!
//! A [`Corpus`] is the paper's only input (Definition 3): a set of
//! relational tables, each a list of columns. Tables carry provenance —
//! the web domain (or spreadsheet share) they were extracted from —
//! because the curation step (paper §4.3) ranks synthesized mappings by
//! the number of *independent* domains that contributed to them.

use crate::intern::{Interner, Sym};
use std::fmt;

/// Identifier of a table within its corpus.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TableId(pub u32);

/// Identifier of a provenance domain (web site / spreadsheet share).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct DomainId(pub u32);

/// A single table column: an optional header plus the cell values in
/// row order. Values are interned [`Sym`]s.
#[derive(Clone, Debug)]
pub struct Column {
    /// Column header, if the source table had one. Headers on the web
    /// are frequently undescriptive ("name", "code") — the paper's
    /// motivation for value-based rather than name-based synthesis.
    pub header: Option<Sym>,
    /// Cell values in row order.
    pub values: Vec<Sym>,
}

impl Column {
    /// Build a column from a header and values.
    pub fn new(header: Option<Sym>, values: Vec<Sym>) -> Self {
        Self { header, values }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Distinct values, in first-occurrence order.
    pub fn distinct(&self) -> Vec<Sym> {
        let mut seen = std::collections::HashSet::with_capacity(self.values.len());
        let mut out = Vec::new();
        for &v in &self.values {
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

/// A relational table: columns of equal length, plus provenance.
#[derive(Clone, Debug)]
pub struct Table {
    /// Identifier within the corpus.
    pub id: TableId,
    /// The web domain / share this table came from.
    pub domain: DomainId,
    /// Columns. All columns have the same number of rows.
    pub columns: Vec<Column>,
}

impl Table {
    /// Number of rows (0 for a table with no columns).
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }
}

/// A row-granular edit to one table: delete some existing rows and
/// append some new ones, leaving the table (and its id) in place.
///
/// Rows are full string tuples in column order. Deletions match by
/// value — the first row whose cells all equal the tuple is removed —
/// because external change feeds (re-crawls, spreadsheet diffs) carry
/// values, not row offsets. Deletions are applied before insertions.
#[derive(Clone, Debug)]
pub struct RowPatch {
    /// The table to edit. Must exist (and, when applied through an
    /// incremental session, must be live).
    pub table: TableId,
    /// Rows to remove, as full-width string tuples. Each must match an
    /// existing row.
    pub deleted: Vec<Vec<String>>,
    /// Rows to append, as full-width string tuples.
    pub inserted: Vec<Vec<String>>,
}

/// Why a [`RowPatch`] cannot apply to a corpus — the non-mutating
/// verdict of [`Corpus::check_row_patch`], for ingestion paths that
/// must reject bad patches instead of panicking mid-stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RowPatchError {
    /// The patch names a table the corpus does not hold.
    UnknownTable {
        /// The offending id.
        table: TableId,
    },
    /// A tuple's width differs from the table's.
    WidthMismatch {
        /// The targeted table.
        table: TableId,
        /// The tuple width found in the patch.
        width: usize,
        /// The table's actual width.
        expected: usize,
    },
    /// A deleted tuple (counted with multiplicity) matches fewer rows
    /// than the patch deletes.
    MissingRow {
        /// The targeted table.
        table: TableId,
        /// The unmatched tuple.
        row: Vec<String>,
    },
}

impl fmt::Display for RowPatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowPatchError::UnknownTable { table } => {
                write!(f, "row patch targets unknown table {table:?}")
            }
            RowPatchError::WidthMismatch {
                table,
                width,
                expected,
            } => write!(
                f,
                "row patch tuple width {width} != table {table:?} width {expected}"
            ),
            RowPatchError::MissingRow { table, row } => {
                write!(f, "deleted row {row:?} not present in table {table:?}")
            }
        }
    }
}

impl std::error::Error for RowPatchError {}

/// A corpus of tables plus the interner that owns their cell strings.
pub struct Corpus {
    /// String interner for every cell and header in the corpus.
    pub interner: Interner,
    /// All tables.
    pub tables: Vec<Table>,
    /// Human-readable names of provenance domains, indexed by
    /// [`DomainId`].
    pub domain_names: Vec<String>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self {
            interner: Interner::new(),
            tables: Vec::new(),
            domain_names: Vec::new(),
        }
    }

    /// Register (or look up) a provenance domain by name.
    pub fn domain(&mut self, name: &str) -> DomainId {
        if let Some(pos) = self.domain_names.iter().position(|d| d == name) {
            return DomainId(pos as u32);
        }
        self.domain_names.push(name.to_string());
        DomainId((self.domain_names.len() - 1) as u32)
    }

    /// Append a table built from string cells. Columns must be the same
    /// length.
    ///
    /// # Panics
    /// Panics if columns have unequal lengths.
    pub fn push_table(
        &mut self,
        domain: DomainId,
        columns: Vec<(Option<&str>, Vec<&str>)>,
    ) -> TableId {
        let rows = columns.first().map_or(0, |(_, v)| v.len());
        assert!(
            columns.iter().all(|(_, v)| v.len() == rows),
            "all columns in a table must have equal length"
        );
        let cols = columns
            .into_iter()
            .map(|(h, vals)| {
                let header = h.map(|h| self.interner.intern(h));
                let values = vals.iter().map(|v| self.interner.intern(v)).collect();
                Column::new(header, values)
            })
            .collect();
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Table {
            id,
            domain,
            columns: cols,
        });
        id
    }

    /// Append a pre-interned table. Used by generators that intern
    /// strings themselves for efficiency.
    pub fn push_interned_table(&mut self, domain: DomainId, columns: Vec<Column>) -> TableId {
        let rows = columns.first().map_or(0, Column::len);
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "all columns in a table must have equal length"
        );
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Table {
            id,
            domain,
            columns,
        });
        id
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the corpus holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total number of columns across all tables (the `N` of the PMI
    /// probabilities in paper Equation 1).
    pub fn total_columns(&self) -> usize {
        self.tables.iter().map(Table::width).sum()
    }

    /// Look up a table.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    /// A fresh corpus holding only the tables `keep` accepts, in the
    /// original order, re-interned from scratch (table ids are
    /// renumbered densely; domain names are re-registered on first
    /// use).
    ///
    /// This is the *reference* semantics of a table-removal delta: the
    /// corpus that a batch run would have seen had the removed tables
    /// never existed. [`crate::Corpus`] itself is append-only — the
    /// incremental path (`mapsynth::delta`) tombstones instead of
    /// rebuilding — so this constructor exists for oracles, benchmarks
    /// and fallback rebuilds that need the post-delta corpus as a
    /// first-class value.
    pub fn subset(&self, keep: impl Fn(TableId) -> bool) -> Corpus {
        let mut out = Corpus::new();
        for table in &self.tables {
            if !keep(table.id) {
                continue;
            }
            let domain = out.domain(&self.domain_names[table.domain.0 as usize]);
            let columns = table
                .columns
                .iter()
                .map(|c| {
                    Column::new(
                        c.header.map(|h| out.interner.intern(self.str_of(h))),
                        c.values
                            .iter()
                            .map(|&v| out.interner.intern(self.str_of(v)))
                            .collect(),
                    )
                })
                .collect();
            out.push_interned_table(domain, columns);
        }
        out
    }

    /// A corpus holding only the tables `keep` accepts, in the
    /// original order with densely renumbered table ids, *sharing*
    /// this corpus' interner: every `Sym` stays valid, so caches keyed
    /// by symbol (extraction state, postings) survive the rebuild.
    /// Compaction uses this; strings referenced only by dropped tables
    /// stay interned (full string reclamation is [`subset`]'s job —
    /// `Sym`s are append-only by contract).
    ///
    /// [`subset`]: Self::subset
    pub fn retain_interned(&self, keep: impl Fn(TableId) -> bool) -> Corpus {
        let mut tables: Vec<Table> = Vec::new();
        for table in &self.tables {
            if !keep(table.id) {
                continue;
            }
            let mut t = table.clone();
            t.id = TableId(tables.len() as u32);
            tables.push(t);
        }
        Corpus {
            interner: self.interner.clone(),
            tables,
            domain_names: self.domain_names.clone(),
        }
    }

    /// Apply a [`RowPatch`] in place: delete each `deleted` tuple (first
    /// matching row, by value) and append each `inserted` tuple,
    /// interning any new strings. Call this *before*
    /// `session.apply_delta` so the session sees the post-patch corpus,
    /// mirroring how added tables are pushed before the delta is
    /// applied.
    ///
    /// Validate a [`RowPatch`] against the current corpus **without
    /// mutating anything**: the table must exist, every tuple must
    /// match the table's width, and each deleted tuple (counted with
    /// multiplicity) must match at least that many current rows. `Ok`
    /// guarantees [`apply_row_patch`](Self::apply_row_patch) cannot
    /// panic on this patch — the transactional entry point for
    /// ingestion paths fed caller-controlled patches.
    pub fn check_row_patch(&self, patch: &RowPatch) -> Result<(), RowPatchError> {
        if (patch.table.0 as usize) >= self.tables.len() {
            return Err(RowPatchError::UnknownTable { table: patch.table });
        }
        let table = &self.tables[patch.table.0 as usize];
        let expected = table.width();
        for row in patch.deleted.iter().chain(&patch.inserted) {
            if row.len() != expected {
                return Err(RowPatchError::WidthMismatch {
                    table: patch.table,
                    width: row.len(),
                    expected,
                });
            }
        }
        // Deletions consume rows one at a time, so a tuple deleted
        // twice needs two matching rows: compare multiplicities.
        let mut demand: std::collections::HashMap<&Vec<String>, usize> = Default::default();
        for row in &patch.deleted {
            *demand.entry(row).or_insert(0) += 1;
        }
        for (row, need) in demand {
            // A tuple containing a never-interned string cannot match
            // any row.
            let syms: Option<Vec<Sym>> = row.iter().map(|s| self.interner.get(s)).collect();
            let have = match syms {
                None => 0,
                Some(syms) => (0..table.rows())
                    .filter(|&ri| {
                        table
                            .columns
                            .iter()
                            .zip(&syms)
                            .all(|(c, &s)| c.values[ri] == s)
                    })
                    .count(),
            };
            if have < need {
                return Err(RowPatchError::MissingRow {
                    table: patch.table,
                    row: row.clone(),
                });
            }
        }
        Ok(())
    }

    /// Drop every table past `len`, undoing a run of
    /// [`push_table`](Self::push_table) calls — the corpus half of a
    /// transactional rollback when a delta is rejected after its added
    /// tables were appended. Interned strings stay (symbols are
    /// append-only and harmless when dormant); the caller re-applies
    /// inverse row patches separately.
    ///
    /// # Panics
    /// Panics if `len` exceeds the current table count.
    pub fn truncate_tables(&mut self, len: usize) {
        assert!(
            len <= self.tables.len(),
            "truncate_tables({len}) on a corpus of {}",
            self.tables.len()
        );
        self.tables.truncate(len);
    }

    /// # Panics
    /// Panics if the table does not exist, a tuple's width differs from
    /// the table's, or a deleted tuple matches no remaining row
    /// (validate first with [`check_row_patch`](Self::check_row_patch)
    /// when the patch is not trusted).
    pub fn apply_row_patch(&mut self, patch: &RowPatch) {
        assert!(
            (patch.table.0 as usize) < self.tables.len(),
            "row patch targets unknown table {:?}",
            patch.table
        );
        let width = self.tables[patch.table.0 as usize].width();
        for row in &patch.deleted {
            assert_eq!(
                row.len(),
                width,
                "deleted row width {} != table width {width}",
                row.len()
            );
            // A tuple containing a never-interned string cannot match
            // any row.
            let syms: Option<Vec<Sym>> = row.iter().map(|s| self.interner.get(s)).collect();
            let table = &mut self.tables[patch.table.0 as usize];
            let at = syms.and_then(|syms| {
                (0..table.rows()).find(|&ri| {
                    table
                        .columns
                        .iter()
                        .zip(&syms)
                        .all(|(c, &s)| c.values[ri] == s)
                })
            });
            let at = at.unwrap_or_else(|| {
                panic!("deleted row {row:?} not present in table {:?}", patch.table)
            });
            for c in &mut table.columns {
                c.values.remove(at);
            }
        }
        for row in &patch.inserted {
            assert_eq!(
                row.len(),
                width,
                "inserted row width {} != table width {width}",
                row.len()
            );
            let syms: Vec<Sym> = row.iter().map(|s| self.interner.intern(s)).collect();
            let table = &mut self.tables[patch.table.0 as usize];
            for (c, s) in table.columns.iter_mut().zip(syms) {
                c.values.push(s);
            }
        }
    }

    /// Resolve a symbol to its string.
    pub fn str_of(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }
}

impl Default for Corpus {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Corpus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Corpus")
            .field("tables", &self.tables.len())
            .field("domains", &self.domain_names.len())
            .field("distinct_strings", &self.interner.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Corpus {
        let mut c = Corpus::new();
        let d = c.domain("example.org");
        c.push_table(
            d,
            vec![
                (Some("Country"), vec!["United States", "Canada", "Japan"]),
                (Some("Code"), vec!["USA", "CAN", "JPN"]),
            ],
        );
        c
    }

    #[test]
    fn push_and_lookup() {
        let c = sample();
        assert_eq!(c.len(), 1);
        let t = c.table(TableId(0));
        assert_eq!(t.rows(), 3);
        assert_eq!(t.width(), 2);
        assert_eq!(c.str_of(t.columns[0].values[1]), "Canada");
        assert_eq!(c.str_of(t.columns[1].header.unwrap()), "Code");
    }

    #[test]
    fn domain_dedup() {
        let mut c = Corpus::new();
        let a = c.domain("a.com");
        let b = c.domain("b.com");
        let a2 = c.domain("a.com");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.domain_names.len(), 2);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_table_rejected() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        c.push_table(d, vec![(None, vec!["a", "b"]), (None, vec!["c"])]);
    }

    #[test]
    fn distinct_preserves_order() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        c.push_table(d, vec![(None, vec!["b", "a", "b", "c", "a"])]);
        let col = &c.table(TableId(0)).columns[0];
        let names: Vec<&str> = col.distinct().iter().map(|&s| c.str_of(s)).collect();
        assert_eq!(names, vec!["b", "a", "c"]);
    }

    #[test]
    fn total_columns_counts_all_tables() {
        let mut c = sample();
        let d = c.domain("second.org");
        c.push_table(
            d,
            vec![(None, vec!["x"]), (None, vec!["y"]), (None, vec!["z"])],
        );
        assert_eq!(c.total_columns(), 5);
    }

    fn rows(rows: &[(&str, &str)]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|&(l, r)| vec![l.to_string(), r.to_string()])
            .collect()
    }

    #[test]
    fn check_row_patch_verdicts() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        let t = c.push_table(
            d,
            vec![
                (Some("l"), vec!["a", "b", "a"]),
                (Some("r"), vec!["1", "2", "1"]),
            ],
        );

        // Valid: duplicate tuple deleted twice (two matching rows).
        let ok = RowPatch {
            table: t,
            deleted: rows(&[("a", "1"), ("a", "1")]),
            inserted: rows(&[("c", "3")]),
        };
        assert_eq!(c.check_row_patch(&ok), Ok(()));

        // Same tuple deleted three times: only two rows match.
        let over = RowPatch {
            table: t,
            deleted: rows(&[("a", "1"), ("a", "1"), ("a", "1")]),
            inserted: vec![],
        };
        assert_eq!(
            c.check_row_patch(&over),
            Err(RowPatchError::MissingRow {
                table: t,
                row: vec!["a".to_string(), "1".to_string()]
            })
        );

        // Never-interned string: no row can match.
        let ghost = RowPatch {
            table: t,
            deleted: rows(&[("zzz", "1")]),
            inserted: vec![],
        };
        assert!(matches!(
            c.check_row_patch(&ghost),
            Err(RowPatchError::MissingRow { .. })
        ));

        let wide = RowPatch {
            table: t,
            deleted: vec![],
            inserted: vec![vec!["only-one".to_string()]],
        };
        assert_eq!(
            c.check_row_patch(&wide),
            Err(RowPatchError::WidthMismatch {
                table: t,
                width: 1,
                expected: 2
            })
        );

        let missing_table = RowPatch {
            table: TableId(99),
            deleted: vec![],
            inserted: rows(&[("c", "3")]),
        };
        assert_eq!(
            c.check_row_patch(&missing_table),
            Err(RowPatchError::UnknownTable { table: TableId(99) })
        );

        // Ok implies apply cannot panic.
        c.apply_row_patch(&ok);
        assert_eq!(c.table(t).rows(), 2);
    }

    #[test]
    fn truncate_tables_undoes_pushes() {
        let mut c = Corpus::new();
        let d = c.domain("x");
        c.push_table(d, vec![(None, vec!["a"])]);
        let before = c.len();
        c.push_table(d, vec![(None, vec!["b"])]);
        c.push_table(d, vec![(None, vec!["c"])]);
        c.truncate_tables(before);
        assert_eq!(c.len(), before);
        // Interned strings stay; re-pushing re-uses them.
        let t = c.push_table(d, vec![(None, vec!["b"])]);
        assert_eq!(c.table(t).id, TableId(1));
    }
}
