//! Column and column-pair filters.

use mapsynth_corpus::{Column, Interner, Sym};
use mapsynth_text::normalize;
use std::collections::HashMap;

/// Result of an approximate-FD check on one ordered column pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FdCheck {
    /// Fraction of rows in the largest FD-consistent subset
    /// (the `θ` of Definition 2 this pair achieves).
    pub support: f64,
    /// Number of distinct left values.
    pub distinct_left: usize,
    /// Total rows considered (after dropping empty cells).
    pub rows: usize,
}

/// Approximate functional dependency check (paper Definition 2 applied
/// locally, §3.2): `left →θ right` holds if keeping, for every left
/// value, only its majority right value retains at least `θ` of rows.
///
/// Values are compared on their normalized forms so that cosmetic
/// variation ("CA" vs "ca") does not manufacture violations.
///
/// This is the two-column entry point: it normalizes both columns per
/// call. Extraction instead normalizes each table's kept columns once
/// (`norm_ids`) and runs `fd_check` on the ids for every ordered
/// pair, so timing this function per pair overstates what the FD filter
/// costs extraction.
pub fn approx_fd_holds(
    strs: &Interner,
    left: &Column,
    right: &Column,
    theta: f64,
) -> (bool, FdCheck) {
    debug_assert_eq!(left.len(), right.len());
    let ids = norm_ids(strs, &[left, right]);
    fd_check(&ids[0], &ids[1], theta, &mut Vec::new())
}

/// The id [`norm_ids`] gives a cell that normalizes to "".
pub(crate) const EMPTY: u32 = u32::MAX;

/// The cells of `cols` as dense ids of their normalized forms: equal
/// ids iff equal normalized strings, [`EMPTY`] for a cell that
/// normalizes to "". Each distinct symbol is normalized once, however
/// many columns and rows carry it.
pub(crate) fn norm_ids(strs: &Interner, cols: &[&Column]) -> Vec<Vec<u32>> {
    let mut of_sym: HashMap<Sym, u32> = HashMap::new();
    let mut of_norm: HashMap<String, u32> = HashMap::new();
    let mut id_of = |s: Sym| {
        *of_sym.entry(s).or_insert_with(|| {
            let norm = normalize(strs.resolve(s));
            if norm.is_empty() {
                return EMPTY;
            }
            let next = of_norm.len() as u32;
            *of_norm.entry(norm).or_insert(next)
        })
    };
    cols.iter()
        .map(|col| col.values.iter().map(|&s| id_of(s)).collect())
        .collect()
}

/// The FD check of [`approx_fd_holds`] over [`norm_ids`] output: rows
/// with an [`EMPTY`] side are dropped, the `(left, right)` id pairs
/// sorted (in `buf`, reused across calls), and each left id keeps its
/// longest run of equal right ids. The counts — and so the `f64`
/// support — equal the string-keyed check's exactly.
pub(crate) fn fd_check(
    left: &[u32],
    right: &[u32],
    theta: f64,
    buf: &mut Vec<(u32, u32)>,
) -> (bool, FdCheck) {
    buf.clear();
    buf.extend(
        left.iter()
            .zip(right)
            .filter(|&(&l, &r)| l != EMPTY && r != EMPTY)
            .map(|(&l, &r)| (l, r)),
    );
    let rows = buf.len();
    if rows == 0 {
        return (
            false,
            FdCheck {
                support: 0.0,
                distinct_left: 0,
                rows: 0,
            },
        );
    }
    buf.sort_unstable();
    let (mut kept, mut distinct_left) = (0usize, 0usize);
    for group in buf.chunk_by(|a, b| a.0 == b.0) {
        distinct_left += 1;
        kept += group
            .chunk_by(|a, b| a.1 == b.1)
            .map(<[_]>::len)
            .max()
            .unwrap_or(0);
    }
    let support = kept as f64 / rows as f64;
    let check = FdCheck {
        support,
        distinct_left,
        rows,
    };
    (support >= theta, check)
}

/// The string-keyed FD check the id kernel replaced, kept as the oracle
/// it is tested against.
#[cfg(test)]
fn approx_fd_holds_oracle(
    strs: &Interner,
    left: &Column,
    right: &Column,
    theta: f64,
) -> (bool, FdCheck) {
    debug_assert_eq!(left.len(), right.len());
    // norm cache: Sym → normalized string (shared across both columns).
    let mut norm_cache: HashMap<Sym, String> = HashMap::new();
    let mut norm = |s: Sym, strs: &Interner| -> String {
        norm_cache
            .entry(s)
            .or_insert_with(|| normalize(strs.resolve(s)))
            .clone()
    };

    // group: left → (right → count)
    let mut groups: HashMap<String, HashMap<String, usize>> = HashMap::new();
    let mut rows = 0usize;
    for (&l, &r) in left.values.iter().zip(&right.values) {
        let ln = norm(l, strs);
        let rn = norm(r, strs);
        if ln.is_empty() || rn.is_empty() {
            continue;
        }
        rows += 1;
        *groups.entry(ln).or_default().entry(rn).or_default() += 1;
    }
    if rows == 0 {
        return (
            false,
            FdCheck {
                support: 0.0,
                distinct_left: 0,
                rows: 0,
            },
        );
    }
    let kept: usize = groups
        .values()
        .map(|rights| rights.values().copied().max().unwrap_or(0))
        .sum();
    let support = kept as f64 / rows as f64;
    let check = FdCheck {
        support,
        distinct_left: groups.len(),
        rows,
    };
    (support >= theta, check)
}

/// Fraction of values in a column that are short numerics. Used for
/// the paper's "additional filtering ... to further prune out numeric
/// and temporal relationships" (§4.3).
pub fn numeric_fraction(strs: &Interner, col: &Column) -> f64 {
    if col.is_empty() {
        return 0.0;
    }
    let numeric = col
        .values
        .iter()
        .filter(|&&v| {
            let s = strs.resolve(v).trim();
            !s.is_empty() && s.len() <= 9 && s.chars().all(|c| c.is_ascii_digit())
        })
        .count();
    numeric as f64 / col.len() as f64
}

/// Structural sanity checks for a candidate column: enough distinct
/// values, not dominated by one value, values not overly long.
pub fn column_passes(
    strs: &Interner,
    col: &Column,
    min_distinct: usize,
    max_avg_len: usize,
) -> bool {
    passes_with_distinct(strs, col, col.distinct().len(), min_distinct, max_avg_len)
}

/// [`column_passes`] for a caller that already holds the column's
/// distinct-value count.
pub(crate) fn passes_with_distinct(
    strs: &Interner,
    col: &Column,
    distinct: usize,
    min_distinct: usize,
    max_avg_len: usize,
) -> bool {
    if distinct < min_distinct {
        return false;
    }
    let total_len: usize = col.values.iter().map(|&v| strs.resolve(v).len()).sum();
    total_len / col.len().max(1) <= max_avg_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth_corpus::{Corpus, TableId};

    fn corpus_with(cols: Vec<(Option<&str>, Vec<&str>)>) -> Corpus {
        let mut c = Corpus::new();
        let d = c.domain("t");
        c.push_table(d, cols);
        c
    }

    #[test]
    fn exact_fd_holds() {
        let c = corpus_with(vec![
            (None, vec!["a", "b", "c", "a"]),
            (None, vec!["1", "2", "3", "1"]),
        ]);
        let t = c.table(TableId(0));
        let (ok, chk) = approx_fd_holds(&c.interner, &t.columns[0], &t.columns[1], 0.95);
        assert!(ok);
        assert_eq!(chk.support, 1.0);
        assert_eq!(chk.distinct_left, 3);
    }

    #[test]
    fn violation_fails_strictly_but_passes_approximately() {
        // 19 consistent rows + 1 violation → support 0.95.
        let mut lefts = vec!["x"; 19];
        lefts.push("a");
        let mut rights = vec!["1"; 19];
        rights.push("2");
        // make 'a' map consistently, violation via duplicate 'x'.
        let mut lefts2 = lefts.clone();
        lefts2[0] = "x";
        let mut rights2 = rights.clone();
        rights2[0] = "9"; // x → 9 once, x → 1 eighteen times
        let c = corpus_with(vec![(None, lefts2), (None, rights2)]);
        let t = c.table(TableId(0));
        let (ok95, chk) = approx_fd_holds(&c.interner, &t.columns[0], &t.columns[1], 0.95);
        assert!(ok95, "support {}", chk.support);
        let (ok99, _) = approx_fd_holds(&c.interner, &t.columns[0], &t.columns[1], 0.99);
        assert!(!ok99);
    }

    #[test]
    fn portland_ambiguity_tolerated() {
        // city→state with one ambiguous duplicate out of 20 rows.
        let mut cities = vec![
            "Chicago", "Houston", "Seattle", "Denver", "Boston", "Miami", "Austin", "Dallas",
            "Phoenix", "Atlanta", "Detroit", "Memphis", "Tucson", "Omaha", "Tampa", "Raleigh",
            "Spokane", "Boise", "Portland",
        ];
        let mut states = vec![
            "Illinois",
            "Texas",
            "Washington",
            "Colorado",
            "Massachusetts",
            "Florida",
            "Texas",
            "Texas",
            "Arizona",
            "Georgia",
            "Michigan",
            "Tennessee",
            "Arizona",
            "Nebraska",
            "Florida",
            "North Carolina",
            "Washington",
            "Idaho",
            "Oregon",
        ];
        cities.push("Portland");
        states.push("Maine");
        let c = corpus_with(vec![(None, cities), (None, states)]);
        let t = c.table(TableId(0));
        let (ok, chk) = approx_fd_holds(&c.interner, &t.columns[0], &t.columns[1], 0.95);
        assert!(ok, "support {}", chk.support);
    }

    #[test]
    fn normalization_prevents_fake_violations() {
        let c = corpus_with(vec![
            (None, vec!["California", "CALIFORNIA", "california"]),
            (None, vec!["CA", "ca", "CA"]),
        ]);
        let t = c.table(TableId(0));
        let (ok, chk) = approx_fd_holds(&c.interner, &t.columns[0], &t.columns[1], 1.0);
        assert!(ok);
        assert_eq!(chk.distinct_left, 1);
    }

    #[test]
    fn non_functional_pair_rejected() {
        // home team → date: many-to-many.
        let c = corpus_with(vec![
            (None, vec!["Bears", "Bears", "Lions", "Lions"]),
            (None, vec!["10-12", "10-19", "10-12", "10-26"]),
        ]);
        let t = c.table(TableId(0));
        let (ok, chk) = approx_fd_holds(&c.interner, &t.columns[0], &t.columns[1], 0.95);
        assert!(!ok);
        assert!(chk.support < 0.8);
    }

    #[test]
    fn numeric_fraction_detects_rank_columns() {
        let c = corpus_with(vec![
            (None, vec!["1", "2", "3", "4"]),
            (None, vec!["alpha", "beta", "gamma", "delta"]),
        ]);
        let t = c.table(TableId(0));
        assert_eq!(numeric_fraction(&c.interner, &t.columns[0]), 1.0);
        assert_eq!(numeric_fraction(&c.interner, &t.columns[1]), 0.0);
    }

    #[test]
    fn column_passes_rejects_constant_and_long() {
        let c = corpus_with(vec![
            (None, vec!["same", "same", "same"]),
            (
                None,
                vec![
                    "this is a very long free text cell that goes on and on and on and on and on",
                    "another very long blob of mixed prose that is not a value at all, really",
                    "yet another excessively long sentence标 that should be rejected by length",
                ],
            ),
            (None, vec!["a", "b", "c"]),
        ]);
        let t = c.table(TableId(0));
        assert!(!column_passes(&c.interner, &t.columns[0], 3, 50));
        assert!(!column_passes(&c.interner, &t.columns[1], 3, 50));
        assert!(column_passes(&c.interner, &t.columns[2], 3, 50));
    }

    /// Base cells: two that normalize to "" and four that do not.
    const BASES: [&str; 6] = ["Portland", "Maine", "CA", "new  york", "", "[1]"];

    /// A cosmetic variant of `base` that normalizes like it.
    fn variant(base: &str, v: u8) -> String {
        match v {
            0 => base.to_string(),
            1 => base.to_uppercase(),
            2 => format!("{base}."),
            3 => format!(" {}[2] ", base.to_lowercase()),
            _ => format!("*{base}*"),
        }
    }

    proptest::proptest! {
        /// The id kernel over per-table ids equals the string-keyed
        /// oracle on every field, the `f64` support bit for bit, for
        /// columns mixing case and punctuation variants, duplicate rows
        /// and cells that normalize to "" — with one id space shared by
        /// three columns, as extraction builds it.
        #[test]
        fn prop_fd_check_matches_oracle(
            rows in proptest::collection::vec((0usize..6, 0u8..5, 0usize..6, 0u8..5), 0..40),
            dups in 0usize..20,
            theta in 0.5f64..1.0,
        ) {
            let mut rows = rows;
            for k in 0..dups.min(rows.len()) {
                rows.push(rows[k * 7 % rows.len()]);
            }
            let cell = |(b, v): (usize, u8)| variant(BASES[b], v);
            let left: Vec<String> = rows.iter().map(|&(lb, lv, _, _)| cell((lb, lv))).collect();
            let right: Vec<String> = rows.iter().map(|&(_, _, rb, rv)| cell((rb, rv))).collect();
            let other: Vec<String> = rows.iter().map(|&(lb, _, rb, _)| cell(((lb + rb) % 6, 0))).collect();
            let c = corpus_with(
                [&left, &right, &other]
                    .map(|col| (None, col.iter().map(String::as_str).collect()))
                    .to_vec(),
            );
            let cols = &c.table(TableId(0)).columns;
            let ids = norm_ids(&c.interner, &[&cols[0], &cols[1], &cols[2]]);
            let mut buf = Vec::new();
            for (l, r) in [(0, 1), (1, 0), (0, 2), (2, 1)] {
                let (ok, got) = fd_check(&ids[l], &ids[r], theta, &mut buf);
                let (want_ok, want) = approx_fd_holds_oracle(&c.interner, &cols[l], &cols[r], theta);
                proptest::prop_assert_eq!(ok, want_ok);
                proptest::prop_assert_eq!(got.support.to_bits(), want.support.to_bits());
                proptest::prop_assert_eq!(got.distinct_left, want.distinct_left);
                proptest::prop_assert_eq!(got.rows, want.rows);
                proptest::prop_assert_eq!(approx_fd_holds(&c.interner, &cols[l], &cols[r], theta), (want_ok, want));
            }
        }
    }
}
