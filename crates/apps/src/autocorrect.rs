//! Auto-correction (paper §1, Table 3).
//!
//! A column mixing representations — full state names with postal
//! abbreviations — is detected by finding a mapping whose left *and*
//! right values both appear in the column; the minority side is
//! corrected to the majority side through the mapping.

use mapsynth_serve::IndexSnapshot;
use mapsynth_text::normalize;

/// One suggested correction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Correction {
    /// Row index in the input column.
    pub row: usize,
    /// The inconsistent value as given.
    pub from: String,
    /// The suggested replacement (majority representation).
    pub to: String,
}

/// Detect mixed representations in `column` and suggest corrections.
///
/// Returns `None` when no indexed mapping exhibits a meaningful mix
/// (at least `min_side` values on each side).
pub fn autocorrect(
    store: &IndexSnapshot,
    column: &[&str],
    min_side: usize,
) -> Option<Vec<Correction>> {
    let normalized: Vec<String> = column.iter().map(|v| normalize(v)).collect();
    // Candidate mappings by containment.
    let ranked = store.rank_by_containment(column);
    for (mi, _count) in ranked {
        let (l, r, _none) = store.coverage(mi, &normalized);
        if l < min_side || r < min_side {
            continue; // not mixed under this mapping
        }
        // Correct toward the majority side.
        let to_left = l >= r;
        let mut out = Vec::new();
        for (row, v) in normalized.iter().enumerate() {
            if to_left {
                // minority values are rights → replace with their left.
                if !store.contains_left(mi, v) {
                    if let Some(left) = store.reverse(mi, v).first() {
                        out.push(Correction {
                            row,
                            from: column[row].to_string(),
                            to: left.clone(),
                        });
                    }
                }
            } else if !store.contains_right(mi, v) {
                if let Some(right) = store.forward(mi, v) {
                    out.push(Correction {
                        row,
                        from: column[row].to_string(),
                        to: right.to_string(),
                    });
                }
            }
        }
        if !out.is_empty() {
            return Some(out);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth_serve::SnapshotBuilder;

    fn index() -> IndexSnapshot {
        let mut b = SnapshotBuilder::new();
        b.add_raw(
            Some("state->abbr".into()),
            &[
                ("California".into(), "CA".into()),
                ("Washington".into(), "WA".into()),
                ("Oregon".into(), "OR".into()),
                ("Texas".into(), "TX".into()),
            ],
        );
        b.build()
    }

    #[test]
    fn paper_table_3_scenario() {
        // Residence State column with mixed full names and
        // abbreviations (paper Table 3).
        let idx = index();
        let column = ["California", "Washington", "Oregon", "CA", "WA"];
        let fixes = autocorrect(&idx, &column, 2).expect("mix detected");
        assert_eq!(
            fixes,
            vec![
                Correction {
                    row: 3,
                    from: "CA".into(),
                    to: "california".into()
                },
                Correction {
                    row: 4,
                    from: "WA".into(),
                    to: "washington".into()
                },
            ]
        );
    }

    #[test]
    fn corrects_toward_majority_side() {
        let idx = index();
        // Majority abbreviations → full names become the errors.
        let column = ["CA", "WA", "OR", "Texas"];
        let fixes = autocorrect(&idx, &column, 1).expect("mix detected");
        assert_eq!(fixes.len(), 1);
        assert_eq!(fixes[0].from, "Texas");
        assert_eq!(fixes[0].to, "tx");
    }

    #[test]
    fn consistent_column_is_clean() {
        let idx = index();
        let column = ["California", "Washington", "Oregon"];
        assert!(autocorrect(&idx, &column, 1).is_none());
    }

    #[test]
    fn unknown_values_ignored() {
        let idx = index();
        let column = ["banana", "apple", "pear"];
        assert!(autocorrect(&idx, &column, 1).is_none());
    }
}
