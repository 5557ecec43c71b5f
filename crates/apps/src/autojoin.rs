//! Auto-join (paper §1, Table 5).
//!
//! Two tables whose key columns use different representations — stock
//! tickers on one side, company names on the other — are joined through
//! a bridge mapping in a three-way join, without the user supplying the
//! correspondence.

use mapsynth_serve::IndexSnapshot;
use mapsynth_text::normalize;

/// Result of an auto-join.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinResult {
    /// Index of the bridge mapping used.
    pub mapping: u32,
    /// Whether the left table's keys matched the mapping's left side
    /// (`true`) or its right side (`false`).
    pub left_keys_on_left: bool,
    /// Joined row pairs `(left row, right row)`.
    pub rows: Vec<(usize, usize)>,
}

/// Join `left_keys` to `right_keys` through the best bridge mapping.
///
/// A bridge qualifies when at least `min_coverage` (fraction) of each
/// side's keys appear on opposite sides of the mapping. Returns the
/// join with the most matched rows.
pub fn autojoin(
    store: &IndexSnapshot,
    left_keys: &[&str],
    right_keys: &[&str],
    min_coverage: f64,
) -> Option<JoinResult> {
    let ln: Vec<String> = left_keys.iter().map(|k| normalize(k)).collect();
    let rn: Vec<String> = right_keys.iter().map(|k| normalize(k)).collect();

    let mut candidates: Vec<u32> = store
        .rank_by_containment(left_keys)
        .into_iter()
        .map(|(mi, _)| mi)
        .collect();
    candidates.dedup();

    let mut best: Option<JoinResult> = None;
    for mi in candidates {
        for orientation in [true, false] {
            // orientation=true: left table keys ↔ mapping lefts,
            // right table keys ↔ mapping rights.
            let (l_cov, r_cov) = if orientation {
                (
                    ln.iter().filter(|k| store.contains_left(mi, k)).count(),
                    rn.iter().filter(|k| store.contains_right(mi, k)).count(),
                )
            } else {
                (
                    ln.iter().filter(|k| store.contains_right(mi, k)).count(),
                    rn.iter().filter(|k| store.contains_left(mi, k)).count(),
                )
            };
            if (l_cov as f64) < min_coverage * ln.len() as f64
                || (r_cov as f64) < min_coverage * rn.len() as f64
            {
                continue;
            }
            // Three-way join: left key → bridge → right key.
            let mut right_rows: std::collections::HashMap<&str, Vec<usize>> =
                std::collections::HashMap::new();
            for (i, k) in rn.iter().enumerate() {
                right_rows.entry(k.as_str()).or_default().push(i);
            }
            let mut rows = Vec::new();
            let join_to = |li: usize, t: &str, rows: &mut Vec<(usize, usize)>| {
                if let Some(ris) = right_rows.get(t) {
                    for &ri in ris {
                        rows.push((li, ri));
                    }
                }
            };
            for (li, lk) in ln.iter().enumerate() {
                if orientation {
                    if let Some(t) = store.forward(mi, lk) {
                        join_to(li, t, &mut rows);
                    }
                } else {
                    for t in store.reverse(mi, lk) {
                        join_to(li, t, &mut rows);
                    }
                }
            }
            if rows.is_empty() {
                continue;
            }
            if best.as_ref().is_none_or(|b| rows.len() > b.rows.len()) {
                best = Some(JoinResult {
                    mapping: mi,
                    left_keys_on_left: orientation,
                    rows,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth_serve::SnapshotBuilder;

    fn index() -> IndexSnapshot {
        let mut b = SnapshotBuilder::new();
        b.add_raw(
            Some("ticker->company".into()),
            &[
                ("GE".into(), "General Electric".into()),
                ("WMT".into(), "Walmart".into()),
                ("MSFT".into(), "Microsoft Corp.".into()),
                ("ORCL".into(), "Oracle".into()),
                ("UPS".into(), "AT&T Inc.".into()),
            ],
        );
        b.build()
    }

    #[test]
    fn paper_table_5_scenario() {
        // Left: stocks by ticker; right: companies by name (Table 5).
        let idx = index();
        let left = ["GE", "WMT", "MSFT", "ORCL", "UPS"];
        let right = [
            "General Electric",
            "Walmart",
            "Oracle",
            "Microsoft Corp.",
            "AT&T Inc.",
        ];
        let join = autojoin(&idx, &left, &right, 0.5).expect("bridge found");
        assert!(join.left_keys_on_left);
        assert_eq!(join.rows.len(), 5);
        // GE (row 0) must join General Electric (row 0); MSFT (2) ↔
        // Microsoft (3).
        assert!(join.rows.contains(&(0, 0)));
        assert!(join.rows.contains(&(2, 3)));
    }

    #[test]
    fn reversed_orientation_detected() {
        let idx = index();
        let left = ["General Electric", "Walmart"];
        let right = ["GE", "WMT", "MSFT"];
        let join = autojoin(&idx, &left, &right, 0.5).expect("bridge found");
        assert!(!join.left_keys_on_left);
        assert_eq!(join.rows.len(), 2);
    }

    #[test]
    fn insufficient_coverage_rejected() {
        let idx = index();
        let left = ["GE", "banana", "apple", "pear"];
        let right = ["General Electric", "kiwi", "mango", "plum"];
        assert!(autojoin(&idx, &left, &right, 0.5).is_none());
    }
}
