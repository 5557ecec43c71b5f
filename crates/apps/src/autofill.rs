//! Auto-fill (paper §1, Table 4).
//!
//! The user has a filled key column and a few example values in the
//! target column; the system finds a mapping consistent with the
//! examples and fills the rest.

use mapsynth_serve::IndexSnapshot;
use mapsynth_text::normalize;

/// Result of an auto-fill request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FillResult {
    /// Index of the mapping used.
    pub mapping: u32,
    /// `(row, value)` for every previously-empty row that could be
    /// filled.
    pub filled: Vec<(usize, String)>,
}

/// Fill the empty positions of `target` given `keys` and the non-empty
/// examples already present in `target`.
///
/// A mapping qualifies when every given example agrees with it
/// (`key → example` in its forward map) and it covers at least
/// `min_examples` of the examples. Among qualifying mappings the one
/// covering the most keys wins.
pub fn autofill(
    store: &IndexSnapshot,
    keys: &[&str],
    target: &[Option<&str>],
    min_examples: usize,
) -> Option<FillResult> {
    assert_eq!(keys.len(), target.len(), "columns must align");
    let norm_keys: Vec<String> = keys.iter().map(|k| normalize(k)).collect();
    let examples: Vec<(usize, String)> = target
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.map(|v| (i, normalize(v))))
        .collect();
    if examples.len() < min_examples {
        return None;
    }

    let ranked = store.rank_by_containment(keys);
    let mut best: Option<(u32, usize)> = None; // (mapping, keys covered)
    for (mi, covered) in ranked {
        // All examples must be consistent with the mapping.
        let consistent = examples
            .iter()
            .all(|(row, ex)| store.forward(mi, &norm_keys[*row]) == Some(ex.as_str()));
        if !consistent {
            continue;
        }
        let hits = examples
            .iter()
            .filter(|(row, _)| store.forward(mi, &norm_keys[*row]).is_some())
            .count();
        if hits < min_examples {
            continue;
        }
        if best.is_none_or(|(_, c)| covered > c) {
            best = Some((mi, covered));
        }
    }
    let (mi, _) = best?;
    let filled: Vec<(usize, String)> = target
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_none())
        .filter_map(|(row, _)| {
            store
                .forward(mi, &norm_keys[row])
                .map(|v| (row, v.to_string()))
        })
        .collect();
    Some(FillResult {
        mapping: mi,
        filled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth_serve::SnapshotBuilder;

    fn index() -> IndexSnapshot {
        let mut b = SnapshotBuilder::new();
        b.add_raw(
            Some("city->state".into()),
            &[
                ("San Francisco".into(), "California".into()),
                ("Seattle".into(), "Washington".into()),
                ("Los Angeles".into(), "California".into()),
                ("Houston".into(), "Texas".into()),
                ("Denver".into(), "Colorado".into()),
            ],
        );
        b.add_raw(
            Some("city->state-abbr".into()),
            &[
                ("San Francisco".into(), "CA".into()),
                ("Seattle".into(), "WA".into()),
                ("Los Angeles".into(), "CA".into()),
                ("Houston".into(), "TX".into()),
                ("Denver".into(), "CO".into()),
            ],
        );
        b.build()
    }

    #[test]
    fn paper_table_4_scenario() {
        let idx = index();
        let keys = [
            "San Francisco",
            "Seattle",
            "Los Angeles",
            "Houston",
            "Denver",
        ];
        let target = [Some("California"), None, None, None, None];
        let fill = autofill(&idx, &keys, &target, 1).expect("intent discovered");
        assert_eq!(fill.mapping, 0, "full state names, not abbreviations");
        let values: Vec<&str> = fill.filled.iter().map(|(_, v)| v.as_str()).collect();
        assert_eq!(
            values,
            vec!["washington", "california", "texas", "colorado"]
        );
    }

    #[test]
    fn examples_disambiguate_mapping() {
        let idx = index();
        let keys = ["San Francisco", "Seattle", "Houston"];
        let target = [Some("CA"), None, None];
        let fill = autofill(&idx, &keys, &target, 1).expect("abbr mapping found");
        assert_eq!(fill.mapping, 1);
        let values: Vec<&str> = fill.filled.iter().map(|(_, v)| v.as_str()).collect();
        assert_eq!(values, vec!["wa", "tx"]);
    }

    #[test]
    fn contradictory_example_rejects_mapping() {
        let idx = index();
        let keys = ["San Francisco", "Seattle"];
        let target = [Some("Texas"), None];
        assert!(autofill(&idx, &keys, &target, 1).is_none());
    }

    #[test]
    fn too_few_examples() {
        let idx = index();
        let keys = ["San Francisco", "Seattle"];
        let target: [Option<&str>; 2] = [None, None];
        assert!(autofill(&idx, &keys, &target, 1).is_none());
    }
}
