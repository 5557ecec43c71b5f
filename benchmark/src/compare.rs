//! `--compare A.json B.json`: one row per (workload, end-to-end
//! metric) with both medians, the ratio and its base, and a verdict from
//! the metric's bound and the two sides' quartiles — so that a later
//! change states its claim and its must-not-move list in the
//! benchmark's own words.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    /// The run-to-run spread is wider than the bound: the runs cannot
    /// tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's readings of one metric on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Lowest and highest reading.
    pub min: f64,
    pub max: f64,
    pub runs: usize,
}

impl Side {
    /// From the metric's value in each set of runs. A single set falls
    /// back on the quartiles of the samples inside that run.
    fn of(readings: &[(f64, f64, f64)]) -> Option<Side> {
        match readings {
            [] => None,
            [(value, q1, q3)] => Some(Side {
                median: *value,
                q1: *q1,
                q3: *q3,
                min: *q1,
                max: *q3,
                runs: 1,
            }),
            many => {
                let values: Vec<f64> = many.iter().map(|r| r.0).collect();
                let (q1, q3) = quartiles(&values);
                Some(Side {
                    median: median(&values),
                    q1,
                    q3,
                    min: values.iter().copied().fold(f64::INFINITY, f64::min),
                    max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    runs: many.len(),
                })
            }
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The rule of the choosing-metrics guide, sections 6 and 8. `a` is the
/// base (the parent), `b` the change.
pub fn verdict(better: Better, bound: f64, a: &Side, b: &Side) -> Verdict {
    // Share of the base's median by which `b` is worse (negative: better).
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    let (every_b_better, every_b_worse) = match better {
        Better::Lower => (b.max < a.min, b.min > a.max),
        Better::Higher => (b.min > a.max, b.max < a.min),
    };
    if a.spread().max(b.spread()) > bound {
        return if every_b_better {
            Verdict::Improved
        } else if every_b_worse && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > a.spread() && every_b_better {
        // Better by more than the base's own run-to-run spread, and no
        // run of the base as good as any run of the change.
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: Side,
    pub b: Side,
    pub verdict: Verdict,
}

/// `(value, q1, q3)` of `metric` on `workload` in every set of a
/// result file.
fn readings(doc: &Json, workload: &str, metric: &str) -> Vec<(f64, f64, f64)> {
    let num = |m: &Json, key: &str| m.get(key).and_then(Json::as_f64);
    doc.get("sets")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .flat_map(|set| {
            set.get("workloads")
                .and_then(Json::as_arr)
                .unwrap_or_default()
        })
        .filter(|w| w.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|w| w.get("end_to_end")?.get(metric))
        .filter_map(|m| Some((num(m, "value")?, num(m, "q1")?, num(m, "q3")?)))
        .collect()
}

pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in crate::workloads::NAMES {
        for m in &END_TO_END {
            let sides = (
                Side::of(&readings(a, workload, m.name)),
                Side::of(&readings(b, workload, m.name)),
            );
            if let (Some(a), Some(b)) = sides {
                rows.push(Row {
                    workload: workload.to_string(),
                    metric: m.name,
                    unit: m.unit,
                    verdict: verdict(m.better, m.bound, &a, &b),
                    a,
                    b,
                });
            }
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<20} {:>14} {:>14}  {:<34} {:>5}  verdict",
        "workload", "metric", "A median", "B median", "B / A (base)", "runs"
    );
    for r in rows {
        let ratio = format!(
            "{:.3}x of {:.4} {} (A)",
            r.b.median / r.a.median,
            r.a.median,
            r.unit
        );
        let _ = writeln!(
            out,
            "{:<14} {:<20} {:>14.4} {:>14.4}  {:<34} {:>2}/{:<2}  {}",
            r.workload,
            r.metric,
            r.a.median,
            r.b.median,
            ratio,
            r.a.runs,
            r.b.runs,
            r.verdict.as_str()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        let readings: Vec<(f64, f64, f64)> = values.iter().map(|&v| (v, v, v)).collect();
        Side::of(&readings).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // Within the bound either way: unchanged.
        let near = side(&[103.0, 104.0, 102.0, 103.5, 102.5]);
        assert_eq!(
            verdict(Better::Lower, 0.10, &base, &near),
            Verdict::Unchanged
        );
        // Worse by more than the bound: regressed.
        let slow = side(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        assert_eq!(
            verdict(Better::Lower, 0.10, &base, &slow),
            Verdict::Regressed
        );
        // For a higher-is-better metric the same readings are a gain.
        assert_eq!(
            verdict(Better::Higher, 0.10, &base, &slow),
            Verdict::Improved
        );
        // Every run better and beyond the base's own spread: improved.
        let fast = side(&[90.0, 91.0, 89.0, 90.5, 89.5]);
        assert_eq!(
            verdict(Better::Lower, 0.10, &base, &fast),
            Verdict::Improved
        );
        // Spread wider than the bound: unresolved, unless every run of
        // one side beats every run of the other.
        let noisy = side(&[80.0, 125.0, 100.0, 118.0, 90.0]);
        assert_eq!(
            verdict(Better::Lower, 0.10, &base, &noisy),
            Verdict::Unresolved
        );
        let noisy_fast = side(&[40.0, 60.0, 50.0, 55.0, 45.0]);
        assert_eq!(
            verdict(Better::Lower, 0.10, &base, &noisy_fast),
            Verdict::Improved
        );
        let noisy_slow = side(&[140.0, 190.0, 150.0, 175.0, 160.0]);
        assert_eq!(
            verdict(Better::Lower, 0.10, &base, &noisy_slow),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_single_run_uses_its_own_quartiles() {
        let one = Side::of(&[(10.0, 9.0, 11.0)]).unwrap();
        assert_eq!((one.q1, one.q3, one.runs), (9.0, 11.0, 1));
        assert!(Side::of(&[]).is_none());
    }

    #[test]
    fn compares_two_result_files() {
        let file = |synth: f64| {
            let metric = Json::obj([
                ("value", Json::Num(synth)),
                ("q1", Json::Num(synth * 0.99)),
                ("q3", Json::Num(synth * 1.01)),
            ]);
            let workload = Json::obj([
                ("workload", Json::str("batch_synth")),
                ("end_to_end", Json::obj([("synth_s", metric)])),
            ]);
            Json::obj([(
                "sets",
                Json::Arr(vec![Json::obj([("workloads", Json::Arr(vec![workload]))])]),
            )])
        };
        let rows = compare(&file(5.0), &file(7.0));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric, "synth_s");
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        let text = render(&rows);
        assert!(text.contains("1.400x of 5.0000 s (A)"), "{text}");
        assert!(text.contains("regressed"));
    }
}
