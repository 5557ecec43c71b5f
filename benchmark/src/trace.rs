//! Benchmark-side tracing: a span around every call into a layer's
//! public function, kept in memory and aggregated (or written out) when
//! the run ends. No product code is instrumented.
//!
//! A disabled tracer runs the wrapped call and records nothing, so the
//! same workload code serves the untraced and the traced run.

use crate::json::Json;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one operation share an identifier.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record spans or not from here on (the traced run alternates
    /// traced and untraced repetitions to measure what tracing costs).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> u32 {
        let parent = self.stack.last().copied();
        let op_id = match parent {
            Some(p) => self.spans[p as usize].op_id,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.stack.push(id);
        id
    }

    fn end(&mut self, id: u32) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`. A span opened while another
    /// is open is its child; a span opened at top level starts a new
    /// operation.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// A span around a call that needs no tracer inside.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    /// Record sub-steps whose durations a call *returned* (stage
    /// timings, delta timings) as children of the innermost open span,
    /// laid end to end from its start: the durations are the product's
    /// own, only the placement is the benchmark's. Returns the id of
    /// the first part (the rest follow it), for [`reported_under`].
    ///
    /// [`reported_under`]: Self::reported_under
    pub fn reported(&mut self, parts: &[(&'static str, Duration)]) -> Option<u32> {
        let parent = *self.stack.last()?;
        self.reported_under(parent, parts)
    }

    /// [`reported`](Self::reported) beneath a span that is itself a
    /// reported part.
    pub fn reported_under(
        &mut self,
        parent: u32,
        parts: &[(&'static str, Duration)],
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let first = self.spans.len() as u32;
        let op_id = self.spans[parent as usize].op_id;
        let mut at = self.spans[parent as usize].start_ns;
        for &(name, dur) in parts {
            let end = at + dur.as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                op_id,
            });
            at = end;
        }
        Some(first)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Durations, in seconds, of every span with this name.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Share of the `root`-named spans' time that no child span covers:
    /// time the benchmark cannot attribute to a layer.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.dur_ns();
            }
        }
        let (mut total, mut own) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                total += s.dur_ns();
                own += s.dur_ns().saturating_sub(covered[i]);
            }
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// What one span costs, measured here and now: the median over a
    /// few batches of empty spans on a scratch tracer.
    pub fn span_cost_ns() -> f64 {
        const BATCH: usize = 20_000;
        let batches: Vec<f64> = (0..5)
            .map(|_| {
                let mut scratch = Tracer::new(true);
                let t = Instant::now();
                for _ in 0..BATCH {
                    scratch.call("probe", || std::hint::black_box(0u32));
                }
                t.elapsed().as_nanos() as f64 / BATCH as f64
            })
            .collect();
        crate::stats::median(&batches)
    }

    /// The share of `op_secs` that recording `spans` spans took, at the
    /// cost of a span measured here and now. Two repetitions of a
    /// seconds-long operation differ by more than any tracing cost (the
    /// machine drifts by ± 10 % between them), so where an operation is
    /// long the overhead is counted, not read off a ratio of two timings.
    pub fn estimated_overhead(spans: usize, op_secs: f64) -> f64 {
        spans as f64 * Self::span_cost_ns() / (op_secs * 1e9)
    }

    /// Every span as one JSON array, in the order opened.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("op_id", Json::Num(s.op_id as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parent_and_shares_the_op_id() {
        let mut t = Tracer::new(true);
        t.span("op", |t| {
            t.call("child", || ());
            t.span("child", |t| t.call("grandchild", || ()));
        });
        t.call("op", || ());
        let s = &t.spans;
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[..4].iter().all(|x| x.op_id == s[0].op_id));
        assert_ne!(s[4].op_id, s[0].op_id);
        assert_eq!(t.secs("child").len(), 2);
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", |t| t.call("child", || 7)), 7);
        t.reported(&[("part", Duration::from_millis(1))]);
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn unattributed_share_is_self_time_over_total() {
        let mut t = Tracer::new(true);
        t.span("op", |t| {
            std::thread::sleep(Duration::from_millis(4));
            t.call("work", || std::thread::sleep(Duration::from_millis(12)));
        });
        let share = t.unattributed_share("op");
        assert!(share > 0.1 && share < 0.5, "share {share}");
        assert_eq!(t.unattributed_share("absent"), 0.0);
    }

    #[test]
    fn reported_parts_become_children_laid_end_to_end() {
        let mut t = Tracer::new(true);
        t.span("op", |t| {
            t.reported(&[
                ("a", Duration::from_nanos(10)),
                ("b", Duration::from_nanos(5)),
            ]);
        });
        let s = &t.spans;
        assert_eq!(s[1].start_ns, s[0].start_ns);
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!((s[1].dur_ns(), s[2].dur_ns()), (10, 5));
        assert_eq!(s[2].parent, Some(0));
        let json = t.to_json();
        assert_eq!(json.as_arr().map(<[Json]>::len), Some(3));
    }
}
