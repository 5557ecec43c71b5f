//! What the four phases of a run share: the seed, the tracer, the
//! checks, the set-up clock and the record being filled in.

use crate::metrics::Record;
use crate::stats::median;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Operations attempted and failed. A failed check, a rejected delta, a
/// persistence error and a wrong lookup each count as one failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Operations the program under test was asked to do.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what, 1);
        }
    }

    /// `count` operations (of those already counted) went wrong.
    pub fn fail(&mut self, what: &str, count: u64) {
        if count > 0 {
            self.failed += count;
            self.failures.push(format!("{what} ({count})"));
        }
    }

    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.check(what, ok);
        if !ok {
            eprintln!("check failed: {what}: got {got:?}, want {want:?}");
        }
    }
}

pub struct Run {
    pub seed: u64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    pub tracer: Tracer,
    pub checks: Checks,
    pub record: Record,
    /// Worker threads the synthesis engine gets: `min(nproc, 4)`.
    pub workers: usize,
    /// Set-up time so far: input generation and everything else before
    /// a phase's first timed operation.
    pub setup_s: f64,
    scratch_root: PathBuf,
    scratch_dirs: usize,
}

impl Run {
    pub fn new(seed: u64, traced: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            seed,
            traced,
            // Spans are recorded only inside traced repetitions.
            tracer: Tracer::new(false),
            checks: Checks::default(),
            record: Record::default(),
            workers: nproc.min(4),
            setup_s: 0.0,
            scratch_root: scratch_root(),
            scratch_dirs: 0,
        }
    }

    /// Time `f` as set-up.
    pub fn setup<R>(&mut self, f: impl FnOnce(&mut Run) -> R) -> R {
        let t = Instant::now();
        let out = f(self);
        self.setup_s += t.elapsed().as_secs_f64();
        out
    }

    /// Generate an input up to [`GENERATIONS`] times — until
    /// [`GENERATION_BUDGET_S`] is spent — and charge the median to
    /// set-up, so that one slow draw of a small input does not read as
    /// a set-up regression. Large inputs are generated once.
    pub fn generate<R>(&mut self, f: impl Fn() -> R) -> R {
        let mut times = Vec::with_capacity(GENERATIONS);
        let mut last = None;
        while times.len() < GENERATIONS && times.iter().sum::<f64>() < GENERATION_BUDGET_S {
            drop(last.take());
            let t = Instant::now();
            last = Some(f());
            times.push(t.elapsed().as_secs_f64());
        }
        self.setup_s += median(&times);
        last.expect("the first generation always runs")
    }

    /// A fresh directory for files the run writes, inside the checkout
    /// and removed by [`cleanup`](Self::cleanup).
    pub fn scratch_dir(&mut self, label: &str) -> PathBuf {
        self.scratch_dirs += 1;
        let dir = self
            .scratch_root
            .join(format!("{label}-{}", self.scratch_dirs));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }

    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.scratch_root);
    }
}

const GENERATIONS: usize = 3;
const GENERATION_BUDGET_S: f64 = 0.3;

/// Scratch space next to the executable — inside the build directory of
/// the checkout, which version control ignores — one per process.
fn scratch_root() -> PathBuf {
    let base = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    base.join(format!("bench-scratch-{}", std::process::id()))
}

fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident memory now.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// Peak resident memory of this process.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// A phase of the untraced run, measured one sample at a time so that
/// the scheduler can take the probe-scale phases' samples *between* the
/// full-scale phase's: on a shared box the machine slows down for
/// seconds at a time, and a phase measured in one short burst lands
/// wholly inside or wholly outside such an episode, while samples spread
/// over the run let the median discard the ones that were hit.
pub trait Sampler {
    /// One discarded operation before the timed ones.
    fn warm_up(&mut self, run: &mut Run);
    /// Take one sample; returns the seconds it measured, 0 if the phase
    /// has nothing left to sample.
    fn sample(&mut self, run: &mut Run) -> f64;
    /// Run the phase's checks and record its end-to-end metrics.
    fn finish(self: Box<Self>, run: &mut Run);
}

/// Run `op` once discarded, then repeatedly until `budget_s` has been
/// spent on timed repetitions and at least `min_reps` are in; returns
/// each timed repetition's seconds. `op` gets the repetition's index,
/// `None` for the warm-up.
pub fn timed_reps(
    budget_s: f64,
    min_reps: usize,
    mut op: impl FnMut(Option<usize>) -> f64,
) -> Vec<f64> {
    op(None);
    let mut times = Vec::new();
    let mut spent = 0.0;
    while times.len() < min_reps || spent < budget_s {
        let secs = op(Some(times.len()));
        spent += secs;
        times.push(secs);
    }
    times
}

/// What tracing costs: the median of the samples taken with spans over
/// the median of those taken without, minus one. The traced run
/// alternates the two kinds so that both medians saw the same machine.
pub fn trace_overhead(samples: &[f64], with_spans: &[bool]) -> f64 {
    median(&kept(samples, with_spans, true)) / median(&kept(samples, with_spans, false)) - 1.0
}

/// The samples whose flag equals `want`.
pub fn kept(samples: &[f64], flags: &[bool], want: bool) -> Vec<f64> {
    samples
        .iter()
        .zip(flags)
        .filter(|(_, &flag)| flag == want)
        .map(|(&s, _)| s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.ops(10);
        c.check("fine", true);
        c.check("broken", false);
        c.fail("rejected deltas", 2);
        c.fail("none", 0);
        c.check_eq("equal", 1, 1);
        assert_eq!((c.attempted, c.failed), (13, 3));
        assert_eq!(c.failures, ["broken (1)", "rejected deltas (2)"]);
    }

    #[test]
    fn timed_reps_discards_the_warm_up_and_honours_both_limits() {
        let mut calls = Vec::new();
        let times = timed_reps(0.0, 3, |i| {
            calls.push(i);
            1.0
        });
        assert_eq!(calls, [None, Some(0), Some(1), Some(2)]);
        assert_eq!(times.len(), 3);
        let times = timed_reps(10.0, 1, |_| 4.0);
        assert_eq!(times.len(), 3, "4 + 4 < 10, so a third repetition runs");
    }

    #[test]
    fn trace_overhead_compares_the_two_kinds_of_sample() {
        let samples = [10.0, 11.0, 10.0, 11.0];
        let flags = [false, true, false, true];
        assert_eq!(kept(&samples, &flags, true), [11.0, 11.0]);
        assert!((trace_overhead(&samples, &flags) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rss_reads_something() {
        assert!(rss_mb() > 0.0 && peak_rss_mb() >= rss_mb() * 0.5);
    }
}
