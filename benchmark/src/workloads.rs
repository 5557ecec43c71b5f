//! The four workloads. Every workload runs all four phases, so that
//! every run reports every metric; what distinguishes a workload is the
//! one phase it runs at full scale and gives the run's seconds to. The
//! other three run at probe scale: small inputs, sampled between the
//! full-scale phase's repetitions, about nine seconds in all.

use crate::batch::{BatchSampler, BatchScale};
use crate::delta::{DeltaSampler, DeltaScale};
use crate::run::{Run, Sampler};
use crate::serve::{ServeSampler, ServeScale};
use crate::sweep::{SweepSampler, SweepScale};
use std::sync::{mpsc, Mutex};
use std::thread;

/// In life-cycle order; a workload is named after the phase it runs at
/// full scale.
pub const NAMES: [&str; 4] = [
    "batch_synth",
    "variant_sweep",
    "delta_stream",
    "serve_lookup",
];

/// The phase a workload runs at full scale, as the per-layer metrics
/// name it (`<phase>.trace_overhead`).
pub fn phase_of(workload: &str) -> &'static str {
    const PHASES: [&str; 4] = ["batch", "sweep", "delta", "serve"];
    NAMES
        .iter()
        .position(|w| *w == workload)
        .map_or("", |i| PHASES[i])
}

pub struct Plan {
    /// Index into [`NAMES`] of the phase at full scale.
    focus: usize,
    /// Seconds of the full-scale phase's timed samples.
    seconds: f64,
    /// Pauses the run is expected to have: after the full-scale phase's
    /// warm-up and after each of its samples. The probe-scale phases
    /// spread their samples evenly over these; a run that has fewer
    /// takes fewer probe samples (the delta phase catches up at the end).
    pauses: usize,
    batch: BatchScale,
    sweep: SweepScale,
    delta: DeltaScale,
    serve: ServeScale,
}

/// Deltas the full-scale stream sends per second of the run's length
/// (calibrated on a 2-core box: one delta on 1000 tables takes ~45 ms).
const DELTAS_PER_SECOND: usize = 20;
/// Samples the full-scale phase takes at least: three repetitions for a
/// median.
const MIN_FOCUS_SAMPLES: usize = 3;
/// Timed operations — batch operations, sweeps, phase-A repetitions with
/// their stretches — a probe-scale phase takes over a run.
const PROBE_REPS: usize = 16;

fn probe_plan(focus: usize, seconds: f64, pauses: usize) -> Plan {
    // A probe sample starts with a discarded operation, so more pauses
    // make the same repetitions a little dearer, not more numerous.
    let reps_per_sample = (PROBE_REPS / pauses).max(1);
    Plan {
        focus,
        seconds,
        pauses,
        batch: BatchScale {
            tables: 600,
            settle: true,
            reps_per_sample,
            traced_budget_s: 0.5,
        },
        sweep: SweepScale {
            tables: 600,
            sweeps_per_sample: reps_per_sample,
            settle: true,
            traced_budget_s: 0.4,
        },
        delta: DeltaScale {
            tables: 200,
            chunk: 100,
            deltas: 500,
            settle: 5,
            recoveries: 5,
            traced_deltas: 200,
        },
        serve: ServeScale {
            mappings: 50,
            pairs: 400,
            probes: 20_000,
            passes: 5,
            stretch: 4_000,
            settle: true,
            reps_per_sample,
            builds: 3,
            traced_lookup_budget_s: 0.3,
            traced_requests: 30_000,
        },
    }
}

/// The plan of `workload` for a run that measures for `seconds`.
pub fn plan(workload: &str, seconds: f64) -> Option<Plan> {
    let focus = NAMES.iter().position(|w| *w == workload)?;
    let deltas = ((seconds * DELTAS_PER_SECOND as f64) as usize).max(208);
    let full_delta = DeltaScale {
        tables: 1000,
        chunk: 40,
        deltas,
        settle: 0,
        recoveries: 5,
        traced_deltas: deltas,
    };
    // The delta phase's samples are counted out by its stream; the others
    // sample until the run's seconds are spent, and one sample took this
    // long on the 2-core box the scales were calibrated on.
    let sample_seconds = match focus {
        0 => 5.0, // a batch repetition
        1 => 3.5, // a sweep
        _ => 1.5, // a phase-A repetition with its stretch of requests
    };
    let samples = match focus {
        2 => full_delta.samples(),
        _ => ((seconds / sample_seconds).round() as usize).max(MIN_FOCUS_SAMPLES),
    };
    let mut plan = probe_plan(focus, seconds, samples + 1);
    match focus {
        0 => {
            plan.batch = BatchScale {
                tables: 12_000,
                settle: false,
                reps_per_sample: 1,
                traced_budget_s: seconds / 2.0,
            }
        }
        1 => {
            plan.sweep = SweepScale {
                tables: 12_000,
                sweeps_per_sample: 1,
                settle: false,
                traced_budget_s: seconds / 2.0,
            }
        }
        2 => plan.delta = full_delta,
        _ => {
            plan.serve = ServeScale {
                mappings: 1000,
                pairs: 400,
                probes: 200_000,
                passes: 5,
                stretch: 25_000,
                settle: false,
                reps_per_sample: 1,
                builds: 3,
                traced_lookup_budget_s: seconds / 4.0,
                traced_requests: 100_000,
            }
        }
    }
    Some(plan)
}

/// A probe-scale phase of the untraced run, living on a thread of its
/// own from its construction to its `finish` and working only while the
/// scheduler waits for it: one thread of the run works at any time. What
/// the threads are for is the memory allocator, which gives each thread
/// its own arena, as separate processes would have. On one thread the
/// phases share a heap: each rebuild of the 290 MB serving index frees
/// 1.6 M small pieces into the allocator's bins, the probe-scale batch
/// operation and recovery then draw their memory from all over that
/// range, and both ran 40–100 % slower from the second rebuild on
/// (0.07 → 0.12 s, 0.2 → 0.4 s) — in some runs and not in others. The
/// full-scale phase stays on the main thread, where a program that did
/// nothing else would run it.
struct ProbePhase<'scope> {
    /// One message asks for one sample.
    calls: mpsc::Sender<()>,
    /// One message says the sampler is built or the sample taken.
    replies: mpsc::Receiver<()>,
    thread: thread::ScopedJoinHandle<'scope, ()>,
}

/// The main thread's stack size, which the phases ran on before.
const STACK_BYTES: usize = 8 << 20;

impl<'scope> ProbePhase<'scope> {
    /// Start the thread and wait until `build` has made the sampler.
    fn start<'env>(
        scope: &'scope thread::Scope<'scope, 'env>,
        run: &'env Mutex<&mut Run>,
        build: impl FnOnce(&mut Run) -> Box<dyn Sampler> + Send + 'env,
    ) -> Self {
        let (calls, inbox) = mpsc::channel();
        let (outbox, replies) = mpsc::channel();
        let body = move || {
            let lock = || run.lock().expect("no other phase panicked");
            let mut sampler = build(&mut lock());
            let reply = || outbox.send(()).expect("the scheduler waits for the reply");
            reply();
            for () in inbox {
                sampler.sample(&mut lock());
                reply();
            }
            // The scheduler hung up: the phase is over.
            sampler.finish(&mut lock());
        };
        let thread = thread::Builder::new()
            .stack_size(STACK_BYTES)
            .spawn_scoped(scope, body)
            .expect("start a phase's thread");
        let phase = Self {
            calls,
            replies,
            thread,
        };
        phase.reply();
        phase
    }

    fn reply(&self) {
        // A phase that panicked has printed why; the scope ends the run.
        self.replies.recv().expect("a phase panicked")
    }

    fn sample(&self) {
        self.calls.send(()).expect("a phase panicked");
        self.reply()
    }

    /// Run the phase's checks, record its metrics and end its thread.
    fn finish(self) {
        drop(self.calls);
        self.thread.join().expect("a phase panicked");
    }
}

/// The sampler of phase `index` (an index into [`NAMES`]).
fn sampler(plan: &Plan, index: usize, run: &mut Run) -> Box<dyn Sampler> {
    match index {
        0 => Box::new(BatchSampler::new(run, &plan.batch)),
        1 => Box::new(SweepSampler::new(run, &plan.sweep)),
        2 => Box::new(DeltaSampler::new(run, &plan.delta)),
        _ => Box::new(ServeSampler::new(run, &plan.serve)),
    }
}

/// The untraced run: the full-scale phase's samples, with the probe-scale
/// phases' samples in the pauses between them.
fn untraced(run: &mut Run, plan: &Plan) {
    let run = &Mutex::new(run);
    let lock = || run.lock().expect("no phase panicked");
    thread::scope(|scope| {
        // Samples each phase takes as a probe: one a pause, except the
        // delta phase, whose chunks and recoveries are counted out by its
        // scale.
        let planned = [plan.pauses, plan.pauses, plan.delta.samples(), plan.pauses];
        let mut focus = None;
        let mut probes = Vec::new();
        for (index, planned) in planned.into_iter().enumerate() {
            if index == plan.focus {
                focus = Some(sampler(plan, index, &mut lock()));
            } else {
                let phase = ProbePhase::start(scope, run, move |run| sampler(plan, index, run));
                probes.push((phase, planned, 0));
            }
        }
        let mut focus = focus.expect("the plan's focus is one of the four phases");
        let mut pauses = 0;
        let mut pause = || {
            pauses += 1;
            for (phase, planned, taken) in &mut probes {
                let due = (pauses * *planned).div_ceil(plan.pauses).min(*planned);
                while *taken < due {
                    phase.sample();
                    *taken += 1;
                }
            }
        };
        focus.warm_up(&mut lock());
        pause();
        let (mut spent, mut samples) = (0.0, 0);
        // Stop at the sample count that brings the timed seconds closest
        // to the run's length.
        while samples < MIN_FOCUS_SAMPLES || spent + spent / samples as f64 / 2.0 < plan.seconds {
            let secs = focus.sample(&mut lock());
            if secs == 0.0 {
                break; // the phase has nothing left to sample
            }
            spent += secs;
            samples += 1;
            pause();
        }
        focus.finish(&mut lock());
        for (phase, ..) in probes {
            phase.finish();
        }
    });
}

/// The traced run: the phases one after another, each alternating
/// traced and untraced work; nothing here is compared across runs, so
/// nothing needs spreading over the run.
fn traced(run: &mut Run, plan: &Plan) {
    // Where the run's wall time went, for whoever tunes the scales.
    fn timed(run: &mut Run, name: &str, phase: impl FnOnce(&mut Run)) {
        let t = std::time::Instant::now();
        phase(run);
        eprintln!("phase {name}: {:.1} s", t.elapsed().as_secs_f64());
    }
    timed(run, "batch", |run| crate::batch::traced(run, &plan.batch));
    timed(run, "sweep", |run| crate::sweep::traced(run, &plan.sweep));
    timed(run, "delta", |run| crate::delta::traced(run, &plan.delta));
    timed(run, "serve", |run| crate::serve::traced(run, &plan.serve));
}

/// Run all four phases of a plan and close the record.
pub fn execute(run: &mut Run, plan: &Plan) {
    if run.traced {
        traced(run, plan);
    } else {
        untraced(run, plan);
        let setup = crate::stats::Summary::single(run.setup_s, 1);
        run.record.e2e("setup_s", setup);
        let peak = crate::stats::Summary::single(crate::run::peak_rss_mb(), 1);
        run.record.e2e("peak_rss_mb", peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::highest_supported;

    #[test]
    fn the_probe_samples_support_the_tail_percentiles() {
        let probe = probe_plan(0, 12.0, 4);
        let chunks = probe.delta.deltas.div_ceil(probe.delta.chunk);
        let kept = probe.delta.deltas - chunks * probe.delta.settle;
        assert!(highest_supported(kept) >= Some(0.95));
        assert!(highest_supported(probe.serve.stretch) >= Some(0.99));
        let full = plan("delta_stream", 12.0).unwrap().delta;
        assert!(highest_supported(full.deltas - crate::delta::WARM_UP_DELTAS) >= Some(0.95));
    }

    /// Every phase at a scale a test can afford.
    fn tiny_plan(focus: usize) -> Plan {
        let mut plan = probe_plan(focus, 0.2, 4);
        plan.delta.deltas = 300;
        plan.batch.tables = 150;
        plan.sweep.tables = 150;
        plan.delta.tables = 60;
        plan.serve.mappings = 8;
        plan.serve.pairs = 100;
        plan.serve.probes = 1_000;
        plan.serve.traced_requests = 4_000;
        plan.batch.traced_budget_s = 0.0;
        plan.sweep.traced_budget_s = 0.0;
        plan.serve.traced_lookup_budget_s = 0.0;
        plan
    }

    /// The count-valued per-layer metrics of one traced run.
    fn traced_counts(seed: u64) -> Vec<(&'static str, f64)> {
        let mut run = Run::new(seed, true);
        execute(&mut run, &tiny_plan(0));
        run.cleanup();
        assert_eq!(run.checks.failures, Vec::<String>::new(), "seed {seed}");
        assert_eq!(run.record.per_layer.len(), crate::metrics::PER_LAYER.len());
        let is_count = |name: &str| {
            crate::metrics::PER_LAYER
                .iter()
                .any(|m| m.name == name && m.unit == "count")
        };
        run.record
            .per_layer
            .iter()
            .copied()
            .filter(|(name, _)| is_count(name))
            .collect()
    }

    #[test]
    fn seeds_42_and_7_pass_every_check_and_counts_repeat() {
        for seed in [42, 7] {
            let counts = traced_counts(seed);
            assert!(counts.len() > 20);
            assert_eq!(
                counts,
                traced_counts(seed),
                "seed {seed}: counts must repeat"
            );
            for focus in 0..NAMES.len() {
                let mut run = Run::new(seed, false);
                execute(&mut run, &tiny_plan(focus));
                run.cleanup();
                assert_eq!(run.checks.failures, Vec::<String>::new(), "seed {seed}");
                assert_eq!(
                    run.record.end_to_end.len(),
                    crate::metrics::END_TO_END.len()
                );
                assert!(run
                    .record
                    .end_to_end
                    .iter()
                    .all(|(_, s)| s.value.is_finite() && s.value > 0.0));
            }
        }
    }

    #[test]
    fn every_workload_has_a_plan_and_nothing_else_does() {
        for (i, (name, pauses)) in NAMES.iter().zip([4, 4, 12, 9]).enumerate() {
            let plan = plan(name, 12.0).unwrap();
            assert_eq!((plan.focus, plan.pauses), (i, pauses));
        }
        assert!(plan("batch", 12.0).is_none());
        assert_eq!(phase_of("variant_sweep"), "sweep");
        assert!(crate::metrics::PER_LAYER
            .iter()
            .any(|m| m.name == "sweep.trace_overhead"));
        let delta = plan("delta_stream", 12.0).unwrap().delta;
        assert_eq!(
            (delta.tables, delta.deltas, delta.traced_deltas),
            (1000, 240, 240)
        );
    }
}
