//! The repo benchmark. Three ways to call it:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process: the untraced run prints the end-to-end
//!   metrics, the traced run the per-layer metrics; the last line of
//!   standard output is the result as one JSON object.
//! * no `--trace` — the whole set: every workload (or the one
//!   `--workload` names), each in a child process, untraced then traced;
//!   every metric by name with its unit, the checks, wall times and the
//!   tracing overhead; `--out FILE` appends the set to a result file.
//! * `--compare A.json B.json` — two result files, row by row.
//!
//! See `README.md` beside `Cargo.toml` for the metrics' definitions.

mod batch;
mod compare;
mod delta;
mod inputs;
mod json;
mod metrics;
mod quality;
mod run;
mod serve;
mod stats;
mod sweep;
mod trace;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use run::Run;
use std::process::ExitCode;
use std::time::Instant;

/// Seconds a run measures for when `--seconds` is not given; the value
/// `BENCHMARK.json` carries as `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    trace_out: Option<String>,
    out: Option<String>,
    compare: Option<(String, String)>,
    /// Add one failing check, to show that a failed check fails the run.
    self_test_failure: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(secs > 0.0 && secs <= 3600.0) {
                    return Err(format!("--seconds out of range: {v}"));
                }
                args.seconds = Some(secs);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--trace-out" => args.trace_out = Some(value("a file")?),
            "--out" => args.out = Some(value("a file")?),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--self-test-failure" => args.self_test_failure = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; one of {:?}",
                workloads::NAMES
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare_files(a, b);
    }
    match (args.trace, &args.workload) {
        (Some(traced), Some(workload)) => single_run(&args, workload, traced),
        (Some(_), None) => {
            eprintln!("--trace needs --workload");
            ExitCode::from(2)
        }
        (None, _) => whole_set(&args),
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Which way a metric is better, and where it belongs: the workload
/// that measures an end-to-end metric at full scale, or the end-to-end
/// metric a layer's metric should move.
fn note_of(name: &str) -> String {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        let place = match m.home {
            "all" => "every workload its own".to_string(),
            home => format!("full scale on {home}"),
        };
        format!("{} is better; {place}", m.better.as_str())
    } else if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
        format!("{} is better; moves {}", m.better.as_str(), m.moves)
    } else {
        String::new()
    }
}

/// The result of one run: the line the driver reads and, for the whole
/// set's report, the dispersion behind each value.
struct Outcome {
    result: Json,
    detail: Json,
    failed: bool,
}

fn close(run: &mut Run) -> Outcome {
    // Every declared metric must have been measured, whatever the
    // workload; a hole is a failure, not an omission.
    let measured: Vec<(&str, f64, f64, f64, usize, f64)> = if run.traced {
        run.record
            .per_layer
            .iter()
            .map(|&(name, v)| (name, v, v, v, 1, v))
            .collect()
    } else {
        run.record
            .end_to_end
            .iter()
            .map(|(name, s)| (*name, s.value, s.q1, s.q3, s.n, s.min))
            .collect()
    };
    let declared: Vec<&str> = if run.traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in &declared {
        let readings = measured.iter().filter(|m| m.0 == *name).count();
        run.checks.check(
            &format!("metric {name} measured exactly once"),
            readings == 1,
        );
    }
    for m in &measured {
        run.checks
            .check(&format!("metric {} is a number", m.0), m.1.is_finite());
    }
    let metrics = Json::obj(measured.iter().map(|&(name, value, ..)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        )
    }));
    // Per-layer values are single readings: no dispersion to add.
    let detail = if run.traced {
        metrics.clone()
    } else {
        Json::obj(measured.iter().map(|&(name, value, q1, q3, n, min)| {
            (
                name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::str(unit_of(name))),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("min", Json::Num(min)),
                    ("n", Json::Num(n as f64)),
                ]),
            )
        }))
    };
    let failed = run.checks.failed > 0;
    Outcome {
        result: Json::obj([
            ("correct", Json::Bool(!failed)),
            ("attempted", Json::Num(run.checks.attempted.max(1) as f64)),
            ("failed", Json::Num(run.checks.failed as f64)),
            ("metrics", metrics),
        ]),
        detail: Json::obj([
            ("metrics", detail),
            (
                "failures",
                Json::Arr(run.checks.failures.iter().map(Json::str).collect()),
            ),
        ]),
        failed,
    }
}

fn single_run(args: &Args, workload: &str, traced: bool) -> ExitCode {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let plan = workloads::plan(workload, seconds).expect("workload name was validated");
    let mut run = Run::new(args.seed.unwrap_or(DEFAULT_SEED), traced);
    workloads::execute(&mut run, &plan);
    if args.self_test_failure {
        run.checks.check("self-test: a check made to fail", false);
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, run.tracer.to_json().to_line()) {
            eprintln!("cannot write {path}: {e}");
            run.checks.check("trace written", false);
        }
    }
    run.cleanup();
    let outcome = close(&mut run);
    for failure in &run.checks.failures {
        eprintln!("FAILED: {failure}");
    }
    if let Some(metrics) = outcome.result.get("metrics").and_then(Json::as_obj) {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!("{name} {value} {}", unit_of(name));
        }
    }
    println!("{}", outcome.detail.to_line());
    println!("{}", outcome.result.to_line());
    if outcome.failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One child run: its two JSON lines and how long it took.
struct Child {
    result: Json,
    detail: Json,
    wall_s: f64,
    ok: bool,
}

fn child_run(
    args: &Args,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let (true, Some(path)) = (traced, &args.trace_out) {
        command.args(["--trace-out", &format!("{path}.{workload}.json")]);
    }
    if args.self_test_failure {
        command.arg("--self-test-failure");
    }
    let started = Instant::now();
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| {
        line.ok_or_else(|| format!("the {workload} run printed no result"))
            .and_then(|l| Json::parse(l).map_err(|e| format!("the {workload} run's result: {e}")))
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;
    Ok(Child {
        result,
        detail,
        wall_s,
        ok: output.status.success(),
    })
}

fn whole_set(args: &Args) -> ExitCode {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let chosen: Vec<&str> = workloads::NAMES
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let started = Instant::now();
    let mut all_ok = true;
    let mut reports = Vec::new();
    for workload in chosen {
        let runs = child_run(args, workload, seed, seconds, false)
            .and_then(|untraced| Ok((untraced, child_run(args, workload, seed, seconds, true)?)));
        let (untraced, traced) = match runs {
            Ok(pair) => pair,
            Err(message) => {
                eprintln!("{message}");
                all_ok = false;
                continue;
            }
        };
        all_ok &= untraced.ok && traced.ok;
        let count = |c: &Child, key: &str| c.result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let ops = count(&untraced, "attempted") + count(&traced, "attempted");
        let failed_ops = count(&untraced, "failed") + count(&traced, "failed");
        println!("== {workload}  (seed {seed}, {seconds} s)");
        let print = |title: &str, child: &Child| {
            println!("-- {title}");
            let metrics = child
                .detail
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or_default();
            for (name, m) in metrics {
                let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let spread = if num("n") > 1.0 {
                    format!(
                        " (q1 {:.6}, q3 {:.6}, n {})",
                        num("q1"),
                        num("q3"),
                        num("n")
                    )
                } else {
                    String::new()
                };
                println!(
                    "{name:<40} {:>16.6} {unit:<6}{spread}  [{}]",
                    num("value"),
                    note_of(name)
                );
            }
            for failure in child
                .detail
                .get("failures")
                .and_then(Json::as_arr)
                .unwrap_or_default()
            {
                println!("FAILED: {}", failure.as_str().unwrap_or("?"));
            }
        };
        print("end to end (untraced run)", &untraced);
        print("per layer (traced run)", &traced);
        let phase = workloads::phase_of(workload);
        let overhead = traced
            .result
            .get("metrics")
            .and_then(|m| m.get(&format!("{phase}.trace_overhead")))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        println!(
            "-- ops {ops}, failed_ops {failed_ops}; wall {:.1} s untraced + {:.1} s traced; trace_overhead {:.4}",
            untraced.wall_s, traced.wall_s, overhead
        );
        let metrics_of = |c: &Child| c.detail.get("metrics").cloned().unwrap_or(Json::Null);
        reports.push(Json::obj([
            ("workload", Json::str(workload)),
            ("ops", Json::Num(ops)),
            ("failed_ops", Json::Num(failed_ops)),
            ("wall_s_untraced", Json::Num(untraced.wall_s)),
            ("wall_s_traced", Json::Num(traced.wall_s)),
            ("trace_overhead", Json::Num(overhead)),
            ("end_to_end", metrics_of(&untraced)),
            ("per_layer", metrics_of(&traced)),
        ]));
    }
    println!("== set wall time {:.1} s", started.elapsed().as_secs_f64());
    let set = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("workers", Json::Num(nproc.min(4) as f64)),
        ("workloads", Json::Arr(reports)),
    ]);
    if let Some(path) = &args.out {
        if let Err(message) = append_set(path, set) {
            eprintln!("{message}");
            all_ok = false;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Add `set` to the result file at `path`, creating it if need be, so
/// that repeated invocations accumulate the runs a comparison needs.
fn append_set(path: &str, set: Json) -> Result<(), String> {
    let mut sets = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .map_err(|e| format!("{path}: {e}"))?
            .get("sets")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path} is not a result file"))?
            .to_vec(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    sets.push(set);
    let doc = Json::obj([("format", Json::Num(1.0)), ("sets", Json::Arr(sets))]);
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            print!("{}", compare::render(&compare::compare(&a, &b)));
            ExitCode::SUCCESS
        }
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(&argv(
            "--workload delta_stream --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("delta_stream"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(7), Some(12.0), Some(true))
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
        let cmp = parse_args(&argv("--compare a.json b.json")).unwrap();
        assert_eq!(cmp.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn a_failed_check_fails_the_run_and_a_missing_metric_is_a_failed_check() {
        let mut run = Run::new(1, false);
        for m in &END_TO_END {
            run.record.e2e(m.name, stats::Summary::single(1.5, 1));
        }
        let ok = close(&mut run);
        assert!(!ok.failed);
        assert_eq!(ok.result.get("correct"), Some(&Json::Bool(true)));
        let keys: Vec<&str> = ok
            .result
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            ok.result
                .get("metrics")
                .and_then(Json::as_obj)
                .map(<[_]>::len),
            Some(END_TO_END.len())
        );

        let mut run = Run::new(1, false);
        for m in &END_TO_END {
            run.record.e2e(m.name, stats::Summary::single(1.5, 1));
        }
        run.checks.check("made to fail", false);
        let bad = close(&mut run);
        assert!(bad.failed);
        assert_eq!(bad.result.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(bad.result.get("failed"), Some(&Json::Num(1.0)));

        let mut run = Run::new(1, true);
        run.record.layer(PER_LAYER[0].name, 1.0);
        assert!(close(&mut run).failed, "103 per-layer metrics are missing");
    }

    #[test]
    fn result_files_accumulate_sets() {
        let dir = run::Run::new(1, false).scratch_dir("out");
        let path = dir.join("set.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        append_set(path, Json::obj([("seed", Json::Num(1.0))])).unwrap();
        append_set(path, Json::obj([("seed", Json::Num(2.0))])).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("sets").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
        std::fs::write(path, "[]").unwrap();
        assert!(append_set(path, Json::Null).is_err());
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }
}
