//! The `pipeline_baseline` check engine, renderer, reader and argument
//! parser, case by case.

use mapsynth_bench::harness::{check, get, parse, parse_args, render, scale_point};
use mapsynth_bench::harness::{Args, Golden, Record, Value};

#[test]
fn check_applies_each_rule() {
    let committed = parse(r#"{"n": 5, "ceil": 10, "obj": {"m": 7}}"#).expect("valid");
    let r = Record::new;
    for (record, want) in [
        (r().exact("n", 5u32), ""),
        (r().exact("n", 6u32), "n: expected 5, got 6"),
        (
            r().exact("absent", 5u32),
            "absent: missing from the baseline",
        ),
        (r().at_most("ceil", 9u32).at_most("ceil", 10u32), ""),
        (r().at_most("ceil", 11u32), "ceil: 11 exceeds ceiling 10"),
        (
            r().at_most("absent", 0u32),
            "absent: missing from the baseline",
        ),
        (r().ceiling("ceil", 9.5, 4.0), ""),
        (
            r().ceiling("ceil", 10.5, 4.0),
            "ceil: 10.5 exceeds ceiling 10",
        ),
        (r().info("n", 99u32).num("absent", 1.0, 3), ""),
        (
            r().obj("obj", r().exact("m", 8u32)),
            "obj.m: expected 7, got 8",
        ),
        (
            r().obj("absent", r().at_most("m", 7u32)),
            "absent.m: missing from the baseline",
        ),
    ] {
        assert_eq!(check(&committed, &record).join("; "), want);
    }
    // A margin ceiling writes ceil(x × margin), at least 1.
    let margin = r().ceiling("ceil", 2.4, 4.0).ceiling("floor", 0.0, 4.0);
    assert_eq!(
        render(&margin.fields),
        "{\n  \"ceil\": 10,\n  \"floor\": 1\n}\n"
    );
}

#[test]
fn golden_dump_must_match_a_readable_file() {
    let path = std::env::temp_dir().join(format!("harness-golden-{}", std::process::id()));
    let path = path.display().to_string();
    let record = |dump: &str| {
        let (path, regen, dump) = (path.clone(), "regen".to_string(), dump.to_string());
        let golden = Some(Golden { path, regen, dump });
        Record {
            golden,
            ..Record::new()
        }
    };
    std::fs::write(&path, "0 1 2\n").expect("write the golden file");
    assert!(check(&[], &record("0 1 2\n")).is_empty());
    let differs = format!("{path}: dump differs; regenerate via `regen` if intended");
    assert_eq!(check(&[], &record("0 1 3\n")), vec![differs]);
    std::fs::remove_file(&path).expect("remove the golden file");
    let unreadable = check(&[], &record("0 1 2\n"));
    assert!(unreadable[0].starts_with(&format!("{path}: cannot read")));
}

#[test]
fn scale_point_scopes_to_the_requested_point() {
    let file = parse(
        r#"{"scale_detail": {"max_tables": 6000, "points": [
            {"tables": 6000, "edges": 9}, {"tables": 600, "edges": 3}]}}"#,
    )
    .expect("valid");
    let point = scale_point(&file, 600).expect("600 is committed");
    assert_eq!(get(point, "edges"), Some(&Value::Num(3.0, "3".into())));
    assert_eq!(scale_point(&file, 60), None);
    assert_eq!(scale_point(&file, 1200), None);
}

/// The committed files are the renderer's output for every tier: each
/// reads back and renders byte-identically, and the lookup finds every
/// key of every object at its one occurrence — the uniqueness the keyed
/// lookup relies on.
#[test]
fn committed_files_round_trip_with_unique_keys() {
    fn unique(value: &Value) {
        match value {
            Value::Obj(fields) => {
                for f in fields {
                    let found = get(fields, &f.key).expect("present");
                    assert!(std::ptr::eq(found, &f.value), "{} appears twice", f.key);
                    unique(&f.value);
                }
            }
            Value::List(items) => items.iter().for_each(unique),
            Value::Num(..) => {}
        }
    }
    for text in [
        include_str!("../../../BENCH_pipeline.json"),
        include_str!("../../../BENCH_scale.json"),
    ] {
        let fields = parse(text).expect("committed file parses");
        assert_eq!(render(&fields), text);
        unique(&Value::Obj(fields));
    }
    assert!(parse("{\"a\": 1} trailing").is_err());
    assert!(parse("{\"a\": x}").is_err());
}

#[test]
fn parse_args_accepts_every_tier_and_rejects_unknown_flags() {
    let parsed = |line: &str| {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        match parse_args(&args) {
            Ok(Args { tier, check, out }) => format!("{tier:?} {check:?} {out:?}"),
            Err(e) => format!("error: {e}"),
        }
    };
    for case in [
        r#" => Baseline(600) None None"#,
        r#"out.json 1200 => Baseline(1200) None Some("out.json")"#,
        r#"--check BENCH_pipeline.json => Baseline(600) Some("BENCH_pipeline.json") None"#,
        r#"--check => Baseline(600) Some("BENCH_pipeline.json") None"#,
        r#"--tables 600 --check BENCH_scale.json => Scale(600, None) Some("BENCH_scale.json") None"#,
        r#"--tables 600 --check --points 600,7500 => Scale(600, Some([600, 7500])) Some("BENCH_scale.json") None"#,
        r#"--tables 600 out.json => Scale(600, None) None Some("out.json")"#,
        r#"--scale-point 600 => ScalePoint(600) None None"#,
        r#"--delta-stream --check BENCH_pipeline.json => Stream Some("BENCH_pipeline.json") None"#,
        r#"--delta-stream --faults --check BENCH_pipeline.json => Fault Some("BENCH_pipeline.json") None"#,
        r#"--delta-stream --check --faults => Fault Some("BENCH_pipeline.json") None"#,
        r#"--delta-stream --faults out.json => Fault None Some("out.json")"#,
        r#"--recovery --check BENCH_pipeline.json => Recovery Some("BENCH_pipeline.json") None"#,
        "--chek BENCH_pipeline.json => error: unknown or misplaced flag `--chek`",
        "--recovery --chek BENCH_pipeline.json => error: unknown or misplaced flag `--chek`",
        "--recovery --faults => error: unknown or misplaced flag `--faults`",
        "--check BENCH_pipeline.json --recovery => error: unknown or misplaced flag `--recovery`",
        "--points 600 => error: unknown or misplaced flag `--points`",
        "--tables => error: --tables needs a table count",
        "--tables 6x0 => error: --tables needs a table count",
        "--tables 600 --points 7500,600 => error: --points: 600 after 7500 — points must be sorted ascending",
        "out.json 12x => error: `12x` is not a table count",
        "--recovery a b => error: unexpected argument `b`",
        "--check a b => error: --check writes no output file",
    ] {
        let (line, want) = case.split_once(" => ").expect("a case is `args => result`");
        assert_eq!(parsed(line), want, "`{line}`");
    }
}
