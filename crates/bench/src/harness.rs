//! The `pipeline_baseline` harness: one record type for every tier's
//! output, one renderer for the committed `BENCH_*.json` format, one
//! reader for it, one check engine, and the command-line parser.
//!
//! A tier builds a [`Record`]: an ordered tree of fields, each carrying
//! the [`Rule`] `--check` applies to it, plus optionally the [`Golden`]
//! edge dump it must reproduce byte for byte. [`render`] writes the
//! fields as two-space-indented JSON, [`parse`] reads such a file back
//! into the same tree, and [`check`] walks a fresh record against the
//! committed tree and describes every drift.

/// How `--check` compares a fresh field with the committed file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// A deterministic count: must equal the committed value.
    Exact,
    /// The committed value is a ceiling the fresh one may not exceed.
    AtMost,
    /// Written, never compared (timings, throughput, diagnostics).
    Info,
}

/// A value of a record, or of a committed file read back.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A number: the value a check compares, and the text the file holds.
    Num(f64, String),
    /// An object's fields, in file order.
    Obj(Vec<Field>),
    /// An array.
    List(Vec<Value>),
}

/// One keyed entry of an object, with the rule `--check` applies to it.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    pub key: String,
    pub value: Value,
    pub rule: Rule,
}

/// A committed edge dump at `path` (regenerated by the `regen`
/// command) that the fresh `dump` must equal byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub struct Golden {
    pub path: String,
    pub regen: String,
    pub dump: String,
}

/// One tier's output: its fields in file order, plus the golden dump
/// `--check` compares. Built by chaining one call per field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    pub fields: Vec<Field>,
    pub golden: Option<Golden>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, key: &str, value: Value, rule: Rule) -> Self {
        let key = key.to_string();
        self.fields.push(Field { key, value, rule });
        self
    }

    fn count(self, key: &str, n: impl TryInto<u64>, rule: Rule) -> Self {
        let n: u64 = n.try_into().unwrap_or(u64::MAX);
        self.push(key, Value::Num(n as f64, n.to_string()), rule)
    }

    /// A count that must equal the committed one.
    pub fn exact(self, key: &str, n: impl TryInto<u64>) -> Self {
        self.count(key, n, Rule::Exact)
    }

    /// A count that may only shrink: the committed value is its ceiling.
    pub fn at_most(self, key: &str, n: impl TryInto<u64>) -> Self {
        self.count(key, n, Rule::AtMost)
    }

    /// A count that is written, never compared.
    pub fn info(self, key: &str, n: impl TryInto<u64>) -> Self {
        self.count(key, n, Rule::Info)
    }

    /// A measurement written with `decimals` decimals, never compared.
    pub fn num(self, key: &str, x: f64, decimals: usize) -> Self {
        self.push(key, Value::Num(x, format!("{x:.decimals$}")), Rule::Info)
    }

    /// A machine-dependent measurement with a committed ceiling: writes
    /// `ceil(x × margin)` (at least 1), and `--check` fails when a fresh
    /// `x` exceeds the committed ceiling.
    pub fn ceiling(self, key: &str, x: f64, margin: f64) -> Self {
        let ceiling = (x * margin).ceil().max(1.0);
        self.push(key, Value::Num(x, format!("{ceiling:.0}")), Rule::AtMost)
    }

    /// A nested object.
    pub fn obj(self, key: &str, inner: Record) -> Self {
        self.push(key, Value::Obj(inner.fields), Rule::Info)
    }

    /// An array.
    pub fn list(self, key: &str, items: Vec<Value>) -> Self {
        self.push(key, Value::List(items), Rule::Info)
    }

    /// The committed edge dump `crates/bench/golden/{file}`, which the
    /// `dump_edges` example writes in `mode` at `tables` tables, and
    /// which `dump` must equal.
    pub fn golden(mut self, file: &str, tables: usize, mode: &str, dump: String) -> Self {
        let path = format!("crates/bench/golden/{file}");
        let regen = format!(
            "cargo run --release -p mapsynth-bench --example dump_edges -- {path} {tables} {mode}"
        );
        self.golden = Some(Golden { path, regen, dump });
        self
    }
}

/// Render fields as the committed file format: an object at depth 0,
/// one entry per line, two spaces per depth, numbers as their text.
pub fn render(fields: &[Field]) -> String {
    let mut out = String::new();
    write_value(&mut out, &Value::Obj(fields.to_vec()), 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Value, depth: usize) {
    let (open, close, items): (char, char, Vec<(Option<&str>, &Value)>) = match value {
        Value::Num(_, text) => return out.push_str(text),
        Value::Obj(fields) => {
            let items = fields.iter().map(|f| (Some(f.key.as_str()), &f.value));
            ('{', '}', items.collect())
        }
        Value::List(values) => ('[', ']', values.iter().map(|v| (None, v)).collect()),
    };
    out.push(open);
    for (i, (key, item)) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            out.push_str(&format!("\"{key}\": "));
        }
        write_value(out, item, depth + 1);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// Read a committed file back into fields (every rule [`Rule::Info`]).
/// Accepts the subset of JSON [`render`] writes: objects, arrays and
/// numbers.
pub fn parse(text: &str) -> Result<Vec<Field>, String> {
    let mut rest = text;
    match parse_value(&mut rest)? {
        Value::Obj(fields) if rest.trim().is_empty() => Ok(fields),
        _ => Err("expected one JSON object".to_string()),
    }
}

/// Strip `c`, after any whitespace, off the front of `rest`.
fn expect(rest: &mut &str, c: char) -> Result<(), String> {
    let trimmed = rest.trim_start();
    let after = trimmed.strip_prefix(c);
    *rest = after.ok_or_else(|| format!("expected `{c}` at `{trimmed:.24}`"))?;
    Ok(())
}

fn parse_value(rest: &mut &str) -> Result<Value, String> {
    *rest = rest.trim_start();
    let close = match rest.chars().next() {
        Some('{') => '}',
        Some('[') => ']',
        _ => {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(rest.len());
            let text = &rest[..end];
            let x = text
                .parse()
                .map_err(|_| format!("expected a number at `{rest:.24}`"))?;
            *rest = &rest[end..];
            return Ok(Value::Num(x, text.to_string()));
        }
    };
    *rest = &rest[1..];
    let mut fields = Vec::new();
    loop {
        *rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(close) {
            *rest = after;
            break;
        }
        if !fields.is_empty() {
            expect(rest, ',')?;
        }
        let mut key = String::new();
        if close == '}' {
            expect(rest, '"')?;
            let end = rest.find('"').ok_or("unterminated key")?;
            key = rest[..end].to_string();
            *rest = &rest[end + 1..];
            expect(rest, ':')?;
        }
        let value = parse_value(rest)?;
        let rule = Rule::Info;
        fields.push(Field { key, value, rule });
    }
    Ok(if close == '}' {
        Value::Obj(fields)
    } else {
        Value::List(fields.into_iter().map(|f| f.value).collect())
    })
}

/// The value under `key` in an object's fields.
pub fn get<'a>(fields: &'a [Field], key: &str) -> Option<&'a Value> {
    fields.iter().find(|f| f.key == key).map(|f| &f.value)
}

/// The fields of `value` if it is an object; none otherwise.
fn fields_of(value: Option<&Value>) -> &[Field] {
    match value {
        Some(Value::Obj(fields)) => fields,
        _ => &[],
    }
}

/// The committed `scale_detail` point whose `"tables"` is `tables`.
pub fn scale_point(file: &[Field], tables: usize) -> Option<&[Field]> {
    let points = match get(fields_of(get(file, "scale_detail")), "points") {
        Some(Value::List(points)) => points.as_slice(),
        _ => &[],
    };
    let tables = tables as f64;
    let is_it = |p: &&[Field]| matches!(get(p, "tables"), Some(Value::Num(n, _)) if *n == tables);
    points.iter().map(|p| fields_of(Some(p))).find(is_it)
}

/// Compare a fresh record with the committed fields it covers and
/// describe every drift: an [`Rule::Exact`] field that differs, an
/// [`Rule::AtMost`] field above its committed ceiling, a compared field
/// the file lacks, a golden dump that differs from its file or whose
/// file cannot be read. [`Rule::Info`] fields are never compared.
pub fn check(committed: &[Field], record: &Record) -> Vec<String> {
    let mut drifts = Vec::new();
    check_fields(committed, &record.fields, "", &mut drifts);
    if let Some(g) = &record.golden {
        match std::fs::read_to_string(&g.path) {
            Ok(golden) if golden == g.dump => {}
            Ok(_) => drifts.push(format!(
                "{}: dump differs; regenerate via `{}` if intended",
                g.path, g.regen
            )),
            Err(e) => drifts.push(format!("{}: cannot read: {e}", g.path)),
        }
    }
    drifts
}

fn check_fields(committed: &[Field], fresh: &[Field], prefix: &str, drifts: &mut Vec<String>) {
    for field in fresh {
        let (key, old) = (format!("{prefix}{}", field.key), get(committed, &field.key));
        match (&field.value, field.rule, old) {
            (Value::Obj(inner), ..) => {
                check_fields(fields_of(old), inner, &format!("{key}."), drifts);
            }
            (Value::List(_), ..) | (_, Rule::Info, _) => {}
            (Value::Num(x, _), Rule::Exact, Some(Value::Num(c, old))) if x != c => {
                drifts.push(format!("{key}: expected {old}, got {x}"));
            }
            (Value::Num(x, _), Rule::AtMost, Some(Value::Num(c, old))) if x > c => {
                drifts.push(format!("{key}: {x} exceeds ceiling {old}"));
            }
            (_, _, Some(Value::Num(..))) => {}
            (Value::Num(..), ..) => drifts.push(format!("{key}: missing from the baseline")),
        }
    }
}

/// Which tier a `pipeline_baseline` invocation runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Tier {
    /// The batch, serving and delta baseline at this many tables.
    Baseline(usize),
    /// The growth curve up to this many tables, at these points.
    Scale(usize, Option<Vec<usize>>),
    /// One scale point (the curve's child process).
    ScalePoint(usize),
    /// The sustained row-delta stream.
    Stream,
    /// The fault-injection stream.
    Fault,
    /// The crash-recovery sweep and matrix.
    Recovery,
}

/// A parsed `pipeline_baseline` command line: the tier, the committed
/// file `--check` compares with, and where to write the record (it
/// always goes to stdout too).
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub tier: Tier,
    pub check: Option<String>,
    pub out: Option<String>,
}

/// The usage line printed on a malformed command line.
pub const USAGE: &str = "usage: pipeline_baseline [OUT [TABLES]] \
    | --tables N [--points A,B,..] [OUT] | --scale-point N \
    | --delta-stream [--faults] [OUT] | --recovery [OUT]; \
    every tier takes --check [PATH] in place of OUT";

/// The flags that pick a tier; only the first argument may be one.
const TIER_FLAGS: [&str; 4] = ["--tables", "--scale-point", "--delta-stream", "--recovery"];

/// Parse `pipeline_baseline`'s arguments. The first argument picks the
/// tier; `--check` takes the next argument as its path unless that
/// starts with `--` (default `BENCH_scale.json` for the scale tiers,
/// `BENCH_pipeline.json` otherwise). An unknown flag is an error.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter().map(String::as_str).peekable();
    let mut tier = match it.next_if(|a| TIER_FLAGS.contains(a)) {
        Some(flag @ ("--tables" | "--scale-point")) => {
            let n = it.next().and_then(|v| v.parse().ok());
            let n = n.ok_or_else(|| format!("{flag} needs a table count"))?;
            match flag {
                "--tables" => Tier::Scale(n, None),
                _ => Tier::ScalePoint(n),
            }
        }
        Some("--delta-stream") => Tier::Stream,
        Some(_) => Tier::Recovery,
        None => Tier::Baseline(600),
    };
    let (mut check, mut positional) = (None, Vec::new());
    while let Some(arg) = it.next() {
        match (arg, &mut tier) {
            ("--check", _) => {
                check = Some(it.next_if(|a| !a.starts_with("--")).map(str::to_string))
            }
            ("--faults", Tier::Stream) => tier = Tier::Fault,
            ("--points", Tier::Scale(_, points)) => {
                let list = it.next().ok_or("--points needs a comma-separated list")?;
                *points = Some(crate::parse_points(list)?);
            }
            (flag, _) if flag.starts_with("--") => {
                return Err(format!("unknown or misplaced flag `{flag}`"));
            }
            (value, _) => positional.push(value.to_string()),
        }
    }
    let mut positional = positional.into_iter();
    let out = positional.next();
    if let Tier::Baseline(tables) = &mut tier {
        if let Some(n) = positional.next() {
            *tables = n
                .parse()
                .map_err(|_| format!("`{n}` is not a table count"))?;
        }
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    if check.is_some() && out.is_some() {
        return Err("--check writes no output file".to_string());
    }
    let default = match tier {
        Tier::Scale(..) | Tier::ScalePoint(_) => "BENCH_scale.json",
        _ => "BENCH_pipeline.json",
    };
    let check = check.map(|path: Option<String>| path.unwrap_or_else(|| default.to_string()));
    Ok(Args { tier, check, out })
}
