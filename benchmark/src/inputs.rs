//! The load generator: every input a workload feeds the program under
//! test is made here from the run's seed, and the program receives only
//! the generated inputs.
//!
//! What the seed varies and what it does not: the *content* of the web
//! corpora is pinned ([`CORPUS_SEED`]) and the seed decides the order
//! the tables arrive in, every delta of the stream, the tables a crawl
//! adds, every probe key and every request. Corpora drawn from
//! different generator seeds differ in cost by ±7 % at 12 000 tables
//! and ±20 % at 1 000 (measured: candidates, blocked pairs and edges
//! move that much), which is wider than the bounds the metrics carry;
//! with the content pinned, two seeds give the program different inputs
//! of the same difficulty.

use mapsynth_corpus::{Corpus, TableId};
use mapsynth_gen::{generate_web, Registry, WebConfig};
use mapsynth_serve::{DeltaRequest, PatchSpec, TableSpec};
use std::collections::HashSet;

/// Generator seed of every web corpus the benchmark builds.
pub const CORPUS_SEED: u64 = 42;

/// SplitMix64: the benchmark's own generator, so the op streams do not
/// change when the vendored `rand` stand-in is swapped for the real one.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, purpose)`.
    pub fn new(seed: u64, purpose: &str) -> Self {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A web corpus with the ground truth it was drawn from.
pub struct WebInput {
    pub corpus: Corpus,
    pub registry: Registry,
    /// Normalized ground-truth pairs some generated table asserts.
    pub attested: HashSet<(String, String)>,
}

/// One table as plain strings: what the delta stream edits and what a
/// corpus is rebuilt from.
#[derive(Clone, Debug, PartialEq)]
pub struct PlainTable {
    pub key: u64,
    pub domain: String,
    pub columns: Vec<(Option<String>, Vec<String>)>,
}

impl PlainTable {
    fn rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, v)| v.len())
    }

    fn row(&self, r: usize) -> Vec<String> {
        self.columns.iter().map(|(_, v)| v[r].clone()).collect()
    }

    fn delete_row(&mut self, tuple: &[String]) {
        let at = (0..self.rows())
            .find(|&r| self.columns.iter().zip(tuple).all(|((_, v), c)| &v[r] == c))
            .expect("deleted row was sampled from this table");
        for (_, v) in &mut self.columns {
            v.remove(at);
        }
    }

    fn insert_row(&mut self, tuple: &[String]) {
        for ((_, v), cell) in self.columns.iter_mut().zip(tuple) {
            v.push(cell.clone());
        }
    }

    fn spec(&self) -> TableSpec {
        TableSpec {
            key: self.key,
            domain: self.domain.clone(),
            columns: self.columns.clone(),
        }
    }
}

/// Table `id` of `corpus` as plain strings, under `key`.
pub fn plain_table(corpus: &Corpus, id: TableId, key: u64) -> PlainTable {
    let table = corpus.table(id);
    PlainTable {
        key,
        domain: corpus.domain_names[table.domain.0 as usize].clone(),
        columns: table
            .columns
            .iter()
            .map(|c| {
                (
                    c.header.map(|h| corpus.str_of(h).to_string()),
                    c.values
                        .iter()
                        .map(|&v| corpus.str_of(v).to_string())
                        .collect(),
                )
            })
            .collect(),
    }
}

/// Every table of `corpus`, keyed by its position.
pub fn plain_tables(corpus: &Corpus) -> Vec<PlainTable> {
    (0..corpus.len() as u32)
        .map(|i| plain_table(corpus, TableId(i), u64::from(i)))
        .collect()
}

/// Append a table given as plain strings.
pub fn push_plain(
    corpus: &mut Corpus,
    domain: &str,
    columns: &[(Option<String>, Vec<String>)],
) -> TableId {
    let d = corpus.domain(domain);
    let columns = columns
        .iter()
        .map(|(h, vs)| (h.as_deref(), vs.iter().map(String::as_str).collect()))
        .collect();
    corpus.push_table(d, columns)
}

pub fn corpus_of(tables: &[PlainTable]) -> Corpus {
    let mut corpus = Corpus::new();
    for t in tables {
        push_plain(&mut corpus, &t.domain, &t.columns);
    }
    corpus
}

/// The pinned web corpus of `tables` relation-backed tables, its tables
/// in the order `seed` shuffles them into.
pub fn web_corpus(tables: usize, seed: u64) -> WebInput {
    let generated = generate_web(&WebConfig {
        tables,
        seed: CORPUS_SEED,
        ..Default::default()
    });
    let mut plain = plain_tables(&generated.corpus);
    Rng::new(seed, "table order").shuffle(&mut plain);
    WebInput {
        corpus: corpus_of(&plain),
        registry: generated.registry,
        attested: generated.emitted_pairs,
    }
}

/// The stream's schedule: which kind of delta stands at which position.
/// It repeats block after block and is the same for every seed, so that
/// every seed's corpus grows and shrinks at the same positions — a patch
/// costs more the larger the corpus is, and with kinds drawn by the seed
/// a 200-table corpus was 30 % larger for one seed than for another
/// halfway down the stream (ack medians 13–20 % apart). The seed draws
/// what a delta hits: which table, which row, which edit, which crawled
/// tables.
///
/// Per block of 50: 46 single-row patches (92 %), two five-table
/// "crawl" additions (4 %), one table removal (2 %) and one re-insertion
/// of a removed table (2 %).
const BLOCK: usize = 50;
const CRAWL_AT: [usize; 2] = [10, 35];
const REMOVE_AT: usize = 22;
const REINSERT_AT: usize = 47;
/// Tables one "crawl" delta adds.
pub const CRAWL_TABLES: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    Patch,
    Remove,
    Add,
}

/// A delta stream over `corpus`: `count` well-formed requests, each
/// valid against the tables the earlier ones leave, with the tables
/// that are live after the last one. Keys of the initial tables are
/// their positions.
pub struct DeltaStream {
    pub requests: Vec<(DeltaKind, DeltaRequest)>,
    pub live: Vec<PlainTable>,
}

pub fn delta_stream(corpus: &Corpus, count: usize, seed: u64) -> DeltaStream {
    let mut rng = Rng::new(seed, "delta ops");
    let mut live = plain_tables(corpus);
    // Tables a crawl adds come from a second generated corpus over the
    // same registry, its content pinned like the first one's; the seed
    // decides the order they arrive in.
    let crawl_deltas = count.div_ceil(BLOCK) * CRAWL_AT.len();
    let mut crawl = plain_tables(
        &generate_web(&WebConfig {
            tables: crawl_deltas * CRAWL_TABLES,
            seed: CORPUS_SEED + 1,
            ..Default::default()
        })
        .corpus,
    );
    rng.shuffle(&mut crawl);
    let mut removed: Vec<PlainTable> = Vec::new();
    let mut next_key = 1_000_000u64;
    let mut fresh_key = || {
        next_key += 1;
        next_key
    };
    let mut requests = Vec::with_capacity(count);
    for seq in 0..count {
        let slot = seq % BLOCK;
        let (kind, request) = if CRAWL_AT.contains(&slot) && crawl.len() >= CRAWL_TABLES {
            let mut add = Vec::with_capacity(CRAWL_TABLES);
            for mut t in crawl.drain(crawl.len() - CRAWL_TABLES..) {
                t.key = fresh_key();
                add.push(t.spec());
                live.push(t);
            }
            (
                DeltaKind::Add,
                DeltaRequest {
                    add,
                    ..Default::default()
                },
            )
        } else if slot == REINSERT_AT && !removed.is_empty() {
            let mut t = removed.remove(0);
            t.key = fresh_key();
            let add = vec![t.spec()];
            live.push(t);
            (
                DeltaKind::Add,
                DeltaRequest {
                    add,
                    ..Default::default()
                },
            )
        } else if slot == REMOVE_AT && live.len() > 1 {
            let t = live.remove(rng.below(live.len()));
            let remove = vec![t.key];
            removed.push(t);
            (
                DeltaKind::Remove,
                DeltaRequest {
                    remove,
                    ..Default::default()
                },
            )
        } else {
            let at = rng.below(live.len());
            let t = &mut live[at];
            let rows = t.rows();
            // delete / insert / edit / touch in equal shares; an empty
            // table can only take an insert.
            let (deleted, inserted) = match (rng.below(4), rows) {
                (1, _) | (_, 0) => {
                    let fresh = (0..t.columns.len())
                        .map(|c| format!("delta {seq} cell {c}"))
                        .collect();
                    (vec![], vec![fresh])
                }
                (0, _) => (vec![t.row(rng.below(rows))], vec![]),
                (2, _) => {
                    let row = t.row(rng.below(rows));
                    let mut edited = row.clone();
                    let c = rng.below(edited.len());
                    edited[c] = format!("{} rev {seq}", edited[c]);
                    (vec![row], vec![edited])
                }
                _ => {
                    let row = t.row(rng.below(rows));
                    (vec![row.clone()], vec![row])
                }
            };
            for tuple in &deleted {
                t.delete_row(tuple);
            }
            for tuple in &inserted {
                t.insert_row(tuple);
            }
            (
                DeltaKind::Patch,
                DeltaRequest {
                    patches: vec![PatchSpec {
                        key: t.key,
                        deleted,
                        inserted,
                    }],
                    ..Default::default()
                },
            )
        };
        requests.push((kind, request));
    }
    DeltaStream { requests, live }
}

const SYLLABLES: [&str; 24] = [
    "ka", "lo", "mi", "ren", "sta", "vor", "tel", "qui", "nas", "bro", "dex", "fyn", "gal", "hur",
    "jin", "pel", "ost", "ria", "sun", "tav", "ulm", "wex", "yar", "zed",
];

fn word(rng: &mut Rng, syllables: usize) -> String {
    (0..syllables)
        .map(|_| SYLLABLES[rng.below(SYLLABLES.len())])
        .collect()
}

/// The normalized form of a generated serving key and one of the raw
/// spellings applications send for it: mixed case, punctuation and
/// stray whitespace, so that `normalize` has real work to do.
fn raw_spelling(rng: &mut Rng, words: &[String]) -> String {
    let seps = [" ", "-", "  ", ", ", ".", " / "];
    let mut out = String::from(if rng.below(3) == 0 { "  " } else { "" });
    for (i, w) in words.iter().enumerate() {
        if i > 0 {
            out.push_str(seps[rng.below(seps.len())]);
        }
        match rng.below(3) {
            0 => out.push_str(&w.to_uppercase()),
            1 => {
                let mut chars = w.chars();
                if let Some(first) = chars.next() {
                    out.extend(first.to_uppercase());
                    out.push_str(chars.as_str());
                }
            }
            _ => out.push_str(w),
        }
    }
    match rng.below(4) {
        0 => out.push_str("[1]"),
        1 => out.push_str(" *"),
        2 => out.push(' '),
        _ => {}
    }
    out
}

/// One probe of the serving index.
pub struct Probe {
    pub raw: String,
    /// The normalized right value a present key must translate to.
    pub expect: Option<String>,
}

/// Inputs of the serving workload.
pub struct ServeInput {
    /// Raw `(left, right)` pairs per mapping, as `add_raw` takes them.
    pub mappings: Vec<Vec<(String, String)>>,
    /// Half present (uniform over mappings), half absent, shuffled.
    pub probes: Vec<Probe>,
    /// Column requests of [`REQUEST_WIDTH`] raw values, a quarter of
    /// them noise no mapping holds.
    pub requests: Vec<Vec<String>>,
}

pub const REQUEST_WIDTH: usize = 32;

pub fn serve_input(
    mappings: usize,
    pairs: usize,
    probes: usize,
    requests: usize,
    seed: u64,
) -> ServeInput {
    let mut rng = Rng::new(seed, "serve keys");
    // Key m/p is three random words plus a serial that makes it unique.
    let mut words: Vec<Vec<Vec<String>>> = Vec::with_capacity(mappings);
    let mut built = Vec::with_capacity(mappings);
    for m in 0..mappings {
        let mut keys = Vec::with_capacity(pairs);
        let mut rows = Vec::with_capacity(pairs);
        for p in 0..pairs {
            let key = vec![word(&mut rng, 2), word(&mut rng, 3), format!("{m}x{p}")];
            // The serial keeps right values distinct too, so a snapshot
            // holds exactly two values per pair.
            let right = format!("{}-{m:03}-{p:03}", word(&mut rng, 1).to_uppercase());
            rows.push((raw_spelling(&mut rng, &key), right));
            keys.push(key);
        }
        words.push(keys);
        built.push(rows);
    }
    let mut probe_rng = Rng::new(seed, "serve probes");
    let present = |rng: &mut Rng| {
        let m = rng.below(mappings);
        let p = rng.below(pairs);
        Probe {
            raw: raw_spelling(rng, &words[m][p]),
            expect: Some(mapsynth_text::normalize(&built[m][p].1)),
        }
    };
    let absent = |rng: &mut Rng, i: usize| {
        let key = [word(rng, 2), word(rng, 3), format!("none{i}")];
        Probe {
            raw: raw_spelling(rng, &key),
            expect: None,
        }
    };
    let mut probe_set: Vec<Probe> = (0..probes)
        .map(|i| {
            if i % 2 == 0 {
                present(&mut probe_rng)
            } else {
                absent(&mut probe_rng, i)
            }
        })
        .collect();
    probe_rng.shuffle(&mut probe_set);
    let mut request_rng = Rng::new(seed, "serve requests");
    let requests = (0..requests)
        .map(|r| {
            // A column comes from one mapping, as a real column does.
            let m = request_rng.below(mappings);
            (0..REQUEST_WIDTH)
                .map(|i| {
                    if i % 4 == 3 {
                        absent(&mut request_rng, r * REQUEST_WIDTH + i).raw
                    } else {
                        let p = request_rng.below(pairs);
                        raw_spelling(&mut request_rng, &words[m][p])
                    }
                })
                .collect()
        })
        .collect();
    ServeInput {
        mappings: built,
        probes: probe_set,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapsynth_text::normalize;

    #[test]
    fn rng_streams_are_reproducible_and_independent() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(42, "x");
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(42, "x");
            move || r.next_u64()
        })
        .take(4)
        .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(42, "y").next_u64());
        assert_ne!(a[0], Rng::new(7, "x").next_u64());
        let mut r = Rng::new(1, "below");
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn seed_reorders_the_corpus_without_changing_its_content() {
        let (a, b, c) = (web_corpus(60, 42), web_corpus(60, 42), web_corpus(60, 7));
        assert_eq!(plain_tables(&a.corpus), plain_tables(&b.corpus));
        assert_ne!(plain_tables(&a.corpus), plain_tables(&c.corpus));
        let content = |w: &WebInput| {
            let mut t: Vec<_> = plain_tables(&w.corpus)
                .into_iter()
                .map(|t| (t.domain, t.columns))
                .collect();
            t.sort();
            t
        };
        assert_eq!(content(&a), content(&c));
        assert_eq!(a.attested, c.attested);
    }

    #[test]
    fn same_seed_gives_the_same_delta_stream() {
        let corpus = web_corpus(80, 42).corpus;
        let render = |seed| {
            let s = delta_stream(&corpus, 300, seed);
            (format!("{:?}", s.requests), s.live)
        };
        assert_eq!(render(42), render(42));
        assert_ne!(render(42).0, render(7).0);
    }

    #[test]
    fn delta_stream_has_the_stated_mix_and_stays_valid() {
        let corpus = web_corpus(120, 42).corpus;
        let stream = delta_stream(&corpus, 1000, 42);
        let count = |k| {
            stream
                .requests
                .iter()
                .filter(|(kind, _)| *kind == k)
                .count()
        };
        let (patches, removes, adds) = (
            count(DeltaKind::Patch),
            count(DeltaKind::Remove),
            count(DeltaKind::Add),
        );
        // Twenty blocks of 46 patches, 2 crawls + 1 re-insertion, 1 removal.
        assert_eq!((patches, removes, adds), (920, 20, 60));
        let kinds = |s: &DeltaStream| s.requests.iter().map(|(k, _)| *k).collect::<Vec<_>>();
        assert_eq!(
            kinds(&stream),
            kinds(&delta_stream(&corpus, 1000, 7)),
            "the schedule is the same for every seed"
        );
        // Replaying the requests over the plain tables reproduces `live`.
        let mut shadow = plain_tables(&corpus);
        for (_, r) in &stream.requests {
            for key in &r.remove {
                let at = shadow.iter().position(|t| t.key == *key).expect("live key");
                shadow.remove(at);
            }
            for p in &r.patches {
                let t = shadow
                    .iter_mut()
                    .find(|t| t.key == p.key)
                    .expect("live key");
                p.deleted.iter().for_each(|row| t.delete_row(row));
                p.inserted.iter().for_each(|row| t.insert_row(row));
            }
            for t in &r.add {
                assert!(shadow.iter().all(|s| s.key != t.key), "duplicate key");
                shadow.push(PlainTable {
                    key: t.key,
                    domain: t.domain.clone(),
                    columns: t.columns.clone(),
                });
            }
        }
        assert_eq!(shadow, stream.live);
    }

    #[test]
    fn serve_probes_are_half_present_and_spelled_differently() {
        let input = serve_input(8, 50, 400, 20, 42);
        let stored: std::collections::HashMap<String, String> = input
            .mappings
            .iter()
            .flatten()
            .map(|(l, r)| (normalize(l), normalize(r)))
            .collect();
        assert_eq!(stored.len(), 400, "generated keys must be distinct");
        let present = input.probes.iter().filter(|p| p.expect.is_some()).count();
        assert_eq!(present, 200);
        for p in &input.probes {
            assert_eq!(stored.get(&normalize(&p.raw)), p.expect.as_ref());
        }
        assert!(input.probes.iter().any(|p| p.raw != normalize(&p.raw)));
        for column in &input.requests {
            assert_eq!(column.len(), REQUEST_WIDTH);
            let hits = column
                .iter()
                .filter(|v| stored.contains_key(&normalize(v)))
                .count();
            assert_eq!(hits, REQUEST_WIDTH * 3 / 4);
        }
    }
}
