//! Figure 9: scalability — pipeline runtime at 20/40/60/80/100% of the
//! input tables. The paper observes near-linear scaling because edge
//! sparsity keeps `|E|` almost linear in `|V|`.

use super::ExpConfig;
use crate::report::{emit, Table};
use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_corpus::Corpus;
use mapsynth_gen::generate_web;

/// Copy the first `k` tables of a corpus into a fresh corpus (the
/// interner is rebuilt so the subsample is self-contained).
pub fn subsample(corpus: &Corpus, k: usize) -> Corpus {
    let mut out = Corpus::new();
    // Preserve domain ids by re-registering names in order.
    for name in &corpus.domain_names {
        out.domain(name);
    }
    for table in corpus.tables.iter().take(k) {
        let columns: Vec<(Option<&str>, Vec<&str>)> = table
            .columns
            .iter()
            .map(|c| {
                (
                    c.header.map(|h| corpus.str_of(h)),
                    c.values.iter().map(|&v| corpus.str_of(v)).collect(),
                )
            })
            .collect();
        out.push_table(table.domain, columns);
    }
    out
}

/// One measurement row.
pub struct ScalePoint {
    /// Input fraction (0.2 … 1.0).
    pub fraction: f64,
    /// Tables in the subsample.
    pub tables: usize,
    /// Candidates after extraction.
    pub candidates: usize,
    /// Graph edges.
    pub edges: usize,
    /// Total pipeline seconds.
    pub total_s: f64,
}

/// Run the scalability sweep and emit Figure 9.
pub fn run(cfg: &ExpConfig) -> Vec<ScalePoint> {
    let wc = generate_web(&cfg.web_config());
    let full = wc.corpus;
    let mut points = Vec::new();
    for pct in [20usize, 40, 60, 80, 100] {
        let k = full.len() * pct / 100;
        let sub = subsample(&full, k);
        let out = SynthesisSession::new(PipelineConfig {
            workers: cfg.workers,
            ..Default::default()
        })
        .run(&sub);
        points.push(ScalePoint {
            fraction: pct as f64 / 100.0,
            tables: k,
            candidates: out.candidates,
            edges: out.edges,
            total_s: out.timings.total.as_secs_f64(),
        });
    }
    let mut t = Table::new(&["input_pct", "tables", "candidates", "edges", "runtime_s"]);
    for p in &points {
        t.row(vec![
            format!("{:.0}", p.fraction * 100.0),
            p.tables.to_string(),
            p.candidates.to_string(),
            p.edges.to_string(),
            format!("{:.2}", p.total_s),
        ]);
    }
    emit(
        &cfg.out_dir,
        "fig9_scalability",
        "Figure 9: runtime vs input fraction",
        &t,
    );
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsample_preserves_content() {
        let mut c = Corpus::new();
        let d = c.domain("x.org");
        c.push_table(d, vec![(Some("h"), vec!["a", "b"])]);
        c.push_table(d, vec![(None, vec!["c"])]);
        let s = subsample(&c, 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.domain_names, c.domain_names);
        let t = &s.tables[0];
        assert_eq!(s.str_of(t.columns[0].values[0]), "a");
        assert_eq!(s.str_of(t.columns[0].header.unwrap()), "h");
    }
}
