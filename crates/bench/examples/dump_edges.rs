//! Golden-output dump: the full edge list (weights at 17 significant
//! digits) of the bench-corpus compatibility graph, for byte-identity
//! verification across scoring refactors:
//!
//! ```text
//! cargo run --release -p mapsynth-bench --example dump_edges -- OUT [TABLES] [--delta | --stream | --faults]
//! ```
//!
//! A trailing mode takes the dump after the standard 5% delta
//! (`mapsynth_bench::post_delta_edge_dump`), after the sustained
//! row-delta stream (`post_stream_edge_dump`) or after the
//! fault-injection stream (`fault::post_fault_stream_edge_dump`). The
//! committed goldens under `crates/bench/golden/` are these three
//! modes; `pipeline_baseline --check` prints the command that
//! regenerates one when it drifts.

use mapsynth::pipeline::{PipelineConfig, SynthesisSession};
use mapsynth_bench::fault::{post_fault_stream_edge_dump, FAULT_STREAM_DELTAS};
use mapsynth_bench::{format_edges, post_delta_edge_dump, post_stream_edge_dump, STREAM_DELTAS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tables: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(600);
    let mode = |flag: &str| args.iter().any(|a| a == flag);
    let path = args.first().cloned().unwrap_or_else(|| "edges.txt".into());

    let (out, label) = if mode("--faults") {
        let out = post_fault_stream_edge_dump(tables, FAULT_STREAM_DELTAS);
        (out, " (post-fault-stream)")
    } else if mode("--stream") {
        (
            post_stream_edge_dump(tables, STREAM_DELTAS),
            " (post-stream)",
        )
    } else if mode("--delta") {
        (post_delta_edge_dump(tables), " (post-delta)")
    } else {
        let wc = mapsynth_bench::bench_corpus(tables);
        let mut session = SynthesisSession::new(PipelineConfig::default());
        session.prepare(&wc.corpus);
        (
            format_edges(&session.graph(&session.config().synthesis)),
            "",
        )
    };
    std::fs::write(&path, &out).unwrap();
    eprintln!("wrote {} edges to {path}{label}", out.lines().count());
}
