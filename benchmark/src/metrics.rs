//! The metrics the benchmark defines — the same lists `BENCHMARK.json`
//! carries (a test holds the two together) — and the record a run
//! fills in.

use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// The workload that measures it at full scale; the other three
    /// measure it at probe scale.
    pub home: &'static str,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    home: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        home,
    }
}

pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Lower, 0.25, "all"),
    e2e("peak_rss_mb", "MB", Lower, 0.15, "all"),
    e2e("synth_s", "s", Lower, 0.25, "batch_synth"),
    e2e("quality_f1", "f1", Higher, 0.02, "batch_synth"),
    e2e("sweep_s", "s", Lower, 0.25, "variant_sweep"),
    e2e("ack_p50_ms", "ms", Lower, 0.25, "delta_stream"),
    e2e("ack_p95_ms", "ms", Lower, 0.25, "delta_stream"),
    e2e("ingest_deltas_per_s", "1/s", Higher, 0.25, "delta_stream"),
    e2e("recover_s", "s", Lower, 0.25, "delta_stream"),
    e2e("churn_read_p50_us", "us", Lower, 0.25, "delta_stream"),
    e2e("snapshot_build_s", "s", Lower, 0.25, "serve_lookup"),
    e2e("lookup_qps", "1/s", Higher, 0.25, "serve_lookup"),
    e2e("request_p50_us", "us", Lower, 0.25, "serve_lookup"),
    e2e("request_p99_us", "us", Lower, 0.25, "serve_lookup"),
];

/// A metric of one layer, from the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: [PerLayer; 105] = [
    // batch phase → synth_s
    layer("extract.extraction_s", "s", Lower, "synth_s"),
    layer("core.values.build_s", "s", Lower, "synth_s"),
    layer("core.scoring_s", "s", Lower, "synth_s"),
    layer("core.blocking.build_s", "s", Lower, "synth_s"),
    layer("core.compat.index_build_s", "s", Lower, "synth_s"),
    layer("core.approx.memo_s", "s", Lower, "synth_s"),
    layer("core.compat.merge_join_s", "s", Lower, "synth_s"),
    layer("core.session.synthesize_s", "s", Lower, "synth_s"),
    layer("serve.snapshot.build_s", "s", Lower, "synth_s"),
    layer("serve.service.publish_s", "s", Lower, "synth_s"),
    layer("corpus.index.build_s", "s", Lower, "synth_s"),
    layer("corpus.stats.coherence_s", "s", Lower, "synth_s"),
    layer("extract.filters.fd_s", "s", Lower, "synth_s"),
    layer("extract.other_s", "s", Lower, "synth_s"),
    layer("text.normalize_corpus_ns", "ns", Lower, "synth_s"),
    layer("text.editdist.myers_ns", "ns", Lower, "synth_s"),
    layer("mapreduce.par_map_ns_per_item", "ns", Lower, "synth_s"),
    layer("extract.candidates", "count", Lower, "synth_s"),
    layer("extract.prune_rate", "ratio", Higher, "synth_s"),
    layer("corpus.stats.sketch_rejects", "count", Higher, "synth_s"),
    layer("corpus.stats.list_probes", "count", Lower, "synth_s"),
    layer(
        "corpus.stats.sketch_resolve_rate",
        "ratio",
        Higher,
        "synth_s",
    ),
    layer("extract.filters.fd_pass_rate", "ratio", Lower, "synth_s"),
    layer("core.values.values", "count", Lower, "synth_s"),
    layer("core.blocking.pairs", "count", Lower, "synth_s"),
    layer("core.approx.candidate_pairs", "count", Lower, "synth_s"),
    layer("core.approx.dp_calls", "count", Lower, "synth_s"),
    layer("core.approx.filter_pass_rate", "ratio", Lower, "synth_s"),
    layer("core.graph.edges", "count", Lower, "synth_s"),
    layer("core.partition.partitions", "count", Lower, "synth_s"),
    layer("core.session.mappings", "count", Higher, "synth_s"),
    layer(
        "core.session.rss_after_extraction_mb",
        "MB",
        Lower,
        "peak_rss_mb",
    ),
    layer(
        "core.session.rss_after_scoring_mb",
        "MB",
        Lower,
        "peak_rss_mb",
    ),
    layer("batch.extract_share", "ratio", Lower, "synth_s"),
    layer("batch.scoring_share", "ratio", Lower, "synth_s"),
    layer("batch.tail_share", "ratio", Lower, "synth_s"),
    layer("batch.unattributed_share", "ratio", Lower, "synth_s"),
    layer("batch.trace_overhead", "ratio", Lower, "synth_s"),
    // sweep phase → sweep_s
    layer("core.session.weights_for_ms", "ms", Lower, "sweep_s"),
    layer("core.graph.build_ms", "ms", Lower, "sweep_s"),
    layer("core.partition.partition_ms", "ms", Lower, "sweep_s"),
    layer("core.conflict.resolve_ms", "ms", Lower, "sweep_s"),
    layer("core.conflict.alg4_ms", "ms", Lower, "sweep_s"),
    layer("core.conflict.majority_ms", "ms", Lower, "sweep_s"),
    layer("core.conflict.none_ms", "ms", Lower, "sweep_s"),
    layer("core.graph.edges.t50", "count", Lower, "sweep_s"),
    layer("core.graph.edges.t70", "count", Lower, "sweep_s"),
    layer("core.graph.edges.t85", "count", Lower, "sweep_s"),
    layer("core.graph.edges.t95", "count", Lower, "sweep_s"),
    layer("core.partition.partitions.t50", "count", Lower, "sweep_s"),
    layer("core.partition.partitions.t70", "count", Lower, "sweep_s"),
    layer("core.partition.partitions.t85", "count", Lower, "sweep_s"),
    layer("core.partition.partitions.t95", "count", Lower, "sweep_s"),
    layer("core.session.mappings.t50", "count", Higher, "sweep_s"),
    layer("core.session.mappings.t70", "count", Higher, "sweep_s"),
    layer("core.session.mappings.t85", "count", Higher, "sweep_s"),
    layer("core.session.mappings.t95", "count", Higher, "sweep_s"),
    layer("sweep.unattributed_share", "ratio", Lower, "sweep_s"),
    layer("sweep.trace_overhead", "ratio", Lower, "sweep_s"),
    // delta phase → ack_*, ingest_deltas_per_s, recover_s, churn_read_p50_us
    layer("serve.persist.wal_append_ms", "ms", Lower, "ack_p50_ms"),
    layer("core.delta.apply_ms", "ms", Lower, "ack_p50_ms"),
    layer("core.delta.apply_p95_ms", "ms", Lower, "ack_p95_ms"),
    layer("core.delta.extraction_ms", "ms", Lower, "ack_p50_ms"),
    layer("core.delta.values_ms", "ms", Lower, "ack_p50_ms"),
    layer("core.delta.blocking_ms", "ms", Lower, "ack_p50_ms"),
    layer("core.delta.scoring_ms", "ms", Lower, "ack_p50_ms"),
    layer("core.delta.apply_patch_ms", "ms", Lower, "ack_p50_ms"),
    layer("core.delta.apply_add_ms", "ms", Lower, "ack_p95_ms"),
    layer("core.delta.apply_remove_ms", "ms", Lower, "ack_p50_ms"),
    layer("corpus.table.evolve_ms", "ms", Lower, "ack_p50_ms"),
    layer("core.session.compaction_due_ms", "ms", Lower, "ack_p50_ms"),
    layer("core.session.synthesize_ms", "ms", Lower, "ack_p95_ms"),
    layer("serve.service.publish_delta_ms", "ms", Lower, "ack_p95_ms"),
    layer(
        "serve.service.rebuilt_shard_share",
        "ratio",
        Lower,
        "ack_p95_ms",
    ),
    layer(
        "serve.persist.archive_ms",
        "ms",
        Lower,
        "ingest_deltas_per_s",
    ),
    layer(
        "core.session.compact_ms",
        "ms",
        Lower,
        "ingest_deltas_per_s",
    ),
    layer(
        "core.session.compactions",
        "count",
        Lower,
        "ingest_deltas_per_s",
    ),
    layer("serve.ingest.overhead_ms", "ms", Lower, "ack_p50_ms"),
    layer(
        "serve.persist.disk_bytes_per_delta",
        "B",
        Lower,
        "recover_s",
    ),
    layer("serve.persist.wal_records", "count", Lower, "recover_s"),
    layer("serve.persist.replayed", "count", Lower, "recover_s"),
    layer("serve.persist.archive_load_s", "s", Lower, "recover_s"),
    layer(
        "serve.service.snapshot_ns",
        "ns",
        Lower,
        "churn_read_p50_us",
    ),
    layer(
        "serve.snapshot.churn_read_p99_us",
        "us",
        Lower,
        "churn_read_p50_us",
    ),
    layer("delta.unattributed_share", "ratio", Lower, "ack_p50_ms"),
    layer("delta.trace_overhead", "ratio", Lower, "ack_p50_ms"),
    // serve phase → lookup_qps, request_*, snapshot_build_s
    layer("text.normalize_key_ns", "ns", Lower, "lookup_qps"),
    layer("serve.snapshot.lookup_ns", "ns", Lower, "lookup_qps"),
    layer("serve.snapshot.lookup_norm_ns", "ns", Lower, "lookup_qps"),
    layer("serve.snapshot.hit_ns", "ns", Lower, "lookup_qps"),
    layer("serve.snapshot.miss_ns", "ns", Lower, "lookup_qps"),
    layer(
        "serve.snapshot.lookup_many_ns_per_key",
        "ns",
        Lower,
        "lookup_qps",
    ),
    layer(
        "serve.snapshot.translate_column_us",
        "us",
        Lower,
        "request_p50_us",
    ),
    layer(
        "serve.snapshot.rank_by_containment_us",
        "us",
        Lower,
        "request_p50_us",
    ),
    layer(
        "serve.snapshot.autocorrect_us",
        "us",
        Lower,
        "request_p99_us",
    ),
    layer("serve.snapshot.add_s", "s", Lower, "snapshot_build_s"),
    layer("serve.snapshot.finalize_s", "s", Lower, "snapshot_build_s"),
    layer("serve.service.install_s", "s", Lower, "snapshot_build_s"),
    layer("serve.snapshot.bytes_per_value", "B", Lower, "peak_rss_mb"),
    layer("serve.snapshot.hit_rate", "ratio", Higher, "lookup_qps"),
    layer(
        "serve.snapshot.lookup_qps_small",
        "1/s",
        Higher,
        "lookup_qps",
    ),
    layer(
        "serve.snapshot.lookup_qps_2t",
        "1/s",
        Higher,
        "churn_read_p50_us",
    ),
    layer("serve.unattributed_share", "ratio", Lower, "request_p50_us"),
    layer("serve.trace_overhead", "ratio", Lower, "request_p50_us"),
    layer("trace.span_cost_ns", "ns", Lower, "setup_s"),
];

/// What one run measured.
#[derive(Default)]
pub struct Record {
    pub end_to_end: Vec<(&'static str, Summary)>,
    pub per_layer: Vec<(&'static str, f64)>,
}

impl Record {
    pub fn e2e(&mut self, name: &'static str, summary: Summary) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name),
            "undeclared {name}"
        );
        self.end_to_end.push((name, summary));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "undeclared {name}"
        );
        self.per_layer.push((name, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        for m in &PER_LAYER {
            assert!(
                END_TO_END.iter().any(|e| e.name == m.moves),
                "{} moves unknown metric {}",
                m.name,
                m.moves
            );
        }
    }

    /// `BENCHMARK.json` sits at the repo root, outside this package; it
    /// is the contract the driver reads, and it must say what the code
    /// says.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.as_str().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);
        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(listed, ours);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
