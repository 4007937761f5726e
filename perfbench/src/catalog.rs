//! Every metric the benchmark emits: its unit, its better direction, and for
//! a per-layer metric the layer it measures, the end-to-end metric it should
//! move and the workload where that shows. `BENCHMARK.json` declares the
//! same names, units and directions; `test_perfbench.py` checks they agree.

use crate::json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// A per-layer metric plus the prediction it carries.
pub struct LayerMetric {
    pub metric: Metric,
    pub layer: &'static str,
    /// The end-to-end metric(s) a change in this layer should move.
    pub moves: &'static str,
    /// The workload where that movement shows.
    pub workload: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[Metric] = &[
    m("ingest_mops", "Mops", Higher),
    m("scalar_mops", "Mops", Higher),
    m("setup_s", "s", Lower),
    m("period_close_us_p50", "us", Lower),
    m("period_close_us_p90", "us", Lower),
    m("topk_us_p50", "us", Lower),
    m("topk_us_p90", "us", Lower),
    m("estimate_us_p50", "us", Lower),
    m("estimate_us_p99", "us", Lower),
    m("checkpoint_ms_p50", "ms", Lower),
    m("restore_ms", "ms", Lower),
    m("precision", "ratio", Higher),
    m("are", "ratio", Lower),
    m("runtime_peak_mib", "MiB", Lower),
];

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
    workload: &'static str,
) -> LayerMetric {
    LayerMetric {
        metric: m(name, unit, better),
        layer,
        moves,
        workload,
    }
}

const INGEST: &str = "ingest_mops";
const SCALAR_INGEST: &str = "scalar_mops, ingest_mops";
const CLOSE: &str = "period_close_us_p50, period_close_us_p90";
const TOPK: &str = "topk_us_p50, topk_us_p90";
const DURABLE: &str = "checkpoint_ms_p50, restore_ms";
const ESTIMATE: &str = "estimate_us_p50, estimate_us_p99";
const ZI: &str = "zipf-ingest";
const ZI_CP: &str = "zipf-ingest (hits), churn-periods (misses)";
const CP: &str = "churn-periods";
const SD: &str = "serve-durable";

#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    l("hash.ns_per_record", "ns", Lower, "ltc-hash", SCALAR_INGEST, ZI),
    l("sharded.route_ns_per_record", "ns", Lower, "sharded", INGEST, ZI),
    l("table.insert_ns_per_record", "ns", Lower, "table", "scalar_mops", ZI_CP),
    l("table.hit_share", "ratio", Higher, "cell", "scalar_mops", ZI_CP),
    l("table.fill_share", "ratio", Higher, "cell", "scalar_mops", ZI_CP),
    l("table.decrement_share", "ratio", Lower, "cell", "scalar_mops", ZI_CP),
    l("table.admission_share", "ratio", Lower, "cell", "scalar_mops", ZI_CP),
    l("clock.end_period_us", "us", Lower, "clock", CLOSE, CP),
    l("clock.cells_swept_per_record", "cells/record", Lower, "clock", CLOSE, CP),
    l("clock.harvest_share", "ratio", Lower, "clock", CLOSE, CP),
    l("snapshot.encode_us", "us", Lower, "snapshot", CLOSE, CP),
    l("obs.audit_us", "us", Lower, "obs", CLOSE, CP),
    l("obs.dropped_spans", "count", Lower, "obs", CLOSE, CP),
    l("pipeline.insert_ns_per_record", "ns", Lower, "pipeline", INGEST, ZI),
    l("pipeline.worker_busy_share", "ratio", Lower, "pipeline", INGEST, ZI),
    l("pipeline.barrier_wait_us_p50", "us", Lower, "pipeline", CLOSE, CP),
    l("spsc.push_pop_ns", "ns", Lower, "spsc", INGEST, ZI),
    l("spsc.stalls_per_mrecord", "count/Mrecord", Lower, "spsc", INGEST, ZI),
    l("spsc.queue_depth_p50", "batches", Lower, "spsc", INGEST, ZI),
    l("query.topk_table_us", "us", Lower, "query", TOPK, SD),
    l("query.topk_candidates", "count", Lower, "query", TOPK, SD),
    l("query.drain_us", "us", Lower, "query", TOPK, SD),
    l("query.estimate_table_ns", "ns", Lower, "query", ESTIMATE, SD),
    l("checkpoint.full_encode_ms", "ms", Lower, "checkpoint", DURABLE, SD),
    l("checkpoint.delta_encode_ms", "ms", Lower, "checkpoint", DURABLE, SD),
    l("checkpoint.full_bytes", "bytes", Lower, "checkpoint", DURABLE, SD),
    l("checkpoint.delta_bytes", "bytes", Lower, "checkpoint", DURABLE, SD),
    l("checkpoint.dirty_buckets", "count", Lower, "checkpoint", DURABLE, SD),
    l("checkpoint.save_ms_p50", "ms", Lower, "durability", DURABLE, SD),
    l("checkpoint.restore_decode_ms", "ms", Lower, "checkpoint", "restore_ms", SD),
    l("trace.unattributed_share", "ratio", Lower, "trace", "none (coverage check)", "all"),
    l("trace.overhead_ratio", "ratio", Higher, "trace", "none (information)", "all"),
];

/// The catalogue as JSON, for `--describe`.
pub fn describe_json() -> String {
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":{},\"unit\":{},\"better\":{}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better.as_str())
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|l| {
            format!(
                "{{\"name\":{},\"unit\":{},\"better\":{},\"layer\":{},\"moves\":{},\"workload\":{}}}",
                json::string(l.metric.name),
                json::string(l.metric.unit),
                json::string(l.metric.better.as_str()),
                json::string(l.layer),
                json::string(l.moves),
                json::string(l.workload)
            )
        })
        .collect();
    let workloads: Vec<String> = crate::spec::WORKLOADS.iter().map(|w| w.to_json()).collect();
    format!(
        "{{\"end_to_end\":[{}],\"per_layer\":[{}],\"workloads\":[{}]}}",
        e2e.join(","),
        layers.join(","),
        workloads.join(",")
    )
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter().map(|l| &l.metric))
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_result_format() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter().map(|l| &l.metric))
            .map(|m| m.name)
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric name is used twice");
        for m in END_TO_END.iter().chain(PER_LAYER.iter().map(|l| &l.metric)) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.len() <= 64 && m.name.chars().all(ok), "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            let unit_ok = |c: char| ok(c) || "/%".contains(c);
            assert!(
                m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
                "{}",
                m.unit
            );
        }
    }
}
