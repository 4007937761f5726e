//! Measured cost of the observability layer on the parallel ingestion hot
//! path. Runs the identical Zipf workload through `ParallelLtc` three
//! ways — observability off (`with_observability(..., None)`), metrics
//! only (`RuntimeObs::without_tracing()`), and the full default
//! (`RuntimeObs::new()`: metrics + span tracing) — and writes
//! `BENCH_obs.json` (repo root) with the relative overhead of each
//! instrumented column against off. The contract is ≤ 2% for both.
//!
//! ```sh
//! cargo run --release -p ltc-bench --bin obs_overhead
//! LTC_SCALE=10 cargo run --release -p ltc-bench --bin obs_overhead   # quick look
//! ```
//!
//! The instrumentation design keeps this cheap by construction: two
//! `Instant` reads plus a handful of `Relaxed` atomic adds per 256-record
//! batch, and a stall counter only on the already-parking slow path. The
//! `obs_hot_path` rule of `cargo run -p xtask -- lint` pins that contract
//! lexically; this bench pins it numerically.

use ltc_bench::scale;
use ltc_common::Weights;
use ltc_core::obs::RuntimeObs;
use ltc_core::{LtcConfig, ParallelLtc, Variant};
use ltc_workloads::generator::zipf_samples;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Paper-scale workload: 10M Zipf(1.0) records over 100 periods.
const RECORDS: usize = 10_000_000;
const DISTINCT: usize = 1_000_000;
const PERIODS: usize = 100;
const SKEW: f64 = 1.0;
/// Interleaved on/off run pairs; the minimum of each side is reported.
const REPS: usize = 5;

const THREADS: usize = 4;
const BATCH: usize = 256;

#[derive(Serialize)]
struct Host {
    cpus: u64,
    os: String,
    arch: String,
}

#[derive(Serialize)]
struct Workload {
    records: u64,
    distinct: u64,
    periods: u64,
    zipf_skew: f64,
    seed: u64,
    scale_divisor: u64,
    threads: u64,
    batch_size: u64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    host: Host,
    workload: Workload,
    /// Ingestion throughput with observability off.
    metrics_off_mops: f64,
    /// Ingestion throughput with metrics only (`without_tracing`).
    metrics_on_mops: f64,
    /// Ingestion throughput with the full default `RuntimeObs` attached
    /// (metrics + span tracing).
    trace_on_mops: f64,
    /// Relative slowdown of metrics-on vs metrics-off, in percent
    /// (negative = within noise).
    overhead_percent: f64,
    /// Relative slowdown of trace-on vs metrics-off, in percent.
    trace_overhead_percent: f64,
    /// The contract each instrumented column is held to.
    budget_percent: f64,
    within_budget: bool,
}

fn config(per_period: usize, buckets: usize) -> LtcConfig {
    LtcConfig::builder()
        .buckets(buckets)
        .cells_per_bucket(8)
        .records_per_period(per_period as u64)
        .weights(Weights::BALANCED)
        .variant(Variant::FULL)
        .seed(7)
        .build()
}

fn main() {
    let s = scale() as usize;
    let records = (RECORDS / s).max(PERIODS);
    let distinct = (DISTINCT / s).max(1_000);
    let per_period = records / PERIODS;
    let buckets = (25_000 / s).max(64);
    eprintln!(
        "[gen] {records} Zipf({SKEW}) records, {distinct} distinct, {PERIODS} periods, \
         {buckets}x8 cells, {THREADS} threads, batch {BATCH}"
    );
    let stream = zipf_samples(records, distinct as u64, SKEW, 42);

    let run = |obs: Option<Arc<RuntimeObs>>| -> f64 {
        let mut pipeline =
            ParallelLtc::with_observability(config(per_period, buckets), THREADS, BATCH, obs);
        let start = Instant::now();
        for period in stream.chunks(per_period) {
            pipeline.insert_batch(period);
            pipeline.end_period().expect("no shard faults");
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(pipeline.into_sharded().expect("no shard faults"));
        secs
    };

    // Warm-up triple (page cache, thread spawn paths), then interleave the
    // measured triples so frequency scaling and background noise hit all
    // sides alike.
    let _ = run(None);
    let _ = run(Some(Arc::new(RuntimeObs::without_tracing())));
    let _ = run(Some(Arc::new(RuntimeObs::new())));
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut best_trace = f64::INFINITY;
    let mut on_ratios = Vec::with_capacity(REPS);
    let mut trace_ratios = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let off = run(None);
        let on = run(Some(Arc::new(RuntimeObs::without_tracing())));
        let trace = run(Some(Arc::new(RuntimeObs::new())));
        eprintln!("[rep {rep}] off {off:.3}s  metrics {on:.3}s  trace {trace:.3}s");
        best_off = best_off.min(off);
        best_on = best_on.min(on);
        best_trace = best_trace.min(trace);
        on_ratios.push(on / off);
        trace_ratios.push(trace / off);
    }

    // Overhead is the *median of per-rep ratios*: each rep's three runs are
    // adjacent in time, so slow drift (thermal, co-tenants) cancels inside
    // the ratio instead of pitting a cold rep of one column against a hot
    // rep of another. Throughput columns still report the per-column best.
    let median = |ratios: &mut Vec<f64>| -> f64 {
        ratios.sort_unstable_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    };
    let metrics_off_mops = records as f64 / best_off / 1e6;
    let metrics_on_mops = records as f64 / best_on / 1e6;
    let trace_on_mops = records as f64 / best_trace / 1e6;
    let overhead_percent = (median(&mut on_ratios) - 1.0) * 100.0;
    let trace_overhead_percent = (median(&mut trace_ratios) - 1.0) * 100.0;
    let budget_percent = 2.0;
    let within_budget =
        overhead_percent <= budget_percent && trace_overhead_percent <= budget_percent;
    eprintln!(
        "[result] off {metrics_off_mops:.2} Mops, metrics {metrics_on_mops:.2} Mops \
         ({overhead_percent:+.2}%), trace {trace_on_mops:.2} Mops \
         ({trace_overhead_percent:+.2}%) — budget {budget_percent}%"
    );

    let report = Report {
        bench: "obs_overhead".to_string(),
        host: Host {
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        },
        workload: Workload {
            records: records as u64,
            distinct: distinct as u64,
            periods: PERIODS as u64,
            zipf_skew: SKEW,
            seed: 42,
            scale_divisor: s as u64,
            threads: THREADS as u64,
            batch_size: BATCH as u64,
        },
        metrics_off_mops,
        metrics_on_mops,
        trace_on_mops,
        overhead_percent,
        trace_overhead_percent,
        budget_percent,
        within_budget,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    let path = "BENCH_obs.json";
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_obs.json");
    eprintln!("[emit] wrote {path}");
    println!("{json}");
    if !within_budget {
        eprintln!("[fail] observability overhead exceeds the {budget_percent}% budget");
        std::process::exit(1);
    }
}
