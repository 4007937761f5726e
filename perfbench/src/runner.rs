//! One round of each path over the same inputs: the one-thread `Ltc`
//! baseline and the closed loop that drives the `ParallelLtc` runtime the
//! way its users do.

use crate::spec::{
    durability_policy, Workload, BATCH, CLOSING_ESTIMATE_PASSES, CLOSING_TOPK_READS, K, SHARDS,
};
use crate::stream::Inputs;
use crate::trace::Trace;
use ltc_common::{Estimate, SignificanceQuery};
use ltc_core::obs::{labels, Gauge, HistogramSnapshot, MetricValue};
use ltc_core::{Checkpointer, DurabilityService, Ltc, LtcConfig, ParallelLtc, ShardedLtc};
use std::path::Path;
use std::time::Instant;

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The table `ShardedLtc::new(config, 1)` builds: the runtime's only shard,
/// so the baseline and the runtime can be compared bit for bit.
pub fn baseline_table(config: LtcConfig) -> Ltc {
    ShardedLtc::new(config, SHARDS)
        .into_shards()
        .pop()
        .expect("ShardedLtc::new builds at least one shard")
}

/// What a path answered at the end of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct Answers {
    pub top: Vec<Estimate>,
    pub estimates: Vec<Option<f64>>,
}

impl Answers {
    /// First difference from `other`, comparing values bit for bit.
    pub fn diff(&self, other: &Answers) -> Option<String> {
        if self.top.len() != other.top.len() {
            return Some(format!(
                "top-k length {} vs {}",
                self.top.len(),
                other.top.len()
            ));
        }
        for (i, (a, b)) in self.top.iter().zip(&other.top).enumerate() {
            if a.id != b.id || a.value.to_bits() != b.value.to_bits() {
                return Some(format!("top-k rank {i}: {a:?} vs {b:?}"));
            }
        }
        for (i, (a, b)) in self.estimates.iter().zip(&other.estimates).enumerate() {
            if a.map(f64::to_bits) != b.map(f64::to_bits) {
                return Some(format!("estimate of probe {i}: {a:?} vs {b:?}"));
            }
        }
        None
    }
}

pub struct ScalarRound {
    pub wall_s: f64,
    pub answers: Answers,
}

/// Feed the stream through one `Ltc` on this thread: `insert_batch` per
/// batch, `end_period` per period, `finalize` at the end.
pub fn scalar_round(config: LtcConfig, inputs: &Inputs) -> ScalarRound {
    let mut ltc = baseline_table(config);
    let start = Instant::now();
    for period in &inputs.periods {
        for batch in period.chunks(BATCH) {
            ltc.insert_batch(batch);
        }
        ltc.end_period();
    }
    ltc.finalize();
    let wall_s = start.elapsed().as_secs_f64();
    let answers = Answers {
        top: ltc.top_k(K),
        estimates: inputs
            .closing_probes
            .iter()
            .map(|&id| ltc.estimate(id))
            .collect(),
    };
    ScalarRound { wall_s, answers }
}

/// Series read from the runtime's `ltc_*` registry at the end of a round.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    pub batch_insert_ns_sum: u64,
    pub barrier_wait_ns: Option<HistogramSnapshot>,
    pub queue_stalls: u64,
    pub save_ns: Option<HistogramSnapshot>,
    pub dropped_spans: u64,
}

fn read_registry(rt: &ParallelLtc) -> Registry {
    let mut reg = Registry::default();
    let Some(obs) = rt.obs() else {
        return reg;
    };
    // Rendering syncs the trace-loss gauges into the registry.
    let _ = obs.render_prometheus();
    for family in obs.registry().snapshot() {
        for series in &family.series {
            match (family.name.as_str(), &series.value) {
                ("ltc_shard_batch_insert_ns", MetricValue::Histogram(h)) => {
                    reg.batch_insert_ns_sum += h.sum;
                }
                ("ltc_barrier_wait_ns", MetricValue::Histogram(h)) => {
                    reg.barrier_wait_ns = Some(h.clone());
                }
                ("ltc_shard_queue_stalls_total", MetricValue::Counter(c)) => {
                    reg.queue_stalls += c;
                }
                // Full, compaction and delta saves, pooled.
                ("ltc_checkpoint_save_ns" | "ltc_delta_save_ns", MetricValue::Histogram(h)) => {
                    reg.save_ns = Some(match reg.save_ns.take() {
                        None => h.clone(),
                        Some(mut acc) => {
                            for (a, b) in acc.buckets.iter_mut().zip(&h.buckets) {
                                *a += b;
                            }
                            acc.count += h.count;
                            acc.sum = acc.sum.wrapping_add(h.sum);
                            acc
                        }
                    });
                }
                ("ltc_trace_dropped_spans", MetricValue::Gauge(g)) => reg.dropped_spans = *g,
                _ => {}
            }
        }
    }
    reg
}

#[derive(Debug, Default)]
pub struct RuntimeRound {
    pub setup_s: f64,
    /// Wall time of the runtime loop: every period's ingest, close, reads
    /// and checkpoints, then `finish`.
    pub loop_s: f64,
    pub loop_start: Option<Instant>,
    pub loop_end: Option<Instant>,
    pub records: usize,
    pub insert_s: f64,
    pub close_us: Vec<f64>,
    pub topk_us: Vec<f64>,
    pub estimate_us: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    /// `sync` before each closing `try_top_k` (traced rounds only).
    pub sync_us: Vec<f64>,
    pub restore_ms: f64,
    /// Peak live heap bytes above the level just before set-up.
    pub peak_heap_delta: usize,
    /// The top `accuracy_k(config)` items, for precision and ARE.
    pub accuracy_top: Vec<Estimate>,
    pub answers: Option<Answers>,
    /// Calls and records attempted.
    pub attempted: u64,
    /// `Err` results plus records the runtime reports lost.
    pub failed: u64,
    /// Output-check failures (restored runtime differs from the live one).
    pub mismatches: Vec<String>,
    pub registry: Registry,
    /// `ltc_shard_queue_depth` sampled after every `insert_batch` (traced
    /// rounds only).
    pub queue_depth: Vec<f64>,
}

impl RuntimeRound {
    fn outcome<T, E>(&mut self, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }
}

/// Build a runtime and attach its durability service: the set-up cost.
pub fn set_up(
    config: LtcConfig,
    dir: &Path,
) -> Result<(ParallelLtc, DurabilityService), ltc_core::CheckpointError> {
    let store = Checkpointer::new(dir)?;
    let rt = ParallelLtc::with_batch_size(config, SHARDS, BATCH);
    let svc = DurabilityService::attach(&rt, store, durability_policy())?;
    Ok((rt, svc))
}

/// One closed-loop round on a fresh runtime. `dir` must not hold frames of
/// an earlier round.
pub fn runtime_round<T: Trace>(
    workload: &Workload,
    inputs: &Inputs,
    dir: &Path,
    tr: &mut T,
) -> Result<RuntimeRound, String> {
    let config = workload.config();
    let mut r = RuntimeRound::default();
    let heap_before = crate::alloc::live();
    crate::alloc::reset_peak();

    let t0 = Instant::now();
    let (mut rt, mut svc) = set_up(config, dir).map_err(|e| format!("set-up failed: {e}"))?;
    let t1 = Instant::now();
    tr.leaf("setup", t0, t1);
    r.setup_s = (t1 - t0).as_secs_f64();

    let depth: Option<Gauge> = if T::ON {
        rt.obs().map(|obs| {
            obs.registry()
                .gauge("ltc_shard_queue_depth", "", labels([("shard", "0")]))
        })
    } else {
        None
    };

    let loop_start = Instant::now();
    for (p, period) in inputs.periods.iter().enumerate() {
        tr.open("period", Instant::now());
        for batch in period.chunks(BATCH) {
            let a = Instant::now();
            rt.insert_batch(batch);
            let b = Instant::now();
            tr.leaf("insert_batch", a, b);
            r.insert_s += (b - a).as_secs_f64();
            if let Some(g) = &depth {
                r.queue_depth.push(g.get() as f64);
            }
        }
        r.records += period.len();
        r.attempted += period.len() as u64;

        let a = Instant::now();
        let closed = rt.end_period();
        let b = Instant::now();
        tr.leaf("end_period", a, b);
        r.close_us.push(us(b - a));
        r.outcome(closed);

        if workload.reads_every_period {
            let a = Instant::now();
            let top = rt.try_top_k(K);
            let b = Instant::now();
            tr.leaf("try_top_k", a, b);
            r.topk_us.push(us(b - a));
            r.outcome(top);
            for &id in &inputs.period_probes[p] {
                let a = Instant::now();
                let est = rt.try_estimate(id);
                let b = Instant::now();
                tr.leaf("try_estimate", a, b);
                r.estimate_us.push(us(b - a));
                r.outcome(est);
            }
        }
        if (p + 1) % workload.checkpoint_every == 0 {
            let a = Instant::now();
            let saved = svc.checkpoint_now();
            let b = Instant::now();
            tr.leaf("checkpoint_now", a, b);
            r.checkpoint_ms.push(us(b - a) / 1e3);
            r.outcome(saved);
        }
        tr.close(Instant::now());
    }
    let a = Instant::now();
    let finished = rt.finish();
    let loop_end = Instant::now();
    tr.leaf("finish", a, loop_end);
    r.outcome(finished);
    r.loop_s = (loop_end - loop_start).as_secs_f64();
    r.loop_start = Some(loop_start);
    r.loop_end = Some(loop_end);
    // The barrier histogram as the loop left it: the closing read's
    // thousands of no-op drains would otherwise bury the period barriers.
    let loop_barrier = if T::ON {
        read_registry(&rt).barrier_wait_ns
    } else {
        None
    };

    // Closing read: the answers the output check compares.
    tr.open("closing_read", Instant::now());
    let mut top = Vec::new();
    for _ in 0..CLOSING_TOPK_READS {
        if T::ON {
            // The drain `try_top_k` starts with, timed on its own.
            let a = Instant::now();
            let synced = rt.sync();
            let b = Instant::now();
            tr.leaf("sync", a, b);
            r.sync_us.push(us(b - a));
            r.outcome(synced);
        }
        let a = Instant::now();
        let result = rt.try_top_k(K);
        let b = Instant::now();
        tr.leaf("try_top_k", a, b);
        r.topk_us.push(us(b - a));
        if let Some(t) = r.outcome(result) {
            top = t;
        }
    }
    let mut estimates = Vec::new();
    for _ in 0..CLOSING_ESTIMATE_PASSES {
        estimates.clear();
        for &id in &inputs.closing_probes {
            let a = Instant::now();
            let result = rt.try_estimate(id);
            let b = Instant::now();
            tr.leaf("try_estimate", a, b);
            r.estimate_us.push(us(b - a));
            estimates.push(r.outcome(result).flatten());
        }
    }
    tr.close(Instant::now());
    let live = Answers { top, estimates };

    // Closing checkpoint, then restore into a fresh runtime.
    let a = Instant::now();
    let saved = svc.checkpoint_now();
    let b = Instant::now();
    tr.leaf("checkpoint_now", a, b);
    r.checkpoint_ms.push(us(b - a) / 1e3);
    r.outcome(saved);
    // The runtime's own peak ends here: the accuracy report and the second
    // runtime below are the benchmark's.
    r.peak_heap_delta = crate::alloc::peak().saturating_sub(heap_before);
    if let Some(top) = r.outcome(rt.try_top_k(accuracy_k(&config))) {
        r.accuracy_top = top;
    }
    svc.stop();

    let mut fresh = ParallelLtc::with_batch_size(config, SHARDS, BATCH);
    let a = Instant::now();
    let restored = fresh.restore_from(svc.store());
    let b = Instant::now();
    tr.leaf("restore_from", a, b);
    r.restore_ms = us(b - a) / 1e3;
    r.outcome(restored);
    let restored_answers = Answers {
        top: fresh.try_top_k(K).unwrap_or_default(),
        estimates: inputs
            .closing_probes
            .iter()
            .map(|&id| fresh.try_estimate(id).ok().flatten())
            .collect(),
    };
    if let Some(d) = restored_answers.diff(&live) {
        r.mismatches
            .push(format!("restored runtime differs from the live one: {d}"));
    }

    r.failed += rt
        .health()
        .iter()
        .chain(fresh.health().iter())
        .map(|h| match h {
            ltc_core::ShardHealth::Healthy { records_lost, .. }
            | ltc_core::ShardHealth::Lossy { records_lost, .. } => *records_lost,
        })
        .sum::<u64>();
    r.registry = Registry {
        barrier_wait_ns: loop_barrier,
        ..read_registry(&rt)
    };
    r.answers = Some(live);
    drop(fresh);
    drop(rt);
    Ok(r)
}

/// Size of the top-k the accuracy metrics judge: the whole table. At
/// k = 100 LTC is exact on every workload here (precision 1, ARE 0), and a
/// metric that reads 0 cannot bound a regression as a share of itself. On
/// the 4096-cell zipf-ingest table only a handful of items are inexact at
/// any smaller k, so ARE there moved by a quarter or more from seed to seed.
pub fn accuracy_k(config: &LtcConfig) -> usize {
    config.total_cells()
}

/// Tie-aware precision and ARE (the paper's Section V metrics) of a
/// reported top-k against the exact oracle, at k = `top.len()` requested.
pub fn accuracy(inputs: &Inputs, top: &[Estimate], k: usize) -> (f64, f64) {
    let weights = crate::spec::weights();
    let truth = inputs.oracle.top_k(k, &weights);
    (
        ltc_eval::metrics::tie_aware_precision(top, &truth, &inputs.oracle, &weights),
        ltc_eval::metrics::are(top, k, &inputs.oracle, &weights),
    )
}
