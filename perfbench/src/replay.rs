//! The traced run's layer replay: the shard's batches go through a
//! standalone `Ltc` again, and each public function a layer exposes is
//! timed on its own. With one shard the shard's batches are the stream's
//! batches, cut at the same period boundaries.

use crate::runner::{baseline_table, Answers};
use crate::spec::{Workload, BATCH, CLOSING_TOPK_READS, K, SHARDS};
use crate::stream::Inputs;
use ltc_common::{ItemId, SignificanceQuery};
use ltc_core::obs::HealthAuditor;
use ltc_core::sharded::shard_of_id;
use ltc_core::{Ltc, LtcStats, RuntimeObs, SpscRing};
use ltc_hash::bob_hash_u64;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Full frames are taken at the first checkpoint and after every this many
/// deltas, as the default `DurabilityPolicy::full_every` does.
const FULL_EVERY: usize = 8;
/// Periods between replayed checkpoint encodes on every workload, so the
/// encode layer is measured on each workload's table.
const ENCODE_EVERY: usize = 5;

#[derive(Debug, Default)]
pub struct Replay {
    pub hash_ns_per_record: f64,
    pub route_ns_per_record: f64,
    pub insert_ns_per_record: f64,
    pub stats: LtcStats,
    pub capacity_cells: usize,
    pub end_period_us: Vec<f64>,
    pub snapshot_us: Vec<f64>,
    pub audit_us: Vec<f64>,
    pub topk_us: Vec<f64>,
    pub topk_candidates: usize,
    pub estimate_ns: Vec<f64>,
    pub full_encode_ms: Vec<f64>,
    pub delta_encode_ms: Vec<f64>,
    pub full_bytes: Vec<f64>,
    pub delta_bytes: Vec<f64>,
    pub dirty_buckets: Vec<f64>,
    pub restore_decode_ms: f64,
    pub answers: Option<Answers>,
}

fn lock(table: &Mutex<Ltc>) -> std::sync::MutexGuard<'_, Ltc> {
    table.lock().expect("replay table lock is never poisoned")
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Per-call ns of `Ltc::estimate` over a probe set (one call is a few ns,
/// below what a per-call clock read resolves).
fn estimate_ns(table: &Ltc, probes: &[ItemId]) -> (f64, Vec<Option<f64>>) {
    let start = Instant::now();
    let answers: Vec<Option<f64>> = probes
        .iter()
        .map(|&id| black_box(table.estimate(id)))
        .collect();
    let ns = start.elapsed().as_secs_f64() * 1e9 / probes.len().max(1) as f64;
    (ns, answers)
}

pub fn replay(workload: &Workload, inputs: &Inputs) -> Replay {
    let config = workload.config();
    let table = Arc::new(Mutex::new(baseline_table(config)));
    let tables = [Arc::clone(&table)];
    let obs = RuntimeObs::without_tracing();
    let mut auditor = HealthAuditor::new(&obs);
    let hash_seed = config.seed as u32;
    let mut out = Replay {
        capacity_cells: lock(&table).capacity_cells(),
        ..Replay::default()
    };
    let (mut hash_s, mut route_s, mut insert_s) = (0.0, 0.0, 0.0);
    let mut deltas_since_full = None::<usize>;

    for (p, period) in inputs.periods.iter().enumerate() {
        for batch in period.chunks(BATCH) {
            let start = Instant::now();
            let mut acc = 0u64;
            for &id in batch {
                acc ^= bob_hash_u64(id, hash_seed);
            }
            black_box(acc);
            hash_s += start.elapsed().as_secs_f64();

            // The shard count goes through `black_box`: with a constant 1
            // the compiler would drop the hash behind the `% 1`.
            let shards = black_box(SHARDS);
            let start = Instant::now();
            let mut acc = 0usize;
            for &id in batch {
                acc = acc.wrapping_add(shard_of_id(id, shards));
            }
            black_box(acc);
            route_s += start.elapsed().as_secs_f64();

            let mut t = lock(&table);
            let start = Instant::now();
            t.insert_batch(batch);
            insert_s += start.elapsed().as_secs_f64();
        }
        {
            let mut t = lock(&table);
            let start = Instant::now();
            t.end_period();
            out.end_period_us.push(us(start));
            // The runtime's worker snapshots its shard at every period
            // close, as its rollback point.
            let start = Instant::now();
            black_box(t.to_snapshot());
            out.snapshot_us.push(us(start));
        }
        let start = Instant::now();
        black_box(auditor.audit(&tables, (p + 1) as u64, 0, &obs));
        out.audit_us.push(us(start));

        let t = lock(&table);
        if workload.reads_every_period {
            let start = Instant::now();
            black_box(t.top_k(K));
            out.topk_us.push(us(start));
            out.estimate_ns
                .push(estimate_ns(&t, &inputs.period_probes[p]).0);
        }
        drop(t);
        if (p + 1) % ENCODE_EVERY == 0 {
            let mut t = lock(&table);
            match deltas_since_full {
                Some(n) if n < FULL_EVERY => {
                    out.dirty_buckets.push(t.dirty_bucket_count() as f64);
                    let start = Instant::now();
                    let frame = t.to_delta_snapshot();
                    out.delta_encode_ms.push(ms(start));
                    out.delta_bytes.push(frame.len() as f64);
                    deltas_since_full = Some(n + 1);
                }
                _ => {
                    let start = Instant::now();
                    let frame = t.to_checkpoint();
                    t.begin_delta_epoch();
                    out.full_encode_ms.push(ms(start));
                    out.full_bytes.push(frame.len() as f64);
                    deltas_since_full = Some(0);
                }
            }
        }
    }
    let records = inputs.total_records().max(1) as f64;
    out.hash_ns_per_record = hash_s * 1e9 / records;
    out.route_ns_per_record = route_s * 1e9 / records;
    out.insert_ns_per_record = insert_s * 1e9 / records;

    let mut t = lock(&table);
    t.finalize();
    out.stats = t.stats();
    out.topk_candidates = t.cells().filter(|c| c.occupied()).count();
    let mut top = Vec::new();
    for _ in 0..CLOSING_TOPK_READS {
        let start = Instant::now();
        top = t.top_k(K);
        out.topk_us.push(us(start));
    }
    let (ns, estimates) = estimate_ns(&t, &inputs.closing_probes);
    out.estimate_ns.push(ns);
    out.answers = Some(Answers { top, estimates });

    // In-memory decode of the final full frame into a fresh table.
    let frame = t.to_checkpoint();
    let mut fresh = baseline_table(config);
    let start = Instant::now();
    let restored = fresh.restore_checkpoint(&frame);
    out.restore_decode_ms = ms(start);
    if restored.is_err() {
        out.restore_decode_ms = f64::NAN;
    }
    out
}

/// Round trip of a 1024-id batch through two `SpscRing`s between two
/// threads: the hand-off cost the runtime pays per batch, in ns.
pub fn spsc_round_trip_ns(trips: usize) -> f64 {
    let there: SpscRing<Vec<ItemId>> = SpscRing::with_capacity(8);
    let back: SpscRing<Vec<ItemId>> = SpscRing::with_capacity(8);
    std::thread::scope(|s| {
        s.spawn(|| {
            while let Some(batch) = there.pop() {
                if batch.is_empty() {
                    break;
                }
                back.push(batch);
            }
        });
        let mut batch: Vec<ItemId> = (0..BATCH as u64).collect();
        let start = Instant::now();
        for _ in 0..trips {
            there.push(batch);
            batch = back.pop().expect("echo thread returns every batch");
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / trips.max(1) as f64;
        there.push(Vec::new());
        ns
    })
}
