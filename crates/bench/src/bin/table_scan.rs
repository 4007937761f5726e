//! Bucket-probe microbench: the struct-of-arrays table layout against the
//! retained array-of-structs reference, per bucket width.
//!
//! ```sh
//! cargo run --release -p ltc-bench --bin table_scan                  # aos + soa
//! LTC_SCALE=50 cargo run --release -p ltc-bench --bin table_scan     # quick look
//! ```
//!
//! Every record probes one bucket (find-match, then find-empty or
//! find-min-significance), so ingest throughput over a fixed Zipf stream
//! *is* bucket-probe throughput. Both layouts are fed through their
//! batched path (`insert_batch`, batch 256) — the production hot path,
//! where hashes are computed up front and the upcoming bucket is
//! prefetched — so the measurement compares the *scans*, not each
//! layout's exposure to demand misses. The sweep holds the total cell
//! count constant while varying `d` ∈ {4, 8, 16}: wider buckets mean
//! longer scans per probe, which is exactly where the lane layout pays.
//!
//! The table is sized to stay L2-resident (512 KiB) *by design*: this is
//! a scan microbench, and once the table spills into L3 both layouts
//! bottleneck on the same ~2 demand lines per probe and their throughputs
//! converge toward the memory subsystem's, drowning the scan difference
//! the bench exists to measure (observed on this host: a 4 MiB table
//! compresses the d = 8 ratio from ~1.2 to ~1.0). The distinct-item count
//! still exceeds table capacity ~4×, so the full case mix — hits, fills,
//! decrements, admissions — is exercised at production proportions; the
//! memory-bound regime at realistic table scale is the end-to-end
//! `pipeline_speed` bench's job, gated separately via
//! `BENCH_pipeline.json`.
//!
//! Reps are *paired*: each rep times the AoS reference and the SoA table
//! back-to-back, and the comparison ratio is the median of the per-rep
//! ratios — on a single-CPU host with seconds-scale noise windows, pairing
//! is the difference between measuring the layouts and measuring the
//! neighbours (see [`measure_paired`]).
//!
//! Layouts measured on the *identical* stream (equivalence is separately
//! proven by `crates/core/tests/soa_equivalence.rs`):
//!
//! * `aos_reference` — [`ReferenceLtc`], the faithful pre-refactor
//!   array-of-structs table.
//! * `soa` — [`Ltc`], the lane layout with autovectorized safe scans.
//!
//! Writes `BENCH_table.json` (repo root), gated in CI by
//! `cargo run -p xtask -- bench-compare`.

use ltc_bench::scale;
use ltc_common::Weights;
use ltc_core::reference::ReferenceLtc;
use ltc_core::{Ltc, LtcConfig, Variant};
use ltc_workloads::generator::zipf_samples;
use serde::Serialize;
use std::time::Instant;

/// 8M Zipf(1.0) records: heavy hitters exercise find-match hits, the long
/// tail exercises vacancy scans and full-bucket minimum scans. The stream
/// is long relative to the table so each rep runs ~0.5 s — short reps were
/// the dominant noise source on this single-CPU host.
const RECORDS: usize = 8_000_000;
/// ~4× table capacity: enough distinct items that evictions (cases 2–3)
/// stay at production proportions, small enough that the hot head of the
/// Zipf distribution keeps the hit path dominant.
const DISTINCT: usize = 125_000;
const PERIODS: usize = 50;
const SKEW: f64 = 1.0;
/// Total cells, constant across the `d` sweep. 2^15 cells = 512 KiB per
/// table — L2-resident on purpose, so reps measure scan throughput rather
/// than L3 latency (see the module doc).
const TOTAL_CELLS: usize = 1 << 15;
const D_SWEEP: [usize; 3] = [4, 8, 16];
/// Hand-off batch for both layouts' `insert_batch` (the pipeline's
/// production default).
const BATCH: usize = 256;
/// Paired runs per configuration (odd, so the median rep is a real rep).
/// Each layout reports its best rep; the comparison ratio is the median of
/// the per-rep *paired* ratios — see [`measure_paired`].
const REPS: usize = 5;

const OUT_PATH: &str = "BENCH_table.json";

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
    total_cells: u64,
    batch_size: u64,
    scale_divisor: u64,
}

#[derive(Serialize)]
struct SweepPoint {
    cells_per_bucket: u64,
    buckets: u64,
    /// Array-of-structs reference table, probes (= records) per second / 1e6.
    aos_reference_mops: f64,
    /// Struct-of-arrays table, safe autovectorized scans.
    soa_mops: f64,
    /// Median of the per-rep *paired* soa/aos ratios — not
    /// `soa_mops / aos_reference_mops`, whose best reps may come from
    /// different noise windows (see [`measure_paired`]).
    soa_vs_aos: f64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    host: Host,
    workload: Workload,
    sweep: Vec<SweepPoint>,
}

fn mops(records: usize, secs: f64) -> f64 {
    records as f64 / secs / 1e6
}

fn time(run: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    run();
    start.elapsed().as_secs_f64()
}

/// Paired comparison: each rep times the AoS reference and the SoA table
/// back-to-back on the identical stream, so the seconds-scale noise windows
/// of this single-CPU host (±10–20 % observed) land on *both* sides of a
/// rep instead of on whichever layout happened to be running. Returns each
/// layout's best-rep throughput plus the **median of the per-rep time
/// ratios** — the paired ratio is what the acceptance gate reads, because
/// best-rep throughputs may come from different noise windows and their
/// quotient then measures the host, not the layouts.
fn measure_paired(
    records: usize,
    mut run_aos: impl FnMut(),
    mut run_soa: impl FnMut(),
) -> (f64, f64, f64) {
    let mut aos_best = f64::INFINITY;
    let mut soa_best = f64::INFINITY;
    let mut ratios = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let a = time(&mut run_aos);
        let s = time(&mut run_soa);
        aos_best = aos_best.min(a);
        soa_best = soa_best.min(s);
        // Time ratio aos/soa == throughput ratio soa/aos.
        ratios.push(a / s);
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios.get(REPS / 2).copied().unwrap_or(f64::NAN);
    (mops(records, aos_best), mops(records, soa_best), median)
}

fn config(buckets: usize, d: usize, per_period: usize) -> LtcConfig {
    LtcConfig::builder()
        .buckets(buckets)
        .cells_per_bucket(d)
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
    let total_cells = (TOTAL_CELLS / s).max(1_024);
    let per_period = records / PERIODS;
    eprintln!(
        "[gen] {records} Zipf({SKEW}) records, {distinct} distinct, {PERIODS} periods, \
         {total_cells} cells"
    );
    let stream = zipf_samples(records, distinct as u64, SKEW, 42);

    let mut sweep = Vec::new();
    for d in D_SWEEP {
        let buckets = (total_cells / d).max(1);
        eprintln!("[run] d={d} ({buckets} buckets): aos_reference / soa, {REPS} paired reps");
        let (aos_reference_mops, soa_mops, soa_vs_aos) = measure_paired(
            records,
            || {
                let mut t = ReferenceLtc::new(config(buckets, d, per_period));
                for period in stream.chunks(per_period) {
                    for chunk in period.chunks(BATCH) {
                        t.insert_batch(chunk);
                    }
                    t.end_period();
                }
                std::hint::black_box(&t);
            },
            || {
                let mut t = Ltc::new(config(buckets, d, per_period));
                for period in stream.chunks(per_period) {
                    for chunk in period.chunks(BATCH) {
                        t.insert_batch(chunk);
                    }
                    t.end_period();
                }
                std::hint::black_box(&t);
            },
        );
        eprintln!(
            "       aos {aos_reference_mops:.2} Mops, soa {soa_mops:.2} Mops \
             ({soa_vs_aos:.2}x median paired)"
        );

        sweep.push(SweepPoint {
            cells_per_bucket: d as u64,
            buckets: buckets as u64,
            aos_reference_mops,
            soa_mops,
            soa_vs_aos,
        });
    }

    let report = Report {
        bench: "table_scan".to_string(),
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
            total_cells: total_cells as u64,
            batch_size: BATCH as u64,
            scale_divisor: s as u64,
        },
        sweep,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(OUT_PATH, format!("{json}\n")).expect("write BENCH_table.json");
    eprintln!("[emit] wrote {OUT_PATH}");
    println!("{json}");
}
