//! Layered benchmark of the LTC runtime. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench --describe
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. A full record (host fingerprint, workload parameters, seed,
//! threads) is written under `--out`.

mod alloc;
mod catalog;
mod host;
mod json;
mod replay;
mod runner;
mod spec;
mod stats;
mod stream;
mod trace;

use runner::{runtime_round, scalar_round, set_up, RuntimeRound};
use spec::{Workload, SHARDS};
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use stream::Inputs;
use trace::{NoTrace, SpanLog};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups timed before the rounds; `setup_s` is their median.
const SETUPS: usize = 15;
/// Set-ups run first and not timed: the first few pay for process start-up.
const WARM_UP_SETUPS: usize = 3;
/// Largest share of the producer's loop wall time that the traced run's
/// top-level spans may leave uncovered.
const COVERAGE_GAP: f64 = 0.05;
/// Scalar passes per round run until they add up to this many seconds.
const SCALAR_SECONDS_PER_ROUND: f64 = 1.0;
/// Batches sent round trip by the SPSC measurement.
const SPSC_TRIPS: usize = 20_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = argv.next() {
        if flag == "--describe" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    }))
}

/// Metrics of one run, in catalogue order.
struct Report {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    rounds: usize,
}

impl Report {
    fn new() -> Self {
        Self {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            rounds: 0,
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        if !value.is_finite() {
            self.problems
                .push(format!("metric {name} was not measured"));
        }
        self.metrics.push((name, value));
    }

    fn add_round(&mut self, r: &RuntimeRound) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.problems.extend(r.mismatches.iter().cloned());
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(name),
                    json::number(*value),
                    json::string(catalog::unit_of(name).unwrap_or("?"))
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

fn p(samples: &[f64], q: f64) -> f64 {
    quantile(samples, q).unwrap_or(f64::NAN)
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clearing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Time `SETUPS` runtime constructions with their durability service.
fn setup_samples(workload: &Workload, work_dir: &Path) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(SETUPS);
    // Every runtime stays alive until the last is built, so each set-up
    // gets fresh memory, as the first runtime of a process does. Reusing
    // the previous runtime's freed pages split the samples between two
    // modes a millisecond apart on a 200,000-cell table.
    let mut alive = Vec::with_capacity(WARM_UP_SETUPS + SETUPS);
    for i in 0..WARM_UP_SETUPS + SETUPS {
        let dir = work_dir.join(format!("setup-{i}"));
        fresh_dir(&dir)?;
        let start = Instant::now();
        let built = set_up(workload.config(), &dir).map_err(|e| format!("set-up failed: {e}"))?;
        if i >= WARM_UP_SETUPS {
            samples.push(start.elapsed().as_secs_f64());
        }
        alive.push(built);
    }
    for (rt, mut svc) in alive {
        svc.stop();
        drop(rt);
    }
    Ok(samples)
}

fn check_against(report: &mut Report, what: &str, got: &runner::Answers, want: &runner::Answers) {
    if let Some(d) = got.diff(want) {
        report
            .problems
            .push(format!("{what} differs from the scalar replay: {d}"));
    }
}

fn run_untraced(args: &Args, inputs: &Inputs, work_dir: &Path) -> Result<Report, String> {
    let w = &args.workload;
    let mut report = Report::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let setup = setup_samples(w, work_dir)?;
    println!(
        "# set-up samples (ms): {}",
        setup
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let (mut scalar_mops, mut ingest_mops, mut restore_ms, mut peak_mib) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut close, mut topk, mut estimate, mut checkpoint) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut accuracy = None;
    let records = inputs.total_records() as f64;
    while report.rounds == 0 || Instant::now() < deadline {
        // Several short scalar passes per round: one pass is a fraction of
        // a second, too short to ride out a scheduling hiccup on its own.
        let scalar = scalar_round(w.config(), inputs);
        scalar_mops.push(records / scalar.wall_s / 1e6);
        let mut scalar_s = scalar.wall_s;
        while scalar_s < SCALAR_SECONDS_PER_ROUND {
            let again = scalar_round(w.config(), inputs);
            scalar_mops.push(records / again.wall_s / 1e6);
            scalar_s += again.wall_s;
        }

        let dir = work_dir.join(format!("round-{}", report.rounds));
        fresh_dir(&dir)?;
        let r = runtime_round(w, inputs, &dir, &mut NoTrace)?;
        fresh_dir(&dir)?;
        report.add_round(&r);
        if let Some(live) = &r.answers {
            check_against(&mut report, "runtime", live, &scalar.answers);
            if accuracy.is_none() {
                let k = runner::accuracy_k(&w.config());
                accuracy = Some(runner::accuracy(inputs, &r.accuracy_top, k));
                let (p100, are100) = runner::accuracy(inputs, &live.top, spec::K);
                println!(
                    "# accuracy at k = {}: precision {p100}, ARE {are100}",
                    spec::K
                );
            }
        }
        ingest_mops.push(r.records as f64 / r.loop_s / 1e6);
        restore_ms.push(r.restore_ms);
        peak_mib.push(r.peak_heap_delta as f64 / (1024.0 * 1024.0));
        close.extend(r.close_us);
        topk.extend(r.topk_us);
        estimate.extend(r.estimate_us);
        checkpoint.extend(r.checkpoint_ms);
        println!(
            "# round {}: scalar {:.3} Mops (last pass), runtime {:.3} Mops, set-up {:.3} ms",
            report.rounds,
            scalar_mops.last().copied().unwrap_or(f64::NAN),
            ingest_mops.last().copied().unwrap_or(f64::NAN),
            r.setup_s * 1e3
        );
        report.rounds += 1;
    }
    let (precision, are) = accuracy.unwrap_or((f64::NAN, f64::NAN));
    report.put("ingest_mops", med(&ingest_mops));
    report.put("scalar_mops", med(&scalar_mops));
    report.put("setup_s", med(&setup));
    report.put("period_close_us_p50", p(&close, 0.5));
    report.put("period_close_us_p90", p(&close, 0.9));
    report.put("topk_us_p50", p(&topk, 0.5));
    report.put("topk_us_p90", p(&topk, 0.9));
    report.put("estimate_us_p50", p(&estimate, 0.5));
    report.put("estimate_us_p99", p(&estimate, 0.99));
    report.put("checkpoint_ms_p50", p(&checkpoint, 0.5));
    report.put("restore_ms", med(&restore_ms));
    report.put("precision", precision);
    report.put("are", are);
    report.put("runtime_peak_mib", med(&peak_mib));
    Ok(report)
}

fn run_traced(args: &Args, inputs: &Inputs, work_dir: &Path) -> Result<(Report, SpanLog), String> {
    let w = &args.workload;
    let mut report = Report::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut log = SpanLog::new(start);
    let (mut untraced_mops, mut traced_mops, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut unattributed = Vec::new();
    // Alternate untraced and traced rounds, so the tracing overhead is a
    // ratio of neighbouring rounds.
    while traced.is_empty() || Instant::now() < deadline {
        for on in [false, true] {
            let dir = work_dir.join(format!("round-{}-{on}", report.rounds));
            fresh_dir(&dir)?;
            let r = if on {
                log.run = report.rounds as u32;
                runtime_round(w, inputs, &dir, &mut log)?
            } else {
                runtime_round(w, inputs, &dir, &mut NoTrace)?
            };
            fresh_dir(&dir)?;
            report.add_round(&r);
            let mops = r.records as f64 / r.loop_s / 1e6;
            if on {
                traced_mops.push(mops);
                if let (Some(a), Some(b)) = (r.loop_start, r.loop_end) {
                    unattributed.push(log.unattributed_share(log.run, a, b));
                }
                traced.push(r);
            } else {
                untraced_mops.push(mops);
            }
        }
        report.rounds += 1;
    }

    let rp = replay::replay(w, inputs);
    for r in &traced {
        if let (Some(live), Some(want)) = (&r.answers, &rp.answers) {
            check_against(&mut report, "runtime", live, want);
        }
    }
    let spsc_ns = replay::spsc_round_trip_ns(SPSC_TRIPS);

    let per_round = |f: &dyn Fn(&RuntimeRound) -> f64| -> f64 {
        med(&traced.iter().map(f).collect::<Vec<f64>>())
    };
    let s = rp.stats;
    let inserts = s.inserts.max(1) as f64;
    let swept = (rp.capacity_cells as f64) * (s.periods.max(1) as f64);
    let sync_us: Vec<f64> = traced.iter().flat_map(|r| r.sync_us.clone()).collect();
    let depth: Vec<f64> = traced.iter().flat_map(|r| r.queue_depth.clone()).collect();
    let table_topk_us = med(&rp.topk_us);

    report.put("hash.ns_per_record", rp.hash_ns_per_record);
    report.put("sharded.route_ns_per_record", rp.route_ns_per_record);
    report.put("table.insert_ns_per_record", rp.insert_ns_per_record);
    report.put("table.hit_share", s.hits as f64 / inserts);
    report.put("table.fill_share", s.fills as f64 / inserts);
    report.put("table.decrement_share", s.decrements as f64 / inserts);
    report.put("table.admission_share", s.admissions as f64 / inserts);
    report.put("clock.end_period_us", med(&rp.end_period_us));
    report.put("clock.cells_swept_per_record", swept / inserts);
    report.put("clock.harvest_share", s.harvests as f64 / swept);
    report.put("snapshot.encode_us", med(&rp.snapshot_us));
    report.put("obs.audit_us", med(&rp.audit_us));
    report.put(
        "obs.dropped_spans",
        per_round(&|r| r.registry.dropped_spans as f64),
    );
    report.put(
        "pipeline.insert_ns_per_record",
        per_round(&|r| r.insert_s * 1e9 / r.records.max(1) as f64),
    );
    report.put(
        "pipeline.worker_busy_share",
        per_round(&|r| r.registry.batch_insert_ns_sum as f64 / (r.loop_s * 1e9)),
    );
    report.put(
        "pipeline.barrier_wait_us_p50",
        per_round(&|r| {
            r.registry
                .barrier_wait_ns
                .as_ref()
                .map_or(f64::NAN, |h| h.p50() / 1e3)
        }),
    );
    report.put("spsc.push_pop_ns", spsc_ns);
    report.put(
        "spsc.stalls_per_mrecord",
        per_round(&|r| r.registry.queue_stalls as f64 / (r.records.max(1) as f64 / 1e6)),
    );
    report.put("spsc.queue_depth_p50", med(&depth));
    report.put("query.topk_table_us", table_topk_us);
    report.put("query.topk_candidates", rp.topk_candidates as f64);
    report.put("query.drain_us", med(&sync_us));
    report.put("query.estimate_table_ns", med(&rp.estimate_ns));
    report.put("checkpoint.full_encode_ms", med(&rp.full_encode_ms));
    report.put("checkpoint.delta_encode_ms", med(&rp.delta_encode_ms));
    report.put("checkpoint.full_bytes", med(&rp.full_bytes));
    report.put("checkpoint.delta_bytes", med(&rp.delta_bytes));
    report.put("checkpoint.dirty_buckets", med(&rp.dirty_buckets));
    report.put(
        "checkpoint.save_ms_p50",
        per_round(&|r| {
            r.registry
                .save_ns
                .as_ref()
                .map_or(f64::NAN, |h| h.p50() / 1e6)
        }),
    );
    report.put("checkpoint.restore_decode_ms", rp.restore_decode_ms);
    let gap = med(&unattributed);
    report.put("trace.unattributed_share", gap);
    report.put(
        "trace.overhead_ratio",
        med(&traced_mops) / med(&untraced_mops),
    );
    if gap > COVERAGE_GAP {
        report.problems.push(format!(
            "top-level spans leave {:.2}% of the producer's loop uncovered (gap allowed: {:.0}%)",
            gap * 100.0,
            COVERAGE_GAP * 100.0
        ));
    }
    Ok((report, log))
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<Report, String> {
    let w = &args.workload;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let tag = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let work_dir = args.out.join(format!("ckpt-{tag}-{}", std::process::id()));
    let host = host::fingerprint_json();
    println!("# host {host}");
    println!("# workload {}", w.to_json());

    let gen_start = Instant::now();
    let inputs = stream::generate(w, args.seed);
    println!(
        "# inputs: {} records in {} periods, {} distinct ids, generated in {:.1} s",
        inputs.total_records(),
        inputs.periods.len(),
        inputs.oracle.distinct_items(),
        gen_start.elapsed().as_secs_f64()
    );

    let outcome = if args.trace {
        run_traced(args, &inputs, &work_dir).and_then(|(report, log)| {
            let path = args.out.join(format!("spans-{tag}.json"));
            write_file(&path, &log.to_json())?;
            println!("# spans: {} written to {}", log.spans.len(), path.display());
            Ok(report)
        })
    } else {
        run_untraced(args, &inputs, &work_dir)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let report = outcome?;

    let failed_ops_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    let record = format!(
        "{{\"host\":{host},\"workload\":{},\"seed\":{},\"trace\":{},\"threads\":{{\"producer\":1,\"shard_workers\":{SHARDS},\"durability\":1}},\"seconds\":{},\"rounds\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"failed_ops_ratio\":{},\"problems\":[{}],\"metrics\":{}}}\n",
        w.to_json(),
        args.seed,
        args.trace,
        args.seconds,
        report.rounds,
        report.correct(),
        report.attempted,
        report.failed,
        json::number(failed_ops_ratio),
        report
            .problems
            .iter()
            .map(|p| json::string(p))
            .collect::<Vec<_>>()
            .join(","),
        report.metrics_json(),
    );
    write_file(&args.out.join(format!("result-{tag}.json")), &record)?;
    println!(
        "# {} rounds, {} operations attempted, {} failed (failed_ops_ratio {failed_ops_ratio})",
        report.rounds, report.attempted, report.failed
    );
    for problem in &report.problems {
        println!("# CHECK FAILED: {problem}");
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", catalog::describe_json());
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                report.correct(),
                report.attempted.max(1),
                report.failed,
                report.metrics_json()
            );
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
