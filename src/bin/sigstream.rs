//! `sigstream` — find significant items in a stream file with LTC.
//!
//! ```text
//! usage: sigstream [OPTIONS] [FILE]
//!
//! Reads `key[,timestamp]` lines (CSV/TSV/space separated; `#` comments)
//! from FILE or stdin and reports the top-k significant items.
//!
//! options:
//!   -w, --weights A:B     significance weights alpha:beta     [1:1]
//!   -m, --memory KB       memory budget in KB                 [64]
//!   -k, --top K           how many items to report            [10]
//!   -p, --period N        count-driven: records per period    [10000]
//!   -t, --period-time T   time-driven: timestamp units per period
//!                         (input lines must carry timestamps)
//!   -d, --depth D         cells per bucket, 1..=32            [8]
//!       --every P         also print top-k every P periods
//!       --basic           disable both optimizations (paper's basic LTC)
//!       --trace           input is a binary .ltct trace (periods included;
//!                         -p/-t are ignored, the trace's boundaries drive)
//!   -h, --help            this text
//! ```
//!
//! Example: the 50 most significant source IPs of a packet log, weighting a
//! persistent day as heavily as 1000 packets, one period per hour:
//!
//! ```sh
//! sigstream -w 1:1000 -m 128 -k 50 -t 3600000 access.log
//! ```

use significant_items::common::{SignificanceQuery, Weights};
use significant_items::core_::{Ltc, LtcConfig, Variant, MAX_CELLS_PER_BUCKET};
use significant_items::hash::FxHashMap;
use significant_items::workloads::trace::key_to_id;
use std::io::{self, BufRead, BufReader};
use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    weights: Weights,
    memory_kb: usize,
    k: usize,
    period: PeriodArg,
    depth: usize,
    every: Option<u64>,
    basic: bool,
    trace: bool,
    file: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeriodArg {
    Count(u64),
    Time(u64),
}

impl Default for Args {
    fn default() -> Self {
        Args {
            weights: Weights::BALANCED,
            memory_kb: 64,
            k: 10,
            period: PeriodArg::Count(10_000),
            depth: 8,
            every: None,
            basic: false,
            trace: false,
            file: None,
        }
    }
}

const USAGE: &str =
    "usage: sigstream [-w A:B] [-m KB] [-k K] [-p N | -t T] [-d D] [--every P] [--basic] [FILE]
Reads `key[,timestamp]` lines from FILE or stdin; reports top-k significant items.
Run with --help for details.";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    let next_value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                      flag: &str|
     -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(USAGE.to_string()),
            "-w" | "--weights" => {
                args.weights = next_value(&mut it, arg)?.parse()?;
            }
            "-m" | "--memory" => {
                args.memory_kb = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("bad --memory: {e}"))?;
            }
            "-k" | "--top" => {
                args.k = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("bad --top: {e}"))?;
            }
            "-p" | "--period" => {
                let n: u64 = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("bad --period: {e}"))?;
                args.period = PeriodArg::Count(n);
            }
            "-t" | "--period-time" => {
                let t: u64 = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("bad --period-time: {e}"))?;
                args.period = PeriodArg::Time(t);
            }
            "-d" | "--depth" => {
                args.depth = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("bad --depth: {e}"))?;
            }
            "--every" => {
                args.every = Some(
                    next_value(&mut it, arg)?
                        .parse()
                        .map_err(|e| format!("bad --every: {e}"))?,
                );
            }
            "--basic" => args.basic = true,
            "--trace" => args.trace = true,
            other if other.starts_with('-') && other.len() > 1 => {
                return Err(format!("unknown option {other}\n{USAGE}"));
            }
            file => {
                if args.file.is_some() {
                    return Err(format!("multiple input files\n{USAGE}"));
                }
                args.file = Some(file.to_string());
            }
        }
    }
    if args.k == 0 || args.memory_kb == 0 || args.depth == 0 {
        return Err("k, memory and depth must be positive".into());
    }
    if args.depth > MAX_CELLS_PER_BUCKET {
        return Err(format!(
            "bad --depth: at most {MAX_CELLS_PER_BUCKET} cells per bucket"
        ));
    }
    Ok(args)
}

fn build_table(args: &Args) -> Ltc {
    let builder = LtcConfig::with_memory(
        significant_items::common::MemoryBudget::kilobytes(args.memory_kb),
        args.depth,
    )
    .weights(args.weights)
    .variant(if args.basic {
        Variant::BASIC
    } else {
        Variant::FULL
    });
    let builder = match args.period {
        PeriodArg::Count(n) => builder.records_per_period(n),
        PeriodArg::Time(t) => builder.time_units_per_period(t),
    };
    Ltc::new(builder.build())
}

/// Bounded id→display-name memory, pruned against the live candidate set.
struct Names {
    map: FxHashMap<u64, String>,
}

impl Names {
    fn remember(&mut self, ltc: &Ltc, id: u64, key: &str) {
        if ltc.contains(id) {
            self.map.entry(id).or_insert_with(|| key.to_string());
            if self.map.len() > 2 * ltc.capacity_cells() {
                self.map.retain(|&id, _| ltc.contains(id));
            }
        }
    }

    fn get(&self, id: u64) -> String {
        self.map.get(&id).cloned().unwrap_or_else(|| id.to_string())
    }
}

fn report(ltc: &Ltc, names: &Names, k: usize, label: &str) {
    println!("# top-{k} {label}");
    for (rank, e) in ltc.top_k(k).iter().enumerate() {
        println!("{:>4}  {:<30} {}", rank + 1, names.get(e.id), e.value);
    }
}

/// One parsed input line, keeping the raw key text for display.
struct Row {
    key: String,
    id: u64,
    time: Option<u64>,
}

fn parse_lines(input: impl BufRead) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(2, [',', '\t', ' ']);
        let key = parts.next().expect("splitn yields at least one part");
        let time = match parts.next() {
            Some(t) if !t.trim().is_empty() => Some(
                t.trim()
                    .parse::<u64>()
                    .map_err(|e| format!("line {}: bad timestamp {t:?}: {e}", lineno + 1))?,
            ),
            _ => None,
        };
        out.push(Row {
            key: key.trim().to_string(),
            id: key_to_id(key),
            time,
        });
    }
    Ok(out)
}

fn run(args: &Args, input: impl BufRead) -> Result<(), String> {
    let records = parse_lines(input)?;
    if records.is_empty() {
        return Err("no records in input".into());
    }
    let mut ltc = build_table(args);
    let mut names = Names {
        map: FxHashMap::default(),
    };

    let mut since_boundary = 0u64;
    let mut periods_done = 0u64;
    for (i, Row { key, id, time }) in records.iter().enumerate() {
        match args.period {
            PeriodArg::Count(n) => {
                ltc.insert(*id);
                since_boundary += 1;
                if since_boundary == n {
                    ltc.end_period();
                    since_boundary = 0;
                    periods_done += 1;
                    if let Some(every) = args.every {
                        if periods_done.is_multiple_of(every) {
                            ltc.finalize();
                            report(
                                &ltc,
                                &names,
                                args.k,
                                &format!("after period {periods_done}"),
                            );
                        }
                    }
                }
            }
            PeriodArg::Time(_) => {
                let t = time.ok_or_else(|| {
                    format!("record {} has no timestamp but --period-time is set", i + 1)
                })?;
                let before = ltc.periods_completed();
                ltc.insert_at(*id, t);
                periods_done = ltc.periods_completed();
                if let Some(every) = args.every {
                    if periods_done > before && periods_done.is_multiple_of(every) {
                        ltc.finalize();
                        report(
                            &ltc,
                            &names,
                            args.k,
                            &format!("after period {periods_done}"),
                        );
                    }
                }
            }
        }
        names.remember(&ltc, *id, key);
    }
    if since_boundary > 0 || matches!(args.period, PeriodArg::Time(_)) {
        ltc.end_period();
    }
    ltc.finalize();
    report(&ltc, &names, args.k, "final");
    Ok(())
}

/// Replay a binary trace: the trace's own period boundaries drive
/// `end_period`; the table uses count-driven stepping at the trace's
/// average period size.
fn run_trace(args: &Args, input: impl BufRead) -> Result<(), String> {
    let stream = significant_items::workloads::read_trace(input).map_err(|e| e.to_string())?;
    if stream.is_empty() {
        return Err("no records in trace".into());
    }
    let n = stream
        .layout
        .records_per_period()
        .expect("traces are count-driven");
    let trace_args = Args {
        period: PeriodArg::Count(n.max(1)),
        ..args.clone()
    };
    let mut ltc = build_table(&trace_args);
    let mut names = Names {
        map: FxHashMap::default(),
    };
    let mut periods_done = 0u64;
    for period in stream.periods() {
        for &id in period {
            ltc.insert(id);
            names.remember(&ltc, id, &id.to_string());
        }
        ltc.end_period();
        periods_done += 1;
        if let Some(every) = args.every {
            if periods_done.is_multiple_of(every) {
                ltc.finalize();
                report(
                    &ltc,
                    &names,
                    args.k,
                    &format!("after period {periods_done}"),
                );
            }
        }
    }
    ltc.finalize();
    report(&ltc, &names, args.k, "final");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let input: Box<dyn BufRead> = match &args.file {
        Some(path) => match std::fs::File::open(path) {
            Ok(f) => Box::new(BufReader::new(f)),
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(BufReader::new(io::stdin())),
    };
    let outcome = if args.trace {
        run_trace(&args, input)
    } else {
        run(&args, input)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let a = parse("").unwrap();
        assert_eq!(a, Args::default());
    }

    #[test]
    fn full_flag_set() {
        let a = parse("-w 1:10 -m 128 -k 50 -t 3600 -d 4 --every 24 --basic trace.csv").unwrap();
        assert_eq!(a.weights, Weights::new(1.0, 10.0));
        assert_eq!(a.memory_kb, 128);
        assert_eq!(a.k, 50);
        assert_eq!(a.period, PeriodArg::Time(3600));
        assert_eq!(a.depth, 4);
        assert_eq!(a.every, Some(24));
        assert!(a.basic);
        assert_eq!(a.file.as_deref(), Some("trace.csv"));
    }

    #[test]
    fn rejects_unknown_and_missing() {
        assert!(parse("--bogus").is_err());
        assert!(parse("-m").is_err());
        assert!(parse("-m x").is_err());
        assert!(parse("a b").is_err(), "two files");
        assert!(parse("-k 0").is_err());
    }

    #[test]
    fn depth_above_bucket_cap_is_an_arg_error() {
        assert_eq!(parse("-d 32").unwrap().depth, 32);
        let msg = parse("-d 33").unwrap_err();
        assert!(msg.contains("--depth") && msg.contains("32"), "{msg}");
    }

    #[test]
    fn help_is_an_err_with_usage() {
        let msg = parse("--help").unwrap_err();
        assert!(msg.contains("usage:"));
    }

    #[test]
    fn trace_mode_roundtrip() {
        use significant_items::workloads::{generate, write_trace, StreamSpec};
        let stream = generate(&StreamSpec {
            name: "cli-trace",
            total_records: 2_000,
            distinct_items: 200,
            periods: 10,
            zipf_skew: 1.0,
            burst_fraction: 0.1,
            periodic_fraction: 0.1,
            seed: 4,
        });
        let mut buf = Vec::new();
        write_trace(&stream, &mut buf).unwrap();
        let args = parse("--trace -m 16 -k 5").unwrap();
        run_trace(&args, Box::new(io::BufReader::new(&buf[..]))).unwrap();
    }

    #[test]
    fn trace_mode_rejects_garbage() {
        let args = parse("--trace").unwrap();
        assert!(run_trace(&args, Box::new(io::BufReader::new(&b"junk"[..]))).is_err());
    }

    #[test]
    fn end_to_end_count_driven() {
        let args = parse("-w 1:0 -m 16 -k 2 -p 10").unwrap();
        let input = "7,1\n7,2\n7,3\n8,4\n9,5\n7,6\n7,7\n7,8\n10,9\n11,10\n";
        // run() prints to stdout; just assert it succeeds.
        run(&args, Box::new(io::BufReader::new(input.as_bytes()))).unwrap();
    }

    #[test]
    fn time_driven_requires_timestamps() {
        let args = parse("-t 100").unwrap();
        let err = run(&args, Box::new(io::BufReader::new(&b"justakey\n"[..]))).unwrap_err();
        assert!(err.contains("no timestamp"), "{err}");
    }

    #[test]
    fn empty_input_is_an_error() {
        let args = parse("").unwrap();
        assert!(run(&args, Box::new(io::BufReader::new(&b""[..]))).is_err());
    }

    #[test]
    fn parse_args_never_panics_on_fuzz() {
        // Cheap in-place fuzz: a deterministic LCG mutates flag-shaped and
        // garbage argv vectors; the parser must always return Ok or Err,
        // never panic.
        let tokens = [
            "-w",
            "-m",
            "-k",
            "-p",
            "-t",
            "-d",
            "--every",
            "--basic",
            "--trace",
            "--help",
            "1:1",
            "0:0",
            "-1:2",
            "abc",
            "",
            "999999999999999999999999",
            "file.csv",
            "-",
            "--",
            "-x",
            "1",
            "0",
        ];
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..2_000 {
            let len = next() % 6;
            let argv: Vec<String> = (0..len)
                .map(|_| tokens[next() % tokens.len()].to_string())
                .collect();
            let _ = parse_args(&argv);
        }
    }
}
