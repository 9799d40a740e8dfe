//! Benchmark of the CAPSys controller through the public APIs of the
//! `capsys-*` crates: three closed-loop workloads, each one caller on
//! one thread whose every call waits for the previous one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <place|fleet|recover> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats a set-up and a timed pass until `--seconds` of timed
//! work and at least six passes are done. Every pass runs the same
//! operations in the same order, so each operation is timed once per
//! pass; its latency is the best of those times, the best-of-N rule of
//! the repository's performance ledger, and the latency metrics are
//! percentiles over operations. A shared 2-vCPU VM alternates between a
//! fast state and one about 60% slower, in spells of seconds to minutes;
//! an operation's best time tracks the program rather than its
//! neighbours. `setup_s` follows the same rule: the best of the run's
//! set-ups, the first of which is timed from the start of `main`. A run checks its
//! own outputs, prints a digest of every decision of a pass, and ends
//! with one JSON line: `correct`, `attempted`, `failed`, and the metrics
//! — the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. `README.md` describes the workloads and the metrics.

mod fleet;
mod layers;
mod place;
mod recover;
mod stats;

use std::error::Error;
use std::process::ExitCode;
use std::time::Instant;

use capsys_util::json::{obj, Json};

/// Error type of every fallible benchmark step.
pub type Res<T> = Result<T, Box<dyn Error>>;

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Fewest timed passes per run.
const MIN_PASSES: usize = 6;

/// Cap on one run's timed work, seconds: a run that has not finished its
/// passes by then fails rather than overrunning.
const MAX_MEASURE_S: f64 = 120.0;

const USAGE: &str =
    "usage: capsys-perfbench --workload <place|fleet|recover> --seed <n> --seconds <s> --trace <0|1>";

/// Command-line settings of one run.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed work per run, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What a workload run hands back for printing.
pub struct Report {
    /// Checks run and operations timed.
    pub tally: Tally,
    /// Digest of every decision of one pass (identical across passes).
    pub digest: u64,
    /// Workload-specific figures for people reading the log.
    pub summary: Vec<Metric>,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
}

/// Attempted and failed operations and correctness checks.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations timed plus checks made.
    pub attempted: u64,
    /// Operations that failed plus checks that did not hold.
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations that succeeded.
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Counts one check; reports it on stderr when it does not hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Whether a run starts another timed pass, given the operation
/// latencies (ms) of the passes so far: until `seconds` of timed work
/// and [`MIN_PASSES`] passes are done.
pub fn more(passes: &[Vec<f64>], seconds: f64) -> Res<bool> {
    let timed_s: f64 = passes.iter().map(|p| pass_seconds(p)).sum();
    if timed_s >= seconds && passes.len() >= MIN_PASSES {
        return Ok(false);
    }
    if timed_s >= MAX_MEASURE_S {
        return Err(format!(
            "only {} passes after {timed_s:.0} s of timed work",
            passes.len()
        )
        .into());
    }
    Ok(true)
}

/// Seconds since `since`.
pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Each operation's best latency over `passes`, which hold the latency
/// (ms) of every operation, per pass, in the same operation order in
/// every pass.
pub fn best_of(passes: &[Vec<f64>]) -> Res<Vec<f64>> {
    let ops = passes.first().map_or(0, Vec::len);
    if passes.iter().any(|p| p.len() != ops) {
        return Err("passes timed different numbers of operations".into());
    }
    Ok((0..ops)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect())
}

/// The `pct`-th percentile of `samples`, or NaN where the sample-count
/// rule forbids it: for the summary lines, which print but never fail.
pub fn pct_or_nan(samples: &[f64], pct: usize) -> f64 {
    stats::percentile(samples, pct).unwrap_or(f64::NAN)
}

/// The end-to-end metrics every workload reports. `setup_s` holds each
/// pass's set-up time; `passes` the latency (ms) of every operation, per
/// pass, as [`best_of`] takes them. `quality` is the workload's
/// deterministic result quality (higher is better).
pub fn end_to_end(setup_s: &[f64], passes: &[Vec<f64>], quality: f64) -> Res<Vec<Metric>> {
    let best = best_of(passes)?;
    let ops = best.len();
    let pct = |p: usize| {
        stats::percentile(&best, p).ok_or_else(|| format!("{ops} operations cannot support a p{p}"))
    };
    let best_setup = setup_s.iter().cloned().fold(f64::INFINITY, f64::min);
    Ok(vec![
        ("setup_s", best_setup, "s"),
        ("op_ms_p50", pct(50)?, "ms"),
        ("op_ms_p90", pct(90)?, "ms"),
        (
            "ops_per_s",
            ops as f64 * 1e3 / best.iter().sum::<f64>(),
            "1/s",
        ),
        ("quality", quality, "frac"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// Timed seconds of a pass, from its operation latencies (ms).
pub fn pass_seconds(pass_ms: &[f64]) -> f64 {
    pass_ms.iter().sum::<f64>() / 1e3
}

/// The median timed seconds of `passes`.
pub fn median_pass_seconds(passes: &[Vec<f64>]) -> f64 {
    stats::median(&passes.iter().map(|p| pass_seconds(p)).collect::<Vec<_>>())
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {value}: not a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn print(args: &Args, r: &Report) -> Res<()> {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, value, unit) in &r.summary {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!("digest {:016x}", r.digest);
    let mut metrics = Vec::with_capacity(r.metrics.len());
    for &(name, value, unit) in &r.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}").into());
        }
        metrics.push((
            name.to_string(),
            obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        ));
    }
    let line = obj(vec![
        ("correct", Json::Bool(r.tally.failed == 0)),
        ("attempted", Json::Num(r.tally.attempted as f64)),
        ("failed", Json::Num(r.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "place" => place::run(&args, started),
        "fleet" => fleet::run(&args, started),
        "recover" => recover::run(&args, started),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match report.and_then(|r| print(&args, &r)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
