//! One process of the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <pipeline-4096|paper-64|serve-zipf> --seed N --seconds S
//!          [--mode plain|alternate|traced] [--spans FILE]
//! ```
//!
//! `plain` runs untraced for the end-to-end numbers. `alternate` flips
//! the span recorder on and off between iterations (pipelines) or time
//! slices (serve), so one process yields both the per-layer numbers and
//! the tracing overhead. `traced` records everything; `run.py` uses it
//! for the single-thread baseline. The last line of stdout is one JSON
//! object: `attempted`, `failed` and a flat `metrics` map.

mod pipeline;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Alternate,
    Traced,
}

/// What one process measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations and checks attempted, and those that failed.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Median; NaN for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    hbar_stats::median(xs)
}

/// Nearest-rank `q`-quantile; NaN for no samples.
pub fn nearest_rank(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64) * q).ceil() as usize;
    v[idx.clamp(1, v.len()) - 1]
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut mode, mut spans) = (Mode::Plain, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--mode" => {
                mode = match value.as_str() {
                    "plain" => Mode::Plain,
                    "alternate" => Mode::Alternate,
                    "traced" => Mode::Traced,
                    other => return Err(format!("unknown mode {other}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        mode,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let window = Duration::from_secs_f64(args.seconds);
    let mut rec = trace::Recorder::new();
    let outcome = if let Some(shape) = pipeline::shape(&args.workload) {
        pipeline::run(&shape, args.seed, window, args.mode, &mut rec)
    } else if args.workload == "serve-zipf" {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        match serve::run(args.seed, window, args.mode, workers, &mut rec) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e2ebench: serve-zipf: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("e2ebench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let mut metrics = outcome.metrics;
    let Some(rss) = hbar_stats::peak_rss_bytes() else {
        eprintln!("e2ebench: no peak-RSS gauge on this platform");
        return ExitCode::FAILURE;
    };
    metrics.insert("peak_rss_mb".into(), rss as f64 / (1u64 << 20) as f64);
    metrics.insert(
        "failed_frac".into(),
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    if let Some((name, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("e2ebench: metric {name} is {v}: too few samples");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &args.spans {
        if let Err(e) = rec.write_jsonl(path) {
            eprintln!("e2ebench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!(
        "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}
