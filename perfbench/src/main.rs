//! Seeded end-to-end and per-layer benchmark of the seu metasearch stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload select-wide --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each invocation runs one workload in its own process, so the
//! process-global metrics registry and the estimator's counters count
//! that workload alone. `--trace 0` runs the program at its deployed
//! defaults and reports the end-to-end metrics; `--trace 1` samples every
//! request, aggregates the program's spans, times the public call of each
//! layer directly, and reports the per-layer metrics. The human-readable
//! report goes to stdout first; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. A correctness
//! mismatch makes the exit code 1.

mod cluster_open;
mod drive;
mod http;
mod layers;
mod quality;
mod report;
mod select_wide;
mod stats;
mod zipf_churn;

use std::path::PathBuf;
use std::time::Duration;

/// Similarity threshold `T` of every request the benchmark sends.
pub const THRESHOLD: f64 = 0.2;

/// The latency limit on `p99_ms`; a failed request misses it.
pub const LIMIT_MS: f64 = 100.0;

/// What one run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for store files and span dumps, inside the
    /// build directory of the checkout.
    pub work_dir: PathBuf,
    /// Where a traced run writes every span it collected.
    pub spans_dir: PathBuf,
}

impl Ctx {
    /// Client threads and open connections the generator may use.
    pub fn clients(&self) -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The measured window (untraced runs) or each of the two windows
    /// (traced runs: untraced reference, then traced).
    pub fn window(&self) -> Duration {
        let secs = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(secs)
    }
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let build_dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?;
    let workload = workload.ok_or("--workload is required")?;
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        work_dir: build_dir.join(format!("perfbench-work-{workload}-{}", std::process::id())),
        spans_dir: build_dir.join("perfbench-spans"),
    };
    Ok((workload, ctx))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Overload rungs would otherwise print one slow-query line per
    // request to stderr; the threshold is the only tracer setting the
    // untraced runs change from the deployed defaults.
    seu_obs::tracer().set_slow_threshold(Duration::ZERO);
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: creating {}: {e}", ctx.work_dir.display());
        std::process::exit(1);
    }
    let result = match workload.as_str() {
        "select-wide" => select_wide::run(&ctx),
        "cluster-open" => cluster_open::run(&ctx),
        "zipf-churn" => zipf_churn::run(&ctx),
        other => Err(format!(
            "unknown workload {other:?} (select-wide, cluster-open, zipf-churn)"
        )),
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    match result {
        Ok(mut report) => {
            if !ctx.trace {
                let fail_ratio = stats::ratio(report.failed as f64, report.attempted as f64);
                report.add("ok_ratio", 1.0 - fail_ratio, "share");
            }
            report.print(&workload);
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}
