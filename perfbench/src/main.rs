//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//! ```
//!
//! Runs one workload from a seed, checks its outputs against the oracle,
//! and prints one JSON result line last: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero
//! on bad arguments or when the correctness gate's self-test fails.
//! See `perfbench/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine_wl;
mod gate;
mod input;
mod ladder;
mod layers;
mod span;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use jetstream_graph::gen::DatasetProfile;

use crate::engine_wl::EngineSpec;
use crate::gate::Alg;

/// The command line.
pub(crate) struct Args {
    pub(crate) workload: String,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
    /// Where the traced run writes its spans.
    pub(crate) trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false, trace_out: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(String::from("--trace takes 0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err(String::from("--seconds must be positive"));
    }
    Ok(args)
}

/// BFS on LJ: short paths on a highly connected graph; per-event engine
/// work over high-degree vertices dominates and graph upkeep is small.
const BFS_LJ: EngineSpec = EngineSpec {
    profile: DatasetProfile::LiveJournal,
    scale: 100,
    alg: Alg::Bfs { root: 0 },
    low_rate: 25_000.0,
    high_rate: 80_000.0,
    p99_limit_ms: 100.0,
};

/// SSSP on the narrow, long-path WK profile: deletes on long paths drive
/// recovery and heavy tails.
const SSSP_WK: EngineSpec = EngineSpec {
    profile: DatasetProfile::Wikipedia,
    scale: 100,
    alg: Alg::Sssp { root: 0 },
    low_rate: 25_000.0,
    high_rate: 110_000.0,
    p99_limit_ms: 100.0,
};

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = gate::self_test() {
        eprintln!("perfbench: correctness gate self-test failed: {e}");
        return ExitCode::FAILURE;
    }
    let (tally, metrics) = match args.workload.as_str() {
        "bfs-lj" => engine_wl::run(&BFS_LJ, &args),
        "sssp-wk" => engine_wl::run(&SSSP_WK, &args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", util::result_line(tally, &metrics));
    ExitCode::SUCCESS
}
