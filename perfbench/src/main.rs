//! The repository benchmark: plan latency, accelerator-model rate and
//! discrete-event-simulation rate over three workloads, with a traced
//! per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mpnet_accel|rrtc_batch|fleet_soak> [--seed N] [--seconds S] \
//!     [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! One process, one thread, one closed-loop client: each request is sent
//! when the previous one returns. Every workload runs a fixed request set
//! made from `--seed`, round after round, until every request has run at
//! least twice and `--seconds` have passed. Every execution of a request
//! must reproduce its first execution's outputs and work counts exactly;
//! outputs are checked after the first execution, outside the timed
//! region. `--trace 1` runs each request untraced and traced back to back
//! and reports the per-layer metrics and the tracing overhead. The last
//! line of standard output is one JSON object. See NOTES.md for every
//! metric.

mod fleet;
mod harness;
mod mpnet;
mod rrtc;
mod trace;

use std::process::ExitCode;

use harness::{Args, Report};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Held-out seed: a performance claim is confirmed on it after the
/// change is written, never tuned on it.
pub const HELD_OUT_SEED: u64 = 7_919;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let result: Result<Report, String> = match args.workload.as_str() {
        "mpnet_accel" => mpnet::bench(&args),
        "rrtc_batch" => rrtc::bench(&args),
        "fleet_soak" => fleet::bench(&args),
        other => Err(format!(
            "unknown workload {other:?} (mpnet_accel, rrtc_batch, fleet_soak)"
        )),
    };
    match result.and_then(|r| r.finish(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
