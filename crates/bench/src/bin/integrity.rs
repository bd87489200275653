//! Runs the integrity soak: silent-data-corruption rate × defense policy
//! (undefended / certify / certify-vote-scrub) at 2× saturation. Usage:
//!
//! ```text
//! cargo run -p mp-bench --release --bin integrity [-- --out FILE]
//!     [--csv FILE] [--trace FILE] [--flight FILE] [--metrics FILE]
//! ```
//!
//! Prints the report to stdout; `--out` additionally writes the text
//! report and `--csv` the CSV table. Set `MPACCEL_BENCH_SCALE=full` for
//! paper-scale workloads and `MPACCEL_THREADS` for the catalog-build pool
//! width (the report is byte-identical at any width).
//!
//! The telemetry flags run one extra fully-instrumented capture of the
//! worst-case defended run (SDC rate 1e-3, certify-vote-scrub):
//!
//! * `--trace FILE` — Chrome trace-event JSON (open in Perfetto);
//!   validated before it is written.
//! * `--flight FILE` — flight-recorder snapshots: the spans leading up to
//!   each certification rejection / liar benching / scrub readmission —
//!   the raw material of the SDC post-mortem in `EXPERIMENTS.md`.
//! * `--metrics FILE` — unified metrics registry dump including the
//!   `service.integrity.*` counters and the certification-cost histogram
//!   (text table, or CSV when the path ends in `.csv`).

use std::process::ExitCode;

use mp_bench::cli::{self, Flags, SOAK_FLAGS};
use mp_bench::experiments::integrity;

fn run() -> Result<(), ExitCode> {
    let flags = Flags::parse("integrity", &SOAK_FLAGS)?;
    let scale = mp_bench::Scale::from_env();
    let report = integrity::run(scale);
    println!("{report}");
    flags.write_report(&report)?;
    if flags.wants_capture() {
        let pool = threadpool::ThreadPool::from_env();
        let (session, summary) = integrity::capture_trace(scale, &pool);
        flags.write_capture(&session, || integrity::metrics_registry(&summary))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::exit_code(run())
}
