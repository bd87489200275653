//! Runs the fleet chaos soak: the 16-shard multi-tenant planning fleet
//! through a mid-run double shard kill and an adversarial tenant. Usage:
//!
//! ```text
//! cargo run -p mp-bench --release --bin fleet_soak [-- --out FILE]
//!     [--csv FILE] [--scaling-csv FILE] [--trace FILE] [--flight FILE]
//!     [--metrics FILE]
//! ```
//!
//! Prints the report (fleet, per-tenant, and per-shard rows) to stdout;
//! `--out` additionally writes the text report and `--csv` the CSV table.
//! `--scaling-csv` runs the extra goodput-vs-shards sweep (1/2/4/8/16/32
//! shards at the fixed 16-shard offered load) and writes its CSV.
//! Set `MPACCEL_BENCH_SCALE=full` for paper-scale workloads and
//! `MPACCEL_THREADS` for the catalog-build pool width (the report is
//! byte-identical at any width).
//!
//! The telemetry flags run one extra fully-instrumented capture of the
//! `chaos-defended` scenario (catalog build + double-kill fleet run):
//!
//! * `--trace FILE` — Chrome trace-event JSON (open in Perfetto);
//!   validated before it is written.
//! * `--flight FILE` — flight-recorder snapshots: the spans leading up to
//!   each shard failover / hedge / deadline miss / shed incident.
//! * `--metrics FILE` — unified metrics registry dump with per-shard and
//!   per-tenant series (text table, or CSV when the path ends in `.csv`).

use std::process::ExitCode;

use mp_bench::cli::{self, Flags};
use mp_bench::experiments::fleet;

fn run() -> Result<(), ExitCode> {
    let accepted = [
        "--out",
        "--csv",
        "--scaling-csv",
        "--trace",
        "--flight",
        "--metrics",
    ];
    let flags = Flags::parse("fleet_soak", &accepted)?;
    let scale = mp_bench::Scale::from_env();
    let report = fleet::run(scale);
    println!("{report}");
    flags.write_report(&report)?;
    if flags.path("--scaling-csv").is_some() {
        // The goodput-vs-shards curve (1..32 shards, fixed offered load).
        let scaling = fleet::scaling_report(scale);
        println!("{scaling}");
        flags.write("--scaling-csv", "scaling CSV", || scaling.to_csv())?;
    }
    if flags.wants_capture() {
        let pool = threadpool::ThreadPool::from_env();
        let (session, summary) = fleet::capture_trace(scale, &pool);
        flags.write_capture(&session, || fleet::metrics_registry(&summary))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    cli::exit_code(run())
}
