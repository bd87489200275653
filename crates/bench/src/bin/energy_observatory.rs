//! Regenerates the energy-observatory evaluation artifact.
//! Usage: `cargo run -p mp-bench --release --bin energy_observatory
//! [-- --out FILE --csv FILE]`
//! (set `MPACCEL_BENCH_SCALE=full` for paper-scale workloads).

use std::process::ExitCode;

use mp_bench::cli::{self, Flags};

fn run() -> Result<(), ExitCode> {
    let flags = Flags::parse("energy_observatory", &["--out", "--csv"])?;
    let report = mp_bench::experiments::energy_observatory::run(mp_bench::Scale::from_env());
    println!("{report}");
    flags.write_report(&report)
}

fn main() -> ExitCode {
    cli::exit_code(run())
}
