//! Regenerates every table and figure in one run, or only the named
//! experiments: `cargo run -p mp-bench --release --bin all [-- fig07 …]`
//! (set `MPACCEL_BENCH_SCALE=full` for paper-scale workloads).
//!
//! The full suite fans out over a work-stealing thread pool sized by
//! `MPACCEL_THREADS` (default: all cores); reports are collected and
//! printed in canonical order, bit-identical to a serial run. A
//! machine-readable timing summary is written to `BENCH.json` (path
//! override: `MPACCEL_BENCH_JSON`). Named experiments run one after
//! another and print only their reports.
//!
//! Set `MPACCEL_CSV_DIR=<dir>` to additionally write each report as CSV
//! for downstream plotting.

use std::process::ExitCode;

use mp_bench::{engine, Report};
use threadpool::ThreadPool;

fn emit(name: &str, report: &Report) {
    println!("{report}");
    if let Ok(dir) = std::env::var("MPACCEL_CSV_DIR") {
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, report.to_csv()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

fn main() -> ExitCode {
    let scale = mp_bench::Scale::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let list = match engine::from_args(&args) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if !args.is_empty() {
        for exp in &list {
            emit(exp.name, &(exp.runner)(scale));
        }
        return ExitCode::SUCCESS;
    }
    let pool = ThreadPool::from_env();
    // Thread count and wall-clock timings go to stderr: stdout carries only
    // deterministic report content, byte-identical for any MPACCEL_THREADS.
    println!("MPAccel reproduction — full evaluation at {scale:?} scale\n");
    eprintln!("running with {} thread(s)", pool.threads());
    let summary = engine::run_selected(&list, scale, &pool);
    for r in &summary.results {
        emit(r.name, &r.report);
    }
    eprintln!("{}", summary.timing_report());
    match engine::write_bench_json(&summary) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH.json: {e}"),
    }
    ExitCode::SUCCESS
}
