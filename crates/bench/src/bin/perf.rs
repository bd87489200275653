//! Perf smoke runner: executes the full experiment suite, prints only the
//! timing summary, and writes `BENCH.json` — the repository's perf
//! trajectory tracker (CI runs this at quick scale on every push).
//!
//! Knobs: `MPACCEL_BENCH_SCALE` (quick/full), `MPACCEL_THREADS` (pool
//! width, default all cores), `MPACCEL_BENCH_JSON` (output path, default
//! `BENCH.json`). Pass experiment names as arguments to time a subset,
//! e.g. `perf fig07 table3`.

use mp_bench::engine;
use threadpool::ThreadPool;

fn main() {
    let scale = mp_bench::Scale::from_env();
    let pool = ThreadPool::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let list = engine::from_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let summary = engine::run_selected(&list, scale, &pool);
    println!("{}", summary.timing_report());
    match engine::write_bench_json(&summary) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write BENCH.json: {e}");
            std::process::exit(1);
        }
    }
}
