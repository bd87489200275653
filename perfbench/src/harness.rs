//! What every workload shares: arguments, set-up timing, the round loop
//! with its exact-repeat self-check, statistics, and the report.

use std::fmt::Debug;
use std::time::Instant;

use mp_collision::CdStats;

use crate::trace::{LayerTime, Tracer};

/// Times set-up is repeated in one run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every input is generated from it.
    pub seed: u64,
    /// Measured time per run (s).
    pub seconds: f64,
    /// Whether this is a traced run.
    pub trace: bool,
    /// Where a traced run writes its Chrome trace.
    pub trace_out: Option<String>,
}

impl Args {
    /// Parses `--workload W [--seed N] [--seconds S] [--trace 0|1]
    /// [--trace-out FILE]`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: crate::DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            trace_out: None,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                "--trace-out" => args.trace_out = Some(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }
}

/// Deterministic FNV-1a digest of a workload's outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in a word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in a float by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds in a path's waypoints (or a marker for no path).
    pub fn path(&mut self, path: Option<&[mp_robot::JointConfig]>) {
        match path {
            None => self.u64(u64::MAX),
            Some(p) => {
                self.u64(p.len() as u64);
                for q in p {
                    for &x in q.as_slice() {
                        self.u64(x.to_bits() as u64);
                    }
                }
            }
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64 finalizer: derives independent seeds from coordinates.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile of `v` (`q` in 0..=1); 0 for an empty slice.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Runs `build` [`SETUP_REPEATS`] times; returns the last result and the
/// median build time (s).
pub fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let built = std::hint::black_box(build()?);
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("SETUP_REPEATS > 0"), percentile(&times, 0.5)))
}

/// Host time of one request execution.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Whole request (ms).
    pub ms: f64,
    /// Part spent producing the request's simulated or modeled figures
    /// (ms); see NOTES.md for what that is per workload.
    pub sim_ms: f64,
}

/// A workload's fixed request set, made from the seed in set-up.
pub trait Workload {
    /// Everything one execution of a request produced that must repeat
    /// exactly: outputs and work counts.
    type Record: PartialEq + Debug;

    /// Requests in the set.
    fn len(&self) -> usize;

    /// Executes request `i`, timing only the calls into the layers.
    fn run(&mut self, i: usize, tracer: &mut Tracer) -> (Sample, Self::Record);

    /// Checks a request's outputs; called once, after its first
    /// execution, outside the timed region.
    fn check(&mut self, i: usize, record: &Self::Record) -> Result<(), String>;
}

/// What [`run_rounds`] measured.
#[derive(Debug)]
pub struct Runs<R> {
    /// Each request's record (from its first execution).
    pub records: Vec<R>,
    /// Executions of each request.
    pub executions: Vec<u64>,
    /// Each request's fastest untraced execution.
    pub best: Vec<Sample>,
    /// Each request's fastest traced execution (traced runs only).
    pub traced_best: Vec<Sample>,
}

impl<R> Runs<R> {
    /// Fastest untraced latency of every request (ms).
    pub fn best_ms(&self) -> Vec<f64> {
        self.best.iter().map(|s| s.ms).collect()
    }

    /// Summed fastest untraced request time (s).
    pub fn best_s(&self) -> f64 {
        self.best.iter().map(|s| s.ms).sum::<f64>() / 1e3
    }

    /// Summed fastest untraced simulated-part time (s).
    pub fn best_sim_s(&self) -> f64 {
        self.best.iter().map(|s| s.sim_ms).sum::<f64>() / 1e3
    }

    /// Tracing overhead: summed fastest traced over summed fastest
    /// untraced request time, minus one.
    pub fn overhead_frac(&self) -> f64 {
        let traced: f64 = self.traced_best.iter().map(|s| s.ms).sum();
        traced / (self.best_s() * 1e3).max(1e-12) - 1.0
    }

    /// Request executions in the run.
    pub fn requests(&self) -> u64 {
        self.executions.iter().sum()
    }
}

/// Runs the request set round after round, each request in order, until
/// every request has run at least twice and `args.seconds` have passed
/// (the last round may stop part-way). Every execution of a request must
/// reproduce its first record exactly.
pub fn run_rounds<W: Workload>(
    w: &mut W,
    args: &Args,
    tracer: &mut Tracer,
) -> Result<Runs<W::Record>, String> {
    let n = w.len();
    let slow = Sample {
        ms: f64::INFINITY,
        sim_ms: f64::INFINITY,
    };
    let mut records: Vec<Option<W::Record>> = (0..n).map(|_| None).collect();
    let mut runs = Runs {
        records: Vec::new(),
        executions: vec![0; n],
        best: vec![slow; n],
        traced_best: if args.trace {
            vec![slow; n]
        } else {
            Vec::new()
        },
    };
    // A traced round runs every request twice (see `modes` below).
    let min_rounds = if args.trace { 1 } else { 2 };
    let start = Instant::now();
    for e in 0.. {
        let (round, i) = (e / n, e % n);
        if round >= min_rounds && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        // A traced run executes each request untraced and traced back to
        // back, in alternating order, so both see the same machine speed.
        let modes: &[bool] = match (args.trace, round % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in modes {
            tracer.set_enabled(traced);
            tracer.set_request(e as u64);
            let (sample, record) = w.run(i, tracer);
            let best = if traced {
                &mut runs.traced_best[i]
            } else {
                &mut runs.best[i]
            };
            best.ms = best.ms.min(sample.ms);
            best.sim_ms = best.sim_ms.min(sample.sim_ms);
            runs.executions[i] += 1;
            match &records[i] {
                None => {
                    w.check(i, &record)
                        .map_err(|err| format!("request {i}: {err}"))?;
                    records[i] = Some(record);
                }
                Some(first) if *first != record => {
                    return Err(format!(
                        "request {i} did not reproduce its first execution in round {round}:\n  first: {first:?}\n  now:   {record:?}"
                    ));
                }
                Some(_) => {}
            }
        }
    }
    tracer.set_enabled(false);
    runs.records = records
        .into_iter()
        .map(|r| r.expect("every request ran at least twice"))
        .collect();
    Ok(runs)
}

/// Digest of a record set, in request order.
pub fn digest_of<R>(records: &[R], fold: impl Fn(&mut Digest, &R)) -> u64 {
    let mut d = Digest::default();
    for r in records {
        fold(&mut d, r);
    }
    d.value()
}

/// Peak resident set size of this process (MB), from `/proc`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One round's collision work as per-layer counts.
pub fn cd_counts(cd: &CdStats) -> [(&'static str, u64); 5] {
    [
        ("collision.pose_checks", cd.pose_queries),
        ("robot.link_tests", cd.link_tests),
        ("octree.nodes_visited", cd.nodes_visited),
        ("geometry.box_tests", cd.box_tests),
        ("geometry.mults", cd.mults),
    ]
}

/// The collision-layer metrics of a traced run: `cd` is one round's work,
/// `hits` its pose checks that hit, `pose` the traced pose-check time and
/// `calls` the planner calls the checks ran under.
pub fn cd_metrics(cd: &CdStats, hits: u64, pose: LayerTime, calls: u64) -> Vec<Metric> {
    let per = |x: f64, n: u64| x / n.max(1) as f64;
    let mut v = vec![
        m(
            "collision.check_pose_ms",
            "ms",
            per(pose.total_ns as f64 / 1e6, calls),
        ),
        m(
            "collision.pose_ns_mean",
            "ns",
            per(pose.total_ns as f64, pose.calls),
        ),
        m(
            "collision.hit_frac",
            "frac",
            per(hits as f64, cd.pose_queries),
        ),
    ];
    v.extend(cd_counts(cd).map(|(name, n)| m(name, "count", n as f64)));
    v
}

/// Every end-to-end metric, in `BENCHMARK.json` order. Every workload
/// reports all of them (NOTES.md gives each one's meaning per workload).
pub const END_TO_END: [&str; 12] = [
    "setup_s",
    "latency_ms_p50",
    "latency_ms_p95",
    "plans_per_s",
    "plan_fail_frac",
    "modeled_plan_us_p50",
    "modeled_uj_per_plan",
    "sim_requests_per_s",
    "sim_goodput_rps",
    "sim_p99_us",
    "sim_miss_frac",
    "peak_rss_mb",
];

/// Every per-layer metric and its unit, in `BENCHMARK.json` order. A
/// workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("planner.plan_self_ms", "ms"),
    ("planner.replans", "count"),
    ("planner.nn_calls", "count"),
    ("planner.mlp_macs", "count"),
    ("planner.batch_self_ms", "ms"),
    ("planner.tree_nodes", "count"),
    ("planner.useful_frac", "frac"),
    ("collision.check_pose_ms", "ms"),
    ("collision.pose_checks", "count"),
    ("collision.pose_ns_mean", "ns"),
    ("collision.hit_frac", "frac"),
    ("robot.link_tests", "count"),
    ("octree.nodes_visited", "count"),
    ("geometry.box_tests", "count"),
    ("geometry.mults", "count"),
    ("core.run_trace_ms", "ms"),
    ("core.poses_per_s", "1/s"),
    ("core.cd_queries", "count"),
    ("core.cd_cycles", "count"),
    ("core.sram_reads", "count"),
    ("core.mults", "count"),
    ("core.modeled_cd_frac", "frac"),
    ("service.catalog_build_s", "s"),
    ("service.run_fleet_ms", "ms"),
    ("service.run_service_ms", "ms"),
    ("service.offered", "count"),
    ("service.served", "count"),
    ("service.shed", "count"),
    ("service.retries", "count"),
    ("service.tier_stepdowns", "count"),
    ("service.hedges_fired", "count"),
    ("service.hedge_win_frac", "frac"),
    ("service.rerouted", "count"),
    ("service.votes", "count"),
    ("service.sdc_escaped", "count"),
    ("service.wasted_energy_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (as in BENCHMARK.json).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Shorthand for building a [`Metric`].
pub fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// A finished run: both metric sets, the exact-repeat counts, the digest
/// and the Chrome trace of a traced run.
#[derive(Debug)]
pub struct Report {
    /// End-to-end metrics (untraced executions).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced executions; empty in an untraced run).
    pub per_layer: Vec<Metric>,
    /// Work counts of one round; identical on every run of one seed.
    pub counts: Vec<(&'static str, u64)>,
    /// Output digest of one round; identical on every run of one seed.
    pub digest: u64,
    /// Request executions in the run.
    pub requests: u64,
    /// Chrome trace JSON of a traced run.
    pub chrome: Option<String>,
}

impl Report {
    /// Prints the human-readable report and, last, the JSON result line;
    /// writes the Chrome trace of a traced run.
    pub fn finish(self, args: &Args) -> Result<(), String> {
        println!("digest {:016x}", self.digest);
        for (k, v) in &self.counts {
            println!("count {k} = {v}");
        }
        for x in self.end_to_end.iter().chain(&self.per_layer) {
            println!("metric {} = {} {}", x.name, x.value, x.unit);
        }
        if let Some(json) = &self.chrome {
            let path = args.trace_out.clone().unwrap_or_else(|| {
                format!(
                    "perfbench/out/{}-seed{}.trace.json",
                    args.workload, args.seed
                )
            });
            if let Some(dir) = std::path::Path::new(&path).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
            println!("chrome trace written to {path}");
        }
        let shown = if args.trace {
            if let Some(x) = self
                .per_layer
                .iter()
                .find(|x| !PER_LAYER.iter().any(|(n, _)| *n == x.name))
            {
                return Err(format!("per-layer metric {} is not in PER_LAYER", x.name));
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = self
                        .per_layer
                        .iter()
                        .find(|x| x.name == name)
                        .map_or(0.0, |x| x.value);
                    m(name, unit, value)
                })
                .collect()
        } else {
            let names: Vec<&str> = self.end_to_end.iter().map(|x| x.name).collect();
            if names != END_TO_END {
                return Err(format!(
                    "end-to-end metrics {names:?} differ from END_TO_END"
                ));
            }
            self.end_to_end.clone()
        };
        for x in &shown {
            if !x.value.is_finite() {
                return Err(format!("metric {} is not finite", x.name));
            }
        }
        let metrics: Vec<String> = shown
            .iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    x.name, x.value, x.unit
                )
            })
            .collect();
        println!(
            // A request whose outputs fail a check ends the run before
            // this line, so a printed result has no failed requests.
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.requests,
            metrics.join(", ")
        );
        Ok(())
    }
}
