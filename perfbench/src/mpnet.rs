//! `mpnet_accel`: the paper's pipeline, one query per request. MPNet
//! (`OracleSampler`) plans in software on the scene's `SoftwareChecker`,
//! then its trace is replayed on the MPAccel system model (paper-default
//! configuration, MCSP scheduler). Requests rotate through the ten
//! benchmark scenes, so consecutive requests use different octrees and
//! checkers. This is the only workload where `core` does work.

use std::time::Instant;

use mp_collision::{CdStats, CollisionChecker, SoftwareChecker};
use mp_octree::benchmark_scenes;
use mp_planner::queries::generate_queries;
use mp_planner::{plan, MpnetConfig, OracleSampler, PlanCertifier, PlanOutcome, PlanStats};
use mp_robot::{JointConfig, RobotModel};
use mpaccel_core::mpaccel::{MpAccelSystem, RunReport, SystemConfig};

use crate::harness::{
    cd_counts, cd_metrics, digest_of, m, mix, peak_rss_mb, percentile, run_rounds, timed_setup,
    Args, Report, Sample, Workload,
};
use crate::trace::{TimedChecker, Tracer, CHECK_POSE};

/// Queries per scene; requests per round = 10 × this.
const QUERIES_PER_SCENE: usize = 300;

/// A plan misses its modeled deadline beyond this multiple of the mean
/// modeled plan time (the service tenants' deadline rule).
const DEADLINE_X_MEAN: f64 = 4.0;

struct SceneState {
    checker: SoftwareChecker,
    system: MpAccelSystem,
    certifier: PlanCertifier,
}

struct Request {
    scene: usize,
    start: JointConfig,
    goal: JointConfig,
    seed: u64,
}

struct Mpnet {
    robot: RobotModel,
    scenes: Vec<SceneState>,
    requests: Vec<Request>,
    /// Pose checks that hit, per request (set when the request is traced).
    hits: Vec<u64>,
    /// Software pose checks the certification spent.
    cert_queries: u64,
    /// Solved plans that failed independent certification.
    cert_failed: u64,
}

fn setup(seed: u64) -> Result<Mpnet, String> {
    let robot = RobotModel::jaco2();
    let scenes = benchmark_scenes();
    let n = scenes.len();
    let mut per_scene = Vec::with_capacity(n);
    let mut queries = Vec::with_capacity(n);
    for (si, scene) in scenes.iter().enumerate() {
        let octree = scene.octree();
        per_scene.push(SceneState {
            checker: SoftwareChecker::new(robot.clone(), octree.clone()),
            system: MpAccelSystem::new(robot.clone(), octree, SystemConfig::paper_default()),
            certifier: PlanCertifier::new(
                robot.clone(),
                scene.obstacles(),
                scene.config().octree_depth,
            ),
        });
        queries.push(
            generate_queries(
                &robot,
                scene,
                QUERIES_PER_SCENE,
                mix(seed ^ (si as u64) << 32),
            )
            .map_err(|e| format!("scene {si}: {e}"))?,
        );
    }
    let requests = (0..QUERIES_PER_SCENE * n)
        .map(|i| {
            let q = &queries[i % n][i / n];
            Request {
                scene: i % n,
                start: q.start.clone(),
                goal: q.goal.clone(),
                seed: mix(seed.wrapping_mul(0x1000_0001) ^ i as u64),
            }
        })
        .collect();
    Ok(Mpnet {
        robot,
        scenes: per_scene,
        requests,
        hits: vec![0; QUERIES_PER_SCENE * n],
        cert_queries: 0,
        cert_failed: 0,
    })
}

/// One request's outputs and work.
#[derive(Clone, Debug, PartialEq)]
struct Record {
    path: Option<Vec<JointConfig>>,
    stats: PlanStats,
    cd: CdStats,
    report: RunReport,
    energy_pj: f64,
}

fn plan_one<C: CollisionChecker>(checker: &mut C, robot: &RobotModel, r: &Request) -> PlanOutcome {
    let mut sampler = OracleSampler::new(robot.clone(), r.seed);
    let cfg = MpnetConfig {
        seed: r.seed,
        ..MpnetConfig::default()
    };
    plan(checker, &mut sampler, &r.start, &r.goal, &cfg)
}

impl Workload for Mpnet {
    type Record = Record;

    fn len(&self) -> usize {
        self.requests.len()
    }

    fn run(&mut self, i: usize, tracer: &mut Tracer) -> (Sample, Record) {
        let r = &self.requests[i];
        let s = &mut self.scenes[r.scene];
        let cd_before = s.checker.stats();
        let t0 = Instant::now();
        let (out, t1, (report, ledger)) = if tracer.enabled() {
            let root = tracer.begin("request");
            let sp = tracer.begin("planner.plan");
            let mut timed = TimedChecker::new(&mut s.checker);
            let out = plan_one(&mut timed, &self.robot, r);
            let (poses, hits) = (timed.poses, timed.hits);
            let st = out.stats;
            tracer.end(
                sp,
                Some(poses),
                &[("replans", st.replans), ("nn_calls", st.nn_calls)],
            );
            self.hits[i] = hits;
            let t1 = Instant::now();
            let sp = tracer.begin("core.run_trace");
            let replay = s.system.run_trace_ledgered(&out.trace);
            let rep = &replay.0;
            tracer.end(
                sp,
                None,
                &[("cd_queries", rep.cd_queries), ("cd_cycles", rep.cd_cycles)],
            );
            tracer.end(root, None, &[]);
            (out, t1, replay)
        } else {
            let out = plan_one(&mut s.checker, &self.robot, r);
            let t1 = Instant::now();
            let replay = s.system.run_trace_ledgered(&out.trace);
            (out, t1, replay)
        };
        let t2 = Instant::now();
        let sample = Sample {
            ms: (t2 - t0).as_secs_f64() * 1e3,
            sim_ms: (t2 - t1).as_secs_f64() * 1e3,
        };
        let record = Record {
            path: out.path,
            stats: out.stats,
            cd: s.checker.stats().delta_since(&cd_before),
            report,
            energy_pj: ledger.total_energy_pj(),
        };
        (sample, record)
    }

    /// Cross-checks the replay's energy ledger against its report and
    /// re-certifies a solved plan on an independently built checker.
    fn check(&mut self, i: usize, rec: &Record) -> Result<(), String> {
        let r = &self.requests[i];
        let rep = &rec.report;
        let ledger_uj = rec.energy_pj / 1e6;
        if (ledger_uj - rep.datapath_energy_uj).abs() > 1e-6 * rep.datapath_energy_uj.max(1.0) {
            return Err(format!(
                "energy ledger {ledger_uj} uJ disagrees with the replay report {} uJ",
                rep.datapath_energy_uj
            ));
        }
        if rep.total_ms <= 0.0 || rec.stats.cd_queries != rec.cd.pose_queries {
            return Err(format!(
                "inconsistent plan stats {:?} / replay {rep:?}",
                rec.stats
            ));
        }
        let Some(path) = &rec.path else {
            return Ok(());
        };
        if path.first() != Some(&r.start) || path.last() != Some(&r.goal) {
            return Err("solved plan does not join the query's start and goal".into());
        }
        let c = self.scenes[r.scene].certifier.certify(path);
        self.cert_queries += c.cd_queries;
        if !c.clean {
            eprintln!(
                "request {i}: solved plan failed certification at edge {:?}",
                c.first_bad_edge
            );
            self.cert_failed += 1;
        }
        Ok(())
    }
}

/// Runs the `mpnet_accel` workload.
pub fn bench(args: &Args) -> Result<Report, String> {
    let (mut w, setup_s) = timed_setup(|| setup(args.seed))?;
    let mut tracer = Tracer::new();
    let runs = run_rounds(&mut w, args, &mut tracer)?;
    let recs = &runs.records;
    let plans = recs.len() as f64;
    let unsolved_n = recs.iter().filter(|r| r.path.is_none()).count() as u64;
    let failed = unsolved_n + w.cert_failed;
    let modeled_us: Vec<f64> = recs.iter().map(|r| r.report.total_ms * 1e3).collect();
    let modeled_s = modeled_us.iter().sum::<f64>() / 1e6;
    let mean_us = modeled_s * 1e6 / plans;
    let late = modeled_us
        .iter()
        .filter(|&&us| us > DEADLINE_X_MEAN * mean_us)
        .count() as u64;
    let sum = |f: fn(&Record) -> u64| recs.iter().map(f).sum::<u64>();
    let mut cd = CdStats::default();
    recs.iter().for_each(|r| cd.absorb(r.cd));
    let end_to_end = vec![
        m("setup_s", "s", setup_s),
        m("latency_ms_p50", "ms", percentile(&runs.best_ms(), 0.50)),
        m("latency_ms_p95", "ms", percentile(&runs.best_ms(), 0.95)),
        m("plans_per_s", "1/s", plans / runs.best_s()),
        m("plan_fail_frac", "frac", failed as f64 / plans),
        m("modeled_plan_us_p50", "us", percentile(&modeled_us, 0.50)),
        m(
            "modeled_uj_per_plan",
            "uJ",
            recs.iter().map(|r| r.energy_pj).sum::<f64>() / 1e6 / plans,
        ),
        m("sim_requests_per_s", "1/s", plans / runs.best_sim_s()),
        m(
            "sim_goodput_rps",
            "1/s",
            (plans - unsolved_n as f64) / modeled_s,
        ),
        m("sim_p99_us", "us", percentile(&modeled_us, 0.99)),
        m("sim_miss_frac", "frac", (unsolved_n + late) as f64 / plans),
        m("peak_rss_mb", "MB", peak_rss_mb()?),
    ];
    let replans = sum(|r| r.stats.replans);
    let nn_calls = sum(|r| r.stats.nn_calls);
    let mlp_macs = sum(|r| r.report.ops.mlp_macs);
    let core_cd = sum(|r| r.report.cd_queries);
    let core_cycles = sum(|r| r.report.cd_cycles);
    let core_sram = sum(|r| r.report.ops.sram_reads);
    let core_mults = sum(|r| r.report.ops.mults);
    let mut counts = vec![
        ("planner.plans", recs.len() as u64),
        ("planner.unsolved", unsolved_n),
        ("planner.replans", replans),
        ("planner.nn_calls", nn_calls),
        ("planner.mlp_macs", mlp_macs),
    ];
    counts.extend(cd_counts(&cd));
    counts.extend([
        ("core.cd_queries", core_cd),
        ("core.cd_cycles", core_cycles),
        ("core.sram_reads", core_sram),
        ("core.mults", core_mults),
        ("check.certify_queries", w.cert_queries),
    ]);
    let per_layer = if args.trace {
        let plan_t = tracer.layer("planner.plan");
        let pose_t = tracer.layer(CHECK_POSE);
        let core_t = tracer.layer("core.run_trace");
        let per_plan = |ns: u64| ns as f64 / 1e6 / plan_t.calls.max(1) as f64;
        let (cd_ms, total_ms) = recs.iter().fold((0.0, 0.0), |(a, b), r| {
            (a + r.report.cd_ms, b + r.report.total_ms)
        });
        // A traced run traces half of each request's executions.
        let traced_core_cd: u64 = recs
            .iter()
            .zip(&runs.executions)
            .map(|(r, &n)| r.report.cd_queries * (n / 2))
            .sum();
        let mut v = cd_metrics(&cd, w.hits.iter().sum(), pose_t, plan_t.calls);
        v.extend([
            m("planner.plan_self_ms", "ms", per_plan(plan_t.self_ns())),
            m("planner.replans", "count", replans as f64),
            m("planner.nn_calls", "count", nn_calls as f64),
            m("planner.mlp_macs", "count", mlp_macs as f64),
            m(
                "core.run_trace_ms",
                "ms",
                core_t.total_ns as f64 / 1e6 / core_t.calls.max(1) as f64,
            ),
            m(
                "core.poses_per_s",
                "1/s",
                traced_core_cd as f64 / (core_t.total_ns as f64 / 1e9),
            ),
            m("core.cd_queries", "count", core_cd as f64),
            m("core.cd_cycles", "count", core_cycles as f64),
            m("core.sram_reads", "count", core_sram as f64),
            m("core.mults", "count", core_mults as f64),
            m("core.modeled_cd_frac", "frac", cd_ms / total_ms),
            m("trace.overhead_frac", "frac", runs.overhead_frac()),
        ]);
        v
    } else {
        Vec::new()
    };
    if w.cert_failed > 0 {
        return Err(format!(
            "{} solved plans failed independent certification",
            w.cert_failed
        ));
    }
    Ok(Report {
        end_to_end,
        per_layer,
        counts,
        digest: digest_of(recs, |d, r| {
            d.path(r.path.as_deref());
            d.u64(r.cd.pose_queries);
            d.u64(r.cd.box_tests);
            d.u64(r.stats.replans);
            d.u64(r.report.cd_cycles);
            d.f64(r.report.total_ms);
            d.f64(r.energy_pj);
        }),
        requests: runs.requests(),
        chrome: args.trace.then(|| tracer.chrome_json()),
    })
}
