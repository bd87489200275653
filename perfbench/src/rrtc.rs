//! `rrtc_batch`: lockstep RRT-Connect lane batches (`rrt_connect_batch`)
//! on one shared `SoftwareChecker` per scene. Each request is one batch of
//! lanes from one scene, validated in rake blocks; there is no accelerator
//! replay and no MLP. Batches rotate through the ten benchmark scenes.
//!
//! The lanes run the service's budgeted RRT-Connect tier
//! (`QualityTier::Fallback`): with `RrtConfig::default()` no lane fails on
//! these scenes, which leaves `plan_fail_frac` at exactly 0.

use std::time::Instant;

use mp_collision::{CdStats, CollisionChecker, SoftwareChecker};
use mp_octree::benchmark_scenes;
use mp_planner::queries::generate_queries;
use mp_planner::{
    rrt_connect_batch, BatchQuery, PlanBudget, PlanCertifier, QualityTier, RrtConfig,
};
use mp_robot::JointConfig;

use crate::harness::{
    cd_counts, cd_metrics, digest_of, m, mix, peak_rss_mb, percentile, run_rounds, timed_setup,
    Args, Report, Sample, Workload,
};
use crate::trace::{TimedChecker, Tracer, CHECK_POSE};

/// Lanes (queries) per batch request.
const LANES: usize = 8;

/// Batches per scene; requests per round = 10 × this.
const BATCHES_PER_SCENE: usize = 50;

/// A lane misses its modeled deadline beyond this multiple of the mean
/// modeled plan time (the service tenants' deadline rule).
const DEADLINE_X_MEAN: f64 = 4.0;

struct SceneState {
    checker: SoftwareChecker,
    certifier: PlanCertifier,
}

struct Rrtc {
    scenes: Vec<SceneState>,
    /// `(scene, lanes)` per request.
    batches: Vec<(usize, Vec<BatchQuery>)>,
    cfg: RrtConfig,
    /// Pose checks that hit, per request (set when the request is traced).
    hits: Vec<u64>,
    cert_failed: u64,
    cert_queries: u64,
}

fn setup(seed: u64) -> Result<Rrtc, String> {
    let robot = mp_robot::RobotModel::jaco2();
    let scenes = benchmark_scenes();
    let n = scenes.len();
    let mut per_scene = Vec::with_capacity(n);
    let mut queries = Vec::with_capacity(n);
    for (si, scene) in scenes.iter().enumerate() {
        per_scene.push(SceneState {
            checker: SoftwareChecker::new(robot.clone(), scene.octree()),
            certifier: PlanCertifier::new(
                robot.clone(),
                scene.obstacles(),
                scene.config().octree_depth,
            ),
        });
        let count = BATCHES_PER_SCENE * LANES;
        queries.push(
            generate_queries(
                &robot,
                scene,
                count,
                mix(seed ^ 0x5252_0000 ^ (si as u64) << 32),
            )
            .map_err(|e| format!("scene {si}: {e}"))?,
        );
    }
    let batches = (0..BATCHES_PER_SCENE * n)
        .map(|b| {
            let (scene, bi) = (b % n, b / n);
            let lanes = (0..LANES)
                .map(|l| {
                    let q = &queries[scene][bi * LANES + l];
                    BatchQuery {
                        start: q.start.clone(),
                        goal: q.goal.clone(),
                        seed: mix(seed.wrapping_mul(0x2000_0003) ^ (b * LANES + l) as u64),
                    }
                })
                .collect();
            (scene, lanes)
        })
        .collect();
    Ok(Rrtc {
        scenes: per_scene,
        batches,
        cfg: QualityTier::Fallback.rrt_config(),
        hits: vec![0; BATCHES_PER_SCENE * n],
        cert_failed: 0,
        cert_queries: 0,
    })
}

/// One lane's outputs and work.
#[derive(Clone, Debug, PartialEq)]
struct Lane {
    path: Option<Vec<JointConfig>>,
    nodes: u64,
    cd: CdStats,
}

/// One batch request's outputs and work.
#[derive(Clone, Debug, PartialEq)]
struct Record {
    lanes: Vec<Lane>,
    /// Work the shared checker did during the batch.
    cd: CdStats,
}

impl Workload for Rrtc {
    type Record = Record;

    fn len(&self) -> usize {
        self.batches.len()
    }

    fn run(&mut self, i: usize, tracer: &mut Tracer) -> (Sample, Record) {
        let (scene, lanes) = &self.batches[i];
        let s = &mut self.scenes[*scene];
        let cd_before = s.checker.stats();
        let t0 = Instant::now();
        let outs = if tracer.enabled() {
            let root = tracer.begin("request");
            let sp = tracer.begin("planner.rrt_connect_batch");
            let mut timed = TimedChecker::new(&mut s.checker);
            let outs = rrt_connect_batch(&mut timed, lanes, &self.cfg);
            let (poses, hits) = (timed.poses, timed.hits);
            let nodes = outs.iter().map(|o| o.outcome.nodes as u64).sum();
            tracer.end(
                sp,
                Some(poses),
                &[("lanes", lanes.len() as u64), ("tree_nodes", nodes)],
            );
            tracer.end(root, None, &[]);
            self.hits[i] = hits;
            outs
        } else {
            rrt_connect_batch(&mut s.checker, lanes, &self.cfg)
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let record = Record {
            lanes: outs
                .into_iter()
                .map(|o| Lane {
                    path: o.outcome.path,
                    nodes: o.outcome.nodes as u64,
                    cd: o.stats,
                })
                .collect(),
            cd: s.checker.stats().delta_since(&cd_before),
        };
        // No simulator runs here: the modeled figures come straight from
        // the lanes' CD counters, so the whole request produces them.
        (Sample { ms, sim_ms: ms }, record)
    }

    /// Checks that per-lane CD attribution sums to the shared checker's
    /// work and re-certifies every solved lane on the scene's
    /// independently built checker.
    fn check(&mut self, i: usize, rec: &Record) -> Result<(), String> {
        let (scene, queries) = &self.batches[i];
        let mut lane_cd = CdStats::default();
        rec.lanes.iter().for_each(|l| lane_cd.absorb(l.cd));
        if lane_cd != rec.cd {
            return Err(format!(
                "per-lane CD attribution {lane_cd:?} does not sum to the shared checker's work {:?}",
                rec.cd
            ));
        }
        for (q, lane) in queries.iter().zip(&rec.lanes) {
            let Some(path) = &lane.path else { continue };
            if path.first() != Some(&q.start) || path.last() != Some(&q.goal) {
                return Err("solved lane does not join its start and goal".into());
            }
            let c = self.scenes[*scene].certifier.certify(path);
            self.cert_queries += c.cd_queries;
            if !c.clean {
                eprintln!(
                    "batch {i}: solved lane failed certification at edge {:?}",
                    c.first_bad_edge
                );
                self.cert_failed += 1;
            }
        }
        Ok(())
    }
}

/// Runs the `rrtc_batch` workload.
pub fn bench(args: &Args) -> Result<Report, String> {
    let (mut w, setup_s) = timed_setup(|| setup(args.seed))?;
    let mut tracer = Tracer::new();
    let runs = run_rounds(&mut w, args, &mut tracer)?;
    let lanes: Vec<&Lane> = runs.records.iter().flat_map(|r| &r.lanes).collect();
    let n = lanes.len() as f64;
    let unsolved_n = lanes.iter().filter(|l| l.path.is_none()).count() as u64;
    let failed = unsolved_n + w.cert_failed;
    let modeled_us: Vec<f64> = lanes
        .iter()
        .map(|l| PlanBudget::modeled_us(l.cd.pose_queries, 0))
        .collect();
    let modeled_s = modeled_us.iter().sum::<f64>() / 1e6;
    let mean_us = modeled_s * 1e6 / n;
    let late = modeled_us
        .iter()
        .filter(|&&us| us > DEADLINE_X_MEAN * mean_us)
        .count() as u64;
    let mut cd = CdStats::default();
    lanes.iter().for_each(|l| cd.absorb(l.cd));
    let tree_nodes: u64 = lanes.iter().map(|l| l.nodes).sum();
    let waypoints: u64 = lanes
        .iter()
        .map(|l| l.path.as_ref().map_or(0, |p| p.len() as u64))
        .sum();
    let plans_per_s = n / runs.best_s();
    let end_to_end = vec![
        m("setup_s", "s", setup_s),
        m("latency_ms_p50", "ms", percentile(&runs.best_ms(), 0.50)),
        m("latency_ms_p95", "ms", percentile(&runs.best_ms(), 0.95)),
        m("plans_per_s", "1/s", plans_per_s),
        m("plan_fail_frac", "frac", failed as f64 / n),
        m("modeled_plan_us_p50", "us", percentile(&modeled_us, 0.50)),
        m("modeled_uj_per_plan", "uJ", cd.energy_pj() / 1e6 / n),
        m("sim_requests_per_s", "1/s", n / runs.best_sim_s()),
        m(
            "sim_goodput_rps",
            "1/s",
            (n - unsolved_n as f64) / modeled_s,
        ),
        m("sim_p99_us", "us", percentile(&modeled_us, 0.99)),
        m("sim_miss_frac", "frac", (unsolved_n + late) as f64 / n),
        m("peak_rss_mb", "MB", peak_rss_mb()?),
    ];
    let mut counts = vec![
        ("planner.lanes", lanes.len() as u64),
        ("planner.unsolved", unsolved_n),
        ("planner.tree_nodes", tree_nodes),
        ("planner.path_waypoints", waypoints),
        ("check.certify_queries", w.cert_queries),
    ];
    counts.extend(cd_counts(&cd));
    let per_layer = if args.trace {
        let batch_t = tracer.layer("planner.rrt_connect_batch");
        let pose_t = tracer.layer(CHECK_POSE);
        let per_call = |ns: u64| ns as f64 / 1e6 / batch_t.calls.max(1) as f64;
        let mut v = cd_metrics(&cd, w.hits.iter().sum(), pose_t, batch_t.calls);
        v.extend([
            m("planner.batch_self_ms", "ms", per_call(batch_t.self_ns())),
            m("planner.tree_nodes", "count", tree_nodes as f64),
            m(
                "planner.useful_frac",
                "frac",
                waypoints as f64 / tree_nodes as f64,
            ),
            m("trace.overhead_frac", "frac", runs.overhead_frac()),
        ]);
        v
    } else {
        Vec::new()
    };
    if w.cert_failed > 0 {
        return Err(format!(
            "{} solved lanes failed independent certification",
            w.cert_failed
        ));
    }
    Ok(Report {
        end_to_end,
        per_layer,
        counts,
        digest: digest_of(&runs.records, |d, r| {
            for l in &r.lanes {
                d.path(l.path.as_deref());
                d.u64(l.nodes);
                d.u64(l.cd.pose_queries);
                d.u64(l.cd.box_tests);
                d.u64(l.cd.mults);
            }
        }),
        requests: runs.requests(),
        chrome: args.trace.then(|| tracer.chrome_json()),
    })
}
