//! The per-replay pose memo must not change any replayed number.
//!
//! `MpAccelSystem::run_trace_ledgered` answers a pose the trace already
//! asked for from a memo. These tests replay real MPNet traces through it
//! and through a reference replay that builds a fresh, unmemoized
//! `CecduCdu` for every batch (the replay as it was before the memo), and
//! require the reports, the energy ledgers and the process-wide collision
//! counters to agree exactly.
//!
//! The process-wide counters are shared by every test in this binary, so
//! each test holds `SERIAL` while it measures them.

use std::sync::Mutex;

use mp_collision::{metrics, SoftwareChecker};
use mp_geometry::Vec3;
use mp_octree::{Octree, Scene, SceneConfig};
use mp_planner::queries::generate_queries;
use mp_planner::{plan, MpnetConfig, OracleSampler};
use mp_robot::{DhParam, JointLimit, LinkGeometry, Motion, RobotModel};
use mp_sim::{CecduConfig, EnergyLedger, IuKind, MpaccelConfig, OpCounter};
use mpaccel_core::cecdu::CecduSim;
use mpaccel_core::memo::MAX_KEY_DOF;
use mpaccel_core::mpaccel::{MpAccelSystem, RunReport, SystemConfig};
use mpaccel_core::sas::{run_sas, CecduCdu, FunctionMode, SasConfig};
use mpaccel_core::trace::{PlannerTrace, TraceEvent};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The replay without a memo: one fresh CECDU per `CdBatch`.
fn reference_replay(
    robot: &RobotModel,
    octree: &Octree,
    config: &SystemConfig,
    sas: &SasConfig,
    trace: &PlannerTrace,
) -> (RunReport, EnergyLedger) {
    let clock = config.accel.cecdu.iu.clock();
    let mut report = RunReport::default();
    let mut ledger = EnergyLedger::new();
    for event in &trace.events {
        match event {
            TraceEvent::NnInference { macs } => {
                let s = (*macs as f64 * 2.0) / (config.dnn_tops * 1e12);
                report.nn_ms += s * 1e3;
                let ops = OpCounter {
                    mlp_macs: *macs,
                    ..OpCounter::default()
                };
                report.ops += ops;
                ledger.bill("nn", ops);
            }
            TraceEvent::Controller { instructions } => {
                let s = *instructions as f64 / (config.controller_ghz * 1e9);
                report.controller_ms += s * 1e3;
            }
            TraceEvent::BusTransfer { bytes } => {
                let s = *bytes as f64 / (config.bus_gbps * 1e9);
                report.bus_ms += s * 1e3;
                let ops = OpCounter {
                    dram_bytes: *bytes,
                    ..OpCounter::default()
                };
                report.ops += ops;
                ledger.bill("bus", ops);
            }
            TraceEvent::CdBatch { motions, mode } => {
                if motions.is_empty() {
                    continue;
                }
                let sim = CecduSim::new(robot.clone(), octree.clone(), config.accel.cecdu);
                let r = run_sas(motions, *mode, sas, &mut CecduCdu::new(sim));
                report.cd_cycles += r.cycles;
                report.cd_queries += r.queries;
                report.ops += r.ops;
                ledger.bill("cd", r.ops);
                report.cd_ms += clock.cycles_to_ms(r.cycles);
            }
        }
    }
    report.total_ms = report.nn_ms + report.cd_ms + report.controller_ms + report.bus_ms;
    report.accel_energy_mj = config.accel.area_power().power_w * report.cd_ms;
    report.datapath_energy_uj = mp_sim::energy::dynamic_energy_uj(&report.ops);
    (report, ledger)
}

/// Runs `f` and returns its result with the process-wide pose-check and
/// collision-op deltas it caused.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, OpCounter) {
    let (checks, ops) = (metrics::pose_checks_total(), metrics::ops_total());
    let out = f();
    let d_ops = metrics::ops_total();
    let delta = OpCounter {
        mults: d_ops.mults - ops.mults,
        sram_reads: d_ops.sram_reads - ops.sram_reads,
        box_tests: d_ops.box_tests - ops.box_tests,
        cd_queries: d_ops.cd_queries - ops.cd_queries,
        ..OpCounter::default()
    };
    (out, metrics::pose_checks_total() - checks, delta)
}

/// The memoized replay with the `memo_hits` argument of its `core/run_trace`
/// telemetry span.
fn memo_replay(sys: &MpAccelSystem, trace: &PlannerTrace) -> ((RunReport, EnergyLedger), u64) {
    let session = mp_telemetry::TelemetrySession::new();
    let out = {
        let _guard = session.install("replay", 0);
        sys.run_trace_ledgered(trace)
    };
    let hits = session
        .streams()
        .iter()
        .flat_map(|s| s.events.iter())
        .filter(|e| e.cat == "core" && e.name == "run_trace")
        .flat_map(|e| e.args.iter().flatten())
        .find_map(|(name, v)| match (*name, v) {
            ("memo_hits", mp_telemetry::ArgValue::U64(n)) => Some(*n),
            _ => None,
        })
        .expect("run_trace span carries memo_hits");
    (out, hits)
}

/// MPNet traces for a few queries per scene.
fn mpnet_traces(robot: &RobotModel, scene: &Scene, seed: u64, n: usize) -> Vec<PlannerTrace> {
    let queries = generate_queries(robot, scene, n, seed).expect("queries");
    let mut checker = SoftwareChecker::new(robot.clone(), scene.octree());
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let seed = seed * 1000 + i as u64;
            let mut sampler = OracleSampler::new(robot.clone(), seed);
            let cfg = MpnetConfig {
                seed,
                ..MpnetConfig::default()
            };
            plan(&mut checker, &mut sampler, &q.start, &q.goal, &cfg).trace
        })
        .collect()
}

#[test]
fn memoized_replay_matches_fresh_cdu_replay() {
    let _serial = serial();
    let configs = [
        SystemConfig::paper_default(),
        SystemConfig::with_accel(MpaccelConfig::new(
            16,
            CecduConfig::new(1, IuKind::Pipelined),
        )),
    ];
    let (mut hits, mut queries) = (0u64, 0u64);
    for robot in [RobotModel::jaco2(), RobotModel::baxter()] {
        for scene_seed in [0u64, 4, 7] {
            let scene = Scene::random(SceneConfig::paper(), scene_seed);
            let octree = scene.octree();
            for trace in mpnet_traces(&robot, &scene, scene_seed + 11, 2) {
                for config in &configs {
                    for sas in [
                        SasConfig::mcsp(config.accel.cecdus),
                        SasConfig::sequential(),
                    ] {
                        let sys = MpAccelSystem::new(robot.clone(), octree.clone(), *config)
                            .with_scheduler(sas);
                        let (want, want_checks, want_ops) =
                            counted(|| reference_replay(&robot, &octree, config, &sas, &trace));
                        let ((got, h), got_checks, got_ops) = counted(|| memo_replay(&sys, &trace));
                        let what =
                            format!("{} scene {scene_seed} {config:?} {sas:?}", robot.name());
                        assert_eq!(got.0, want.0, "report differs: {what}");
                        assert_eq!(got.1, want.1, "ledger differs: {what}");
                        assert_eq!(got_checks, want_checks, "pose checks differ: {what}");
                        assert_eq!(got_ops, want_ops, "collision ops differ: {what}");
                        hits += h;
                        queries += got.0.cd_queries;
                    }
                }
            }
        }
    }
    assert!(
        hits > 0 && hits < queries,
        "{hits} memo hits of {queries} queries"
    );
}

#[test]
fn replaying_twice_gives_the_same_report_and_hits() {
    let _serial = serial();
    let robot = RobotModel::jaco2();
    let scene = Scene::random(SceneConfig::paper(), 2);
    let sys = MpAccelSystem::new(robot.clone(), scene.octree(), SystemConfig::paper_default());
    let traces = mpnet_traces(&robot, &scene, 5, 3);
    let first: Vec<_> = traces.iter().map(|t| memo_replay(&sys, t)).collect();
    // Interleave other traces, then replay each again: no answer may carry
    // over from an earlier call, so hits must repeat exactly.
    for (t, want) in traces.iter().zip(&first).rev() {
        assert_eq!(&memo_replay(&sys, t), want);
    }
    assert!(first.iter().any(|(_, hits)| *hits > 0));
}

/// A planar chain with more joints than the memo key holds.
fn wide_robot(dof: usize) -> RobotModel {
    let l = 0.08;
    let r = 0.02;
    let dh = (0..dof).map(|_| DhParam::new(l, 0.0, 0.0, 0.0)).collect();
    let limits = (0..dof)
        .map(|_| JointLimit::symmetric(std::f32::consts::PI))
        .collect();
    let links = (1..=dof)
        .map(|f| {
            LinkGeometry::new(
                f,
                Vec3::new(-l * 0.5, 0.0, 0.0),
                Vec3::new(l * 0.5 + r, r, r),
            )
        })
        .collect();
    RobotModel::new("wide-planar", dh, limits, links)
}

#[test]
fn robots_wider_than_the_key_replay_unmemoized() {
    let _serial = serial();
    let robot = wide_robot(MAX_KEY_DOF + 2);
    let octree = Scene::random(SceneConfig::paper(), 1).octree();
    let config = SystemConfig::paper_default();
    let mut far = robot.home();
    far.as_mut_slice().iter_mut().for_each(|v| *v += 0.4);
    let motion = Motion::new(robot.home(), far).descriptor(0.05);
    let mut trace = PlannerTrace::new();
    for _ in 0..2 {
        // The same motion twice: every pose repeats, yet none can be keyed.
        trace.push(TraceEvent::CdBatch {
            motions: vec![motion.clone()],
            mode: FunctionMode::Complete,
        });
    }
    let sys = MpAccelSystem::new(robot.clone(), octree.clone(), config);
    let sas = SasConfig::mcsp(config.accel.cecdus);
    let (want, want_checks, _) =
        counted(|| reference_replay(&robot, &octree, &config, &sas, &trace));
    let ((got, hits), got_checks, _) = counted(|| memo_replay(&sys, &trace));
    assert_eq!(got.0, want.0);
    assert_eq!(got.1, want.1);
    assert_eq!(got_checks, want_checks);
    assert_eq!(hits, 0);
    assert!(got.0.cd_queries > 0);
    assert_eq!(robot.dof(), MAX_KEY_DOF + 2);
}
