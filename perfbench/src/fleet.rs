//! `fleet_soak`: discrete-event simulations (DES) over a plan catalog
//! built in set-up. Collision detection runs only in set-up, so the timed
//! region is the DES event loop alone. Each request is one simulation run
//! with open-loop arrivals; the runs alternate the two entry points, with
//! about equal simulated request counts:
//!
//! * `run_fleet`: 16 shards × 2 instances at 2× saturation, two shards
//!   crash-killed mid-run, failover, hedging and fairness on;
//! * `run_service`: 4 instances at 2× saturation, faults with a lemon
//!   instance, certify-vote-scrub integrity with silent data corruption
//!   injected on a hot instance.

use std::time::Instant;

use mp_octree::benchmark_scenes;
use mp_planner::QualityTier;
use mp_service::{
    FaultProfile, FleetConfig, FleetSummary, IntegrityConfig, PlanCatalog, ServiceConfig,
    ServiceSummary, TenantPolicy, TenantSpec,
};
use mp_sim::arrival::{ArrivalKind, ArrivalProcess};
use mp_sim::fault::{ShardFaultEvent, ShardFaultKind, ShardFaultPlan};
use mp_sim::vtime::VirtualNs;
use threadpool::ThreadPool;

use crate::harness::{
    digest_of, m, mix, peak_rss_mb, percentile, run_rounds, timed_setup, Args, Report, Sample,
    Workload,
};
use crate::trace::Tracer;

/// Catalog queries per benchmark scene.
const CATALOG_QUERIES_PER_SCENE: usize = 80;

/// Fleet and service run pairs per round.
const RUN_PAIRS: usize = 100;

const SHARDS: usize = 16;
const INSTANCES_PER_SHARD: usize = 2;
const SERVICE_INSTANCES: usize = 4;
const LOAD: f64 = 2.0;
const KILLED: [usize; 2] = [3, 11];

/// Requests one run is expected to offer. Each run's arrival window is
/// sized from the catalog's saturating rate to offer about this many, so
/// fleet and service runs are about equal and a run's size does not
/// depend on the seed.
const REQUESTS_PER_RUN: f64 = 1_500.0;

/// One simulation run's inputs.
enum Run {
    Fleet {
        tenants: Vec<TenantSpec>,
        policies: Vec<TenantPolicy>,
        duration_ns: VirtualNs,
        cfg: FleetConfig,
        chaos: ShardFaultPlan,
    },
    Service {
        tenants: Vec<TenantSpec>,
        duration_ns: VirtualNs,
        cfg: ServiceConfig,
    },
}

struct Fleet {
    catalog: PlanCatalog,
    runs: Vec<Run>,
}

/// Interactive Poisson traffic (70%) with a tight deadline and bursty
/// traffic (30%) with a looser one, at `LOAD` × the pool's saturating rate.
fn tenants(catalog: &PlanCatalog, instances: usize, seed: u64) -> Vec<TenantSpec> {
    let rate = LOAD * catalog.saturating_rate_per_s(instances);
    let deadline_us = (4.0 * catalog.mean_service_us(QualityTier::Full)) as u64;
    vec![
        TenantSpec {
            label: "interactive",
            process: ArrivalProcess {
                kind: ArrivalKind::Poisson,
                rate_per_s: rate * 0.7,
                seed: mix(seed ^ 1),
            },
            deadline_us,
        },
        TenantSpec {
            label: "bursty",
            process: ArrivalProcess {
                kind: ArrivalKind::Bursty {
                    burst_factor: 5.0,
                    period_us: 1_000,
                    duty: 0.2,
                },
                rate_per_s: rate * 0.3,
                seed: mix(seed ^ 2),
            },
            deadline_us: deadline_us * 2,
        },
    ]
}

/// Arrival window in which `instances` at `LOAD` × saturation are offered
/// about [`REQUESTS_PER_RUN`] requests.
fn window_ns(catalog: &PlanCatalog, instances: usize) -> VirtualNs {
    (REQUESTS_PER_RUN / (LOAD * catalog.saturating_rate_per_s(instances)) * 1e9) as VirtualNs
}

fn build_runs(catalog: &PlanCatalog, seed: u64) -> Vec<Run> {
    let fleet_ns = window_ns(catalog, SHARDS * INSTANCES_PER_SHARD);
    let mut runs = Vec::with_capacity(2 * RUN_PAIRS);
    for k in 0..RUN_PAIRS as u64 {
        let s = mix(seed.wrapping_mul(0x3000_0005) ^ k);
        let kill = |shard| ShardFaultEvent {
            at_ns: fleet_ns / 4,
            shard,
            kind: ShardFaultKind::Crash,
            duration_ns: fleet_ns / 4,
            slow_factor: 1,
        };
        runs.push(Run::Fleet {
            tenants: tenants(catalog, SHARDS * INSTANCES_PER_SHARD, s),
            policies: vec![
                TenantPolicy {
                    weight: 4,
                    ..TenantPolicy::default()
                },
                TenantPolicy {
                    weight: 2,
                    ..TenantPolicy::default()
                },
            ],
            duration_ns: fleet_ns,
            cfg: FleetConfig {
                shards: SHARDS,
                shard: ServiceConfig {
                    instances: INSTANCES_PER_SHARD,
                    ..ServiceConfig::default()
                },
                seed: mix(s ^ 3),
                ..FleetConfig::default()
            },
            chaos: ShardFaultPlan::scripted(mix(s ^ 4), KILLED.iter().map(|&x| kill(x)).collect()),
        });
        runs.push(Run::Service {
            tenants: tenants(catalog, SERVICE_INSTANCES, mix(s ^ 5)),
            duration_ns: window_ns(catalog, SERVICE_INSTANCES),
            cfg: ServiceConfig {
                instances: SERVICE_INSTANCES,
                faults: FaultProfile::with_lemon(0.01, 0, 10.0).with_sdc(1e-3, Some(0), 100.0),
                integrity: IntegrityConfig::full(),
                seed: mix(s ^ 6),
                ..ServiceConfig::default()
            },
        });
    }
    runs
}

fn build_catalog(seed: u64) -> Result<PlanCatalog, String> {
    PlanCatalog::build(
        &mp_robot::RobotModel::jaco2(),
        &benchmark_scenes(),
        CATALOG_QUERIES_PER_SCENE,
        mix(seed ^ 0xCA7A_1090),
        &ThreadPool::new(1),
    )
}

/// One simulation run's outcome.
#[derive(Clone, Debug, PartialEq, Default)]
struct Record {
    fleet: bool,
    offered: u64,
    on_time: u64,
    served: u64,
    shed: u64,
    failed: u64,
    retries: u64,
    tier_stepdowns: u64,
    hedges_fired: u64,
    hedge_wins: u64,
    rerouted: u64,
    shard_kills: u64,
    votes: u64,
    sdc_injected: u64,
    sdc_escaped: u64,
    energy_pj: f64,
    wasted_pj: f64,
    duration_ns: u64,
    /// Served latencies (ns), sorted.
    latencies_ns: Vec<u64>,
}

impl Record {
    fn new(s: &ServiceSummary) -> Record {
        Record {
            offered: s.offered,
            on_time: s.on_time,
            served: s.completed(),
            shed: s.shed(),
            failed: s.failed_faults + s.unsolved,
            retries: s.retries,
            tier_stepdowns: s.tier_stepdowns,
            votes: s.integrity.votes,
            sdc_injected: s.integrity.sdc_injected,
            sdc_escaped: s.integrity.sdc_escaped,
            energy_pj: s.energy_pj,
            wasted_pj: s.wasted_energy_pj,
            duration_ns: s.duration_ns,
            latencies_ns: s.latency_histogram().samples().to_vec(),
            ..Record::default()
        }
    }

    fn from_fleet(f: &FleetSummary) -> Record {
        Record {
            fleet: true,
            hedges_fired: f.hedges_fired,
            hedge_wins: f.hedge_wins,
            rerouted: f.rerouted,
            shard_kills: f.shard_kills,
            ..Record::new(&f.fleet)
        }
    }
}

impl Workload for Fleet {
    type Record = Record;

    fn len(&self) -> usize {
        self.runs.len()
    }

    fn run(&mut self, i: usize, tracer: &mut Tracer) -> (Sample, Record) {
        let root = tracer.begin("request");
        let t0 = Instant::now();
        let record = match &self.runs[i] {
            Run::Fleet {
                tenants,
                policies,
                duration_ns,
                cfg,
                chaos,
            } => {
                let sp = tracer.begin("service.run_fleet");
                let f = mp_service::run_fleet(
                    &self.catalog,
                    tenants,
                    policies,
                    *duration_ns,
                    cfg,
                    chaos,
                );
                tracer.end(
                    sp,
                    None,
                    &[
                        ("offered", f.fleet.offered),
                        ("hedges_fired", f.hedges_fired),
                    ],
                );
                Record::from_fleet(&f)
            }
            Run::Service {
                tenants,
                duration_ns,
                cfg,
            } => {
                let sp = tracer.begin("service.run_service");
                let s = mp_service::run_service(&self.catalog, tenants, *duration_ns, cfg);
                tracer.end(
                    sp,
                    None,
                    &[("offered", s.offered), ("votes", s.integrity.votes)],
                );
                Record::new(&s)
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.end(root, None, &[]);
        (Sample { ms, sim_ms: ms }, record)
    }

    /// Every request resolving exactly once, both chaos kills landing,
    /// and no corrupted plan escaping the defended pipeline.
    fn check(&mut self, _: usize, rec: &Record) -> Result<(), String> {
        let resolved = rec.served + rec.shed + rec.failed;
        if rec.offered != resolved || rec.offered == 0 {
            return Err(format!(
                "{} requests offered but {resolved} resolved",
                rec.offered
            ));
        }
        if rec.fleet && rec.shard_kills != KILLED.len() as u64 {
            return Err(format!(
                "{} of {} shard kills landed",
                rec.shard_kills,
                KILLED.len()
            ));
        }
        if rec.sdc_escaped != 0 {
            return Err(format!(
                "{} corrupted plans escaped the defended pipeline",
                rec.sdc_escaped
            ));
        }
        Ok(())
    }
}

/// Runs the `fleet_soak` workload.
pub fn bench(args: &Args) -> Result<Report, String> {
    let (catalog, catalog_s) = timed_setup(|| build_catalog(args.seed))?;
    let runs = build_runs(&catalog, args.seed);
    let mut w = Fleet { catalog, runs };
    let mut tracer = Tracer::new();
    let runs = run_rounds(&mut w, args, &mut tracer)?;
    let recs = &runs.records;
    let sum = |f: fn(&Record) -> u64| recs.iter().map(f).sum::<u64>();
    let (offered, on_time, served, failed) = (
        sum(|r| r.offered),
        sum(|r| r.on_time),
        sum(|r| r.served),
        sum(|r| r.failed),
    );
    if sum(|r| r.sdc_injected) == 0 {
        return Err(
            "no silent corruption was injected, so the integrity check proved nothing".into(),
        );
    }
    let energy_pj: f64 = recs.iter().map(|r| r.energy_pj).sum();
    let wasted_pj: f64 = recs.iter().map(|r| r.wasted_pj).sum();
    let lat_us: Vec<f64> = recs
        .iter()
        .flat_map(|r| &r.latencies_ns)
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let sim_rate = offered as f64 / runs.best_s();
    let end_to_end = vec![
        m("setup_s", "s", catalog_s),
        m("latency_ms_p50", "ms", percentile(&runs.best_ms(), 0.50)),
        m("latency_ms_p95", "ms", percentile(&runs.best_ms(), 0.95)),
        m("plans_per_s", "1/s", sim_rate),
        m("plan_fail_frac", "frac", failed as f64 / offered as f64),
        m("modeled_plan_us_p50", "us", percentile(&lat_us, 0.50)),
        m("modeled_uj_per_plan", "uJ", energy_pj / served as f64 / 1e6),
        m("sim_requests_per_s", "1/s", sim_rate),
        m(
            "sim_goodput_rps",
            "1/s",
            on_time as f64 / (sum(|r| r.duration_ns) as f64 / 1e9),
        ),
        m("sim_p99_us", "us", percentile(&lat_us, 0.99)),
        m(
            "sim_miss_frac",
            "frac",
            1.0 - on_time as f64 / offered as f64,
        ),
        m("peak_rss_mb", "MB", peak_rss_mb()?),
    ];
    let counts = vec![
        ("service.fleet_runs", sum(|r| r.fleet as u64)),
        ("service.service_runs", sum(|r| !r.fleet as u64)),
        ("service.offered", offered),
        ("service.served", served),
        ("service.shed", sum(|r| r.shed)),
        ("service.failed", failed),
        ("service.retries", sum(|r| r.retries)),
        ("service.tier_stepdowns", sum(|r| r.tier_stepdowns)),
        ("service.hedges_fired", sum(|r| r.hedges_fired)),
        ("service.hedge_wins", sum(|r| r.hedge_wins)),
        ("service.rerouted", sum(|r| r.rerouted)),
        ("service.votes", sum(|r| r.votes)),
        ("service.sdc_injected", sum(|r| r.sdc_injected)),
        ("service.sdc_escaped", sum(|r| r.sdc_escaped)),
    ];
    let per_layer = if args.trace {
        let per_call = |name: &str| {
            let t = tracer.layer(name);
            t.total_ns as f64 / 1e6 / t.calls.max(1) as f64
        };
        let count = |name: &'static str, v: u64| m(name, "count", v as f64);
        let hedges = sum(|r| r.hedges_fired);
        vec![
            m("service.catalog_build_s", "s", catalog_s),
            m("service.run_fleet_ms", "ms", per_call("service.run_fleet")),
            m(
                "service.run_service_ms",
                "ms",
                per_call("service.run_service"),
            ),
            count("service.offered", offered),
            count("service.served", served),
            count("service.shed", sum(|r| r.shed)),
            count("service.retries", sum(|r| r.retries)),
            count("service.tier_stepdowns", sum(|r| r.tier_stepdowns)),
            count("service.hedges_fired", hedges),
            m(
                "service.hedge_win_frac",
                "frac",
                sum(|r| r.hedge_wins) as f64 / hedges.max(1) as f64,
            ),
            count("service.rerouted", sum(|r| r.rerouted)),
            count("service.votes", sum(|r| r.votes)),
            count("service.sdc_escaped", sum(|r| r.sdc_escaped)),
            m(
                "service.wasted_energy_frac",
                "frac",
                wasted_pj / (energy_pj + wasted_pj),
            ),
            m("trace.overhead_frac", "frac", runs.overhead_frac()),
        ]
    } else {
        Vec::new()
    };
    Ok(Report {
        end_to_end,
        per_layer,
        counts,
        digest: digest_of(recs, |d, r| {
            for v in [
                r.offered,
                r.on_time,
                r.served,
                r.shed,
                r.failed,
                r.retries,
                r.hedges_fired,
            ] {
                d.u64(v);
            }
            d.f64(r.energy_pj);
            r.latencies_ns.iter().for_each(|&ns| d.u64(ns));
        }),
        requests: runs.requests(),
        chrome: args.trace.then(|| tracer.chrome_json()),
    })
}
