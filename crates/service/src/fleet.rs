//! The sharded planning fleet: consistent-hash routing, seeded shard
//! chaos with failover, hedged requests, and per-tenant isolation.
//!
//! A fleet is N independent shards, each a full single-shard service
//! (bounded queue, dispatcher, accelerator pool, fault injectors,
//! degradation ladder, circuit breakers, integrity defenses), joined by a
//! router. This is the crate's only event loop: [`crate::run_service`] is
//! a one-shard fleet with hedging, failover and fairness off.
//!
//! ```text
//!  tenants ─► token buckets ─► consistent-hash ring ─► shard 0..N
//!  (arrival    (per-tenant      (tenant, key) → primary,  each: fair
//!   streams)    admission)       bounded-load p2c spill    queue + pool
//!                                       │                      │
//!                  hedge after deadline-aware delay       chaos: crash /
//!                  (duplicate to second shard,            stall / flap →
//!                   first response wins)                  failover + rejoin
//! ```
//!
//! Robustness mechanics, all deterministic in virtual time:
//!
//! * **Routing** ([`crate::ring`]): requests hash by `(tenant, key)` to a
//!   primary shard; the bounded-load power-of-two-choices rule spills to
//!   the deterministic second choice when the primary's queue runs ahead
//!   of the fleet average.
//! * **Chaos & failover** (`mp_sim::fault::ShardFaultPlan`): seeded
//!   crashes, stalls, and flaps. A defended fleet removes a dead shard
//!   from the ring and re-enqueues its queued *and* in-flight requests on
//!   surviving shards under a per-request failover budget; on rejoin the
//!   shard re-enters the ring behind a catch-up window that keeps routing
//!   spilling away until it drains. An undefended fleet keeps sending a
//!   dead shard its keys and loses them.
//! * **Hedging**: a request still unresolved after a deadline-aware delay
//!   (`min(hedge delay, slack/2)`) is duplicated to the next distinct
//!   ring shard; the first completion wins and stragglers are counted,
//!   not served twice to the tenant.
//! * **Tenant isolation** ([`crate::tenant`]): per-tenant token buckets
//!   at the fleet door and weighted fair queueing inside every shard, so
//!   an adversarial tenant throttles and starves itself, not its
//!   neighbors.
//!
//! One run is still a single-threaded discrete-event simulation over one
//! global event queue, so a 16-shard chaos soak is a pure function of its
//! configuration — byte-identical on any machine at any thread count.

use mp_planner::QualityTier;
use mp_sim::fault::{
    FaultInjector, FaultKind, FaultPlan, SdcPlan, ShardFaultEvent, ShardFaultKind, ShardFaultPlan,
};
use mp_sim::vtime::{EventQueue, VirtualNs, NS_PER_US};
use mp_telemetry::{self as telemetry, arg1, arg2, ArgValue, Args, IncidentKind, Lane};
use mpaccel_core::pool::AcceleratorPool;

use crate::catalog::PlanCatalog;
use crate::integrity::IntegrityState;
use crate::metrics::{FleetSummary, ServiceSummary, ShardStats, TenantStats};
use crate::request::{Request, ShedReason, TenantSpec, Verdict};
use crate::ring::{mix, HashRing};
use crate::service::ServiceConfig;
use crate::tenant::{FairQueue, TenantPolicy, TokenBucket};

/// Hedged-request policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Whether hedging is on.
    pub enabled: bool,
    /// Base hedge delay in µs; the effective delay is deadline-aware:
    /// `min(delay_us, slack/2)` so tight-deadline requests hedge sooner.
    pub delay_us: u64,
}

impl Default for HedgeConfig {
    fn default() -> HedgeConfig {
        HedgeConfig {
            enabled: true,
            delay_us: 400,
        }
    }
}

/// Shard-failure handling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailoverConfig {
    /// Whether failover is on. Off models the undefended baseline: the
    /// ring keeps routing to dead shards and their requests are lost.
    pub enabled: bool,
    /// Times one request may be re-routed off dying shards before it is
    /// abandoned as lost.
    pub max_failovers: u32,
    /// Catch-up window after a rejoin (µs): the shard re-enters the ring
    /// but reports itself overloaded, so bounded-load routing keeps
    /// spilling new arrivals elsewhere while it drains.
    pub catchup_us: u64,
}

impl Default for FailoverConfig {
    fn default() -> FailoverConfig {
        FailoverConfig {
            enabled: true,
            max_failovers: 2,
            catchup_us: 5_000,
        }
    }
}

/// Full configuration of one fleet run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetConfig {
    /// Number of shards.
    pub shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes_per_shard: usize,
    /// Bounded-load spill threshold as a percentage of the fleet-average
    /// load (125 = spill when the primary exceeds 1.25× average).
    pub spill_bound_pct: u64,
    /// Per-shard service configuration (instances, queue, degradation,
    /// retries, breaker, accelerator faults). The shard seed is ignored;
    /// `seed` below governs the whole fleet.
    pub shard: ServiceConfig,
    /// Hedged-request policy.
    pub hedge: HedgeConfig,
    /// Shard-failure handling policy.
    pub failover: FailoverConfig,
    /// Per-tenant isolation (token buckets + weighted fair queueing).
    /// Off collapses every shard queue to the shared single-shard
    /// discipline and admits all traffic.
    pub fairness: bool,
    /// Fleet seed (request keys, ring placement, fault streams).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 4,
            vnodes_per_shard: 16,
            spill_bound_pct: 125,
            shard: ServiceConfig::default(),
            hedge: HedgeConfig::default(),
            failover: FailoverConfig::default(),
            fairness: true,
            seed: 0,
        }
    }
}

/// Payloads are small indices so an event stays 16 bytes: the event heap
/// moves one on every push and pop.
enum Event {
    /// A request reaches the fleet door: admission, routing, enqueue.
    Arrive(u32),
    /// A request copy (re-)enters shard `shard`'s queue (retry backoff,
    /// tier step-down, failover re-route).
    Enqueue { shard: u32, req: u32 },
    /// A shard instance finishes a dispatch.
    Complete(Dispatch),
    /// Re-run the given shard's dispatcher (quarantine expiry / busy
    /// instance freed).
    Wake(u32),
    /// Hedge check: duplicate the request if it is still unresolved.
    Hedge(u32),
    /// Index into the precomputed chaos schedule fires.
    Chaos(u32),
    /// A crashed shard comes back.
    Rejoin(u32),
    /// Run one known-answer scrub probe against a benched instance of the
    /// given shard.
    Scrub { shard: u32, inst: u32 },
}

const _: () = assert!(std::mem::size_of::<Event>() == 16);

/// One dispatch, carried by its completion event. The rolled fault, vote
/// and tier ride along: an instance freed at exactly the completion's
/// timestamp can be re-acquired by an earlier-queued event before the
/// completion pops, so the instance's in-flight slot may already hold
/// the next dispatch.
#[derive(Clone, Copy)]
struct Dispatch {
    shard: u16,
    inst: u16,
    req: u32,
    /// Shard crash epoch at dispatch; completions from older epochs are
    /// crash casualties.
    epoch: u32,
    tier: u8,
    fault: Option<FaultKind>,
    voted: bool,
}

/// An idle in-flight slot.
const IDLE: (u32, VirtualNs) = (u32::MAX, 0);

/// Bench horizon for integrity quarantines: far enough that only a scrub
/// readmission brings the instance back, finite so pool arithmetic never
/// overflows.
const BENCH_HORIZON_NS: VirtualNs = VirtualNs::MAX / 4;

fn us_to_ns(us: f64) -> VirtualNs {
    (us * NS_PER_US as f64).round().max(1.0) as VirtualNs
}

/// Exact service time (ns) of catalog `key` at ladder index `tier_idx`,
/// before any fault slowdown.
fn service_time_ns(catalog: &PlanCatalog, key: usize, tier_idx: usize) -> VirtualNs {
    us_to_ns(
        catalog
            .entry(key, QualityTier::from_index(tier_idx))
            .modeled_us,
    )
}

/// The dispatcher's tier decision for one request: the congestion
/// controller's base tier, raised to the request's floor from failed
/// attempts, then stepped down the ladder until the tier fits the
/// remaining slack. `None` means no admissible tier fits (the
/// hopeless-shed case; never returned when admission control is off).
fn choose_tier(
    catalog: &PlanCatalog,
    cfg: &ServiceConfig,
    req: &Request,
    queued: usize,
    healthy: usize,
    now: VirtualNs,
) -> Option<usize> {
    let base = cfg.degrade.load_tier(queued, healthy);
    let mut tier_idx = base.index().max(req.tier_floor);
    if cfg.admission {
        let slack = req.slack_ns(now);
        while cfg.degrade.enabled
            && tier_idx + 1 < QualityTier::COUNT
            && service_time_ns(catalog, req.key, tier_idx) > slack
        {
            tier_idx += 1;
        }
        if service_time_ns(catalog, req.key, tier_idx) > slack {
            return None;
        }
    }
    Some(tier_idx)
}

/// Fleet-side per-request state (the [`Request`] itself carries the
/// per-shard fields).
#[derive(Clone, Debug, Default)]
struct ReqState {
    /// Shard the request was first enqueued on.
    primary: u32,
    /// Shard the hedge duplicate landed on, once one fired.
    twin: Option<u32>,
    /// Live copies (queued or in flight) across shards. When the last
    /// copy dies without a completion, the request resolves failed.
    copies: u32,
    /// Failover re-routes consumed.
    failovers: u32,
}

/// A request's ring route key: its `(tenant, catalog key)` pair.
fn route_key(req: &Request) -> u64 {
    ((req.tenant as u64) << 40) ^ req.key as u64
}

/// Run-wide state the shards and the router share: the requests, the
/// event queue, and the fleet and tenant ledgers.
struct Core<'a> {
    catalog: &'a PlanCatalog,
    /// The per-shard service configuration.
    cfg: &'a ServiceConfig,
    reqs: Vec<Request>,
    states: Vec<ReqState>,
    events: EventQueue<Event>,
    summary: FleetSummary,
    tenants: Vec<TenantStats>,
    tenant_lat: Vec<Vec<VirtualNs>>,
    /// Requests resolved so far; once every request has a verdict the
    /// scrub schedules stop re-arming and the event queue drains.
    resolved: usize,
    /// Whether a telemetry stream is installed, sampled once per run so
    /// an untraced run never touches the thread-local sink.
    traced: bool,
}

impl Core<'_> {
    fn resolve(&mut self, id: usize, verdict: Verdict) {
        debug_assert!(self.reqs[id].verdict.is_none(), "request resolved twice");
        let t = self.reqs[id].tenant;
        let fleet = &mut self.summary.fleet;
        match verdict {
            Verdict::OnTime { .. } => {
                fleet.on_time += 1;
                self.tenants[t].on_time += 1;
            }
            Verdict::Late { .. } => {
                fleet.late += 1;
                self.tenants[t].late += 1;
            }
            Verdict::Shed(reason) => {
                match reason {
                    ShedReason::QueueFull => fleet.shed_queue_full += 1,
                    ShedReason::Hopeless => fleet.shed_hopeless += 1,
                    ShedReason::Throttled => fleet.shed_throttled += 1,
                    ShedReason::ShardLost => fleet.shed_shard_lost += 1,
                }
                if reason == ShedReason::Throttled {
                    self.tenants[t].throttled += 1;
                } else {
                    self.tenants[t].shed += 1;
                }
            }
            Verdict::FailedFaults => fleet.failed_faults += 1,
            Verdict::Unsolved => fleet.unsolved += 1,
        }
        self.reqs[id].verdict = Some(verdict);
        self.resolved += 1;
    }

    /// One copy of `id` dies (shed, lost, exhausted). When it was the
    /// last live copy and no twin completed, the request resolves with
    /// `verdict`.
    fn copy_dies(&mut self, id: usize, verdict: Verdict) {
        let st = &mut self.states[id];
        st.copies = st.copies.saturating_sub(1);
        if st.copies == 0 && self.reqs[id].verdict.is_none() {
            self.resolve(id, verdict);
        }
    }

    /// A shard-level trace point: a `service` instant named after `kind`
    /// plus a flight-recorder incident of that kind. No-op untraced.
    fn trace(&self, kind: IncidentKind, args: Args, detail: std::fmt::Arguments<'_>) {
        if self.traced {
            telemetry::instant_args("service", kind.label(), args);
            telemetry::incident_kind(kind, &detail.to_string());
        }
    }
}

/// One shard's state machine: bounded queue, accelerator pool, fault
/// injectors, integrity state and in-flight table.
struct Shard {
    index: u32,
    queue: FairQueue,
    pool: AcceleratorPool,
    injectors: Vec<FaultInjector>,
    /// Silent-corruption streams, suspicion scoreboard, and scrub state
    /// for this shard's instances. Survives crash epochs: SDC is a
    /// property of the silicon, not of the queue the crash wiped.
    integrity: IntegrityState,
    /// Per-instance `(request, start time)` of the running dispatch
    /// ([`IDLE`] when idle); the start time tells a completion's own
    /// dispatch from one begun at the completion's timestamp.
    inflight: Vec<(u32, VirtualNs)>,
    /// Earliest outstanding [`Event::Wake`], if any. Without this guard
    /// every stalled dispatch would push a fresh wake and overload runs
    /// would drown in duplicate wake events.
    wake_at: Option<VirtualNs>,
    alive: bool,
    /// Crash epoch; completions from older epochs are ignored.
    epoch: u32,
    /// Dispatches begun before this instant run `stall_factor`× slower.
    stall_until: VirtualNs,
    stall_factor: u64,
    /// Until this instant the shard reports itself overloaded to the
    /// router (post-rejoin catch-up).
    catchup_until: VirtualNs,
    /// Pool busy-ns / quarantines accumulated across crash epochs (the
    /// pool itself is rebuilt on every crash).
    busy_accum: u64,
    quar_accum: u64,
    stats: ShardStats,
    latencies: Vec<VirtualNs>,
}

impl Shard {
    /// Shard `index` of a fleet. `salt` separates the shard's seeded
    /// fault and silent-corruption streams from every other shard's.
    fn new(index: usize, cfg: &FleetConfig, weights: &[u64], salt: u64) -> Shard {
        let sc = &cfg.shard;
        let faults = &sc.faults;
        let injectors = (0..sc.instances)
            .map(|i| {
                let lemon = if faults.lemon == Some(i) {
                    faults.lemon_factor
                } else {
                    1.0
                };
                FaultInjector::new(FaultPlan::uniform(
                    (faults.rate_per_kind * lemon).min(0.9),
                    mix(cfg.seed ^ 0xFA17_0000 ^ (salt << 8) ^ i as u64),
                ))
            })
            .collect();
        let sdc = SdcPlan {
            seed: mix(cfg.seed ^ 0x5DC0_0000 ^ (salt << 8)),
            verdict_flip_rate: faults.sdc_rate,
            memo_corrupt_rate: 0.0,
            node_corrupt_rate: 0.0,
        };
        // The naive baseline queues without bound (capped only to keep
        // the share arithmetic in range).
        let capacity = if sc.admission {
            sc.queue_capacity
        } else {
            1 << 32
        };
        Shard {
            index: index as u32,
            queue: FairQueue::new(sc.policy, capacity, weights, cfg.fairness),
            pool: AcceleratorPool::new(sc.instances),
            injectors,
            integrity: IntegrityState::new(
                sc.integrity,
                sdc,
                sc.instances,
                faults.sdc_hot,
                faults.sdc_hot_factor,
                salt,
            ),
            inflight: vec![IDLE; sc.instances],
            wake_at: None,
            alive: true,
            epoch: 0,
            stall_until: 0,
            stall_factor: 1,
            catchup_until: 0,
            busy_accum: 0,
            quar_accum: 0,
            stats: ShardStats::default(),
            latencies: Vec::new(),
        }
    }

    /// Fleet-global index of instance `inst`: its `inst/N` Perfetto row.
    fn lane(&self, inst: usize) -> u32 {
        self.index * self.inflight.len() as u32 + inst as u32
    }

    /// Router load: queued plus running copies, inflated by `catchup`
    /// while the shard is in its post-rejoin catch-up window.
    fn load(&self, now: VirtualNs, catchup: usize) -> usize {
        let running = self.inflight.iter().filter(|e| e.0 != IDLE.0).count();
        let pad = if now < self.catchup_until { catchup } else { 0 };
        self.queue.len() + running + pad
    }

    fn sample_depth(&self, core: &Core) {
        if core.traced {
            telemetry::counter_on(
                Lane::new("queue", self.index),
                "queue_depth",
                self.queue.len() as f64,
            );
        }
    }

    fn req_args(&self, id: usize) -> Args {
        arg2(
            "req",
            ArgValue::U64(id as u64),
            "shard",
            ArgValue::U64(u64::from(self.index)),
        )
    }

    fn schedule_wake(&mut self, core: &mut Core, at: VirtualNs) {
        if self.wake_at.is_none_or(|w| at < w) {
            self.wake_at = Some(at);
            core.events.push(at, Event::Wake(self.index));
        }
    }

    /// Enqueues a copy of `id`. Returns `false` (and sheds nothing
    /// itself) when the tenant's queue share is full.
    fn try_enqueue(&mut self, core: &Core, id: usize) -> bool {
        let req = &core.reqs[id];
        if !self.queue.try_push(req.tenant, id, req.deadline_ns) {
            return false;
        }
        self.stats.offered += 1;
        self.sample_depth(core);
        true
    }

    /// Enqueues a copy of `id`, or sheds it when the queue is full.
    fn enqueue_or_shed(&mut self, core: &mut Core, id: usize, now: VirtualNs) -> bool {
        if self.try_enqueue(core, id) {
            return true;
        }
        self.stats.sheds += 1;
        core.trace(
            IncidentKind::ShedQueueFull,
            self.req_args(id),
            format_args!("req={id} shard={} t_ns={now}", self.index),
        );
        core.copy_dies(id, Verdict::Shed(ShedReason::QueueFull));
        false
    }

    fn dispatch(&mut self, core: &mut Core, now: VirtualNs) {
        if !self.alive {
            return;
        }
        let cfg = core.cfg;
        loop {
            let Some(inst) = self.pool.acquire(now) else {
                if !self.queue.is_empty() {
                    if let Some(at) = self.pool.next_dispatchable_at(now) {
                        self.schedule_wake(core, at);
                    }
                }
                return;
            };
            // Pop, skipping stale copies whose twin already resolved the
            // request (hedge won elsewhere, or failover raced).
            let id = loop {
                match self.queue.pop() {
                    None => return,
                    Some(id) if core.reqs[id].verdict.is_some() => continue,
                    Some(id) => break id,
                }
            };
            self.sample_depth(core);

            // Tier choice: congestion controller first, then the
            // request's floor from failed attempts, then slack-fit.
            let req = &core.reqs[id];
            let healthy = self.pool.healthy(now);
            let Some(tier) = choose_tier(core.catalog, cfg, req, self.queue.len(), healthy, now)
            else {
                let slack = req.slack_ns(now);
                self.stats.sheds += 1;
                core.trace(
                    IncidentKind::ShedHopeless,
                    self.req_args(id),
                    format_args!("req={id} shard={} slack_ns={slack} t_ns={now}", self.index),
                );
                core.copy_dies(id, Verdict::Shed(ShedReason::Hopeless));
                continue;
            };

            let mut service_ns = service_time_ns(core.catalog, req.key, tier);
            // Roll the fault environment: a slow-unit fault stretches the
            // service time but still completes (masked); every other kind
            // wastes the dispatch (detected at completion) and takes the
            // retry path.
            let inj = &mut self.injectors[inst];
            inj.counters_mut().queries += 1;
            let mut fault = FaultKind::ALL.into_iter().find(|&k| inj.fires(k));
            if fault == Some(FaultKind::SlowUnit) {
                service_ns *= cfg.faults.slow_factor.max(1);
                inj.counters_mut().masked += 1;
                fault = None;
            }
            // A stalled shard serves, just several times slower — the
            // latency-tail failure hedging is for.
            if now < self.stall_until {
                service_ns *= self.stall_factor.max(1);
            }
            // Suspicion-scored voting: a suspect instance re-executes the
            // dispatch (temporal duplicate-dispatch), doubling its
            // modeled service time.
            let voted = self.integrity.dispatch_vote(inst);
            if voted {
                service_ns *= 2;
            }
            let req = &mut core.reqs[id];
            req.attempts += 1;
            req.tier_floor = tier; // remember the served tier
            self.inflight[inst] = (id as u32, now);
            self.pool.begin(inst, now, service_ns);
            if core.traced {
                telemetry::complete_at(
                    Lane::new("inst", self.lane(inst)),
                    "service",
                    if fault.is_some() {
                        "serve_faulted"
                    } else {
                        "serve"
                    },
                    now,
                    service_ns,
                    arg2(
                        "req",
                        ArgValue::U64(id as u64),
                        "tier",
                        ArgValue::Str(QualityTier::from_index(tier).label()),
                    ),
                );
            }
            let done = Dispatch {
                shard: self.index as u16,
                inst: inst as u16,
                req: id as u32,
                epoch: self.epoch,
                tier: tier as u8,
                fault,
                voted,
            };
            core.events.push(now + service_ns, Event::Complete(done));
        }
    }

    /// Benches a lying instance for scrubbing: out of rotation until a
    /// scrub probe streak readmits it. A shard's last healthy instance is
    /// never pulled (degraded service beats no service), but its scrub
    /// schedule still runs so the integrity state stays live.
    fn bench_liar(&mut self, core: &mut Core, inst: usize, now: VirtualNs) {
        if self.pool.healthy(now) > 1 {
            self.pool.quarantine(inst, BENCH_HORIZON_NS);
            if core.traced {
                let lane = ArgValue::U64(u64::from(self.lane(inst)));
                telemetry::instant_args("service", "bench_liar", arg1("inst", lane));
                telemetry::incident_kind(
                    IncidentKind::Quarantine,
                    &format!("shard={} inst={inst} liar=1 t_ns={now}", self.index),
                );
            }
        }
        core.events.push(
            now + core.cfg.integrity.scrub_period_us * NS_PER_US,
            Event::Scrub {
                shard: self.index,
                inst: inst as u32,
            },
        );
    }

    /// One known-answer scrub probe against a benched instance.
    fn scrub(&mut self, core: &mut Core, inst: usize, now: VirtualNs) {
        if !self.integrity.is_benched(inst) {
            return;
        }
        if self.integrity.scrub_probe(inst) {
            self.pool.readmit(inst, now);
            core.trace(
                IncidentKind::ScrubReadmit,
                arg1("inst", ArgValue::U64(u64::from(self.lane(inst)))),
                format_args!(
                    "shard={} inst={inst} probes={} t_ns={now}",
                    self.index, self.integrity.stats.scrub_probes
                ),
            );
            self.dispatch(core, now);
        } else if core.resolved < core.reqs.len() {
            core.events.push(
                now + core.cfg.integrity.scrub_period_us * NS_PER_US,
                Event::Scrub {
                    shard: self.index,
                    inst: inst as u32,
                },
            );
        }
    }

    fn complete(&mut self, core: &mut Core, done: Dispatch, now: VirtualNs) {
        if done.epoch != self.epoch {
            // The shard crashed while this dispatch ran; the copy was
            // already failed over or written off at crash time.
            return;
        }
        let (inst, id, tier) = (
            usize::from(done.inst),
            done.req as usize,
            usize::from(done.tier),
        );
        // Free the in-flight slot unless an earlier-queued event
        // re-acquired the instance at this exact timestamp: that dispatch
        // began now and keeps the slot.
        if self.inflight[inst].1 != now {
            self.inflight[inst] = IDLE;
        }
        let cfg = core.cfg;
        let s = self.index;
        let quality = QualityTier::from_index(tier);
        let entry = *core.catalog.entry(core.reqs[id].key, quality);
        // Energy the dispatch actually spent: the catalog attempt cost,
        // doubled when suspicion voting re-executed it. Slow-unit faults
        // stretch time, not work. The shard is billed for every
        // completion it produced — including copies whose result turns
        // out to be useless — while the fleet ledger splits winning
        // attempts from wasted ones below.
        let attempt_pj = if done.voted {
            2.0 * entry.energy_pj
        } else {
            entry.energy_pj
        };
        self.stats.energy_pj += attempt_pj;
        if core.traced {
            // Power-rail counter track: the datapath power this dispatch
            // drew while it ran (pJ/µs ≡ µW), one lane per instance row.
            telemetry::counter_on(
                Lane::new("rail", self.lane(inst)),
                "power_uw",
                entry.energy_pj / entry.modeled_us.max(1e-9),
            );
        }

        if done.fault.is_some() {
            core.summary.fleet.wasted_energy_pj += attempt_pj;
            self.injectors[inst].counters_mut().detected += 1;
            if cfg.breaker.on_fault(&mut self.pool, inst, now).is_some() {
                self.injectors[inst].counters_mut().quarantined += 1;
                core.trace(
                    IncidentKind::Quarantine,
                    arg1("inst", ArgValue::U64(u64::from(self.lane(inst)))),
                    format_args!("shard={s} inst={inst} t_ns={now}"),
                );
                // The expiry needs a wake in case the whole pool is idle
                // but quarantined when it lands.
                if let Some(at) = self.pool.next_dispatchable_at(now) {
                    self.schedule_wake(core, at);
                }
            }
            let attempts = core.reqs[id].attempts;
            if core.reqs[id].verdict.is_some() {
                return; // a twin already won; drop the faulted copy
            }
            if attempts > cfg.retry.max_retries {
                core.trace(
                    IncidentKind::FailedFaults,
                    self.req_args(id),
                    format_args!("req={id} shard={s} attempts={attempts} t_ns={now}"),
                );
                core.copy_dies(id, Verdict::FailedFaults);
            } else {
                let shift = (attempts - 1).min(16);
                let backoff = (cfg.retry.backoff_us * NS_PER_US) << shift;
                self.injectors[inst].counters_mut().redispatches += 1;
                core.summary.fleet.retries += 1;
                core.events.push(
                    now + backoff,
                    Event::Enqueue {
                        shard: s,
                        req: done.req,
                    },
                );
            }
            return;
        }

        self.pool.record_success(inst);
        if core.reqs[id].verdict.is_some() {
            // The hedge twin (or a failover copy) already resolved it:
            // the straggler's energy bought nothing.
            core.summary.hedge_wasted += 1;
            core.summary.fleet.wasted_energy_pj += attempt_pj;
            return;
        }
        if !entry.solved {
            // Budget exhausted without a path: the attempt's energy is
            // spent either way. Step down the ladder and try again
            // immediately (the cheap re-plan path).
            core.summary.fleet.wasted_energy_pj += attempt_pj;
            if tier + 1 < QualityTier::COUNT {
                let req = &mut core.reqs[id];
                req.tier_floor = req.tier_floor.max(tier + 1);
                core.summary.fleet.tier_stepdowns += 1;
                self.enqueue_or_shed(core, id, now);
            } else {
                core.copy_dies(id, Verdict::Unsolved);
            }
            return;
        }

        // Integrity pipeline: roll this instance's silent-corruption
        // stream (resolving any vote), then certify before the request
        // may resolve as Completed.
        let ci = self.integrity.completion(inst, done.voted);
        if ci.bench {
            self.bench_liar(core, inst, now);
        }
        let mut now = now;
        let lane = ArgValue::U64(u64::from(self.lane(inst)));
        let inst_args = arg2("req", ArgValue::U64(id as u64), "inst", lane);
        if cfg.integrity.certify {
            let certify_ns = us_to_ns(entry.certify_us);
            let stats = &mut self.integrity.stats;
            stats.certify_ns += certify_ns;
            stats.certify_hist.observe(entry.certify_us.round() as u64);
            if ci.ships_corrupt {
                // The independent cascade rejects the corrupted plan:
                // attribute, then re-plan degraded under whatever budget
                // remains. The rejected attempt's energy bought nothing.
                core.summary.fleet.wasted_energy_pj += attempt_pj;
                stats.certify_failed += 1;
                self.integrity.accuse(inst);
                core.trace(
                    IncidentKind::CertifyFailed,
                    inst_args,
                    format_args!(
                        "req={id} shard={s} inst={inst} tier={} t_ns={now}",
                        quality.label()
                    ),
                );
                if core.reqs[id].attempts > cfg.retry.max_retries {
                    // Replan budget exhausted: fail closed — an
                    // unresolved request, never an unsafe plan.
                    core.copy_dies(id, Verdict::FailedFaults);
                    return;
                }
                if tier + 1 < QualityTier::COUNT {
                    let req = &mut core.reqs[id];
                    req.tier_floor = req.tier_floor.max(tier + 1);
                    core.summary.fleet.tier_stepdowns += 1;
                }
                core.events.push(
                    now + certify_ns,
                    Event::Enqueue {
                        shard: s,
                        req: done.req,
                    },
                );
                return;
            }
            self.integrity.stats.certified += 1;
            self.integrity.exonerate(inst);
            now += certify_ns;
        } else if ci.ships_corrupt {
            // Undefended: the unsafe plan ships as a "success".
            self.integrity.stats.sdc_escaped += 1;
            core.trace(
                IncidentKind::SdcEscaped,
                inst_args,
                format_args!(
                    "req={id} shard={s} inst={inst} tier={} t_ns={now}",
                    quality.label()
                ),
            );
        }

        let req = &core.reqs[id];
        let latency = now - req.arrival_ns;
        let verdict = if now <= req.deadline_ns {
            Verdict::OnTime {
                tier: quality,
                latency_ns: latency,
            }
        } else {
            let late_ns = now - req.deadline_ns;
            core.trace(
                IncidentKind::DeadlineMiss,
                arg2(
                    "req",
                    ArgValue::U64(id as u64),
                    "late_ns",
                    ArgValue::U64(late_ns),
                ),
                format_args!(
                    "req={id} shard={s} tier={} late_ns={late_ns} t_ns={now}",
                    quality.label()
                ),
            );
            Verdict::Late {
                tier: quality,
                latency_ns: latency,
            }
        };
        if core.states[id].twin == Some(s) {
            core.summary.hedge_wins += 1;
        }
        let fleet = &mut core.summary.fleet;
        fleet.tier_served[tier] += 1;
        fleet.energy_pj += attempt_pj;
        fleet.tier_energy_pj[tier] += attempt_pj;
        if tier > 0 {
            // Energy the ladder saved by serving this key below full
            // quality.
            let full_pj = core.catalog.entry(req.key, QualityTier::Full).energy_pj;
            fleet.degraded_saved_pj += full_pj - entry.energy_pj;
        }
        if let Some(budget) = cfg.energy_budget_pj_per_plan {
            if attempt_pj > budget {
                fleet.energy_breaches += 1;
                core.trace(
                    IncidentKind::EnergyBudgetBreach,
                    arg2(
                        "req",
                        ArgValue::U64(id as u64),
                        "pj",
                        ArgValue::F64(attempt_pj),
                    ),
                    format_args!(
                        "req={id} shard={s} tier={} pj={attempt_pj:.0} \
                         budget_pj={budget:.0} t_ns={now}",
                        quality.label()
                    ),
                );
            }
        }
        self.latencies.push(latency);
        self.stats.served += 1;
        if matches!(verdict, Verdict::OnTime { .. }) {
            self.stats.on_time += 1;
        }
        let t = req.tenant;
        core.tenants[t].energy_pj += attempt_pj;
        core.tenant_lat[t].push(latency);
        core.resolve(id, verdict);
    }
}

/// The router over the shards: ring routing, tenant admission, hedging,
/// and shard chaos with failover.
struct Fleet<'a> {
    core: Core<'a>,
    cfg: &'a FleetConfig,
    ring: HashRing,
    shards: Vec<Shard>,
    buckets: Vec<Option<TokenBucket>>,
    chaos: Vec<ShardFaultEvent>,
    /// Per-shard router loads, rebuilt on every routing decision.
    loads: Vec<usize>,
}

impl Fleet<'_> {
    /// Routes `key` by the bounded-load rule over the alive shards.
    fn route(&mut self, key: u64, now: VirtualNs) -> Option<usize> {
        let catchup = self.cfg.shard.queue_capacity.max(8);
        self.loads.clear();
        self.loads
            .extend(self.shards.iter().map(|sh| sh.load(now, catchup)));
        self.ring.route(key, &self.loads, self.cfg.spill_bound_pct)
    }

    fn arrive(&mut self, id: usize, now: VirtualNs) {
        let core = &mut self.core;
        let t = core.reqs[id].tenant;
        if self.cfg.fairness {
            if let Some(bucket) = &mut self.buckets[t] {
                if !bucket.try_take(now) {
                    if core.traced {
                        telemetry::instant_args(
                            "fleet",
                            "throttled",
                            arg2(
                                "req",
                                ArgValue::U64(id as u64),
                                "tenant",
                                ArgValue::U64(t as u64),
                            ),
                        );
                    }
                    core.resolve(id, Verdict::Shed(ShedReason::Throttled));
                    return;
                }
            }
        }
        let key = route_key(&core.reqs[id]);
        let target = if self.cfg.failover.enabled {
            let Some(s) = self.route(key, now) else {
                // Every shard is dead: nothing can take the request.
                self.core.summary.lost_to_shards += 1;
                self.core.resolve(id, Verdict::Shed(ShedReason::ShardLost));
                return;
            };
            if Some(s) != self.ring.primary(key) {
                self.core.summary.spills += 1;
            }
            s
        } else {
            // Undefended: clients keep addressing the hash owner even
            // while it is down, and those requests are simply lost.
            let s = self.ring.owner(key);
            if !self.shards[s].alive {
                self.shards[s].stats.sheds += 1;
                self.core.summary.lost_to_shards += 1;
                self.core.resolve(id, Verdict::Shed(ShedReason::ShardLost));
                return;
            }
            s
        };
        let core = &mut self.core;
        core.states[id].primary = target as u32;
        core.states[id].copies = 1;
        let shard = &mut self.shards[target];
        if !shard.enqueue_or_shed(core, id, now) {
            return;
        }
        if self.cfg.hedge.enabled && self.ring.alive_count() > 1 {
            let slack = core.reqs[id].slack_ns(now);
            let delay = (self.cfg.hedge.delay_us * NS_PER_US).min(slack / 2).max(1);
            core.events.push(now + delay, Event::Hedge(id as u32));
        }
        shard.dispatch(core, now);
    }

    fn hedge(&mut self, id: usize, now: VirtualNs) {
        let core = &mut self.core;
        let (key, primary) = (route_key(&core.reqs[id]), core.states[id].primary as usize);
        if core.reqs[id].verdict.is_some() || core.states[id].twin.is_some() {
            return;
        }
        // Duplicate onto the next distinct alive shard; fall back to the
        // ring's secondary when the original target is already gone.
        let twin = match self.ring.secondary(key) {
            Some(s) if s != primary => Some(s),
            _ => self.ring.primary(key).filter(|&s| s != primary),
        };
        let Some(twin) = twin else { return };
        let shard = &mut self.shards[twin];
        if !shard.try_enqueue(core, id) {
            return; // hedge suppressed: the twin's queue share is full
        }
        let st = &mut core.states[id];
        st.twin = Some(twin as u32);
        st.copies += 1;
        core.summary.hedges_fired += 1;
        if core.traced {
            telemetry::instant_args(
                "fleet",
                "hedge_fired",
                arg2(
                    "req",
                    ArgValue::U64(id as u64),
                    "shard",
                    ArgValue::U64(twin as u64),
                ),
            );
            telemetry::incident_kind(
                IncidentKind::HedgeFired,
                &format!("req={id} twin={twin} t_ns={now}"),
            );
        }
        shard.dispatch(core, now);
    }

    /// A copy re-enters shard `s` (retry backoff, failover, step-down
    /// deferred through the event queue). Dead-shard targets re-route
    /// (defended) or die (undefended).
    fn re_enqueue(&mut self, s: usize, id: usize, now: VirtualNs) {
        if self.core.reqs[id].verdict.is_some() {
            return;
        }
        if !self.shards[s].alive {
            self.failover_copy(id, s, now);
            return;
        }
        let shard = &mut self.shards[s];
        if shard.enqueue_or_shed(&mut self.core, id, now) {
            shard.dispatch(&mut self.core, now);
        }
    }

    /// Re-routes one copy off dead shard `from`, consuming failover
    /// budget; without budget (or an alive target, or failover at all)
    /// the copy is lost.
    fn failover_copy(&mut self, id: usize, from: usize, now: VirtualNs) {
        let failovers = self.core.states[id].failovers;
        if self.cfg.failover.enabled && failovers < self.cfg.failover.max_failovers {
            if let Some(target) = self.route(route_key(&self.core.reqs[id]), now) {
                self.core.states[id].failovers += 1;
                self.core.summary.rerouted += 1;
                self.core.events.push(
                    now,
                    Event::Enqueue {
                        shard: target as u32,
                        req: id as u32,
                    },
                );
                return;
            }
        }
        self.shards[from].stats.sheds += 1;
        self.core.summary.lost_to_shards += 1;
        self.core
            .copy_dies(id, Verdict::Shed(ShedReason::ShardLost));
    }

    fn crash(&mut self, s: usize, duration_ns: VirtualNs, now: VirtualNs) {
        let sh = &mut self.shards[s];
        if !sh.alive {
            return; // already down; the earlier rejoin stands
        }
        sh.alive = false;
        sh.epoch += 1;
        sh.stats.kills += 1;
        self.core.summary.shard_kills += 1;
        if self.cfg.failover.enabled {
            self.ring.remove(s);
        }
        // The pool state dies with the shard: bank its counters and
        // rebuild it for the rejoin.
        sh.busy_accum += sh.pool.total_busy_ns();
        sh.quar_accum += sh.pool.total_quarantines();
        sh.pool = AcceleratorPool::new(self.cfg.shard.instances);
        sh.wake_at = None;
        let mut victims = sh.queue.drain();
        for entry in &mut sh.inflight {
            if entry.0 != IDLE.0 {
                victims.push(entry.0 as usize);
                *entry = IDLE;
            }
        }
        let before_rerouted = self.core.summary.rerouted;
        let before_lost = self.core.summary.lost_to_shards;
        for id in victims {
            if self.core.reqs[id].verdict.is_some() {
                continue;
            }
            self.failover_copy(id, s, now);
        }
        if self.core.traced {
            let rerouted = self.core.summary.rerouted - before_rerouted;
            let lost = self.core.summary.lost_to_shards - before_lost;
            telemetry::instant_args(
                "fleet",
                "shard_crash",
                arg2(
                    "shard",
                    ArgValue::U64(s as u64),
                    "rerouted",
                    ArgValue::U64(rerouted),
                ),
            );
            telemetry::incident_kind(
                IncidentKind::ShardFailover,
                &format!("shard={s} rerouted={rerouted} lost={lost} t_ns={now}"),
            );
        }
        self.core
            .events
            .push(now + duration_ns.max(1), Event::Rejoin(s as u32));
    }

    fn rejoin(&mut self, s: usize, now: VirtualNs) {
        let sh = &mut self.shards[s];
        if sh.alive {
            return;
        }
        sh.alive = true;
        sh.stall_until = 0;
        if self.cfg.failover.enabled {
            self.ring.restore(s);
            sh.catchup_until = now + self.cfg.failover.catchup_us * NS_PER_US;
        }
        if self.core.traced {
            telemetry::instant_args(
                "fleet",
                "shard_rejoin",
                arg2("shard", ArgValue::U64(s as u64), "t_ns", ArgValue::U64(now)),
            );
        }
        sh.dispatch(&mut self.core, now);
    }

    fn chaos(&mut self, idx: usize, now: VirtualNs) {
        let ev = self.chaos[idx];
        match ev.kind {
            // `ShardFaultPlan::schedule` unrolls flaps into crashes.
            ShardFaultKind::Crash | ShardFaultKind::Flap => {
                self.crash(ev.shard, ev.duration_ns, now)
            }
            ShardFaultKind::Stall => {
                let sh = &mut self.shards[ev.shard];
                sh.stall_until = sh.stall_until.max(now + ev.duration_ns);
                sh.stall_factor = ev.slow_factor.max(2);
                if self.core.traced {
                    telemetry::instant_args(
                        "fleet",
                        "shard_stall",
                        arg2(
                            "shard",
                            ArgValue::U64(ev.shard as u64),
                            "factor",
                            ArgValue::U64(sh.stall_factor),
                        ),
                    );
                }
            }
        }
    }

    /// The event loop: pops events until the queue drains, then folds
    /// the shard and tenant ledgers into the summary.
    fn run(mut self) -> FleetSummary {
        while let Some((now, ev)) = self.core.events.pop() {
            if self.core.traced {
                telemetry::set_time(now);
            }
            match ev {
                Event::Arrive(id) => self.arrive(id as usize, now),
                Event::Enqueue { shard, req } => self.re_enqueue(shard as usize, req as usize, now),
                Event::Complete(done) => {
                    let sh = &mut self.shards[usize::from(done.shard)];
                    sh.complete(&mut self.core, done, now);
                    sh.dispatch(&mut self.core, now);
                }
                Event::Wake(s) => {
                    let sh = &mut self.shards[s as usize];
                    if sh.wake_at.is_some_and(|w| w <= now) {
                        sh.wake_at = None;
                    }
                    sh.dispatch(&mut self.core, now);
                }
                Event::Hedge(id) => self.hedge(id as usize, now),
                Event::Chaos(idx) => self.chaos(idx as usize, now),
                Event::Rejoin(s) => self.rejoin(s as usize, now),
                Event::Scrub { shard, inst } => {
                    self.shards[shard as usize].scrub(&mut self.core, inst as usize, now)
                }
            }
        }

        let core = self.core;
        debug_assert!(
            core.reqs.iter().all(|r| r.verdict.is_some()),
            "every request must resolve"
        );
        let mut summary = core.summary;
        summary.tenants = core.tenants;
        for (stats, lat) in summary.tenants.iter_mut().zip(core.tenant_lat) {
            stats.set_latencies(lat);
        }
        // The fleet's latencies are the union of the shards'.
        let mut latencies = Vec::new();
        for mut sh in self.shards {
            let quarantines = sh.quar_accum + sh.pool.total_quarantines();
            let busy_ns = sh.busy_accum + sh.pool.total_busy_ns();
            summary.fleet.quarantines += quarantines;
            summary.fleet.busy_ns += busy_ns;
            sh.stats.quarantines = quarantines;
            sh.stats.busy_ns = busy_ns;
            for inj in &sh.injectors {
                summary.fleet.resilience.merge(inj.counters());
            }
            summary.fleet.integrity.merge(&sh.integrity.stats);
            latencies.extend_from_slice(&sh.latencies);
            sh.stats.set_latencies(sh.latencies);
            summary.shards.push(sh.stats);
        }
        summary.fleet.set_latencies(latencies);
        summary
    }
}

/// Runs the sharded fleet simulation and returns its summary.
/// Deterministic: identical inputs yield an identical summary, on any
/// machine and at any ambient thread count.
///
/// `policies` pairs with `tenants` (weights, token buckets, activity
/// windows); pass an empty slice for all-default policies.
///
/// # Panics
///
/// Panics if the catalog is empty, `cfg.shards` or `cfg.shard.instances`
/// is 0 or above 65 536, or `policies` is non-empty with a length
/// different from `tenants`.
pub fn run_fleet(
    catalog: &PlanCatalog,
    tenants: &[TenantSpec],
    policies: &[TenantPolicy],
    duration_ns: VirtualNs,
    cfg: &FleetConfig,
    chaos_plan: &ShardFaultPlan,
) -> FleetSummary {
    simulate(catalog, tenants, policies, duration_ns, cfg, chaos_plan, 1)
}

/// [`run_fleet`] with an explicit salt for the shards' seeded fault and
/// silent-corruption streams: shard `s` draws from salt `first_salt + s`.
/// Fleets use 1; the one-shard service uses 0.
pub(crate) fn simulate(
    catalog: &PlanCatalog,
    tenants: &[TenantSpec],
    policies: &[TenantPolicy],
    duration_ns: VirtualNs,
    cfg: &FleetConfig,
    chaos_plan: &ShardFaultPlan,
    first_salt: u64,
) -> FleetSummary {
    assert!(catalog.num_keys() > 0, "empty catalog");
    assert!(cfg.shards > 0, "fleet needs at least one shard");
    assert!(
        cfg.shards <= 1 << 16 && cfg.shard.instances <= 1 << 16,
        "shard and instance indices must fit in 16 bits"
    );
    assert!(
        policies.is_empty() || policies.len() == tenants.len(),
        "policies must pair with tenants"
    );
    let default_policy = TenantPolicy::default();
    let policy = |t: usize| policies.get(t).unwrap_or(&default_policy);

    let arrivals: Vec<Vec<VirtualNs>> = tenants
        .iter()
        .enumerate()
        .map(|(ti, tenant)| match policy(ti).window_us {
            Some((start_us, end_us)) => tenant
                .process
                .generate_between(start_us * NS_PER_US, (end_us * NS_PER_US).min(duration_ns)),
            None => tenant.process.generate(duration_ns),
        })
        .collect();
    let offered: usize = arrivals.iter().map(Vec::len).sum();
    let mut reqs = Vec::with_capacity(offered);
    let mut events = EventQueue::with_capacity(offered);
    let mut tenant_stats = Vec::with_capacity(tenants.len());
    for (ti, (tenant, arrivals)) in tenants.iter().zip(arrivals).enumerate() {
        let mut stats = TenantStats::new(tenant.label, duration_ns);
        for (ai, arrival_ns) in arrivals.into_iter().enumerate() {
            let key = (mix(cfg.seed ^ ((ti as u64) << 40) ^ ai as u64) % catalog.num_keys() as u64)
                as usize;
            events.push(arrival_ns, Event::Arrive(reqs.len() as u32));
            reqs.push(Request {
                tenant: ti,
                arrival_ns,
                deadline_ns: arrival_ns + tenant.deadline_us * NS_PER_US,
                key,
                attempts: 0,
                tier_floor: 0,
                verdict: None,
            });
            stats.offered += 1;
        }
        tenant_stats.push(stats);
    }

    let weights: Vec<u64> = (0..tenants.len()).map(|t| policy(t).weight).collect();
    let shards: Vec<Shard> = (0..cfg.shards)
        .map(|s| Shard::new(s, cfg, &weights, first_salt + s as u64))
        .collect();
    let buckets = (0..tenants.len())
        .map(|t| {
            policy(t)
                .bucket
                .map(|(rate, burst)| TokenBucket::new(rate, burst))
        })
        .collect();
    let chaos = chaos_plan.schedule(cfg.shards, duration_ns);
    for (i, ev) in chaos.iter().enumerate() {
        events.push(ev.at_ns, Event::Chaos(i as u32));
    }

    Fleet {
        core: Core {
            catalog,
            cfg: &cfg.shard,
            reqs,
            states: vec![ReqState::default(); offered],
            events,
            summary: FleetSummary {
                fleet: ServiceSummary::for_run(
                    duration_ns,
                    cfg.shards * cfg.shard.instances,
                    offered as u64,
                ),
                ..FleetSummary::default()
            },
            tenants: tenant_stats,
            tenant_lat: vec![Vec::new(); tenants.len()],
            resolved: 0,
            traced: telemetry::active(),
        },
        cfg,
        ring: HashRing::new(cfg.shards, cfg.vnodes_per_shard, cfg.seed),
        shards,
        buckets,
        chaos,
        loads: Vec::with_capacity(cfg.shards),
    }
    .run()
}

/// [`run_fleet`] with telemetry: installs a `("fleet", stream_index)`
/// stream on this thread for the duration of the run, so routing
/// decisions, shard crashes, hedges, and flight-recorder incidents land
/// in `session`. The summary is identical to the untraced run.
#[allow(clippy::too_many_arguments)]
pub fn run_fleet_traced(
    catalog: &PlanCatalog,
    tenants: &[TenantSpec],
    policies: &[TenantPolicy],
    duration_ns: VirtualNs,
    cfg: &FleetConfig,
    chaos_plan: &ShardFaultPlan,
    session: &telemetry::TelemetrySession,
    stream_index: u32,
) -> FleetSummary {
    let _stream = session.install("fleet", stream_index);
    run_fleet(catalog, tenants, policies, duration_ns, cfg, chaos_plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_octree::{benchmark_scenes, Scene};
    use mp_robot::RobotModel;
    use mp_sim::arrival::{ArrivalKind, ArrivalProcess};
    use mp_sim::fault::ShardFaultEvent;
    use std::sync::OnceLock;
    use threadpool::ThreadPool;

    fn catalog() -> &'static PlanCatalog {
        static CAT: OnceLock<PlanCatalog> = OnceLock::new();
        CAT.get_or_init(|| {
            let scenes: Vec<Scene> = benchmark_scenes().into_iter().take(2).collect();
            PlanCatalog::build(&RobotModel::jaco2(), &scenes, 2, 3, &ThreadPool::new(2))
                .expect("catalog builds")
        })
    }

    const DURATION: VirtualNs = 50_000_000; // 50 ms simulated

    fn fleet_cfg(shards: usize) -> FleetConfig {
        FleetConfig {
            shards,
            shard: ServiceConfig {
                instances: 2,
                ..ServiceConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    fn tenants(rate: f64) -> Vec<TenantSpec> {
        let deadline_us = (4.0 * catalog().mean_service_us(QualityTier::Full)) as u64;
        vec![
            TenantSpec {
                label: "interactive",
                process: ArrivalProcess {
                    kind: ArrivalKind::Poisson,
                    rate_per_s: rate * 0.7,
                    seed: 101,
                },
                deadline_us,
            },
            TenantSpec {
                label: "batchy",
                process: ArrivalProcess {
                    kind: ArrivalKind::Bursty {
                        burst_factor: 5.0,
                        period_us: 5_000,
                        duty: 0.2,
                    },
                    rate_per_s: rate * 0.3,
                    seed: 202,
                },
                deadline_us: deadline_us * 2,
            },
        ]
    }

    fn kill_two(at_ns: u64, down_ns: u64) -> ShardFaultPlan {
        ShardFaultPlan::scripted(
            5,
            vec![
                ShardFaultEvent {
                    at_ns,
                    shard: 0,
                    kind: ShardFaultKind::Crash,
                    duration_ns: down_ns,
                    slow_factor: 1,
                },
                ShardFaultEvent {
                    at_ns,
                    shard: 2,
                    kind: ShardFaultKind::Crash,
                    duration_ns: down_ns,
                    slow_factor: 1,
                },
            ],
        )
    }

    #[test]
    fn chaos_runs_are_deterministic_and_conserving() {
        let cfg = fleet_cfg(4);
        let rate = catalog().saturating_rate_per_s(4 * cfg.shard.instances);
        let chaos = ShardFaultPlan {
            crash_rate_per_s: 20.0,
            stall_rate_per_s: 20.0,
            flap_rate_per_s: 10.0,
            ..ShardFaultPlan::none(7)
        };
        let a = run_fleet(catalog(), &tenants(rate), &[], DURATION, &cfg, &chaos);
        let b = run_fleet(catalog(), &tenants(rate), &[], DURATION, &cfg, &chaos);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "summaries differ");
        let f = &a.fleet;
        assert_eq!(
            f.offered,
            f.on_time + f.late + f.shed() + f.failed_faults + f.unsolved,
            "every request must resolve exactly once"
        );
        assert!(f.offered > 100, "expected meaningful traffic");
        assert_eq!(a.shards.len(), 4);
        assert_eq!(a.tenants.len(), 2);
        assert_eq!(
            a.tenants.iter().map(|t| t.offered).sum::<u64>(),
            f.offered,
            "tenant rows must partition the offered traffic"
        );
        assert!(a.imbalance() >= 1.0);
        // Energy accounting: completions carry energy, the tier split and
        // the tenant rows both sum to the fleet total, and the shard rows
        // cover everything the fleet spent (winning + wasted attempts;
        // shards may also bill crash-stale copies the fleet never saw
        // resolve, so they bound the fleet ledger from above).
        assert!(f.energy_pj > 0.0, "completions must spend energy");
        let tier_sum: f64 = f.tier_energy_pj.iter().sum();
        assert!((tier_sum - f.energy_pj).abs() < 1e-6 * f.energy_pj.max(1.0));
        let tenant_sum: f64 = a.tenants.iter().map(|t| t.energy_pj).sum();
        assert!((tenant_sum - f.energy_pj).abs() < 1e-6 * f.energy_pj.max(1.0));
        let shard_sum: f64 = a.shards.iter().map(|s| s.energy_pj).sum();
        assert!(
            shard_sum >= f.energy_pj + f.wasted_energy_pj - 1e-6 * shard_sum.max(1.0),
            "shard rows must cover the fleet ledger: {shard_sum} < {}",
            f.energy_pj + f.wasted_energy_pj
        );
        assert!(f.energy_per_plan_pj() > 0.0);
    }

    #[test]
    fn failover_beats_the_undefended_fleet_through_a_double_kill() {
        let rate = 1.2 * catalog().saturating_rate_per_s(4 * 2);
        let chaos = kill_two(DURATION / 4, DURATION / 2);
        let defended = fleet_cfg(4);
        let undefended = FleetConfig {
            failover: FailoverConfig {
                enabled: false,
                ..FailoverConfig::default()
            },
            hedge: HedgeConfig {
                enabled: false,
                delay_us: 400,
            },
            fairness: false,
            ..fleet_cfg(4)
        };
        let d = run_fleet(catalog(), &tenants(rate), &[], DURATION, &defended, &chaos);
        let u = run_fleet(
            catalog(),
            &tenants(rate),
            &[],
            DURATION,
            &undefended,
            &chaos,
        );
        assert!(d.shard_kills >= 2 && u.shard_kills >= 2);
        assert!(
            d.rerouted > 0,
            "failover must re-route the dead shards' load"
        );
        assert_eq!(d.fleet.shed_shard_lost, d.lost_to_shards);
        assert!(
            u.fleet.shed_shard_lost > 0,
            "undefended kills must lose requests"
        );
        assert!(
            d.fleet.goodput_rps() > u.fleet.goodput_rps(),
            "defended goodput {:.0} <= undefended {:.0}",
            d.fleet.goodput_rps(),
            u.fleet.goodput_rps()
        );
    }

    #[test]
    fn fairness_shields_the_steady_tenant_from_an_adversary() {
        let rate = catalog().saturating_rate_per_s(4 * 2);
        let deadline_us = (4.0 * catalog().mean_service_us(QualityTier::Full)) as u64;
        let steady = TenantSpec {
            label: "steady",
            process: ArrivalProcess {
                kind: ArrivalKind::Poisson,
                rate_per_s: rate * 0.5,
                seed: 11,
            },
            deadline_us,
        };
        let adversary = TenantSpec {
            label: "adversary",
            process: ArrivalProcess {
                kind: ArrivalKind::Adversarial { batch: 64 },
                rate_per_s: rate * 2.0,
                seed: 12,
            },
            deadline_us,
        };
        let policies = vec![
            TenantPolicy {
                weight: 4,
                ..TenantPolicy::default()
            },
            TenantPolicy {
                weight: 1,
                bucket: Some((rate * 0.5, 32)),
                ..TenantPolicy::default()
            },
        ];
        let chaos = ShardFaultPlan::none(1);
        let fair = fleet_cfg(4);
        let unfair = FleetConfig {
            fairness: false,
            ..fleet_cfg(4)
        };
        let specs = [steady, adversary];
        let f = run_fleet(catalog(), &specs, &policies, DURATION, &fair, &chaos);
        let u = run_fleet(catalog(), &specs, &policies, DURATION, &unfair, &chaos);
        assert!(
            f.tenants[1].throttled > 0,
            "the adversary must hit its token bucket"
        );
        assert!(
            f.tenants[0].on_time > u.tenants[0].on_time,
            "fairness must shield the steady tenant: fair {} <= unfair {}",
            f.tenants[0].on_time,
            u.tenants[0].on_time
        );
    }

    #[test]
    fn hedging_fires_on_a_stalled_shard_and_wins() {
        let rate = 0.5 * catalog().saturating_rate_per_s(4 * 2);
        let chaos = ShardFaultPlan::scripted(
            3,
            (0..4)
                .map(|shard| ShardFaultEvent {
                    at_ns: DURATION / 8,
                    shard,
                    kind: ShardFaultKind::Stall,
                    duration_ns: DURATION / 2,
                    slow_factor: 16,
                })
                .take(1)
                .collect(),
        );
        let hedged = fleet_cfg(4);
        let unhedged = FleetConfig {
            hedge: HedgeConfig {
                enabled: false,
                delay_us: 400,
            },
            ..fleet_cfg(4)
        };
        let h = run_fleet(catalog(), &tenants(rate), &[], DURATION, &hedged, &chaos);
        let n = run_fleet(catalog(), &tenants(rate), &[], DURATION, &unhedged, &chaos);
        assert!(h.hedges_fired > 0, "stalls must trigger hedges");
        assert!(h.hedge_wins > 0, "some hedges must win the race");
        assert_eq!(n.hedges_fired, 0);
        assert!(
            h.fleet.on_time >= n.fleet.on_time,
            "hedging must not lose goodput: {} < {}",
            h.fleet.on_time,
            n.fleet.on_time
        );
    }

    #[test]
    fn fleet_certification_is_sound_under_sdc_and_chaos() {
        use crate::integrity::IntegrityConfig;
        use crate::service::FaultProfile;
        let rate = catalog().saturating_rate_per_s(4 * 2);
        let chaos = kill_two(DURATION / 4, DURATION / 4);
        let sdc = FaultProfile::none().with_sdc(0.01, Some(0), 30.0);
        let undefended = FleetConfig {
            shard: ServiceConfig {
                instances: 2,
                faults: sdc,
                ..ServiceConfig::default()
            },
            ..fleet_cfg(4)
        };
        let defended = FleetConfig {
            shard: ServiceConfig {
                integrity: IntegrityConfig::full(),
                ..undefended.shard
            },
            ..undefended
        };
        let u = run_fleet(
            catalog(),
            &tenants(rate),
            &[],
            DURATION,
            &undefended,
            &chaos,
        );
        let d = run_fleet(catalog(), &tenants(rate), &[], DURATION, &defended, &chaos);
        assert!(u.fleet.integrity.sdc_injected > 0, "SDC must fire");
        assert!(
            u.fleet.integrity.sdc_escaped > 0,
            "undefended shards must ship unsafe plans"
        );
        assert_eq!(
            d.fleet.integrity.sdc_escaped, 0,
            "the defended fleet must ship zero unsafe plans"
        );
        assert!(d.fleet.integrity.certified > 0);
        assert!(d.fleet.integrity.certify_failed > 0);
        assert!(d.fleet.integrity.certify_ns > 0);
        // Both runs stay conserving through crashes + certification.
        for s in [&u, &d] {
            let f = &s.fleet;
            assert_eq!(
                f.offered,
                f.on_time + f.late + f.shed() + f.failed_faults + f.unsolved,
                "every request must resolve exactly once"
            );
        }
        // Determinism of the defended run.
        let d2 = run_fleet(catalog(), &tenants(rate), &[], DURATION, &defended, &chaos);
        assert_eq!(format!("{d:?}"), format!("{d2:?}"));
    }

    #[test]
    fn fleet_scrub_readmits_a_benched_hot_lane() {
        use crate::integrity::IntegrityConfig;
        use crate::service::FaultProfile;
        let rate = catalog().saturating_rate_per_s(2 * 2);
        let cfg = FleetConfig {
            shard: ServiceConfig {
                instances: 2,
                faults: FaultProfile::none().with_sdc(0.004, Some(0), 100.0),
                integrity: IntegrityConfig::full(),
                ..ServiceConfig::default()
            },
            ..fleet_cfg(2)
        };
        let s = run_fleet(
            catalog(),
            &tenants(rate),
            &[],
            2 * DURATION,
            &cfg,
            &ShardFaultPlan::none(0),
        );
        assert_eq!(s.fleet.integrity.sdc_escaped, 0);
        assert!(s.fleet.integrity.votes > 0, "suspicion must engage voting");
        assert!(s.fleet.integrity.vote_overrides > 0);
        assert!(s.fleet.integrity.liars_benched > 0);
        assert!(
            s.fleet.integrity.scrub_readmits > 0,
            "scrub must readmit within the run"
        );
    }

    #[test]
    fn single_shard_fleet_degenerates_gracefully() {
        let cfg = FleetConfig {
            hedge: HedgeConfig {
                enabled: true,
                delay_us: 400,
            },
            ..fleet_cfg(1)
        };
        let rate = 0.5 * catalog().saturating_rate_per_s(cfg.shard.instances);
        let s = run_fleet(
            catalog(),
            &tenants(rate),
            &[],
            DURATION,
            &cfg,
            &ShardFaultPlan::none(0),
        );
        assert_eq!(s.hedges_fired, 0, "nowhere to hedge with one shard");
        assert_eq!(s.fleet.shed_shard_lost, 0);
        assert!(s.fleet.on_time > 0);
    }
}
