//! End-to-end telemetry acceptance tests over the soak capture: the
//! exported Chrome trace must be valid JSON carrying spans from every
//! instrumented layer, the flight recorder must hold at least one
//! deadline-miss incident from the overloaded run, and — the zero-cost
//! contract — recording must not perturb the simulation or the rendered
//! soak report.

use mp_bench::experiments::{fleet, soak};
use mp_bench::Scale;
use threadpool::ThreadPool;

#[test]
fn capture_emits_valid_trace_spanning_the_stack_plus_flight_incidents() {
    let pool = ThreadPool::new(2);
    let (session, summary) = soak::capture_trace(Scale::Quick, &pool);
    let streams = session.streams();
    let json = mp_telemetry::chrome_trace_json(&streams);
    mp_telemetry::validate_json(&json).expect("exporter must emit valid JSON");

    // Spans from each instrumented crate, by category: the planner tiers
    // and phases, the service event loop, the catalog build fan-out, and
    // the accelerator core (trace replay / SAS). With the `telemetry`
    // feature the collision hot kernel shows up too.
    for cat in ["planner", "service", "catalog", "core"] {
        assert!(
            json.contains(&format!("\"cat\":\"{cat}\"")),
            "trace is missing category `{cat}`"
        );
    }
    #[cfg(feature = "telemetry")]
    assert!(
        json.contains("\"cat\":\"collision\"") && json.contains("\"name\":\"cd_query\""),
        "telemetry feature build must include collision hot-kernel spans"
    );

    // The 2x-overloaded faulted run must strand requests past their
    // deadlines, and each miss must leave a flight-recorder snapshot.
    assert!(summary.miss_rate() > 0.0, "capture run must induce misses");
    assert!(session.incidents_seen() > 0, "incidents must be recorded");
    let flight = mp_telemetry::flight_report(&streams);
    assert!(
        flight.contains("deadline_miss"),
        "flight recorder must snapshot a deadline miss:\n{flight}"
    );

    // The metrics registry unifies the service summary and collision
    // counters with exact percentile semantics.
    let reg = soak::metrics_registry(&summary);
    assert_eq!(reg.counter_value("service.offered"), Some(summary.offered));
    assert!(reg.counter_value("collision.pose_checks_total").is_some());
    let hist = reg
        .histogram("service.latency_ns")
        .expect("latency histogram");
    assert_eq!(
        hist.percentile(0.99).map(|ns| ns as f64 / 1_000.0),
        summary.latency_percentile_us(0.99),
        "registry histogram must reproduce the summary's exact p99"
    );
    assert!(reg.render_text().contains("service.latency_ns"));
    assert!(reg
        .to_csv()
        .starts_with("name,kind,count,value,p50,p99,p999"));
}

#[test]
fn tracing_does_not_perturb_the_simulation_or_the_report() {
    // Same seeds, traced vs untraced: the service summary and the rendered
    // soak report must be byte-identical. This is the quick-scale stdout
    // identity criterion in test form.
    let pool = ThreadPool::new(2);
    let before = soak::run_with_pool(Scale::Quick, &pool).to_string();
    let (_session, _summary) = soak::capture_trace(Scale::Quick, &pool);
    let after = soak::run_with_pool(Scale::Quick, &pool).to_string();
    assert_eq!(
        before, after,
        "a trace capture must not change the soak report"
    );
}

#[test]
fn shard_events_are_service_category_and_router_events_fleet() {
    // One naming scheme for both entry points: what a shard does (serve
    // spans, sheds, quarantines, deadline misses) is `service`, whether
    // the shard runs alone or in a fleet; only the router's decisions
    // (hedges, throttling, shard crash and rejoin) are `fleet`.
    let (session, summary) = fleet::capture_trace(Scale::Quick, &ThreadPool::new(2));
    assert!(summary.shard_kills > 0 && summary.hedges_fired > 0);
    // The ring keeps the run's tail; the flight-recorder snapshots keep
    // what led up to each incident (the crashes among them).
    let events: Vec<_> = session
        .streams()
        .into_iter()
        .flat_map(|s| {
            s.events
                .into_iter()
                .chain(s.incidents.into_iter().flat_map(|i| i.events))
        })
        .filter(|e| e.cat == "service" || e.cat == "fleet")
        .collect();
    let cat_of = |name: &str| {
        let mut cats: Vec<&str> = events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.cat)
            .collect();
        cats.sort_unstable();
        cats.dedup();
        cats
    };
    for name in ["serve", "shed_queue_full", "shed_hopeless"] {
        assert_eq!(cat_of(name), ["service"], "`{name}` is shard-level");
    }
    for name in ["hedge_fired", "shard_crash", "shard_rejoin"] {
        assert_eq!(cat_of(name), ["fleet"], "`{name}` is router-level");
    }
}
