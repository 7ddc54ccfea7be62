//! The incremental simulation engine must be an *exact* drop-in for the
//! cold one: same `Timeline`, tick for tick, bit for bit — including across
//! mid-run cache invalidations (a teleporting receiver, a person walking
//! through every beam) — while actually exercising the warm paths.

use densevlc::sim::Simulation;
use vlc_geom::Vec3;
use vlc_par::Ctx;
use vlc_telemetry::Registry;
use vlc_testbed::{AcroPositioner, Deployment, Scenario};
use vlc_trace::Span;

fn sim() -> Simulation {
    Simulation::new(Deployment::scenario(Scenario::Two), 1.2, 0.2)
}

/// Runs the same script through both engines and returns the two
/// (timeline-ticks, snapshot) pairs. The script teleports RX1 across the
/// room mid-run and sends a person straight through the grid — both cache
/// invalidation classes (pose miss, blockage partial) fire mid-flight.
fn run_script(incremental: bool) -> (Vec<densevlc::sim::Tick>, Registry) {
    let mut s = sim();
    s.send_receiver(0, 2.0, 2.0);
    // The person crosses half the room then stands still, so the run has
    // walking ticks (blockage changes → partial re-tests) *and* settled
    // ticks (nothing changes → column hits).
    s.add_person(0.1, 1.5, 1.0, &[(1.5, 1.5)]);
    let telemetry = Registry::new();
    let mut ticks = Vec::new();
    let first = if incremental {
        s.run(1.0, &Ctx::new(&telemetry, &Span::noop()), None)
    } else {
        s.run_cold(1.0, &Ctx::new(&telemetry, &Span::noop()))
    };
    ticks.extend(first.ticks);
    // Teleport: replace the mover outright — a discontinuous jump no
    // ε-threshold could mistake for "hasn't moved".
    let room = s.deployment.room;
    s.rx_movers[0] = AcroPositioner::new(Vec3::new(0.3, 2.7, 0.0), 0.5, room);
    let second = if incremental {
        s.run(1.0, &Ctx::new(&telemetry, &Span::noop()), None)
    } else {
        s.run_cold(1.0, &Ctx::new(&telemetry, &Span::noop()))
    };
    ticks.extend(second.ticks);
    (ticks, telemetry)
}

#[test]
fn incremental_engine_reproduces_cold_timeline_through_invalidation() {
    let (warm, warm_telemetry) = run_script(true);
    let (cold, _) = run_script(false);
    assert_eq!(warm.len(), cold.len());
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(w, c, "tick t={} diverged", w.t_s);
    }
    // The run must actually have exercised the cache, not just bypassed it.
    let snap = warm_telemetry.snapshot();
    assert!(
        snap.counter("channel.cache.hit").unwrap_or(0) > 0,
        "no column was ever reused"
    );
    assert!(
        snap.counter("channel.cache.miss").unwrap_or(0) > 0,
        "no column was ever recomputed"
    );
    assert!(
        snap.counter("channel.cache.partial").unwrap_or(0) > 0,
        "blockage changes never re-tested a mask"
    );
}

#[test]
fn end_of_run_deployment_state_matches_cold() {
    // Beyond the timeline, the mutated deployment (receiver poses, stored
    // clear channel) must come out of both engines identical, so downstream
    // experiment code can't tell which engine ran.
    let mut warm = sim();
    warm.send_receiver(0, 2.4, 2.4);
    warm.run(2.0, &Ctx::noop(), None);
    let mut cold = sim();
    cold.send_receiver(0, 2.4, 2.4);
    cold.run_cold(2.0, &Ctx::noop());
    assert_eq!(warm.deployment.receivers, cold.deployment.receivers);
    assert_eq!(warm.deployment.model.channel, cold.deployment.model.channel);
}

#[test]
fn blocked_links_are_counted_against_same_tick_clear_gains() {
    // Regression guard for the stale-diff bug: a receiver gliding under a
    // stationary person changes *which* links its column blocks while plans
    // are stale. Counting the mask against a stale stored channel would
    // double-count the moved column; the same-tick contract keeps both
    // engines in exact agreement, with a long stale window to stress it.
    let build = || {
        let mut s = sim();
        s.adaptation_period_s = 1.5; // mostly-stale plans
        s.add_person(1.32, 0.92, 0.5, &[]); // standing still near RX1
        s.send_receiver(0, 2.4, 0.9); // RX1 slides past the shadow
        s
    };
    let warm = build().run(3.0, &Ctx::noop(), None);
    let cold = build().run_cold(3.0, &Ctx::noop());
    assert_eq!(warm.ticks.len(), cold.ticks.len());
    for (w, c) in warm.ticks.iter().zip(&cold.ticks) {
        assert_eq!(w.blocked_links, c.blocked_links, "t={}", w.t_s);
    }
    assert!(
        warm.ticks.iter().any(|t| t.blocked_links > 0),
        "scenario never blocked anything"
    );
    // The count varies as the receiver crosses the shadow — proof the diff
    // tracks the *current* geometry rather than a snapshot.
    let counts: Vec<usize> = warm.ticks.iter().map(|t| t.blocked_links).collect();
    assert!(
        counts.windows(2).any(|w| w[0] != w[1]),
        "blocked-link count never changed: {counts:?}"
    );
}

#[test]
fn static_world_hits_plan_cache() {
    // Nothing moves → after the first tick every column is a hit and every
    // re-plan lands in the plan cache.
    let mut s = sim();
    let telemetry = Registry::new();
    s.run(2.0, &Ctx::new(&telemetry, &Span::noop()), None);
    let snap = telemetry.snapshot();
    assert!(snap.counter("mac.plan.cache_hits").unwrap_or(0) > 0);
    assert_eq!(snap.counter("mac.plan.cache_misses"), Some(1));
    assert!(snap.counter("channel.cache.hit").unwrap_or(0) > 0);
    assert!(snap.counter("par.pool.created").unwrap_or(0) >= 1);
}

/// Renders what an adaptation-round entry point leaves behind, minus
/// timings: every counter with its value, every histogram with its sample
/// count, and the span-name tree as `root/child/... ×count` paths. Any
/// refactor of the entry points must keep this string unchanged.
fn round_fingerprint(registry: &Registry, tracer: &vlc_trace::Tracer) -> String {
    use std::collections::{BTreeMap, HashMap};
    let metrics = registry.snapshot();
    let trace = tracer.snapshot();
    assert_eq!(trace.dropped, 0, "span ring overflowed");
    let mut out = String::new();
    for (name, value) in &metrics.counters {
        out.push_str(&format!("counter {name} = {value}\n"));
    }
    for (name, h) in &metrics.histograms {
        out.push_str(&format!("histogram {name} n={}\n", h.count));
    }
    let by_id: HashMap<u64, (u64, &str)> = trace
        .spans
        .iter()
        .map(|s| (s.id, (s.parent_id, s.name.as_str())))
        .collect();
    let mut paths: BTreeMap<String, usize> = BTreeMap::new();
    for s in &trace.spans {
        let mut names = vec![s.name.as_str()];
        let mut parent = s.parent_id;
        while let Some(&(up, name)) = by_id.get(&parent) {
            names.push(name);
            parent = up;
        }
        names.reverse();
        *paths.entry(names.join("/")).or_default() += 1;
    }
    for (path, n) in paths {
        out.push_str(&format!("span {path} x{n}\n"));
    }
    out
}

#[test]
fn round_entry_points_keep_counters_histogram_counts_and_span_names() {
    use densevlc::System;
    use vlc_alloc::{OptimalSolver, WarmOptimal};
    use vlc_par::{Jobs, Pool};
    use vlc_telemetry::ManualClock;
    use vlc_trace::Tracer;

    // The simulation sizes its pool from the environment; pin it to the
    // sequential path so the `par.*` counters are host independent.
    std::env::set_var(vlc_par::JOBS_ENV, "1");
    let fresh = || {
        let tracer = Tracer::with_clock(ManualClock::new());
        (Registry::new(), tracer)
    };
    let model = Deployment::scenario(Scenario::Two).model;
    let solver = OptimalSolver::quick();
    let mut got = String::new();

    for incremental in [true, false] {
        let (reg, tracer) = fresh();
        let root = tracer.root("pin");
        let mut s = sim();
        s.send_receiver(0, 2.0, 2.0);
        s.add_person(0.1, 1.5, 1.0, &[(1.5, 1.5)]);
        let ctx = Ctx::new(&reg, &root);
        if incremental {
            s.run(2.0, &ctx, None);
        } else {
            s.run_cold(2.0, &ctx);
        }
        drop(root);
        got.push_str(&format!("== sim incremental={incremental}\n"));
        got.push_str(&round_fingerprint(&reg, &tracer));
    }

    let (reg, tracer) = fresh();
    let root = tracer.root("pin");
    System::scenario(Scenario::Two, 1.2).adapt(&Ctx::new(&reg, &root));
    drop(root);
    got.push_str("== adapt\n");
    got.push_str(&round_fingerprint(&reg, &tracer));

    let (reg, tracer) = fresh();
    let root = tracer.root("pin");
    let pool = Pool::new(Jobs::serial()).with_telemetry(&reg);
    let cold = solver.solve(&model, 1.2, None, &Ctx::new(&reg, &root).with_pool(&pool));
    drop(root);
    got.push_str("== cold solve\n");
    got.push_str(&round_fingerprint(&reg, &tracer));

    let (reg, tracer) = fresh();
    let root = tracer.root("pin");
    let pool = Pool::new(Jobs::serial()).with_telemetry(&reg);
    let ctx = Ctx::new(&reg, &root).with_pool(&pool);
    solver.solve(&model, 1.2, Some(&cold.allocation), &ctx);
    drop(root);
    got.push_str("== warm solve\n");
    got.push_str(&round_fingerprint(&reg, &tracer));

    let (reg, tracer) = fresh();
    let root = tracer.root("pin");
    let mut cache = WarmOptimal::new();
    let pool = Pool::new(Jobs::serial()).with_telemetry(&reg);
    cache.solve_traced_pooled(&solver, &model, 1.2, &reg, &pool, &root);
    cache.solve_traced_pooled(&solver, &model, 1.2, &reg, &pool, &root);
    drop(root);
    got.push_str("== warm cache hit\n");
    got.push_str(&round_fingerprint(&reg, &tracer));

    assert_eq!(got, ROUND_FINGERPRINT, "\n{got}");
}

const ROUND_FINGERPRINT: &str = "\
== sim incremental=true
counter channel.cache.hit = 18
counter channel.cache.miss = 23
counter channel.cache.partial = 39
counter channel.cache.updates = 20
counter channel.fov.culled = 0
counter channel.fov.live = 2880
counter mac.plan.cache_hits = 2
counter mac.plan.cache_misses = 8
counter mac.replans = 10
counter mac.rounds_planned = 8
counter mac.stale_plan_ticks = 10
counter par.items = 80
counter par.map_calls = 20
counter par.pool.created = 1
counter par.worker0.items = 80
counter sim.ticks = 20
histogram mac.allocate_s n=8
histogram mac.plan_s n=8
histogram mac.rank_s n=8
histogram par.worker.busy_s n=20
histogram sim.tick_s n=20
span pin x1
span pin/sim.run x1
span pin/sim.run/sim.tick x20
span pin/sim.run/sim.tick/channel.update x20
span pin/sim.run/sim.tick/channel.update/channel.update.col x62
span pin/sim.run/sim.tick/mac.plan x8
span pin/sim.run/sim.tick/mac.plan.cached x2
span pin/sim.run/sim.tick/mac.plan/mac.allocate x8
span pin/sim.run/sim.tick/mac.plan/mac.rank x8
== sim incremental=false
counter mac.replans = 10
counter mac.rounds_planned = 10
counter mac.stale_plan_ticks = 10
counter par.pool.created = 1
counter sim.ticks = 20
histogram mac.allocate_s n=10
histogram mac.plan_s n=10
histogram mac.rank_s n=10
histogram sim.tick_s n=20
span pin x1
span pin/sim.run x1
span pin/sim.run/sim.tick x20
span pin/sim.run/sim.tick/mac.plan x10
span pin/sim.run/sim.tick/mac.plan/mac.allocate x10
span pin/sim.run/sim.tick/mac.plan/mac.rank x10
== adapt
counter mac.rounds_planned = 1
histogram mac.allocate_s n=1
histogram mac.plan_s n=1
histogram mac.rank_s n=1
histogram sim.adapt_s n=1
span pin x1
span pin/sim.adapt x1
span pin/sim.adapt/mac.plan x1
span pin/sim.adapt/mac.plan/mac.allocate x1
span pin/sim.adapt/mac.plan/mac.rank x1
== cold solve
counter alloc.optimal.iterations = 305
counter alloc.optimal.obj_evals = 568
counter alloc.optimal.solves = 1
counter alloc.optimal.starts = 7
counter par.items = 7
counter par.map_calls = 1
counter par.pool.created = 1
counter par.worker0.items = 7
histogram alloc.optimal.solve_s n=1
histogram par.worker.busy_s n=1
span pin x1
span pin/alloc.optimal.solve x1
span pin/alloc.optimal.solve/alloc.optimal.start x7
span pin/alloc.optimal.solve/alloc.optimal.start/alloc.optimal.iters x11
== warm solve
counter alloc.optimal.iterations = 306
counter alloc.optimal.obj_evals = 600
counter alloc.optimal.solves = 1
counter alloc.optimal.starts = 8
counter alloc.optimal.warm_starts = 1
counter par.items = 8
counter par.map_calls = 1
counter par.pool.created = 1
counter par.worker0.items = 8
histogram alloc.optimal.solve_s n=1
histogram par.worker.busy_s n=1
span pin x1
span pin/alloc.optimal.solve x1
span pin/alloc.optimal.solve/alloc.optimal.start x8
span pin/alloc.optimal.solve/alloc.optimal.start/alloc.optimal.iters x12
== warm cache hit
counter alloc.optimal.iterations = 305
counter alloc.optimal.obj_evals = 568
counter alloc.optimal.replan_hits = 1
counter alloc.optimal.solves = 1
counter alloc.optimal.starts = 7
counter par.items = 7
counter par.map_calls = 1
counter par.pool.created = 1
counter par.worker0.items = 7
histogram alloc.optimal.solve_s n=1
histogram par.worker.busy_s n=1
span pin x1
span pin/alloc.optimal.cached x1
span pin/alloc.optimal.solve x1
span pin/alloc.optimal.solve/alloc.optimal.start x7
span pin/alloc.optimal.solve/alloc.optimal.start/alloc.optimal.iters x11
";
