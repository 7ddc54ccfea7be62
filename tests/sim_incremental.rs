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

/// A short fold of f64 bit patterns, so a section's fingerprint also pins
/// what the entry points returned.
fn bits_digest(xs: impl IntoIterator<Item = f64>) -> String {
    let d = xs
        .into_iter()
        .fold(0u64, |acc, x| acc.rotate_left(7) ^ x.to_bits());
    format!("{d:016x}")
}

#[test]
fn channel_sync_and_phy_entry_points_keep_counters_histogram_counts_and_span_names() {
    use densevlc::e2e::{self, E2eConfig, E2eTx};
    use densevlc::experiments::{tab04_sync_error, tab05_iperf};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vlc_alloc::exhaustive::exhaustive_binary;
    use vlc_alloc::SystemModel;
    use vlc_channel::lambertian::lambertian_order;
    use vlc_channel::nlos::{floor_bounce_gain, wall_bounce_gain, NlosConfig};
    use vlc_channel::{
        ChannelMatrix, ChannelUpdater, CylinderBlocker, FovMask, NlosTxCache, RxOptics,
    };
    use vlc_geom::{Pose, Room, TxGrid};
    use vlc_par::{Jobs, Pool};
    use vlc_sync::{NlosSyncLink, SyncScheme};
    use vlc_telemetry::ManualClock;
    use vlc_trace::Tracer;

    // The sync link and the table runners size their pools from the
    // environment; pin them to the sequential path.
    std::env::set_var(vlc_par::JOBS_ENV, "1");
    let mut got = String::new();
    let mut section = |name: &str, f: &mut dyn FnMut(&Registry, &Span) -> String| {
        let reg = Registry::new();
        let tracer = Tracer::with_clock(ManualClock::new());
        let root = tracer.root("pin");
        let value = f(&reg, &root);
        drop(root);
        got.push_str(&format!("== {name} {value}\n"));
        for (gauge, v) in &reg.snapshot().gauges {
            got.push_str(&format!("gauge {gauge} = {v:e}\n"));
        }
        got.push_str(&round_fingerprint(&reg, &tracer));
    };

    let room = Room::paper_testbed();
    let grid = TxGrid::paper(&room);
    let hpsa = 15f64.to_radians();
    let m = lambertian_order(hpsa);
    let optics = RxOptics::paper();
    let narrow = RxOptics {
        fov_half_angle: 30f64.to_radians(),
        ..optics
    };
    let rxs = [
        Pose::face_up(0.92, 0.92, 0.8),
        Pose::face_up(1.65, 0.65, 0.8),
        Pose::face_up(0.72, 1.93, 0.8),
    ];
    let blockers = [CylinderBlocker::person(0.92, 0.92)];
    let cfg = NlosConfig { patch_size_m: 0.1 };
    let floor_rx = Pose::face_up(0.92, 0.92, 0.0);

    section("los sounding", &mut |reg, root| {
        let pool = Pool::new(Jobs::serial()).with_telemetry(reg);
        let mask = FovMask::compute(&grid, &rxs, &narrow.profile());
        let ctx = Ctx::new(reg, root).with_pool(&pool);
        let h = ChannelMatrix::sound(&grid, &rxs, hpsa, &narrow, &blockers, Some(&mask), &ctx);
        bits_digest(h.iter().map(|(_, _, g)| g))
    });
    section("floor and wall bounce", &mut |reg, root| {
        let pool = Pool::new(Jobs::serial()).with_telemetry(reg);
        let ctx = Ctx::new(reg, root).with_pool(&pool);
        let floor = floor_bounce_gain(&grid.pose(1), &grid.pose(2), m, &optics, &room, &cfg, &ctx);
        let wall = wall_bounce_gain(&grid.pose(7), &floor_rx, m, &optics, &room, &cfg, &ctx);
        bits_digest([floor, wall])
    });
    section("nlos cache", &mut |reg, root| {
        let pool = Pool::new(Jobs::serial()).with_telemetry(reg);
        let ctx = Ctx::new(reg, root).with_pool(&pool);
        let cache = NlosTxCache::new(&grid.pose(1), m, &room, &cfg, &ctx);
        let floor = cache.floor_gain(&grid.pose(2), &optics, &ctx);
        let wall = cache.wall_gain(&floor_rx, &optics, &ctx);
        bits_digest([floor, wall])
    });
    section("channel update", &mut |reg, root| {
        let pool = Pool::new(Jobs::serial()).with_telemetry(reg);
        let mut updater = ChannelUpdater::new(&grid, hpsa, &optics, 0.0);
        let u = updater.update_pooled(&rxs, &blockers, &pool, reg, root);
        bits_digest(u.matrix.iter().map(|(_, _, g)| g))
    });
    section("sync link", &mut |reg, root| {
        let cache = NlosTxCache::new(
            &grid.pose(1),
            m,
            &room,
            &NlosConfig::default(),
            &Ctx::noop(),
        );
        let ctx = Ctx::new(reg, root);
        let direct =
            NlosSyncLink::between(&grid.pose(1), &grid.pose(2), &room, hpsa, &optics, &ctx);
        let cached = NlosSyncLink::between_cached(&cache, &grid.pose(2), &optics, &ctx);
        let mut rng = StdRng::seed_from_u64(11);
        let snrs: Vec<f64> = (0..3).map(|_| direct.detect(&mut rng, &ctx).snr).collect();
        bits_digest(
            [direct.bounce_gain, cached.bounce_gain]
                .into_iter()
                .chain(snrs),
        )
    });
    section("e2e", &mut |reg, root| {
        let txs = [
            E2eTx {
                gain: 2.0e-6,
                host: 0,
            },
            E2eTx {
                gain: 1.5e-6,
                host: 1,
            },
        ];
        let r = e2e::run(
            &txs,
            &SyncScheme::nlos_paper(),
            &E2eConfig::default(),
            3,
            7,
            &Ctx::new(reg, root),
        );
        format!("{r:?}")
    });
    section("tab04", &mut |reg, root| {
        format!("{:?}", tab04_sync_error::run(3, 41, &Ctx::new(reg, root)))
    });
    section("tab05", &mut |reg, root| {
        let t = tab05_iperf::run(2, 51, &Ctx::new(reg, root));
        format!("{:?}", [t.two_tx, t.four_tx_no_sync, t.four_tx_nlos])
    });
    section("exhaustive", &mut |reg, root| {
        let small = TxGrid::centered(&Room::paper_simulation(), 3, 3, 1.0);
        let h = ChannelMatrix::compute(
            &small,
            &[Pose::face_up(0.6, 0.6, 0.8), Pose::face_up(2.4, 2.4, 0.8)],
            hpsa,
            &optics,
        );
        // The search records nothing of its own: on an untelemetered pool
        // a live registry stays empty.
        let pool = Pool::new(Jobs::serial());
        let ctx = Ctx::new(reg, root).with_pool(&pool);
        let r = exhaustive_binary(&SystemModel::paper(h), 0.3, 1 << 21, &ctx);
        format!("evaluated={} {}", r.evaluated, bits_digest([r.system_bps]))
    });

    assert_eq!(got, ENTRY_POINT_FINGERPRINT, "\n{got}");
}

const ENTRY_POINT_FINGERPRINT: &str = "\
== los sounding f5bfcd94575c9c12
counter par.items = 36
counter par.map_calls = 1
counter par.pool.created = 1
counter par.worker0.items = 36
histogram par.worker.busy_s n=1
span pin x1
span pin/channel.sound x1
span pin/channel.sound/channel.sound.row x36
== floor and wall bounce 11592b7f276cfd8d
counter par.items = 150
counter par.map_calls = 2
counter par.pool.created = 1
counter par.worker0.items = 150
histogram par.worker.busy_s n=2
span pin x1
span pin/channel.nlos.floor x1
span pin/channel.nlos.floor/channel.nlos.floor.row x30
span pin/channel.nlos.wall x1
span pin/channel.nlos.wall/channel.nlos.wall.col x120
== nlos cache 113abc994f5ac633
counter par.items = 300
counter par.map_calls = 4
counter par.pool.created = 1
counter par.worker0.items = 300
histogram par.worker.busy_s n=4
span pin x1
span pin/channel.nlos.cache_build x1
span pin/channel.nlos.cache_build/channel.nlos.cache_build.col x120
span pin/channel.nlos.cache_build/channel.nlos.cache_build.row x30
span pin/channel.nlos.floor.cached x1
span pin/channel.nlos.floor.cached/channel.nlos.floor.cached.row x30
span pin/channel.nlos.wall.cached x1
span pin/channel.nlos.wall.cached/channel.nlos.wall.cached.col x120
== channel update d8a220388958a073
counter channel.cache.hit = 0
counter channel.cache.miss = 3
counter channel.cache.partial = 0
counter channel.cache.updates = 1
counter channel.fov.culled = 0
counter channel.fov.live = 108
counter par.items = 3
counter par.map_calls = 1
counter par.pool.created = 1
counter par.worker0.items = 3
histogram par.worker.busy_s n=1
span pin x1
span pin/channel.update x1
span pin/channel.update/channel.update.col x3
== sync link 471e0e7f3ec6d76b
gauge sync.pilot_snr = 2.7434704822028824e0
counter sync.pilot_detections = 3
span pin x1
span pin/sync.link_build x1
span pin/sync.link_build/channel.nlos.floor x1
span pin/sync.link_build/channel.nlos.floor/channel.nlos.floor.row x60
span pin/sync.link_build_cached x1
span pin/sync.link_build_cached/channel.nlos.floor.cached x1
span pin/sync.link_build_cached/channel.nlos.floor.cached/channel.nlos.floor.cached.row x60
span pin/sync.pilot_detect x3
== e2e E2eResult { frames_total: 3, frames_ok: 3, per: 0.0, goodput_bps: 33698.39932603201, rs_corrections: 0 }
counter phy.frames_decoded = 3
counter phy.frames_encoded = 3
counter phy.rs_symbols_corrected = 0
histogram phy.ber n=3
histogram phy.packed.decode_s n=3
histogram phy.packed.encode_s n=3
histogram phy.rs.block_s n=3
span pin x1
== tab04 Tab04 { no_sync_s: 1.5366666666666626e-5, ntp_ptp_s: 4.28333333333332e-6, nlos_vlc_s: 6.166666666666546e-7 }
gauge sync.drift_ppm = 6.498167512374877e-1
gauge sync.offset_s = -1.2312448677983978e-2
gauge sync.pilot_snr = 2.7434704822028824e0
counter sync.pilot_detections = 3
span pin x1
span pin/sync.link_build x1
span pin/sync.link_build/channel.nlos.floor x1
span pin/sync.link_build/channel.nlos.floor/channel.nlos.floor.row x60
span pin/sync.pilot_round x3
span pin/sync.pilot_round/sync.pilot_detect x3
== tab05 [E2eResult { frames_total: 2, frames_ok: 2, per: 0.0, goodput_bps: 33698.39932603201, rs_corrections: 0 }, E2eResult { frames_total: 2, frames_ok: 0, per: 1.0, goodput_bps: 0.0, rs_corrections: 0 }, E2eResult { frames_total: 2, frames_ok: 2, per: 0.0, goodput_bps: 33698.39932603201, rs_corrections: 0 }]
counter phy.frame_sync_errors = 2
counter phy.frames_decoded = 4
counter phy.frames_encoded = 6
counter phy.rs_symbols_corrected = 0
histogram phy.ber n=6
histogram phy.packed.decode_s n=6
histogram phy.packed.encode_s n=6
histogram phy.rs.block_s n=4
span pin x1
== exhaustive evaluated=19683 41479949beb67a94
span pin x1
";

/// The MAC planning entry points — a traced plan, a plan-cache miss then
/// hit, an infeasible zero-budget plan, and a short heuristic building run
/// — pinned the same way as the round entry points, plus any events.
#[test]
fn plan_entry_points_keep_counters_histogram_counts_and_span_names() {
    use vlc_cell::{BuildingConfig, BuildingEngine, LoadGenConfig, ReplanPolicy};
    use vlc_mac::{BeamspotPlan, Controller, ControllerConfig, PlanCache};
    use vlc_par::{Jobs, Pool};
    use vlc_telemetry::ManualClock;
    use vlc_trace::Tracer;

    // Pin the sequential path so the `par.*` counters are host independent.
    std::env::set_var(vlc_par::JOBS_ENV, "1");
    let mut got = String::new();
    let mut section = |name: &str, f: &mut dyn FnMut(&Registry, &Span) -> String| {
        let reg = Registry::new();
        let tracer = Tracer::with_clock(ManualClock::new());
        let root = tracer.root("pin");
        let value = f(&reg, &root);
        drop(root);
        got.push_str(&format!("== {name} {value}\n"));
        for event in &reg.snapshot().events {
            got.push_str(&format!(
                "event {}/{} {:?}\n",
                event.target, event.kind, event.fields
            ));
        }
        got.push_str(&round_fingerprint(&reg, &tracer));
    };
    let plan_digest = |plan: &BeamspotPlan| {
        format!(
            "spots={:?} {}",
            plan.beamspots
                .iter()
                .map(|b| (b.rx, b.leader, b.txs.len()))
                .collect::<Vec<_>>(),
            bits_digest(plan.allocation.as_slice().iter().copied())
        )
    };

    let channel = Deployment::scenario(Scenario::Two).model.channel;
    let controller = |budget_w: f64| {
        Controller::new(
            ControllerConfig::paper(budget_w),
            channel.n_tx(),
            channel.n_rx(),
        )
    };

    section("plan", &mut |reg, root| {
        plan_digest(&controller(1.2).plan(&channel, None, reg, root))
    });
    section("plan cache miss then hit", &mut |reg, root| {
        let ctl = controller(1.2);
        let mut cache = PlanCache::new();
        let miss = ctl.plan(&channel, Some(&mut cache), reg, root);
        let hit = ctl.plan(&channel, Some(&mut cache), reg, root);
        assert_eq!(hit, miss);
        plan_digest(&hit)
    });
    section("zero budget", &mut |reg, root| {
        plan_digest(&controller(0.0).plan(&channel, None, reg, root))
    });
    section("building", &mut |reg, root| {
        let config = BuildingConfig::paper(3, 3);
        assert_eq!(config.policy, ReplanPolicy::Heuristic);
        let schedule = LoadGenConfig {
            cols: 3,
            rows: 3,
            ticks: 60,
            target_events: 900,
            seed: 3,
            mean_lifetime_ticks: 30,
            move_period_ticks: 4,
            step_m: 1.0,
        }
        .schedule();
        let mut engine = BuildingEngine::new(&config, reg);
        let pool = Pool::new(Jobs::serial()).with_telemetry(reg);
        let mut bps = Vec::new();
        let (mut replans, mut hits) = (0, 0);
        for cmds in &schedule.per_tick {
            for cmd in cmds {
                engine.apply(cmd);
            }
            let report = engine.control_tick(&pool, root);
            replans += report.replans;
            hits += report.plan_hits;
            bps.push(report.system_bps);
        }
        format!(
            "events={} replans={replans} hits={hits} {}",
            schedule.events,
            bits_digest(bps)
        )
    });

    assert_eq!(got, PLAN_FINGERPRINT, "\n{got}");
}

const PLAN_FINGERPRINT: &str = "\
== plan spots=[(3, 22, 6), (2, 25, 4), (0, 7, 3), (1, 3, 3)] ff10795495041654
counter mac.rounds_planned = 1
histogram mac.allocate_s n=1
histogram mac.plan_s n=1
histogram mac.rank_s n=1
span pin x1
span pin/mac.plan x1
span pin/mac.plan/mac.allocate x1
span pin/mac.plan/mac.rank x1
== plan cache miss then hit spots=[(3, 22, 6), (2, 25, 4), (0, 7, 3), (1, 3, 3)] ff10795495041654
counter mac.plan.cache_hits = 1
counter mac.plan.cache_misses = 1
counter mac.rounds_planned = 1
histogram mac.allocate_s n=1
histogram mac.plan_s n=1
histogram mac.rank_s n=1
span pin x1
span pin/mac.plan x1
span pin/mac.plan.cached x1
span pin/mac.plan/mac.allocate x1
span pin/mac.plan/mac.rank x1
== zero budget spots=[] 0000000000000000
event mac.controller/infeasible_round [(\"budget_w\", \"0\")]
counter mac.infeasible_rounds = 1
counter mac.rounds_planned = 1
histogram mac.allocate_s n=1
histogram mac.plan_s n=1
histogram mac.rank_s n=1
span pin x1
span pin/mac.plan x1
span pin/mac.plan/mac.allocate x1
span pin/mac.plan/mac.rank x1
== building events=934 replans=438 hits=0 600dbcf6c81b2037
counter cell.arrivals = 128
counter cell.departures = 74
counter cell.dirty_shards = 438
counter cell.events = 934
counter cell.handovers = 138
counter cell.moves = 732
counter cell.plan.hits = 0
counter cell.replans = 438
counter cell.ticks = 60
counter channel.cache.hit = 759
counter channel.cache.miss = 2167
counter channel.cache.partial = 0
counter channel.cache.updates = 438
counter channel.fov.culled = 0
counter channel.fov.live = 105336
counter mac.rounds_planned = 438
counter par.pool.created = 1
histogram cell.tick_s n=60
histogram mac.allocate_s n=438
histogram mac.plan_s n=438
histogram mac.rank_s n=438
span pin x1
span pin/cell.tick x60
span pin/cell.tick/cell.replan x438
span pin/cell.tick/cell.replan/channel.update x438
span pin/cell.tick/cell.replan/channel.update/channel.update.col x2167
span pin/cell.tick/cell.replan/mac.plan x438
span pin/cell.tick/cell.replan/mac.plan/mac.allocate x438
span pin/cell.tick/cell.replan/mac.plan/mac.rank x438
";
