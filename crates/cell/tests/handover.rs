//! Beamspot handover: a session crossing a room boundary must end up in
//! the destination shard with a plan identical to a cold re-solve there
//! (heuristic policy — planning is a pure function of the channel), and
//! must seed the destination's solver under the optimal policy
//! (`alloc.optimal.warm_starts`) without ever landing below the cold
//! objective.

use vlc_alloc::model::SystemModel;
use vlc_alloc::OptimalSolver;
use vlc_cell::{BuildingConfig, BuildingEngine, Command, ReplanPolicy};
use vlc_channel::ChannelMatrix;
use vlc_geom::Pose;
use vlc_mac::controller::{Controller, ControllerConfig};
use vlc_par::{Ctx, Pool};
use vlc_telemetry::Registry;
use vlc_trace::Span;

/// 1×2 building; session 7 starts in cell 0 and walks into cell 1 where
/// session 9 already lives.
fn run(policy: ReplanPolicy) -> (BuildingEngine, Registry) {
    let mut cfg = BuildingConfig::paper(2, 1);
    cfg.policy = policy;
    cfg.record_timelines = true;
    let registry = Registry::new();
    let mut engine = BuildingEngine::new(&cfg, &registry);
    let pool = Pool::sequential();
    let commands: Vec<Vec<Command>> = vec![
        vec![
            Command::Arrive {
                session: 7,
                x: 2.5,
                y: 1.5,
            },
            Command::Arrive {
                session: 9,
                x: 4.0,
                y: 1.2,
            },
        ],
        vec![Command::Move {
            session: 7,
            x: 2.9,
            y: 1.5,
        }],
        // The handover tick: session 7 crosses the x = 3 m room boundary.
        vec![Command::Move {
            session: 7,
            x: 3.6,
            y: 1.4,
        }],
        vec![],
    ];
    for bucket in commands {
        for cmd in &bucket {
            engine.apply(cmd);
        }
        engine.control_tick(&pool, &Span::noop());
    }
    (engine, registry)
}

/// The destination cell's deployment after the handover, built from
/// scratch (the cold path): occupants in shard order, local poses.
fn destination_model(cfg: &BuildingConfig) -> SystemModel {
    let map = cfg.map();
    let poses: Vec<Pose> = [(4.0, 1.2), (3.6, 1.4)]
        .iter()
        .map(|&(x, y)| {
            let (lx, ly) = map.to_local(1, x, y);
            Pose::face_up(lx, ly, cfg.rx_height)
        })
        .collect();
    let channel = ChannelMatrix::compute(&cfg.grid, &poses, cfg.half_power_semi_angle, &cfg.optics);
    let mut model = SystemModel::paper(channel);
    model.noise = cfg.noise;
    model
}

#[test]
fn migrated_session_lands_in_the_destination_shard() {
    let (engine, registry) = run(ReplanPolicy::Heuristic);
    assert_eq!(engine.locate(7), Some(1));
    assert_eq!(engine.shard(0).sessions(), &[] as &[u64]);
    assert_eq!(engine.shard(1).sessions(), &[9, 7]);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("cell.handovers"), Some(1));
    // Source replanned to empty, destination replanned with the migrant.
    assert!(engine
        .shard(0)
        .timeline()
        .last()
        .unwrap()
        .sessions
        .is_empty());
}

#[test]
fn handover_timeline_matches_a_cold_resolve_in_the_destination() {
    let (engine, _registry) = run(ReplanPolicy::Heuristic);
    let cfg = BuildingConfig::paper(2, 1);
    let model = destination_model(&cfg);
    let controller = Controller::new(ControllerConfig::paper(cfg.budget_w), model.n_tx(), 2);
    let plan = controller.plan(&model.channel, None, &Registry::noop(), &Span::noop());
    let cold_bps = model.throughput(&plan.allocation);

    let last = engine.shard(1).timeline().last().expect("dest replanned");
    assert!(last.replanned);
    assert_eq!(last.sessions, vec![9, 7]);
    assert_eq!(
        last.bps, cold_bps,
        "handover plan differs from cold re-solve"
    );
    assert_eq!(
        engine.shard(1).allocation().expect("dest has a plan"),
        &plan.allocation,
        "handover allocation differs from cold re-solve"
    );
}

#[test]
fn optimal_policy_warm_starts_the_destination_solver() {
    let (engine, registry) = run(ReplanPolicy::Optimal(OptimalSolver::quick()));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("cell.handovers"), Some(1));
    // Exactly two seeded solves happen: cell 0's tick-1 in-room move
    // (continuity from its own previous plan) and cell 1's handover tick
    // (seeded by the imported column). The tick-0 cold solves and cell
    // 0's emptying on the handover tick contribute none — so == 2 pins
    // the handover solve itself as warm-started.
    let warm_starts = snap.counter("alloc.optimal.warm_starts").unwrap_or(0);
    assert_eq!(
        warm_starts, 2,
        "handover did not seed the destination solver"
    );

    // The warm solve explores the cold start set *plus* the carried seed,
    // with the max-reduction keeping the best — it can never land below
    // the cold objective.
    let cfg = BuildingConfig::paper(2, 1);
    let model = destination_model(&cfg);
    let cold = OptimalSolver::quick().solve(&model, cfg.budget_w, None, &Ctx::noop());
    let warm_alloc = engine.shard(1).allocation().expect("dest has a plan");
    let warm_objective = model.sum_log_throughput(warm_alloc);
    assert!(
        warm_objective >= cold.objective - 1e-9,
        "warm objective {warm_objective} below cold {}",
        cold.objective
    );
}
