//! `room_track`: the paper's adaptation round in the paper room.
//!
//! Scenario 2 (36 TX × 4 RX, 1.2 W). Receivers walk seeded waypoints and
//! two people walk through the room as blockers. The schedule mixes
//! moving stretches with blocker-only stretches (receivers still, so the
//! channel update only re-tests occlusion masks) and still stretches
//! (nothing moves, so the warm solver skips the replan). One op is one
//! round: incremental channel update → warm optimal solve → model
//! throughput, on one worker.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlc_alloc::{Allocation, OptimalSolver, SystemModel, WarmOptimal};
use vlc_channel::{ChannelMatrix, ChannelUpdater, CylinderBlocker};
use vlc_geom::Pose;
use vlc_par::{Jobs, Pool};
use vlc_telemetry::{MetricsSnapshot, Registry};
use vlc_testbed::{Deployment, Scenario};

use crate::harness::{time_setup, Counts, Ctx, Workload};
use crate::layers::LayerTimes;

/// Communication power budget, W.
const BUDGET_W: f64 = 1.2;
/// Rounds per pass.
const ROUNDS: usize = 1200;
/// Adaptation period, s (as in `Simulation`).
const ROUND_S: f64 = 0.2;
/// Every `SAMPLE_EVERY`-th round of the first pass is checked against a
/// cold channel computation.
const SAMPLE_EVERY: usize = 25;

/// What moves during a stretch of rounds.
#[derive(Clone, Copy, PartialEq)]
enum Stretch {
    All,
    BlockersOnly,
    Still,
}

/// The stretch cycle every walk repeats, so that the share of rounds that
/// solve, re-test masks or skip is the same for every seed.
const STRETCHES: [(Stretch, usize); 4] = [
    (Stretch::All, 40),
    (Stretch::BlockersOnly, 14),
    (Stretch::All, 40),
    (Stretch::Still, 10),
];

/// Receiver poses and blocker bodies of the walkers' current positions.
/// The testbed's receivers lie on the floor.
fn place(rxs: &[Walker], people: &[Walker]) -> (Vec<Pose>, Vec<CylinderBlocker>) {
    (
        rxs.iter().map(|w| Pose::face_up(w.x, w.y, 0.0)).collect(),
        people
            .iter()
            .map(|w| CylinderBlocker::person(w.x, w.y))
            .collect(),
    )
}

/// Share of the strongest link's gain that every receiver's best
/// unblocked link must reach: a receiver left with only a grazing link
/// has a throughput that rounds to zero.
const MIN_LINK_SHARE: f64 = 0.05;

/// Whether the optimal solver can serve every receiver in this state.
/// Its baseline start gives each receiver its best unblocked TX, and a
/// receiver whose best TX another one already took starts at zero
/// throughput, so no start has a finite objective and the solve panics.
/// Each receiver therefore needs a usable best TX of its own.
fn usable(d: &Deployment, rxs: &[Walker], people: &[Walker]) -> bool {
    let (poses, blockers) = place(rxs, people);
    let h = ChannelMatrix::compute_with_blockage(
        &d.grid,
        &poses,
        d.half_power_semi_angle,
        &d.optics,
        &blockers,
    );
    let best: Vec<usize> = (0..h.n_rx()).map(|rx| h.best_tx_for(rx)).collect();
    let strongest = h.iter().map(|(_, _, g)| g).fold(0.0, f64::max);
    best.iter().enumerate().all(|(rx, &tx)| {
        h.gain(tx, rx) > 0.0
            && h.gain(tx, rx) >= MIN_LINK_SHARE * strongest
            && !best[..rx].contains(&tx)
    })
}

/// A walker heading for seeded waypoints inside `[lo, hi]²`.
#[derive(Clone)]
struct Walker {
    x: f64,
    y: f64,
    target: (f64, f64),
    speed: f64,
}

impl Walker {
    fn new(rng: &mut StdRng, x: f64, y: f64, lo: f64, hi: f64) -> Self {
        Walker {
            x,
            y,
            target: (rng.gen_range(lo..hi), rng.gen_range(lo..hi)),
            speed: rng.gen_range(0.3..1.0),
        }
    }

    fn step(&mut self, rng: &mut StdRng, lo: f64, hi: f64) {
        let (dx, dy) = (self.target.0 - self.x, self.target.1 - self.y);
        let dist = (dx * dx + dy * dy).sqrt();
        let reach = self.speed * ROUND_S;
        if dist <= reach {
            (self.x, self.y) = self.target;
            self.target = (rng.gen_range(lo..hi), rng.gen_range(lo..hi));
            self.speed = rng.gen_range(0.3..1.0);
        } else {
            self.x += dx / dist * reach;
            self.y += dy / dist * reach;
        }
    }
}

/// Outputs of one round.
#[derive(Clone, PartialEq)]
struct Round {
    alloc: Allocation,
    bps: Vec<f64>,
}

/// Program state built by set-up.
struct Program {
    deployment: Deployment,
    updater: ChannelUpdater,
    warm: WarmOptimal,
    pool: Pool,
}

fn setup() -> Program {
    let deployment = Deployment::scenario(Scenario::Two);
    let updater = ChannelUpdater::new(
        &deployment.grid,
        deployment.half_power_semi_angle,
        &deployment.optics,
        0.0,
    );
    Program {
        deployment,
        updater,
        warm: WarmOptimal::new(),
        pool: Pool::new(Jobs::of(1)),
    }
}

/// The workload.
pub struct RoomTrack {
    receivers: Vec<Vec<Pose>>,
    blockers: Vec<Vec<CylinderBlocker>>,
    solver: OptimalSolver,
    program: Program,
    model: SystemModel,
    last: Option<Round>,
    first: Vec<Round>,
    current: Vec<Round>,
    samples: Vec<(usize, ChannelMatrix)>,
    passes: u64,
}

impl RoomTrack {
    /// Generates the inputs for `seed` and times the set-up.
    pub fn new(seed: u64) -> (Self, f64) {
        // Set-up first, on the fresh heap a program starts with: input
        // generation leaves the allocator in a seed-dependent state.
        let (setup_s, program) = time_setup(setup);
        let (receivers, blockers) = walk(seed);
        let model = program.deployment.model.clone();
        let w = RoomTrack {
            receivers,
            blockers,
            solver: OptimalSolver::quick(),
            program,
            model,
            last: None,
            first: Vec::new(),
            current: Vec::new(),
            samples: Vec::new(),
            passes: 0,
        };
        (w, setup_s)
    }
}

/// The seeded round schedule.
fn walk(seed: u64) -> (Vec<Vec<Pose>>, Vec<Vec<CylinderBlocker>>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0001_700d);
    let d = Deployment::scenario(Scenario::Two);
    let (rx_lo, rx_hi) = (0.2, 2.8);
    let (bl_lo, bl_hi) = (0.3, 2.7);
    let mut rxs: Vec<Walker> = Scenario::Two
        .rx_positions()
        .iter()
        .map(|&(x, y)| Walker::new(&mut rng, x, y, rx_lo, rx_hi))
        .collect();
    let mut people: Vec<Walker> = Vec::new();
    while people.is_empty() || !usable(&d, &rxs, &people) {
        people = (0..2)
            .map(|_| {
                let (x, y) = (rng.gen_range(bl_lo..bl_hi), rng.gen_range(bl_lo..bl_hi));
                Walker::new(&mut rng, x, y, bl_lo, bl_hi)
            })
            .collect();
    }
    let mut receivers = Vec::with_capacity(ROUNDS);
    let mut blockers = Vec::with_capacity(ROUNDS);
    let stretches = STRETCHES
        .iter()
        .cycle()
        .flat_map(|&(stretch, rounds)| std::iter::repeat_n(stretch, rounds));
    for stretch in stretches.take(ROUNDS) {
        // Every round must have a plan that serves every receiver (see
        // `usable`): a step that would break that is not taken, and that
        // walker turns elsewhere.
        let movers = match stretch {
            Stretch::All => 0..rxs.len() + people.len(),
            Stretch::BlockersOnly => rxs.len()..rxs.len() + people.len(),
            Stretch::Still => 0..0,
        };
        for k in movers {
            let (lo, hi) = if k < rxs.len() {
                (rx_lo, rx_hi)
            } else {
                (bl_lo, bl_hi)
            };
            let mut moved = rxs.iter().chain(&people).cloned().collect::<Vec<_>>();
            moved[k].step(&mut rng, lo, hi);
            let (r, p) = moved.split_at(rxs.len());
            if usable(&d, r, p) {
                (rxs, people) = (r.to_vec(), p.to_vec());
            } else {
                let w = if k < rxs.len() {
                    &mut rxs[k]
                } else {
                    &mut people[k - rxs.len()]
                };
                w.target = (w.x, w.y);
            }
        }
        let (poses, bodies) = place(&rxs, &people);
        receivers.push(poses);
        blockers.push(bodies);
    }
    (receivers, blockers)
}

impl Workload for RoomTrack {
    fn pass_len(&self) -> usize {
        self.receivers.len()
    }

    fn start_pass(&mut self, _registry: &Registry) {
        let d = &self.program.deployment;
        self.program.updater =
            ChannelUpdater::new(&d.grid, d.half_power_semi_angle, &d.optics, 0.0);
        self.program.warm = WarmOptimal::new();
        self.model = d.model.clone();
        self.current.clear();
    }

    fn op(&mut self, i: usize, ctx: &Ctx) {
        let p = &mut self.program;
        let update = p.updater.update_pooled(
            &self.receivers[i],
            &self.blockers[i],
            &p.pool,
            ctx.registry,
            ctx.span,
        );
        self.model.channel = update.matrix;
        let report = ctx.layer("alloc.optimal", || {
            p.warm.solve_traced_pooled(
                &self.solver,
                &self.model,
                BUDGET_W,
                ctx.registry,
                &p.pool,
                ctx.span,
            )
        });
        let bps = {
            let _model = ctx.span.child("alloc.model");
            self.model.throughput(&report.allocation)
        };
        self.last = Some(Round {
            alloc: report.allocation,
            bps,
        });
    }

    fn record(&mut self, i: usize) {
        if self.passes == 0 && i.is_multiple_of(SAMPLE_EVERY) {
            self.samples.push((i, self.model.channel.clone()));
        }
        self.current.push(self.last.take().expect("op ran"));
    }

    fn end_pass(&mut self) -> u64 {
        self.passes += 1;
        let mut failed = 0;
        for (i, round) in self.current.iter().enumerate() {
            let ok = self.model.is_feasible(&round.alloc, BUDGET_W)
                && round.bps.iter().all(|b| b.is_finite() && *b >= 0.0)
                && self.first.get(i).is_none_or(|f| f == round);
            failed += u64::from(!ok);
        }
        if self.first.is_empty() {
            self.first = std::mem::take(&mut self.current);
        }
        failed
    }

    fn final_checks(&mut self) -> u64 {
        let d = &self.program.deployment;
        let failed = self
            .samples
            .iter()
            .filter(|(i, matrix)| {
                let cold = ChannelMatrix::compute_with_blockage(
                    &d.grid,
                    &self.receivers[*i],
                    d.half_power_semi_angle,
                    &d.optics,
                    &self.blockers[*i],
                );
                cold != *matrix
            })
            .count() as u64;
        failed * self.passes
    }

    fn goodput_mbps(&self) -> f64 {
        let sum: f64 = self.first.iter().map(|r| r.bps.iter().sum::<f64>()).sum();
        sum / self.first.len().max(1) as f64 / 1e6
    }

    fn traced_pass_end(
        &mut self,
        snapshot: &MetricsSnapshot,
        _layers: &mut LayerTimes,
        counts: Option<&mut Counts>,
    ) {
        let Some(counts) = counts else { return };
        let c = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
        let rounds = self.pass_len() as f64;
        let cols = c("channel.cache.hit") + c("channel.cache.partial") + c("channel.cache.miss");
        counts.insert("alloc.optimal.iterations", c("alloc.optimal.iterations"));
        counts.insert(
            "alloc.optimal.skip_ratio",
            c("alloc.optimal.replan_hits") / rounds,
        );
        counts.insert("channel.update.hit_ratio", c("channel.cache.hit") / cols);
        counts.insert(
            "channel.update.partial_ratio",
            c("channel.cache.partial") / cols,
        );
    }

    fn input_digest(&self) -> u64 {
        let mut h = crate::Fnv::default();
        for (rx, bl) in self.receivers.iter().zip(&self.blockers) {
            for p in rx {
                h.f64(p.position.x);
                h.f64(p.position.y);
            }
            for b in bl {
                h.f64(b.center_xy.x);
                h.f64(b.center_xy.y);
            }
        }
        h.0
    }

    fn expected_dominant(&self) -> &'static str {
        "alloc.optimal"
    }
}
