//! `building_churn`: control ticks of the sharded building engine.
//!
//! A seeded `load_gen`-style schedule (arrivals, moves, departures and
//! cross-room handovers) over 10 × 10 paper rooms, driven through
//! `BuildingEngine` with the heuristic policy on a live registry and a
//! pool of at most two workers. Sized so that a minority of the shards is
//! dirty in a typical tick. One op is one tick: `apply` for the tick's
//! commands, then `control_tick`.

use std::collections::HashSet;

use vlc_cell::{BuildingConfig, BuildingEngine, Command, LoadGenConfig, Schedule, TickReport};
use vlc_par::{Jobs, Pool};
use vlc_telemetry::{MetricsSnapshot, Registry};

use crate::harness::{time_setup, Counts, Ctx, PassMode, Workload};
use crate::layers::LayerTimes;

const COLS: usize = 10;
const ROWS: usize = 10;
const TICKS: u64 = 1500;
const EVENTS: u64 = 62_000;
/// Relative tolerance between the engine's running throughput total and
/// a fresh sum over the shards.
const SUM_TOLERANCE: f64 = 1e-9;

/// Pool width: two workers, or fewer on a smaller host.
fn workers() -> usize {
    vlc_par::available_parallelism().min(2)
}

/// The workload.
pub struct BuildingChurn {
    schedule: Schedule,
    /// Live sessions the schedule implies after each tick.
    expected_sessions: Vec<u64>,
    config: BuildingConfig,
    engine: BuildingEngine,
    pool: Pool,
    last: Option<TickReport>,
    first: Vec<TickReport>,
    current: Vec<TickReport>,
}

impl BuildingChurn {
    /// Generates the inputs for `seed` and times the set-up.
    pub fn new(seed: u64) -> (Self, f64) {
        // Set-up first, as in room_track.
        let registry = Registry::new();
        let (setup_s, (config, engine, pool)) = time_setup(|| {
            let config = BuildingConfig::paper(COLS, ROWS);
            let engine = BuildingEngine::new(&config, &registry);
            let pool = Pool::new(Jobs::of(workers())).with_telemetry(&registry);
            (config, engine, pool)
        });
        let schedule = LoadGenConfig {
            cols: COLS,
            rows: ROWS,
            ticks: TICKS,
            target_events: EVENTS,
            seed,
            mean_lifetime_ticks: 400,
            move_period_ticks: 10,
            step_m: 1.0,
        }
        .schedule();
        let mut live = HashSet::new();
        let expected_sessions = schedule
            .per_tick
            .iter()
            .map(|cmds| {
                for cmd in cmds {
                    match *cmd {
                        Command::Arrive { session, .. } => {
                            live.insert(session);
                        }
                        Command::Leave { session } => {
                            live.remove(&session);
                        }
                        Command::Move { .. } => {}
                    }
                }
                live.len() as u64
            })
            .collect();
        let w = BuildingChurn {
            schedule,
            expected_sessions,
            config,
            engine,
            pool,
            last: None,
            first: Vec::new(),
            current: Vec::new(),
        };
        (w, setup_s)
    }
}

impl Workload for BuildingChurn {
    fn pass_len(&self) -> usize {
        self.schedule.per_tick.len()
    }

    fn threads(&self) -> usize {
        workers()
    }

    fn plain_mode(&self) -> PassMode {
        PassMode::Live
    }

    fn start_pass(&mut self, registry: &Registry) {
        self.engine = BuildingEngine::new(&self.config, registry);
        self.pool = Pool::new(Jobs::of(workers())).with_telemetry(registry);
        self.current.clear();
    }

    fn op(&mut self, i: usize, ctx: &Ctx) {
        {
            let _apply = ctx.span.child("cell.apply");
            for cmd in &self.schedule.per_tick[i] {
                self.engine.apply(cmd);
            }
        }
        let report = ctx.layer("cell.tick", || {
            self.engine.control_tick(&self.pool, ctx.span)
        });
        self.last = Some(report);
    }

    fn record(&mut self, _i: usize) {
        self.current.push(self.last.take().expect("op ran"));
    }

    fn end_pass(&mut self) -> u64 {
        let mut failed = 0;
        for (i, r) in self.current.iter().enumerate() {
            let ok = r.replans + r.plan_hits == r.dirty_shards
                && r.system_bps.is_finite()
                && r.system_bps >= 0.0
                && r.sessions == self.expected_sessions[i]
                && self.first.get(i).is_none_or(|f| f == r);
            failed += u64::from(!ok);
        }
        let shards: f64 = (0..self.engine.map().cells())
            .map(|c| self.engine.shard(c).sum_bps())
            .sum();
        let total = self.engine.system_bps();
        if (total - shards).abs() > SUM_TOLERANCE * shards.abs().max(1.0) {
            failed += 1;
        }
        if self.first.is_empty() {
            self.first = std::mem::take(&mut self.current);
        }
        failed
    }

    fn final_checks(&mut self) -> u64 {
        0
    }

    fn goodput_mbps(&self) -> f64 {
        let sum: f64 = self.first.iter().map(|r| r.system_bps).sum();
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
        let sum = |name: &str| snapshot.histogram(name).map_or(0.0, |h| h.sum);
        let ticks = self.pass_len() as f64;
        let cells = self.engine.map().cells() as f64;
        let dirty = c("cell.dirty_shards");
        let cols = c("channel.cache.hit") + c("channel.cache.partial") + c("channel.cache.miss");
        counts.insert("cell.dirty_frac", dirty / (ticks * cells));
        counts.insert("cell.plan_hit_ratio", c("cell.plan.hits") / dirty);
        counts.insert("cell.handovers", c("cell.handovers"));
        counts.insert("channel.update.hit_ratio", c("channel.cache.hit") / cols);
        counts.insert(
            "channel.update.partial_ratio",
            c("channel.cache.partial") / cols,
        );
        counts.insert("par.spawns", c("par.spawns"));
        counts.insert("par.map_calls", c("par.map_calls"));
        counts.insert(
            "par.utilization",
            sum("par.worker.busy_s") / (sum("cell.tick_s") * workers() as f64),
        );
    }

    fn input_digest(&self) -> u64 {
        let mut h = crate::Fnv::default();
        for cmds in &self.schedule.per_tick {
            for cmd in cmds {
                match *cmd {
                    Command::Arrive { session, x, y } | Command::Move { session, x, y } => {
                        h.u64(session);
                        h.f64(x);
                        h.f64(y);
                    }
                    Command::Leave { session } => h.u64(session),
                }
            }
        }
        h.0
    }

    fn expected_dominant(&self) -> &'static str {
        "cell.replan"
    }

    fn nested_layers(&self) -> &'static [(&'static str, &'static str)] {
        // A shard replan runs the shard's channel update and MAC planning.
        &[
            ("channel.update", "cell.replan"),
            ("mac.plan", "cell.replan"),
            ("mac.rank", "cell.replan"),
            ("mac.allocate", "cell.replan"),
        ]
    }
}
