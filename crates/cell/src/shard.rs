//! One cell shard: a room's channel, last plan, and MAC state.
//!
//! A [`CellShard`] owns everything needed to replan its room in
//! isolation: the session roster (ids + local poses), the incremental
//! [`ChannelUpdater`], the controller, the last allocation (reused while
//! the channel stays bitwise unchanged), and — under the optimal policy —
//! the warm-start seed carried from the previous plan (and, on handover,
//! from the source cell's allocation). Replans run on the shard's own
//! *sequential* inner pool: the coordinator parallelises **across**
//! shards, never inside one, so the per-shard computation is the exact
//! `jobs = 1` code path regardless of `DENSEVLC_JOBS`.
//!
//! A shard never allocates on a tick that doesn't touch it; all state
//! below persists across ticks and is reused in place.

use crate::ReplanPolicy;
use vlc_alloc::model::{Allocation, SystemModel};
use vlc_alloc::OptimalSolver;
use vlc_channel::incremental::ChannelUpdater;
use vlc_channel::{ChannelMatrix, NoiseParams, RxOptics};
use vlc_geom::{Pose, TxGrid};
use vlc_mac::controller::{Controller, ControllerConfig};
use vlc_par::{Ctx, Pool};
use vlc_telemetry::Registry;
use vlc_trace::Span;

/// A session identifier (unique across the building).
pub type SessionId = u64;

/// One entry of a shard's replan timeline (recorded only when
/// [`crate::BuildingConfig::record_timelines`] is set — identity tests
/// compare these bitwise).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTick {
    /// Control tick the replan ran on.
    pub tick: u64,
    /// `false` when the last plan answered (channel bitwise unchanged).
    pub replanned: bool,
    /// Session roster at replan time, in shard order.
    pub sessions: Vec<SessionId>,
    /// Per-session throughput under the plan, bit/s, in shard order.
    pub bps: Vec<f64>,
}

/// What one shard replan produced, for the coordinator's bookkeeping.
/// `old_bps`/`new_bps` let the coordinator maintain the building
/// throughput by delta in deterministic (cell-index) order.
#[derive(Debug, Clone, Copy)]
pub struct ReplanOutcome {
    /// `false` when the last plan answered without recomputing.
    pub replanned: bool,
    /// Shard throughput before the replan, bit/s.
    pub old_bps: f64,
    /// Shard throughput after the replan, bit/s.
    pub new_bps: f64,
}

/// One room's sessions, channel state, and planner.
#[derive(Debug, Clone)]
pub struct CellShard {
    cell: usize,
    budget_w: f64,
    policy: ReplanPolicy,
    record_timeline: bool,
    sessions: Vec<SessionId>,
    poses: Vec<Pose>,
    updater: ChannelUpdater,
    controller: Option<Controller>,
    /// Occupancy the controller was built for (it is shape-bound).
    controller_rx: usize,
    model: SystemModel,
    /// Warm seed for the optimal policy: the previous allocation with
    /// columns remapped as sessions arrive/leave/hand over.
    warm: Option<Allocation>,
    /// The most recent allocation (either policy) — the handover export.
    last_alloc: Option<Allocation>,
    /// Per-session throughput of the current plan, shard order.
    bps: Vec<f64>,
    sum_bps: f64,
    timeline: Vec<ShardTick>,
    /// Sequential inner pool: across-shard parallelism only.
    inner: Pool,
    pub(crate) dirty: bool,
}

impl CellShard {
    /// A shard for `cell` with an empty roster.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn new(
        cell: usize,
        grid: &TxGrid,
        half_power_semi_angle: f64,
        optics: &RxOptics,
        noise: NoiseParams,
        budget_w: f64,
        policy: ReplanPolicy,
        record_timeline: bool,
    ) -> Self {
        let mut model = SystemModel::paper(ChannelMatrix::from_gains(grid.len(), 0, Vec::new()));
        model.noise = noise;
        CellShard {
            cell,
            budget_w,
            policy,
            record_timeline,
            sessions: Vec::new(),
            poses: Vec::new(),
            updater: ChannelUpdater::new(grid, half_power_semi_angle, optics, 0.0),
            controller: None,
            controller_rx: 0,
            model,
            warm: None,
            last_alloc: None,
            bps: Vec::new(),
            sum_bps: 0.0,
            timeline: Vec::new(),
            inner: Pool::sequential(),
            dirty: false,
        }
    }

    /// The cell index this shard owns.
    pub fn cell(&self) -> usize {
        self.cell
    }

    /// Sessions currently in the cell, shard order.
    pub fn sessions(&self) -> &[SessionId] {
        &self.sessions
    }

    /// Local poses, parallel to [`Self::sessions`].
    pub fn poses(&self) -> &[Pose] {
        &self.poses
    }

    /// Per-session throughput of the current plan, shard order.
    pub fn bps(&self) -> &[f64] {
        &self.bps
    }

    /// Shard throughput under the current plan, bit/s.
    pub fn sum_bps(&self) -> f64 {
        self.sum_bps
    }

    /// The recorded replan timeline (empty unless recording is on).
    pub fn timeline(&self) -> &[ShardTick] {
        &self.timeline
    }

    /// The current allocation, if the shard has ever planned.
    pub fn allocation(&self) -> Option<&Allocation> {
        self.last_alloc.as_ref()
    }

    fn index_of(&self, id: SessionId) -> Option<usize> {
        self.sessions.iter().position(|&s| s == id)
    }

    /// Adds a session with no warm-start column.
    pub(crate) fn arrive(&mut self, id: SessionId, pose: Pose) {
        self.import(id, pose, None);
    }

    /// Adds a session, optionally seeding its warm-start column with the
    /// allocation it carried over from the source cell of a handover.
    pub(crate) fn import(&mut self, id: SessionId, pose: Pose, carried: Option<Vec<f64>>) {
        debug_assert!(self.index_of(id).is_none(), "session {id} already here");
        self.sessions.push(id);
        self.poses.push(pose);
        let col = carried.unwrap_or_default();
        if let Some(w) = self.warm.take() {
            self.warm = Some(insert_column(&w, &col));
        } else if matches!(self.policy, ReplanPolicy::Optimal(_)) && !col.is_empty() {
            // First import into an unplanned cell: the carried column alone
            // is still a better seed than nothing.
            let mut w = Allocation::zeros(self.model.n_tx(), self.sessions.len());
            copy_column(&mut w, self.sessions.len() - 1, &col);
            self.warm = Some(w);
        }
        if let Some(a) = self.last_alloc.take() {
            self.last_alloc = Some(insert_column(&a, &col));
        }
    }

    /// Removes a session; returns its current allocation column (the
    /// handover payload) if the shard has a plan.
    pub(crate) fn depart(&mut self, id: SessionId) -> Option<Vec<f64>> {
        let idx = self.index_of(id).expect("departing session not in shard");
        let column = self
            .last_alloc
            .as_ref()
            .map(|a| (0..a.n_tx()).map(|tx| a.swing(tx, idx)).collect());
        self.sessions.remove(idx);
        self.poses.remove(idx);
        if let Some(w) = self.warm.take() {
            self.warm = (!self.sessions.is_empty()).then(|| remove_column(&w, idx));
        }
        if let Some(a) = self.last_alloc.take() {
            self.last_alloc = (!self.sessions.is_empty()).then(|| remove_column(&a, idx));
        }
        column
    }

    /// Moves a session within the room.
    pub(crate) fn move_to(&mut self, id: SessionId, pose: Pose) {
        let idx = self.index_of(id).expect("moving session not in shard");
        self.poses[idx] = pose;
    }

    /// Recomputes the room's channel and plan. Called by the coordinator
    /// only when the shard is dirty; runs entirely on the shard's
    /// sequential inner pool.
    pub(crate) fn replan(
        &mut self,
        tick: u64,
        telemetry: &Registry,
        parent: &Span,
    ) -> ReplanOutcome {
        self.dirty = false;
        let old_bps = self.sum_bps;
        if self.sessions.is_empty() {
            self.bps.clear();
            self.sum_bps = 0.0;
            self.controller = None;
            self.warm = None;
            self.last_alloc = None;
            if self.record_timeline {
                self.timeline.push(ShardTick {
                    tick,
                    replanned: true,
                    sessions: Vec::new(),
                    bps: Vec::new(),
                });
            }
            return ReplanOutcome {
                replanned: true,
                old_bps,
                new_bps: 0.0,
            };
        }

        let update = self
            .updater
            .update_pooled(&self.poses, &[], &self.inner, telemetry, parent);
        let changed = update.matrix != self.model.channel;
        self.model.channel = update.matrix;
        // An identical channel means the previous plan is still the answer
        // (planning is a pure function of the channel) — the plan-hit
        // path of the control plane.
        let hit = !changed && self.last_alloc.is_some();
        if !hit {
            let allocation = match &self.policy {
                ReplanPolicy::Heuristic => {
                    self.ensure_controller();
                    let controller = self.controller.as_ref().expect("just ensured");
                    controller
                        .plan(&self.model.channel, None, telemetry, parent)
                        .allocation
                }
                ReplanPolicy::Optimal(solver) => self.solve_optimal(solver, telemetry, parent),
            };
            self.bps = self.model.throughput(&allocation);
            self.sum_bps = self.bps.iter().sum();
            if matches!(self.policy, ReplanPolicy::Optimal(_)) {
                self.warm = Some(allocation.clone());
            }
            self.last_alloc = Some(allocation);
        }
        if self.record_timeline {
            self.timeline.push(ShardTick {
                tick,
                replanned: !hit,
                sessions: self.sessions.clone(),
                bps: self.bps.clone(),
            });
        }
        ReplanOutcome {
            replanned: !hit,
            old_bps,
            new_bps: self.sum_bps,
        }
    }

    fn solve_optimal(
        &self,
        solver: &OptimalSolver,
        telemetry: &Registry,
        parent: &Span,
    ) -> Allocation {
        let warm = self
            .warm
            .as_ref()
            .filter(|w| w.n_rx() == self.sessions.len());
        let ctx = Ctx::new(telemetry, parent).with_pool(&self.inner);
        solver
            .solve(&self.model, self.budget_w, warm, &ctx)
            .allocation
    }

    fn ensure_controller(&mut self) {
        let n_rx = self.sessions.len();
        if self.controller.is_none() || self.controller_rx != n_rx {
            self.controller = Some(Controller::new(
                ControllerConfig::paper(self.budget_w),
                self.model.n_tx(),
                n_rx,
            ));
            self.controller_rx = n_rx;
        }
    }
}

/// `alloc` with one fresh rightmost RX column holding `col` (zeros when
/// `col` is empty — an arrival with nothing to carry).
fn insert_column(alloc: &Allocation, col: &[f64]) -> Allocation {
    let (n_tx, n_rx) = (alloc.n_tx(), alloc.n_rx() + 1);
    let mut out = Allocation::zeros(n_tx, n_rx);
    for tx in 0..n_tx {
        for rx in 0..n_rx - 1 {
            out.set_swing(tx, rx, alloc.swing(tx, rx));
        }
    }
    copy_column(&mut out, n_rx - 1, col);
    out
}

/// `alloc` with RX column `idx` removed (later columns shift left,
/// mirroring `Vec::remove` on the session roster).
fn remove_column(alloc: &Allocation, idx: usize) -> Allocation {
    let (n_tx, n_rx) = (alloc.n_tx(), alloc.n_rx() - 1);
    let mut out = Allocation::zeros(n_tx, n_rx);
    for tx in 0..n_tx {
        for rx in 0..n_rx {
            let src = if rx < idx { rx } else { rx + 1 };
            out.set_swing(tx, rx, alloc.swing(tx, src));
        }
    }
    out
}

fn copy_column(alloc: &mut Allocation, rx: usize, col: &[f64]) {
    for (tx, &v) in col.iter().enumerate().take(alloc.n_tx()) {
        alloc.set_swing(tx, rx, v);
    }
}
