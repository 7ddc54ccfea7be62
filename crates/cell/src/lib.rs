//! Building-scale sharded multi-cell engine for the DenseVLC
//! reproduction.
//!
//! The paper stops at one 3×3 m room; this crate generalises the control
//! plane to a building of 100–400 such rooms, each an independently
//! sharded cell (ROADMAP item 1):
//!
//! * [`building`] — the room grid and the global↔local coordinate
//!   mapping that places sessions into cells.
//! * [`shard`] — one cell's sessions, incremental channel, last plan,
//!   and warm-start state.
//! * [`engine`] — the coordinator: event-driven session placement,
//!   beamspot handover across room boundaries, and batched dirty-shard
//!   replans over one `vlc-par` pool per control tick.
//! * [`obs`] — the `densevlc-obs/1` NDJSON service-loop exporter
//!   (building-level rolling windows, summary).
//! * [`loadgen`] — a deterministic synthetic-session schedule generator
//!   and driver; `load_gen` is its CLI.
//!
//! Determinism contract: everything observable — per-shard timelines,
//! the obs stream, tick reports — is a pure function of the command
//! stream and seeds, bitwise identical at any `DENSEVLC_JOBS`. Worker
//! threads only ever race over *disjoint* shards, reductions run in cell
//! order on the calling thread, and all randomness is per-cell seeded
//! via [`vlc_par::cell_seed`] (the `codec_campaign` pattern).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod building;
pub mod engine;
pub mod loadgen;
pub mod obs;
pub mod shard;

pub use building::BuildingMap;
pub use engine::{BuildingEngine, Command, TickReport};
pub use loadgen::{drive, DriveReport, LoadGenConfig, Schedule};
pub use obs::{BuildingObs, BuildingObsConfig};
pub use shard::{CellShard, SessionId, ShardTick};

use vlc_alloc::OptimalSolver;
use vlc_channel::{NoiseParams, RxOptics};
use vlc_geom::{Room, TxGrid};

/// Which planner a shard runs on replan.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplanPolicy {
    /// The paper's SJR ranking heuristic through the MAC controller's
    /// uncached [`vlc_mac::Controller::plan`] — a pure function of the
    /// channel, so handover needs no seed, and the shard's bitwise
    /// unchanged-channel check already reuses the last plan.
    Heuristic,
    /// The projected-gradient optimal solver, warm-started from the
    /// shard's previous allocation (and from the carried column on
    /// handover).
    Optimal(OptimalSolver),
}

/// Static configuration of a building: geometry, radio parameters,
/// planner policy.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildingConfig {
    /// Per-room geometry.
    pub room: Room,
    /// Rooms along X.
    pub cols: usize,
    /// Rooms along Y.
    pub rows: usize,
    /// The ceiling grid every room carries (in local room coordinates).
    pub grid: TxGrid,
    /// Receiver optics.
    pub optics: RxOptics,
    /// LED half-power semi-angle, radians.
    pub half_power_semi_angle: f64,
    /// Receiver noise (testbed calibration by default).
    pub noise: NoiseParams,
    /// Receiver height above the floor, metres.
    pub rx_height: f64,
    /// Per-room communication power budget, watts.
    pub budget_w: f64,
    /// Replan policy.
    pub policy: ReplanPolicy,
    /// Record per-shard replan timelines (identity tests; off for load
    /// generation, where they would grow without bound).
    pub record_timelines: bool,
}

impl BuildingConfig {
    /// A building of `cols × rows` paper testbed rooms (3×3×2 m, 36 TX)
    /// with the §8 calibrated noise, floor-level receivers, a 1.2 W
    /// per-room budget, and the heuristic planner.
    pub fn paper(cols: usize, rows: usize) -> Self {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        BuildingConfig {
            room,
            cols,
            rows,
            grid,
            optics: RxOptics::paper(),
            half_power_semi_angle: 15f64.to_radians(),
            noise: NoiseParams {
                n0_a2_per_hz: 0.4 * 7.02e-23,
                bandwidth_hz: 1e6,
            },
            rx_height: 0.0,
            budget_w: 1.2,
            policy: ReplanPolicy::Heuristic,
            record_timelines: false,
        }
    }

    /// The building layout this configuration describes.
    pub fn map(&self) -> BuildingMap {
        BuildingMap::new(self.room, self.cols, self.rows)
    }
}
