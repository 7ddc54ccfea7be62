//! End-to-end and per-layer benchmark of the DenseVLC reproduction.
//!
//! Four closed-loop workloads, each calling only the public API of the
//! workspace crates: `room_track` (one adaptation round), `phy_link` (one
//! PHY frame), `fec_burst` (one FEC encode and decode) and
//! `building_churn` (one building control tick). See `README.md` for the
//! metrics, why each workload exists, and how to run it.

mod building_churn;
mod fec_burst;
mod harness;
mod host;
mod layers;
mod phy_link;
mod room_track;

pub use harness::{Metric, Outcome, SPIN_FACTOR};
pub use layers::PER_LAYER;

use harness::Workload;

/// Workload names, with the layer call `--spin` may stretch in each.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("room_track", "alloc.optimal"),
    ("phy_link", "e2e.pipeline"),
    ("fec_burst", "phy.codec.decode"),
    ("building_churn", "cell.tick"),
];

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (see [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Print per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Layer call to stretch by [`SPIN_FACTOR`] (the sensitivity check).
    pub spin: Option<String>,
}

/// Generates `workload`'s inputs from `seed` and sets the program up;
/// returns the workload and its set-up time.
fn build(workload: &str, seed: u64) -> Result<(Box<dyn Workload>, f64), String> {
    fn boxed<W: Workload + 'static>((w, setup_s): (W, f64)) -> (Box<dyn Workload>, f64) {
        (Box::new(w), setup_s)
    }
    Ok(match workload {
        "room_track" => boxed(room_track::RoomTrack::new(seed)),
        "phy_link" => boxed(phy_link::PhyLink::new(seed)),
        "fec_burst" => boxed(fec_burst::FecBurst::new(seed)),
        "building_churn" => boxed(building_churn::BuildingChurn::new(seed)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// A digest of the inputs `workload` generates from `seed`.
pub fn input_digest(workload: &str, seed: u64) -> Result<u64, String> {
    build(workload, seed).map(|(w, _)| w.input_digest())
}

/// Generates the inputs, sets the program up and runs the timed passes.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    if let Some(spin) = &cfg.spin {
        if !WORKLOADS.iter().any(|(_, layer)| layer == spin) {
            return Err(format!("--spin {spin:?} names no spinnable layer"));
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let (mut w, setup_s) = build(&cfg.workload, cfg.seed)?;
    let spin = cfg.spin.as_deref();
    Ok(if cfg.trace {
        harness::run_traced(w.as_mut(), cfg.seconds, spin)
    } else {
        harness::run_e2e(w.as_mut(), setup_s, cfg.seconds, spin)
    })
}

/// FNV-1a over the generated inputs, for the seed tests.
#[derive(Debug)]
pub(crate) struct Fnv(pub(crate) u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}
