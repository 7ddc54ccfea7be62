//! The N × M channel matrix between a TX grid and a set of receivers.

use crate::blockage::{any_blocks, CylinderBlocker};
use crate::fov::FovMask;
use crate::lambertian::{lambertian_order, los_gain_profiled, RxOptics, RxProfile};
use crate::soa::LANE;
use serde::{Deserialize, Serialize};
use vlc_geom::{Pose, TxGrid};
use vlc_par::Ctx;

/// Line-of-sight path gains `H[tx][rx]` for every TX/RX pair.
///
/// This is the matrix the paper calls `H` (Eq. 3, Eq. 13): the controller
/// measures it through pilot rounds and feeds it to the allocation
/// algorithms. Stored row-major with `n_tx` rows of `n_rx` entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelMatrix {
    n_tx: usize,
    n_rx: usize,
    gains: Vec<f64>,
}

impl ChannelMatrix {
    /// Builds the matrix from explicit gains (row-major, `n_tx × n_rx`).
    ///
    /// # Panics
    /// Panics if the slice length is not `n_tx · n_rx`, or any gain is
    /// negative or non-finite.
    pub fn from_gains(n_tx: usize, n_rx: usize, gains: Vec<f64>) -> Self {
        assert_eq!(gains.len(), n_tx * n_rx, "gain vector has the wrong shape");
        assert!(
            gains.iter().all(|g| g.is_finite() && *g >= 0.0),
            "channel gains must be finite and non-negative"
        );
        ChannelMatrix { n_tx, n_rx, gains }
    }

    /// Computes the LOS matrix for a TX grid and receiver poses, fanning
    /// the TX rows out over `DENSEVLC_JOBS` workers (sequential when that
    /// resolves to 1). The result is bitwise identical for any worker
    /// count — see [`Self::sound`].
    pub fn compute(
        grid: &TxGrid,
        receivers: &[Pose],
        half_power_semi_angle: f64,
        optics: &RxOptics,
    ) -> Self {
        Self::sound(
            grid,
            receivers,
            half_power_semi_angle,
            optics,
            &[],
            None,
            &Ctx::noop(),
        )
    }

    /// Computes the LOS matrix with cylindrical occluders: a blocked pair
    /// gets zero gain. Parallelism as in [`Self::compute`].
    pub fn compute_with_blockage(
        grid: &TxGrid,
        receivers: &[Pose],
        half_power_semi_angle: f64,
        optics: &RxOptics,
        blockers: &[CylinderBlocker],
    ) -> Self {
        Self::sound(
            grid,
            receivers,
            half_power_semi_angle,
            optics,
            blockers,
            None,
            &Ctx::noop(),
        )
    }

    /// Sounds the LOS matrix with cylindrical occluders and an optional
    /// precomputed [`FovMask`] on `ctx`'s pool, recording a `channel.sound`
    /// span under `ctx.span` with one `channel.sound.row` child per TX row.
    ///
    /// Each TX row of `H` is an independent work item, and rows are
    /// reassembled in TX order (the span children are indexed by TX), so
    /// matrix and span tree are identical for any worker count. Masked-out
    /// links get an exact zero without evaluating the Lambertian kernel or
    /// the blockage test; because the mask only culls links whose LOS gain
    /// is exactly zero, the result is bitwise identical to `mask: None`.
    pub fn sound(
        grid: &TxGrid,
        receivers: &[Pose],
        half_power_semi_angle: f64,
        optics: &RxOptics,
        blockers: &[CylinderBlocker],
        mask: Option<&FovMask>,
        ctx: &Ctx,
    ) -> Self {
        let m = lambertian_order(half_power_semi_angle);
        let n_tx = grid.len();
        let n_rx = receivers.len();
        if let Some(mask) = mask {
            assert_eq!(mask.n_tx(), n_tx, "mask/grid TX count mismatch");
            assert_eq!(mask.n_rx(), n_rx, "mask/receiver count mismatch");
        }
        let profile = optics.profile();
        let sound = ctx.span.child("channel.sound");
        sound.attr("n_tx", &n_tx.to_string());
        sound.attr("n_rx", &n_rx.to_string());
        let rows = ctx.on_pool(|pool| {
            pool.map_indexed(n_tx, |t| {
                let _row = sound.child_indexed("channel.sound.row", t);
                let tx = grid.pose(t);
                let mut out = vec![0.0f64; n_rx];
                los_row_into(&tx, t, receivers, blockers, mask, m, &profile, &mut out);
                out
            })
        });
        let mut gains = Vec::with_capacity(n_tx * n_rx);
        for row in rows {
            gains.extend(row);
        }
        ChannelMatrix { n_tx, n_rx, gains }
    }

    /// Number of transmitters (rows).
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Number of receivers (columns).
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// Gain from TX `tx` to RX `rx`.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[inline]
    pub fn gain(&self, tx: usize, rx: usize) -> f64 {
        assert!(
            tx < self.n_tx && rx < self.n_rx,
            "index ({tx},{rx}) out of range"
        );
        self.gains[tx * self.n_rx + rx]
    }

    /// All gains from one TX (one row), length `n_rx`.
    pub fn tx_row(&self, tx: usize) -> &[f64] {
        assert!(tx < self.n_tx);
        &self.gains[tx * self.n_rx..(tx + 1) * self.n_rx]
    }

    /// Iterator over `(tx, rx, gain)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n_tx).flat_map(move |t| (0..self.n_rx).map(move |r| (t, r, self.gain(t, r))))
    }

    /// The TX index with the strongest gain toward RX `rx`.
    pub fn best_tx_for(&self, rx: usize) -> usize {
        (0..self.n_tx)
            .max_by(|&a, &b| {
                self.gain(a, rx)
                    .partial_cmp(&self.gain(b, rx))
                    .expect("gains are finite")
            })
            .expect("matrix has at least one TX")
    }

    /// Applies measurement noise / quantization by mapping each gain through
    /// `f` (used to emulate reported channel measurements).
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> ChannelMatrix {
        ChannelMatrix {
            n_tx: self.n_tx,
            n_rx: self.n_rx,
            gains: self.gains.iter().map(|&g| f(g).max(0.0)).collect(),
        }
    }
}

/// Fills one TX row of `H` through the fused profiled kernel, processing
/// receivers in fixed [`LANE`]-wide batches with a scalar tail. Each output
/// element is an independent store — there is no cross-element accumulation
/// to reassociate — so the row is bitwise identical to the historical
/// per-link path (pinned by `tests/soa_identity.rs`).
#[allow(clippy::too_many_arguments)]
fn los_row_into(
    tx: &Pose,
    t: usize,
    receivers: &[Pose],
    blockers: &[CylinderBlocker],
    mask: Option<&FovMask>,
    m: f64,
    profile: &RxProfile,
    out: &mut [f64],
) {
    let link = |r: usize, rx: &Pose| -> f64 {
        if let Some(mask) = mask {
            if !mask.is_live(t, r) {
                return 0.0;
            }
        }
        if any_blocks(blockers, tx.position, rx.position) {
            0.0
        } else {
            los_gain_profiled(tx, rx, m, profile)
        }
    };
    let n = receivers.len();
    let tail = n - n % LANE;
    for base in (0..tail).step_by(LANE) {
        for l in 0..LANE {
            let r = base + l;
            out[r] = link(r, &receivers[r]);
        }
    }
    for r in tail..n {
        out[r] = link(r, &receivers[r]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_geom::Room;

    fn paper_setup() -> (TxGrid, Vec<Pose>) {
        let room = Room::paper_simulation();
        let grid = TxGrid::paper(&room);
        let rxs = vec![
            Pose::face_up(0.92, 0.92, 0.8),
            Pose::face_up(1.65, 0.65, 0.8),
            Pose::face_up(0.72, 1.93, 0.8),
            Pose::face_up(1.99, 1.69, 0.8),
        ];
        (grid, rxs)
    }

    #[test]
    fn matrix_shape_matches_deployment() {
        let (grid, rxs) = paper_setup();
        let h = ChannelMatrix::compute(&grid, &rxs, 15f64.to_radians(), &RxOptics::paper());
        assert_eq!(h.n_tx(), 36);
        assert_eq!(h.n_rx(), 4);
        assert_eq!(h.iter().count(), 144);
    }

    #[test]
    fn best_tx_is_geometrically_nearest() {
        let (grid, rxs) = paper_setup();
        let h = ChannelMatrix::compute(&grid, &rxs, 15f64.to_radians(), &RxOptics::paper());
        for (i, rx) in rxs.iter().enumerate() {
            let best = h.best_tx_for(i);
            let nearest = grid.nearest(rx.position);
            assert_eq!(best, nearest, "RX{}", i + 1);
        }
    }

    #[test]
    fn narrow_beams_make_far_links_zero() {
        // With a 15° half-power lens and 2 m drop, a TX ~2.5 m away laterally is
        // far outside the beam: its cos^20(φ) is numerically negligible.
        let (grid, rxs) = paper_setup();
        let h = ChannelMatrix::compute(&grid, &rxs, 15f64.to_radians(), &RxOptics::paper());
        let far_gain = h.gain(35, 2); // TX36 (corner) vs RX3 (opposite side)
        let near_gain = h.gain(h.best_tx_for(2), 2);
        assert!(far_gain < near_gain * 1e-3);
    }

    #[test]
    fn blockage_zeroes_only_the_occluded_links() {
        let (grid, rxs) = paper_setup();
        let optics = RxOptics::paper();
        let clear = ChannelMatrix::compute(&grid, &rxs, 15f64.to_radians(), &optics);
        // A person standing right next to RX1 blocks its overhead TXs.
        let blockers = [CylinderBlocker::person(0.92, 0.92)];
        let blocked = ChannelMatrix::compute_with_blockage(
            &grid,
            &rxs,
            15f64.to_radians(),
            &optics,
            &blockers,
        );
        let best_rx1 = clear.best_tx_for(0);
        assert!(clear.gain(best_rx1, 0) > 0.0);
        assert_eq!(blocked.gain(best_rx1, 0), 0.0);
        // A link on the other side of the room is untouched.
        let best_rx4 = clear.best_tx_for(3);
        assert_eq!(blocked.gain(best_rx4, 3), clear.gain(best_rx4, 3));
    }

    #[test]
    fn from_gains_validates_shape_and_values() {
        let m = ChannelMatrix::from_gains(2, 2, vec![1e-6, 0.0, 2e-6, 3e-6]);
        assert_eq!(m.gain(1, 0), 2e-6);
        assert_eq!(m.tx_row(1), &[2e-6, 3e-6]);
    }

    #[test]
    #[should_panic(expected = "wrong shape")]
    fn from_gains_rejects_bad_shape() {
        ChannelMatrix::from_gains(2, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_gains_rejects_negative() {
        ChannelMatrix::from_gains(1, 1, vec![-1.0]);
    }

    #[test]
    fn masked_compute_is_bitwise_identical_to_dense() {
        let (grid, rxs) = paper_setup();
        let optics = RxOptics {
            fov_half_angle: 30f64.to_radians(),
            ..RxOptics::paper()
        };
        let blockers = [CylinderBlocker::person(0.92, 0.92)];
        let hpsa = 15f64.to_radians();
        let mask = FovMask::compute(&grid, &rxs, &optics.profile());
        assert!(mask.culled_count() > 0, "30° FOV should cull corner links");
        let ctx = Ctx::noop();
        let dense = ChannelMatrix::sound(&grid, &rxs, hpsa, &optics, &blockers, None, &ctx);
        let masked = ChannelMatrix::sound(&grid, &rxs, hpsa, &optics, &blockers, Some(&mask), &ctx);
        for (t, r, g) in dense.iter() {
            assert_eq!(g.to_bits(), masked.gain(t, r).to_bits(), "({t},{r})");
        }
    }

    #[test]
    fn map_clamps_negative_results() {
        let m = ChannelMatrix::from_gains(1, 2, vec![1e-6, 5e-7]);
        let noisy = m.map(|g| g - 8e-7);
        assert_eq!(noisy.gain(0, 1), 0.0);
        assert!((noisy.gain(0, 0) - 2e-7).abs() < 1e-18);
    }
}
