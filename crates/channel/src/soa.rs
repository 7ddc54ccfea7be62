//! Structure-of-arrays views of the channel for the hot kernels.
//!
//! [`crate::ChannelMatrix`] stores gains row-major by **TX**, which is the
//! natural layout for sounding (one row per emitter) but the wrong one for
//! the solver: every objective/gradient evaluation walks per-**RX** columns
//! with stride `n_rx`. [`ChannelSoA`] is the transpose — contiguous per-RX
//! gain rows — and [`SparseChannelView`] compounds it with CSR-style live
//! index lists (from the zero pattern, optionally intersected with a
//! [`crate::FovMask`]) so the solver iterates only links that can carry
//! signal. [`PoseSoA`] splits pose coordinates into parallel arrays for the
//! lane-batched geometry sweeps.
//!
//! None of these views change a single bit of any result: they are
//! re-orderings of *loads*, not of the fixed-order partial sums (see
//! docs/BENCHMARKING.md §SoA & sparse channel for the ordering contract).

use crate::fov::FovMask;
use crate::matrix::ChannelMatrix;
use vlc_geom::Pose;

/// Fixed width of the f64 lane batches used by the fused kernels: four
/// independent accumulators or stores per step, scalar tail, never a
/// reassociation of a fixed-order partial sum across lanes.
pub(crate) const LANE: usize = 4;

/// The transpose of [`ChannelMatrix`]: contiguous per-receiver gain rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSoA {
    n_tx: usize,
    n_rx: usize,
    /// `rx_gains[r * n_tx + t] == matrix.gain(t, r)`.
    rx_gains: Vec<f64>,
}

impl ChannelSoA {
    /// Transpose a dense channel matrix into per-RX rows.
    pub fn from_matrix(matrix: &ChannelMatrix) -> Self {
        let n_tx = matrix.n_tx();
        let n_rx = matrix.n_rx();
        let mut rx_gains = vec![0.0; n_tx * n_rx];
        for t in 0..n_tx {
            for (r, &g) in matrix.tx_row(t).iter().enumerate() {
                rx_gains[r * n_tx + t] = g;
            }
        }
        ChannelSoA {
            n_tx,
            n_rx,
            rx_gains,
        }
    }

    /// Number of transmitters.
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Number of receivers.
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// The contiguous gain row for receiver `rx`, indexed by TX.
    #[inline]
    pub fn rx_row(&self, rx: usize) -> &[f64] {
        &self.rx_gains[rx * self.n_tx..(rx + 1) * self.n_tx]
    }

    /// Random-access gain lookup, `== matrix.gain(tx, rx)`.
    #[inline]
    pub fn gain(&self, tx: usize, rx: usize) -> f64 {
        self.rx_gains[rx * self.n_tx + tx]
    }
}

/// CSR-style sparse view of the live links of a channel matrix, in both
/// orientations: per-RX ascending TX lists (objective accumulation) and
/// per-TX ascending RX lists (gradient rows).
///
/// A link is live iff its gain is nonzero **and** — when built with
/// [`Self::from_mask`] — the FOV mask keeps it. Skipping exactly-zero
/// terms of a non-negative fixed-order sum is bitwise neutral (`x + 0.0
/// == x` for every `x ≥ +0.0`), which is what lets the solver iterate
/// these lists without changing a single result bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseChannelView {
    n_tx: usize,
    n_rx: usize,
    rx_ptr: Vec<usize>,
    rx_tx_idx: Vec<u32>,
    rx_gain: Vec<f64>,
    tx_ptr: Vec<usize>,
    tx_rx_idx: Vec<u32>,
    tx_gain: Vec<f64>,
}

impl SparseChannelView {
    fn build<F: Fn(usize, usize) -> bool>(matrix: &ChannelMatrix, keep: F) -> Self {
        let n_tx = matrix.n_tx();
        let n_rx = matrix.n_rx();
        let mut rx_ptr = Vec::with_capacity(n_rx + 1);
        let mut rx_tx_idx = Vec::new();
        let mut rx_gain = Vec::new();
        rx_ptr.push(0);
        for r in 0..n_rx {
            for t in 0..n_tx {
                let g = matrix.tx_row(t)[r];
                if g != 0.0 && keep(t, r) {
                    rx_tx_idx.push(t as u32);
                    rx_gain.push(g);
                }
            }
            rx_ptr.push(rx_tx_idx.len());
        }
        let mut tx_ptr = Vec::with_capacity(n_tx + 1);
        let mut tx_rx_idx = Vec::new();
        let mut tx_gain = Vec::new();
        tx_ptr.push(0);
        for t in 0..n_tx {
            for (r, &g) in matrix.tx_row(t).iter().enumerate() {
                if g != 0.0 && keep(t, r) {
                    tx_rx_idx.push(r as u32);
                    tx_gain.push(g);
                }
            }
            tx_ptr.push(tx_rx_idx.len());
        }
        SparseChannelView {
            n_tx,
            n_rx,
            rx_ptr,
            rx_tx_idx,
            rx_gain,
            tx_ptr,
            tx_rx_idx,
            tx_gain,
        }
    }

    /// Live set from the zero pattern of the matrix alone.
    pub fn from_matrix(matrix: &ChannelMatrix) -> Self {
        Self::build(matrix, |_, _| true)
    }

    /// Live set from the zero pattern intersected with a [`FovMask`].
    /// Since the mask is conservative, any masked-out link has zero gain
    /// and the result equals [`Self::from_matrix`] — this constructor just
    /// skips the gain loads for culled links.
    pub fn from_mask(matrix: &ChannelMatrix, mask: &FovMask) -> Self {
        assert_eq!(mask.n_tx(), matrix.n_tx(), "mask/matrix TX count mismatch");
        assert_eq!(mask.n_rx(), matrix.n_rx(), "mask/matrix RX count mismatch");
        Self::build(matrix, |t, r| mask.is_live(t, r))
    }

    /// Number of transmitters.
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Number of receivers.
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// Total number of live links.
    pub fn live_links(&self) -> usize {
        self.rx_gain.len()
    }

    /// Ascending live TX indices and matching gains for receiver `rx`.
    #[inline]
    pub fn rx_live(&self, rx: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.rx_ptr[rx], self.rx_ptr[rx + 1]);
        (&self.rx_tx_idx[a..b], &self.rx_gain[a..b])
    }

    /// Ascending live RX indices and matching gains for transmitter `tx`.
    #[inline]
    pub fn tx_live(&self, tx: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.tx_ptr[tx], self.tx_ptr[tx + 1]);
        (&self.tx_rx_idx[a..b], &self.tx_gain[a..b])
    }

    /// Whether transmitter `tx` has any live link at all. Gradient rows of
    /// dead TXs are exactly `+0.0` and can be zero-filled without
    /// evaluation.
    #[inline]
    pub fn tx_any_live(&self, tx: usize) -> bool {
        self.tx_ptr[tx + 1] > self.tx_ptr[tx]
    }
}

/// Pose coordinates split into parallel arrays for the lane kernels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoseSoA {
    /// Position x components.
    pub px: Vec<f64>,
    /// Position y components.
    pub py: Vec<f64>,
    /// Position z components.
    pub pz: Vec<f64>,
    /// Boresight x components.
    pub bx: Vec<f64>,
    /// Boresight y components.
    pub by: Vec<f64>,
    /// Boresight z components.
    pub bz: Vec<f64>,
}

impl PoseSoA {
    /// Split an array-of-structs pose slice into coordinate arrays.
    pub fn from_poses(poses: &[Pose]) -> Self {
        let mut soa = PoseSoA::default();
        for p in poses {
            soa.px.push(p.position.x);
            soa.py.push(p.position.y);
            soa.pz.push(p.position.z);
            soa.bx.push(p.boresight.x);
            soa.by.push(p.boresight.y);
            soa.bz.push(p.boresight.z);
        }
        soa
    }

    /// Number of poses.
    pub fn len(&self) -> usize {
        self.px.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.px.is_empty()
    }

    /// Reassemble pose `i` (test/debug helper).
    pub fn pose(&self, i: usize) -> Pose {
        Pose {
            position: vlc_geom::Vec3::new(self.px[i], self.py[i], self.pz[i]),
            boresight: vlc_geom::Vec3::new(self.bx[i], self.by[i], self.bz[i]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lambertian::RxOptics;
    use vlc_geom::{Room, TxGrid};

    fn small_matrix() -> ChannelMatrix {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let receivers = vec![Pose::face_up(0.75, 2.25, 0.8), Pose::face_up(2.0, 1.0, 0.8)];
        ChannelMatrix::compute(&grid, &receivers, 15f64.to_radians(), &RxOptics::paper())
    }

    #[test]
    fn soa_is_the_exact_transpose() {
        let m = small_matrix();
        let soa = ChannelSoA::from_matrix(&m);
        for t in 0..m.n_tx() {
            for r in 0..m.n_rx() {
                assert_eq!(m.gain(t, r).to_bits(), soa.gain(t, r).to_bits());
                assert_eq!(soa.rx_row(r)[t].to_bits(), m.gain(t, r).to_bits());
            }
        }
    }

    #[test]
    fn sparse_view_carries_exactly_the_nonzero_links() {
        let m = small_matrix();
        let view = SparseChannelView::from_matrix(&m);
        let nonzero = m.iter().filter(|&(_, _, g)| g != 0.0).count();
        assert_eq!(view.live_links(), nonzero);
        for r in 0..m.n_rx() {
            let (idx, gains) = view.rx_live(r);
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "ascending TX order");
            for (&t, &g) in idx.iter().zip(gains) {
                assert_eq!(g.to_bits(), m.gain(t as usize, r).to_bits());
            }
        }
        for t in 0..m.n_tx() {
            let (idx, gains) = view.tx_live(t);
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "ascending RX order");
            for (&r, &g) in idx.iter().zip(gains) {
                assert_eq!(g.to_bits(), m.gain(t, r as usize).to_bits());
            }
            assert_eq!(view.tx_any_live(t), !idx.is_empty());
        }
    }

    #[test]
    fn mask_view_equals_zero_pattern_view() {
        let m = small_matrix();
        let mask = FovMask::all_live(m.n_tx(), m.n_rx());
        assert_eq!(
            SparseChannelView::from_mask(&m, &mask),
            SparseChannelView::from_matrix(&m)
        );
    }

    #[test]
    fn pose_soa_round_trips() {
        let poses = vec![Pose::ceiling(0.5, 1.0, 2.8), Pose::face_up(2.0, 1.0, 0.8)];
        let soa = PoseSoA::from_poses(&poses);
        assert_eq!(soa.len(), 2);
        for (i, p) in poses.iter().enumerate() {
            assert_eq!(soa.pose(i), *p);
        }
    }
}
