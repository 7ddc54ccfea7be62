//! Property tests for the incremental channel engine's identity contract:
//! the cached/incremental paths must be *bitwise* equal to the cold paths
//! (paper-faithful per-pair quadrature), for any receiver poses, any ε, any
//! blocker set, and any worker count. These ride in `cargo test --workspace`
//! and therefore in both halves of `cargo tier2`.

use proptest::prelude::*;
use vlc_channel::nlos::{floor_bounce_gain, wall_bounce_gain, NlosConfig};
use vlc_channel::{
    lambertian_order, ChannelMatrix, ChannelUpdater, CylinderBlocker, NlosTxCache, RxOptics,
};
use vlc_geom::{Pose, Room, TxGrid};
use vlc_par::{Ctx, Jobs, Pool};
use vlc_telemetry::Registry;
use vlc_trace::Span;

const HPSA: f64 = 0.2617993877991494; // 15° in radians

/// Coarser patches than the 5 cm default keep the per-case quadrature cheap
/// without weakening the identity being tested (it must hold for any grid).
fn coarse() -> NlosConfig {
    NlosConfig { patch_size_m: 0.2 }
}

fn arb_rx_pose() -> impl Strategy<Value = Pose> {
    // Anywhere in the testbed room's interior, desk to head height.
    (0.0f64..3.0, 0.0f64..3.0, 0.3f64..1.8).prop_map(|(x, y, z)| Pose::face_up(x, y, z))
}

fn arb_blockers() -> impl Strategy<Value = Vec<CylinderBlocker>> {
    proptest::collection::vec(
        (0.0f64..3.0, 0.0f64..3.0).prop_map(|(x, y)| CylinderBlocker::person(x, y)),
        0..3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A leader-side NLOS cache reproduces the direct floor-bounce
    /// quadrature bit for bit, for any receiver pose and worker count.
    #[test]
    fn cached_floor_gain_matches_direct_bitwise(rx in arb_rx_pose(), tx_idx in 0usize..36) {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let optics = RxOptics::paper();
        let m = lambertian_order(HPSA);
        let tx = grid.pose(tx_idx);
        let cache = NlosTxCache::new(&tx, m, &room, &coarse(), &Ctx::noop());
        for jobs in [Jobs::serial(), Jobs::max()] {
            let pool = Pool::new(jobs);
            let ctx = Ctx::noop().with_pool(&pool);
            let direct = floor_bounce_gain(&tx, &rx, m, &optics, &room, &coarse(), &ctx);
            let cached = cache.floor_gain(&rx, &optics, &ctx);
            prop_assert_eq!(cached.to_bits(), direct.to_bits(), "jobs={}", jobs);
        }
    }

    /// Same identity for the four-wall bounce.
    #[test]
    fn cached_wall_gain_matches_direct_bitwise(rx in arb_rx_pose(), tx_idx in 0usize..36) {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let optics = RxOptics::paper();
        let m = lambertian_order(HPSA);
        let tx = grid.pose(tx_idx);
        let cache = NlosTxCache::new(&tx, m, &room, &coarse(), &Ctx::noop());
        for jobs in [Jobs::serial(), Jobs::max()] {
            let pool = Pool::new(jobs);
            let ctx = Ctx::noop().with_pool(&pool);
            let direct = wall_bounce_gain(&tx, &rx, m, &optics, &room, &coarse(), &ctx);
            let cached = cache.wall_gain(&rx, &optics, &ctx);
            prop_assert_eq!(cached.to_bits(), direct.to_bits(), "jobs={}", jobs);
        }
    }

    /// With ε = 0 the dirty-row updater is a drop-in replacement for a full
    /// rebuild: after any sequence of pose jitters and blocker changes, the
    /// masked matrix, the clear matrix, and the blocked-link count all match
    /// a from-scratch computation of the same tick, bitwise, at any jobs.
    #[test]
    fn zero_epsilon_updater_matches_full_rebuild(
        steps in proptest::collection::vec(
            (proptest::collection::vec(arb_rx_pose(), 3), arb_blockers()),
            1..5,
        ),
    ) {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let optics = RxOptics::paper();
        for jobs in [Jobs::serial(), Jobs::max()] {
            let pool = Pool::new(jobs);
            let ctx = Ctx::noop().with_pool(&pool);
            let mut updater = ChannelUpdater::new(&grid, HPSA, &optics, 0.0);
            for (poses, blockers) in &steps {
                let update = updater.update_pooled(
                    poses,
                    blockers,
                    &pool,
                    &Registry::noop(),
                    &Span::noop(),
                );
                let full = ChannelMatrix::sound(&grid, poses, HPSA, &optics, blockers, None, &ctx);
                let clear = ChannelMatrix::sound(&grid, poses, HPSA, &optics, &[], None, &ctx);
                prop_assert_eq!(&update.matrix, &full, "masked, jobs={}", jobs);
                prop_assert_eq!(&update.clear, &clear, "clear, jobs={}", jobs);
                let blocked = (0..grid.len())
                    .flat_map(|t| (0..poses.len()).map(move |r| (t, r)))
                    .filter(|&(t, r)| clear.gain(t, r) > 0.0 && full.gain(t, r) == 0.0)
                    .count();
                prop_assert_eq!(update.blocked_links, blocked);
            }
        }
    }

    /// With ε > 0 the updater trades bounded staleness for reuse: its output
    /// equals a full rebuild at the *effective* poses (each column's pose
    /// re-snaps only when the receiver drifts beyond ε of the last computed
    /// pose), so the approximation is exactly "each RX is where we last
    /// looked, at most ε ago" — never an uncontrolled mixture.
    #[test]
    fn positive_epsilon_updater_matches_rebuild_at_effective_poses(
        epsilon in 0.0f64..0.5,
        steps in proptest::collection::vec(
            (proptest::collection::vec(arb_rx_pose(), 2), arb_blockers()),
            1..5,
        ),
    ) {
        let room = Room::paper_testbed();
        let grid = TxGrid::paper(&room);
        let optics = RxOptics::paper();
        let mut updater = ChannelUpdater::new(&grid, HPSA, &optics, epsilon);
        // Shadow model of the invalidation rule.
        let mut effective: Vec<Pose> = Vec::new();
        for (poses, blockers) in &steps {
            let update = updater.update_pooled(
                poses,
                blockers,
                &Pool::from_env(),
                &Registry::noop(),
                &Span::noop(),
            );
            if effective.is_empty() {
                effective = poses.clone();
            } else {
                for (eff, new) in effective.iter_mut().zip(poses) {
                    if eff.boresight != new.boresight
                        || eff.position.distance(new.position) > epsilon
                    {
                        *eff = *new;
                    }
                }
            }
            let full = ChannelMatrix::compute_with_blockage(
                &grid, &effective, HPSA, &optics, blockers,
            );
            prop_assert_eq!(&update.matrix, &full);
        }
    }
}
