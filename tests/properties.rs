//! Cross-crate property tests: invariants that must hold for arbitrary
//! channel realizations, budgets and payloads.

use proptest::prelude::*;
use vlc_alloc::heuristic::{heuristic_allocation, rank_by_sjr};
use vlc_alloc::model::SystemModel;
use vlc_alloc::HeuristicConfig;
use vlc_channel::ChannelMatrix;
use vlc_led::power::{communication_power_avg, dynamic_resistance};
use vlc_led::LedParams;
use vlc_par::Ctx;
use vlc_phy::frame::{Frame, FrameHeader};
use vlc_phy::manchester::{manchester_decode, manchester_encode};
use vlc_phy::rs::ReedSolomon;

/// Strategy: a random (n_tx × n_rx) channel with gains in the physical
/// range of the paper's geometry.
fn channel_strategy() -> impl Strategy<Value = ChannelMatrix> {
    (2usize..=12, 2usize..=4).prop_flat_map(|(n_tx, n_rx)| {
        proptest::collection::vec(0.0f64..2e-6, n_tx * n_rx)
            .prop_map(move |gains| ChannelMatrix::from_gains(n_tx, n_rx, gains))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SJR ranking is always a permutation of the TXs with
    /// non-increasing scores, regardless of the channel.
    #[test]
    fn ranking_is_always_a_permutation(
        channel in channel_strategy(),
        kappa in 0.8f64..2.0,
    ) {
        let ranking = rank_by_sjr(&channel, &HeuristicConfig::with_kappa(kappa));
        prop_assert_eq!(ranking.len(), channel.n_tx());
        let mut seen = vec![false; channel.n_tx()];
        for entry in &ranking {
            prop_assert!(!seen[entry.tx]);
            seen[entry.tx] = true;
            prop_assert!(entry.rx < channel.n_rx());
            prop_assert!(entry.sjr >= 0.0);
        }
        for w in ranking.windows(2) {
            prop_assert!(w[0].sjr >= w[1].sjr);
        }
    }

    /// The heuristic allocation never violates the swing bound or the power
    /// budget, for any channel and budget.
    #[test]
    fn heuristic_is_always_feasible(
        channel in channel_strategy(),
        budget_mw in 0.0f64..3000.0,
    ) {
        let led = LedParams::cree_xte_paper();
        let budget_w = budget_mw / 1e3;
        let alloc = heuristic_allocation(
            &channel, &led, budget_w, &HeuristicConfig::paper(), &Ctx::noop());
        let r = dynamic_resistance(&led);
        let mut power = 0.0;
        for t in 0..alloc.n_tx() {
            let s = alloc.tx_total_swing(t);
            prop_assert!(s <= led.max_swing + 1e-12);
            power += r * (s / 2.0) * (s / 2.0);
        }
        prop_assert!(power <= budget_w + 1e-9);
    }

    /// SINR values are finite and non-negative for any allocation the
    /// heuristic can produce, and zero-swing receivers have zero SINR.
    #[test]
    fn sinr_is_well_defined(
        channel in channel_strategy(),
        budget_mw in 1.0f64..2000.0,
    ) {
        let model = SystemModel::paper(channel);
        let alloc = heuristic_allocation(
            &model.channel, &model.led, budget_mw / 1e3, &HeuristicConfig::paper(), &Ctx::noop());
        for (rx, s) in model.sinr(&alloc).into_iter().enumerate() {
            prop_assert!(s.is_finite() && s >= 0.0, "RX{rx}: SINR {s}");
        }
        prop_assert!(model.comm_power(&alloc).is_finite());
    }

    /// Power model: the Taylor communication power is monotone in the swing
    /// and exactly quadratic (doubling the swing quadruples the power).
    #[test]
    fn comm_power_is_quadratic(swing in 0.0f64..0.45) {
        let led = LedParams::cree_xte_paper();
        let p1 = communication_power_avg(&led, swing);
        let p2 = communication_power_avg(&led, swing * 2.0);
        prop_assert!((p2 - 4.0 * p1).abs() < 1e-12);
    }

    /// Frame → Manchester chips → decode → parse is the identity for any
    /// payload and header (the full digital TX/RX path minus the analog
    /// stages, which have their own tests).
    #[test]
    fn digital_path_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 0..500),
        dst in any::<u16>(),
        src in any::<u16>(),
        proto in any::<u16>(),
    ) {
        let rs = ReedSolomon::paper();
        let frame = Frame::new(
            0xFFFF, FrameHeader { dst, src, protocol: proto }, payload);
        let chips = manchester_encode(&frame.to_bytes(&rs));
        let bytes = manchester_decode(&chips).expect("valid chips");
        let (parsed, fixed) = Frame::from_bytes(&bytes, &rs).expect("clean frame");
        prop_assert_eq!(parsed, frame);
        prop_assert_eq!(fixed, 0);
    }
}
