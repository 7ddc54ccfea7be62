//! Integration: the paper's headline numbers, checked end to end. These are
//! the "does the reproduction actually reproduce" tests — each assertion
//! cites the anchor it targets. Runs use reduced instance counts to stay
//! fast; `cargo run -p vlc-bench --bin run_all` prints the full-scale rows.

use densevlc::experiments::*;
use vlc_led::LedParams;
use vlc_par::Ctx;
use vlc_testbed::Scenario;

/// Fig. 4: ≈ 0.45 % Taylor error at the 900 mA maximum swing.
#[test]
fn fig04_taylor_error_anchor() {
    let fig = fig04_taylor_error::run(&LedParams::cree_xte_paper(), 90);
    assert!(
        (fig.error_at_max_pct - 0.45).abs() < 0.15,
        "{}",
        fig.error_at_max_pct
    );
}

/// §4 illuminance: 564 lux average, 74 % uniformity, ISO 8995-1 pass.
#[test]
fn fig05_illuminance_anchor() {
    let fig = fig05_illuminance::run(&LedParams::cree_xte_paper(), 5);
    assert!((fig.simulation.average_lux - 564.0).abs() < 20.0);
    assert!((fig.simulation.uniformity - 0.74).abs() < 0.05);
    assert!(fig.simulation.meets_iso_8995() && fig.testbed.meets_iso_8995());
}

/// §4.2: one full-swing TX consumes 74.42 mW of communication power, so
/// D-MISO's 36 TXs land at 2.68 W and SISO's four at 298 mW.
#[test]
fn power_accounting_anchors() {
    use vlc_led::power::full_swing_power;
    let p = full_swing_power(&LedParams::cree_xte_paper());
    assert!((p - 0.07442).abs() < 2e-4, "PC,tx,max {p}");
    assert!((36.0 * p - 2.68).abs() < 0.01);
    assert!((4.0 * p - 0.298).abs() < 0.003);
}

/// Table 4: sync error medians 10.040 / 4.565 / 0.575 µs.
#[test]
fn tab04_sync_error_anchor() {
    let t = tab04_sync_error::run(150, 7, &Ctx::noop());
    assert!(
        (t.no_sync_s * 1e6 - 10.040).abs() < 4.0,
        "no-sync {}",
        t.no_sync_s
    );
    assert!(
        (t.ntp_ptp_s * 1e6 - 4.565).abs() < 2.0,
        "ntp {}",
        t.ntp_ptp_s
    );
    assert!(
        (t.nlos_vlc_s * 1e6 - 0.575).abs() < 0.3,
        "nlos {}",
        t.nlos_vlc_s
    );
}

/// Table 5: ~34 kb/s for synced rows, total collapse without sync.
#[test]
fn tab05_iperf_anchor() {
    let t = tab05_iperf::run(40, 8, &Ctx::noop());
    assert!((t.two_tx.goodput_bps / 1e3 - 33.9).abs() < 4.0);
    assert!(t.two_tx.per < 0.05);
    assert!(
        t.four_tx_no_sync.per > 0.9,
        "no-sync PER {}",
        t.four_tx_no_sync.per
    );
    assert!((t.four_tx_nlos.goodput_bps / 1e3 - 33.8).abs() < 4.0);
    assert!(t.four_tx_nlos.per < 0.05);
}

/// Fig. 21: ≈ 2.3× power efficiency over D-MISO, with the match point near
/// the paper's 1.19 W, and a positive throughput gain over SISO.
#[test]
fn fig21_efficiency_anchor() {
    let fig = fig21_baselines::run(Scenario::Two);
    assert!(
        (fig.efficiency_gain - 2.3).abs() < 0.5,
        "efficiency gain {}",
        fig.efficiency_gain
    );
    assert!(
        (fig.densevlc_power_at_dmiso_w - 1.19).abs() < 0.3,
        "match point {} W",
        fig.densevlc_power_at_dmiso_w
    );
    assert!(
        fig.throughput_gain_vs_siso > 0.3,
        "{}",
        fig.throughput_gain_vs_siso
    );
}

/// §5: the heuristic reduces complexity by ~99.96 % at a few percent
/// throughput loss.
#[test]
fn complexity_anchor() {
    let c = complexity::run(1.2, 1, 2_000);
    assert!(c.reduction > 0.99, "reduction {}", c.reduction);
    assert!(c.throughput_loss.abs() < 0.10, "loss {}", c.throughput_loss);
}

/// §6.1: NTP/PTP tops out around 14.28 Ksymbols/s at 10 % overlap.
#[test]
fn fig12_rate_limit_anchor() {
    let fig = fig12_sync_delay::run(&[14.28e3], 4_001, 9);
    assert!((10_000.0..20_000.0).contains(&fig.ntp_max_rate_hz));
    // And at that rate the delay is near 10 % of the 70 µs symbol.
    assert!(
        (fig.ntp_ptp_s[0] - 7e-6).abs() < 2e-6,
        "{}",
        fig.ntp_ptp_s[0]
    );
}

/// Fig. 11: κ = 1.3 tracks the optimum within a few percent on average.
#[test]
fn fig11_kappa_loss_anchor() {
    let fig = fig11_heuristic_verification::run(&[0.6, 1.2], 6, 1.2, 10);
    let loss = fig.mean_loss(1.3);
    assert!(loss < 0.08, "κ=1.3 loss {loss} (paper: 1.8 %)");
    // κ = 1.0 is clearly worse than the tuned values.
    assert!(fig.mean_loss(1.0) > loss);
}
