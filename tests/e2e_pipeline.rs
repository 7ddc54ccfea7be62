//! Integration: the symbol-level pipeline across `vlc-phy`, `vlc-channel`,
//! `vlc-sync` and the `densevlc` end-to-end harness.

use densevlc::e2e::{run, E2eConfig, E2eTx};
use vlc_par::Ctx;
use vlc_sync::SyncScheme;
use vlc_testbed::{BbbHostMap, Deployment};

fn gains_and_hosts() -> (Vec<f64>, BbbHostMap) {
    let d = Deployment::testbed(&[(1.0, 0.5)]);
    (
        (0..36).map(|t| d.model.channel.gain(t, 0)).collect(),
        BbbHostMap::paper(),
    )
}

/// A single near TX delivers frames through the whole chain.
#[test]
fn single_tx_delivers_cleanly() {
    let (gains, hosts) = gains_and_hosts();
    let txs = vec![E2eTx {
        gain: gains[7],
        host: hosts.host_of(7),
    }];
    let res = run(
        &txs,
        &SyncScheme::SyncOff,
        &E2eConfig::default(),
        20,
        1,
        &Ctx::noop(),
    );
    assert_eq!(res.frames_ok, 20, "PER {}", res.per);
}

/// Joint transmission from synchronized TXs beats a single TX's SNR enough
/// to keep delivery intact (superposition really adds amplitude).
#[test]
fn joint_transmission_superimposes() {
    let (gains, hosts) = gains_and_hosts();
    let single = vec![E2eTx {
        gain: gains[7],
        host: hosts.host_of(7),
    }];
    let four: Vec<E2eTx> = [1usize, 7, 2, 8]
        .iter()
        .map(|&i| E2eTx {
            gain: gains[i],
            host: hosts.host_of(i),
        })
        .collect();
    let cfg = E2eConfig::default();
    let res_single = run(
        &single,
        &SyncScheme::nlos_paper(),
        &cfg,
        15,
        2,
        &Ctx::noop(),
    );
    let res_four = run(&four, &SyncScheme::nlos_paper(), &cfg, 15, 2, &Ctx::noop());
    assert!(res_four.per <= res_single.per);
    assert!(res_four.frames_ok >= res_single.frames_ok);
}

/// The Reed–Solomon layer earns its keep: with a weak link, RS still
/// corrects residual byte errors on delivered frames.
#[test]
fn rs_corrects_on_marginal_links() {
    let (gains, hosts) = gains_and_hosts();
    // Attenuate the best TX to put chips near the noise floor.
    let txs = vec![E2eTx {
        gain: gains[7] * 0.045,
        host: hosts.host_of(7),
    }];
    let res = run(
        &txs,
        &SyncScheme::SyncOff,
        &E2eConfig::default(),
        40,
        3,
        &Ctx::noop(),
    );
    // The link must be genuinely marginal: neither perfect nor dead.
    assert!(res.frames_ok > 0, "link completely dead");
    assert!(
        res.rs_corrections > 0 || res.per > 0.0,
        "link unexpectedly clean: {res:?}"
    );
}

/// Goodput accounting: delivering fewer frames must never yield more
/// goodput under the same configuration.
#[test]
fn goodput_tracks_delivery() {
    let (gains, hosts) = gains_and_hosts();
    let good = vec![E2eTx {
        gain: gains[7],
        host: hosts.host_of(7),
    }];
    let bad = vec![E2eTx {
        gain: gains[7] * 0.02,
        host: hosts.host_of(7),
    }];
    let cfg = E2eConfig::default();
    let res_good = run(&good, &SyncScheme::SyncOff, &cfg, 20, 4, &Ctx::noop());
    let res_bad = run(&bad, &SyncScheme::SyncOff, &cfg, 20, 4, &Ctx::noop());
    assert!(res_good.goodput_bps >= res_bad.goodput_bps);
    assert!(res_good.frames_ok >= res_bad.frames_ok);
}

/// Larger payloads amortize header overhead into higher goodput (while
/// staying under the same channel conditions).
#[test]
fn payload_size_trades_overhead() {
    let (gains, hosts) = gains_and_hosts();
    let txs = vec![E2eTx {
        gain: gains[7],
        host: hosts.host_of(7),
    }];
    let small = E2eConfig {
        payload_len: 50,
        ..E2eConfig::default()
    };
    let large = E2eConfig {
        payload_len: 600,
        ..E2eConfig::default()
    };
    let res_small = run(&txs, &SyncScheme::SyncOff, &small, 10, 5, &Ctx::noop());
    let res_large = run(&txs, &SyncScheme::SyncOff, &large, 10, 5, &Ctx::noop());
    assert_eq!(res_small.per, 0.0);
    assert_eq!(res_large.per, 0.0);
    assert!(
        res_large.goodput_bps > res_small.goodput_bps,
        "large {} vs small {}",
        res_large.goodput_bps,
        res_small.goodput_bps
    );
}

/// NTP/PTP is rate-limited: at 10 Ksym/s (below its §6.1 ceiling) it works;
/// at the testbed's 100 Ksym/s it degrades badly.
#[test]
fn ntp_ptp_rate_ceiling_shows_up_end_to_end() {
    let (gains, hosts) = gains_and_hosts();
    let four: Vec<E2eTx> = [1usize, 7, 2, 8]
        .iter()
        .map(|&i| E2eTx {
            gain: gains[i],
            host: hosts.host_of(i),
        })
        .collect();
    let slow = E2eConfig {
        symbol_rate_hz: 10_000.0,
        sample_rate_hz: 1_000_000.0,
        ..E2eConfig::default()
    };
    let fast = E2eConfig::default(); // 100 Ksym/s
    let res_slow = run(&four, &SyncScheme::NtpPtp, &slow, 15, 6, &Ctx::noop());
    let res_fast = run(&four, &SyncScheme::NtpPtp, &fast, 15, 6, &Ctx::noop());
    assert!(
        res_slow.per < res_fast.per,
        "slow {} vs fast {}",
        res_slow.per,
        res_fast.per
    );
    assert!(res_slow.per < 0.2, "PER at 10 Ksym/s: {}", res_slow.per);
}
