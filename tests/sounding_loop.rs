//! Integration: the *physical* channel-measurement loop. Instead of handing
//! the controller synthetic SNRs, each TX's sounding pilot is rendered as a
//! waveform, attenuated by the Lambertian channel, mixed with receiver
//! noise, measured with the M2M4 estimator (exactly what the testbed's
//! §7.2 software does), and reported. The controller's plan on these
//! *measured* channels must closely match its plan on the ground truth.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vlc_channel::AwgnChannel;
use vlc_led::power::optical_swing_amplitude;
use vlc_led::LedParams;
use vlc_mac::protocol::ChannelReport;
use vlc_mac::{Controller, ControllerConfig};
use vlc_phy::manchester::manchester_encode;
use vlc_phy::snr::m2m4_snr;
use vlc_phy::waveform::{render, WaveformConfig};
use vlc_telemetry::Registry;
use vlc_testbed::{Deployment, Scenario};
use vlc_trace::Span;

/// Renders TX `tx`'s pilot as received by RX `rx` and estimates its SNR.
fn measure_link(
    d: &Deployment,
    tx: usize,
    rx: usize,
    awgn: &mut AwgnChannel,
    rng: &mut StdRng,
) -> f64 {
    let cfg = WaveformConfig::paper();
    // A 64-byte sounding stream gives the M2M4 estimator ~10k samples.
    let pilot = manchester_encode(&[0x5A; 64]);
    let led = LedParams::cree_xte_paper();
    let amp = 0.40 * d.model.channel.gain(tx, rx) * optical_swing_amplitude(&led, led.max_swing);
    let n = pilot.len() * 10;
    let mut samples = render(&pilot, &cfg, amp, 0.0, n);
    for s in samples.iter_mut() {
        *s += awgn.sample(rng);
    }
    match m2m4_snr(&samples) {
        Some(est) if est.snr.is_finite() => est.snr,
        _ => 0.0,
    }
}

#[test]
fn measured_sounding_reproduces_the_truth_plan() {
    let d = Deployment::scenario(Scenario::Two);
    let mut rng = StdRng::seed_from_u64(0x500D);
    let mut awgn = AwgnChannel::new(d.model.noise);

    // Full TDM sounding sweep: every TX measured by every RX.
    let mut ctl = Controller::new(ControllerConfig::paper(1.2), 36, 4);
    for rx in 0..4 {
        let snr_per_tx: Vec<f64> = (0..36)
            .map(|tx| measure_link(&d, tx, rx, &mut awgn, &mut rng))
            .collect();
        ctl.ingest_report(ChannelReport { rx, snr_per_tx });
    }
    assert!(ctl.all_reported());

    // Calibration constant: receiver amplitude per unit gain over noise RMS.
    let led = LedParams::cree_xte_paper();
    let cal = 0.40 * optical_swing_amplitude(&led, led.max_swing) / d.model.noise.noise_rms();
    let estimated = ctl.estimated_channel(cal);

    // Measured gains track the truth for every link that matters (strong
    // links within 20 %; weak links may vanish below the noise floor).
    let truth = &d.model.channel;
    for rx in 0..4 {
        let best = truth.best_tx_for(rx);
        let est = estimated.gain(best, rx);
        let tru = truth.gain(best, rx);
        assert!(
            (est - tru).abs() / tru < 0.2,
            "RX{}: best-link gain measured {est:e} vs true {tru:e}",
            rx + 1
        );
    }

    // The plan from measurements serves everyone and overlaps the truth
    // plan in its TX selection (weak-tail links may differ).
    let plan_measured = ctl.plan(&estimated, None, &Registry::noop(), &Span::noop());
    let plan_truth = ctl.plan(truth, None, &Registry::noop(), &Span::noop());
    assert_eq!(plan_measured.beamspots.len(), 4, "an RX went unserved");
    let measured_txs = plan_measured.active_txs();
    let truth_txs = plan_truth.active_txs();
    let overlap = measured_txs
        .iter()
        .filter(|t| truth_txs.contains(t))
        .count();
    assert!(
        overlap * 10 >= truth_txs.len() * 8,
        "plans diverged: measured {measured_txs:?} vs truth {truth_txs:?}"
    );

    // And the measured plan's realized throughput (on the *true* channel)
    // is within a few percent of the truth plan's.
    let t_measured = d.model.system_throughput(&plan_measured.allocation);
    let t_truth = d.model.system_throughput(&plan_truth.allocation);
    assert!(
        t_measured > 0.9 * t_truth,
        "throughput {t_measured} vs {t_truth} under the truth plan"
    );
}

#[test]
fn weak_links_measure_as_zero_not_garbage() {
    let d = Deployment::scenario(Scenario::One);
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let mut awgn = AwgnChannel::new(d.model.noise);
    // A far-corner TX to the opposite-corner RX: physically negligible.
    let snr = measure_link(&d, 35, 0, &mut awgn, &mut rng);
    assert!(snr < 1.0, "impossible link measured snr {snr}");
}
