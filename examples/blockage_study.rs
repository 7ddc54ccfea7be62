//! Blockage study: the paper's §9 hypothesis that in a cell-free VLC
//! system blockage is not purely harmful — an occluder that shadows an
//! *interfering* TX improves the victim receiver's SINR.
//!
//! The study places a standing person at each position of a coarse grid,
//! recomputes the channel with the cylinder occluder, re-runs the
//! controller, and reports where the system throughput went up versus down.
//!
//! Run with: `cargo run --release --example blockage_study`

use vlc_alloc::heuristic::heuristic_allocation;
use vlc_alloc::model::SystemModel;
use vlc_alloc::HeuristicConfig;
use vlc_channel::{ChannelMatrix, CylinderBlocker};
use vlc_par::Ctx;
use vlc_testbed::{Deployment, Scenario};

fn throughput_with_blockers(d: &Deployment, blockers: &[CylinderBlocker]) -> f64 {
    let channel = ChannelMatrix::compute_with_blockage(
        &d.grid,
        &d.receivers,
        d.half_power_semi_angle,
        &d.optics,
        blockers,
    );
    let mut model: SystemModel = d.model.clone();
    model.channel = channel;
    // The controller re-plans on the blocked channel (it only sees
    // measurements, so blockage is just another channel realization).
    let alloc = heuristic_allocation(
        &model.channel,
        &model.led,
        1.2,
        &HeuristicConfig::paper(),
        &Ctx::noop(),
    );
    model.system_throughput(&alloc)
}

fn main() {
    let d = Deployment::scenario(Scenario::Three);
    let clear = throughput_with_blockers(&d, &[]);
    println!("Blockage study — {}", Scenario::Three.label());
    println!("clear-room system throughput: {:.2} Mb/s\n", clear / 1e6);
    println!("standing person at (x, y) → throughput change:");

    let mut helped = 0;
    let mut hurt = 0;
    let mut worst: (f64, f64, f64) = (0.0, 0.0, 0.0);
    let mut best: (f64, f64, f64) = (0.0, 0.0, 0.0);
    for iy in 0..6 {
        print!("  ");
        for ix in 0..6 {
            let (x, y) = (0.25 + ix as f64 * 0.5, 0.25 + iy as f64 * 0.5);
            let t = throughput_with_blockers(&d, &[CylinderBlocker::person(x, y)]);
            let delta = (t / clear - 1.0) * 100.0;
            if delta > 0.5 {
                helped += 1;
            } else if delta < -0.5 {
                hurt += 1;
            }
            if delta < worst.2 {
                worst = (x, y, delta);
            }
            if delta > best.2 {
                best = (x, y, delta);
            }
            print!("{delta:>7.1}%");
        }
        println!();
    }

    println!(
        "\npositions that helped: {helped}, hurt: {hurt} (out of 36 tested)\n\
         biggest loss  {:.1} % at ({:.2}, {:.2}) — the person shadows a serving TX\n\
         biggest gain  {:+.1} % at ({:.2}, {:.2}) — the person shadows interference,\n\
         confirming the paper's §9 intuition that blockage can *help* cell-free VLC",
        worst.2, worst.0, worst.1, best.2, best.0, best.1
    );
}
