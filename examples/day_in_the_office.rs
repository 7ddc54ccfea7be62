//! A day in the office: the whole system under composed disturbances.
//!
//! Four receivers sit at their Scenario-2 desks. A laptop (RX1) relocates
//! across the room, a colleague walks a lap right through the beamspots,
//! and the controller keeps re-planning at its adaptation cadence. The
//! timeline shows throughput dips where the walker shadows links and the
//! recovery after every re-plan — the cell-free promise in one run.
//!
//! Run with: `cargo run --release --example day_in_the_office`

use densevlc::sim::Simulation;
use vlc_par::Ctx;
use vlc_testbed::{Deployment, Scenario};

fn main() {
    let mut sim = Simulation::new(Deployment::scenario(Scenario::Two), 1.2, 0.2);

    // RX1's owner carries it to a meeting table across the room.
    sim.send_receiver(0, 2.3, 2.1);

    // A colleague walks a lap through the middle of the room.
    sim.add_person(
        0.2,
        1.5,
        0.8,
        &[(1.5, 1.5), (1.8, 0.8), (2.8, 0.8), (2.8, 2.8), (0.2, 2.8)],
    );

    let timeline = sim.run(12.0, &Ctx::noop(), None);

    println!("A day in the office — 12 s, 0.1 s ticks, re-plan every 0.2 s\n");
    println!("  t[s]   system[Mb/s]   RX1[Mb/s]   blocked links   replanned");
    for tick in timeline.ticks.iter().step_by(5) {
        let system: f64 = tick.per_rx_bps.iter().sum();
        println!(
            "  {:>4.1}   {:>10.2}   {:>8.2}   {:>12}   {}",
            tick.t_s,
            system / 1e6,
            tick.per_rx_bps[0] / 1e6,
            tick.blocked_links,
            if tick.replanned { "*" } else { "" }
        );
    }

    println!(
        "\nmean system throughput {:.2} Mb/s, outage {:.1} %, {} re-plans",
        timeline.mean_system_bps() / 1e6,
        timeline.outage_fraction() * 100.0,
        timeline.replans()
    );
    println!(
        "the walker shadows up to {} links at once; the cadence keeps every dip short",
        timeline
            .ticks
            .iter()
            .map(|t| t.blocked_links)
            .max()
            .unwrap_or(0)
    );
}
