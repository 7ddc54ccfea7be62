//! Regenerates Table 5: iperf-style goodput and PER for three scenarios.

use densevlc::experiments::tab05_iperf;
use vlc_par::Ctx;

fn main() {
    let frames: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);
    let tab = tab05_iperf::run(frames, 0x7AB5, &Ctx::noop());
    print!("{}", tab.report());
}
