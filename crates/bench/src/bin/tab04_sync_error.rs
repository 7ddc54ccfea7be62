//! Regenerates Table 4: median synchronization error per scheme.

use densevlc::experiments::tab04_sync_error;
use vlc_par::Ctx;

fn main() {
    let tab = tab04_sync_error::run(200, 0x7AB4, &Ctx::noop());
    print!("{}", tab.report());
}
