//! Synchronization showcase: walk through the paper's §6/§8.1 story —
//! measure the three schemes on the scope, check NLOS pilot detectability
//! across the grid, and run the Table-5 end-to-end experiment.
//!
//! Run with: `cargo run --release --example sync_showcase`

use densevlc::e2e::{run as e2e_run, E2eConfig, E2eTx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vlc_channel::RxOptics;
use vlc_geom::{Room, TxGrid};
use vlc_par::Ctx;
use vlc_phy::manchester::manchester_encode;
use vlc_sync::{NlosSyncLink, SyncScheme};
use vlc_testbed::{BbbHostMap, Deployment, Scope};

fn main() {
    let mut rng = StdRng::seed_from_u64(0x570C);

    // 1. Table 4: scope-measured median sync error for the three schemes.
    println!("1) scope measurement (TX2 leading, TX3 following, 100 Ksym/s):");
    let scope = Scope::paper();
    let chips = manchester_encode(&[0xA5, 0x5A, 0xC3, 0x3C, 0x0F, 0xF0, 0x99, 0x66]);
    for (name, scheme, paper_us, leader_follower) in [
        ("no synchronization", SyncScheme::SyncOff, 10.040, false),
        ("NTP/PTP", SyncScheme::NtpPtp, 4.565, false),
        ("NLOS VLC", SyncScheme::nlos_paper(), 0.575, true),
    ] {
        let d = if leader_follower {
            scope.measure_leader_follower_delay(&chips, 100e3, &scheme, 100, &mut rng)
        } else {
            scope.measure_sync_delay(&chips, 100e3, &scheme, 100, &mut rng)
        }
        .expect("edges exist");
        println!("   {name:<20} {:>7.3} µs (paper: {paper_us} µs)", d * 1e6);
    }

    // 2. Pilot detectability: which followers hear TX8's reflected pilot?
    println!("\n2) NLOS pilot coverage of leading TX8 (floor reflectance 0.6):");
    let room = Room::paper_testbed();
    let grid = TxGrid::paper(&room);
    let leader = 7; // TX8
    let mut heard = Vec::new();
    for tx in 0..grid.len() {
        if tx == leader {
            continue;
        }
        let link = NlosSyncLink::between(
            &grid.pose(leader),
            &grid.pose(tx),
            &room,
            15f64.to_radians(),
            &RxOptics::paper(),
            &Ctx::noop(),
        );
        if link.detect(&mut rng, &Ctx::noop()).detected {
            heard.push(grid.label(tx));
        }
    }
    println!(
        "   {} followers detect the pilot: {}",
        heard.len(),
        heard.join(", ")
    );

    // 3. Table 5: the end-to-end iperf experiment.
    println!("\n3) end-to-end joint transmission (RX amid TX2/TX3/TX8/TX9):");
    let d = Deployment::testbed(&[(1.0, 0.5)]);
    let hosts = BbbHostMap::paper();
    let tx = |i: usize| E2eTx {
        gain: d.model.channel.gain(i, 0),
        host: hosts.host_of(i),
    };
    let cfg = E2eConfig::default();
    let rows = [
        ("2 TXs (same BBB)", vec![tx(1), tx(7)], SyncScheme::SyncOff),
        (
            "4 TXs (no sync)",
            vec![tx(1), tx(7), tx(2), tx(8)],
            SyncScheme::SyncOff,
        ),
        (
            "4 TXs (NLOS sync)",
            vec![tx(1), tx(7), tx(2), tx(8)],
            SyncScheme::nlos_paper(),
        ),
    ];
    for (label, txs, scheme) in rows {
        let res = e2e_run(&txs, &scheme, &cfg, 40, 99, &Ctx::noop());
        println!(
            "   {label:<20} {:>7.1} kb/s, PER {:>6.2} %",
            res.goodput_bps / 1e3,
            res.per * 100.0
        );
    }
}
