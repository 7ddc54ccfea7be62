//! PHY fast-path micro-benchmark: the scalar `Vec<Chip>` reference against
//! the bit-packed zero-alloc pipeline, stage by stage.
//!
//! Runs the same deterministic frame roundtrip — frame encode → Manchester
//! chips → waveform render → mid-chip slice → Manchester decode →
//! Reed–Solomon frame decode — through both paths and prints median
//! per-frame times plus the overall speedup. `cargo phy-bench` is the
//! release-mode alias. `--min-speedup X` exits non-zero when the packed
//! roundtrip is less than X times faster than the scalar one (the PR gate
//! uses 2.0); `run_all --bench-out` records the same workload as
//! `bench.phy_probe` rows for the BENCH.json history.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlc_phy::codec::RsStack;
use vlc_phy::manchester::{manchester_decode, manchester_encode};
use vlc_phy::packed::PackedChips;
use vlc_phy::rs::RsCodec;
use vlc_phy::waveform::{
    render, render_packed_into, slice_chips, slice_chips_packed_into, WaveformConfig,
};
use vlc_phy::{Frame, FrameHeader, ReedSolomon};

const USAGE: &str = "\
phy_bench — packed-vs-scalar PHY fast-path micro-benchmark

USAGE:
    phy_bench [--frames N] [--reps N] [--min-speedup X]

OPTIONS:
    --frames N       Frames per timed repetition (default 32).
    --reps N         Timed repetitions per row; medians are reported
                     (default 15).
    --min-speedup X  Exit non-zero unless packed roundtrip is at least X
                     times faster than scalar (default: report only).
    -h, --help       Print this help.
";

struct Options {
    frames: usize,
    reps: usize,
    min_speedup: Option<f64>,
}

fn parse_args() -> Result<Options, String> {
    let mut frames = 32usize;
    let mut reps = 15usize;
    let mut min_speedup = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--frames" => {
                let v = args.next().ok_or("--frames needs a count")?;
                frames = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad --frames value `{v}`"))?;
            }
            "--reps" => {
                let v = args.next().ok_or("--reps needs a count")?;
                reps = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("bad --reps value `{v}`"))?;
            }
            "--min-speedup" => {
                let v = args.next().ok_or("--min-speedup needs a ratio")?;
                min_speedup = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|&x| x > 0.0)
                        .ok_or(format!("bad --min-speedup value `{v}`"))?,
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        frames,
        reps,
        min_speedup,
    })
}

/// Median of the per-rep times, in seconds.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Times `reps` repetitions of `work` and returns the median seconds.
fn time_reps(reps: usize, mut work: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        work();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&mut samples)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cfg = WaveformConfig::paper();
    let rs = ReedSolomon::paper();
    let header = FrameHeader {
        dst: 1,
        src: 0,
        protocol: 1,
    };
    let mut rng = StdRng::seed_from_u64(0x9A7);
    let payloads: Vec<Vec<u8>> = (0..opts.frames)
        .map(|_| (0..200).map(|_| rng.gen()).collect())
        .collect();

    // Scalar reference roundtrip.
    let scalar_s = time_reps(opts.reps, || {
        for payload in &payloads {
            let frame = Frame::new(u64::MAX, header, payload.clone());
            let bytes = frame.to_bytes(&rs);
            let chips = manchester_encode(&bytes);
            let n_samples = (chips.len() as f64 * cfg.samples_per_chip()).ceil() as usize;
            let wave = render(&chips, &cfg, 1.0, 0.0, n_samples);
            let sliced = slice_chips(&wave, &cfg, 0, chips.len()).expect("clean waveform");
            let decoded = manchester_decode(&sliced).expect("valid stream");
            Frame::from_bytes(&decoded, &rs).expect("clean frame");
        }
    });

    // Packed roundtrip through warmed reusable buffers.
    let mut stack = RsStack::paper();
    let mut wire = Vec::new();
    let mut chips = PackedChips::new();
    let mut wave = Vec::new();
    let mut sliced = PackedChips::new();
    let mut rx_bytes = Vec::new();
    let mut payload_rx = Vec::new();
    let mut packed_cycle = |payload: &[u8]| {
        wire.clear();
        Frame::encode_parts_with(u64::MAX, &header, payload, &mut stack, &mut wire);
        chips.clear();
        chips.encode_bytes(&wire);
        let n_samples = (chips.len() as f64 * cfg.samples_per_chip()).ceil() as usize;
        render_packed_into(&chips, &cfg, 1.0, 0.0, n_samples, &mut wave);
        assert!(slice_chips_packed_into(
            &wave,
            &cfg,
            0,
            chips.len(),
            &mut sliced
        ));
        assert!(sliced.decode_bytes_into(&mut rx_bytes));
        Frame::decode_parts_with(&rx_bytes, &mut stack, &mut payload_rx).expect("clean frame");
    };
    packed_cycle(&payloads[0]);
    let packed_s = time_reps(opts.reps, || {
        for payload in &payloads {
            packed_cycle(payload);
        }
    });

    // Isolated render/slice stages (the waveform half of the roundtrip).
    let bytes0 = {
        let frame = Frame::new(u64::MAX, header, payloads[0].clone());
        frame.to_bytes(&rs)
    };
    let chips0 = manchester_encode(&bytes0);
    let n_samples0 = (chips0.len() as f64 * cfg.samples_per_chip()).ceil() as usize;
    let scalar_render_s = time_reps(opts.reps, || {
        for _ in 0..opts.frames {
            let w = render(&chips0, &cfg, 1.0, 0.0, n_samples0);
            std::hint::black_box(&w);
        }
    });
    let mut packed0 = PackedChips::new();
    packed0.encode_bytes(&bytes0);
    let packed_render_s = time_reps(opts.reps, || {
        for _ in 0..opts.frames {
            render_packed_into(&packed0, &cfg, 1.0, 0.0, n_samples0, &mut wave);
            std::hint::black_box(&wave);
        }
    });
    render_packed_into(&packed0, &cfg, 1.0, 0.0, n_samples0, &mut wave);
    let scalar_slice_s = time_reps(opts.reps, || {
        for _ in 0..opts.frames {
            let s = slice_chips(&wave, &cfg, 0, chips0.len()).expect("clean waveform");
            std::hint::black_box(&s);
        }
    });
    let packed_slice_s = time_reps(opts.reps, || {
        for _ in 0..opts.frames {
            assert!(slice_chips_packed_into(
                &wave,
                &cfg,
                0,
                chips0.len(),
                &mut sliced
            ));
        }
    });

    // Isolated packed stages over the same frame count.
    let manchester_encode_s = time_reps(opts.reps, || {
        for payload in &payloads {
            chips.clear();
            chips.encode_bytes(payload);
        }
    });
    chips.clear();
    chips.encode_bytes(&payloads[0]);
    let manchester_decode_s = time_reps(opts.reps, || {
        for _ in 0..opts.frames {
            assert!(chips.decode_bytes_into(&mut rx_bytes));
        }
    });
    let mut codec = RsCodec::paper();
    let mut coded = Vec::new();
    let rs_block_s = time_reps(opts.reps, || {
        for (f, payload) in payloads.iter().enumerate() {
            coded.clear();
            codec.encode_into(payload, &mut coded);
            for e in 0..codec.correction_capacity() {
                let pos = (f * 31 + e * 17) % coded.len();
                coded[pos] ^= 0x5a;
            }
            codec.decode_in_place(&mut coded).expect("correctable");
        }
    });

    let per_frame = |s: f64| 1e6 * s / opts.frames as f64;
    let speedup = scalar_s / packed_s;
    println!("==== PHY fast path: packed vs scalar ====");
    println!(
        "workload: {} frames x 200-byte payload, {} reps, medians\n",
        opts.frames, opts.reps
    );
    println!("{:<28} {:>12}", "row", "us/frame");
    println!("{:<28} {:>12.2}", "roundtrip scalar", per_frame(scalar_s));
    println!("{:<28} {:>12.2}", "roundtrip packed", per_frame(packed_s));
    println!(
        "{:<28} {:>12.2}",
        "render scalar",
        per_frame(scalar_render_s)
    );
    println!(
        "{:<28} {:>12.2}",
        "render packed",
        per_frame(packed_render_s)
    );
    println!("{:<28} {:>12.2}", "slice scalar", per_frame(scalar_slice_s));
    println!("{:<28} {:>12.2}", "slice packed", per_frame(packed_slice_s));
    println!(
        "{:<28} {:>12.2}",
        "packed manchester encode",
        per_frame(manchester_encode_s)
    );
    println!(
        "{:<28} {:>12.2}",
        "packed manchester decode",
        per_frame(manchester_decode_s)
    );
    println!(
        "{:<28} {:>12.2}",
        "rs block (t=8 correction)",
        per_frame(rs_block_s)
    );
    println!("\nroundtrip speedup: {speedup:.2}x");

    if let Some(min) = opts.min_speedup {
        if speedup < min {
            eprintln!("FAIL: packed roundtrip speedup {speedup:.2}x < required {min:.2}x");
            std::process::exit(1);
        }
        println!("OK: speedup {speedup:.2}x >= required {min:.2}x");
    }
}
