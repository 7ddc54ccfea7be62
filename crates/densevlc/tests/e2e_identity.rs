//! Steady-state allocation audit for the end-to-end packed pipeline: after
//! one warm-up run establishes every buffer's capacity, further frames —
//! including ARQ-style single-frame retries — must perform zero heap
//! allocations. (Bit-identity of the pipeline against the scalar reference
//! is pinned by the `e2e` module tests; this file guards the other half of
//! the fast-path contract.) The counting allocator is the shared
//! `vlc_prof::alloc_counter` implementation; its thread-local counters
//! make each test's window immune to harness-thread noise.

use densevlc::e2e::{run_scalar, E2eConfig, E2eTx, FramePipeline};
use vlc_prof::alloc_counter::{allocations_during, CountingAlloc};
use vlc_sync::SyncScheme;
use vlc_telemetry::Registry;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn txs() -> Vec<E2eTx> {
    // Two same-host TXs with healthy gains (the Table 5 row-1 regime) —
    // frames decode, so the whole encode→render→slice→RS cycle runs.
    vec![
        E2eTx {
            gain: 2.4e-5,
            host: 0,
        },
        E2eTx {
            gain: 2.4e-5,
            host: 0,
        },
    ]
}

#[test]
fn warmed_pipeline_runs_frames_with_zero_allocations() {
    let cfg = E2eConfig::default();
    let txs = txs();
    let noop = Registry::noop();
    let mut pipeline = FramePipeline::new(&cfg);

    // Warm-up: first run sizes every scratch buffer.
    let warm = pipeline.run(&txs, &SyncScheme::SyncOff, &cfg, 2, 40, &noop);
    assert_eq!(warm.frames_ok, 2, "warm-up link must be clean");

    let mut results = Vec::with_capacity(4);
    let n = allocations_during(|| {
        for seed in 41..45u64 {
            results.push(pipeline.run(&txs, &SyncScheme::SyncOff, &cfg, 3, seed, &noop));
        }
    });
    assert_eq!(n, 0, "warmed pipeline made {n} heap allocations");

    // The alloc-free runs still produce the reference results.
    for (seed, got) in (41..45u64).zip(results) {
        assert_eq!(got, run_scalar(&txs, &SyncScheme::SyncOff, &cfg, 3, seed));
    }
}

#[test]
fn pipeline_results_are_pinned_to_pre_codec_stack_values() {
    // Exact values captured from the pipeline BEFORE the CodecStack trait
    // refactor routed it through `Frame::encode_parts_with` /
    // `Frame::decode_parts_with`: the paper's Manchester+RS path behind the
    // trait must stay bit-identical to the historical code, not just
    // statistically close. Any drift in RNG draw order, RS behavior, or
    // float arithmetic shows up here as an exact-value mismatch.
    use densevlc::e2e::{run, E2eResult};
    use vlc_par::Ctx;
    use vlc_testbed::{BbbHostMap, Deployment};

    let cfg = E2eConfig::default();
    let d = Deployment::testbed(&[(1.0, 0.5)]);
    let g7 = d.model.channel.gain(7, 0);
    let hosts = BbbHostMap::paper();
    let two = txs();
    let marginal = vec![E2eTx {
        gain: g7 * 0.040,
        host: hosts.host_of(7),
    }];
    let cliff = vec![E2eTx {
        gain: g7 * 0.042,
        host: hosts.host_of(7),
    }];
    let weak = vec![E2eTx {
        gain: 1e-12,
        host: 0,
    }];
    let cases: [(&str, &[E2eTx], u64, usize, E2eResult); 4] = [
        (
            "clean",
            &two,
            40,
            8,
            E2eResult {
                frames_total: 8,
                frames_ok: 8,
                per: 0.0,
                goodput_bps: 33698.39932603201,
                rs_corrections: 0,
            },
        ),
        (
            "marginal",
            &marginal,
            202,
            16,
            E2eResult {
                frames_total: 16,
                frames_ok: 11,
                per: 0.3125,
                goodput_bps: 23167.649536647008,
                rs_corrections: 0,
            },
        ),
        (
            "cliff",
            &cliff,
            202,
            16,
            E2eResult {
                frames_total: 16,
                frames_ok: 12,
                per: 0.25,
                goodput_bps: 25273.79949452401,
                rs_corrections: 0,
            },
        ),
        (
            "weak",
            &weak,
            6,
            4,
            E2eResult {
                frames_total: 4,
                frames_ok: 0,
                per: 1.0,
                goodput_bps: 0.0,
                rs_corrections: 0,
            },
        ),
    ];
    for (name, txs, seed, frames, expected) in cases {
        let got = run(txs, &SyncScheme::SyncOff, &cfg, frames, seed, &Ctx::noop());
        assert_eq!(
            got, expected,
            "case {name} drifted from pre-refactor output"
        );
    }
}

#[test]
fn warmed_pipeline_single_frame_retries_are_zero_alloc() {
    // The ARQ pattern: many one-frame runs through one pipeline.
    let cfg = E2eConfig::default();
    let txs = txs();
    let noop = Registry::noop();
    let mut pipeline = FramePipeline::new(&cfg);
    pipeline.run(&txs, &SyncScheme::SyncOff, &cfg, 1, 50, &noop);

    let n = allocations_during(|| {
        for seed in 51..61u64 {
            pipeline.run(&txs, &SyncScheme::SyncOff, &cfg, 1, seed, &noop);
        }
    });
    assert_eq!(
        n, 0,
        "warmed single-frame retries made {n} heap allocations"
    );
}
