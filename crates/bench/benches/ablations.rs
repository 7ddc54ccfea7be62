//! Ablation benches for the design choices `DESIGN.md` calls out:
//!
//! * **Binary swings (Insight 2):** what throughput does discretizing the
//!   continuous optimum to {0, Isw,max} cost?
//! * **κ sensitivity:** heuristic throughput across κ at the paper's
//!   comparison budget.
//! * **Partial-last budget usage:** the heuristic with and without a
//!   fractional final TX.
//!
//! Criterion times the computations; the ablation *deltas* are printed once
//! at bench start-up so the run log doubles as the ablation report.

use criterion::{criterion_group, criterion_main, Criterion};
use vlc_alloc::analysis::{heuristic_sweep, throughput_at_power};
use vlc_alloc::heuristic::heuristic_allocation;
use vlc_alloc::model::Allocation;
use vlc_alloc::{HeuristicConfig, OptimalSolver};
use vlc_par::Ctx;
use vlc_testbed::{Deployment, Scenario};

/// Discretizes an allocation: per (TX, RX) stream, snap to full swing when
/// above half, zero otherwise, then rescale rows into the swing bound.
fn binarize(alloc: &Allocation, max_swing: f64) -> Allocation {
    let mut out = Allocation::zeros(alloc.n_tx(), alloc.n_rx());
    for t in 0..alloc.n_tx() {
        // Snap the dominant stream of each TX.
        let mut best_rx = None;
        let mut best = 0.0;
        for r in 0..alloc.n_rx() {
            let s = alloc.swing(t, r);
            if s > best {
                best = s;
                best_rx = Some(r);
            }
        }
        if let Some(r) = best_rx {
            if best >= 0.5 * max_swing {
                out.set_swing(t, r, max_swing);
            }
        }
    }
    out
}

fn print_ablation_report() {
    let model = Deployment::simulation(&Scenario::Two.rx_positions()).model;
    let budget = 1.2;

    // Ablation 1: binary vs continuous optimum.
    let solver = OptimalSolver::quick();
    let report = solver.solve(&model, budget, None, &Ctx::noop());
    let continuous = model.system_throughput(&report.allocation);
    let binary_alloc = binarize(&report.allocation, model.led.max_swing);
    let binary = model.system_throughput(&binary_alloc);
    println!(
        "[ablation] binary-swing discretization: continuous {:.3} Mb/s -> binary {:.3} Mb/s ({:+.2} %)",
        continuous / 1e6,
        binary / 1e6,
        (binary / continuous - 1.0) * 100.0
    );

    // Ablation 2: κ sensitivity at the comparison budget.
    for kappa in [1.0, 1.2, 1.3, 1.5] {
        let curve = heuristic_sweep(&model, &HeuristicConfig::with_kappa(kappa));
        let t = throughput_at_power(&curve, budget);
        println!(
            "[ablation] kappa {kappa}: {:.3} Mb/s at {budget} W ({:+.2} % vs optimal)",
            t / 1e6,
            (t / continuous - 1.0) * 100.0
        );
    }

    // Ablation 3: partial-last budget usage.
    let strict = heuristic_allocation(
        &model.channel,
        &model.led,
        budget,
        &HeuristicConfig::paper(),
        &Ctx::noop(),
    );
    let partial = heuristic_allocation(
        &model.channel,
        &model.led,
        budget,
        &HeuristicConfig {
            allow_partial_last: true,
            ..HeuristicConfig::paper()
        },
        &Ctx::noop(),
    );
    println!(
        "[ablation] partial-last TX: strict {:.3} Mb/s vs partial {:.3} Mb/s",
        model.system_throughput(&strict) / 1e6,
        model.system_throughput(&partial) / 1e6
    );
}

fn bench_ablations(c: &mut Criterion) {
    print_ablation_report();

    let model = Deployment::simulation(&Scenario::Two.rx_positions()).model;
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    group.bench_function("binarize_optimal_solution", |b| {
        let report = OptimalSolver::quick().solve(&model, 1.2, None, &Ctx::noop());
        b.iter(|| binarize(&report.allocation, model.led.max_swing))
    });

    group.bench_function("kappa_sweep_4_values", |b| {
        b.iter(|| {
            [1.0, 1.2, 1.3, 1.5]
                .iter()
                .map(|&k| heuristic_sweep(&model, &HeuristicConfig::with_kappa(k)).len())
                .sum::<usize>()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
