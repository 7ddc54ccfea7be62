//! Criterion benches for the allocation algorithms — the §5 complexity
//! claim measured rigorously: SJR ranking + budget assignment vs one
//! optimal projected-gradient solve on the 36 × 4 Fig. 7 instance.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use vlc_alloc::heuristic::{heuristic_allocation, rank_by_sjr};
use vlc_alloc::{HeuristicConfig, OptimalSolver};
use vlc_par::Ctx;
use vlc_testbed::{Deployment, Scenario};

fn bench_allocators(c: &mut Criterion) {
    let model = Deployment::simulation(&Scenario::Two.rx_positions()).model;
    let cfg = HeuristicConfig::paper();

    let mut group = c.benchmark_group("allocators");

    group.bench_function("sjr_ranking_only", |b| {
        b.iter(|| rank_by_sjr(&model.channel, &cfg))
    });

    group.bench_function("heuristic_full", |b| {
        b.iter(|| heuristic_allocation(&model.channel, &model.led, 1.2, &cfg, &Ctx::noop()))
    });

    group.sample_size(10);
    group.bench_function("optimal_solver_quick", |b| {
        b.iter_batched(
            OptimalSolver::quick,
            |solver| solver.solve(&model, 1.2, None, &Ctx::noop()),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_allocators);
criterion_main!(benches);
