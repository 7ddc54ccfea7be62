//! §5 complexity: the heuristic's runtime vs the optimal solver.
//!
//! The paper reports 165 s for `fmincon` against 0.07 s for the heuristic —
//! a 99.96 % reduction, at a throughput cost of only 1.8 % (κ = 1.3). We
//! time our own solver and heuristic on the same instance; the *relative*
//! reduction is the reproducible quantity (our gradient solver is far
//! faster than Matlab's `fmincon`, but the heuristic is proportionally
//! faster still).

use serde::{Deserialize, Serialize};
use std::time::Instant;
use vlc_alloc::analysis::{heuristic_sweep, throughput_at_power};
use vlc_alloc::heuristic::heuristic_allocation;
use vlc_alloc::{HeuristicConfig, OptimalSolver};
use vlc_par::Ctx;
use vlc_testbed::{Deployment, Scenario};

/// The complexity-comparison result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Complexity {
    /// Wall-clock seconds per optimal solve.
    pub optimal_s: f64,
    /// Wall-clock seconds per heuristic run.
    pub heuristic_s: f64,
    /// Complexity reduction `1 − heuristic/optimal` (paper: 99.96 %).
    pub reduction: f64,
    /// Throughput loss of the κ = 1.3 heuristic vs the optimum at the
    /// measurement budget (paper: 1.8 %).
    pub throughput_loss: f64,
}

/// Times both solvers on the Fig. 7 instance at `budget_w`.
pub fn run(budget_w: f64, solver_reps: usize, heuristic_reps: usize) -> Complexity {
    assert!(solver_reps > 0 && heuristic_reps > 0);
    let model = Deployment::simulation(&Scenario::Two.rx_positions()).model;
    let solver = OptimalSolver::default();

    let t0 = Instant::now();
    let mut opt_bps = 0.0;
    for _ in 0..solver_reps {
        let report = solver.solve(&model, budget_w, None, &Ctx::noop());
        opt_bps = model.system_throughput(&report.allocation);
    }
    let optimal_s = t0.elapsed().as_secs_f64() / solver_reps as f64;

    let cfg = HeuristicConfig::paper();
    let t1 = Instant::now();
    for _ in 0..heuristic_reps {
        let _ = heuristic_allocation(&model.channel, &model.led, budget_w, &cfg, &Ctx::noop());
    }
    let heuristic_s = t1.elapsed().as_secs_f64() / heuristic_reps as f64;

    let curve = heuristic_sweep(&model, &cfg);
    let heur_bps = throughput_at_power(&curve, budget_w);
    Complexity {
        optimal_s,
        heuristic_s,
        reduction: 1.0 - heuristic_s / optimal_s,
        throughput_loss: 1.0 - heur_bps / opt_bps,
    }
}

impl Complexity {
    /// Paper-style text rendering.
    pub fn report(&self) -> String {
        format!(
            "§5 — complexity: optimal {:.4} s vs heuristic {:.6} s per run\n\
             \x20 reduction {:.2} %% (paper: 99.96 %%), throughput loss {:.1} %% (paper: 1.8 %%)\n",
            self.optimal_s,
            self.heuristic_s,
            self.reduction * 100.0,
            self.throughput_loss * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_is_orders_of_magnitude_faster() {
        let c = run(1.2, 1, 200);
        assert!(c.reduction > 0.99, "reduction {}", c.reduction);
    }

    #[test]
    fn throughput_loss_is_small() {
        let c = run(1.2, 1, 10);
        assert!(c.throughput_loss < 0.10, "loss {}", c.throughput_loss);
        assert!(
            c.throughput_loss > -0.02,
            "heuristic should not beat optimum"
        );
    }

    #[test]
    fn report_quotes_paper_numbers() {
        let rep = run(1.2, 1, 10).report();
        assert!(rep.contains("99.96"));
    }
}
