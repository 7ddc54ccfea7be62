//! Exhaustive binary-assignment search for small instances.
//!
//! Insight 2 says the practical optimum is (nearly) binary: each TX is
//! either dark or at full swing toward one receiver. For small deployments
//! the binary space is enumerable — `(M+1)^N` assignments — giving a
//! ground-truth optimum to validate the continuous gradient solver and the
//! SJR heuristic against. This is a test/validation tool, not a production
//! allocator: the paper's 36-TX instance has `5³⁶ ≈ 10²⁵` assignments.

use crate::model::{Allocation, SystemModel};
use serde::{Deserialize, Serialize};
use vlc_par::{Ctx, DEFAULT_CHUNK};

/// The exhaustive-search result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExhaustiveResult {
    /// The best binary allocation found.
    pub allocation: Allocation,
    /// Its sum-log objective.
    pub objective: f64,
    /// Its system throughput in bit/s.
    pub system_bps: f64,
    /// Assignments evaluated.
    pub evaluated: u64,
}

/// Enumerates every binary assignment (each TX off or full-swing toward one
/// RX) within the power budget and returns the best by sum-log objective,
/// falling back to system throughput while some receiver is still unserved.
///
/// The candidate space partitions across `ctx`'s pool. Every assignment
/// has an explicit index `i ∈ 0..(M+1)^N`, decoded as a mixed-radix code
/// with TX 0 the least-significant digit — the same order the historic
/// sequential counter visited. The winner is the lowest-index assignment
/// among those maximal under the ranking predicate (finite objectives
/// first, throughput among the unserved): candidates are scanned in index
/// order within fixed-size chunks and the chunk bests merged in chunk
/// order, with only a *strictly better* candidate displacing the
/// incumbent. Ties therefore always break to the lowest assignment index,
/// and the result is bitwise identical on one worker or many.
///
/// # Panics
/// Panics when the search space exceeds `max_assignments` (guard against
/// accidentally exhausting a 36-TX instance) or the budget is not positive.
pub fn exhaustive_binary(
    model: &SystemModel,
    budget_w: f64,
    max_assignments: u64,
    ctx: &Ctx,
) -> ExhaustiveResult {
    assert!(budget_w > 0.0, "budget must be positive");
    let n_tx = model.n_tx();
    let n_rx = model.n_rx();
    let choices = (n_rx + 1) as u64;
    let space: u64 = choices
        .checked_pow(n_tx as u32)
        .expect("search space fits in u64");
    assert!(
        space <= max_assignments,
        "search space {space} exceeds the {max_assignments} guard"
    );

    let full = model.led.max_swing;
    let full_power = model.dyn_resistance() * (full / 2.0) * (full / 2.0);
    let max_active = (budget_w / full_power).floor() as usize;

    // Score one assignment index; `None` = over the activation budget.
    let score = |index: usize| -> Option<(Allocation, f64, f64)> {
        let mut rest = index as u64;
        let mut alloc = Allocation::zeros(n_tx, n_rx);
        let mut active = 0usize;
        for tx in 0..n_tx {
            let c = (rest % choices) as usize; // 0 = off, 1..=n_rx = serve RX c-1
            rest /= choices;
            if c > 0 {
                active += 1;
                alloc.set_swing(tx, c - 1, full);
            }
        }
        if active > max_active {
            return None;
        }
        let obj = model.sum_log_throughput(&alloc);
        let bps = model.system_throughput(&alloc);
        Some((alloc, obj, bps))
    };
    // Rank finite objectives first; among −∞ (some RX unserved), prefer
    // higher raw throughput so tiny budgets still return a sensible
    // allocation. Strict, so equal candidates keep the earlier index.
    let better = |new: &(Allocation, f64, f64), cur: &(Allocation, f64, f64)| {
        if new.1.is_finite() || cur.1.is_finite() {
            new.1 > cur.1
        } else {
            new.2 > cur.2
        }
    };

    let best = ctx.on_pool(|pool| pool.argmax_by(space as usize, DEFAULT_CHUNK, score, better));
    let (_, (allocation, objective, system_bps)) =
        best.expect("the all-off assignment (index 0) is always within budget");
    ExhaustiveResult {
        allocation,
        objective,
        system_bps,
        evaluated: space,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{heuristic_allocation, HeuristicConfig};
    use crate::optimal::OptimalSolver;
    use vlc_channel::{ChannelMatrix, RxOptics};
    use vlc_geom::{Pose, Room, TxGrid};
    use vlc_par::Ctx;
    use vlc_par::{Jobs, Pool};

    /// A 3 × 3 grid with two receivers: 3⁹ ≈ 20k assignments.
    fn tiny_model() -> SystemModel {
        let room = Room::paper_simulation();
        let grid = TxGrid::centered(&room, 3, 3, 1.0);
        let rxs = vec![Pose::face_up(0.6, 0.6, 0.8), Pose::face_up(2.4, 2.4, 0.8)];
        SystemModel::paper(ChannelMatrix::compute(
            &grid,
            &rxs,
            15f64.to_radians(),
            &RxOptics::paper(),
        ))
    }

    #[test]
    fn exhaustive_respects_the_budget() {
        let m = tiny_model();
        let budget = 0.2;
        let res = exhaustive_binary(&m, budget, 1 << 20, &Ctx::noop());
        assert!(m.is_feasible(&res.allocation, budget));
        assert_eq!(res.evaluated, 3u64.pow(9));
    }

    #[test]
    fn continuous_solver_matches_or_beats_the_binary_ground_truth() {
        // The continuous relaxation can only do at least as well as the
        // best binary point (up to solver tolerance).
        let m = tiny_model();
        let budget = 0.3;
        let truth = exhaustive_binary(&m, budget, 1 << 21, &Ctx::noop());
        let report = OptimalSolver::default().solve(&m, budget, None, &Ctx::noop());
        assert!(
            report.objective >= truth.objective - 0.02 * truth.objective.abs(),
            "solver {} far below binary truth {}",
            report.objective,
            truth.objective
        );
    }

    #[test]
    fn heuristic_lands_near_the_binary_ground_truth() {
        let m = tiny_model();
        let budget = 0.3;
        let truth = exhaustive_binary(&m, budget, 1 << 21, &Ctx::noop());
        let h = heuristic_allocation(
            &m.channel,
            &m.led,
            budget,
            &HeuristicConfig::paper(),
            &Ctx::noop(),
        );
        let h_bps = m.system_throughput(&h);
        assert!(
            h_bps > 0.85 * truth.system_bps,
            "heuristic {} vs ground truth {}",
            h_bps,
            truth.system_bps
        );
    }

    #[test]
    fn tiny_budget_returns_the_best_single_tx() {
        let m = tiny_model();
        let full_power = m.dyn_resistance() * (m.led.max_swing / 2.0_f64).powi(2);
        let res = exhaustive_binary(&m, full_power * 1.01, 1 << 21, &Ctx::noop());
        assert_eq!(res.allocation.active_tx_count(), 1);
        assert!(res.system_bps > 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_search_space_panics() {
        let m = tiny_model();
        exhaustive_binary(&m, 0.3, 100, &Ctx::noop());
    }

    #[test]
    fn ties_break_to_the_lowest_assignment_index() {
        // Two TXs with bitwise-identical gains toward one RX: activating
        // either yields the exact same objective, so the ranking alone
        // cannot pick a winner. The contract is lowest assignment index —
        // TX0 serving RX0 (index 1) beats TX1 serving RX0 (index 2) — on
        // one worker or many.
        let m = SystemModel::paper(ChannelMatrix::from_gains(2, 1, vec![1e-6, 1e-6]));
        let full_power = m.dyn_resistance() * (m.led.max_swing / 2.0_f64).powi(2);
        for jobs in [1usize, 2, 7] {
            let res = exhaustive_binary(
                &m,
                full_power * 1.5,
                1 << 10,
                &Ctx::noop().with_pool(&Pool::new(Jobs::of(jobs))),
            );
            assert_eq!(res.allocation.active_tx_count(), 1, "jobs={jobs}");
            assert!(
                res.allocation.swing(0, 0) > 0.0,
                "jobs={jobs}: the tie must go to TX0"
            );
            assert_eq!(res.allocation.swing(1, 0), 0.0, "jobs={jobs}");
        }
    }

    #[test]
    fn worker_count_never_changes_the_result() {
        let m = tiny_model();
        let reference = exhaustive_binary(
            &m,
            0.3,
            1 << 21,
            &Ctx::noop().with_pool(&Pool::sequential()),
        );
        for jobs in [2usize, 7] {
            let res = exhaustive_binary(
                &m,
                0.3,
                1 << 21,
                &Ctx::noop().with_pool(&Pool::new(Jobs::of(jobs))),
            );
            assert_eq!(res, reference, "jobs={jobs}");
        }
    }
}
