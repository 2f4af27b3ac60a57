//! Property tests for warm-started node LPs (DESIGN.md §14).
//!
//! The branch & bound hands every solved node's optimal basis to its
//! children, whose LPs differ by exactly one variable bound. The warm
//! path (re-install the basis, repair with dual simplex) must be a pure
//! optimization: on any child of any model the search can build, it has
//! to reach the *same* optimum a cold two-phase solve reaches, or
//! honestly report the same infeasibility — never a different answer.
//! These properties drive random §3.1 time-indexed models (the real
//! workload) through exactly the parent-to-child step the solver takes.

mod common;

use common::random_model;
use dynp_milp::sparse::CscBuilder;
use dynp_milp::{solve_lp, Basis, LpOutcome, LpStart, Milp, Sense, TimeIndexedModel};
use proptest::prelude::*;

/// Agreement tolerance between the warm and cold optima. Both paths end
/// at a vertex of the same LP, but through different pivot sequences and
/// LU refactorizations, so they agree to simplex accuracy (1e-7
/// feasibility tolerance), not to machine epsilon.
const OBJ_TOL: f64 = 1e-6;
/// Per-LP iteration budget; generously above anything these small
/// models need, so hitting it is a failure, not noise.
const MAX_ITERS: usize = 200_000;

/// `ti`'s model with every assignment row stated twice. The copies are
/// redundant equalities: phase 1 can only cover them with artificials
/// that stay basic at zero, so every optimal basis of this model carries
/// one artificial per job.
fn with_duplicated_assignment_rows(ti: &TimeIndexedModel) -> Milp {
    let model = &ti.model;
    let (m, jobs) = (model.num_constraints(), ti.job_ids.len());
    let mut matrix = CscBuilder::new(m + jobs);
    for j in 0..model.num_vars() {
        let mut col: Vec<(usize, f64)> = model.matrix.column(j).collect();
        col.push((m + ti.var_map[j].0, 1.0));
        matrix.push_column(&col);
    }
    let mut senses = model.senses.clone();
    senses.extend(vec![Sense::Eq; jobs]);
    let mut rhs = model.rhs.clone();
    rhs.extend(vec![1.0; jobs]);
    Milp::new(
        model.objective.clone(),
        matrix.build(),
        senses,
        rhs,
        model.lower.clone(),
        model.upper.clone(),
        model.integral.clone(),
    )
}

/// `model` under `lower` / `upper`, solved cold.
fn cold(model: &Milp, lower: &[f64], upper: &[f64]) -> LpOutcome {
    solve_lp(model, lower, upper, LpStart::Cold, MAX_ITERS).0
}

/// `model` under `lower` / `upper`, warm from `basis`, and whether the
/// warm start answered.
fn warm(model: &Milp, lower: &[f64], upper: &[f64], basis: &Basis) -> (LpOutcome, bool) {
    solve_lp(model, lower, upper, LpStart::Warm(basis), MAX_ITERS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A warm-started child LP reaches the cold optimum (within
    /// `OBJ_TOL`) — or agrees that the child is infeasible — for every
    /// 0/1 fixing of every variable of a random time-indexed model.
    #[test]
    fn warm_child_matches_cold_child_on_timeindex_models(
        capacity in 2u32..6,
        scale_idx in 0usize..3,
        specs in prop::collection::vec((0u32..8, 0u64..40), 2..5),
        var_seed in 0usize..1000,
        fix_up in 0u32..2,
    ) {
        let scale = [60u64, 120, 300][scale_idx];
        let fix_up = fix_up == 1;
        let ti = random_model(capacity, scale, &specs);
        let model = &ti.model;
        let LpOutcome::Optimal(root) =
            cold(model, &model.lower, &model.upper)
        else {
            // The builder guarantees a feasible model; anything else is
            // a solver bug this test should surface.
            panic!("root LP of a generated model did not solve");
        };
        let basis = &root.basis;

        // The child differs by one bound, exactly as in branching: pick
        // any still-free variable and pin it to 0 or 1.
        let free: Vec<usize> = (0..model.num_vars())
            .filter(|&j| model.lower[j] < model.upper[j])
            .collect();
        prop_assume!(!free.is_empty());
        let var = free[var_seed % free.len()];
        let mut lower = model.lower.clone();
        let mut upper = model.upper.clone();
        if fix_up {
            lower[var] = 1.0;
        } else {
            upper[var] = 0.0;
        }

        let (warm_outcome, _used) = warm(model, &lower, &upper, basis);
        let cold_outcome = cold(model, &lower, &upper);
        match (warm_outcome, cold_outcome) {
            (LpOutcome::Optimal(w), LpOutcome::Optimal(c)) => {
                prop_assert!(
                    (w.objective - c.objective).abs() < OBJ_TOL,
                    "warm {} vs cold {} after fixing x{} {}",
                    w.objective,
                    c.objective,
                    var,
                    if fix_up { "up" } else { "down" },
                );
                // The warm point must be genuinely primal feasible for
                // the child, not just numerically close in objective.
                let mut check = w.x.clone();
                check.truncate(model.num_vars());
                prop_assert!(model.check_feasible(&check, 1e-5).is_ok());
            }
            (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
            (w, c) => prop_assert!(
                false,
                "outcome mismatch after fixing x{var}: warm {w:?} vs cold {c:?}"
            ),
        }
    }

    /// The same parent-to-child step when the parent basis contains basic
    /// artificials on redundant rows: the install must accept them (they
    /// are pinned to zero, not dropped), and the repaired child must
    /// still agree with the cold solve.
    #[test]
    fn warm_child_matches_cold_child_with_artificials_on_redundant_rows(
        capacity in 2u32..6,
        specs in prop::collection::vec((0u32..8, 0u64..40), 2..5),
        var_seed in 0usize..1000,
        fix_up in 0u32..2,
    ) {
        let ti = random_model(capacity, 60, &specs);
        let model = with_duplicated_assignment_rows(&ti);
        let LpOutcome::Optimal(root) =
            cold(&model, &model.lower, &model.upper)
        else {
            panic!("duplicating rows cannot make a feasible model infeasible");
        };
        let basis = &root.basis;
        let first_artificial = model.num_vars() + ti.horizon_slots;
        let artificials = basis.basis.iter().filter(|&&v| v >= first_artificial).count();
        prop_assert!(
            artificials >= ti.job_ids.len(),
            "{artificials} basic artificials for {} redundant rows",
            ti.job_ids.len(),
        );

        let var = var_seed % model.num_vars();
        let mut lower = model.lower.clone();
        let mut upper = model.upper.clone();
        if fix_up == 1 {
            lower[var] = 1.0;
        } else {
            upper[var] = 0.0;
        }
        let (warm_outcome, used) = warm(&model, &lower, &upper, basis);
        prop_assert!(used, "an artificial-bearing basis must still install and repair");
        match (warm_outcome, cold(&model, &lower, &upper)) {
            (LpOutcome::Optimal(w), LpOutcome::Optimal(c)) => {
                prop_assert!(
                    (w.objective - c.objective).abs() < OBJ_TOL,
                    "warm {} vs cold {} after fixing x{var}",
                    w.objective,
                    c.objective,
                );
                prop_assert!(model.check_feasible(&w.x, 1e-5).is_ok());
            }
            (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
            (w, c) => prop_assert!(
                false,
                "outcome mismatch after fixing x{var}: warm {w:?} vs cold {c:?}"
            ),
        }
    }

    /// Warm-starting the *unchanged* parent LP from its own basis is a
    /// no-op repair: zero-ish work, same objective, warm path taken.
    #[test]
    fn reinstalling_the_parent_basis_is_stable(
        capacity in 2u32..6,
        specs in prop::collection::vec((0u32..8, 0u64..40), 2..5),
    ) {
        let ti = random_model(capacity, 60, &specs);
        let model = &ti.model;
        let LpOutcome::Optimal(root) =
            cold(model, &model.lower, &model.upper)
        else {
            panic!("root LP of a generated model did not solve");
        };
        let basis = &root.basis;
        let (outcome, used) =
            warm(model, &model.lower, &model.upper, basis);
        prop_assert!(used, "re-installing an optimal basis fell back to cold");
        let LpOutcome::Optimal(again) = outcome else {
            panic!("re-solve from the optimal basis failed");
        };
        prop_assert!((again.objective - root.objective).abs() < OBJ_TOL);
        prop_assert!(
            again.iterations <= root.iterations,
            "warm re-solve did more work ({}) than the cold solve ({})",
            again.iterations,
            root.iterations,
        );
    }
}
