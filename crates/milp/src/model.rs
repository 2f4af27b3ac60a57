//! The mixed 0/1 linear-program description consumed by the solver stack.
//!
//! A [`Milp`] is `minimize cᵀx  s.t.  Ax {≤,=,≥} b,  l ≤ x ≤ u`, with a
//! per-variable integrality flag. The time-indexed scheduling model of
//! §3.1 instantiates this with binary `x_it` variables; the LP relaxation
//! simply ignores the flags.

use crate::sparse::CscMatrix;

/// Constraint sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// `≤ rhs`
    Le,
    /// `= rhs`
    Eq,
    /// `≥ rhs`
    Ge,
}

/// A mixed 0/1 linear program (minimization).
#[derive(Clone, Debug)]
pub struct Milp {
    /// Objective coefficients `c`.
    pub objective: Vec<f64>,
    /// Constraint matrix `A`, one row per constraint.
    pub matrix: CscMatrix,
    /// Constraint senses.
    pub senses: Vec<Sense>,
    /// Right-hand sides `b`.
    pub rhs: Vec<f64>,
    /// Variable lower bounds `l`.
    pub lower: Vec<f64>,
    /// Variable upper bounds `u` (`f64::INFINITY` = unbounded).
    pub upper: Vec<f64>,
    /// Which variables must be integral in a MIP solution.
    pub integral: Vec<bool>,
    /// The simplex's per-column phase-2 cost perturbation, a pure function
    /// of `objective` built once here so every node LP borrows it. It
    /// only breaks pricing ties (the solver re-optimizes on the true
    /// costs before reporting), so an `objective` edited after
    /// construction costs tie-breaking quality, never correctness.
    perturbation: Vec<f64>,
}

impl Milp {
    /// Creates and validates a model.
    ///
    /// # Panics
    /// Panics on dimension mismatches or inverted bounds — a malformed
    /// model is a programming error in the builder, not an input condition.
    pub fn new(
        objective: Vec<f64>,
        matrix: CscMatrix,
        senses: Vec<Sense>,
        rhs: Vec<f64>,
        lower: Vec<f64>,
        upper: Vec<f64>,
        integral: Vec<bool>,
    ) -> Milp {
        let n = objective.len();
        let m = rhs.len();
        assert_eq!(matrix.cols(), n, "matrix columns != objective length");
        assert_eq!(matrix.rows(), m, "matrix rows != rhs length");
        assert_eq!(senses.len(), m, "senses length != rhs length");
        assert_eq!(lower.len(), n, "lower bounds length != variables");
        assert_eq!(upper.len(), n, "upper bounds length != variables");
        assert_eq!(integral.len(), n, "integrality flags length != variables");
        for j in 0..n {
            assert!(
                lower[j] <= upper[j],
                "variable {j}: lower {} > upper {}",
                lower[j],
                upper[j]
            );
        }
        Milp {
            perturbation: crate::simplex::cost_perturbation(&objective),
            objective,
            matrix,
            senses,
            rhs,
            lower,
            upper,
            integral,
        }
    }

    /// Convenience constructor for an all-binary model.
    pub fn binary(
        objective: Vec<f64>,
        matrix: CscMatrix,
        senses: Vec<Sense>,
        rhs: Vec<f64>,
    ) -> Milp {
        let n = objective.len();
        Milp::new(
            objective,
            matrix,
            senses,
            rhs,
            vec![0.0; n],
            vec![1.0; n],
            vec![true; n],
        )
    }

    /// The phase-2 cost perturbation of each column (see the field).
    pub(crate) fn perturbation(&self) -> &[f64] {
        &self.perturbation
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rhs.len()
    }

    /// Objective value of a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks primal feasibility of `x` within tolerance `tol`; returns the
    /// first violation found. Used by tests and as a post-solve guard.
    pub fn check_feasible(&self, x: &[f64], tol: f64) -> Result<(), String> {
        if x.len() != self.num_vars() {
            return Err(format!(
                "point has {} entries, model has {} variables",
                x.len(),
                self.num_vars()
            ));
        }
        for (j, &v) in x.iter().enumerate() {
            if v < self.lower[j] - tol || v > self.upper[j] + tol {
                return Err(format!(
                    "variable {j} = {v} outside [{}, {}]",
                    self.lower[j], self.upper[j]
                ));
            }
        }
        let ax = self.matrix.mat_vec(x);
        for (i, (&lhs, &rhs)) in ax.iter().zip(&self.rhs).enumerate() {
            let ok = match self.senses[i] {
                Sense::Le => lhs <= rhs + tol,
                Sense::Eq => (lhs - rhs).abs() <= tol,
                Sense::Ge => lhs >= rhs - tol,
            };
            if !ok {
                return Err(format!(
                    "constraint {i}: lhs {lhs} {:?} rhs {rhs} violated",
                    self.senses[i]
                ));
            }
        }
        Ok(())
    }

    /// Checks integrality of the flagged variables within `tol`.
    pub fn is_integral(&self, x: &[f64], tol: f64) -> bool {
        x.iter()
            .zip(&self.integral)
            .all(|(&v, &flag)| !flag || (v - v.round()).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Milp {
        // min -x0 - 2 x1  s.t.  x0 + x1 <= 1,  x binary.
        Milp::binary(
            vec![-1.0, -2.0],
            CscMatrix::from_dense(&[vec![1.0, 1.0]]),
            vec![Sense::Le],
            vec![1.0],
        )
    }

    #[test]
    fn dimensions() {
        let m = tiny();
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
    }

    #[test]
    fn objective_value_is_dot_product() {
        let m = tiny();
        assert_eq!(m.objective_value(&[1.0, 0.0]), -1.0);
        assert_eq!(m.objective_value(&[0.0, 1.0]), -2.0);
    }

    #[test]
    fn feasibility_check() {
        let m = tiny();
        m.check_feasible(&[0.0, 1.0], 1e-9).unwrap();
        m.check_feasible(&[0.5, 0.5], 1e-9).unwrap();
        assert!(m.check_feasible(&[1.0, 1.0], 1e-9).is_err()); // row violated
        assert!(m.check_feasible(&[-0.1, 0.0], 1e-9).is_err()); // bound
        assert!(m.check_feasible(&[0.0], 1e-9).is_err()); // dimension
    }

    #[test]
    fn senses_are_respected() {
        let m = Milp::new(
            vec![0.0],
            CscMatrix::from_dense(&[vec![1.0], vec![1.0]]),
            vec![Sense::Ge, Sense::Eq],
            vec![0.5, 0.7],
            vec![0.0],
            vec![1.0],
            vec![false],
        );
        m.check_feasible(&[0.7], 1e-9).unwrap();
        assert!(m.check_feasible(&[0.6], 1e-9).is_err()); // Eq violated
    }

    #[test]
    fn integrality_check() {
        let m = tiny();
        assert!(m.is_integral(&[1.0, 0.0], 1e-6));
        assert!(m.is_integral(&[0.9999999, 0.0], 1e-6));
        assert!(!m.is_integral(&[0.5, 0.0], 1e-6));
        // Continuous variables are exempt.
        let mut m2 = tiny();
        m2.integral = vec![false, false];
        assert!(m2.is_integral(&[0.5, 0.5], 1e-6));
    }

    #[test]
    #[should_panic(expected = "lower")]
    fn inverted_bounds_panic() {
        Milp::new(
            vec![0.0],
            CscMatrix::from_dense(&[vec![1.0]]),
            vec![Sense::Le],
            vec![1.0],
            vec![2.0],
            vec![1.0],
            vec![false],
        );
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn dimension_mismatch_panics() {
        Milp::binary(
            vec![1.0, 2.0, 3.0],
            CscMatrix::from_dense(&[vec![1.0, 1.0]]),
            vec![Sense::Le],
            vec![1.0],
        );
    }
}
