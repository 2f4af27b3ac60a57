//! A bounded-variable, two-phase revised simplex over a sparse LU of the
//! basis.
//!
//! This is the LP engine under the branch & bound of [`crate::branch`]. It
//! is written for the structure of time-indexed scheduling relaxations —
//! many binary-bounded columns, few rows, an almost triangular basis — but
//! is a general solver:
//!
//! * variables with finite lower/upper bounds (slacks unbounded above),
//! * all three constraint senses (slack/surplus added internally),
//! * phase 1 over a full artificial basis (artificials are fixed to zero
//!   afterwards, which safely neutralizes redundant rows),
//! * the basis held as a sparse LU plus a product-form eta file
//!   ([`crate::lu`]), refactorized when the eta file outgrows the factor,
//! * primal phases priced column-wise from `y = c_Bᵀ B⁻¹` (one sparse
//!   BTRAN per iteration, partial Dantzig pricing with a permanent switch
//!   to Bland's rule after a stall, guaranteeing termination) — and a
//!   column is priced as the runs it is made of ([`crate::sparse`]):
//!   next to `y` the BTRAN leaves its prefix sums `Y[k] = Σ_{i<k} y_i`,
//!   so `d_j = c_j − Σ_runs v·(Y[end] − Y[first])` costs two lookups per
//!   run where it cost a multiply-add per entry,
//! * a dual repair phase for warm starts priced row-wise: the reduced
//!   costs `d_N` are solver state, and a dual pivot costs one BTRAN of a
//!   unit vector, one walk over the row runs of `A` its result touches
//!   (`α[first..end] += ρ_i·v`, contiguous and index-free), two passes
//!   over the columns that walk reached, and one FTRAN — no column is
//!   priced from scratch between refactorizations, and none the pivot
//!   row does not reach is looked at,
//! * a long-step (bound-flipping) dual ratio test: every structural of a
//!   §3.1 model is boxed in `[0, 1]`, so a dual step may pass the
//!   breakpoints of columns whose whole range cannot close the leaving
//!   row's violation — they move to their other bound, all of them
//!   through one more FTRAN, instead of costing a pivot each; the
//!   breakpoints past the nearest one are put in order only when a step
//!   passes it, and then sixteen at a time (select the smallest, sort
//!   those), so a step pays for the few it passes, not for every
//!   candidate,
//! * the two children of a branch & bound node install the same parent
//!   basis, so the [`Basis`] they share carries its fresh factor and
//!   `d_N`: the first child to arrive computes them, its sibling copies,
//! * one entry, [`solve_lp`], for every start — cold, crash or warm
//!   ([`LpStart`]) — with one fallback: an abandoned attempt is re-solved
//!   cold, its cost folded into the optimum.
//!
//! Determinism: no randomness, no wall clock, no environment; the
//! iteration limit is the only resource bound and every tie breaks on the
//! lowest index, so results — and the [`KernelCounts`] of the work done —
//! are reproducible bit-for-bit.

// The kernels below index parallel per-row / per-variable buffers
// directly; iterator adaptors obscure the math there.
#![allow(clippy::needless_range_loop)]

use crate::lu::{LuFactor, PIVOT_TOL};
use crate::model::{Milp, Sense};
use crate::sparse::PrefixSums;
use std::sync::OnceLock;

/// Feasibility / optimality tolerance.
const TOL: f64 = 1e-7;
/// Switch from Dantzig to Bland pricing after this many iterations without
/// improvement, to break degenerate cycles.
const STALL_LIMIT: usize = 512;
/// Column block size for partial pricing.
const PARTIAL_BLOCK: usize = 512;
/// Entries of a pricing row `ρ_r` below this magnitude are rounding noise
/// of the BTRAN and are not walked.
const RHO_DROP_TOL: f64 = 1e-14;

/// Exact work counts of the LP kernel: how often each operation ran and
/// how large its operands were. Pure functions of the model and the
/// bounds (no timers), so they repeat across runs and worker counts and
/// can be compared between two versions of the solver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// LU factorizations of a basis (the installed one — computed here
    /// or copied from the sibling that installed the same [`Basis`]
    /// first, counted alike — and every refactorization of an evolved
    /// one).
    pub refactors: usize,
    /// Basis changes made by the primal phases.
    pub primal_pivots: usize,
    /// Basis changes made by the dual repair of a warm start.
    pub dual_pivots: usize,
    /// Primal iterations that moved a variable to its opposite bound
    /// without changing the basis.
    pub bound_flips: usize,
    /// Non-zeros of `L` and `U`, summed over the factorizations.
    pub lu_nnz: usize,
    /// Largest eta file carried (non-zeros), i.e. how far the solver got
    /// from a fresh factor; a maximum, not a sum.
    pub eta_nnz_max: usize,
    /// Non-zeros of the pricing rows `ρ_r = B⁻ᵀe_r`, summed over the dual
    /// pivots — what a dual pivot's row walk is proportional to.
    pub pricing_row_nnz: usize,
    /// Nonbasic variables the long-step ratio test of the dual repair
    /// moved to their opposite bound instead of pivoting them in.
    pub dual_flips: usize,
    /// Columns the pricing rows reached, summed over the dual pivots —
    /// what a dual pivot's ratio test and `d_N` update are proportional
    /// to.
    pub pivot_row_cols: usize,
    /// Rows the singleton peel of a factorization left to its Markowitz
    /// elimination, summed over the factorizations (a copied sibling
    /// factor counted like a computed one, as in `lu_nnz`) — per
    /// refactorization, the order of the nucleus, which is where the time
    /// of a factorization concentrates.
    pub lu_nucleus_rows: usize,
}

impl KernelCounts {
    /// Folds another LP's counts into these.
    pub fn absorb(&mut self, other: &KernelCounts) {
        self.refactors += other.refactors;
        self.primal_pivots += other.primal_pivots;
        self.dual_pivots += other.dual_pivots;
        self.bound_flips += other.bound_flips;
        self.lu_nnz += other.lu_nnz;
        self.eta_nnz_max = self.eta_nnz_max.max(other.eta_nnz_max);
        self.pricing_row_nnz += other.pricing_row_nnz;
        self.dual_flips += other.dual_flips;
        self.pivot_row_cols += other.pivot_row_cols;
        self.lu_nucleus_rows += other.lu_nucleus_rows;
    }

    /// Every count under its field name, in declaration order, as the
    /// `milp.exit` event and the renders key them.
    pub fn fields(&self) -> [(&'static str, usize); 10] {
        [
            ("refactors", self.refactors),
            ("primal_pivots", self.primal_pivots),
            ("dual_pivots", self.dual_pivots),
            ("bound_flips", self.bound_flips),
            ("lu_nnz", self.lu_nnz),
            ("eta_nnz_max", self.eta_nnz_max),
            ("pricing_row_nnz", self.pricing_row_nnz),
            ("dual_flips", self.dual_flips),
            ("pivot_row_cols", self.pivot_row_cols),
            ("lu_nucleus_rows", self.lu_nucleus_rows),
        ]
    }

    /// The counts as a JSON object keyed by field name.
    pub fn to_json(&self) -> dynp_obs::JsonValue {
        self.fields()
            .into_iter()
            .fold(dynp_obs::JsonValue::object(), |obj, (field, n)| {
                obj.with(field, n)
            })
    }
}

/// A solved LP relaxation.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Values of the *structural* variables (slacks stripped).
    pub x: Vec<f64>,
    /// Phase-2 reduced costs of the structural variables (0 for basic
    /// ones). At optimality these certify the bound and enable
    /// reduced-cost fixing in branch & bound: forcing a nonbasic variable
    /// off its bound costs at least its reduced cost.
    pub reduced_costs: Vec<f64>,
    /// Simplex iterations used (both phases).
    pub iterations: usize,
    /// What those iterations cost the kernel (abandoned attempts included,
    /// like `iterations`; see [`solve_lp`]).
    pub counts: KernelCounts,
    /// The optimal basis, captured for warm-starting child node LPs (see
    /// [`LpStart::Warm`]).
    pub basis: Basis,
}

/// A basis: the basic variable of each row and the nonbasic variables
/// resting at their upper bound — what a solve may start from
/// ([`LpStart`]) and what an optimal one ends on.
///
/// Indexing follows the solver's internal layout: structural variables
/// are `0..n`, the slack of the `k`-th **inequality** row (counting only
/// `≤`/`≥` rows, in row order) has index `n + k`, and one artificial per
/// row follows the slacks.
///
/// What installing a basis as a warm start costs before any bound is
/// looked at — the LU factorization and the perturbed-cost `d_N` —
/// depends on the model and the basis alone, so a `Basis` keeps it for
/// whoever installs the same one next: branch & bound hands both children
/// of a node one `Basis`, the first to arrive computes, its sibling
/// copies. That makes a `Basis` value belong to the model it was captured
/// from; a [`Clone`] is the same basis with nothing kept yet.
#[derive(Debug)]
pub struct Basis {
    /// Basic variable per row.
    pub basis: Vec<usize>,
    /// Nonbasic variables resting at their upper bound; all other
    /// nonbasic variables rest at their lower bound.
    pub at_upper: Vec<usize>,
    /// Filled by the first warm install; `None` inside once that found
    /// the basis singular. A crash install never touches it.
    fresh: WarmCell,
}

/// Where the installs of one [`Basis`] meet (boxed: an empty cell rides
/// in every [`LpSolution`]).
type WarmCell = OnceLock<Option<Box<FreshBasis>>>;

/// The bound-independent part of a warm install.
#[derive(Debug)]
struct FreshBasis {
    lu: LuFactor,
    /// Phase-2 reduced costs on the perturbed costs.
    d: Vec<f64>,
}

impl Basis {
    /// A basis from its basic variables (one per row) and the nonbasic
    /// variables at their upper bound.
    pub fn new(basis: Vec<usize>, at_upper: Vec<usize>) -> Basis {
        Basis {
            basis,
            at_upper,
            fresh: OnceLock::new(),
        }
    }
}

impl Clone for Basis {
    fn clone(&self) -> Basis {
        Basis::new(self.basis.clone(), self.at_upper.clone())
    }
}

/// Outcome of an LP solve.
// One per solve and taken apart at once by its caller, never stored in
// bulk: boxing the solution would buy nothing and cost every node LP an
// allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum LpOutcome {
    /// Proven optimal.
    Optimal(LpSolution),
    /// No feasible point exists (within tolerance).
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Gave up after the iteration limit; no usable bound.
    IterationLimit,
}

impl LpOutcome {
    /// The solution if optimal.
    pub fn optimal(&self) -> Option<&LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// Where [`solve_lp`] starts.
#[derive(Clone, Copy, Debug)]
pub enum LpStart<'b> {
    /// Phase 1 from the all-artificial basis.
    Cold,
    /// A primal-feasible basis without artificials ("crash basis") that
    /// skips phase 1. It is verified — nonsingular, primal feasible within
    /// tolerance — so a wrong crash can cost time but never correctness.
    /// A triangular crash (the assignment/capacity crash of time-indexed
    /// models) needs no declaration: it is all singletons to the LU,
    /// which factors it in O(nnz) with no fill.
    Crash(&'b Basis),
    /// A parent node's optimal basis under this LP's child bounds, the
    /// branch & bound case where one variable's bound changed: the basis
    /// may contain artificials (basic at zero on redundant parent rows)
    /// and need not be primal feasible — it stays *dual* feasible when
    /// only bounds change, so dual simplex pivots repair it and phase 1
    /// is skipped. Its factor and reduced costs are shared with the
    /// sibling that installs the same [`Basis`].
    Warm(&'b Basis),
}

/// Solves the LP relaxation of `model` under the variable bounds `lower`
/// / `upper` (as branch & bound fixes variables; integrality flags are
/// ignored) from `start`. Returns the outcome and whether the warm start
/// produced it.
///
/// One fallback rule covers every start. An attempt is *abandoned* when
/// its start is rejected (wrong length, duplicates, singular, a crash
/// that is not primal feasible), when the dual repair gives up, or when
/// a refactorization finds the evolved basis singular; a fresh solver
/// then re-solves the LP cold, and a cold attempt abandoned twice reports
/// [`LpOutcome::IterationLimit`]. An optimum's iterations and
/// [`KernelCounts`] include what the abandoned attempts cost, so a bad
/// start costs time, accounted for deterministically, never correctness.
pub fn solve_lp(
    model: &Milp,
    lower: &[f64],
    upper: &[f64],
    start: LpStart<'_>,
    max_iterations: usize,
) -> (LpOutcome, bool) {
    let cold_retries = 2 - usize::from(matches!(start, LpStart::Cold));
    let attempts = std::iter::once(start).chain(std::iter::repeat_n(LpStart::Cold, cold_retries));
    let (mut iterations, mut counts) = (0, KernelCounts::default());
    for attempt in attempts {
        let mut simplex = Simplex::new(model, lower, upper);
        let outcome = match simplex.run(attempt, max_iterations) {
            Ok(mut solution) => {
                solution.iterations += iterations;
                solution.counts.absorb(&counts);
                LpOutcome::Optimal(solution)
            }
            Err(Stop::Infeasible) => LpOutcome::Infeasible,
            Err(Stop::Unbounded) => LpOutcome::Unbounded,
            Err(Stop::IterationLimit) => LpOutcome::IterationLimit,
            Err(Stop::Abandoned) => {
                iterations += simplex.iterations;
                counts.absorb(&simplex.counts);
                continue;
            }
        };
        return (outcome, matches!(attempt, LpStart::Warm(_)));
    }
    // Numerically unrecoverable: an honest give-up rather than a loop.
    (LpOutcome::IterationLimit, false)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum VarState {
    Basic(usize),
    AtLower,
    AtUpper,
}

/// The constraint matrix as the solver sees it — `[A | slacks |
/// artificials]` — readable by column and by row.
struct Columns<'a> {
    model: &'a Milp,
    n_struct: usize,
    n_slack: usize,
    /// Row and sign of each slack variable.
    slack_row: Vec<usize>,
    slack_sign: Vec<f64>,
    /// Slack variable of each row (`usize::MAX` on equality rows).
    row_slack: Vec<usize>,
    /// Sign of the artificial column in each row.
    art_sign: Vec<f64>,
}

impl Columns<'_> {
    /// Structural and slack variables: everything but the artificials.
    fn n_real(&self) -> usize {
        self.n_struct + self.n_slack
    }

    /// The one entry `(row, value)` of slack or artificial column `j`.
    fn unit_column(&self, j: usize) -> (usize, f64) {
        if j < self.n_real() {
            let k = j - self.n_struct;
            (self.slack_row[k], self.slack_sign[k])
        } else {
            let r = j - self.n_real();
            (r, self.art_sign[r])
        }
    }

    /// Iterates the non-zero entries of column `j` (structural, slack or
    /// artificial) as `(row, value)`.
    fn for_column(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.n_struct {
            for run in self.model.matrix.col_runs(j) {
                for r in run.range() {
                    f(r, run.value);
                }
            }
        } else {
            let (r, v) = self.unit_column(j);
            f(r, v);
        }
    }

    /// Non-zeros of row `i` across all three column groups.
    fn row_len(&self, i: usize) -> usize {
        self.model.matrix.row_nnz(i) + usize::from(self.row_slack[i] != usize::MAX) + 1
    }

    /// The entries `(variable, value)` of row `i` outside the structural
    /// columns: its slack, if it has one, and its artificial.
    fn unit_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> {
        let slack = self.row_slack[i];
        let slack = (slack != usize::MAX).then(|| (slack, self.slack_sign[slack - self.n_struct]));
        slack
            .into_iter()
            .chain([(self.n_real() + i, self.art_sign[i])])
    }
}

/// Breakpoints a long dual step hands out per ordering pass.
const BREAKPOINT_BATCH: usize = 16;

/// The finite breakpoints of one dual pivot row as `(ratio bits, column)`
/// keys — the bit patterns order like the non-negative floats they are —
/// handed out in ascending order, lowest column first among tied ratios.
/// Nothing is ordered until the first [`Breakpoints::pop`], and each
/// pass then orders only the next [`BREAKPOINT_BATCH`] of what is left
/// (select them, sort them): a step that passes a handful of breakpoints
/// pays for a handful, not for all of them. The keys are distinct (one
/// per column), so an unstable selection still fixes the sequence.
#[derive(Default)]
struct Breakpoints {
    keys: Vec<(u64, u32)>,
    /// `keys[..sorted]` are the smallest keys, ascending.
    sorted: usize,
    /// How many of those [`Breakpoints::pop`] has handed out.
    taken: usize,
}

impl Breakpoints {
    fn clear(&mut self) {
        self.keys.clear();
        self.sorted = 0;
        self.taken = 0;
    }

    fn push(&mut self, ratio: f64, column: u32) {
        self.keys.push((ratio.to_bits(), column));
    }

    /// The column of the smallest key not yet handed out.
    fn pop(&mut self) -> Option<u32> {
        if self.taken == self.sorted {
            let rest = &mut self.keys[self.sorted..];
            let batch = rest.len().min(BREAKPOINT_BATCH);
            if batch == 0 {
                return None;
            }
            if batch < rest.len() {
                rest.select_nth_unstable(batch - 1);
            }
            rest[..batch].sort_unstable();
            self.sorted += batch;
        }
        self.taken += 1;
        Some(self.keys[self.taken - 1].1)
    }
}

struct Simplex<'a> {
    a: Columns<'a>,
    m: usize,
    n_total: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    basis: Vec<usize>,
    state: Vec<VarState>,
    /// LU of the basis matrix (column `k` = column of `basis[k]`) plus the
    /// etas of the pivots since; stale until the first
    /// [`Simplex::refactor`].
    lu: LuFactor,
    /// Current values of all variables.
    x: Vec<f64>,
    iterations: usize,
    /// Rotating cursor for partial pricing.
    price_start: usize,
    /// Whether [`Simplex::cost`] currently adds the model's phase-2 cost
    /// perturbation (see [`cost_perturbation`]). The final cleanup pass
    /// re-optimizes on the true costs, so the reported optimum is exact.
    perturbed: bool,
    /// Phase-2 reduced costs `d_j = c_j − yᵀA_j` of the nonbasic
    /// variables (0 for basic ones). Derived by
    /// [`Simplex::compute_duals`]; the dual repair then carries them
    /// from pivot to pivot and only re-derives them at a
    /// refactorization.
    d: Vec<f64>,
    counts: KernelCounts,
    /// Scratch owned by the solver so no kernel call allocates: a
    /// row-indexed right-hand side and the FTRAN result by basis
    /// position; a position-indexed right-hand side and the BTRAN result
    /// by row; the pivot row of the dual.
    rhs_rows: Vec<f64>,
    w: Vec<f64>,
    rhs_pos: Vec<f64>,
    y: Vec<f64>,
    /// The `y` that [`Simplex::btran_costs`] left, with its prefix sums
    /// ([`Simplex::pivot_row`] reuses `y` itself for a pricing row).
    y_sums: PrefixSums,
    alpha: Vec<f64>,
    /// The columns the current pivot row wrote in [`Simplex::alpha`]:
    /// one byte per column, set by the row walk and swept (and cleared)
    /// word by word into the ascending list `reached`. Everything a dual
    /// pivot does per column visits that list, never all of `alpha`.
    /// All zero between pivots, so [`Simplex::install`] borrows the marks
    /// for its duplicate check.
    reach: Vec<u8>,
    reached: Vec<u32>,
    /// Scratch of the long-step ratio test: the columns one dual pivot
    /// flips, and the finite breakpoints of the reached columns, which a
    /// step that passes the nearest one draws the others from.
    flips: Vec<usize>,
    breakpoints: Breakpoints,
    /// Largest relative distance between a carried `d_j` and its
    /// re-derived value, over the refactorizations of the dual repair.
    #[cfg(test)]
    dual_drift: f64,
    /// Over the dual pivots of the repair: the largest relative distance
    /// between a carried basic value and `B⁻¹(b − N x_N)` computed
    /// afresh, and the largest amount, relative to the column's cost, by
    /// which the `d_j` of a column a pivot flipped has the sign its new
    /// bound forbids.
    #[cfg(test)]
    basics_drift: f64,
    #[cfg(test)]
    dual_infeasibility: f64,
}

/// Relative scale of the phase-2 cost perturbation: column `j` gets
/// `PERT * (1 + |c_j|) * xi_j` added while [`Simplex::perturbed`] is set.
/// The relative form keeps the noise proportional to the cost it breaks
/// ties on — large time-indexed costs (`width * t`) get proportionally
/// large noise, so pricing still separates them after the reduced-cost
/// arithmetic loses low bits. The models this solver sees have integral
/// cost data, so only *exact* ties are perturbed, and the true-cost
/// cleanup pass after the perturbed run has at most a few
/// epsilon-reduced-cost columns to reconsider (measured: ~1 iteration)
/// instead of re-fighting the full degeneracy.
const PERT: f64 = 1e-7;

/// SplitMix64: a deterministic index-to-noise mix for the perturbation.
fn mix64(j: u64) -> u64 {
    let mut z = j.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-structural-column phase-2 cost perturbation, a deterministic
/// pure function of the objective — so [`Milp::new`] builds it once and
/// every node LP borrows it. Time-indexed models price thousands of
/// columns identically (`width * t` ties across jobs), which degenerates
/// Dantzig pricing into near-cycling; the perturbation breaks every tie
/// so phase 2 makes strict progress.
pub(crate) fn cost_perturbation(objective: &[f64]) -> Vec<f64> {
    objective
        .iter()
        .enumerate()
        .map(|(j, c)| {
            // xi in [0.5, 1.0): never zero, always tie-breaking.
            let xi = 0.5 + (mix64(j as u64) >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
            PERT * (1.0 + c.abs()) * xi
        })
        .collect()
}

#[cfg(test)]
thread_local! {
    /// Test builds: how many of the next mid-solve refactorization checks
    /// on this thread report the basis singular, whether or not one was
    /// due — the trigger of the singular fallbacks, which no model here
    /// reaches.
    static SINGULAR_REFACTORS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<'a> Simplex<'a> {
    fn new(model: &'a Milp, node_lower: &[f64], node_upper: &[f64]) -> Simplex<'a> {
        let m = model.num_constraints();
        let n_struct = model.num_vars();
        assert_eq!(node_lower.len(), n_struct);
        assert_eq!(node_upper.len(), n_struct);
        let mut slack_row = Vec::new();
        let mut slack_sign = Vec::new();
        let mut row_slack = vec![usize::MAX; m];
        for (i, sense) in model.senses.iter().enumerate() {
            let sign = match sense {
                Sense::Le => 1.0,
                Sense::Ge => -1.0,
                Sense::Eq => continue,
            };
            row_slack[i] = n_struct + slack_row.len();
            slack_row.push(i);
            slack_sign.push(sign);
        }
        let n_slack = slack_row.len();
        let n_total = n_struct + n_slack + m;
        let mut lower = Vec::with_capacity(n_total);
        let mut upper = Vec::with_capacity(n_total);
        lower.extend_from_slice(node_lower);
        upper.extend_from_slice(node_upper);
        lower.resize(n_total, 0.0);
        upper.resize(n_total, f64::INFINITY);

        let mut sx = Simplex {
            a: Columns {
                model,
                n_struct,
                n_slack,
                slack_row,
                slack_sign,
                row_slack,
                art_sign: vec![1.0; m],
            },
            m,
            n_total,
            lower,
            upper,
            basis: Vec::new(),
            state: vec![VarState::AtLower; n_total],
            lu: LuFactor::default(),
            x: vec![0.0; n_total],
            iterations: 0,
            price_start: 0,
            perturbed: false,
            d: vec![0.0; n_total],
            counts: KernelCounts::default(),
            rhs_rows: vec![0.0; m],
            w: vec![0.0; m],
            rhs_pos: vec![0.0; m],
            y: vec![0.0; m],
            y_sums: PrefixSums::default(),
            alpha: vec![0.0; n_total],
            reach: vec![0; n_total.next_multiple_of(8)],
            reached: Vec::new(),
            flips: Vec::new(),
            breakpoints: Breakpoints::default(),
            #[cfg(test)]
            dual_drift: 0.0,
            #[cfg(test)]
            basics_drift: 0.0,
            #[cfg(test)]
            dual_infeasibility: 0.0,
        };
        sx.initialize();
        sx
    }

    /// Rests every structural and slack variable on a finite bound: the
    /// lower one if there is one, else the upper, else zero (a free
    /// variable is treated as "at lower" with an infinite bound; it can
    /// enter but never flip).
    fn park_nonbasics(&mut self) {
        for j in 0..self.a.n_real() {
            (self.state[j], self.x[j]) = if self.lower[j].is_finite() {
                (VarState::AtLower, self.lower[j])
            } else if self.upper[j].is_finite() {
                (VarState::AtUpper, self.upper[j])
            } else {
                (VarState::AtLower, 0.0)
            };
        }
    }

    /// Places nonbasic variables on a bound and sets up the
    /// all-artificial starting basis with signs chosen so artificial
    /// values are >= 0. The basis is not factorized here: a crash or warm
    /// install usually replaces it first.
    fn initialize(&mut self) {
        self.park_nonbasics();
        // Residual r = b - A x_N decides artificial signs.
        let mut residual = self.a.model.rhs.clone();
        for j in 0..self.a.n_real() {
            let xj = self.x[j];
            if xj != 0.0 {
                self.a.for_column(j, |r, v| residual[r] -= v * xj);
            }
        }
        self.basis = Vec::with_capacity(self.m);
        for i in 0..self.m {
            self.a.art_sign[i] = if residual[i] >= 0.0 { 1.0 } else { -1.0 };
            let art = self.a.n_real() + i;
            self.basis.push(art);
            self.state[art] = VarState::Basic(i);
            self.x[art] = residual[i].abs();
        }
    }

    /// Cost vector of the given phase.
    fn cost(&self, phase1: bool, j: usize) -> f64 {
        if phase1 {
            if j >= self.a.n_real() {
                1.0
            } else {
                0.0
            }
        } else if j < self.a.n_struct {
            if self.perturbed {
                self.a.model.objective[j] + self.a.model.perturbation()[j]
            } else {
                self.a.model.objective[j]
            }
        } else {
            0.0
        }
    }

    /// Reduced cost `c_j − yᵀA_j` of column `j` against the `y` of the
    /// last [`Simplex::btran_costs`]; a structural column is priced from
    /// its prefix sums, two lookups per run.
    fn reduced_cost(&self, phase1: bool, j: usize) -> f64 {
        let cost = self.cost(phase1, j);
        if j < self.a.n_struct {
            let matrix = &self.a.model.matrix;
            matrix.reduced_cost(j, cost, &self.y_sums)
        } else {
            let (r, v) = self.a.unit_column(j);
            cost - self.y[r] * v
        }
    }

    /// Reduced-cost test of one nonbasic column: returns `(|d|, direction)`
    /// when entering `j` improves the phase objective.
    fn price_candidate(&self, phase1: bool, j: usize) -> Option<(f64, f64)> {
        let dir = match self.state[j] {
            VarState::Basic(_) => return None,
            VarState::AtLower => 1.0,
            VarState::AtUpper => -1.0,
        };
        if self.lower[j] == self.upper[j] {
            return None; // fixed (e.g. neutralized artificials)
        }
        let d = self.reduced_cost(phase1, j);
        let improving = if dir > 0.0 { d < -TOL } else { d > TOL };
        improving.then_some((d.abs(), dir))
    }

    /// `y = c_Bᵀ B⁻¹` for the given phase's costs, into [`Simplex::y`],
    /// and a copy with its prefix sums into [`Simplex::y_sums`].
    fn btran_costs(&mut self, phase1: bool) {
        for k in 0..self.m {
            self.rhs_pos[k] = self.cost(phase1, self.basis[k]);
        }
        self.lu.btran(&mut self.rhs_pos, &mut self.y);
        self.y_sums.refill(&self.y);
    }

    /// `w = B⁻¹ A_j`, into [`Simplex::w`].
    fn ftran(&mut self, j: usize) {
        self.rhs_rows.fill(0.0);
        let rhs = &mut self.rhs_rows;
        self.a.for_column(j, |r, v| rhs[r] = v);
        self.lu.ftran(&mut self.rhs_rows, &mut self.w);
    }

    /// Factorizes the current basis afresh (dropping the eta file) and
    /// recomputes the basic values from it. Returns `false` on a singular
    /// basis, leaving the factor unusable: the attempt is abandoned.
    fn refactor(&mut self) -> bool {
        let (a, basis) = (&self.a, &self.basis);
        let Some(lu) = LuFactor::factor(self.m, |k, sink| a.for_column(basis[k], sink)) else {
            return false;
        };
        self.adopt_factor(lu);
        true
    }

    /// The refactorization an iteration starts with once the eta file has
    /// outgrown the factor: `Ok(true)` when it ran, and
    /// [`Stop::Abandoned`] when it found the evolved basis numerically
    /// singular (a pivot accepted on drifted values can do that). Test
    /// builds fail it on demand ([`SINGULAR_REFACTORS`]).
    fn refactor_when_due(&mut self) -> Result<bool, Stop> {
        #[cfg(test)]
        if SINGULAR_REFACTORS.with(|n| n.replace(n.get().saturating_sub(1))) > 0 {
            return Err(Stop::Abandoned);
        }
        if !self.lu.needs_refactor() {
            return Ok(false);
        }
        self.refactor().then_some(true).ok_or(Stop::Abandoned)
    }

    /// Takes `lu` as the fresh factor of the current basis — counted the
    /// same whoever computed it — and recomputes the basic values.
    fn adopt_factor(&mut self, lu: LuFactor) {
        self.counts.refactors += 1;
        self.counts.lu_nnz += lu.factor_nnz();
        self.counts.lu_nucleus_rows += lu.nucleus_rows();
        self.lu = lu;
        self.recompute_basics();
    }

    /// Records the basis change "position `r` now holds the column whose
    /// FTRAN image is [`Simplex::w`]" in the eta file.
    fn push_eta(&mut self, r: usize) {
        self.lu.update(r, &self.w);
        self.counts.eta_nnz_max = self.counts.eta_nnz_max.max(self.lu.eta_nnz());
    }

    /// Installs the basis a crash (`warm == false`) or warm start brings;
    /// returns whether it is usable — an unusable one abandons the
    /// attempt (see [`solve_lp`]).
    ///
    /// A crash basis may not contain artificials and must be primal
    /// feasible, so phase 1 can be skipped. A warm basis may contain
    /// artificials — basic at zero on redundant parent rows — and need
    /// *not* be primal feasible: bound changes make exactly the branched
    /// variable's row infeasible, which [`Self::run_dual`] repairs from
    /// the perturbed-cost `d_N` a warm install leaves in [`Simplex::d`].
    /// Either must be structurally sound: right length, no duplicates,
    /// nonsingular.
    fn install(&mut self, start: &Basis, warm: bool) -> bool {
        let n_real = self.a.n_real();
        let var_limit = if warm { self.n_total } else { n_real };
        if start.basis.len() != self.m || start.basis.iter().any(|&v| v >= var_limit) {
            return false;
        }
        // Nonbasic structural + slack variables onto a bound of this LP —
        // a parent's at_upper choices stay dual feasible because reduced
        // costs depend on the basis and objective, not on the bound
        // values.
        self.park_nonbasics();
        for &j in &start.at_upper {
            if j < n_real && self.upper[j].is_finite() {
                self.state[j] = VarState::AtUpper;
                self.x[j] = self.upper[j];
            }
        }
        // Artificials pinned to [0,0] exactly as at the end of phase 1:
        // nonbasic ones can never re-enter; basic ones (redundant rows)
        // are driven out or stay at zero.
        for art in n_real..self.n_total {
            self.state[art] = VarState::AtLower;
            self.x[art] = 0.0;
            self.upper[art] = 0.0;
        }
        let mut distinct = true;
        for (row, &var) in start.basis.iter().enumerate() {
            if std::mem::replace(&mut self.reach[var], 1) == 1 {
                distinct = false;
                break;
            }
            self.basis[row] = var;
            self.state[var] = VarState::Basic(row);
        }
        for &var in &start.basis {
            self.reach[var] = 0;
        }
        distinct
            && if warm {
                self.factor_warm(&start.fresh)
            } else {
                self.refactor() && self.is_primal_feasible()
            }
    }

    /// The bound-independent part of a warm install — the factorization
    /// of the basis just placed and its reduced costs on the perturbed
    /// costs, which the repair and the polish run on — computed into
    /// `fresh` unless another install of the same [`Basis`] already did,
    /// copied from it otherwise. Returns `false` on a singular basis.
    fn factor_warm(&mut self, fresh: &WarmCell) -> bool {
        self.perturbed = true;
        let mut computed_here = false;
        let fresh = fresh.get_or_init(|| {
            computed_here = true;
            self.refactor().then(|| {
                self.compute_duals();
                Box::new(FreshBasis {
                    lu: self.lu.clone(),
                    d: self.d.clone(),
                })
            })
        });
        match fresh {
            None => false,
            Some(_) if computed_here => true,
            Some(fresh) => {
                self.d.clone_from(&fresh.d);
                self.adopt_factor(fresh.lu.clone());
                true
            }
        }
    }

    /// Derives the phase-2 reduced costs of every nonbasic variable from
    /// scratch: one BTRAN for `y`, one pass over the columns.
    fn compute_duals(&mut self) {
        self.btran_costs(false);
        for j in 0..self.n_total {
            self.d[j] = match self.state[j] {
                VarState::Basic(_) => 0.0,
                _ => self.reduced_cost(false, j),
            };
        }
    }

    /// [`Self::compute_duals`] after a refactorization in the middle of a
    /// dual repair; test builds also record how far the carried values
    /// had drifted from the fresh ones.
    fn rederive_duals(&mut self) {
        #[cfg(test)]
        let carried = self.d.clone();
        self.compute_duals();
        #[cfg(test)]
        for j in 0..self.n_total {
            if !matches!(self.state[j], VarState::Basic(_)) {
                let drift = (carried[j] - self.d[j]).abs() / (1.0 + self.d[j].abs());
                self.dual_drift = self.dual_drift.max(drift);
            }
        }
    }

    /// Row `r` of `B⁻¹[A | slacks | artificials]` into
    /// [`Simplex::alpha`]: one BTRAN of `e_r` for `ρ_r`, then
    /// `α_j = ρ_rᵀA_j` accumulated by walking only the rows of the matrix
    /// where `ρ_r` is non-zero — run by run, `α[first..end] += ρ_i·v`,
    /// which adds to every column what an entry-wise walk adds and in the
    /// same row order, so `α_r` is the same to the bit — and the columns
    /// that walk wrote into `reached`, ascending. Columns outside that
    /// list hold an exact zero and are none of the dual pivot's business:
    /// the previous row's entries are cleared, and this row's are priced
    /// and updated, through the list alone.
    ///
    /// Recording the reach must not tax the walk, which on a dense `ρ_r`
    /// visits every column many times over. While the walk has fewer
    /// entries than the model has columns it marks a byte per entry — a
    /// fill of the run's range — and the marks are swept eight at a
    /// time. A longer walk is left alone and the non-zeros of `alpha` are
    /// collected after it: either way the row pays for what it reaches.
    fn pivot_row(&mut self, r: usize) {
        for &j in &self.reached {
            self.alpha[j as usize] = 0.0;
        }
        self.reached.clear();
        self.rhs_pos.fill(0.0);
        self.rhs_pos[r] = 1.0;
        self.lu.btran(&mut self.rhs_pos, &mut self.y);
        let touched = |rho: f64| rho.abs() > RHO_DROP_TOL;
        let walk: usize = (0..self.m)
            .filter(|&i| touched(self.y[i]))
            .map(|i| self.a.row_len(i))
            .sum();
        let marking = walk < self.n_total;
        let (alpha, reach) = (&mut self.alpha[..], &mut self.reach[..]);
        for i in 0..self.m {
            let rho = self.y[i];
            if !touched(rho) {
                continue;
            }
            self.counts.pricing_row_nnz += 1;
            let matrix = &self.a.model.matrix;
            matrix.add_row(i, rho, alpha);
            if marking {
                for run in matrix.row_runs(i) {
                    reach[run.range()].fill(1);
                }
            }
            for (j, v) in self.a.unit_entries(i) {
                alpha[j] += rho * v;
                if marking {
                    reach[j] = 1;
                }
            }
        }
        if marking {
            for (word, marks) in self.reach.chunks_exact_mut(8).enumerate() {
                let mut bits = u64::from_le_bytes((&*marks).try_into().expect("chunks of 8"));
                if bits != 0 {
                    marks.fill(0);
                }
                while bits != 0 {
                    self.reached
                        .push((word << 3) as u32 | bits.trailing_zeros() >> 3);
                    bits &= bits - 1;
                }
            }
        } else {
            self.reached.extend(
                (0..self.n_total)
                    .filter(|&j| self.alpha[j] != 0.0)
                    .map(|j| j as u32),
            );
        }
        self.counts.pivot_row_cols += self.reached.len();
    }

    /// The breakpoint `|d_j| / |α_rj|` of column `j` on the current pivot
    /// row — the dual step at which its reduced cost reaches zero — if
    /// `j` can repair the row: nonbasic, not fixed, a pivot-sized `α_rj`,
    /// and moving off its bound shifts the leaving variable toward the
    /// bound it violates (`above`: it must come down).
    fn breakpoint(&self, j: usize, above: bool) -> Option<f64> {
        let alpha = self.alpha[j];
        if alpha.abs() <= PIVOT_TOL {
            return None; // cancelled to nothing, or too small to pivot on
        }
        let dir = match self.state[j] {
            VarState::Basic(_) => return None,
            VarState::AtLower => 1.0,
            VarState::AtUpper => -1.0,
        };
        // x_B[r] changes by -dir * alpha * t; "above" needs a decrease,
        // "below" an increase. Tested first: it needs no bound loaded.
        if above != (dir * alpha > 0.0) {
            return None;
        }
        if self.lower[j] == self.upper[j] {
            return None; // fixed (pinned artificials, fixed vars)
        }
        Some(self.d[j].abs() / alpha.abs())
    }

    /// Dual simplex: starting from a dual-feasible basis whose basic
    /// values may violate their bounds, pivot the most-violating basic
    /// variable out (onto the bound it violates) and an admissible
    /// nonbasic column in, until primal feasible.
    ///
    /// The entering column comes from a **long-step (bound-flipping)
    /// ratio test**. The breakpoints `|d_j| / |α_rj|` of the columns the
    /// pivot row reaches are met nearest first. A boxed column whose
    /// whole range `u_j − l_j` cannot close the leaving row's violation —
    /// what is left of it after `|α_rj|·(u_j − l_j)` stays above [`TOL`]
    /// — does not enter: it is flipped to its other bound, where the
    /// sign its reduced cost takes beyond the breakpoint is the feasible
    /// one, and the step goes on to the next breakpoint. The column at
    /// which the violation would close enters. All flips of one pivot
    /// reach `x_B` through one FTRAN of `Σ a_j·Δx_j`; the `d_N` update
    /// is the textbook one. A step that passes no breakpoint *is* the
    /// textbook min-ratio test, and costs the same: the first breakpoint
    /// is found by one pass over the reached columns, which also keeps
    /// every finite breakpoint as a `(ratio bits, column)` key, and only
    /// a step that passes it queues the others — [`Breakpoints`] hands
    /// them out in key order, selecting and sorting the next
    /// [`BREAKPOINT_BATCH`] of them whenever the step has used up the
    /// last, so a step that passes five breakpoints orders sixteen, not
    /// the thousands a wide row reaches.
    ///
    /// Every choice keeps dual feasibility and every tie breaks on the
    /// lowest index, so the repair is deterministic. The primal
    /// objective is non-decreasing along the way; [`STALL_LIMIT`]
    /// degenerate steps in a row give up ([`Stop::Abandoned`]) instead of
    /// risking a cycle, and [`solve_lp`] re-solves the LP cold.
    ///
    /// Per pivot: one BTRAN of a unit vector, one walk over the rows of
    /// `A` it touches, two passes over the columns that walk reached
    /// (ratio test, `d_N` update), one FTRAN — two when it flips — and a
    /// scan of the basic values. Only [`Self::pivot_row`]'s collecting of
    /// the reached columns looks past them, at a byte or a zero each.
    ///
    /// Starts from the `d_N` the warm [`Self::install`] left.
    fn run_dual(&mut self, max_iterations: usize) -> Result<(), Stop> {
        let mut stall = 0usize;
        // Only objective *changes* feed the stall detector, so it is
        // tracked relative to the starting basis.
        let mut obj = 0.0;
        let mut last_obj = f64::NEG_INFINITY;
        let mut last_viol = f64::INFINITY;
        loop {
            if self.iterations >= max_iterations {
                return Err(Stop::IterationLimit);
            }
            if self.iterations & 0xff == 0 && dynp_obs::cancelled() {
                return Err(Stop::IterationLimit);
            }
            if self.refactor_when_due()? {
                self.rederive_duals();
            }
            // Leaving row: the most infeasible basic variable. The scan
            // also totals the infeasibility — reducing it is progress
            // even when the (often degenerate) objective stands still.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, above)
            let mut total_viol = 0.0;
            for i in 0..self.m {
                let var = self.basis[i];
                let xb = self.x[var];
                let (viol, above) = if xb > self.upper[var] + TOL {
                    (xb - self.upper[var], true)
                } else if xb < self.lower[var] - TOL {
                    (self.lower[var] - xb, false)
                } else {
                    continue;
                };
                total_viol += viol;
                if leave.is_none_or(|(_, best, _)| viol > best) {
                    leave = Some((i, viol, above));
                }
            }
            if total_viol < last_viol - TOL {
                stall = 0;
            }
            last_viol = total_viol;
            let Some((r, violation, above)) = leave else {
                return Ok(()); // primal repaired
            };
            self.iterations += 1;
            self.pivot_row(r);
            // The nearest breakpoint: the textbook min-ratio candidate.
            // The same pass keeps every finite one (`ratio < ∞` also
            // drops NaN) for a step that goes past it.
            let mut next: Option<usize> = None;
            let mut nearest = f64::INFINITY;
            self.breakpoints.clear();
            for &j in &self.reached {
                let Some(ratio) = self.breakpoint(j as usize, above) else {
                    continue;
                };
                if ratio < f64::INFINITY {
                    self.breakpoints.push(ratio, j);
                    if ratio < nearest {
                        (nearest, next) = (ratio, Some(j as usize));
                    }
                }
            }
            // Walk the breakpoints while the step passes them. `slope` is
            // what remains of row r's violation once every column passed
            // so far rests on its other bound.
            let mut slope = violation;
            self.flips.clear();
            let j_enter = loop {
                let Some(j) = next else {
                    // Every column that could repair row r already does
                    // all it can and the row is still violated: a primal
                    // infeasibility certificate. Trust it only when what
                    // is left is decisively larger than the feasibility
                    // tolerance; a borderline certificate is left to the
                    // cold phase-1 proof instead.
                    return Err(if slope > 1e-6 {
                        Stop::Infeasible
                    } else {
                        Stop::Abandoned
                    });
                };
                // An unbounded range sends `passed` to -inf: such a
                // column always enters.
                let passed = slope - self.alpha[j].abs() * (self.upper[j] - self.lower[j]);
                if passed <= TOL {
                    break j;
                }
                slope = passed;
                self.flips.push(j);
                if self.flips.len() == 1 {
                    // Only a step that passes the nearest breakpoint
                    // orders the others; the first of them is that one.
                    let first = self.breakpoints.pop();
                    debug_assert_eq!(first, Some(j as u32));
                }
                next = self.breakpoints.pop().map(|col| col as usize);
            };
            if !self.flips.is_empty() {
                // x_B = B⁻¹(b − N x_N): the flips move x_N by Δx, so x_B
                // moves by −B⁻¹ Σ a_j Δx_j — one FTRAN for all of them.
                self.rhs_rows.fill(0.0);
                for &j in &self.flips {
                    let (to, state) = match self.state[j] {
                        VarState::AtLower => (self.upper[j], VarState::AtUpper),
                        VarState::AtUpper => (self.lower[j], VarState::AtLower),
                        VarState::Basic(_) => unreachable!("flipped var is nonbasic"),
                    };
                    let delta = to - self.x[j];
                    obj += self.d[j] * delta;
                    self.x[j] = to;
                    self.state[j] = state;
                    let rhs = &mut self.rhs_rows;
                    self.a.for_column(j, |i, v| rhs[i] += v * delta);
                }
                self.lu.ftran(&mut self.rhs_rows, &mut self.w);
                for i in 0..self.m {
                    self.x[self.basis[i]] -= self.w[i];
                }
                self.counts.dual_flips += self.flips.len();
            }
            let dir = match self.state[j_enter] {
                VarState::AtLower => 1.0,
                VarState::AtUpper => -1.0,
                VarState::Basic(_) => unreachable!("entering var is nonbasic"),
            };
            self.ftran(j_enter);
            if self.w[r].abs() <= PIVOT_TOL {
                return Err(Stop::Abandoned); // drift between rho and w
            }
            let leaving = self.basis[r];
            let target = if above {
                self.upper[leaving]
            } else {
                self.lower[leaving]
            };
            // Step length that lands the leaving variable on its bound.
            let t = ((self.x[leaving] - target) / (dir * self.w[r])).max(0.0);
            self.x[j_enter] += dir * t;
            for i in 0..self.m {
                self.x[self.basis[i]] -= dir * t * self.w[i];
            }
            self.x[leaving] = target;
            self.state[leaving] = if above {
                VarState::AtUpper
            } else {
                VarState::AtLower
            };
            self.basis[r] = j_enter;
            self.state[j_enter] = VarState::Basic(r);
            // Carry the reduced costs across the basis change:
            // d_j -= theta * alpha_j along the pivot row, which sends the
            // entering column's to zero, the leaving one's to -theta, and
            // a flipped column's across zero — to the sign its new bound
            // allows.
            let d_enter = self.d[j_enter];
            let theta = d_enter / self.alpha[j_enter];
            for &j in &self.reached {
                let j = j as usize;
                if !matches!(self.state[j], VarState::Basic(_)) {
                    self.d[j] -= theta * self.alpha[j];
                }
            }
            self.d[leaving] = -theta;
            self.d[j_enter] = 0.0;
            self.push_eta(r);
            self.counts.dual_pivots += 1;
            #[cfg(test)]
            self.audit_dual_pivot();
            // The primal objective is non-decreasing in dual simplex;
            // degenerate (zero-progress) steps feed the stall counter.
            obj += d_enter * dir * t;
            if obj > last_obj + TOL {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
                if stall >= STALL_LIMIT {
                    return Err(Stop::Abandoned);
                }
            }
        }
    }

    /// Test builds check what a long-step pivot carries instead of
    /// recomputing: the basic values against a fresh `B⁻¹(b − N x_N)`,
    /// and every column it flipped against the bound the sign of its
    /// updated `d_j` allows. (Not every nonbasic column: the repair runs
    /// on perturbed costs from a basis optimal for the true ones, so
    /// columns no pivot touched start up to the perturbation off.) The
    /// carried values are put back, so test builds take the same path as
    /// any other.
    #[cfg(test)]
    fn audit_dual_pivot(&mut self) {
        let carried: Vec<f64> = self.basis.iter().map(|&var| self.x[var]).collect();
        self.recompute_basics();
        for (k, &var) in self.basis.iter().enumerate() {
            let drift = (carried[k] - self.x[var]).abs() / (1.0 + self.x[var].abs());
            self.basics_drift = self.basics_drift.max(drift);
            self.x[var] = carried[k];
        }
        for &j in &self.flips {
            let wrong = match self.state[j] {
                VarState::Basic(_) => unreachable!("flipped var is nonbasic"),
                VarState::AtLower => -self.d[j],
                VarState::AtUpper => self.d[j],
            };
            let scale = 1.0 + self.cost(false, j).abs();
            self.dual_infeasibility = self.dual_infeasibility.max(wrong / scale);
        }
    }

    /// Checks the current basic values against their bounds.
    fn is_primal_feasible(&self) -> bool {
        self.basis.iter().all(|&var| {
            self.x[var] >= self.lower[var] - TOL && self.x[var] <= self.upper[var] + TOL
        })
    }

    /// x_B = B^-1 (b - N x_N).
    fn recompute_basics(&mut self) {
        self.rhs_rows.copy_from_slice(&self.a.model.rhs);
        for j in 0..self.n_total {
            if let VarState::Basic(_) = self.state[j] {
                continue;
            }
            let xj = self.x[j];
            if xj != 0.0 {
                let rhs = &mut self.rhs_rows;
                self.a.for_column(j, |r, v| rhs[r] -= v * xj);
            }
        }
        self.lu.ftran(&mut self.rhs_rows, &mut self.w);
        for k in 0..self.m {
            self.x[self.basis[k]] = self.w[k];
        }
    }

    /// One phase of the simplex; returns `Ok(())` at optimality.
    fn run_phase(&mut self, phase1: bool, max_iterations: usize) -> Result<(), Stop> {
        let mut stall = 0usize;
        // Only objective *changes* feed the stall detector, so it is
        // tracked relative to the phase's starting point.
        let mut obj = 0.0;
        let mut last_obj = f64::INFINITY;
        loop {
            if self.iterations >= max_iterations {
                return Err(Stop::IterationLimit);
            }
            // Poll the cooperative cancel token every 256 iterations; a
            // cancelled LP surfaces as the iteration limit, which the
            // branch-and-bound loop already folds into its budget
            // accounting. The mask keeps the common-path cost at one
            // branch per iteration.
            if self.iterations & 0xff == 0 && dynp_obs::cancelled() {
                return Err(Stop::IterationLimit);
            }
            self.iterations += 1;
            self.refactor_when_due()?;
            let bland = stall >= STALL_LIMIT;
            self.btran_costs(phase1);
            // Pricing: partial (rotating blocks) under Dantzig, full scan
            // from index 0 under Bland (anti-cycling needs a fixed order).
            let mut enter: Option<(usize, f64, f64)> = None; // (var, |d|, dir)
            if bland {
                for j in 0..self.n_total {
                    if let Some((d_abs, dir)) = self.price_candidate(phase1, j) {
                        enter = Some((j, d_abs, dir));
                        break; // Bland: first improving index wins
                    }
                }
            } else {
                // Rotate through blocks; stop at the end of the first
                // block that contained an improving column.
                let n = self.n_total;
                let mut scanned = 0usize;
                while scanned < n {
                    let block_end = (scanned + PARTIAL_BLOCK).min(n);
                    for off in scanned..block_end {
                        let j = (self.price_start + off) % n;
                        if let Some((d_abs, dir)) = self.price_candidate(phase1, j) {
                            if enter.is_none_or(|(_, best, _)| d_abs > best) {
                                enter = Some((j, d_abs, dir));
                            }
                        }
                    }
                    scanned = block_end;
                    if enter.is_some() {
                        self.price_start = (self.price_start + scanned) % n;
                        break;
                    }
                }
            }
            let Some((j_enter, d_abs, dir)) = enter else {
                return Ok(()); // optimal for this phase
            };
            // Ratio test.
            self.ftran(j_enter);
            let range = self.upper[j_enter] - self.lower[j_enter]; // may be inf
            let mut t_max = range;
            let mut blocking: Option<usize> = None; // basis row
            for i in 0..self.m {
                let delta = dir * self.w[i]; // x_B[i] decreases by delta * t
                let var = self.basis[i];
                let xb = self.x[var];
                if delta > PIVOT_TOL {
                    let slack = xb - self.lower[var];
                    let t = slack.max(0.0) / delta;
                    if t < t_max {
                        t_max = t;
                        blocking = Some(i);
                    }
                } else if delta < -PIVOT_TOL {
                    let headroom = self.upper[var] - xb;
                    if headroom.is_finite() {
                        let t = headroom.max(0.0) / (-delta);
                        if t < t_max {
                            t_max = t;
                            blocking = Some(i);
                        }
                    }
                }
            }
            if t_max.is_infinite() {
                return Err(if phase1 {
                    // Phase 1 objective is bounded below by 0; cannot be
                    // unbounded. Treat as numerical trouble.
                    Stop::IterationLimit
                } else {
                    Stop::Unbounded
                });
            }
            let t = t_max.max(0.0);
            // Apply the step.
            self.x[j_enter] += dir * t;
            for i in 0..self.m {
                self.x[self.basis[i]] -= dir * t * self.w[i];
            }
            match blocking {
                None => {
                    // Bound flip: entering variable hit its opposite bound.
                    self.state[j_enter] = match self.state[j_enter] {
                        VarState::AtLower => {
                            self.x[j_enter] = self.upper[j_enter];
                            VarState::AtUpper
                        }
                        VarState::AtUpper => {
                            self.x[j_enter] = self.lower[j_enter];
                            VarState::AtLower
                        }
                        VarState::Basic(_) => unreachable!("entering var is nonbasic"),
                    };
                    self.counts.bound_flips += 1;
                }
                Some(r) => {
                    let leaving = self.basis[r];
                    let delta = dir * self.w[r];
                    // Snap the leaving variable exactly onto the bound it hit.
                    if delta > 0.0 {
                        self.x[leaving] = self.lower[leaving];
                        self.state[leaving] = VarState::AtLower;
                    } else {
                        self.x[leaving] = self.upper[leaving];
                        self.state[leaving] = VarState::AtUpper;
                    }
                    self.basis[r] = j_enter;
                    self.state[j_enter] = VarState::Basic(r);
                    self.push_eta(r);
                    self.counts.primal_pivots += 1;
                }
            }
            // Stall detection on the phase objective, which the step
            // lowered by |d| per unit of the entering variable's move.
            obj -= d_abs * t;
            if obj < last_obj - TOL {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
            }
        }
    }

    /// Solves the LP from `start` — phase 1, a verified crash basis, or a
    /// dual repair of a warm one — then, whichever it was, phase 2 on the
    /// perturbed objective (every pricing tie broken, so progress is
    /// strict; a no-op after a dual repair, and the safety net for any
    /// dual-tolerance drift), a cleanup pass on the true costs (the
    /// perturbed optimum is almost always already optimal for them, so a
    /// handful of pivots at most), and the extraction.
    fn run(&mut self, start: LpStart<'_>, max_iterations: usize) -> Result<LpSolution, Stop> {
        match start {
            LpStart::Cold => {
                let factored = self.refactor();
                debug_assert!(factored, "the artificial basis is diagonal");
                if self.m > 0 {
                    self.run_phase(true, max_iterations)?;
                    self.recompute_basics();
                    let infeas: f64 = (self.a.n_real()..self.n_total).map(|art| self.x[art]).sum();
                    if infeas > 1e-6 {
                        return Err(Stop::Infeasible);
                    }
                    // Fix artificials at zero so phase 2 can never reuse them.
                    for art in self.a.n_real()..self.n_total {
                        self.upper[art] = 0.0;
                        if !matches!(self.state[art], VarState::Basic(_)) {
                            self.x[art] = 0.0;
                        }
                    }
                }
            }
            LpStart::Crash(basis) | LpStart::Warm(basis) => {
                let warm = matches!(start, LpStart::Warm(_));
                if !self.install(basis, warm) {
                    return Err(Stop::Abandoned);
                }
                if warm {
                    // The install switched to the perturbed costs, so the
                    // repair breaks ties as phase 2 does.
                    debug_assert!(self.perturbed, "warm installs price on perturbed costs");
                    self.run_dual(max_iterations)?;
                }
            }
        }
        self.perturbed = true;
        let phase2 = self.run_phase(false, max_iterations);
        self.perturbed = false;
        phase2?;
        self.run_phase(false, max_iterations)?;
        self.recompute_basics();
        Ok(self.extract_optimal())
    }

    /// Extracts the optimal solution from the current (phase-2 optimal)
    /// basis: structural values, reduced costs on the true costs, and the
    /// captured basis for warm-starting children.
    fn extract_optimal(&mut self) -> LpSolution {
        let n_struct = self.a.n_struct;
        let x = self.x[..n_struct].to_vec();
        self.compute_duals();
        let at_upper = (0..self.n_total)
            .filter(|&j| matches!(self.state[j], VarState::AtUpper))
            .collect();
        LpSolution {
            objective: self.a.model.objective_value(&x),
            x,
            reduced_costs: self.d[..n_struct].to_vec(),
            iterations: self.iterations,
            counts: self.counts,
            basis: Basis::new(self.basis.clone(), at_upper),
        }
    }
}

/// Why an attempt ended without an optimum.
enum Stop {
    /// Iteration budget or cancel token.
    IterationLimit,
    /// Phase 2 found an improving ray.
    Unbounded,
    /// Phase 1 left the artificials above tolerance, or a row of the dual
    /// repair certified infeasibility decisively above it.
    Infeasible,
    /// Not an answer: the start was rejected, the dual repair gave up, or
    /// a refactorization found the basis singular. [`solve_lp`] re-solves
    /// the LP cold.
    Abandoned,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CscMatrix;

    fn lp(
        c: Vec<f64>,
        rows: &[Vec<f64>],
        senses: Vec<Sense>,
        rhs: Vec<f64>,
        lower: Vec<f64>,
        upper: Vec<f64>,
    ) -> Milp {
        let n = c.len();
        Milp::new(
            c,
            CscMatrix::from_dense(rows),
            senses,
            rhs,
            lower,
            upper,
            vec![false; n],
        )
    }

    /// `model` under `lower` / `upper` from `start`.
    fn solve_from(
        model: &Milp,
        lower: &[f64],
        upper: &[f64],
        start: LpStart<'_>,
    ) -> (LpOutcome, bool) {
        solve_lp(model, lower, upper, start, 200_000)
    }

    fn cold(model: &Milp, lower: &[f64], upper: &[f64]) -> LpOutcome {
        solve_from(model, lower, upper, LpStart::Cold).0
    }

    fn solve(model: &Milp) -> LpOutcome {
        cold(model, &model.lower, &model.upper)
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (min of the
        // negation): optimum x=2, y=6, obj = -36.
        let m = lp(
            vec![-3.0, -5.0],
            &[vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]],
            vec![Sense::Le, Sense::Le, Sense::Le],
            vec![4.0, 12.0, 18.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let sol = solve(&m);
        let s = sol.optimal().expect("optimal");
        assert!((s.objective + 36.0).abs() < 1e-6, "obj {}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-6);
        assert!((s.x[1] - 6.0).abs() < 1e-6);
        m.check_feasible(&s.x, 1e-6).unwrap();
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 2, x - y = 0 -> x = y = 1.
        let m = lp(
            vec![1.0, 1.0],
            &[vec![1.0, 1.0], vec![1.0, -1.0]],
            vec![Sense::Eq, Sense::Eq],
            vec![2.0, 0.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective - 2.0).abs() < 1e-6);
        assert!((s.x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_and_upper_bounds() {
        // min x s.t. x >= 3, x <= 10.
        let m = lp(
            vec![1.0],
            &[vec![1.0]],
            vec![Sense::Ge],
            vec![3.0],
            vec![0.0],
            vec![10.0],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn bounded_variables_sit_at_upper() {
        // max x + y (min -x - y) with x,y in [0,1] and x + y <= 3: both hit
        // their upper bound 1, not the constraint.
        let m = lp(
            vec![-1.0, -1.0],
            &[vec![1.0, 1.0]],
            vec![Sense::Le],
            vec![3.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective + 2.0).abs() < 1e-7);
        assert!((s.x[0] - 1.0).abs() < 1e-7);
        assert!((s.x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2.
        let m = lp(
            vec![0.0],
            &[vec![1.0], vec![1.0]],
            vec![Sense::Le, Sense::Ge],
            vec![1.0, 2.0],
            vec![0.0],
            vec![f64::INFINITY],
        );
        assert!(matches!(solve(&m), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        // min -x with x >= 0 unbounded above, one non-binding row.
        let m = lp(
            vec![-1.0],
            &[vec![-1.0]],
            vec![Sense::Le],
            vec![0.0],
            vec![0.0],
            vec![f64::INFINITY],
        );
        assert!(matches!(solve(&m), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let m = lp(
            vec![1.0],
            &[vec![-1.0]],
            vec![Sense::Le],
            vec![-3.0],
            vec![0.0],
            vec![f64::INFINITY],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn fixed_variables_respected() {
        // min -x - y, x fixed to 0 via node bounds, y in [0,1].
        let m = lp(
            vec![-1.0, -1.0],
            &[vec![1.0, 1.0]],
            vec![Sense::Le],
            vec![2.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let out = cold(&m, &[0.0, 0.0], &[0.0, 1.0]);
        let s = out.optimal().unwrap();
        assert!(s.x[0].abs() < 1e-9);
        assert!((s.x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: several redundant constraints through the
        // same vertex.
        let m = lp(
            vec![-1.0, -1.0],
            &[
                vec![1.0, 0.0],
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 1.0],
            ],
            vec![Sense::Le, Sense::Le, Sense::Le, Sense::Le],
            vec![1.0, 1.0, 1.0, 2.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective + 2.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equality_rows_are_survivable() {
        // x + y = 1 twice: phase 1 leaves an artificial basic at zero.
        let m = lp(
            vec![1.0, 2.0],
            &[vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![Sense::Eq, Sense::Eq],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective - 1.0).abs() < 1e-6);
        assert!((s.x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn assignment_like_structure() {
        // Two jobs, two slots, slot capacity 1 each:
        // min 1*x00 + 2*x01 + 1*x10 + 3*x11
        // x00 + x01 = 1; x10 + x11 = 1; x00 + x10 <= 1; x01 + x11 <= 1.
        // Optimum: one job in each slot; cheapest is x00=1, x11=1 (1+3=4)
        // or x01=1, x10=1 (2+1=3) -> 3.
        let m = lp(
            vec![1.0, 2.0, 1.0, 3.0],
            &[
                vec![1.0, 1.0, 0.0, 0.0],
                vec![0.0, 0.0, 1.0, 1.0],
                vec![1.0, 0.0, 1.0, 0.0],
                vec![0.0, 1.0, 0.0, 1.0],
            ],
            vec![Sense::Eq, Sense::Eq, Sense::Le, Sense::Le],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![0.0; 4],
            vec![1.0; 4],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective - 3.0).abs() < 1e-6, "obj {}", s.objective);
        m.check_feasible(&s.x, 1e-6).unwrap();
    }

    #[test]
    fn reduced_costs_certify_optimality() {
        // min -3x -5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        let m = lp(
            vec![-3.0, -5.0],
            &[vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]],
            vec![Sense::Le, Sense::Le, Sense::Le],
            vec![4.0, 12.0, 18.0],
            vec![0.0, 0.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        let out = solve(&m);
        let s = out.optimal().unwrap();
        assert_eq!(s.reduced_costs.len(), 2);
        // At optimality, nonbasic-at-lower variables have nonnegative
        // reduced costs (minimization); basic ones report 0.
        for (j, &d) in s.reduced_costs.iter().enumerate() {
            if s.x[j] > 1e-9 {
                assert!(d.abs() < 1e-6, "basic var {j} has rc {d}");
            } else {
                assert!(d >= -1e-6, "at-lower var {j} has negative rc {d}");
            }
        }
    }

    #[test]
    fn reduced_cost_lower_bound_property() {
        // Forcing a nonbasic variable off its bound by delta raises the
        // optimum by at least rc * delta.
        let m = lp(
            vec![2.0, 1.0],
            &[vec![1.0, 1.0]],
            vec![Sense::Ge],
            vec![1.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let base = solve(&m);
        let base = base.optimal().unwrap();
        // Optimal: y = 1 (cost 1), x = 0 nonbasic with rc = 2 - 1 = 1.
        assert!((base.objective - 1.0).abs() < 1e-7);
        let rc_x = base.reduced_costs[0];
        assert!(rc_x > 0.5);
        // Force x = 1: new optimum must be >= base + rc_x * 1.
        let forced = cold(&m, &[1.0, 0.0], &[1.0, 1.0]);
        let forced = forced.optimal().unwrap();
        assert!(forced.objective >= base.objective + rc_x - 1e-6);
    }

    /// Parent LP for the warm-start tests: the assignment-like model with
    /// a known optimum of 3 and a fractional-friendly structure.
    fn warm_parent() -> Milp {
        lp(
            vec![1.0, 2.0, 1.0, 3.0],
            &[
                vec![1.0, 1.0, 0.0, 0.0],
                vec![0.0, 0.0, 1.0, 1.0],
                vec![1.0, 0.0, 1.0, 0.0],
                vec![0.0, 1.0, 0.0, 1.0],
            ],
            vec![Sense::Eq, Sense::Eq, Sense::Le, Sense::Le],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![0.0; 4],
            vec![1.0; 4],
        )
    }

    #[test]
    fn optimal_solutions_capture_a_basis() {
        let m = warm_parent();
        let out = solve(&m);
        let s = out.optimal().unwrap();
        let basis = &s.basis;
        assert_eq!(basis.basis.len(), m.num_constraints());
        // Every captured basic variable is a real internal index.
        let n_total = m.num_vars() + 2 /* slacks */ + m.num_constraints();
        assert!(basis.basis.iter().all(|&v| v < n_total));
    }

    #[test]
    fn warm_started_child_matches_cold_solve() {
        let m = warm_parent();
        let parent = solve(&m);
        let parent = parent.optimal().unwrap();
        let warm = parent.basis.clone();
        // Branch like B&B would: fix x0 to 0, then to 1.
        for (lo, hi) in [(0.0, 0.0), (1.0, 1.0)] {
            let lower = [lo, 0.0, 0.0, 0.0];
            let upper = [hi, 1.0, 1.0, 1.0];
            let cold = cold(&m, &lower, &upper);
            let cold = cold.optimal().expect("child feasible");
            let (out, used) = solve_from(&m, &lower, &upper, LpStart::Warm(&warm));
            let s = out.optimal().expect("warm child optimal");
            assert!(used, "structurally sound basis must install");
            assert!(
                (s.objective - cold.objective).abs() < 1e-6,
                "warm {} vs cold {}",
                s.objective,
                cold.objective
            );
            m.check_feasible(&s.x, 1e-6).unwrap();
        }
    }

    #[test]
    fn warm_start_skips_phase_one_iterations() {
        let m = warm_parent();
        let parent = solve(&m);
        let parent = parent.optimal().unwrap();
        let warm = parent.basis.clone();
        let lower = [0.0; 4];
        let upper = [0.0, 1.0, 1.0, 1.0];
        let cold = cold(&m, &lower, &upper);
        let cold = cold.optimal().unwrap();
        let (out, used) = solve_from(&m, &lower, &upper, LpStart::Warm(&warm));
        let s = out.optimal().unwrap();
        assert!(used);
        assert!(
            s.iterations <= cold.iterations,
            "warm path used {} iterations, cold {}",
            s.iterations,
            cold.iterations
        );
    }

    #[test]
    fn warm_start_detects_child_infeasibility() {
        // min x s.t. x + y >= 2 with x,y in [0,1]; fixing both to 0 is
        // infeasible.
        let m = lp(
            vec![1.0, 0.0],
            &[vec![1.0, 1.0]],
            vec![Sense::Ge],
            vec![2.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let parent = solve(&m);
        let warm = parent.optimal().unwrap().basis.clone();
        let (out, _) = solve_from(&m, &[0.0, 0.0], &[0.0, 0.0], LpStart::Warm(&warm));
        assert!(matches!(out, LpOutcome::Infeasible));
    }

    #[test]
    fn warm_start_survives_redundant_rows() {
        // Duplicated equality leaves an artificial basic at zero in the
        // parent basis; the child warm start must accept it.
        let m = lp(
            vec![1.0, 2.0],
            &[vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![Sense::Eq, Sense::Eq],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let parent = solve(&m);
        let warm = parent.optimal().unwrap().basis.clone();
        let (out, used) = solve_from(&m, &[0.0, 0.0], &[0.0, 1.0], LpStart::Warm(&warm));
        let s = out.optimal().expect("child solvable");
        assert!(used, "artificial-bearing basis is still warm-startable");
        assert!((s.objective - 2.0).abs() < 1e-6, "obj {}", s.objective);
    }

    /// `x1 + x2 + x3 (+ z) − w ≥ 0` with unit-range `x` at costs 1, 2, 3
    /// (and a wide `z` at cost 10): covering `w` buys the cheap columns
    /// whole before it touches the next one. Columns `x1 x2 x3 [z] w`,
    /// then the row's surplus.
    fn cover(with_z: bool) -> Milp {
        let mut cost = vec![1.0, 2.0, 3.0];
        let mut row = vec![1.0, 1.0, 1.0];
        let mut upper = vec![1.0, 1.0, 1.0];
        if with_z {
            cost.push(10.0);
            row.push(1.0);
            upper.push(5.0);
        }
        cost.push(0.0);
        row.push(-1.0);
        upper.push(4.0);
        let n = cost.len();
        lp(
            cost,
            &[row],
            vec![Sense::Ge],
            vec![0.0],
            vec![0.0; n],
            upper,
        )
    }

    /// Solves `model` with `w` (its last column) raised to `demand`,
    /// warm from the basis that is optimal at `w = 0`: the surplus basic
    /// at zero, everything else at its lower bound.
    fn cover_child(model: &Milp, demand: f64) -> (LpOutcome, LpOutcome) {
        let n = model.num_vars();
        let mut lower = model.lower.clone();
        lower[n - 1] = demand;
        let parent = Basis::new(vec![n], vec![]);
        let (warm, used) = solve_from(model, &lower, &model.upper, LpStart::Warm(&parent));
        assert!(used, "the parent basis installs");
        let cold = cold(model, &lower, &model.upper);
        (warm, cold)
    }

    #[test]
    fn long_step_flips_boxed_columns_the_step_passes() {
        // Raising w to 2.5 leaves the surplus 2.5 below its bound. The
        // breakpoints are x1, x2, x3, z in cost order; x1 and x2 cannot
        // close the row (2.5 → 1.5 → 0.5 left), so they flip and x3
        // enters at 0.5: three breakpoints met, one basis change.
        let m = cover(true);
        let (warm, cold) = cover_child(&m, 2.5);
        let (warm, cold) = (warm.optimal().unwrap(), cold.optimal().unwrap());
        assert_eq!(warm.counts.dual_flips, 2);
        assert_eq!(warm.counts.dual_pivots, 1, "fewer pivots than breakpoints");
        assert_eq!(
            warm.counts.pivot_row_cols, 7,
            "the one row reaches every column"
        );
        assert!(
            (warm.objective - 4.5).abs() < 1e-9,
            "obj {}",
            warm.objective
        );
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        for (w, c) in warm.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-9, "{:?} vs {:?}", warm.x, cold.x);
        }
        // What x2's whole range leaves of the violation is within the
        // feasibility tolerance: the row counts as closed there, so x2
        // enters rather than flips.
        let (warm, cold) = cover_child(&m, 2.0 + 0.5 * TOL);
        let (warm, cold) = (warm.optimal().unwrap(), cold.optimal().unwrap());
        assert_eq!((warm.counts.dual_flips, warm.counts.dual_pivots), (1, 1));
        assert!((warm.objective - cold.objective).abs() < 1e-6);
    }

    #[test]
    fn passing_every_breakpoint_certifies_infeasibility() {
        // Without z the three unit columns cover at most 3: at w = 3.5
        // every breakpoint is passed and half a unit stays uncovered.
        let m = cover(false);
        let (warm, cold) = cover_child(&m, 3.5);
        assert!(matches!(warm, LpOutcome::Infeasible), "{warm:?}");
        assert!(matches!(cold, LpOutcome::Infeasible), "{cold:?}");
        // At w = 3 the last column closes the row exactly and enters.
        let (warm, cold) = cover_child(&m, 3.0);
        let (warm, cold) = (warm.optimal().unwrap(), cold.optimal().unwrap());
        assert_eq!((warm.counts.dual_flips, warm.counts.dual_pivots), (2, 1));
        assert!((warm.objective - 6.0).abs() < 1e-9);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn a_long_step_passes_more_breakpoints_than_one_batch() {
        // Forty unit columns covering w: two free ones (ratio 0, tied),
        // then cost pairs 1, 1, 2, 2, … tied up to column 29, then one
        // cost each. At w = 33.5 the step passes 33 breakpoints — more
        // than two batches — and column 33 enters at one half. Ties are
        // met lowest column first, and the optimum is unique (every
        // passed column is strictly cheaper than the entering one), so
        // the warm repair must land on the cold solve's point exactly.
        let mut cost: Vec<f64> = (0..40)
            .map(|k| match k {
                0 | 1 => 0.0,
                2..30 => (k / 2) as f64,
                _ => 100.0 + k as f64,
            })
            .collect();
        let mut row = vec![1.0; 40];
        let mut upper = vec![1.0; 40];
        cost.push(0.0);
        row.push(-1.0);
        upper.push(40.0);
        let n = cost.len();
        let m = lp(
            cost,
            &[row],
            vec![Sense::Ge],
            vec![0.0],
            vec![0.0; n],
            upper,
        );
        let (warm, cold) = cover_child(&m, 33.5);
        let (warm, cold) = (warm.optimal().unwrap(), cold.optimal().unwrap());
        // Recorded before the breakpoints were ordered in batches.
        assert_eq!(
            (
                warm.counts.dual_flips,
                warm.counts.dual_pivots,
                warm.counts.pivot_row_cols
            ),
            (33, 1, 43)
        );
        let expected = 2.0 * (1..15).sum::<i32>() as f64 + 130.0 + 131.0 + 132.0 + 0.5 * 133.0;
        assert!(
            (warm.objective - expected).abs() < 1e-9,
            "obj {}",
            warm.objective
        );
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        for (w, c) in warm.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-9, "{:?} vs {:?}", warm.x, cold.x);
        }
        assert!((warm.x[33] - 0.5).abs() < 1e-9, "{:?}", warm.x);
    }

    /// A random §3.1 snapshot on an empty machine (same shape as
    /// `tests/warm_props.rs`).
    fn random_timeindex(capacity: u32, specs: &[(u32, u64)]) -> crate::timeindex::TimeIndexedModel {
        use dynp_trace::Job;
        let jobs: Vec<Job> = specs
            .iter()
            .enumerate()
            .map(|(i, &(w, d))| Job::exact(i as u32, 0, 1 + w % capacity, 60 * (1 + d % 30)))
            .collect();
        let horizon: u64 = jobs.iter().map(|j| j.estimated_duration).sum();
        let problem = dynp_sched::SchedulingProblem::on_empty_machine(0, capacity, jobs);
        crate::timeindex::TimeIndexedModel::build(
            &problem,
            crate::scaling::TimeScaling::fixed(60),
            horizon,
        )
    }

    #[test]
    fn crash_install_is_one_fill_free_factorization() {
        // The triangular crash basis needs no special case: installing it
        // is a single factorization that stores exactly the entries of B,
        // and nothing asks for another one before the first pivot.
        let ti = random_timeindex(4, &[(3, 9), (1, 4), (2, 17), (0, 2)]);
        let model = &ti.model;
        let crash = ti.crash_start(&model.lower, &model.upper).unwrap();
        let mut sx = Simplex::new(model, &model.lower, &model.upper);
        assert!(sx.install(&crash, false));
        let mut entries = 0;
        for &var in &crash.basis {
            sx.a.for_column(var, |_, _| entries += 1);
        }
        assert_eq!(sx.counts.refactors, 1);
        assert_eq!(sx.counts.lu_nnz, entries, "no fill, no multipliers");
        assert!(!sx.lu.needs_refactor());
        // And the counts reach the caller: an LP solved from the crash
        // reports its single install plus whatever the pivots cost.
        let (out, _) = solve_from(model, &model.lower, &model.upper, LpStart::Crash(&crash));
        let counts = out.optimal().unwrap().counts;
        assert!(counts.refactors >= 1);
        assert_eq!(counts.dual_pivots, 0, "a cold solve never runs the dual");
        assert!(counts.primal_pivots + counts.bound_flips > 0);
    }

    proptest::proptest! {
        /// A long step's breakpoints come out of [`Breakpoints`] in
        /// exactly the order a full sort of their `(ratio bits, column)`
        /// keys gives — tied ratios lowest column first, zero ratios
        /// before the rest — however many batches the pops use up, and
        /// a cleared set forgets the previous pivot's keys and order.
        #[test]
        fn batched_breakpoints_pop_in_full_sort_order(
            entries in proptest::collection::vec((0u32..4, 1u32..4, 0u32..8, 0.0f64..1e3), 0..80),
            stale in proptest::collection::vec(0.0f64..1e3, 0..40),
            pops in 0usize..90,
        ) {
            let mut set = Breakpoints::default();
            for (j, &ratio) in stale.iter().enumerate() {
                set.push(ratio, j as u32);
            }
            set.pop();
            set.clear();
            // Columns ascend with gaps, as the reached list does; a
            // quarter of the ratios are zero and a quarter come from four
            // values, so ties are common.
            let mut keys = Vec::new();
            let mut column = 0u32;
            for &(kind, gap, tied, free) in &entries {
                column += gap;
                let ratio = match kind {
                    0 => 0.0,
                    1 => 0.25 * (tied % 4) as f64,
                    _ => free,
                };
                set.push(ratio, column);
                keys.push((ratio.to_bits(), column));
            }
            keys.sort_unstable();
            let popped: Vec<Option<u32>> = (0..pops).map(|_| set.pop()).collect();
            let expected: Vec<Option<u32>> = (0..pops).map(|k| keys.get(k).map(|key| key.1)).collect();
            proptest::prop_assert_eq!(popped, expected);
        }

        /// The dual repair carries `d_N` from pivot to pivot; at every
        /// refactorization the carried values must equal `c − yᵀA`
        /// re-derived from scratch. Driven the way branch & bound drives
        /// it: a root-optimal basis installed under a child's bounds.
        #[test]
        fn carried_reduced_costs_match_a_fresh_derivation(
            capacity in 2u32..6,
            specs in proptest::collection::vec((0u32..8, 0u64..40), 2..6),
            var_seed in 0usize..1000,
            fix_up in 0u32..2,
        ) {
            let ti = random_timeindex(capacity, &specs);
            let model = &ti.model;
            let root = solve(model);
            let root = root.optimal().expect("generated models are feasible");
            let warm = &root.basis;
            // Forbid a start the root uses, or force an arbitrary one:
            // either way the installed basis needs repairing.
            let used: Vec<usize> = (0..model.num_vars()).filter(|&j| root.x[j] > 1e-6).collect();
            let mut lower = model.lower.clone();
            let mut upper = model.upper.clone();
            if fix_up == 1 {
                lower[var_seed % model.num_vars()] = 1.0;
            } else {
                upper[used[var_seed % used.len()]] = 0.0;
            }
            let mut sx = Simplex::new(model, &lower, &upper);
            proptest::prop_assert!(sx.install(warm, true));
            let status = sx.run_dual(200_000);
            // Costs reach width * slot, so 1e-9 relative is ~1e-6 absolute
            // at worst — far below the 1e-7-per-unit pricing tolerance's
            // reach only if it holds at every refactorization.
            proptest::prop_assert!(
                sx.dual_drift <= 1e-9,
                "carried d_N drifted {} from c - yA over {} dual pivots / {} factorizations",
                sx.dual_drift,
                sx.counts.dual_pivots,
                sx.counts.refactors,
            );
            if status.is_ok() {
                // The repaired basis must also price out under the fresh
                // duals the extraction hands to branch & bound.
                let carried = sx.d.clone();
                sx.compute_duals();
                for j in 0..sx.n_total {
                    proptest::prop_assert!(
                        (carried[j] - sx.d[j]).abs() <= 1e-9 * (1.0 + sx.d[j].abs()),
                        "d[{j}] carried {} vs fresh {}",
                        carried[j],
                        sx.d[j],
                    );
                }
            }
        }

        /// A long-step pivot moves whole sets of nonbasic columns and
        /// corrects `x_B` for all of them with one FTRAN. Driven the way
        /// branch & bound drives it — a root-optimal basis under an
        /// SOS-style child that forbids one job's starts on one side of
        /// a slot — every dual pivot must leave the carried basic values
        /// equal to `B⁻¹(b − N x_N)` computed afresh and every column it
        /// flipped on the bound its `d_j` allows, and the repaired LP
        /// must end on the cold solve's optimum.
        #[test]
        fn long_step_pivots_carry_exact_basics_and_bound_signs(
            capacity in 2u32..6,
            specs in proptest::collection::vec((0u32..8, 0u64..40), 2..6),
            job_seed in 0usize..1000,
            split_seed in 0usize..1000,
            forbid_late in 0u32..2,
        ) {
            let ti = random_timeindex(capacity, &specs);
            let model = &ti.model;
            let root = solve(model);
            let root = root.optimal().expect("generated models are feasible");
            let warm = &root.basis;
            let (lo, hi) = ti.job_vars[job_seed % ti.job_ids.len()];
            let split = lo + split_seed % (hi - lo);
            let forbidden = if forbid_late == 1 { split + 1..hi } else { lo..split + 1 };
            let mut upper = model.upper.clone();
            upper[forbidden].fill(0.0);
            let mut sx = Simplex::new(model, &model.lower, &upper);
            proptest::prop_assert!(sx.install(warm, true));
            let status = sx.run_dual(200_000);
            proptest::prop_assert!(
                sx.basics_drift <= 1e-9,
                "carried x_B drifted {} from a fresh solve over {} dual pivots / {} flips",
                sx.basics_drift,
                sx.counts.dual_pivots,
                sx.counts.dual_flips,
            );
            proptest::prop_assert!(
                sx.dual_infeasibility <= TOL,
                "a flipped column's d_j is {} on the wrong side of its bound after {} dual pivots / {} flips",
                sx.dual_infeasibility,
                sx.counts.dual_pivots,
                sx.counts.dual_flips,
            );
            let (warm_out, used) = solve_from(model, &model.lower, &upper, LpStart::Warm(warm));
            let cold_out = cold(model, &model.lower, &upper);
            match (&warm_out, &cold_out) {
                (LpOutcome::Optimal(w), LpOutcome::Optimal(c)) => {
                    proptest::prop_assert!(
                        !matches!(status, Err(Stop::Infeasible)),
                        "the repair called a feasible child infeasible",
                    );
                    proptest::prop_assert!(
                        (w.objective - c.objective).abs() < 1e-6,
                        "warm {} (used: {used}) vs cold {}",
                        w.objective,
                        c.objective,
                    );
                }
                (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                _ => proptest::prop_assert!(false, "warm {warm_out:?} vs cold {cold_out:?}"),
            }
        }
    }

    /// One test per trigger of [`solve_lp`]'s fallback rule. Each checks
    /// that the fallback answers what a cold solve answers, to the bit,
    /// that the answer is not credited to a warm start, and that the
    /// optimum's iterations and kernel counts are the abandoned attempt's
    /// plus the cold solve's.
    mod fallback {
        use super::*;

        /// An optimum's floats by their bits, and its basis.
        fn bits(s: &LpSolution) -> (Vec<u64>, &[usize], &[usize]) {
            let floats = std::iter::once(&s.objective)
                .chain(&s.x)
                .chain(&s.reduced_costs);
            let bits = floats.map(|v| v.to_bits()).collect();
            (bits, &s.basis.basis, &s.basis.at_upper)
        }

        /// Solves the LP from `start` with the next `singular` mid-solve
        /// refactorizations failing, asserts the fallback described above,
        /// and returns what the abandoned attempt cost — measured by
        /// running it alone, as `solve_lp` runs it.
        fn assert_falls_back(
            model: &Milp,
            lower: &[f64],
            upper: &[f64],
            start: LpStart<'_>,
            singular: usize,
        ) -> (usize, KernelCounts) {
            let want = cold(model, lower, upper);
            let want = want.optimal().expect("the cold solve is optimal");
            SINGULAR_REFACTORS.set(singular);
            let mut attempt = Simplex::new(model, lower, upper);
            assert!(
                matches!(attempt.run(start, 200_000), Err(Stop::Abandoned)),
                "the start is abandoned"
            );
            SINGULAR_REFACTORS.set(singular);
            let (got, used) = solve_from(model, lower, upper, start);
            assert_eq!(SINGULAR_REFACTORS.get(), 0, "every trigger fired");
            assert!(!used, "a fallback is not a warm answer");
            let got = got.optimal().expect("the fallback is optimal");
            assert_eq!(bits(got), bits(want), "the cold answer");
            let mut counts = want.counts;
            counts.absorb(&attempt.counts);
            assert_eq!(
                (got.iterations, got.counts),
                (attempt.iterations + want.iterations, counts),
                "abandoned plus cold"
            );
            (attempt.iterations, attempt.counts)
        }

        #[test]
        fn rejected_crash() {
            let m = warm_parent();
            // Singular (no column reaches row 1): rejected before anything
            // is counted.
            let singular = Basis::new(vec![0, 1, 4, 5], vec![]);
            let wasted = assert_falls_back(&m, &m.lower, &m.upper, LpStart::Crash(&singular), 0);
            assert_eq!(wasted, (0, KernelCounts::default()));
            // Regular, but x0 = x2 = 1 overfills row 2: rejected after its
            // factorization, which the optimum carries.
            let infeasible = Basis::new(vec![0, 2, 4, 5], vec![]);
            let (iterations, counts) =
                assert_falls_back(&m, &m.lower, &m.upper, LpStart::Crash(&infeasible), 0);
            assert_eq!((iterations, counts.refactors), (0, 1));
        }

        #[test]
        fn rejected_warm_install() {
            let m = warm_parent();
            for basis in [
                vec![0, 1],       // wrong length
                vec![0, 0, 1, 2], // a duplicate
                vec![0, 1, 4, 5], // singular: no column reaches row 1
            ] {
                let stale = Basis::new(basis, vec![]);
                let wasted = assert_falls_back(&m, &m.lower, &m.upper, LpStart::Warm(&stale), 0);
                assert_eq!(wasted, (0, KernelCounts::default()), "nothing was factored");
            }
        }

        #[test]
        fn warm_give_up() {
            // Without z the three unit columns cover 3 of w: at w = 3 + 5e-7
            // every breakpoint is passed and 5e-7 stays uncovered, above
            // the feasibility tolerance but too close to it to certify
            // infeasibility — the repair gives up after its first pivot row
            // and phase 1 decides.
            let m = cover(false);
            let n = m.num_vars();
            let mut lower = m.lower.clone();
            lower[n - 1] = 3.0 + 5e-7;
            let parent = Basis::new(vec![n], vec![]);
            let (iterations, counts) =
                assert_falls_back(&m, &lower, &m.upper, LpStart::Warm(&parent), 0);
            assert_eq!(
                (iterations, counts.refactors, counts.dual_pivots),
                (1, 1, 0)
            );
        }

        #[test]
        fn singular_refactorization_mid_solve() {
            // A warm start goes singular in its dual repair, a crash start
            // in its primal phase 2: both re-solve cold.
            let m = warm_parent();
            let (lower, upper) = ([0.0; 4], [0.0, 1.0, 1.0, 1.0]);
            let parent = solve(&m);
            let parent = &parent.optimal().unwrap().basis;
            let (_, counts) = assert_falls_back(&m, &lower, &upper, LpStart::Warm(parent), 1);
            assert_eq!(
                counts.refactors, 1,
                "the install; a failed one counts nothing"
            );
            let ti = random_timeindex(4, &[(3, 9), (1, 4), (2, 17), (0, 2)]);
            let model = &ti.model;
            let crash = ti.crash_start(&model.lower, &model.upper).unwrap();
            let (iterations, _) =
                assert_falls_back(model, &model.lower, &model.upper, LpStart::Crash(&crash), 1);
            assert_eq!(iterations, 1, "abandoned in its first iteration");
        }

        #[test]
        fn second_singular_is_an_iteration_limit() {
            // A cold solve that goes singular is restarted once...
            let m = warm_parent();
            let (iterations, _) = assert_falls_back(&m, &m.lower, &m.upper, LpStart::Cold, 1);
            assert_eq!(iterations, 1);
            // ...and gives up when the restart goes singular too, as does a
            // crash start whose two cold re-solves both do.
            let crash = solve(&m).optimal().unwrap().basis.clone();
            for (start, singular) in [(LpStart::Cold, 2), (LpStart::Crash(&crash), 3)] {
                SINGULAR_REFACTORS.set(singular);
                let (out, used) = solve_from(&m, &m.lower, &m.upper, start);
                assert_eq!(SINGULAR_REFACTORS.get(), 0, "every trigger fired");
                assert!(matches!(out, LpOutcome::IterationLimit), "{out:?}");
                assert!(!used);
            }
        }
    }

    #[test]
    fn no_constraints_model() {
        // min -x + y with x,y in [0,1] and no rows: x=1, y=0.
        let mut b = crate::sparse::CscBuilder::new(0);
        b.push_column(&[]);
        b.push_column(&[]);
        let m = Milp::new(
            vec![-1.0, 1.0],
            b.build(),
            vec![],
            vec![],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![false, false],
        );
        let s = solve(&m);
        let s = s.optimal().unwrap();
        assert!((s.objective + 1.0).abs() < 1e-9);
    }
}
