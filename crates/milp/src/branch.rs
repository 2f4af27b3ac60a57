//! Best-first branch & bound over the LP relaxation.
//!
//! This is the "CPLEX" of the reproduction: an exact solver for the mixed
//! 0/1 programs produced by [`crate::timeindex`]. Design choices:
//!
//! * **Best-first** node selection on the LP bound: the first time the best
//!   open bound reaches the incumbent, optimality is proven — mirroring how
//!   MIP solvers close the gap.
//! * **One way to branch**: a child is a list of bound changes, from a
//!   custom [`BranchHook`] or, by default, most-fractional branching with
//!   deterministic tie-breaking.
//! * **Integral-objective rounding**: when every variable is integral and
//!   every objective coefficient is an integer, a node bound `b` can be
//!   lifted to `ceil(b)`, which prunes aggressively on scheduling models
//!   whose objective counts weighted slots.
//! * **Incumbent seeding**: the caller can install a known feasible point
//!   (here: the best dynP policy schedule) before solving, exactly the
//!   "warm start" a practitioner would give CPLEX.
//! * **Primal rounding heuristic** hook invoked on fractional LP solutions
//!   to tighten the incumbent early.
//! * **Warm-started node LPs**: every solved node captures its optimal
//!   basis ([`crate::simplex::Basis`]) and hands it to its children, whose
//!   LPs differ by one variable bound — the child re-installs the basis
//!   and repairs primal feasibility with a few dual simplex pivots instead
//!   of re-running phase 1 from the artificial basis (DESIGN.md §14).
//! * **Deterministic parallel search**: the search runs in synchronous
//!   rounds — pop the `ROUND_WIDTH` best open nodes, solve their LPs on
//!   the shared worker pool ([`dynp_obs::pool`]), then merge bounds,
//!   incumbents and children *sequentially in pop order*. Each node LP
//!   is a pure function of the model and the node's bounds (never of the
//!   incumbent), and the
//!   round width is a constant rather than the worker count, so the
//!   explored tree, the gap trajectory (keyed on the node counter), and
//!   the final [`MipSolution`] are byte-identical for any
//!   [`BranchLimits::solver_workers`] — worker count buys wall-clock time
//!   only (see [`MipSolution::canonical_json`], asserted in the
//!   `milp_par` bench and CI).
//!
//! Limits are deterministic: a node count and a per-LP simplex
//! iteration budget. A caller that must also bound wall time (a campaign
//! cell, the paper's "CPLEX is still solving the previous problem"
//! regime) installs a [`dynp_obs::CancelToken`] around the solve; the
//! node loop polls the installed tokens at every pop and both simplex
//! loops every 256 iterations, so a deadline binds to within one poll
//! interval of the slowest LP. With none installed the clock is read only
//! when an incumbent is accepted and once at exit, so the explored tree
//! never depends on it.

use crate::model::Milp;
use crate::simplex::{solve_lp, Basis, KernelCounts, LpOutcome, LpSolution, LpStart};
use crate::timeindex::BranchChildren;
use dynp_obs::pool::{self, SlotOutcome};
use dynp_obs::JsonValue;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Integrality tolerance.
const INT_TOL: f64 = 1e-6;
/// Bound comparison tolerance.
const BOUND_TOL: f64 = 1e-9;
/// Open nodes popped per synchronous round. Deliberately a constant and
/// *not* the worker count: the batch (and hence the explored tree) must
/// not depend on how many workers happen to solve it.
const ROUND_WIDTH: usize = 8;

/// Resource limits for one solve.
#[derive(Clone, Copy, Debug)]
pub struct BranchLimits {
    /// Maximum branch & bound nodes to explore.
    pub max_nodes: usize,
    /// Simplex iteration budget per LP solve.
    pub max_lp_iterations: usize,
    /// Worker threads for the round's node-LP solves. Affects wall-clock
    /// time only: results are byte-identical for any value (see the
    /// module docs). `0` is treated as `1`.
    pub solver_workers: usize,
}

impl Default for BranchLimits {
    fn default() -> Self {
        BranchLimits {
            max_nodes: 1_000_000,
            // Generous for the LP sizes the harness builds (hundreds of
            // rows); a cap keeps one degenerate LP from eating the whole
            // node budget's worth of time.
            max_lp_iterations: 200_000,
            solver_workers: 1,
        }
    }
}

/// Final status of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MipStatus {
    /// Incumbent proven optimal.
    Optimal,
    /// A feasible incumbent exists but a limit stopped the proof.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// A limit stopped the search before any incumbent was found.
    Unknown,
}

/// One point of the incumbent/gap trajectory: the solver's view of the
/// primal/dual state at the moment a new incumbent was accepted (plus a
/// seed point at `nodes == 0` when one was installed, and a final point
/// at exit).
#[derive(Clone, Copy, Debug)]
pub struct GapPoint {
    /// Nodes explored when the point was recorded.
    pub nodes: usize,
    /// Wall time into the solve.
    pub elapsed: Duration,
    /// Incumbent objective at that moment.
    pub incumbent: f64,
    /// Best proven lower bound at that moment (`-inf` before the first
    /// node is bounded).
    pub bound: f64,
}

impl GapPoint {
    /// Relative gap at this point, in the same normalization as
    /// [`MipSolution::gap`]; `None` while the bound is still infinite.
    pub fn gap(&self) -> Option<f64> {
        self.bound
            .is_finite()
            .then(|| (self.incumbent - self.bound).max(0.0) / self.incumbent.abs().max(1.0))
    }
}

/// Result of a solve.
#[derive(Clone, Debug)]
pub struct MipSolution {
    /// Outcome status.
    pub status: MipStatus,
    /// Incumbent objective, if any.
    pub objective: Option<f64>,
    /// Incumbent point, if any.
    pub x: Option<Vec<f64>>,
    /// Best lower bound proven over the whole tree.
    pub best_bound: f64,
    /// Nodes explored.
    pub nodes: usize,
    /// Total simplex iterations.
    pub lp_iterations: usize,
    /// Node LPs solved from a parent's warm basis (dual-simplex repair,
    /// phase 1 skipped).
    pub warm_lps: usize,
    /// Node LPs solved cold (phase 1 or a crash basis), including
    /// warm-start attempts that fell back.
    pub cold_lps: usize,
    /// What the node LPs cost the simplex kernel, folded over the LPs
    /// that count towards `lp_iterations` (see [`KernelCounts`]).
    pub kernel: KernelCounts,
    /// Wall time spent.
    pub wall_time: Duration,
    /// Incumbent/gap trajectory: one [`GapPoint`] per accepted incumbent
    /// (seed included) plus a closing point at exit. Empty when no
    /// incumbent was ever found.
    pub trajectory: Vec<GapPoint>,
}

impl MipSolution {
    /// Relative optimality gap `(obj - bound) / max(|obj|, 1)`;
    /// `None` without an incumbent.
    pub fn gap(&self) -> Option<f64> {
        let obj = self.objective?;
        Some((obj - self.best_bound).max(0.0) / obj.abs().max(1.0))
    }

    /// A canonical, wall-clock-free JSON rendering of the solution.
    ///
    /// Covers everything the search *decided* — status, objective and
    /// point, proven bound, node and LP-iteration counts, warm/cold LP
    /// split, the kernel's work counts, and the gap trajectory keyed on
    /// the node counter — and
    /// deliberately omits every timing field (`wall_time`, per-point
    /// `elapsed`). Two solves of the same model under the same limits
    /// must render byte-identically regardless of
    /// [`BranchLimits::solver_workers`]; the `milp_par` bench and the CI
    /// `milp-smoke` job diff these renders byte-for-byte.
    pub fn canonical_json(&self) -> JsonValue {
        let finite = |v: f64| v.is_finite().then_some(v);
        let trajectory: Vec<JsonValue> = self
            .trajectory
            .iter()
            .map(|p| {
                JsonValue::object()
                    .with("nodes", p.nodes)
                    .with("incumbent", p.incumbent)
                    .with("bound", finite(p.bound))
            })
            .collect();
        JsonValue::object()
            .with("status", format!("{:?}", self.status))
            .with("objective", self.objective)
            .with("x", self.x.clone())
            .with("best_bound", finite(self.best_bound))
            .with("nodes", self.nodes)
            .with("lp_iterations", self.lp_iterations)
            .with("warm_lps", self.warm_lps)
            .with("cold_lps", self.cold_lps)
            .with("kernel", self.kernel.to_json())
            .with("trajectory", trajectory)
    }
}

/// A primal heuristic: turn a fractional LP solution into a feasible
/// integral point (or give up with `None`). The solver validates the
/// result, so a buggy heuristic cannot corrupt exactness.
pub type PrimalHeuristic<'a> = Box<dyn Fn(&Milp, &LpSolution) -> Option<Vec<f64>> + Send + Sync + 'a>;

/// A crash-basis provider: given a node's bound vectors, produce a
/// primal-feasible starting basis so the LP skips phase 1. The simplex
/// verifies the basis, so a wrong crash costs time, never correctness.
pub type CrashHook<'a> = Box<dyn Fn(&[f64], &[f64]) -> Option<Basis> + Send + Sync + 'a>;

/// A custom brancher: given the fractional LP solution, return bound
/// modifications `(var, new_lower, new_upper)` for the two children.
///
/// **Exactness contract**: the two children must cover every integral
/// point of the parent (a partition of the feasible set), otherwise the
/// solver can silently cut off the optimum. Returning `None` falls back to
/// most-fractional single-variable branching, which always satisfies the
/// contract.
pub type BranchHook<'a> = Box<
    dyn Fn(&Milp, &LpSolution) -> Option<(Vec<(usize, f64, f64)>, Vec<(usize, f64, f64)>)>
        + Send
        + Sync
        + 'a,
>;

/// Branch & bound driver.
pub struct BranchBound<'a> {
    model: &'a Milp,
    limits: BranchLimits,
    heuristic: Option<PrimalHeuristic<'a>>,
    crash: Option<CrashHook<'a>>,
    brancher: Option<BranchHook<'a>>,
    incumbent: Option<(f64, Vec<f64>)>,
    trajectory: Vec<GapPoint>,
    /// Objective provably integral on integral points (enables bound
    /// ceiling).
    integral_objective: bool,
}

#[derive(Debug)]
struct Node {
    bound: f64,
    id: u64,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// The parent's optimal basis, shared by both children (each child
    /// changed one bound, so the basis is dual feasible for both).
    /// `None` at the root.
    warm: Option<Arc<Basis>>,
}

impl Node {
    /// Applies a child's bound changes `(var, lo, hi)`, each narrowing
    /// `var` to `[max(lower, lo), min(upper, hi)]`. On a tie the change's
    /// value is the one kept, so a change that sets a bound sets exactly
    /// its bits, signed zeros included. Returns `false`, leaving the rest
    /// unapplied, once a variable's range is empty.
    fn tighten(&mut self, changes: &[(usize, f64, f64)]) -> bool {
        for &(var, lo, hi) in changes {
            if lo >= self.lower[var] {
                self.lower[var] = lo;
            }
            if hi <= self.upper[var] {
                self.upper[var] = hi;
            }
            if self.lower[var] > self.upper[var] {
                return false;
            }
        }
        true
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Node {}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (bound, id): reverse for BinaryHeap.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then(other.id.cmp(&self.id))
    }
}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<'a> BranchBound<'a> {
    /// A solver for `model` with the given limits.
    pub fn new(model: &'a Milp, limits: BranchLimits) -> BranchBound<'a> {
        let integral_objective = model.integral.iter().all(|&f| f)
            && model
                .objective
                .iter()
                .all(|c| (c - c.round()).abs() < 1e-12);
        BranchBound {
            model,
            limits,
            heuristic: None,
            crash: None,
            brancher: None,
            incumbent: None,
            trajectory: Vec::new(),
            integral_objective,
        }
    }

    /// Installs a crash-basis provider (see [`CrashHook`]).
    pub fn with_crash(mut self, crash: CrashHook<'a>) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Installs a custom brancher (see [`BranchHook`] for the exactness
    /// contract).
    pub fn with_brancher(mut self, brancher: BranchHook<'a>) -> Self {
        self.brancher = Some(brancher);
        self
    }

    /// Installs a primal rounding heuristic.
    pub fn with_heuristic(mut self, heuristic: PrimalHeuristic<'a>) -> Self {
        self.heuristic = Some(heuristic);
        self
    }

    /// Seeds a known feasible point as the starting incumbent.
    ///
    /// # Errors
    /// Rejects an infeasible or fractional point — a wrong seed would
    /// silently destroy exactness, so callers must handle (or at least
    /// acknowledge) the failure instead of the solver aborting the
    /// process.
    pub fn with_incumbent(mut self, x: Vec<f64>) -> Result<Self, String> {
        let obj = self
            .verified_objective(&x)
            .map_err(|e| format!("seed incumbent {e}"))?;
        self.offer_incumbent(obj, x, 0, None, f64::NEG_INFINITY);
        Ok(self)
    }

    /// The objective of `x` once it is checked feasible (to 1e-6) and
    /// integral — the test a caller's point, seed or heuristic, must pass
    /// before it may prune the tree.
    fn verified_objective(&self, x: &[f64]) -> Result<f64, String> {
        self.model
            .check_feasible(x, 1e-6)
            .map_err(|e| format!("infeasible: {e}"))?;
        if !self.model.is_integral(x, INT_TOL) {
            return Err("is fractional".to_string());
        }
        Ok(self.model.objective_value(x))
    }

    /// Accepts `x` as the new incumbent when it improves on the current
    /// one, recording a trajectory point and emitting a `milp.incumbent`
    /// event. `nodes`/`start`/`bound` describe the search state at the
    /// moment of the offer; `start` is the solve's start instant (`None`
    /// for a pre-solve seed), read only when the offer is *accepted* so
    /// rejected offers stay clock-free.
    fn offer_incumbent(
        &mut self,
        obj: f64,
        x: Vec<f64>,
        nodes: usize,
        start: Option<Instant>,
        bound: f64,
    ) {
        if self
            .incumbent
            .as_ref()
            .is_none_or(|(best, _)| obj < best - BOUND_TOL)
        {
            self.incumbent = Some((obj, x));
            let point = GapPoint {
                nodes,
                elapsed: start.map_or(Duration::ZERO, |s| s.elapsed()),
                incumbent: obj,
                bound,
            };
            self.trajectory.push(point);
            if let Some(r) = dynp_obs::recorder() {
                r.event("milp.incumbent")
                    .kv("nodes", nodes)
                    .kv("objective", obj)
                    .kv(
                        "bound",
                        bound.is_finite().then_some(bound),
                    )
                    .kv("gap", point.gap())
                    .emit();
            }
        }
    }

    /// The default branching, as bound changes for [`Node::tighten`]: on
    /// the most fractional integral variable `x_j = v`, a down child
    /// `x_j ≤ ⌊v⌋` and an up child `x_j ≥ ⌈v⌉`.
    fn most_fractional(&self, x: &[f64]) -> BranchChildren {
        let j = x
            .iter()
            .enumerate()
            .filter(|&(j, _)| self.model.integral[j])
            .map(|(j, &v)| (j, (v - v.round()).abs()))
            .filter(|&(_, frac)| frac > INT_TOL)
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
            .map(|(j, _)| j)
            .expect("fractional solution has a fractional integral var");
        let v = x[j];
        (
            vec![(j, f64::NEG_INFINITY, v.floor())],
            vec![(j, v.ceil(), f64::INFINITY)],
        )
    }

    /// Lifts an LP bound using objective integrality when available.
    fn lift(&self, bound: f64) -> f64 {
        if self.integral_objective {
            (bound - 1e-6).ceil()
        } else {
            bound
        }
    }

    /// Runs the search to completion or a limit.
    pub fn solve(mut self) -> MipSolution {
        let solve_start = Instant::now();
        // The whole B&B search is one traced span (child of milp.solve
        // inside a campaign cell).
        let _search_span = dynp_obs::span("milp.search");
        // Metric handles are fetched once here; the round loop below only
        // touches atomics (or skips entirely when no recorder is
        // installed).
        let obs = dynp_obs::recorder();
        let m_nodes = obs.map(|r| r.counter("milp.nodes"));
        let m_open = obs.map(|r| r.gauge("milp.open_nodes"));
        let m_lp_iters = obs.map(|r| r.histogram("milp.lp_iterations"));
        let workers = self.limits.solver_workers.max(1);
        let mut nodes_explored = 0usize;
        let mut lp_iterations = 0usize;
        let mut warm_lps = 0usize;
        let mut cold_lps = 0usize;
        let mut kernel = KernelCounts::default();
        let mut next_id = 0u64;
        let mut hit_limit = false;
        // Global lower bound starts at -inf and is the min over open nodes.
        let mut heap = BinaryHeap::new();
        heap.push(Node {
            bound: f64::NEG_INFINITY,
            id: next_id,
            lower: self.model.lower.clone(),
            upper: self.model.upper.clone(),
            warm: None,
        });
        next_id += 1;
        let mut proven_bound = f64::NEG_INFINITY;
        loop {
            // ---- Collect: pop the best open nodes for this round. ----
            //
            // Every stop condition is applied here, *in pop order and
            // before any LP runs*, so the batch — and with it the whole
            // explored tree — is a pure function of the model, the limits
            // and the search state, never of worker timing.
            let mut batch: Vec<Node> = Vec::with_capacity(ROUND_WIDTH);
            while batch.len() < ROUND_WIDTH {
                let Some(node) = heap.pop() else { break };
                if let Some((best, _)) = &self.incumbent {
                    if node.bound >= best - BOUND_TOL {
                        // Best-first: every other open node is no better.
                        // With nothing collected ahead of it the proof is
                        // complete (the empty batch ends the search
                        // below); otherwise the pending batch must merge
                        // first — it may improve the incumbent *and* push
                        // children below the bar — so the node goes back
                        // and the test re-runs next round.
                        if batch.is_empty() {
                            proven_bound = *best;
                        } else {
                            heap.push(node);
                        }
                        break;
                    }
                }
                let queued = nodes_explored + batch.len();
                // The cooperative cancel tokens installed around the
                // solve, such as a campaign cell's wall-clock deadline,
                // read the clock; with none installed nothing does. An
                // expired one winds the search down exactly like any
                // other exhausted budget, keeping "CPLEX still running" a
                // value, not an abort.
                let over_budget = queued >= self.limits.max_nodes || dynp_obs::cancelled();
                if over_budget {
                    // The triggering node goes back (its bound stays
                    // open); the batch already collected is still solved
                    // and merged — at most one round of work in flight —
                    // then the search winds down.
                    hit_limit = true;
                    heap.push(node);
                    break;
                }
                // The node will be explored this round, so its bound is
                // proven: pops are non-decreasing (best-first, and
                // children never bound below their parent's LP value),
                // hence everything still open is at least this.
                proven_bound = proven_bound.max(node.bound);
                batch.push(node);
            }
            if batch.is_empty() {
                // The heap ran dry, the proof completed, or a budget
                // fired before the first pop.
                break;
            }
            if let Some(m) = &m_open {
                // All of heap plus the collected batch are still open.
                m.set((heap.len() + batch.len()) as i64);
            }
            // ---- Solve: the batch's node LPs, concurrently. ----
            //
            // Each LP is a pure function of the model and the node's
            // bounds — never of the incumbent — so its result cannot
            // depend on scheduling. A node carrying its parent's optimal
            // basis is warm-started (dual-simplex repair, phase 1
            // skipped); the root, and any warm start the simplex rejects,
            // solves cold via the crash hook.
            let model = self.model;
            let crash = &self.crash;
            let max_lp_iterations = self.limits.max_lp_iterations;
            let outcomes = pool::run_indexed(workers, &batch, |_, node| {
                let crashed;
                let start = match &node.warm {
                    Some(warm) => LpStart::Warm(warm),
                    None => {
                        crashed = crash.as_ref().and_then(|c| c(&node.lower, &node.upper));
                        crashed.as_ref().map_or(LpStart::Cold, LpStart::Crash)
                    }
                };
                solve_lp(model, &node.lower, &node.upper, start, max_lp_iterations)
            });
            // ---- Merge: sequentially, in pop order. ----
            //
            // Bounds, incumbents, fixings and children are folded in the
            // same order a serial solver would produce them, so the merged
            // state after the round is independent of worker count.
            for (node, slot) in batch.into_iter().zip(outcomes) {
                nodes_explored += 1;
                if let Some(m) = &m_nodes {
                    m.inc();
                }
                let (outcome, warmed) = match slot {
                    SlotOutcome::Done(r) => r,
                    SlotOutcome::Panicked(caught) => {
                        // A dead LP cannot bound its subtree; exactness is
                        // lost if we drop it silently, so surface the
                        // failure as a limit (mirrors IterationLimit).
                        hit_limit = true;
                        if let Some(r) = obs {
                            r.event("milp.lp_panicked")
                                .kv("node", node.id)
                                .kv("panic", caught.payload.as_str())
                                .kv("at", caught.location.as_str())
                                .emit();
                        }
                        continue;
                    }
                };
                if warmed {
                    warm_lps += 1;
                } else {
                    cold_lps += 1;
                }
                let sol = match outcome {
                    LpOutcome::Infeasible => continue,
                    LpOutcome::Optimal(s) => s,
                    LpOutcome::Unbounded | LpOutcome::IterationLimit => {
                        // Cannot bound this node; exactness is lost if we
                        // drop it, so surface the failure as a limit.
                        hit_limit = true;
                        continue;
                    }
                };
                lp_iterations += sol.iterations;
                kernel.absorb(&sol.counts);
                if let Some(m) = &m_lp_iters {
                    m.record(sol.iterations as u64);
                }
                let bound = self.lift(sol.objective);
                if let Some((best, _)) = &self.incumbent {
                    if bound >= best - BOUND_TOL {
                        continue; // pruned by bound
                    }
                }
                // Reduced-cost fixing (valid for this node's whole
                // subtree): forcing a nonbasic variable off its bound
                // raises the LP value by at least its reduced cost; if
                // that lifted value reaches the incumbent, the variable
                // can be pinned to its bound.
                let mut node = node;
                if let Some((best, _)) = &self.incumbent {
                    for (j, &d) in sol.reduced_costs.iter().enumerate() {
                        if !self.model.integral[j] || node.lower[j] == node.upper[j] {
                            continue;
                        }
                        if d > 0.0 && sol.x[j] <= node.lower[j] + INT_TOL {
                            if self.lift(sol.objective + d) >= best - BOUND_TOL {
                                node.upper[j] = node.lower[j];
                            }
                        } else if d < 0.0
                            && sol.x[j] >= node.upper[j] - INT_TOL
                            && self.lift(sol.objective - d) >= best - BOUND_TOL
                        {
                            node.lower[j] = node.upper[j];
                        }
                    }
                }
                // Integral? New incumbent.
                if self.model.is_integral(&sol.x, INT_TOL) {
                    let rounded: Vec<f64> = sol
                        .x
                        .iter()
                        .zip(&self.model.integral)
                        .map(|(&v, &f)| if f { v.round() } else { v })
                        .collect();
                    // Guard against numerical drift: only a verified-
                    // feasible point may prune the tree. A failed check
                    // degrades the final status to Feasible instead of
                    // corrupting exactness.
                    if self.model.check_feasible(&rounded, 1e-5).is_ok() {
                        let obj = self.model.objective_value(&rounded);
                        self.offer_incumbent(
                            obj,
                            rounded,
                            nodes_explored,
                            Some(solve_start),
                            proven_bound,
                        );
                    } else {
                        debug_assert!(false, "integral LP point failed feasibility");
                        hit_limit = true;
                    }
                    continue;
                }
                // Primal heuristic on fractional solutions.
                if let Some(hx) = self.heuristic.as_ref().and_then(|h| h(self.model, &sol)) {
                    if let Ok(obj) = self.verified_objective(&hx) {
                        self.offer_incumbent(
                            obj,
                            hx,
                            nodes_explored,
                            Some(solve_start),
                            proven_bound,
                        );
                    }
                }
                // Custom (e.g. SOS) branching when installed and willing,
                // most-fractional otherwise.
                let (down, up) = self
                    .brancher
                    .as_ref()
                    .and_then(|brancher| brancher(self.model, &sol))
                    .unwrap_or_else(|| self.most_fractional(&sol.x));
                // Both children differ from this node by a few variable
                // bounds, so this node's optimal basis warm-starts their
                // LPs (shared — it is read-only on the workers).
                let warm = Some(Arc::new(sol.basis.clone()));
                for changes in [down, up] {
                    let mut child = Node {
                        bound,
                        id: next_id,
                        lower: node.lower.clone(),
                        upper: node.upper.clone(),
                        warm: warm.clone(),
                    };
                    next_id += 1;
                    if child.tighten(&changes) {
                        heap.push(child);
                    }
                }
            }
            if hit_limit {
                break;
            }
        }
        // If the tree is exhausted, the proof is complete.
        let exhausted = heap.is_empty() && !hit_limit;
        let (status, objective, x) = match (self.incumbent, exhausted) {
            (Some((obj, x)), true) => (MipStatus::Optimal, Some(obj), Some(x)),
            (Some((obj, x)), false) => {
                // Stopped early — the incumbent may or may not be optimal.
                // If the break came from the bound test, it *is* optimal.
                let status = if hit_limit {
                    MipStatus::Feasible
                } else {
                    MipStatus::Optimal
                };
                (status, Some(obj), Some(x))
            }
            (None, true) => (MipStatus::Infeasible, None, None),
            (None, false) => (MipStatus::Unknown, None, None),
        };
        let best_bound = match status {
            MipStatus::Optimal => objective.unwrap(),
            _ => heap
                .peek()
                .map(|n| n.bound)
                .unwrap_or(proven_bound)
                .max(proven_bound),
        };
        let wall_time = solve_start.elapsed();
        // Close the trajectory: the exit point carries the final bound,
        // so the last gap always matches `MipSolution::gap()`.
        let mut trajectory = std::mem::take(&mut self.trajectory);
        if let Some(obj) = objective {
            trajectory.push(GapPoint {
                nodes: nodes_explored,
                elapsed: wall_time,
                incumbent: obj,
                bound: best_bound,
            });
        }
        if let Some(r) = obs {
            if hit_limit {
                // Budget-exhausted solves are what the online
                // "milp-budget-exhaustion" alert rate-watches.
                r.counter("milp.budget_exhausted").inc();
            }
            let mut exit = r
                .event("milp.exit")
                .kv("status", format!("{status:?}"))
                .kv("nodes", nodes_explored)
                .kv("lp_iterations", lp_iterations)
                .kv("warm_lps", warm_lps)
                .kv("cold_lps", cold_lps);
            for (field, n) in kernel.fields() {
                exit = exit.kv(field, n);
            }
            exit.kv("objective", objective)
                .kv(
                    "bound",
                    best_bound.is_finite().then_some(best_bound),
                )
                .kv(
                    "gap",
                    trajectory.last().and_then(GapPoint::gap),
                )
                .kv("wall_secs", wall_time.as_secs_f64())
                .emit();
        }
        MipSolution {
            status,
            objective,
            x,
            best_bound,
            nodes: nodes_explored,
            lp_iterations,
            warm_lps,
            cold_lps,
            kernel,
            wall_time,
            trajectory,
        }
    }
}

/// Convenience: solve `model` with `limits`.
pub fn solve_mip(model: &Milp, limits: BranchLimits) -> MipSolution {
    BranchBound::new(model, limits).solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::sparse::CscMatrix;

    /// Brute-force optimum over {0,1}^n for cross-checking.
    fn brute_force(model: &Milp) -> Option<(f64, Vec<f64>)> {
        let n = model.num_vars();
        assert!(n <= 20);
        let mut best: Option<(f64, Vec<f64>)> = None;
        for mask in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n).map(|j| ((mask >> j) & 1) as f64).collect();
            if model.check_feasible(&x, 1e-9).is_ok() {
                let obj = model.objective_value(&x);
                if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                    best = Some((obj, x));
                }
            }
        }
        best
    }

    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> Milp {
        // max v.x s.t. w.x <= cap -> min -v.x
        Milp::binary(
            values.iter().map(|v| -v).collect(),
            CscMatrix::from_dense(&[weights.to_vec()]),
            vec![Sense::Le],
            vec![cap],
        )
    }

    #[test]
    fn knapsack_optimum_matches_brute_force() {
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0],
            10.0,
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Optimal);
        let (bf_obj, _) = brute_force(&m).unwrap();
        assert!((sol.objective.unwrap() - bf_obj).abs() < 1e-6);
        assert!((sol.best_bound - bf_obj).abs() < 1e-6);
    }

    #[test]
    fn assignment_problem_exact() {
        // 3 jobs, 3 slots, each slot holds one job; costs force a unique
        // optimal matching.
        let costs = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let n = 3;
        let mut rows = vec![vec![0.0; n * n]; 2 * n];
        for i in 0..n {
            for t in 0..n {
                rows[i][i * n + t] = 1.0; // job i assigned once
                rows[n + t][i * n + t] = 1.0; // slot t used once
            }
        }
        let mut senses = vec![Sense::Eq; n];
        senses.extend(vec![Sense::Le; n]);
        let mut rhs = vec![1.0; n];
        rhs.extend(vec![1.0; n]);
        let m = Milp::binary(
            costs.iter().flatten().copied().collect(),
            CscMatrix::from_dense(&rows),
            senses,
            rhs,
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Optimal);
        let (bf_obj, _) = brute_force(&m).unwrap();
        assert!((sol.objective.unwrap() - bf_obj).abs() < 1e-6);
    }

    #[test]
    fn infeasible_model_detected() {
        // x0 + x1 >= 3 with binaries.
        let m = Milp::binary(
            vec![1.0, 1.0],
            CscMatrix::from_dense(&[vec![1.0, 1.0]]),
            vec![Sense::Ge],
            vec![3.0],
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Infeasible);
        assert!(sol.objective.is_none());
    }

    #[test]
    fn node_limit_degrades_to_feasible_or_unknown() {
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0],
            12.0,
        );
        let sol = solve_mip(
            &m,
            BranchLimits {
                max_nodes: 1,
                ..BranchLimits::default()
            },
        );
        assert!(matches!(
            sol.status,
            MipStatus::Feasible | MipStatus::Unknown
        ));
        // The bound must still be a valid lower bound.
        let (bf_obj, _) = brute_force(&m).unwrap();
        assert!(sol.best_bound <= bf_obj + 1e-6);
    }

    #[test]
    fn incumbent_seeding_is_used() {
        let m = knapsack(&[5.0, 4.0], &[3.0, 3.0], 3.0);
        // Feasible seed: take item 1.
        let sol = BranchBound::new(&m, BranchLimits::default())
            .with_incumbent(vec![0.0, 1.0])
            .expect("seed is feasible")
            .solve();
        assert_eq!(sol.status, MipStatus::Optimal);
        // Optimum is item 0 (value 5) and must beat the seed (value 4).
        assert!((sol.objective.unwrap() + 5.0).abs() < 1e-6);
        // The trajectory starts at the seed (nodes 0, unbounded) and ends
        // at the proven optimum.
        assert!(sol.trajectory.len() >= 2);
        assert_eq!(sol.trajectory[0].nodes, 0);
        assert!((sol.trajectory[0].incumbent + 4.0).abs() < 1e-6);
        assert_eq!(sol.trajectory[0].gap(), None);
        assert!(sol.trajectory.last().unwrap().gap().unwrap() < 1e-9);
    }

    #[test]
    fn bad_seed_is_rejected() {
        let m = knapsack(&[5.0, 4.0], &[3.0, 3.0], 3.0);
        let Err(err) = BranchBound::new(&m, BranchLimits::default()).with_incumbent(vec![1.0, 1.0])
        else {
            panic!("infeasible seed accepted")
        };
        assert!(err.contains("infeasible"), "unexpected error: {err}");
    }

    #[test]
    fn fractional_seed_is_rejected() {
        let m = knapsack(&[5.0, 4.0], &[3.0, 3.0], 3.0);
        let Err(err) = BranchBound::new(&m, BranchLimits::default()).with_incumbent(vec![0.5, 0.0])
        else {
            panic!("fractional seed accepted")
        };
        assert!(err.contains("fractional"), "unexpected error: {err}");
    }

    #[test]
    fn heuristic_improves_incumbent() {
        let m = knapsack(&[10.0, 13.0, 7.0], &[5.0, 6.0, 3.0], 8.0);
        // Hooks are `Send + Sync` (they may run on LP workers), so the
        // test flag must be too.
        let called = std::sync::atomic::AtomicBool::new(false);
        let sol = BranchBound::new(&m, BranchLimits::default())
            .with_heuristic(Box::new(|model, lp| {
                called.store(true, std::sync::atomic::Ordering::Relaxed);
                // Greedy rounding: take items by LP weight while feasible.
                let mut order: Vec<usize> = (0..lp.x.len()).collect();
                order.sort_by(|&a, &b| lp.x[b].partial_cmp(&lp.x[a]).unwrap());
                let mut x = vec![0.0; lp.x.len()];
                for j in order {
                    x[j] = 1.0;
                    if model.check_feasible(&x, 1e-9).is_err() {
                        x[j] = 0.0;
                    }
                }
                Some(x)
            }))
            .solve();
        assert_eq!(sol.status, MipStatus::Optimal);
        let (bf_obj, _) = brute_force(&m).unwrap();
        assert!((sol.objective.unwrap() - bf_obj).abs() < 1e-6);
        assert!(
            called.load(std::sync::atomic::Ordering::Relaxed),
            "heuristic was never invoked"
        );
    }

    #[test]
    fn a_bound_change_keeps_its_own_bits_on_a_tie() {
        // A most-fractional child's bound is exactly ⌊v⌋ or ⌈v⌉. For an LP
        // value a hair outside [0, 1] that equals the bound it replaces up
        // to the sign of zero, and the child must carry the new bits.
        let node = |lower: f64, upper: f64| Node {
            bound: 0.0,
            id: 0,
            lower: vec![lower],
            upper: vec![upper],
            warm: None,
        };
        let mut up = node(0.0, 1.0);
        assert!(up.tighten(&[(0, (-2e-6f64).ceil(), f64::INFINITY)]));
        assert_eq!(up.lower[0].to_bits(), (-0.0f64).to_bits());
        let mut down = node(-0.0, -0.0);
        assert!(down.tighten(&[(0, f64::NEG_INFINITY, 2e-6f64.floor())]));
        assert_eq!(down.upper[0].to_bits(), 0.0f64.to_bits());
        // A change that empties a range rejects the child.
        let mut fixed = node(1.0, 1.0);
        assert!(!fixed.tighten(&[(0, 0.0, 0.0)]));
    }

    #[test]
    fn integral_objective_rounding_enabled_for_integer_costs() {
        let m = knapsack(&[3.0, 2.0], &[2.0, 2.0], 3.0);
        let bb = BranchBound::new(&m, BranchLimits::default());
        assert!(bb.integral_objective);
        assert_eq!(bb.lift(-2.7), -2.0);
    }

    #[test]
    fn random_instances_match_brute_force() {
        // Deterministic pseudo-random small instances.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _case in 0..25 {
            let n = 3 + (next() % 5) as usize; // 3..7 vars
            let values: Vec<f64> = (0..n).map(|_| (next() % 20) as f64).collect();
            let weights: Vec<f64> = (0..n).map(|_| 1.0 + (next() % 9) as f64).collect();
            let cap = 1.0 + (next() % 20) as f64;
            let m = knapsack(&values, &weights, cap);
            let sol = solve_mip(&m, BranchLimits::default());
            assert_eq!(sol.status, MipStatus::Optimal);
            let (bf_obj, _) = brute_force(&m).unwrap();
            assert!(
                (sol.objective.unwrap() - bf_obj).abs() < 1e-6,
                "mismatch: mip {} vs brute {} on v={values:?} w={weights:?} c={cap}",
                sol.objective.unwrap(),
                bf_obj
            );
        }
    }

    #[test]
    fn gap_is_zero_at_optimality() {
        let m = knapsack(&[10.0, 13.0], &[5.0, 6.0], 10.0);
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Optimal);
        assert!(sol.gap().unwrap() < 1e-9);
    }

    #[test]
    fn gap_is_none_without_incumbent() {
        // Infeasible model: no incumbent ever exists.
        let m = Milp::binary(
            vec![1.0, 1.0],
            CscMatrix::from_dense(&[vec![1.0, 1.0]]),
            vec![Sense::Ge],
            vec![3.0],
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.gap(), None);
        assert!(sol.trajectory.is_empty());
        // Same for a node limit of zero on a feasible model.
        let m = knapsack(&[5.0], &[1.0], 1.0);
        let sol = solve_mip(
            &m,
            BranchLimits {
                max_nodes: 0,
                ..BranchLimits::default()
            },
        );
        assert_eq!(sol.status, MipStatus::Unknown);
        assert_eq!(sol.gap(), None);
    }

    #[test]
    fn gap_is_positive_when_stopped_early() {
        // Seed an incumbent, then stop after one node: the proof is
        // incomplete, so the reported gap must be strictly positive.
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0],
            12.0,
        );
        // Feasible but far-from-optimal seed: only the lightest item.
        let seed = vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0];
        let sol = BranchBound::new(
            &m,
            BranchLimits {
                max_nodes: 1,
                ..BranchLimits::default()
            },
        )
        .with_incumbent(seed)
        .unwrap()
        .solve();
        assert_eq!(sol.status, MipStatus::Feasible);
        let gap = sol.gap().expect("incumbent exists");
        assert!(gap > 0.0, "gap should be open, got {gap}");
    }

    #[test]
    fn solutions_are_byte_identical_across_worker_counts() {
        // The tentpole guarantee: worker count buys wall-clock time only.
        // Everything the search decided — tree, counts, trajectory —
        // renders byte-identically at 1, 2 and 4 workers. The instance is
        // the one `gap_is_positive_when_stopped_early` shows needs a real
        // tree (its root LP is fractional).
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0],
            12.0,
        );
        let render = |workers: usize| {
            solve_mip(
                &m,
                BranchLimits {
                    solver_workers: workers,
                    ..BranchLimits::default()
                },
            )
            .canonical_json()
            .to_json_pretty()
        };
        let serial = render(1);
        assert_eq!(serial, render(2), "2 workers diverged from serial");
        assert_eq!(serial, render(4), "4 workers diverged from serial");
        // And the same under a node budget, where the stop condition
        // itself must land on the same node regardless of workers.
        let render_limited = |workers: usize| {
            solve_mip(
                &m,
                BranchLimits {
                    solver_workers: workers,
                    max_nodes: 5,
                    ..BranchLimits::default()
                },
            )
            .canonical_json()
            .to_json_pretty()
        };
        let serial = render_limited(1);
        assert_eq!(serial, render_limited(2));
        assert_eq!(serial, render_limited(4));
    }

    #[test]
    fn kernel_counts_fold_over_the_node_lps() {
        // Same instance as above: a real tree, so cold and warm node LPs
        // both contribute. The counts are exact, hence equal across
        // worker counts field by field (the render test covers the
        // bytes; this one that there is something to cover).
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0],
            12.0,
        );
        let solve = |workers: usize| {
            solve_mip(
                &m,
                BranchLimits {
                    solver_workers: workers,
                    ..BranchLimits::default()
                },
            )
        };
        let serial = solve(1);
        assert!(serial.warm_lps > 0 && serial.cold_lps > 0);
        let k = serial.kernel;
        // Every counted LP factorizes at least the basis it starts from,
        // and a 1-row factor stores its pivot.
        assert!(k.refactors > 0 && k.lu_nnz >= k.refactors);
        assert_eq!(k.lu_nucleus_rows, 0, "one row is a singleton");
        assert!(
            k.primal_pivots + k.bound_flips > 0,
            "the root is solved by the primal"
        );
        assert!(k.dual_pivots > 0, "warm children are repaired by the dual");
        assert!(
            k.pricing_row_nnz >= k.dual_pivots,
            "a pricing row holds its pivot"
        );
        assert!(serial.lp_iterations >= k.primal_pivots + k.dual_pivots + k.bound_flips);
        assert_eq!(k, solve(2).kernel);
        assert_eq!(k, solve(4).kernel);
        let render = serial.canonical_json().to_json();
        for (field, _) in k.fields() {
            assert!(
                render.contains(&format!("\"{field}\":")),
                "{field} not rendered"
            );
        }
    }

    #[test]
    fn a_panicking_node_lp_degrades_the_solve_to_a_limit() {
        // The crash hook runs inside the pooled node-LP closure and only
        // for cold nodes, i.e. the root (children are warm-started), so a
        // hook that panics on the root's bounds kills exactly node 0.
        let m = knapsack(&[5.0, 4.0, 3.0], &[3.0, 3.0, 2.0], 4.0);
        let recorder = dynp_obs::install(dynp_obs::Recorder::new(dynp_obs::Sink::memory()));
        let render = |workers: usize| {
            let sol = BranchBound::new(
                &m,
                BranchLimits {
                    solver_workers: workers,
                    ..BranchLimits::default()
                },
            )
            .with_crash(Box::new(|lower, upper| {
                assert!(
                    lower.iter().any(|&l| l != 0.0) || upper.iter().any(|&u| u != 1.0),
                    "injected root LP failure"
                );
                None
            }))
            .with_incumbent(vec![0.0, 1.0, 0.0])
            .expect("seed is feasible")
            .solve();
            // The solve returned instead of unwinding, and the subtree
            // nobody bounded shows as a limit, never as a proof.
            assert_eq!(sol.status, MipStatus::Feasible, "workers={workers}");
            assert_eq!((sol.nodes, sol.cold_lps, sol.warm_lps), (1, 0, 0));
            sol.canonical_json().to_json_pretty()
        };
        assert_eq!(render(1), render(2));
        // One event per dead LP (two solves, one dead root each), carrying
        // what the panic hook would otherwise have printed or lost.
        let panicked: Vec<String> = recorder
            .events()
            .into_iter()
            .filter(|l| l.contains("\"target\":\"milp.lp_panicked\""))
            .collect();
        assert_eq!(panicked.len(), 2, "{panicked:?}");
        for line in &panicked {
            assert!(line.contains("\"node\":0"), "{line}");
            assert!(line.contains("injected root LP failure"), "{line}");
            assert!(line.contains("branch.rs:"), "{line}");
        }
    }

    #[test]
    fn warm_starts_are_used_and_counted() {
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0, 6.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0, 3.0],
            14.0,
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Optimal);
        // Every explored node's LP is classified exactly once; LPs that
        // die mid-solve (never here) are the only gap.
        assert_eq!(sol.warm_lps + sol.cold_lps, sol.nodes);
        // Only the root must solve cold; children inherit its basis.
        assert!(sol.cold_lps >= 1, "the root LP cannot be warm");
        if sol.nodes > 1 {
            assert!(sol.warm_lps > 0, "no child LP was warm-started");
        }
    }

    #[test]
    fn an_installed_deadline_stops_the_root_lp_and_nested_budgets_all_bind() {
        use crate::scaling::TimeScaling;
        use crate::timeindex::TimeIndexedModel;
        use dynp_obs::{install_cancel, CancelToken};
        use dynp_trace::Job;
        // 100 jobs on 48 nodes: a root LP of several hundred iterations,
        // so a 1 ms deadline expires inside it, between two polls.
        let jobs: Vec<Job> = (0..100u32)
            .map(|i| Job::exact(i, 0, 1 + (i * 7) % 16, 120 * (1 + (i as u64 * 13) % 4)))
            .collect();
        let problem = dynp_sched::SchedulingProblem::on_empty_machine(0, 48, jobs);
        let ti = TimeIndexedModel::build(&problem, TimeScaling::fixed(120), 0);
        let order: Vec<usize> = (0..100).collect();
        let seed = ti
            .greedy_solution(&order)
            .expect("build sized the grid for this order");
        let seed_objective = ti.model.objective_value(&seed);
        // Solves under a caller-installed deadline token, if any.
        let solve = |max_nodes: usize, deadline: Option<Duration>| {
            let ti = &ti;
            let token = deadline.map(CancelToken::with_deadline);
            let _guard = token.as_ref().map(install_cancel);
            BranchBound::new(
                &ti.model,
                BranchLimits {
                    max_nodes,
                    ..BranchLimits::default()
                },
            )
            .with_incumbent(seed.clone())
            .expect("greedy seed is feasible")
            .with_crash(Box::new(move |lower, upper| ti.crash_start(lower, upper)))
            .solve()
        };
        let root = solve(1, None);
        assert_eq!(root.nodes, 1);
        assert!(root.lp_iterations >= 300, "root LP: {}", root.lp_iterations);

        // The deadline expires during the root LP, which gives up at its
        // next poll: one node entered, no LP finished, the seed kept.
        let cut = solve(usize::MAX, Some(Duration::from_millis(1)));
        assert!(cut.nodes <= 1, "{} nodes under a 1 ms deadline", cut.nodes);
        assert!(cut.lp_iterations < root.lp_iterations);
        assert_eq!(cut.status, MipStatus::Feasible);
        assert_eq!(cut.objective, Some(seed_objective));

        // A deadline that has already passed stops before the first node.
        let none = solve(usize::MAX, Some(Duration::ZERO));
        assert_eq!((none.nodes, none.status), (0, MipStatus::Feasible));

        // An expired outer budget is not shadowed by a later, generous
        // inner one.
        let outer = CancelToken::with_deadline(Duration::ZERO);
        let _guard = install_cancel(&outer);
        let shadowed = solve(usize::MAX, Some(Duration::from_secs(3600)));
        assert_eq!((shadowed.nodes, shadowed.status), (0, MipStatus::Feasible));
    }

    #[test]
    fn gap_trajectory_is_monotone_non_increasing() {
        let m = knapsack(
            &[10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0, 6.0],
            &[5.0, 6.0, 3.0, 4.0, 1.0, 5.0, 2.0, 3.0],
            14.0,
        );
        let sol = solve_mip(&m, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Optimal);
        assert!(!sol.trajectory.is_empty());
        // Incumbents only ever improve and bounds only ever tighten, so
        // wherever the gap is defined it must not increase; node counts
        // are non-decreasing too.
        let mut last_gap = f64::INFINITY;
        let mut last_nodes = 0;
        for point in &sol.trajectory {
            assert!(point.nodes >= last_nodes);
            last_nodes = point.nodes;
            if let Some(gap) = point.gap() {
                assert!(
                    gap <= last_gap + 1e-12,
                    "gap widened: {last_gap} -> {gap}"
                );
                last_gap = gap;
            }
        }
        // The final point agrees with the solution-level gap.
        assert!(
            (sol.trajectory.last().unwrap().gap().unwrap() - sol.gap().unwrap()).abs() < 1e-12
        );
    }
}
