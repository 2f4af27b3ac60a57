//! The time-indexed integer program of §3.1, on the §3.2 slot grid.
//!
//! Variables: `x_it = 1` iff job `i` starts at slot `t` (Eq. 1). Objective:
//! minimize response time weighted by width (Eq. 2) — on the slot grid this
//! reduces to integer costs `w_i · t`, which both preserves the argmin and
//! lets branch & bound ceil its LP bounds. Constraints: every job starts
//! exactly once (Eq. 3) and per-slot capacity reduced by the machine
//! history (Eq. 4), where a slot's capacity is the **minimum** free count
//! over the real-time window it covers, so any slot-grid schedule is
//! feasible in real time.
//!
//! The horizon `T` is the caller's bound (§3.1 recommends the maximum
//! makespan of the FCFS/SJF/LJF schedules), automatically extended until a
//! greedy slot schedule fits, which guarantees model feasibility without
//! giving the search more room than it needs.

use crate::model::{Milp, Sense};
use crate::scaling::TimeScaling;

/// Bound modifications `(variable, new lower, new upper)` for the two
/// children of an SOS branch (see [`TimeIndexedModel::sos_branch`]).
pub type BranchChildren = (Vec<(usize, f64, f64)>, Vec<(usize, f64, f64)>);
use crate::simplex::LpSolution;
use crate::sparse::CscBuilder;
use dynp_sched::{Schedule, ScheduleEntry, SchedulingProblem};
use dynp_trace::JobId;

/// The §3.1 formulation built for one snapshot.
#[derive(Clone, Debug)]
pub struct TimeIndexedModel {
    /// The MILP ready for [`crate::branch`].
    pub model: Milp,
    /// The slot width used.
    pub scaling: TimeScaling,
    /// Number of slots `T`.
    pub horizon_slots: usize,
    /// Slot capacities `M_t` after subtracting the machine history.
    pub slot_capacity: Vec<u32>,
    /// Per-job duration in slots (`ceil(d_i / scale)`).
    pub duration_slots: Vec<usize>,
    /// `var_map[v] = (job index, start slot)`.
    pub var_map: Vec<(usize, usize)>,
    /// Variable range `[start, end)` of each job's columns.
    pub job_vars: Vec<(usize, usize)>,
    /// Observation time of the snapshot.
    pub now: u64,
    /// Job ids in snapshot order (for extraction).
    pub job_ids: Vec<JobId>,
    /// Job widths in snapshot order.
    pub widths: Vec<u32>,
}

impl TimeIndexedModel {
    /// Builds the formulation for `problem` at `scaling`, with an initial
    /// horizon of `horizon_end` absolute seconds (e.g. the max policy
    /// makespan per §3.1). The horizon is extended if a greedy placement
    /// needs more room, so the model is always feasible.
    ///
    /// # Panics
    /// Panics on an empty snapshot — there is nothing to optimize.
    pub fn build(
        problem: &SchedulingProblem,
        scaling: TimeScaling,
        horizon_end: u64,
    ) -> TimeIndexedModel {
        assert!(!problem.is_empty(), "empty snapshot has no ILP");
        let now = problem.now;
        let scale = scaling.seconds_per_slot;
        let duration_slots: Vec<usize> = problem
            .jobs
            .iter()
            .map(|j| (j.estimated_duration.max(1)).div_ceil(scale) as usize)
            .collect();
        let base_slots = scaling
            .slots_for(horizon_end.saturating_sub(now))
            .max(*duration_slots.iter().max().unwrap());

        // Capacity of a slot = min free over its real window of the
        // availability profile (history minus reservations).
        let profile = problem.availability_profile();
        let capacity_at = |t: usize| -> u32 {
            let a = now + t as u64 * scale;
            let b = a + scale;
            profile.min_free(a, b)
        };

        // Greedy placement in snapshot order to find a horizon that surely
        // admits a feasible solution.
        let horizon_slots = {
            let mut t_needed = base_slots;
            loop {
                let mut rem: Vec<i64> = (0..t_needed).map(|t| capacity_at(t) as i64).collect();
                if greedy_fill(problem, &duration_slots, &mut rem).is_some() {
                    break t_needed;
                }
                t_needed += base_slots.max(16);
            }
        };
        let slot_capacity: Vec<u32> = (0..horizon_slots).map(capacity_at).collect();

        // Assemble the model: rows 0..n are assignment (Eq), rows
        // n..n+T are capacity (Le).
        let n = problem.jobs.len();
        let m = n + horizon_slots;
        let mut builder = CscBuilder::new(m);
        let mut objective = Vec::new();
        let mut var_map = Vec::new();
        let mut job_vars = Vec::new();
        for (i, job) in problem.jobs.iter().enumerate() {
            let d = duration_slots[i];
            let first_var = objective.len();
            for t in 0..=(horizon_slots - d) {
                builder.push_column_runs(&[(i..i + 1, 1.0), (n + t..n + t + d, job.width as f64)]);
                objective.push(job.width as f64 * t as f64);
                var_map.push((i, t));
            }
            job_vars.push((first_var, objective.len()));
        }
        let mut senses = vec![Sense::Eq; n];
        senses.extend(vec![Sense::Le; horizon_slots]);
        let mut rhs = vec![1.0; n];
        rhs.extend(slot_capacity.iter().map(|&c| c as f64));
        let model = Milp::binary(objective, builder.build(), senses, rhs);
        TimeIndexedModel {
            model,
            scaling,
            horizon_slots,
            slot_capacity,
            duration_slots,
            var_map,
            job_vars,
            now,
            job_ids: problem.jobs.iter().map(|j| j.id).collect(),
            widths: problem.jobs.iter().map(|j| j.width).collect(),
        }
    }

    /// Start slot of each job in an integral solution.
    pub fn start_slots(&self, x: &[f64]) -> Vec<usize> {
        assert_eq!(x.len(), self.model.num_vars());
        let mut slots = vec![usize::MAX; self.job_ids.len()];
        for (v, &xv) in x.iter().enumerate() {
            if xv > 0.5 {
                let (i, t) = self.var_map[v];
                debug_assert_eq!(slots[i], usize::MAX, "job {i} started twice");
                slots[i] = t;
            }
        }
        debug_assert!(slots.iter().all(|&s| s != usize::MAX));
        slots
    }

    /// The §3.2 *starting order*: job ids sorted by start slot (ties by
    /// id), ready for compaction against the real-second profile.
    pub fn start_order(&self, x: &[f64]) -> Vec<JobId> {
        let slots = self.start_slots(x);
        let mut order: Vec<usize> = (0..self.job_ids.len()).collect();
        order.sort_by_key(|&i| (slots[i], self.job_ids[i]));
        order.into_iter().map(|i| self.job_ids[i]).collect()
    }

    /// The raw (uncompacted) slot-grid schedule of an integral solution, in
    /// absolute seconds, with estimated durations. Mostly useful to measure
    /// how much compaction reclaims.
    pub fn slot_schedule(&self, x: &[f64], problem: &SchedulingProblem) -> Schedule {
        let slots = self.start_slots(x);
        let mut schedule = Schedule::new();
        for (i, job) in problem.jobs.iter().enumerate() {
            let start = self.scaling.slot_start(self.now, slots[i]);
            schedule.push(ScheduleEntry {
                id: job.id,
                start,
                end: start + job.estimated_duration,
                width: job.width,
            });
        }
        schedule
    }

    /// Greedy slot-grid placement in the given job order; returns the
    /// variable vector of a feasible solution. Used both for incumbent
    /// seeding (from the best policy's start order) and as the rounding
    /// heuristic's engine.
    pub fn greedy_solution(&self, order: &[usize]) -> Option<Vec<f64>> {
        let mut rem: Vec<i64> = self.slot_capacity.iter().map(|&c| c as i64).collect();
        let starts = greedy_fill_order(order, &self.duration_slots, &self.widths, &mut rem)?;
        let mut x = vec![0.0; self.model.num_vars()];
        for (i, &t) in starts.iter().enumerate() {
            let (lo, hi) = self.job_vars[i];
            let var = lo + t;
            debug_assert!(var < hi && self.var_map[var] == (i, t));
            x[var] = 1.0;
        }
        Some(x)
    }

    /// Builds a primal-feasible crash basis for the node described by
    /// `(lower, upper)` bound vectors, skipping simplex phase 1 entirely
    /// (see [`crate::simplex::LpStart::Crash`]).
    ///
    /// The basis exploits the model's block structure: one chosen `x_it`
    /// per job is basic in its assignment row, and every capacity row keeps
    /// its slack basic — a triangular basis the LU factors as singletons,
    /// in O(nnz) with no fill.
    /// The chosen starts come from a greedy earliest-fit that honours the
    /// node's fixings (`lower = 1` forces a start slot, `upper = 0`
    /// forbids one). Returns `None` when the greedy cannot satisfy the
    /// fixings (the node may still be LP-feasible; the solver then falls
    /// back to phase 1).
    #[allow(clippy::needless_range_loop)] // parallel arrays indexed by job
    pub fn crash_start(&self, lower: &[f64], upper: &[f64]) -> Option<crate::simplex::Basis> {
        let n = self.job_ids.len();
        let mut rem: Vec<i64> = self.slot_capacity.iter().map(|&c| c as i64).collect();
        let mut chosen = vec![usize::MAX; n];
        // Forced starts first: vars with lower bound 1.
        for i in 0..n {
            let (lo, hi) = self.job_vars[i];
            for v in lo..hi {
                if lower[v] > 0.5 {
                    let (_, t) = self.var_map[v];
                    let d = self.duration_slots[i];
                    let w = self.widths[i] as i64;
                    if (t..t + d).any(|s| rem[s] < w) {
                        return None; // forced starts clash
                    }
                    for s in t..t + d {
                        rem[s] -= w;
                    }
                    chosen[i] = v;
                    break;
                }
            }
        }
        // Remaining jobs: earliest allowed fit.
        for i in 0..n {
            if chosen[i] != usize::MAX {
                continue;
            }
            let (lo, hi) = self.job_vars[i];
            let d = self.duration_slots[i];
            let w = self.widths[i] as i64;
            let mut placed = false;
            for v in lo..hi {
                if upper[v] < 0.5 {
                    continue; // slot forbidden at this node
                }
                let (_, t) = self.var_map[v];
                if (t..t + d).all(|s| rem[s] >= w) {
                    for s in t..t + d {
                        rem[s] -= w;
                    }
                    chosen[i] = v;
                    placed = true;
                    break;
                }
            }
            if !placed {
                return None;
            }
        }
        // Basis: assignment row i -> chosen x var; capacity row t -> its
        // slack, which (with all-Le capacity rows after all-Eq assignment
        // rows) has solver index n_vars + t.
        let n_vars = self.model.num_vars();
        let mut basis = Vec::with_capacity(n + self.horizon_slots);
        basis.extend_from_slice(&chosen);
        basis.extend((0..self.horizon_slots).map(|t| n_vars + t));
        Some(crate::simplex::Basis::new(basis, Vec::new()))
    }

    /// SOS-style branching on job start times: picks the job with the most
    /// fractional start distribution and splits its allowed slots at the
    /// mass median θ — child A forbids starts after θ, child B forbids
    /// starts at or before θ. This partitions the feasible set (exactness
    /// preserved) and is far stronger than single-variable branching on
    /// time-indexed models. Returns `None` when no job is fractional.
    #[allow(clippy::needless_range_loop)] // parallel arrays indexed by job
    pub fn sos_branch(&self, lp: &crate::simplex::LpSolution) -> Option<BranchChildren> {
        let n = self.job_ids.len();
        // Pick the job with the largest number of fractionally used slots,
        // ties broken by index for determinism.
        let mut best: Option<(usize, usize)> = None; // (job, frac slots)
        for i in 0..n {
            let (lo, hi) = self.job_vars[i];
            let frac = (lo..hi)
                .filter(|&v| lp.x[v] > 1e-6 && lp.x[v] < 1.0 - 1e-6)
                .count();
            if frac > 0 && best.is_none_or(|(_, b)| frac > b) {
                best = Some((i, frac));
            }
        }
        let (job, _) = best?;
        let (lo, hi) = self.job_vars[job];
        // Mass median split point θ over start slots.
        let masses: Vec<(usize, f64)> = (lo..hi)
            .filter(|&v| lp.x[v] > 1e-9)
            .map(|v| (self.var_map[v].1, lp.x[v]))
            .collect();
        debug_assert!(masses.len() >= 2, "fractional job has >= 2 used slots");
        let mut cum = 0.0;
        let mut split = masses[0].0;
        for (k, &(t, mass)) in masses.iter().enumerate() {
            cum += mass;
            if cum >= 0.5 {
                // Never put *all* mass on one side.
                split = if k + 1 == masses.len() {
                    masses[k - 1].0
                } else {
                    t
                };
                break;
            }
        }
        let mut forbid_late = Vec::new(); // child A: start <= split
        let mut forbid_early = Vec::new(); // child B: start > split
        for v in lo..hi {
            let (_, t) = self.var_map[v];
            if t > split {
                forbid_late.push((v, 0.0, 0.0));
            } else {
                forbid_early.push((v, 0.0, 0.0));
            }
        }
        debug_assert!(!forbid_late.is_empty() && !forbid_early.is_empty());
        Some((forbid_late, forbid_early))
    }

    /// Rounding heuristic for branch & bound: order jobs by their LP mean
    /// start slot and place greedily.
    pub fn rounding_heuristic(&self, lp: &LpSolution) -> Option<Vec<f64>> {
        let n = self.job_ids.len();
        let mut mean = vec![0.0f64; n];
        for (v, &xv) in lp.x.iter().enumerate() {
            if xv > 1e-9 {
                let (i, t) = self.var_map[v];
                mean[i] += xv * t as f64;
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            mean[a]
                .partial_cmp(&mean[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        self.greedy_solution(&order)
    }
}

/// Greedy earliest-fit on a slot capacity vector, jobs in snapshot order.
/// Returns start slots or `None` if the horizon is too short.
fn greedy_fill(
    problem: &SchedulingProblem,
    duration_slots: &[usize],
    rem: &mut [i64],
) -> Option<Vec<usize>> {
    let widths: Vec<u32> = problem.jobs.iter().map(|j| j.width).collect();
    let order: Vec<usize> = (0..problem.jobs.len()).collect();
    greedy_fill_order(&order, duration_slots, &widths, rem)
}

/// Greedy earliest-fit in an explicit order; mutates `rem` in place.
fn greedy_fill_order(
    order: &[usize],
    duration_slots: &[usize],
    widths: &[u32],
    rem: &mut [i64],
) -> Option<Vec<usize>> {
    let horizon = rem.len();
    let mut starts = vec![0usize; duration_slots.len()];
    for &i in order {
        let d = duration_slots[i];
        let w = widths[i] as i64;
        if d > horizon {
            return None;
        }
        let mut placed = false;
        let mut t = 0usize;
        while t + d <= horizon {
            match (t..t + d).find(|&s| rem[s] < w) {
                Some(blocked) => t = blocked + 1,
                None => {
                    for slot in rem.iter_mut().take(t + d).skip(t) {
                        *slot -= w;
                    }
                    starts[i] = t;
                    placed = true;
                    break;
                }
            }
        }
        if !placed {
            return None;
        }
    }
    Some(starts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::{solve_mip, BranchLimits, MipStatus};
    use dynp_platform::MachineHistory;
    use dynp_trace::Job;

    fn snapshot() -> SchedulingProblem {
        SchedulingProblem::on_empty_machine(
            0,
            4,
            vec![
                Job::exact(0, 0, 4, 600), // 10 min, full machine
                Job::exact(1, 0, 2, 300), // 5 min
                Job::exact(2, 0, 2, 300),
            ],
        )
    }

    fn build(problem: &SchedulingProblem, scale: u64) -> TimeIndexedModel {
        // A generous horizon: serial execution of everything.
        TimeIndexedModel::build(problem, TimeScaling::fixed(scale), problem.naive_horizon())
    }

    #[test]
    fn model_dimensions_are_consistent() {
        let p = snapshot();
        let ti = build(&p, 60);
        // durations in slots: 10, 5, 5.
        assert_eq!(ti.duration_slots, vec![10, 5, 5]);
        let n_vars: usize = ti.job_vars.iter().map(|&(lo, hi)| hi - lo).sum();
        assert_eq!(n_vars, ti.model.num_vars());
        assert_eq!(
            ti.model.num_constraints(),
            3 + ti.horizon_slots,
            "assignment + capacity rows"
        );
    }

    #[test]
    fn capacities_reflect_machine_history() {
        // 3 of 4 busy until t=120.
        let history = MachineHistory::build(4, 0, &[(3, 120)]);
        let p = SchedulingProblem::new(0, history, vec![Job::exact(0, 0, 1, 60)]);
        let ti = build(&p, 60);
        assert_eq!(ti.slot_capacity[0], 1);
        assert_eq!(ti.slot_capacity[1], 1);
        assert_eq!(ti.slot_capacity[2], 4);
    }

    #[test]
    fn partial_slot_overlap_uses_min_free() {
        // Busy until t=90, slot width 60: slot 1 ([60,120)) must use the
        // constrained capacity.
        let history = MachineHistory::build(4, 0, &[(3, 90)]);
        let p = SchedulingProblem::new(0, history, vec![Job::exact(0, 0, 1, 60)]);
        let ti = build(&p, 60);
        assert_eq!(ti.slot_capacity[0], 1);
        assert_eq!(ti.slot_capacity[1], 1, "min over [60,120) is 1");
        assert_eq!(ti.slot_capacity[2], 4);
    }

    #[test]
    fn solving_the_model_gives_an_optimal_packing() {
        let p = snapshot();
        let ti = build(&p, 60);
        let sol = solve_mip(&ti.model, BranchLimits::default());
        assert_eq!(sol.status, MipStatus::Optimal);
        let x = sol.x.unwrap();
        ti.model.check_feasible(&x, 1e-6).unwrap();
        // Optimal slot objective: the two 2-wide jobs run together first
        // (slots 0-4), then the full-machine job (slot 5):
        // cost = 2*0 + 2*0 + 4*5 = 20. Running the wide job first costs
        // 0 + 2*10*2 = 40. So the optimum is 20.
        assert!((sol.objective.unwrap() - 20.0).abs() < 1e-6);
        let slots = ti.start_slots(&x);
        assert_eq!(slots[0], 5);
        assert_eq!(slots[1], 0);
        assert_eq!(slots[2], 0);
    }

    #[test]
    fn start_order_sorts_by_slot() {
        let p = snapshot();
        let ti = build(&p, 60);
        let sol = solve_mip(&ti.model, BranchLimits::default());
        let x = sol.x.unwrap();
        let order = ti.start_order(&x);
        assert_eq!(order, vec![JobId(1), JobId(2), JobId(0)]);
    }

    #[test]
    fn greedy_solution_is_feasible() {
        let p = snapshot();
        let ti = build(&p, 60);
        let x = ti.greedy_solution(&[0, 1, 2]).unwrap();
        ti.model.check_feasible(&x, 1e-9).unwrap();
        assert!(ti.model.is_integral(&x, 1e-9));
        // Greedy in snapshot order runs job 0 first: objective 40.
        assert!((ti.model.objective_value(&x) - 40.0).abs() < 1e-9);
        // Greedy in SJF-ish order finds the optimum.
        let x2 = ti.greedy_solution(&[1, 2, 0]).unwrap();
        assert!((ti.model.objective_value(&x2) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn horizon_extends_until_feasible() {
        // Horizon end = now (zero slots) must still produce a feasible
        // model by extension.
        let p = snapshot();
        let ti = TimeIndexedModel::build(&p, TimeScaling::fixed(60), 0);
        assert!(ti.horizon_slots >= 20, "needs at least serial length");
        assert!(ti.greedy_solution(&[0, 1, 2]).is_some());
    }

    #[test]
    fn slot_schedule_respects_grid() {
        let p = snapshot();
        let ti = build(&p, 60);
        let sol = solve_mip(&ti.model, BranchLimits::default());
        let x = sol.x.unwrap();
        let sched = ti.slot_schedule(&x, &p);
        for e in sched.entries() {
            assert_eq!((e.start - p.now) % 60, 0, "start off the grid");
        }
    }

    #[test]
    fn rounding_heuristic_returns_feasible_point() {
        let p = snapshot();
        let ti = build(&p, 60);
        let model = &ti.model;
        let start = crate::simplex::LpStart::Cold;
        let (lp, _) = crate::simplex::solve_lp(model, &model.lower, &model.upper, start, 100_000);
        let lp = lp.optimal().unwrap();
        let x = ti.rounding_heuristic(lp).unwrap();
        ti.model.check_feasible(&x, 1e-6).unwrap();
        assert!(ti.model.is_integral(&x, 1e-9));
    }

    #[test]
    #[should_panic(expected = "empty snapshot")]
    fn empty_snapshot_panics() {
        let p = SchedulingProblem::on_empty_machine(0, 4, vec![]);
        TimeIndexedModel::build(&p, TimeScaling::fixed(60), 100);
    }

    #[test]
    fn coarse_scale_shrinks_the_model() {
        let p = snapshot();
        let fine = build(&p, 60);
        let coarse = build(&p, 300);
        assert!(coarse.model.num_vars() < fine.model.num_vars());
        assert!(coarse.horizon_slots < fine.horizon_slots);
    }
}
