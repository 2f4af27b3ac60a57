//! The full "CPLEX run" of §3–§4: given one quasi-off-line snapshot,
//! choose the time scale (Eq. 6), build the time-indexed model with the
//! max-policy-makespan horizon (§3.1), seed the best policy schedule as the
//! incumbent, solve exactly, extract the starting order, compact (§3.2),
//! and report the paper's Table 1 quantities (problem size, time scale,
//! quality, performance loss, solve effort).

use crate::branch::{BranchBound, BranchLimits, GapPoint, MipStatus};
use crate::compact::compact;
use crate::scaling::{TimeScaling, PAPER_MEMORY_BYTES, PAPER_X_BYTES};
use crate::timeindex::TimeIndexedModel;
use dynp_sched::metrics::{performance_loss_percent, quality};
use dynp_sched::{plan, Metric, PlanError, Policy, Schedule, SchedulingProblem};
use std::time::{Duration, Instant};

/// Why an exact solve could not run at all (as opposed to running out of
/// budget, which still produces an [`ExactRun`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The snapshot has no waiting jobs — there is nothing to compare.
    EmptySnapshot,
    /// The configuration names no baseline policies.
    NoPolicies,
    /// A policy schedule could not be planned (a job can never fit the
    /// machine), so neither the baseline nor the ILP horizon exists.
    Plan(PlanError),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::EmptySnapshot => {
                write!(f, "empty snapshot: no waiting jobs to compare")
            }
            SolveError::NoPolicies => {
                write!(f, "solve config lists no baseline policies")
            }
            SolveError::Plan(e) => write!(f, "policy baseline failed to plan: {e}"),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for SolveError {
    fn from(e: PlanError) -> SolveError {
        SolveError::Plan(e)
    }
}

/// Configuration of one exact solve.
#[derive(Clone, Debug)]
pub struct SolveConfig {
    /// Metric used for the quality comparison (the paper uses SLDwA).
    pub metric: Metric,
    /// Policies whose best schedule is the comparison baseline (the
    /// paper: FCFS, SJF, LJF).
    pub policies: Vec<Policy>,
    /// Memory per matrix entry for Eq. 6.
    pub x_bytes: f64,
    /// Memory budget for Eq. 6.
    pub memory_bytes: f64,
    /// Overrides Eq. 6 with a fixed slot width (ablation experiments).
    pub scale_override: Option<u64>,
    /// Branch & bound limits.
    pub limits: BranchLimits,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            metric: Metric::SldwA,
            policies: Policy::PAPER_SET.to_vec(),
            x_bytes: PAPER_X_BYTES,
            memory_bytes: PAPER_MEMORY_BYTES,
            scale_override: None,
            limits: BranchLimits::default(),
        }
    }
}

/// One Table 1 row: the exact solve of one snapshot and its comparison
/// against the best basic policy.
#[derive(Clone, Debug)]
pub struct ExactRun {
    /// Snapshot size: number of waiting jobs.
    pub jobs: usize,
    /// Upper bound on the makespan (seconds from "now"): the §3.1 horizon,
    /// i.e. the max makespan over the policy schedules.
    pub max_makespan: u64,
    /// Accumulated estimated runtime of the waiting jobs (seconds).
    pub accumulated_runtime: u64,
    /// The time scale chosen (seconds per slot).
    pub time_scale: u64,
    /// Model size actually built.
    pub num_variables: usize,
    /// Constraint count actually built.
    pub num_constraints: usize,
    /// Search outcome.
    pub status: MipStatus,
    /// Branch & bound nodes explored.
    pub nodes: usize,
    /// Total simplex iterations.
    pub lp_iterations: usize,
    /// Node LPs warm-started from a parent basis (see
    /// [`MipSolution::warm_lps`](crate::MipSolution)).
    pub warm_lps: usize,
    /// Node LPs solved cold, fallbacks included.
    pub cold_lps: usize,
    /// Final relative optimality gap (0 when proven optimal, `None`
    /// without an incumbent).
    pub gap: Option<f64>,
    /// Incumbent/gap trajectory of the exact solve (see
    /// [`GapPoint`]).
    pub trajectory: Vec<GapPoint>,
    /// Wall-clock solve time.
    pub solve_time: Duration,
    /// Best basic policy under the configured metric.
    pub best_policy: Policy,
    /// Its metric value.
    pub best_policy_value: f64,
    /// The compacted exact schedule; `None` when the budget expired
    /// before any incumbent, the paper's "CPLEX still running" regime.
    pub exact_schedule: Option<Schedule>,
    /// Metric value of the compacted exact schedule (`None` likewise).
    pub exact_value: Option<f64>,
    /// The slot-grid schedule the search found, before §3.2 compaction.
    pub slot_schedule: Option<Schedule>,
    /// Metric value of the slot-grid schedule.
    pub slot_value: Option<f64>,
    /// Wall time spent planning the three policy schedules once (the
    /// paper's "< 10 ms").
    pub policy_plan_time: Duration,
    /// Eq. 7 quality of the best policy vs the exact schedule.
    pub quality: Option<f64>,
    /// `(1 - quality) * 100`: how much the policy loses (negative when
    /// time-scaling makes the "exact" schedule worse, as in the paper).
    pub perf_loss_percent: Option<f64>,
    /// The same loss against the slot-grid schedule, before compaction.
    pub slot_loss_percent: Option<f64>,
}

impl ExactRun {
    /// Scheduler *power* of the exact solver: quality per compute second,
    /// the paper's §3 yardstick ("the physical definition of power, i.e.
    /// work per time unit, is well suited for measuring the performance
    /// of a scheduler"), here quality 1 (it is the reference) per solve
    /// second. The `table1` bin times the policy side itself.
    pub fn exact_power(&self) -> Option<f64> {
        self.exact_value?;
        Some(1.0 / self.solve_time.as_secs_f64().max(1e-9))
    }
}

/// Runs the complete exact pipeline on one snapshot.
///
/// Errors are *input* defects ([`SolveError`]); a solve that merely runs
/// out of budget still returns `Ok` with [`MipStatus::Feasible`] or
/// [`MipStatus::Unknown`]; without an incumbent its exact side is `None`.
pub fn solve_snapshot(
    problem: &SchedulingProblem,
    config: &SolveConfig,
) -> Result<ExactRun, SolveError> {
    if problem.is_empty() {
        return Err(SolveError::EmptySnapshot);
    }
    if config.policies.is_empty() {
        return Err(SolveError::NoPolicies);
    }
    // Everything below — policy baselines, TI model build, B&B search,
    // compaction — is one traced exact-solve span per snapshot.
    let _solve_span = dynp_obs::span("milp.solve");
    // 1. Policy schedules: baseline values and the §3.1 horizon.
    let plan_clock = Instant::now();
    let mut best: Option<(Policy, f64, Schedule)> = None;
    let mut horizon_end = problem.now;
    for &policy in &config.policies {
        let schedule = plan(problem, policy)?;
        let value = config.metric.eval(problem, &schedule);
        if let Some(end) = schedule.makespan_end() {
            horizon_end = horizon_end.max(end);
        }
        let better = match &best {
            None => true,
            Some((_, best_value, _)) => config.metric.better(value, *best_value),
        };
        if better {
            best = Some((policy, value, schedule));
        }
    }
    let (best_policy, best_policy_value, best_schedule) =
        best.expect("policy set checked non-empty above");
    let policy_plan_time = plan_clock.elapsed();
    let max_makespan = horizon_end - problem.now;
    let accumulated_runtime = problem.accumulated_runtime();

    // 2. Time scale per Eq. 6 (or the override).
    let scaling = match config.scale_override {
        Some(s) => TimeScaling::fixed(s),
        None => TimeScaling::from_memory(
            max_makespan,
            accumulated_runtime,
            config.x_bytes,
            config.memory_bytes,
        ),
    };

    // 3. Build the time-indexed model.
    let ti = TimeIndexedModel::build(problem, scaling, horizon_end);

    // 4. Solve, seeding the best policy's start order as the incumbent.
    let mut bb = BranchBound::new(&ti.model, config.limits);
    let order: Vec<usize> = {
        // Map the best schedule's start order onto snapshot indices.
        let order_ids: Vec<_> = best_schedule.start_order().iter().map(|e| e.id).collect();
        order_ids
            .iter()
            .map(|id| {
                problem
                    .jobs
                    .iter()
                    .position(|j| j.id == *id)
                    .expect("schedule entry in snapshot")
            })
            .collect()
    };
    if let Some(seed) = ti.greedy_solution(&order) {
        // A rejected seed costs the warm start, never the sweep:
        // continue cold rather than abort the run.
        bb = bb
            .with_incumbent(seed)
            .unwrap_or_else(|_| BranchBound::new(&ti.model, config.limits));
    }
    {
        // The LP rounding heuristic, plus structure-aware acceleration:
        // crash bases skip simplex phase 1, SOS branching on job start
        // times replaces weak single-variable branching. Both preserve
        // exactness (see their docs).
        let ti_ref = &ti;
        bb = bb
            .with_heuristic(Box::new(move |_, lp| ti_ref.rounding_heuristic(lp)))
            .with_crash(Box::new(move |lower, upper| {
                ti_ref.crash_start(lower, upper)
            }))
            .with_brancher(Box::new(move |_, lp| ti_ref.sos_branch(lp)));
    }
    let mip = bb.solve();

    // 5. Extract, compact, compare. The one search gives both schedules:
    // the slot grid's and its compaction, which never starts a job later.
    let (slot_schedule, exact_schedule) = match &mip.x {
        Some(x) => {
            let slot = ti.slot_schedule(x, problem);
            // Every job planned under a policy above, so it fits.
            let compacted = compact(problem, &ti.start_order(x))?;
            debug_assert!(slot.validate(problem).is_ok());
            debug_assert!(compacted.validate(problem).is_ok());
            (Some(slot), Some(compacted))
        }
        None => (None, None),
    };
    let value = |schedule: &Schedule| config.metric.eval(problem, schedule);
    let loss = |v: f64| performance_loss_percent(config.metric, v, best_policy_value);
    let exact_value = exact_schedule.as_ref().map(value);
    let slot_value = slot_schedule.as_ref().map(value);
    let quality_ratio = exact_value.map(|ev| quality(config.metric, ev, best_policy_value));

    Ok(ExactRun {
        jobs: problem.len(),
        max_makespan,
        accumulated_runtime,
        time_scale: scaling.seconds_per_slot,
        num_variables: ti.model.num_vars(),
        num_constraints: ti.model.num_constraints(),
        status: mip.status,
        nodes: mip.nodes,
        lp_iterations: mip.lp_iterations,
        warm_lps: mip.warm_lps,
        cold_lps: mip.cold_lps,
        gap: mip.gap(),
        trajectory: mip.trajectory,
        solve_time: mip.wall_time,
        policy_plan_time,
        best_policy,
        best_policy_value,
        exact_schedule,
        exact_value,
        slot_schedule,
        slot_value,
        quality: quality_ratio,
        perf_loss_percent: exact_value.map(loss),
        slot_loss_percent: slot_value.map(loss),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_platform::MachineHistory;
    use dynp_trace::Job;

    fn config_fine() -> SolveConfig {
        SolveConfig {
            scale_override: Some(60),
            ..SolveConfig::default()
        }
    }

    fn snapshot() -> SchedulingProblem {
        SchedulingProblem::on_empty_machine(
            0,
            4,
            vec![
                Job::exact(0, 0, 4, 3600),
                Job::exact(1, 0, 2, 600),
                Job::exact(2, 0, 2, 600),
                Job::exact(3, 0, 1, 1200),
            ],
        )
    }

    #[test]
    fn exact_run_completes_and_reports() {
        let run = solve_snapshot(&snapshot(), &config_fine()).unwrap();
        assert_eq!(run.status, MipStatus::Optimal);
        assert_eq!(run.jobs, 4);
        assert!(run.exact_value.is_some());
        assert_eq!(run.time_scale, 60);
        assert!(run.num_variables > 0);
    }

    #[test]
    fn exact_never_loses_to_policies_at_fine_scale() {
        // At 60 s scale with 60 s-multiple durations there is no grid loss:
        // the exact schedule must be at least as good as the best policy.
        let run = solve_snapshot(&snapshot(), &config_fine()).unwrap();
        let quality = run.quality.expect("solved to optimality");
        assert!(
            quality <= 1.0 + 1e-9,
            "exact worse than policy at lossless scale: quality {quality}"
        );
        assert!(run.perf_loss_percent.unwrap() >= -1e-7);
    }

    #[test]
    fn machine_history_is_honoured() {
        let history = MachineHistory::build(4, 100, &[(3, 500)]);
        let p = SchedulingProblem::new(
            100,
            history,
            vec![Job::exact(0, 50, 2, 300), Job::exact(1, 80, 2, 300)],
        );
        let run = solve_snapshot(&p, &config_fine()).unwrap();
        assert_eq!(run.status, MipStatus::Optimal);
        let schedule = run.exact_schedule.expect("solved to optimality");
        schedule.validate(&p).unwrap();
        // Only 1 resource free before t=500: neither width-2 job fits.
        for e in schedule.entries() {
            assert!(e.start >= 500);
        }
    }

    #[test]
    fn empty_snapshot_is_a_typed_error_not_a_panic() {
        let p = SchedulingProblem::on_empty_machine(0, 4, vec![]);
        assert_eq!(
            solve_snapshot(&p, &config_fine()).unwrap_err(),
            SolveError::EmptySnapshot
        );
        let no_policies = SolveConfig {
            policies: vec![],
            ..config_fine()
        };
        assert_eq!(
            solve_snapshot(&snapshot(), &no_policies).unwrap_err(),
            SolveError::NoPolicies
        );
        // Errors render and chain like std errors.
        let err = solve_snapshot(&p, &config_fine()).unwrap_err();
        assert!(format!("{err}").contains("empty snapshot"));
    }

    #[test]
    fn coarse_scale_can_lose_to_policies() {
        // With a very coarse grid the ILP's schedule (even compacted) can
        // be worse than the best policy — the paper's negative perf-loss
        // rows. We only assert the pipeline handles it gracefully, not
        // that it always happens.
        let cfg = SolveConfig {
            scale_override: Some(1800),
            ..SolveConfig::default()
        };
        let run = solve_snapshot(&snapshot(), &cfg).unwrap();
        assert_eq!(run.status, MipStatus::Optimal);
        assert!(run.exact_value.is_some());
    }

    #[test]
    fn node_limited_run_still_reports_policy_side() {
        let cfg = SolveConfig {
            scale_override: Some(1800),
            limits: BranchLimits {
                max_nodes: 0,
                ..BranchLimits::default()
            },
            ..SolveConfig::default()
        };
        // On a 30-min grid the best policy's (SJF) start order puts both
        // short jobs in slot 0 and needs a third slot for the long one,
        // past the two-slot §3.1 horizon that snapshot order fits: the
        // seed cannot embed, so there is no incumbent at node 0.
        let p = SchedulingProblem::on_empty_machine(
            0,
            2,
            vec![
                Job::exact(1, 0, 1, 3400),
                Job::exact(2, 0, 1, 100),
                Job::exact(0, 0, 1, 200),
            ],
        );
        let run = solve_snapshot(&p, &cfg).unwrap();
        assert_eq!(run.best_policy, Policy::Sjf);
        assert_eq!(run.status, MipStatus::Unknown);
        // "CPLEX still running" is a value, not a panic.
        assert!(run.exact_schedule.is_none() && run.exact_value.is_none());
        assert_eq!((run.quality, run.perf_loss_percent), (None, None));
        // Policy side is always available.
        assert!(run.best_policy_value > 0.0);
    }

    #[test]
    fn seeded_run_at_zero_nodes_returns_the_seed() {
        let cfg = SolveConfig {
            scale_override: Some(60),
            limits: BranchLimits {
                max_nodes: 0,
                ..BranchLimits::default()
            },
            ..SolveConfig::default()
        };
        let run = solve_snapshot(&snapshot(), &cfg).unwrap();
        // The seed (best policy embedded in the grid) is the incumbent.
        assert_eq!(run.status, MipStatus::Feasible);
        assert!(run.exact_value.is_some());
    }

    proptest::proptest! {
        /// One search gives both schedules: the slot grid's is valid, and
        /// its compaction never starts a job later, so under SLDwA the
        /// compacted value is never worse (DESIGN.md §14).
        #[test]
        fn one_search_gives_a_valid_slot_schedule_that_compaction_improves(
            jobs in proptest::collection::vec((0u64..=3600, 1u32..=4, 30u64..=2400), 1..=5),
            (running_width, running_end) in (0u32..=3, 3601u64..=6000),
            slot in 0usize..4,
        ) {
            let now = 3600;
            let running = if running_width > 0 {
                vec![(running_width, running_end)]
            } else {
                vec![]
            };
            let history = MachineHistory::build(4, now, &running);
            let slot_seconds = [120, 300, 900, 1800][slot];
            let jobs = jobs
                .iter()
                .enumerate()
                .map(|(id, &(submit, width, duration))| Job::exact(id as u32, submit, width, duration))
                .collect();
            let p = SchedulingProblem::new(now, history, jobs);
            let cfg = SolveConfig {
                scale_override: Some(slot_seconds),
                limits: BranchLimits {
                    max_nodes: 100,
                    ..BranchLimits::default()
                },
                ..SolveConfig::default()
            };
            let run = solve_snapshot(&p, &cfg).unwrap();
            proptest::prop_assert_eq!(run.slot_schedule.is_some(), run.exact_schedule.is_some());
            if let (Some(slot), Some(exact_value)) = (&run.slot_schedule, run.exact_value) {
                proptest::prop_assert!(slot.validate(&p).is_ok());
                let (slot_value, slot_loss) = (run.slot_value.unwrap(), run.slot_loss_percent.unwrap());
                proptest::prop_assert!(exact_value <= slot_value);
                proptest::prop_assert!(run.perf_loss_percent.unwrap() >= slot_loss);
            }
        }
    }

    #[test]
    fn default_config_uses_eq6() {
        let run = solve_snapshot(&snapshot(), &SolveConfig::default()).unwrap();
        // Tiny instance: Eq. 6 gives the minimum one-minute scale.
        assert_eq!(run.time_scale, 60);
        assert_eq!(run.status, MipStatus::Optimal);
    }
}
