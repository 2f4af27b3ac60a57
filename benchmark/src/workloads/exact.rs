//! The exact path: `solve_snapshot` on quasi-off-line snapshots under a
//! deterministic node budget (no time limit), `solver_workers: 1`, one
//! solve at a time.
//!
//! `exact_table1` solves the Table 1 set — twelve snapshots of 5–18 jobs,
//! small LPs, the node budget spent on branching — so bound quality and
//! branch-and-bound dominate: presolve or stronger bounds must raise
//! `proven_share` and lower `gap_mean` here. `exact_root_lp` solves
//! large instances for a root LP and one warm round, so the simplex kernel
//! (refactorisation, pricing) dominates: a sparse LU must show here and
//! leave `exact_table1`'s counts alone. (Two instances, not one: see
//! `inputs::root_lp_instances`.)
//!
//! The untraced reps call `solve_snapshot`. The traced reps run the same
//! pipeline stage by stage through the crate's public functions, one span
//! per stage; identical node and iteration counts prove the replica does
//! the same work.

use super::{measure, ms_since, timed_setup, warm_up, Ctx, Quiet};
use crate::inputs::{digest, root_lp_instances, table1_set};
use crate::report::Report;
use crate::spans::{layer_times, Tracer};
use dynp_milp::{
    compact, solve_snapshot, BranchBound, BranchLimits, MipSolution, MipStatus, SolveConfig,
    TimeIndexedModel, TimeScaling, PAPER_MEMORY_BYTES,
};
use dynp_sched::{plan, Schedule, SchedulingProblem};
use std::time::Instant;

/// Eq. 6 with the per-entry constant measured for this solver's dense
/// basis inverse, as `dynp-bench --bin table1` configures it.
fn config(max_nodes: usize) -> SolveConfig {
    SolveConfig {
        memory_bytes: PAPER_MEMORY_BYTES / 64.0,
        limits: BranchLimits {
            max_nodes,
            solver_workers: 1,
            ..BranchLimits::default()
        },
        ..SolveConfig::default()
    }
}

/// What one solve produced, whichever way it ran.
struct Solved {
    ms: f64,
    status: MipStatus,
    nodes: usize,
    lp_iterations: usize,
    warm_lps: usize,
    cold_lps: usize,
    gap: Option<f64>,
    vars: usize,
    constraints: usize,
    schedule: Option<Schedule>,
}

/// The policy baseline of `solve_snapshot`: best schedule and horizon.
fn baseline(problem: &SchedulingProblem, cfg: &SolveConfig) -> (Schedule, u64) {
    let mut best: Option<(f64, Schedule)> = None;
    let mut horizon_end = problem.now;
    for &policy in &cfg.policies {
        let schedule = plan(problem, policy).expect("snapshot jobs fit the machine");
        let value = cfg.metric.eval(problem, &schedule);
        horizon_end = horizon_end.max(schedule.makespan_end().unwrap_or(problem.now));
        if best
            .as_ref()
            .is_none_or(|(b, _)| cfg.metric.better(value, *b))
        {
            best = Some((value, schedule));
        }
    }
    (best.expect("paper policy set").1, horizon_end)
}

fn build(problem: &SchedulingProblem, cfg: &SolveConfig, horizon_end: u64) -> TimeIndexedModel {
    let scaling = TimeScaling::from_memory(
        horizon_end - problem.now,
        problem.accumulated_runtime(),
        cfg.x_bytes,
        cfg.memory_bytes,
    );
    TimeIndexedModel::build(problem, scaling, horizon_end)
}

/// The search of `solve_snapshot`: incumbent seeded from the best policy
/// schedule, rounding heuristic, crash bases, SOS branching.
fn search(
    ti: &TimeIndexedModel,
    problem: &SchedulingProblem,
    best: &Schedule,
    limits: BranchLimits,
) -> MipSolution {
    let order: Vec<usize> = best
        .start_order()
        .iter()
        .map(|e| {
            problem
                .jobs
                .iter()
                .position(|j| j.id == e.id)
                .expect("schedule entry in snapshot")
        })
        .collect();
    let mut bb = BranchBound::new(&ti.model, limits);
    if let Some(seed) = ti.greedy_solution(&order) {
        bb = bb
            .with_incumbent(seed)
            .unwrap_or_else(|_| BranchBound::new(&ti.model, limits));
    }
    bb.with_heuristic(Box::new(move |_, lp| ti.rounding_heuristic(lp)))
        .with_crash(Box::new(move |lower, upper| ti.crash_start(lower, upper)))
        .with_brancher(Box::new(move |_, lp| ti.sos_branch(lp)))
        .solve()
}

fn staged_solve(problem: &SchedulingProblem, cfg: &SolveConfig, tracer: &mut Tracer) -> Solved {
    let started = Instant::now();
    let open = tracer.enter("milp.solve");
    let (best, horizon_end) = tracer.span("sched.planner.baseline", || baseline(problem, cfg));
    let ti = tracer.span("milp.timeindex.build", || build(problem, cfg, horizon_end));
    let mip = tracer.span("milp.branch.search", || {
        search(&ti, problem, &best, cfg.limits)
    });
    let schedule = tracer.span("milp.compact", || {
        mip.x
            .as_ref()
            .map(|x| compact(problem, &ti.start_order(x)).expect("every job fits"))
    });
    tracer.exit(open);
    Solved {
        ms: ms_since(started),
        status: mip.status,
        nodes: mip.nodes,
        lp_iterations: mip.lp_iterations,
        warm_lps: mip.warm_lps,
        cold_lps: mip.cold_lps,
        gap: mip.gap(),
        vars: ti.model.num_vars(),
        constraints: ti.model.num_constraints(),
        schedule,
    }
}

fn live_solve(problem: &SchedulingProblem, cfg: &SolveConfig) -> Option<Solved> {
    let started = Instant::now();
    let run = solve_snapshot(problem, cfg).ok()?;
    Some(Solved {
        ms: ms_since(started),
        status: run.status,
        nodes: run.nodes,
        lp_iterations: run.lp_iterations,
        warm_lps: run.warm_lps,
        cold_lps: run.cold_lps,
        gap: run.gap,
        vars: run.num_variables,
        constraints: run.num_constraints,
        schedule: run.exact_schedule,
    })
}

/// One rep: every problem solved once, live or staged. Returns the
/// summed solve seconds and leaves the time of every solve in `solve_ms`
/// (0 for one that gave no answer).
fn one_rep(
    problems: &[SchedulingProblem],
    cfg: &SolveConfig,
    tracer: &mut Tracer,
    report: &mut Report,
    solve_ms: &mut Vec<f64>,
) -> f64 {
    let root = tracer.enter("workload.rep");
    let solved: Vec<Option<Solved>> = problems
        .iter()
        .map(|p| {
            if tracer.on() {
                Some(staged_solve(p, cfg, tracer))
            } else {
                live_solve(p, cfg)
            }
        })
        .collect();
    tracer.exit(root);
    *solve_ms = solved
        .iter()
        .map(|s| s.as_ref().map_or(0.0, |s| s.ms))
        .collect();

    // Output checks: a usable answer whose schedule is valid against its
    // snapshot; search effort and schedules repeat exactly.
    let mut bytes = String::new();
    let (mut ok, mut gap_sum, mut proven) = (Vec::new(), 0.0, 0usize);
    for (problem, solved) in problems.iter().zip(solved) {
        report.attempted += 1;
        let usable = solved.filter(|s| {
            matches!(s.status, MipStatus::Optimal | MipStatus::Feasible)
                && s.schedule
                    .as_ref()
                    .is_some_and(|sch| sch.validate(problem).is_ok())
        });
        let Some(s) = usable else {
            report.failed += 1;
            continue;
        };
        for e in s.schedule.as_ref().expect("checked above").entries() {
            bytes.push_str(&format!("{}@{},", e.id, e.start));
        }
        gap_sum += s.gap.unwrap_or(1.0);
        proven += usize::from(s.status == MipStatus::Optimal);
        ok.push(s);
    }
    let total = |f: fn(&Solved) -> usize| ok.iter().map(f).sum::<usize>();
    let (nodes, iterations) = (total(|s| s.nodes), total(|s| s.lp_iterations));
    report.check_same("decisions_digest", digest(bytes.as_bytes()));
    report.check_same("milp.branch.nodes", nodes.to_string());
    report.check_same("milp.branch.lp_iterations", iterations.to_string());

    let solve_s = ok.iter().map(|s| s.ms).sum::<f64>() / 1e3;
    report.push("gap_mean", gap_sum / ok.len().max(1) as f64);
    report.push("proven_share", proven as f64 / problems.len() as f64);
    if tracer.on() {
        let (warm, cold) = (total(|s| s.warm_lps), total(|s| s.cold_lps));
        report.push("milp.solve.solve_s", solve_s);
        report.push("milp.timeindex.vars", total(|s| s.vars) as f64);
        report.push(
            "milp.timeindex.constraints",
            total(|s| s.constraints) as f64,
        );
        report.push("milp.branch.nodes", nodes as f64);
        report.push("milp.branch.lp_iterations", iterations as f64);
        report.push("milp.branch.warm_lps", warm as f64);
        report.push("milp.branch.cold_lps", cold as f64);
        report.push(
            "milp.branch.warm_hit_share",
            warm as f64 / (warm + cold).max(1) as f64,
        );
    }
    solve_s
}

/// The root relaxation alone: the same search with a one-node budget.
/// Returns (seconds, iterations) summed over the problems.
fn root_lp_probe(problems: &[SchedulingProblem], cfg: &SolveConfig, report: &mut Report) -> f64 {
    let limits = BranchLimits {
        max_nodes: 1,
        ..cfg.limits
    };
    let (mut seconds, mut iterations, mut gap) = (0.0, 0usize, 0.0);
    for problem in problems {
        let (best, horizon_end) = baseline(problem, cfg);
        let ti = build(problem, cfg, horizon_end);
        let mip = search(&ti, problem, &best, limits);
        seconds += mip.wall_time.as_secs_f64();
        iterations += mip.lp_iterations;
        gap += mip.gap().unwrap_or(1.0);
    }
    report.push("milp.simplex.root_lp_s", seconds);
    report.push("milp.simplex.root_iterations", iterations as f64);
    report.push(
        "milp.simplex.us_per_iteration",
        seconds * 1e6 / iterations.max(1) as f64,
    );
    report.push("milp.branch.root_gap_mean", gap / problems.len() as f64);
    seconds
}

/// `setup` makes the problems; the solver is warmed on the first
/// `warm_on` of them.
fn run(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &mut Tracer,
    max_nodes: usize,
    warm_on: usize,
    mut setup: impl FnMut() -> Vec<SchedulingProblem>,
) {
    let cfg = config(max_nodes);
    let problems = timed_setup(report, || {
        let problems = setup();
        warm_up(|t, r| one_rep(&problems[..warm_on], &cfg, t, r, &mut Vec::new()));
        problems
    });
    let (mut solve_ms, mut quiet) = (Vec::new(), Quiet::default());
    let mut rep = |tracer: &mut Tracer, report: &mut Report| {
        let solve_s = one_rep(&problems, &cfg, tracer, report, &mut solve_ms);
        if !tracer.on() {
            quiet.push(&solve_ms, &[]);
        }
        solve_s
    };
    let budget = if ctx.trace {
        ctx.seconds * 0.9
    } else {
        ctx.seconds
    };
    measure(ctx, report, tracer, budget, &mut rep);
    // One solve is one operation; a dozen of them support an upper
    // quartile, not a p90.
    let jobs = problems.iter().map(SchedulingProblem::len).sum();
    quiet.report(report, jobs, 0.75);
    if ctx.trace {
        let times = layer_times(tracer.spans());
        let reps = times["workload.rep"].count as f64;
        let ms_per_rep = |name: &str| times[name].total_ns as f64 / 1e6 / reps;
        let root_s = root_lp_probe(&problems, &cfg, report);
        report.push(
            "sched.planner.baseline_ms",
            ms_per_rep("sched.planner.baseline"),
        );
        report.push(
            "milp.timeindex.build_ms",
            ms_per_rep("milp.timeindex.build"),
        );
        report.push(
            "milp.branch.search_s",
            (ms_per_rep("milp.branch.search") / 1e3 - root_s).max(0.0),
        );
        report.push("milp.compact.ms", ms_per_rep("milp.compact"));
        let solve = times["milp.solve"];
        report.push(
            "milp.solve.residual_share",
            solve.self_ns as f64 / solve.total_ns as f64,
        );
    }
}

pub fn run_table1(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let (rows, seed) = (ctx.sizes.table1_rows, ctx.seed);
    run(ctx, report, tracer, ctx.sizes.table1_max_nodes, 2, || {
        table1_set(rows, seed)
    });
}

pub fn run_root_lp(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let (count, waiting, seed) = (
        ctx.sizes.root_lp_instances,
        ctx.sizes.root_lp_jobs,
        ctx.seed,
    );
    // Root plus one round of warm-started children.
    run(ctx, report, tracer, 9, 1, || {
        root_lp_instances(count, waiting, seed)
    });
}
