//! Probes of the planning kernel: the public functions a tuning step is
//! made of, timed from outside on problems of three queue depths. They
//! explain `jobs_per_s` on `serve_core_backlog` (deep queues) and on
//! `sim_replay` (shallow queues): a `_d2500` gain with a flat `_d25`
//! should move only the former.

use super::Ctx;
use crate::inputs::probe_problem;
use crate::report::Report;
use crate::stats::median;
use dynp_core::SelfTuning;
use dynp_sched::{plan, plan_with_profile, Metric, Policy, SchedulingProblem};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median microseconds of one call of `f`, repeated for `budget` (at
/// least five calls).
pub fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Per-layer costs of one tuning step at one queue depth.
pub struct StepCost {
    pub depth: usize,
    pub build_us: f64,
    pub plan_us: f64,
    pub eval_us: f64,
    pub step_us: f64,
    pub probes_per_job: f64,
}

/// Segment probes of one FCFS planning pass, counted by replaying the
/// planner's own placement loop through `earliest_fit_probed`.
fn fit_probes(problem: &SchedulingProblem) -> u64 {
    let mut profile = problem.availability_profile();
    profile.compress_before(problem.now);
    let mut probes = 0;
    for job in Policy::Fcfs.order(&problem.jobs) {
        let duration = job.estimated_duration.max(1);
        let (start, n) = profile.earliest_fit_probed(problem.now, duration, job.width);
        probes += n;
        let start = start.expect("probe jobs fit the machine");
        profile.allocate(start, start + duration, job.width);
    }
    probes
}

fn step_cost(depth: usize, seed: u64, budget: Duration) -> StepCost {
    let problem = probe_problem(depth, seed);
    let slice = budget / 6;
    let build_us = time_us(slice, || {
        black_box(problem.availability_profile());
    });
    let profile = problem.availability_profile();
    let plan_us = Policy::PAPER_SET
        .iter()
        .map(|&policy| {
            time_us(slice, || {
                black_box(plan_with_profile(&problem, policy, &profile).expect("plannable"));
            })
        })
        .sum::<f64>()
        / Policy::PAPER_SET.len() as f64;
    let schedule = plan(&problem, Policy::Fcfs).expect("plannable");
    let eval_us = time_us(slice, || {
        black_box(Metric::SldwA.eval(&problem, &schedule));
    });
    let mut tuner = SelfTuning::paper_config(Metric::SldwA);
    let step_us = time_us(slice, || {
        black_box(tuner.step(&problem).expect("plannable"));
    });
    StepCost {
        depth,
        build_us,
        plan_us,
        eval_us,
        step_us,
        probes_per_job: fit_probes(&problem) as f64 / depth as f64,
    }
}

/// Queue depths probed; the metric names carry them (`_d25`, ...).
const DEPTHS: [usize; 3] = [25, 250, 2500];

/// Probes the three depths within `budget_s` and records the `_d*`
/// metrics. Returns the costs, shallowest first.
pub fn planner(ctx: &Ctx, report: &mut Report, budget_s: f64) -> [StepCost; 3] {
    let budget = Duration::from_secs_f64(budget_s / DEPTHS.len() as f64);
    let costs = DEPTHS.map(|depth| step_cost(depth, ctx.seed, budget));
    for cost in &costs {
        let d = cost.depth;
        report.push(&format!("platform.profile.build_us_d{d}"), cost.build_us);
        report.push(
            &format!("platform.profile.probes_per_job_d{d}"),
            cost.probes_per_job,
        );
        report.push(&format!("sched.planner.plan_us_d{d}"), cost.plan_us);
        report.push(&format!("sched.metrics.eval_us_d{d}"), cost.eval_us);
        report.push(&format!("dynp.tuner.step_us_d{d}"), cost.step_us);
    }
    // What a shallow tuning step spends on neither planning nor
    // evaluation: the decider plus the per-step thread fan-out.
    let shallow = &costs[0];
    let planned = shallow.build_us + 3.0 * (shallow.plan_us + shallow.eval_us);
    report.push("dynp.decider.share", 1.0 - planned / shallow.step_us);
    costs
}
