//! How far is a scheduling policy from the optimum? (§3–§4 of the paper.)
//!
//! Takes one quasi-off-line snapshot — a machine with running jobs and a
//! waiting queue — plans it with each basic policy, then solves the
//! time-indexed integer program exactly (the paper's CPLEX step) and
//! reports the Eq. 7 quality of each policy against the exact schedule.
//!
//! Run with: `cargo run --release --example optimal_gap`

use dynp_rs::milp::{solve_snapshot, SolveConfig};
use dynp_rs::prelude::*;
use dynp_rs::sched::metrics::quality;

fn main() -> Result<(), dynp_rs::Error> {
    // A contended snapshot: 3 of 16 nodes still busy, 8 waiting jobs with
    // very mixed shapes (this is where policy choice matters).
    let history = MachineHistory::build(16, 0, &[(3, 1_700)]);
    let jobs = vec![
        Job::exact(0, 0, 16, 7_200), // full-machine, 2 h
        Job::exact(1, 0, 1, 600),    // serial 10 min
        Job::exact(2, 0, 1, 600),
        Job::exact(3, 0, 4, 3_600), // quarter machine, 1 h
        Job::exact(4, 0, 8, 1_800), // half machine, 30 min
        Job::exact(5, 0, 2, 900),
        Job::exact(6, 0, 13, 2_400),
        Job::exact(7, 0, 1, 10_800), // serial 3 h
    ];
    let problem = SchedulingProblem::new(0, history, jobs);

    println!(
        "snapshot: {} waiting jobs on a 16-node machine",
        problem.len()
    );
    println!();
    println!("--- policy schedules (SLDwA, planned) ---");
    for policy in Policy::PAPER_SET {
        let schedule = plan(&problem, policy).unwrap();
        let sldwa = Metric::SldwA.eval(&problem, &schedule);
        let makespan = Metric::Makespan.eval(&problem, &schedule);
        println!(
            "  {:<5} SLDwA {:>6.3}   makespan {:>6.0} s",
            policy.name(),
            sldwa,
            makespan
        );
    }

    // The exact solve: 5-minute slots. Every duration in this snapshot is
    // a multiple of 300 s, so the grid loses only start-time alignment —
    // which the §3.2 compaction reclaims.
    println!();
    println!("--- exact time-indexed ILP (the paper's CPLEX step) ---");
    let config = SolveConfig {
        scale_override: Some(300),
        limits: dynp_rs::milp::BranchLimits {
            max_nodes: 50_000,
            ..Default::default()
        },
        ..SolveConfig::default()
    };
    let run = solve_snapshot(&problem, &config)?;
    println!(
        "  model: {} variables, {} constraints, scale {} s",
        run.num_variables, run.num_constraints, run.time_scale
    );
    println!(
        "  search: {:?} after {} nodes, {} LP iterations, {:.2} s",
        run.status,
        run.nodes,
        run.lp_iterations,
        run.solve_time.as_secs_f64()
    );
    // The exact side is `None` when the budget expired without an
    // incumbent ("CPLEX still running"), an outcome, not a crash.
    let Some(exact) = run.exact_value else {
        println!(
            "  exact solver still running: no incumbent after {} nodes ({:?}); \
             raise the node budget to compare",
            run.nodes, run.status
        );
        return Ok(());
    };
    println!("  exact SLDwA (after compaction): {exact:.3}");

    println!();
    println!("--- Eq. 7 quality per policy ---");
    for policy in Policy::PAPER_SET {
        let schedule = plan(&problem, policy).unwrap();
        let value = Metric::SldwA.eval(&problem, &schedule);
        let q = quality(Metric::SldwA, exact, value);
        println!(
            "  {:<5} quality {:>6.3}   performance lost {:>5.1}%",
            policy.name(),
            q,
            (1.0 - q) * 100.0
        );
    }
    println!();
    println!(
        "best policy {} reaches quality {:.3}; the paper reports dynP's best\n\
         policy within ~1% of CPLEX on average (Table 1).",
        run.best_policy,
        quality(Metric::SldwA, exact, run.best_policy_value)
    );
    Ok(())
}
