//! Reproduces **Table 1** of the paper: exemplary exact-solver runs on
//! quasi-off-line snapshots taken at job submissions of a CTC-like trace,
//! compared against the best basic policy of the self-tuning dynP
//! scheduler.
//!
//! Per row: snapshot size (jobs, max makespan, accumulated runtime), the
//! Eq. 6 time scale, the model size, the Eq. 7 quality and performance
//! loss of the best policy vs the exact schedule, and the solve effort.
//! The final row is the averages row, as in the paper. Writes
//! `results/table1.{txt,json,events.jsonl}`; the JSON carries the stage's
//! full per-snapshot rows including each solve's incumbent/gap
//! trajectory, and keeps every wall-clock value under a `timing` key.
//!
//! Usage: `cargo run --release -p dynp-bench --bin table1 [n_jobs] [seed] [--watch <addr>]`
//!
//! The paper's qualitative expectations (see EXPERIMENTS.md):
//! * average performance loss in the ~1 % range (paper: 0.7 %),
//! * occasional negative loss rows (time-scaling artifacts),
//! * exact solve effort orders of magnitude above the policies' < 10 ms,
//!   and unpredictable between similar-sized instances.

use dynp_bench::{cli_args_and_watch, ctc_trace, dynp_run_with_snapshots, start_watch, Report};
use dynp_exp::{ExactConfig, ExactStage};
use dynp_obs::JsonValue;
use dynp_sched::{plan, Metric, Policy, SchedulingProblem};
use std::time::{Duration, Instant};

/// The power line's policy side repeats the three policy plans of a
/// snapshot (plan and SLDwA, as the exact stage's baseline) until this
/// much time has passed, and divides by the repetitions.
const PLAN_FLOOR: Duration = Duration::from_millis(20);
/// Timing rounds over every compared snapshot; the line reports their
/// median and range.
const PLAN_ROUNDS: usize = 5;

/// Seconds one plan-and-evaluate of the paper's three policies takes on
/// `problem`, over as many repetitions as fill [`PLAN_FLOOR`].
fn plan_seconds(problem: &SchedulingProblem) -> f64 {
    let clock = Instant::now();
    let mut reps = 0u32;
    while reps == 0 || clock.elapsed() < PLAN_FLOOR {
        for policy in Policy::PAPER_SET {
            let schedule = plan(problem, policy).expect("a solved snapshot plans");
            std::hint::black_box(Metric::SldwA.eval(problem, &schedule));
        }
        reps += 1;
    }
    clock.elapsed().as_secs_f64() / f64::from(reps)
}

fn main() {
    let (args, watch_addr) = cli_args_and_watch();
    let mut args = args.into_iter();
    let n_jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1200);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2004);
    let rows: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);

    let mut report = Report::new("table1");
    let _watch = start_watch(watch_addr.as_deref());

    let exact = ExactConfig::new()
        // The paper's average instance has ~22 jobs; very small
        // snapshots are trivial and very large ones explode the ILP.
        .with_job_range(5, 18)
        .with_max_snapshots(rows)
        .with_node_budget(20_000)
        // Eq. 6 with a 64x smaller budget than the paper's: a calibration
        // kept so the time scales Eq. 6 picks (coarser than the paper's,
        // still minutes-range) stay comparable across PRs. It no longer
        // models this solver's footprint — the basis is a sparse LU.
        .with_memory_budget_bytes(dynp_milp::PAPER_MEMORY_BYTES as u64 / 64);

    eprintln!("generating CTC-like trace: {n_jobs} jobs, seed {seed} ...");
    let trace = ctc_trace(n_jobs, seed);

    eprintln!("replaying under self-tuning dynP, collecting snapshots ...");
    let run = dynp_run_with_snapshots(&trace.jobs, trace.machine_size, exact.snapshot_filter());
    eprintln!(
        "simulation done: {} jobs completed, {} snapshots collected, {} policy switches",
        run.records.len(),
        run.snapshots.len(),
        run.selector.stats().switches()
    );
    report.set(
        "params",
        JsonValue::object()
            .with("n_jobs", n_jobs)
            .with("seed", seed)
            .with("rows", rows)
            .with("machine_size", trace.machine_size)
            .with("snapshots_collected", run.snapshots.len())
            .with("policy_switches", run.selector.stats().switches()),
    );

    eprintln!("solving up to {rows} snapshots exactly (parallel) ...");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stage = dynp_exp::compare(&run.snapshots, &exact, workers);

    report.blank();
    report.line("Table 1 — exact problem sizes, quality, and compute time");
    report.line("(metric: SLDwA; baseline: best of FCFS/SJF/LJF at each snapshot)");
    report.line(ExactStage::TEXT_HEADER);
    for line in stage.text_rows() {
        report.line(line);
    }
    report.set("rows", stage.rows());
    let t = &stage.tally;
    let avg = |sum: u64| t.per_run(sum as f64);
    let (quality, loss) = (t.per_compared(t.quality_sum), t.per_compared(t.loss_sum));
    let solve_seconds = t.per_run(t.solve_seconds);
    report.set(
        "averages",
        JsonValue::object()
            .with("runs", t.runs)
            .with("solved", t.compared)
            .with("avg_jobs", avg(t.jobs))
            .with("avg_makespan", avg(t.max_makespan))
            .with("avg_acc_runtime", avg(t.accumulated_runtime))
            .with("avg_time_scale", avg(t.time_scale))
            .with("avg_quality", quality)
            .with("avg_loss_percent", loss),
    );
    let mut timing = JsonValue::object().with("avg_solve_seconds", solve_seconds);
    report.blank();
    report.line(format!(
        "averages over {} runs ({} solved):",
        t.runs, t.compared
    ));
    report.line(format!(
        "  jobs {:.1}   makespan {:.0} s   acc.runtime {:.0} s   scale {:.1} min",
        avg(t.jobs),
        avg(t.max_makespan),
        avg(t.accumulated_runtime),
        avg(t.time_scale) / 60.0
    ));
    report.line(format!(
        "  quality {quality:.3}   perf. loss {loss:+.2}%   solve time {solve_seconds:.2} s"
    ));
    // The paper's §3 "power" comparison: quality per compute second. The
    // exact side divides by each solve's time; the policy side by the
    // repeated plan time, averaged over the snapshots in each round.
    let compared: Vec<(&SchedulingProblem, f64, f64)> = stage
        .runs
        .iter()
        .zip(&stage.picks)
        .filter_map(|(r, &pick)| Some((&run.snapshots[pick].problem, r.quality?, r.exact_power()?)))
        .collect();
    if !compared.is_empty() {
        let n = compared.len() as f64;
        let avg_exact: f64 = compared.iter().map(|c| c.2).sum::<f64>() / n;
        let mut rounds: Vec<f64> = (0..PLAN_ROUNDS)
            .map(|_| {
                compared
                    .iter()
                    .map(|&(p, q, _)| q / plan_seconds(p))
                    .sum::<f64>()
                    / n
            })
            .collect();
        rounds.sort_by(f64::total_cmp);
        let (low, median, high) = (rounds[0], rounds[PLAN_ROUNDS / 2], rounds[PLAN_ROUNDS - 1]);
        report.blank();
        report.line(format!(
            "scheduler power (quality per compute second, paper §3):\n  \
             policies {median:.0} /s (median of {PLAN_ROUNDS} rounds, {low:.0}-{high:.0})   \
             exact solver {avg_exact:.3} /s   ratio {:.0}x",
            median / avg_exact.max(1e-12)
        ));
        timing.set(
            "power",
            JsonValue::object()
                .with("policy_per_sec_median", median)
                .with("policy_per_sec_rounds", rounds)
                .with("plan_floor_ms", PLAN_FLOOR.as_millis() as u64)
                .with("avg_exact_per_sec", avg_exact)
                .with("ratio", median / avg_exact.max(1e-12)),
        );
    }
    report.set("timing", timing);
    report.blank();
    report.line(
        "paper reference: avg ~22 jobs, ~2-day makespan, 5-min scale, 0.7% loss, hours of CPLEX time",
    );
    report.finish().expect("writing results/");
}
