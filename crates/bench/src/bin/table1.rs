//! Reproduces **Table 1** of the paper: exemplary exact-solver runs on
//! quasi-off-line snapshots taken at job submissions of a CTC-like trace,
//! compared against the best basic policy of the self-tuning dynP
//! scheduler.
//!
//! Per row: snapshot size (jobs, max makespan, accumulated runtime), the
//! Eq. 6 time scale, the model size, the Eq. 7 quality and performance
//! loss of the best policy vs the exact schedule, and the solve effort.
//! The final row is the averages row, as in the paper. Writes
//! `results/table1.{txt,json,events.jsonl}`; the JSON carries the full
//! per-row data including each solve's incumbent/gap trajectory.
//!
//! Usage: `cargo run --release -p dynp-bench --bin table1 [n_jobs] [seed] [--watch <addr>]`
//!
//! The paper's qualitative expectations (see EXPERIMENTS.md):
//! * average performance loss in the ~1 % range (paper: 0.7 %),
//! * occasional negative loss rows (time-scaling artifacts),
//! * exact solve effort orders of magnitude above the policies' < 10 ms,
//!   and unpredictable between similar-sized instances.

use dynp_bench::{
    cli_args_and_watch, ctc_trace, dynp_run_with_snapshots, exact_run_json, solve_snapshots,
    spread_sample, start_watch, Report, Table1Averages, TABLE1_HEADER,
};
use dynp_milp::{BranchLimits, SolveConfig};
use dynp_obs::JsonValue;
use dynp_sim::SnapshotFilter;

fn main() {
    let (args, watch_addr) = cli_args_and_watch();
    let mut args = args.into_iter();
    let n_jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1200);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2004);
    let rows: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);

    let mut report = Report::new("table1");
    let _watch = start_watch(watch_addr.as_deref());

    eprintln!("generating CTC-like trace: {n_jobs} jobs, seed {seed} ...");
    let trace = ctc_trace(n_jobs, seed);

    eprintln!("replaying under self-tuning dynP, collecting snapshots ...");
    let run = dynp_run_with_snapshots(
        &trace.jobs,
        trace.machine_size,
        SnapshotFilter {
            // The paper's average instance has ~22 jobs; very small
            // snapshots are trivial and very large ones explode the ILP.
            min_jobs: 5,
            max_jobs: 18,
            ..SnapshotFilter::default()
        },
    );
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

    let sample = spread_sample(&run.snapshots, rows);
    eprintln!("solving {} snapshots exactly (parallel) ...", sample.len());
    let config = SolveConfig {
        // Eq. 6 with a 64x smaller budget than the paper's: a calibration
        // kept so the time scales Eq. 6 picks (coarser than the paper's,
        // still minutes-range) stay comparable across PRs. It no longer
        // models this solver's footprint — the basis is a sparse LU.
        memory_bytes: dynp_milp::PAPER_MEMORY_BYTES / 64.0,
        limits: BranchLimits {
            max_nodes: 20_000,
            ..BranchLimits::default()
        },
        ..SolveConfig::default()
    };
    let solved = solve_snapshots(&sample, &config);

    report.blank();
    report.line("Table 1 — exact problem sizes, quality, and compute time");
    report.line("(metric: SLDwA; baseline: best of FCFS/SJF/LJF at each snapshot)");
    report.line(format!("{TABLE1_HEADER}  status"));
    let mut rows_json = JsonValue::array();
    for r in &solved {
        report.line(format!("{}  {:?}", r.table_row(), r.status));
        rows_json.push(exact_run_json(r));
    }
    report.set("rows", rows_json);
    let avg = Table1Averages::compute(&solved);
    report.set("averages", avg.to_json());
    report.blank();
    report.line(format!(
        "averages over {} runs ({} solved):",
        avg.runs, avg.solved
    ));
    report.line(format!(
        "  jobs {:.1}   makespan {:.0} s   acc.runtime {:.0} s   scale {:.1} min",
        avg.avg_jobs,
        avg.avg_makespan,
        avg.avg_acc_runtime,
        avg.avg_time_scale / 60.0
    ));
    report.line(format!(
        "  quality {:.3}   perf. loss {:+.2}%   solve time {:.2} s",
        avg.avg_quality, avg.avg_loss_percent, avg.avg_solve_seconds
    ));
    // The paper's §3 "power" comparison: quality per compute second.
    let powers: Vec<(f64, f64)> = solved
        .iter()
        .filter_map(|r| Some((r.policy_power()?, r.exact_power()?)))
        .collect();
    if !powers.is_empty() {
        let avg_policy: f64 = powers.iter().map(|p| p.0).sum::<f64>() / powers.len() as f64;
        let avg_exact: f64 = powers.iter().map(|p| p.1).sum::<f64>() / powers.len() as f64;
        report.blank();
        report.line(format!(
            "scheduler power (quality per compute second, paper §3):\n  \
             policies {avg_policy:.0} /s   exact solver {avg_exact:.3} /s   ratio {:.0}x",
            avg_policy / avg_exact.max(1e-12)
        ));
        report.set(
            "power",
            JsonValue::object()
                .with("avg_policy_per_sec", avg_policy)
                .with("avg_exact_per_sec", avg_exact)
                .with("ratio", avg_policy / avg_exact.max(1e-12)),
        );
    }
    report.blank();
    report.line(
        "paper reference: avg ~22 jobs, ~2-day makespan, 5-min scale, 0.7% loss, hours of CPLEX time",
    );
    report.finish().expect("writing results/");
}
