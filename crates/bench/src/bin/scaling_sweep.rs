//! Ablation B (DESIGN.md §3): effect of the time-scaling granularity and
//! of the §3.2 compaction on exact-schedule quality and solve effort.
//!
//! For a fixed set of snapshots, sweeps the slot width over
//! {1, 2, 5, 10, 30} minutes, with and without compaction, and reports
//! model size, quality vs. the best policy, and solve time. This
//! quantifies the paper's observation that coarse scaling can make the
//! "optimal" schedule *worse* than a policy schedule (negative loss rows
//! in Table 1) and that compaction recovers most of the grid slack.
//! The JSON keeps, under each row, every snapshot's nodes, LP
//! iterations and status next to the averages the text table shows.
//! Writes `results/scaling_sweep.{txt,json,events.jsonl}`.
//!
//! Usage: `cargo run --release -p dynp-bench --bin scaling_sweep [n_jobs] [seed] [--watch <addr>]`

use dynp_bench::{
    cli_args_and_watch, dynp_run_with_snapshots, small_trace, solve_snapshots, spread_sample,
    start_watch, Report,
};
use dynp_milp::{BranchLimits, SolveConfig};
use dynp_obs::JsonValue;
use dynp_sim::SnapshotFilter;

fn main() {
    let (args, watch_addr) = cli_args_and_watch();
    let mut args = args.into_iter();
    let n_jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2004);

    let mut report = Report::new("scaling_sweep");
    let _watch = start_watch(watch_addr.as_deref());

    eprintln!("generating trace and collecting snapshots ...");
    let trace = small_trace(n_jobs, seed, 64);
    let run = dynp_run_with_snapshots(
        &trace.jobs,
        trace.machine_size,
        SnapshotFilter {
            min_jobs: 5,
            max_jobs: 14,
            ..SnapshotFilter::default()
        },
    );
    let sample = spread_sample(&run.snapshots, 6);
    eprintln!("{} snapshots sampled", sample.len());
    report.set(
        "params",
        JsonValue::object()
            .with("n_jobs", n_jobs)
            .with("seed", seed)
            .with("machine_size", trace.machine_size)
            .with("snapshots", sample.len()),
    );

    report.blank();
    report.line(format!(
        "Time-scaling sweep (metric: SLDwA, {} snapshots averaged)",
        sample.len()
    ));
    report.line(format!(
        "{:>7} {:>10} {:>9} {:>9} {:>11} {:>11}",
        "scale", "compacted", "avg vars", "avg loss", "avg nodes", "avg time"
    ));
    let mut rows_json = JsonValue::array();
    for scale_minutes in [1u64, 2, 5, 10, 30] {
        for compacted in [true, false] {
            let config = SolveConfig {
                scale_override: Some(scale_minutes * 60),
                skip_compaction: !compacted,
                limits: BranchLimits {
                    max_nodes: 5_000,
                    ..BranchLimits::default()
                },
                ..SolveConfig::default()
            };
            let runs = solve_snapshots(&sample, &config);
            let solved: Vec<_> = runs.iter().filter(|r| r.quality.is_some()).collect();
            let ns = solved.len().max(1) as f64;
            let avg_vars =
                runs.iter().map(|r| r.num_variables as f64).sum::<f64>() / runs.len() as f64;
            let avg_loss = solved
                .iter()
                .filter_map(|r| r.perf_loss_percent)
                .sum::<f64>()
                / ns;
            let avg_nodes = runs.iter().map(|r| r.nodes as f64).sum::<f64>() / runs.len() as f64;
            let avg_time =
                runs.iter().map(|r| r.solve_time.as_secs_f64()).sum::<f64>() / runs.len() as f64;
            report.line(format!(
                "{:>5}min {:>10} {:>9.0} {:>+8.2}% {:>11.0} {:>10.3}s",
                scale_minutes,
                if compacted { "yes" } else { "no" },
                avg_vars,
                avg_loss,
                avg_nodes,
                avg_time
            ));
            // Which solves closed before the node budget, and how: the
            // averages above cannot tell.
            let mut snapshots = JsonValue::array();
            for r in &runs {
                snapshots.push(
                    JsonValue::object()
                        .with("nodes", r.nodes)
                        .with("lp_iterations", r.lp_iterations)
                        .with("status", format!("{:?}", r.status)),
                );
            }
            rows_json.push(
                JsonValue::object()
                    .with("scale_minutes", scale_minutes)
                    .with("compacted", compacted)
                    .with("avg_vars", avg_vars)
                    .with("avg_loss_percent", avg_loss)
                    .with("avg_nodes", avg_nodes)
                    .with("avg_solve_seconds", avg_time)
                    .with("solved", solved.len())
                    .with("snapshots", snapshots),
            );
        }
    }
    report.set("rows", rows_json);
    report.blank();
    report.line(
        "expectations: finer scales -> larger models, longer solves, higher quality\n\
         (more positive loss); compaction always helps, most at coarse scales.",
    );
    report.finish().expect("writing results/");
}
