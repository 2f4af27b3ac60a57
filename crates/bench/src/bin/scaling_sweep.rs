//! Ablation B (DESIGN.md §3): effect of the time-scaling granularity and
//! of the §3.2 compaction on exact-schedule quality and solve effort.
//!
//! For a fixed set of snapshots, sweeps the slot width over
//! {1, 2, 5, 10, 30} minutes and reports model size, quality vs. the
//! best policy, and solve time, with and without compaction. Each
//! snapshot is solved once per width: the search gives the slot-grid
//! schedule, and compaction only rewrites it afterwards, so both text
//! lines of a width come from the same runs and share their vars, nodes
//! and time. This quantifies the paper's observation that coarse scaling
//! can make the "optimal" schedule *worse* than a policy schedule
//! (negative loss rows in Table 1) and that compaction recovers most of
//! the grid slack. The JSON has one row per width: the averages, the
//! compacted and slot-grid losses, and the stage's per-snapshot rows,
//! with every wall-clock value under a `timing` key.
//! Writes `results/scaling_sweep.{txt,json,events.jsonl}`.
//!
//! Usage: `cargo run --release -p dynp-bench --bin scaling_sweep [n_jobs] [seed] [--watch <addr>]`

use dynp_bench::{cli_args_and_watch, dynp_run_with_snapshots, small_trace, start_watch, Report};
use dynp_exp::ExactConfig;
use dynp_obs::JsonValue;

fn main() {
    let (args, watch_addr) = cli_args_and_watch();
    let mut args = args.into_iter();
    let n_jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2004);

    let mut report = Report::new("scaling_sweep");
    let _watch = start_watch(watch_addr.as_deref());

    let exact = ExactConfig::new()
        .with_job_range(5, 14)
        .with_max_snapshots(6)
        .with_node_budget(5_000);
    eprintln!("generating trace and collecting snapshots ...");
    let trace = small_trace(n_jobs, seed, 64);
    let run = dynp_run_with_snapshots(&trace.jobs, trace.machine_size, exact.snapshot_filter());
    eprintln!(
        "solving up to {} snapshots at each slot width ...",
        exact.max_snapshots
    );
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stages: Vec<(u64, dynp_exp::ExactStage)> = [1u64, 2, 5, 10, 30]
        .into_iter()
        .map(|minutes| {
            let config = exact.clone().with_scale_override(minutes * 60);
            (minutes, dynp_exp::compare(&run.snapshots, &config, workers))
        })
        .collect();
    let sampled = stages[0].1.tally.sampled;
    report.set(
        "params",
        JsonValue::object()
            .with("n_jobs", n_jobs)
            .with("seed", seed)
            .with("machine_size", trace.machine_size)
            .with("snapshots", sampled),
    );

    report.blank();
    report.line(format!(
        "Time-scaling sweep (metric: SLDwA, {sampled} snapshots averaged)"
    ));
    report.line(format!(
        "{:>7} {:>10} {:>9} {:>9} {:>11} {:>11}",
        "scale", "compacted", "avg vars", "avg loss", "avg nodes", "avg time"
    ));
    let mut rows_json = JsonValue::array();
    for (scale_minutes, stage) in &stages {
        let t = &stage.tally;
        let avg_vars = t.per_run(t.variables as f64);
        let avg_nodes = t.per_run(t.nodes as f64);
        let avg_time = t.per_run(t.solve_seconds);
        let (avg_loss, avg_slot_loss) =
            (t.per_compared(t.loss_sum), t.per_compared(t.slot_loss_sum));
        for (compacted, loss) in [("yes", avg_loss), ("no", avg_slot_loss)] {
            report.line(format!(
                "{scale_minutes:>5}min {compacted:>10} {avg_vars:>9.0} {loss:>+8.2}% {avg_nodes:>11.0} {avg_time:>10.3}s"
            ));
        }
        rows_json.push(
            JsonValue::object()
                .with("scale_minutes", *scale_minutes)
                .with("avg_vars", avg_vars)
                .with("avg_nodes", avg_nodes)
                .with("solved", t.compared)
                .with("avg_loss_percent", avg_loss)
                .with("avg_slot_loss_percent", avg_slot_loss)
                .with("snapshots", stage.rows())
                .with(
                    "timing",
                    JsonValue::object().with("avg_solve_seconds", avg_time),
                ),
        );
    }
    report.set("rows", rows_json);
    report.blank();
    report.line(
        "expectations: finer scales -> larger models, longer solves, higher quality\n\
         (more positive loss); compaction always helps, most at coarse scales.",
    );
    report.finish().expect("writing results/");
}
