//! Campaign benchmark: the paper's §4 weekly-shard sweep as one command,
//! plus a parallel-speedup measurement over the `workers` knob.
//!
//! Generates a multi-week synthetic CTC trace, runs the full
//! `shard × selector × over-estimation` campaign once per worker count
//! (each in its own checkpoint directory so every run computes all cells),
//! verifies the runs agree byte-for-byte, and validates the final report
//! with the strict JSON parser. Writes
//! `results/campaign.{txt,json,events.jsonl}` plus the campaign's own
//! `results/campaign-run/` report files.
//!
//! Usage: `cargo run --release -p dynp-bench --bin campaign \
//!   [n_jobs] [n_shards] [workers_csv] [selectors_csv] [--watch <addr>]`

use dynp_bench::{cli_args_and_watch, start_watch, Report};
use dynp_exp::{run_campaign, CampaignConfig, ExactConfig, SelectorSpec};
use dynp_obs::JsonValue;
use dynp_trace::{CtcModel, Job, WorkloadModel, WEEK_SECONDS};
use std::time::Instant;

/// Scales a CTC-like model so ~`n_jobs` jobs nominally cover `n_shards`
/// weeks. Bursts and the diurnal cycle compress the effective span, so
/// about half the nominal weekly windows end up non-empty — the campaign
/// skips empty windows and reports the shards that carry jobs.
fn weekly_trace(n_jobs: usize, n_shards: usize) -> Vec<Job> {
    let span = n_shards as u64 * WEEK_SECONDS;
    let model = CtcModel {
        nodes: 64,
        mean_interarrival: (span / n_jobs.max(1) as u64).max(1) as f64,
        ..CtcModel::default()
    };
    model.generate(n_jobs, 2004).jobs
}

fn main() {
    let (args, watch_addr) = cli_args_and_watch();
    let mut args = args.into_iter();
    let n_jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1_200);
    let n_shards: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);
    let workers: Vec<usize> = args
        .next()
        .unwrap_or_else(|| "1,2,4".into())
        .split(',')
        .filter_map(|w| w.trim().parse().ok())
        .collect();
    let selectors: Vec<SelectorSpec> = match args.next() {
        Some(csv) => csv
            .split(',')
            .map(|s| SelectorSpec::parse(s).expect("valid selector name"))
            .collect(),
        None => SelectorSpec::paper_set(),
    };

    let mut report = Report::new("campaign");
    let _watch = start_watch(watch_addr.as_deref());
    let jobs = weekly_trace(n_jobs, n_shards);

    report.line(format!(
        "campaign bench: {} jobs over ~{} weekly shards, {} selector(s), workers {:?}",
        jobs.len(),
        n_shards,
        selectors.len(),
        workers
    ));
    report.set(
        "params",
        JsonValue::object()
            .with("n_jobs", jobs.len())
            .with("n_shards", n_shards)
            .with(
                "selectors",
                JsonValue::Array(
                    selectors
                        .iter()
                        .map(|s| JsonValue::from(s.label()))
                        .collect(),
                ),
            )
            .with(
                "workers",
                JsonValue::Array(workers.iter().map(|&w| JsonValue::from(w)).collect()),
            ),
    );
    report.blank();
    report.line(format!(
        "{:>8} {:>8} {:>10} {:>10} {:>9}",
        "workers", "cells", "time [s]", "cells/s", "speedup"
    ));

    let config_for = |workers: usize, dir: String| {
        CampaignConfig::new("campaign-run", 64)
            .with_selectors(selectors.clone())
            .with_factors(vec![1.0, 3.0])
            .with_exact(Some(
                ExactConfig::new()
                    .with_job_range(3, 10)
                    .with_max_snapshots(1)
                    .with_node_budget(400)
                    .with_lp_iteration_budget(20_000)
                    // Parallel node LPs inside each exact solve; the
                    // deterministic rounds keep the report byte-stable
                    // regardless (asserted below across campaign worker
                    // counts too).
                    .with_solver_workers(2),
            ))
            .with_workers(workers)
            .with_output_dir(dir)
            .with_shard_seconds(WEEK_SECONDS)
    };

    let mut baseline: Option<f64> = None;
    let mut reference_report: Option<String> = None;
    let mut rows = JsonValue::array();
    for &w in &workers {
        // Each worker count gets a fresh checkpoint dir, so every run
        // computes all cells (no resume shortcut inflating the speedup).
        let dir = format!("results/campaign-run-w{w}");
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        let outcome = run_campaign(&jobs, &config_for(w, dir)).expect("campaign runs");
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(outcome.cells_computed, outcome.cells_total, "nothing may resume");

        // The report must not depend on the worker count.
        let rendered = outcome.report.to_json();
        dynp_obs::validate_json(&rendered).expect("report is strict JSON");
        match &reference_report {
            None => reference_report = Some(rendered),
            Some(reference) => assert_eq!(
                reference, &rendered,
                "worker count changed the report bytes"
            ),
        }

        let speedup = match baseline {
            None => {
                baseline = Some(elapsed);
                1.0
            }
            Some(t1) => t1 / elapsed,
        };
        report.line(format!(
            "{:>8} {:>8} {:>10.2} {:>10.2} {:>8.2}x",
            w,
            outcome.cells_total,
            elapsed,
            outcome.cells_total as f64 / elapsed.max(1e-9),
            speedup
        ));
        rows.push(
            JsonValue::object()
                .with("workers", w)
                .with("cells", outcome.cells_total)
                .with("seconds", elapsed)
                .with("speedup", speedup),
        );
    }
    report.set("sweep", rows);
    for &w in &workers {
        // Scratch checkpoints only existed to defeat resume during timing.
        let _ = std::fs::remove_dir_all(format!("results/campaign-run-w{w}"));
    }

    // Keep one canonical campaign output directory for artifact upload
    // and validate its files end to end.
    let final_dir = "results/campaign-run";
    let _ = std::fs::remove_dir_all(final_dir);
    let last_workers = workers.last().copied().unwrap_or(1);
    let outcome =
        run_campaign(&jobs, &config_for(last_workers, final_dir.into())).expect("campaign runs");
    let report_text = std::fs::read_to_string(&outcome.report_json_path).expect("report exists");
    dynp_obs::validate_json(&report_text).expect("written report is strict JSON");
    report.blank();
    report.line(format!(
        "final campaign: {} cells -> {} (fingerprint {})",
        outcome.cells_total,
        outcome.report_json_path.display(),
        outcome.fingerprint
    ));
    report.set("fingerprint", outcome.fingerprint.as_str());
    report.set("report_cells", outcome.cells_total);
    report.finish().expect("write report");
}
