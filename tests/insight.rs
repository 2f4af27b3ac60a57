//! End-to-end telemetry pipeline test: a real campaign recorded through
//! a rotating JSONL sink, analyzed offline by `dynp-insight`.
//!
//! The tentpole guarantee under test: the analyzer's `logical` section
//! is **byte-identical** whether the campaign ran on one worker or
//! four, because every event carries deterministic trace context
//! (campaign, cell, span ids) and the merge orders by the recorder's
//! logical clock, not by wall-clock or thread interleaving.
//!
//! One test function: the recorder is process-global, so the two
//! campaign runs must not race each other.

use dynp_rs::insight::{analyze_path, Options};
use dynp_rs::obs::{self, Recorder, Sink};
use dynp_rs::prelude::*;
use std::path::{Path, PathBuf};

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dynp_insight_{}_{}", tag, std::process::id()))
}

fn campaign_trace() -> Vec<Job> {
    let model = CtcModel {
        nodes: 64,
        mean_interarrival: 6_000.0,
        ..CtcModel::default()
    };
    model.generate(240, 11).jobs
}

fn config(dir: &Path, workers: usize) -> CampaignConfig {
    CampaignConfig::new("insight", 64)
        .with_shard_seconds(WEEK_SECONDS / 2)
        .with_selectors(vec![
            SelectorSpec::Fixed(Policy::Fcfs),
            SelectorSpec::Fixed(Policy::Sjf),
            SelectorSpec::dynp(),
        ])
        .with_factors(vec![1.0, 2.0])
        .with_exact(Some(
            ExactConfig::new()
                .with_job_range(2, 8)
                .with_max_snapshots(1)
                .with_node_budget(150),
        ))
        .with_workers(workers)
        .with_output_dir(dir)
}

/// Runs the campaign with a fresh rotating-sink recorder; returns the
/// campaign outcome.
fn record_run(dir: &Path, workers: usize, jobs: &[Job]) -> CampaignOutcome {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    // Small-but-sufficient rotation: forces several rotated files while
    // keeping enough history that no line is discarded.
    let sink = Sink::rotating(dir.join("campaign.events.jsonl"), 64 * 1024, 200).unwrap();
    obs::install(Recorder::new(sink));
    run_campaign(jobs, &config(dir, workers)).expect("campaign runs")
}

#[test]
fn campaign_events_analyze_identically_across_worker_counts() {
    let jobs = campaign_trace();

    let dir1 = unique_dir("w1");
    let out1 = record_run(&dir1, 1, &jobs);
    let dir4 = unique_dir("w4");
    let out4 = record_run(&dir4, 4, &jobs);
    assert_eq!(out1.cells_total, out4.cells_total);
    assert!(out1.cells_total >= 12, "trace too small: {}", out1.cells_total);

    // Rotation actually happened — the analyzer is merging shards, not
    // reading one file.
    let rotated = std::fs::read_dir(&dir1)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".events.jsonl."))
        .count();
    assert!(rotated >= 1, "expected rotated event logs in {}", dir1.display());

    // The tentpole: logical reports byte-identical across worker counts.
    let logical = Options {
        logical_only: true,
        ..Options::default()
    };
    let report1 = analyze_path(&dir1, &logical).unwrap().to_json();
    let report4 = analyze_path(&dir4, &logical).unwrap().to_json();
    assert_eq!(report1, report4, "logical report depends on worker count");

    // Full-mode report: structural invariants hold on a real run.
    let full = analyze_path(&dir1, &Options::default()).unwrap();
    let group = &full.get("logical").unwrap().get("groups").unwrap().as_array().unwrap()[0];
    assert_eq!(group.get("rejected").unwrap().as_u64(), Some(0));
    assert_eq!(group.get("missing_seqs").unwrap().as_u64(), Some(0));
    assert_eq!(group.get("conflicting_seqs").unwrap().as_u64(), Some(0));
    let run = &group.get("runs").unwrap().as_array().unwrap()[0];
    assert_eq!(
        run.get("cells_seen").unwrap().as_u64(),
        Some(out1.cells_total as u64),
        "every cell must appear in the event stream"
    );
    assert_eq!(
        run.get("cells_declared").unwrap().as_u64(),
        Some(out1.cells_total as u64)
    );
    let structure = run.get("structure").unwrap();
    assert_eq!(structure.get("orphan_spans").unwrap().as_u64(), Some(0));
    assert_eq!(structure.get("campaign_mismatches").unwrap().as_u64(), Some(0));
    let milp = run.get("milp").unwrap();
    assert!(milp.get("solves").unwrap().as_u64().unwrap() > 0, "exact cells must solve");

    // Timing section reconciles: children never outlast their parent.
    let recon = full.get("timing").unwrap().get("reconciliation").unwrap();
    assert!(recon.get("parents_checked").unwrap().as_u64().unwrap() > 0);
    assert_eq!(recon.get("violations").unwrap().as_u64(), Some(0));
    // Every traced kind made it into the percentile table.
    let kinds = full.get("timing").unwrap().get("span_kinds").unwrap();
    for kind in ["exp.cell", "exp.replay", "exp.exact", "sim.run", "milp.solve"] {
        assert!(kinds.get(kind).is_some(), "missing span kind {kind}");
    }

    // The campaign wrote a valid OpenMetrics snapshot alongside.
    let metrics_path = out4.metrics_path.expect("metrics written when a recorder is installed");
    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    dynp_rs::obs::expo::validate(&metrics).expect("exposition validates");
    assert!(metrics.contains("dynp_"), "metric names carry the dynp_ prefix");

    std::fs::remove_dir_all(&dir1).unwrap();
    std::fs::remove_dir_all(&dir4).unwrap();
}
