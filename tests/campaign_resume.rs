//! Crash-resume determinism of experiment campaigns (the tentpole
//! guarantee): killing a campaign mid-sweep and re-launching it must skip
//! the surviving cells and produce a final report **byte-identical** to
//! an uninterrupted run.

use dynp_rs::obs::checkpoint;
use dynp_rs::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn unique_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "dynp_resume_{}_{}_{}",
        tag,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn campaign_trace() -> Vec<Job> {
    // ~3 weeks at a load the 64-node machine can absorb: saturating it
    // grows the backlog (and the planner's work) quadratically, which a
    // debug-mode test cannot afford.
    let model = CtcModel {
        nodes: 64,
        mean_interarrival: 6_000.0,
        ..CtcModel::default()
    };
    model.generate(300, 7).jobs
}

fn config(dir: &std::path::Path) -> CampaignConfig {
    CampaignConfig::new("resume", 64)
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
        .with_output_dir(dir)
}

#[test]
fn interrupted_campaign_resumes_to_a_byte_identical_report() {
    let jobs = campaign_trace();

    // Reference: one uninterrupted run.
    let dir_a = unique_dir("full");
    let full = run_campaign(&jobs, &config(&dir_a)).expect("campaign runs");
    assert!(full.cells_total >= 12, "trace too small: {}", full.cells_total);
    let report_json = std::fs::read(&full.report_json_path).unwrap();
    let report_text = std::fs::read(&full.report_text_path).unwrap();

    // Crash victim: run fully, then simulate dying mid-sweep by cutting
    // the checkpoint down to its first half and appending the torn tail
    // of a record (the write the "crash" interrupted). Reports vanish
    // with the crash too.
    let dir_b = unique_dir("crash");
    let first = run_campaign(&jobs, &config(&dir_b)).expect("campaign runs");
    let checkpoint_path = first.checkpoint_path.clone();
    let lines: Vec<String> = std::fs::read_to_string(&checkpoint_path)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(lines.len(), first.cells_total);
    let keep = lines.len() / 2;
    let mut truncated = lines[..keep].join("\n");
    truncated.push('\n');
    let torn = &lines[keep][..lines[keep].len() / 2];
    truncated.push_str(torn); // no trailing newline: a torn write
    std::fs::write(&checkpoint_path, truncated).unwrap();
    std::fs::remove_file(&first.report_json_path).unwrap();
    std::fs::remove_file(&first.report_text_path).unwrap();

    // Relaunch against the mutilated checkpoint.
    let resumed = run_campaign(&jobs, &config(&dir_b)).expect("resume runs");
    assert_eq!(resumed.cells_resumed, keep, "must trust exactly the intact records");
    assert_eq!(
        resumed.cells_computed,
        resumed.cells_total - keep,
        "must recompute exactly the lost cells"
    );
    assert_eq!(resumed.checkpoint_rejected, 1, "the torn line is dropped, not fatal");

    // The tentpole assertion: byte-identical reports.
    assert_eq!(
        std::fs::read(&resumed.report_json_path).unwrap(),
        report_json,
        "resumed JSON report differs from the uninterrupted run"
    );
    assert_eq!(
        std::fs::read(&resumed.report_text_path).unwrap(),
        report_text,
        "resumed text report differs from the uninterrupted run"
    );

    // And the checkpoint healed: a third launch resumes everything.
    let third = run_campaign(&jobs, &config(&dir_b)).expect("third run");
    assert_eq!(third.cells_resumed, third.cells_total);
    assert_eq!(third.cells_computed, 0);

    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn fault_injected_campaign_resumes_to_a_byte_identical_report() {
    // A smaller trace and no exact solves: the point here is the failure
    // model, and replay-only cells finish microseconds under the 400 ms
    // deadline even in debug mode, so only injected faults degrade cells.
    let model = CtcModel {
        nodes: 64,
        mean_interarrival: 12_000.0,
        ..CtcModel::default()
    };
    let jobs = model.generate(120, 11).jobs;
    let config = |dir: &std::path::Path| {
        CampaignConfig::new("fault-resume", 64)
            .with_shard_seconds(WEEK_SECONDS / 2)
            .with_selectors(vec![SelectorSpec::Fixed(Policy::Fcfs), SelectorSpec::dynp()])
            .with_factors(vec![1.0])
            .with_exact(None)
            .with_workers(1)
            .with_cell_deadline(std::time::Duration::from_millis(400))
            .with_retries(1)
            .with_faults(
                FaultPlan::none()
                    // Cell 0 stays crashed through its retry.
                    .inject(0, FaultKind::Panic, u32::MAX)
                    // Cell 1 crashes once and recovers on the retry.
                    .inject(1, FaultKind::Panic, 1)
                    // Cell 2 computes but its checkpoint append is eaten.
                    .inject(2, FaultKind::CheckpointIo, u32::MAX)
                    // Cell 3 sleeps past the deadline on every attempt.
                    .inject(3, FaultKind::Delay(std::time::Duration::from_secs(600)), u32::MAX),
            )
            .with_output_dir(dir)
    };

    let dir = unique_dir("faults");
    let first = run_campaign(&jobs, &config(&dir)).expect("faulted campaign still exits ok");
    assert!(first.cells_total >= 4, "trace too small: {}", first.cells_total);
    assert_eq!(first.cells_crashed, 1, "only cell 0 stays crashed");
    assert_eq!(first.cells_timed_out, 1, "only cell 3 stays timed out");
    let report_json = std::fs::read(&first.report_json_path).unwrap();
    let report_text = std::fs::read(&first.report_text_path).unwrap();

    // The checkpoint records the whole story: the crash with its payload
    // and retry count, the healed cell, and no record at all for the
    // io-faulted cell.
    let loaded = checkpoint::load(&first.checkpoint_path, &first.fingerprint).unwrap();
    let status = |cell: usize| {
        loaded.cells[&cell]
            .get("status")
            .and_then(|s| s.as_str())
            .unwrap_or("ok")
            .to_string()
    };
    let attempts =
        |cell: usize| loaded.cells[&cell].get("attempts").and_then(|a| a.as_u64()).unwrap();
    assert_eq!(status(0), "crashed");
    assert_eq!(attempts(0), 2, "one retry before giving up");
    assert_eq!(status(1), "ok");
    assert_eq!(attempts(1), 2, "healed on the second attempt");
    assert!(!loaded.cells.contains_key(&2), "injected i/o fault ate the record");
    assert_eq!(status(3), "timed_out");

    // Crash-resume on top of the degraded checkpoint: keep the first
    // half (which includes the degraded records), tear the next line,
    // delete the reports, relaunch.
    let lines: Vec<String> = std::fs::read_to_string(&first.checkpoint_path)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    let keep = lines.len() / 2;
    let mut truncated = lines[..keep].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&first.checkpoint_path, truncated).unwrap();
    std::fs::remove_file(&first.report_json_path).unwrap();
    std::fs::remove_file(&first.report_text_path).unwrap();

    let resumed = run_campaign(&jobs, &config(&dir)).expect("resume runs");
    assert_eq!(resumed.cells_resumed, keep);
    // Degraded outcomes are part of the resumed census too.
    assert_eq!(resumed.cells_crashed, 1);
    assert_eq!(resumed.cells_timed_out, 1);

    // The tentpole assertion, now under faults: byte-identical reports.
    assert_eq!(
        std::fs::read(&resumed.report_json_path).unwrap(),
        report_json,
        "fault-degraded resumed JSON report differs"
    );
    assert_eq!(
        std::fs::read(&resumed.report_text_path).unwrap(),
        report_text,
        "fault-degraded resumed text report differs"
    );

    // A third launch trusts everything except the io-faulted cell, which
    // is recomputed on every run by construction.
    let third = run_campaign(&jobs, &config(&dir)).expect("third run");
    assert_eq!(third.cells_resumed, third.cells_total - 1);
    assert_eq!(third.cells_computed, 1);
    assert_eq!(std::fs::read(&third.report_json_path).unwrap(), report_json);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_lines_are_self_validating() {
    let jobs = campaign_trace();
    let dir = unique_dir("lines");
    let outcome = run_campaign(&jobs, &config(&dir)).expect("campaign runs");
    let text = std::fs::read_to_string(&outcome.checkpoint_path).unwrap();
    for line in text.lines() {
        let (cell, data) =
            checkpoint::decode_line(line, &outcome.fingerprint).expect("every line validates");
        assert!(cell < outcome.cells_total);
        // Each record is itself strict JSON with the paper quantities.
        assert!(data.get("sldwa").is_some());
        assert!(data.get("selector").is_some());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
