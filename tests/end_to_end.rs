//! Cross-crate integration tests: full traces through the simulator, and
//! snapshots through the exact pipeline, checking system-level invariants.

use dynp_rs::milp::{solve_snapshot, BranchLimits, MipStatus, SolveConfig};
use dynp_rs::prelude::*;
use dynp_rs::sim::SnapshotFilter;

fn trace(n: usize, seed: u64, nodes: u32) -> (Vec<Job>, u32) {
    let model = CtcModel {
        nodes,
        mean_interarrival: 100.0,
        ..CtcModel::default()
    };
    let t = model.generate(n, seed);
    (t.jobs, t.machine_size)
}

#[test]
fn every_selector_completes_every_job() {
    let (jobs, size) = trace(250, 1, 64);
    for policy in Policy::PAPER_SET {
        let run = simulate(&jobs, FixedPolicy(policy), SimConfig::new(size));
        assert_eq!(run.records.len(), jobs.len(), "{policy} dropped jobs");
    }
    let run = simulate(
        &jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(size),
    );
    assert_eq!(run.records.len(), jobs.len());
}

#[test]
fn conservation_of_work() {
    // Total resource-seconds delivered equals the trace's effective work,
    // regardless of the scheduling policy.
    let (jobs, size) = trace(150, 2, 64);
    let expected: u64 = jobs
        .iter()
        .map(|j| j.width as u64 * j.effective_duration())
        .sum();
    for policy in Policy::PAPER_SET {
        let run = simulate(&jobs, FixedPolicy(policy), SimConfig::new(size));
        let delivered: u64 = run.records.iter().map(|r| r.area()).sum();
        assert_eq!(delivered, expected, "{policy} lost work");
    }
}

#[test]
fn no_job_starts_before_submission_or_overlaps_capacity() {
    let (jobs, size) = trace(200, 3, 32);
    let run = simulate(&jobs, FixedPolicy(Policy::Sjf), SimConfig::new(size));
    for r in &run.records {
        assert!(r.start >= r.submit);
        assert!(r.end > r.start);
    }
    // Event-sweep capacity check over the whole run.
    let mut events: Vec<(u64, i64)> = Vec::new();
    for r in &run.records {
        events.push((r.start, r.width as i64));
        events.push((r.end, -(r.width as i64)));
    }
    events.sort_unstable();
    let mut usage = 0i64;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            usage += events[i].1;
            i += 1;
        }
        assert!(
            usage <= size as i64,
            "machine overcommitted at t={t}: {usage} > {size}"
        );
    }
}

#[test]
fn dynp_is_never_catastrophically_worse_than_best_fixed_policy() {
    let (jobs, size) = trace(400, 4, 64);
    let best_fixed = Policy::PAPER_SET
        .iter()
        .map(|&p| {
            simulate(&jobs, FixedPolicy(p), SimConfig::new(size))
                .summary
                .sldwa
        })
        .fold(f64::INFINITY, f64::min);
    let dynp = simulate(
        &jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(size),
    );
    assert!(
        dynp.summary.sldwa <= best_fixed * 1.25,
        "dynP SLDwA {} vs best fixed {best_fixed}",
        dynp.summary.sldwa
    );
}

#[test]
fn snapshots_replan_identically_offline() {
    // A snapshot captured during simulation must yield exactly the
    // schedule the simulator planned: same planner, same data.
    let (jobs, size) = trace(120, 5, 32);
    let run = simulate(
        &jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(size).with_snapshots(SnapshotFilter {
            min_jobs: 2,
            ..SnapshotFilter::default()
        }),
    );
    assert!(!run.snapshots.is_empty());
    for snap in run.snapshots.iter().take(20) {
        snap.problem.validate().unwrap();
        let schedule = plan(&snap.problem, snap.chosen).unwrap();
        schedule.validate(&snap.problem).unwrap();
    }
}

#[test]
fn exact_solver_weakly_improves_on_every_policy() {
    // On snapshots solved to optimality with a fine grid and lossless
    // durations, the ILP schedule (compacted) can never have a worse
    // SLDwA than any policy schedule.
    let jobs: Vec<Job> = vec![
        Job::exact(0, 0, 8, 1200),
        Job::exact(1, 0, 2, 600),
        Job::exact(2, 0, 3, 600),
        Job::exact(3, 0, 5, 1800),
        Job::exact(4, 0, 1, 2400),
    ];
    let problem = SchedulingProblem::on_empty_machine(0, 8, jobs);
    let config = SolveConfig {
        scale_override: Some(60),
        limits: BranchLimits::default(),
        ..SolveConfig::default()
    };
    let run = solve_snapshot(&problem, &config).expect("snapshot has waiting jobs");
    assert_eq!(run.status, MipStatus::Optimal);
    let exact = run.exact_value.expect("optimal solve has a schedule");
    for policy in Policy::PAPER_SET {
        let value = Metric::SldwA.eval(&problem, &plan(&problem, policy).unwrap());
        assert!(
            exact <= value + 1e-9,
            "exact {exact} worse than {policy} {value}"
        );
    }
}

#[test]
fn exact_schedule_is_valid_against_snapshot() {
    let history = MachineHistory::build(8, 50, &[(5, 400)]);
    let problem = SchedulingProblem::new(
        50,
        history,
        vec![
            Job::exact(0, 10, 4, 600),
            Job::exact(1, 20, 6, 300),
            Job::exact(2, 30, 2, 900),
        ],
    );
    let run = solve_snapshot(
        &problem,
        &SolveConfig {
            scale_override: Some(60),
            ..SolveConfig::default()
        },
    )
    .expect("snapshot has waiting jobs");
    let schedule = run.exact_schedule.expect("solved");
    schedule.validate(&problem).unwrap();
}

#[test]
fn tune_on_finish_variant_also_completes() {
    let (jobs, size) = trace(150, 6, 32);
    let config = SimConfig::new(size).with_tune_on_finish(true);
    let run = simulate(&jobs, SelfTuning::paper_config(Metric::SldwA), config);
    assert_eq!(run.records.len(), jobs.len());
    // Tuning on completions adds selection points beyond submissions.
    assert!(run.policy_log.len() >= jobs.len());
}

#[test]
fn different_metrics_drive_different_tuning() {
    let (jobs, size) = trace(300, 7, 32);
    let by_sld = simulate(
        &jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(size),
    );
    let by_art = simulate(
        &jobs,
        SelfTuning::paper_config(Metric::ArtwW),
        SimConfig::new(size),
    );
    // Both complete; the tuning traces usually differ.
    assert_eq!(by_sld.records.len(), jobs.len());
    assert_eq!(by_art.records.len(), jobs.len());
}

#[test]
fn overrunning_jobs_are_killed_at_their_estimate() {
    // CCS semantics: a job exceeding its estimate is terminated at the
    // reservation end, so its successors start exactly on time.
    let jobs = vec![
        Job::new(0, 0, 4, 100, 500), // claims 100 s, would run 500 s
        Job::exact(1, 0, 4, 50),
    ];
    let run = simulate(&jobs, FixedPolicy(Policy::Fcfs), SimConfig::new(4));
    let mut records = run.records.clone();
    records.sort_by_key(|r| r.id);
    assert_eq!(records[0].end, 100, "overrunning job not capped");
    assert_eq!(records[1].start, 100);
}

#[test]
fn underrunning_jobs_free_resources_early() {
    let jobs = vec![
        Job::new(0, 0, 4, 10_000, 100), // massive over-estimation
        Job::exact(1, 0, 4, 50),
    ];
    let run = simulate(&jobs, FixedPolicy(Policy::Fcfs), SimConfig::new(4));
    let mut records = run.records.clone();
    records.sort_by_key(|r| r.id);
    assert_eq!(records[0].end, 100);
    assert_eq!(records[1].start, 100, "successor did not move forward");
}

#[test]
fn utilization_timeline_matches_summary() {
    let (jobs, size) = trace(100, 8, 32);
    let run = simulate(&jobs, FixedPolicy(Policy::Fcfs), SimConfig::new(size));
    let timeline = dynp_rs::sim::utilization_timeline(&run.records, size);
    assert!(!timeline.is_empty());
    // Integrate the step function and compare against the summary.
    let first = run.records.iter().map(|r| r.submit).min().unwrap();
    let mut area = 0.0;
    for w in timeline.windows(2) {
        area += w[0].1 * (w[1].0 - w[0].0) as f64;
    }
    let span = (timeline.last().unwrap().0 - first) as f64;
    let integrated = area / span;
    assert!(
        (integrated - run.summary.utilization).abs() < 0.05,
        "timeline {integrated} vs summary {}",
        run.summary.utilization
    );
    // Utilization never exceeds 1.
    assert!(timeline
        .iter()
        .all(|&(_, u)| (0.0..=1.0 + 1e-9).contains(&u)));
}

#[test]
fn conclusions_hold_on_a_second_workload_model() {
    // Workload-robustness check: replaying a Lublin-style workload (instead
    // of the CTC model) must preserve the paper's qualitative conclusion —
    // dynP tracks close to the best fixed policy.
    let model = dynp_rs::trace::LublinModel {
        nodes: 64,
        peak_arrivals_per_hour: 40.0,
        ..dynp_rs::trace::LublinModel::default()
    };
    let t = model.generate(300, 21);
    let best_fixed = Policy::PAPER_SET
        .iter()
        .map(|&p| {
            simulate(&t.jobs, FixedPolicy(p), SimConfig::new(t.machine_size))
                .summary
                .sldwa
        })
        .fold(f64::INFINITY, f64::min);
    let dynp = simulate(
        &t.jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(t.machine_size),
    );
    assert_eq!(dynp.records.len(), 300);
    assert!(
        dynp.summary.sldwa <= best_fixed * 1.25,
        "dynP {} vs best fixed {best_fixed} on Lublin workload",
        dynp.summary.sldwa
    );
}
