//! Differential acceptance test for the planner hot-path overhaul: the
//! optimized planner (shared availability profile, `compress_before`
//! prefix compression, skip-scan `earliest_fit`) must produce schedules
//! **bit-identical** to the pre-overhaul planner — same starts, same
//! entry order — for every policy on every snapshot a synthetic CTC run
//! produces.
//!
//! The reference implementation below is a faithful transcription of the
//! pre-overhaul code path: the availability profile is rebuilt from the
//! snapshot for every plan, and `earliest_fit` restarts segment by
//! segment with a fresh binary search after each blocking segment.

use dynp_rs::prelude::*;
use dynp_rs::sched::{plan, Reservation, ScheduleEntry};
use dynp_rs::sim::SnapshotFilter;

/// Pre-overhaul `ResourceProfile::earliest_fit`: restart at the next
/// segment after any blocking one, re-running the entry binary search.
fn earliest_fit_reference(
    profile: &ResourceProfile,
    earliest: u64,
    duration: u64,
    width: u32,
) -> Option<u64> {
    if width > profile.capacity() {
        return None;
    }
    if width == 0 {
        return Some(earliest);
    }
    let steps = profile.steps();
    let mut t = earliest;
    'outer: loop {
        let end = t.saturating_add(duration.max(1));
        let first = steps.partition_point(|&(time, _)| time <= t) - 1;
        for (i, &(time, free)) in steps[first..].iter().enumerate() {
            if time >= end {
                break;
            }
            if free < width {
                let seg = first + i;
                match steps.get(seg + 1) {
                    Some(&(next_time, _)) => {
                        t = next_time;
                        continue 'outer;
                    }
                    None => return None,
                }
            }
        }
        return Some(t);
    }
}

/// Pre-overhaul `plan`: per-call profile rebuild, entries pushed in policy
/// order.
fn plan_reference(problem: &SchedulingProblem, policy: Policy) -> Schedule {
    let mut profile = problem.availability_profile();
    let mut schedule = Schedule::new();
    for job in policy.order(&problem.jobs) {
        let duration = job.estimated_duration.max(1);
        let start = earliest_fit_reference(&profile, problem.now, duration, job.width)
            .expect("job fits the machine");
        profile.allocate(start, start + duration, job.width);
        schedule.push(ScheduleEntry {
            id: job.id,
            start,
            end: start + duration,
            width: job.width,
        });
    }
    schedule
}

/// Asserts bit-identical schedules for every policy on one snapshot, and
/// that a full `SelfTuning::step` returns the reference plan of its chosen
/// policy — the advanced decider's pick — with reference metric values.
fn assert_planner_equivalence(problem: &SchedulingProblem) {
    for policy in Policy::ALL {
        let optimized = plan(problem, policy).expect("plannable snapshot");
        let reference = plan_reference(problem, policy);
        // Schedule equality covers starts, ends, widths AND entry order.
        assert_eq!(
            optimized, reference,
            "{policy:?}: optimized and reference schedules differ at now={}, {} jobs",
            problem.now,
            problem.len()
        );
    }
    let mut tuner = SelfTuning::paper_config(Metric::SldwA);
    let out = tuner.step(problem).expect("plannable snapshot");
    assert_eq!(
        out.schedule,
        plan_reference(problem, out.chosen),
        "SelfTuning::step schedule differs from the reference plan"
    );
    assert_eq!(
        out.chosen,
        Decider::Advanced.decide(Metric::SldwA, &out.evaluations, Policy::PAPER_SET[0]),
        "SelfTuning::step did not choose what the advanced decider picks"
    );
    for (policy, value) in &out.evaluations {
        let reference_value = Metric::SldwA.eval(problem, &plan_reference(problem, *policy));
        // Bitwise equality: also holds for NaN (a zero-estimate job makes
        // slowdown divide by zero in both implementations identically).
        assert_eq!(
            value.to_bits(),
            reference_value.to_bits(),
            "{policy:?}: evaluation differs from reference ({value} vs {reference_value})"
        );
    }
}

#[test]
fn synthetic_ctc_snapshots_plan_bit_identically() {
    // Several machine sizes and seeds; snapshots taken at every
    // self-tuning step with at least one waiting job.
    for (n_jobs, seed, nodes) in [(200usize, 11u64, 64u32), (150, 23, 32), (120, 5, 430)] {
        let model = CtcModel {
            nodes,
            mean_interarrival: 60.0,
            ..CtcModel::default()
        };
        let trace = model.generate(n_jobs, seed);
        let run = simulate(
            &trace.jobs,
            SelfTuning::paper_config(Metric::SldwA),
            SimConfig::new(trace.machine_size).with_snapshots(SnapshotFilter {
                min_jobs: 1,
                max_count: 40,
                ..SnapshotFilter::default()
            }),
        );
        assert!(
            !run.snapshots.is_empty(),
            "trace (n={n_jobs}, seed={seed}) produced no snapshots"
        );
        for snap in &run.snapshots {
            assert_planner_equivalence(&snap.problem);
        }
    }
}

#[test]
fn busy_machine_deep_queue_plans_bit_identically() {
    // Ten running jobs (widths capped so all ten fit) and 1 000 waiting
    // CTC jobs on 430 nodes, submissions folded into the hour before
    // `now`: the deep-backlog shape the skip-scan fit was built for.
    let (nodes, now) = (430u32, 1_000_000u64);
    let trace = CtcModel::default().generate(1_010, 2_729);
    assert_eq!(trace.machine_size, nodes);
    let running: Vec<(u32, u64)> = trace.jobs[..10]
        .iter()
        .enumerate()
        .map(|(k, j)| (j.width.min(nodes / 14), now + 600 + 300 * k as u64))
        .collect();
    let waiting = trace.jobs[10..]
        .iter()
        .map(|j| Job {
            submit: now - j.submit % 3600,
            ..*j
        })
        .collect();
    let history = MachineHistory::build(nodes, now, &running);
    assert_planner_equivalence(&SchedulingProblem::new(now, history, waiting));
}

#[test]
fn handcrafted_edge_snapshots_plan_bit_identically() {
    // Busy machine observed mid-run, off-grid release times.
    let history = MachineHistory::build(16, 100, &[(7, 290), (4, 1333), (2, 505)]);
    let mut problem = SchedulingProblem::new(
        100,
        history,
        vec![
            Job::exact(0, 40, 9, 600),
            Job::exact(1, 80, 16, 50),
            Job::exact(2, 90, 1, 10_000),
            Job::exact(3, 95, 5, 1),
            // Zero estimated duration: the planner treats it as one second.
            Job {
                estimated_duration: 0,
                ..Job::exact(4, 99, 3, 1)
            },
        ],
    );
    assert_planner_equivalence(&problem);

    // The same snapshot with an admitted full-machine reservation (after
    // the running jobs drain at t=1333, so capacity allows it).
    problem.reservations.push(Reservation {
        id: 0,
        start: 1500,
        end: 2000,
        width: 16,
    });
    assert_planner_equivalence(&problem);

    // Deep queue of identical jobs (exercises long blocking runs).
    let deep = SchedulingProblem::on_empty_machine(
        0,
        8,
        (0..120).map(|i| Job::exact(i, 0, 5, 60)).collect(),
    );
    assert_planner_equivalence(&deep);

    // Single job, empty machine.
    let trivial = SchedulingProblem::on_empty_machine(7, 4, vec![Job::exact(0, 3, 4, 42)]);
    assert_planner_equivalence(&trivial);
}
