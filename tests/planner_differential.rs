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
//!
//! The second half gates the completion path: a finished job plans only
//! the **dispatch frontier** (`plan_frontier`) and `Rms::plan()` is
//! derived on read afterwards, and both must agree with the full plan —
//! the same jobs started in the same order, the same starts for the
//! jobs left waiting — on the CTC snapshots, on generated snapshots, and
//! at every completion of a bursty replay through the kernel itself.
//! These properties take the default case count, so `PROPTEST_CASES`
//! scales them (CI runs 256 in release).

use dynp_rs::platform::RunningJob;
use dynp_rs::prelude::*;
use dynp_rs::sched::{
    plan, plan_frontier, plan_with_profile, PlanError, Reservation, ScheduleEntry,
};
use dynp_rs::sim::{Rms, SnapshotFilter, Step};
use proptest::prelude::*;

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
/// policy — the advanced decider's pick over the reference metric values.
/// A policy the step planned in full reports its reference value to the
/// bit; a cut one reports a bound at or below its reference value and
/// above the best.
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
    let reference: Vec<(Policy, f64)> = Policy::PAPER_SET
        .iter()
        .map(|&policy| {
            let value = Metric::SldwA.eval(problem, &plan_reference(problem, policy));
            (policy, value)
        })
        .collect();
    assert_eq!(
        out.chosen,
        Decider::Advanced.decide(Metric::SldwA, &reference, Policy::PAPER_SET[0]),
        "SelfTuning::step did not choose what the advanced decider picks"
    );
    let best = reference
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::INFINITY, f64::min);
    for (&(policy, value), &(_, reference_value)) in out.evaluations.iter().zip(&reference) {
        if out.cut.iter().any(|&(cut, _)| cut == policy) {
            assert!(
                value <= reference_value && value > best,
                "{policy:?}: bound {value} not in (best {best}, value {reference_value}]"
            );
        } else {
            // Bitwise equality: also holds for NaN (a zero-estimate job
            // makes slowdown divide by zero in both implementations
            // identically).
            assert_eq!(
                value.to_bits(),
                reference_value.to_bits(),
                "{policy:?}: evaluation differs from reference ({value} vs {reference_value})"
            );
        }
    }
}

/// Snapshots of synthetic CTC runs over several machine sizes and seeds,
/// taken at every self-tuning step with at least one waiting job.
fn synthetic_ctc_snapshots() -> Vec<SchedulingProblem> {
    let mut problems = Vec::new();
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
                ..SnapshotFilter::default()
            }),
        );
        assert!(
            !run.snapshots.is_empty(),
            "trace (n={n_jobs}, seed={seed}) produced no snapshots"
        );
        problems.extend(run.snapshots.into_iter().take(40).map(|snap| snap.problem));
    }
    problems
}

#[test]
fn synthetic_ctc_snapshots_plan_bit_identically() {
    for problem in synthetic_ctc_snapshots() {
        assert_planner_equivalence(&problem);
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

// ---------------------------------------------------------------------
// Completions: dispatch frontier ≡ full plan, derived plan ≡ full plan.
// ---------------------------------------------------------------------

/// The entries of `schedule` that start at `now`, in plan order.
fn due(schedule: &Schedule, now: u64) -> Vec<ScheduleEntry> {
    let at_now = schedule.entries().iter().filter(|e| e.start == now);
    at_now.copied().collect()
}

/// What `complete` must do when the kernel sees `problem` under
/// `policy`: the dispatches (ids with actual ends, in plan order) and the
/// plan of the jobs left waiting — both read off the full plan.
fn expected_completion(
    problem: &SchedulingProblem,
    policy: Policy,
) -> (Vec<(JobId, u64)>, Vec<ScheduleEntry>) {
    let full = plan(problem, policy).expect("plannable snapshot");
    let (mut dispatched, mut left) = (Vec::new(), Vec::new());
    for entry in full.entries() {
        if entry.start == problem.now {
            let job = problem.jobs.iter().find(|j| j.id == entry.id).unwrap();
            dispatched.push((job.id, problem.now + job.effective_duration()));
        } else {
            left.push(*entry);
        }
    }
    (dispatched, left)
}

/// Planner level: the frontier pass is a prefix of the full plan, entry
/// for entry, and holds every entry the full plan starts at `now`.
/// Kernel level (snapshots without reservations, which the RMS does not
/// carry): an `Rms` whose completion sees exactly this snapshot starts
/// those jobs and then derives the full plan of the rest.
fn assert_completion_equivalence(problem: &SchedulingProblem, policy: Policy) {
    let now = problem.now;
    let full = plan(problem, policy).expect("plannable snapshot");
    let frontier = plan_frontier(problem, &policy.order(&problem.jobs)).expect("plannable");
    assert_eq!(
        frontier.entries(),
        &full.entries()[..frontier.len()],
        "{policy:?}: the frontier pass placed something the full pass does not"
    );
    assert_eq!(
        due(&frontier, now),
        due(&full, now),
        "{policy:?}: the frontier pass stopped before the last job due at now={now}"
    );
    let points = problem.history.points();
    let free_now = points[0].free;
    if free_now == 0 {
        assert!(
            frontier.is_empty(),
            "{policy:?}: placed jobs on a full machine"
        );
    }
    if free_now == 0 || !problem.reservations.is_empty() {
        return;
    }

    // The machine before the completion: one running job per history
    // step, plus the finishing job on everything free at `now` — so
    // nothing can start at the restore, and its completion leaves the
    // kernel looking at exactly `problem`.
    let finishing = Job::new(u32::MAX, 0, free_now, now + 1, now);
    let mut running = vec![RunningJob {
        job: finishing,
        start: 0,
    }];
    for (k, step) in points.windows(2).enumerate() {
        let width = step[1].free - step[0].free;
        running.push(RunningJob {
            job: Job::exact(u32::MAX - 1 - k as u32, 0, width, step[1].time),
            start: 0,
        });
    }
    let mut rms = Rms::restore(
        problem.capacity(),
        FixedPolicy(policy),
        now,
        policy,
        problem.jobs.clone(),
        running,
        Vec::new(),
    )
    .expect("restorable state");
    assert_eq!(
        rms.waiting(),
        problem.jobs,
        "nothing starts on a full machine"
    );

    let (dispatched, left) = expected_completion(problem, policy);
    assert_eq!(
        rms.complete_next(now, false),
        Some((
            now,
            finishing.id,
            Step {
                tuned: None,
                installed: true,
                dispatched,
                declined: Vec::new(),
            }
        )),
        "{policy:?} at now={now}"
    );
    assert_eq!(
        rms.plan().entries(),
        left,
        "{policy:?}: derived plan at now={now}"
    );
}

#[test]
fn completions_on_ctc_snapshots_match_the_full_plan() {
    for problem in synthetic_ctc_snapshots() {
        for policy in Policy::ALL {
            assert_completion_equivalence(&problem, policy);
        }
    }
}

#[test]
fn completions_on_edge_snapshots_match_the_full_plan() {
    // Off-grid releases, a zero-estimate job (reserved one second by the
    // planner, released at `now + 1` by the history once it runs), and
    // the same snapshot under a reservation (planner level only).
    let history = MachineHistory::build(16, 100, &[(7, 290), (4, 1333), (2, 505)]);
    let mut problem = SchedulingProblem::new(
        100,
        history,
        vec![
            Job::exact(0, 40, 9, 600),
            Job::exact(1, 80, 16, 50),
            Job::exact(2, 90, 1, 10_000),
            Job::exact(3, 95, 5, 1),
            Job::new(4, 99, 2, 0, 0),
            Job::exact(5, 99, 1, 150),
        ],
    );
    for policy in Policy::ALL {
        assert_completion_equivalence(&problem, policy);
    }
    problem.reservations.push(Reservation {
        id: 0,
        start: 120,
        end: 2000,
        width: 2,
    });
    for policy in Policy::ALL {
        assert_completion_equivalence(&problem, policy);
    }

    // A narrow job that fits by width but not for its window (job 0's
    // reservation of the whole machine at 1000 cuts it), with a job
    // behind it that does start now: the stop test must look at windows,
    // and must not stop at the first job that cannot start.
    let history = MachineHistory::build(8, 0, &[(6, 1000)]);
    let windowed = SchedulingProblem::new(
        0,
        history,
        vec![
            Job::exact(0, 0, 8, 100),
            Job::exact(1, 0, 2, 5000),
            Job::exact(2, 0, 1, 50),
        ],
    );
    assert_eq!(
        due(&plan(&windowed, Policy::Fcfs).unwrap(), 0)[0].id,
        JobId(2)
    );
    for policy in Policy::ALL {
        assert_completion_equivalence(&windowed, policy);
    }
}

/// Strategy: a small job set on a machine of the given capacity (as in
/// `tests/proptest_invariants.rs`, plus zero estimates and early ends).
fn jobs_strategy(capacity: u32, max_jobs: usize) -> impl Strategy<Value = Vec<Job>> {
    let spec = (1..=capacity, 0u64..5000, 0u64..2000, 0u64..5000);
    prop::collection::vec(spec, 1..=max_jobs).prop_map(|specs| {
        let jobs = specs.into_iter().enumerate();
        jobs.map(|(i, (width, estimate, submit, actual))| {
            Job::new(i as u32, submit, width, estimate, actual)
        })
        .collect()
    })
}

/// Strategy: a running set (width, estimated end) that fits the machine.
fn running_strategy(capacity: u32) -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec((1..=capacity.max(2) / 2, 2001u64..9000), 0..4).prop_map(
        move |mut set| {
            // Trim so the widths fit.
            let mut used = 0u32;
            set.retain(|&(w, _)| {
                if used + w <= capacity {
                    used += w;
                    true
                } else {
                    false
                }
            });
            set
        },
    )
}

/// Strategy: a deep queue of 200–800 jobs, each one of two to five
/// (width, estimate) shapes, submitted by `now` = 2000 — so most jobs
/// share a shape with one of the last placements and the planner starts
/// their fits at a bound instead of at `now`.
fn deep_queue_strategy(capacity: u32) -> impl Strategy<Value = Vec<Job>> {
    let shapes = prop::collection::vec((1..=capacity, 0u64..4000), 2..=5);
    let picks = prop::collection::vec((0usize..5, 0u64..=2000), 200..=800);
    (shapes, picks).prop_map(|(shapes, picks)| {
        let jobs = picks.into_iter().enumerate();
        jobs.map(|(i, (k, submit))| {
            let (width, estimate) = shapes[k % shapes.len()];
            Job::new(i as u32, submit, width, estimate, estimate / 2)
        })
        .collect()
    })
}

proptest! {
    /// Deep queues of repeated shapes over a busy machine: every policy's
    /// full plan, the tuning step and every frontier pass against the
    /// reference planner, which scans every fit from `now`.
    #[test]
    fn deep_queues_of_repeated_shapes_plan_like_the_scan_from_now(
        jobs in deep_queue_strategy(64),
        running in running_strategy(64),
    ) {
        let now = 2000u64;
        let history = MachineHistory::build(64, now, &running);
        let problem = SchedulingProblem::new(now, history, jobs);
        assert_planner_equivalence(&problem);
        for policy in Policy::ALL {
            let reference = plan_reference(&problem, policy);
            let order = policy.order(&problem.jobs);
            let frontier = plan_frontier(&problem, &order).expect("plannable snapshot");
            prop_assert_eq!(frontier.entries(), &reference.entries()[..frontier.len()]);
            prop_assert_eq!(due(&frontier, now), due(&reference, now));
        }
    }

    #[test]
    fn completions_on_generated_snapshots_match_the_full_plan(
        jobs in jobs_strategy(16, 24),
        running in running_strategy(16),
        policy in 0usize..Policy::ALL.len(),
    ) {
        let now = 2000u64;
        let history = MachineHistory::build(16, now, &running);
        let problem = SchedulingProblem::new(now, history, jobs);
        assert_completion_equivalence(&problem, Policy::ALL[policy]);
    }

    /// `Policy::order` sorts unstably; every comparator ends in the job
    /// id, so it must return exactly what the stable sort returns — also
    /// on queues full of ties.
    #[test]
    fn unstable_policy_order_equals_the_stable_sort(
        specs in prop::collection::vec((1u32..4, 1u64..4, 0u64..3), 1..40),
    ) {
        let jobs: Vec<Job> = (0u32..)
            .zip(specs)
            .map(|(id, (width, duration, submit))| Job::exact(id, submit, width, duration))
            .collect();
        for policy in Policy::ALL {
            let mut stable = jobs.clone();
            stable.sort_by(|a, b| policy.compare(a, b));
            prop_assert_eq!(policy.order(&jobs), stable, "{:?}", policy);
        }
    }
}

// ---------------------------------------------------------------------
// The pruned tuning step ≡ the exhaustive one.
// ---------------------------------------------------------------------

/// What the exhaustive step decides: the chosen policy, its plan, and
/// every policy's value in enumeration order.
struct Exhaustive {
    chosen: Policy,
    schedule: Schedule,
    evaluations: Vec<(Policy, f64)>,
}

/// The self-tuning step as the paper states it: every policy planned in
/// full, in enumeration order, evaluated with `Metric::eval` and decided
/// over those values; or the first plan's error.
fn exhaustive_step(
    problem: &SchedulingProblem,
    policies: &[Policy],
    metric: Metric,
    decider: Decider,
    incumbent: Policy,
) -> Result<Exhaustive, PlanError> {
    let profile = problem.availability_profile();
    let mut evaluations = Vec::new();
    let mut schedules = Vec::new();
    for &policy in policies {
        let schedule = plan_with_profile(problem, policy, &profile)?;
        evaluations.push((policy, metric.eval(problem, &schedule)));
        schedules.push(schedule);
    }
    let chosen = decider.decide(metric, &evaluations, incumbent);
    let idx = policies.iter().position(|&p| p == chosen).unwrap();
    Ok(Exhaustive {
        chosen,
        schedule: schedules.swap_remove(idx),
        evaluations,
    })
}

/// Strategy: `jobs` jobs drawn from two to five (width, estimate) shapes —
/// one estimate in six zero, widths up to 32 — submitted up to 3 000 s
/// before `now` (`submit` holds the wait until the caller subtracts it),
/// and in one snapshot of eight a job of width 33, wider than any machine
/// drawn.
fn pruning_jobs_strategy(jobs: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<Job>> {
    let estimate = (0u64..6, 1u64..3000).prop_map(|(pick, e)| if pick == 0 { 0 } else { e });
    let shapes = prop::collection::vec((1u32..=32, estimate), 2..=5);
    let picks = prop::collection::vec((0usize..5, 0u64..=3000), jobs);
    let wide = (0u32..8, 0usize..usize::MAX);
    (shapes, picks, wide).prop_map(|(shapes, picks, (wide, at))| {
        let mut jobs: Vec<Job> = (0u32..)
            .zip(picks)
            .map(|(id, (k, waited))| {
                let (width, estimate) = shapes[k % shapes.len()];
                Job::new(id, waited, width, estimate, estimate / 2)
            })
            .collect();
        if wide == 0 {
            let at = at % jobs.len();
            jobs[at].width = 33;
        }
        jobs
    })
}

/// Every metric, SLDwA and ARTwW three times as often as the others.
const PRUNING_METRICS: [Metric; 11] = [
    Metric::SldwA,
    Metric::SldwA,
    Metric::SldwA,
    Metric::ArtwW,
    Metric::ArtwW,
    Metric::ArtwW,
    Metric::Art,
    Metric::AvgWait,
    Metric::AvgSlowdown,
    Metric::Makespan,
    Metric::Utilization,
];

const PRUNING_DECIDERS: [Decider; 3] = [
    Decider::Simple,
    Decider::Advanced,
    Decider::Sticky { margin: 0.1 },
];

/// Runs one tuning step both ways on a snapshot of `jobs` on `capacity`
/// resources at `now`, and requires the pruned step to return what the
/// exhaustive step returns: the chosen policy and its plan to the bit,
/// every complete value to the bit and every cut value in (best, exact],
/// or the same `PlanError` with the tuner untouched.
#[allow(clippy::too_many_arguments)]
fn prune_as_the_exhaustive_step(
    capacity: u32,
    jobs: Vec<Job>,
    running: Vec<(u32, u64)>,
    now: u64,
    metric: usize,
    decider: usize,
    full_set: u32,
    incumbent: usize,
) -> Result<(), TestCaseError> {
    let (metric, decider) = (PRUNING_METRICS[metric], PRUNING_DECIDERS[decider]);
    // Fit the jobs and the running set to this machine; the job drawn
    // wider than its own capacity stays wider than this one.
    let jobs: Vec<Job> = jobs
        .into_iter()
        .map(|job| Job {
            width: if job.width > 32 {
                capacity + 1
            } else {
                1 + (job.width - 1) % capacity
            },
            submit: now - job.submit,
            ..job
        })
        .collect();
    let mut room = capacity;
    let running: Vec<(u32, u64)> = running
        .into_iter()
        .filter(|&(width, _)| {
            width <= room && {
                room -= width;
                true
            }
        })
        .map(|(width, end)| (width, now.saturating_add(end - 2000)))
        .filter(|&(_, end)| end > now)
        .collect();
    let history = MachineHistory::build(capacity, now, &running);
    let problem = SchedulingProblem::new(now, history, jobs);
    let policies: &[Policy] = if full_set == 1 {
        &Policy::ALL
    } else {
        &Policy::PAPER_SET
    };
    let incumbent = policies[incumbent % policies.len()];

    let mut tuner = SelfTuning::new(policies.to_vec(), metric, decider);
    prop_assert!(tuner.restore_active(incumbent));
    let expected = exhaustive_step(&problem, policies, metric, decider, incumbent);
    match (tuner.step(&problem), expected) {
        (Ok(out), Ok(want)) => {
            prop_assert_eq!(out.chosen, want.chosen);
            prop_assert_eq!(&out.schedule, &want.schedule);
            prop_assert_eq!(tuner.active(), want.chosen);
            let reference = want.evaluations;
            let best = reference
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::INFINITY, f64::min);
            for (&(policy, value), &(_, exact)) in out.evaluations.iter().zip(&reference) {
                match out.cut.iter().find(|&&(cut, _)| cut == policy) {
                    Some(&(_, placed)) => {
                        prop_assert!(
                            value <= exact && value > best,
                            "{:?}: {} vs {}",
                            policy,
                            value,
                            exact
                        );
                        prop_assert!(
                            placed < problem.len(),
                            "{:?} cut after all {}",
                            policy,
                            placed
                        );
                    }
                    None => prop_assert_eq!(value.to_bits(), exact.to_bits(), "{:?}", policy),
                }
            }
        }
        (Err(got), Err(want)) => {
            prop_assert_eq!(got, want);
            prop_assert_eq!(tuner.active(), incumbent);
            prop_assert_eq!(tuner.stats().steps(), 0);
        }
        (got, want) => prop_assert!(
            false,
            "step {:?} but the exhaustive step {:?}",
            got.map(|out| out.chosen),
            want.map(|want| want.chosen)
        ),
    }
    Ok(())
}

proptest! {
    /// The pruned step returns what the exhaustive step returns for every
    /// decider, random incumbents, the paper's and the full policy set,
    /// every metric (mostly SLDwA and ARTwW), zero estimates, jobs wider
    /// than the machine, and `now` near the end of the `u64` time axis,
    /// where some plans run past it.
    #[test]
    fn the_pruned_step_decides_as_the_exhaustive_one(
        capacity in 1u32..=32,
        jobs in pruning_jobs_strategy(1..=40),
        running in running_strategy(32),
        // One `now` in four within 200 000 s of the end of the axis.
        now in (0u32..4, 0u64..200_000)
            .prop_map(|(pick, t)| if pick == 0 { u64::MAX - t } else { 3000 + t }),
        metric in 0usize..PRUNING_METRICS.len(),
        decider in 0usize..PRUNING_DECIDERS.len(),
        full_set in 0u32..2,
        incumbent in 0usize..5,
    ) {
        prune_as_the_exhaustive_step(capacity, jobs, running, now, metric, decider, full_set, incumbent)?;
    }

    /// The same on queues of 128–256 jobs, where the bound checks its
    /// fluid completion during a pass. One `now` in four lies within
    /// 4·10⁶ s of the end of the axis: the queue's planned work, up to
    /// 7.7·10⁵ s, then fits before it in most of those snapshots, so the
    /// fluid cut runs there too.
    #[test]
    fn the_pruned_step_decides_as_the_exhaustive_one_on_deep_queues(
        capacity in 1u32..=32,
        jobs in pruning_jobs_strategy(128..=256),
        running in running_strategy(32),
        now in (0u32..4, 0u64..4_000_000)
            .prop_map(|(pick, t)| if pick == 0 { u64::MAX - t } else { 3000 + t % 200_000 }),
        metric in 0usize..PRUNING_METRICS.len(),
        decider in 0usize..PRUNING_DECIDERS.len(),
        full_set in 0u32..2,
        incumbent in 0usize..5,
    ) {
        prune_as_the_exhaustive_step(capacity, jobs, running, now, metric, decider, full_set, incumbent)?;
    }
}

/// Replays `jobs` (sorted by submit) through `rms` with the kernel's own
/// loop — no second kernel: before each completion the expected dispatch
/// and the expected derived plan are computed from the public accessors.
/// Returns how many completions found jobs waiting.
fn replay_checking_completions<S: PolicySelector>(
    rms: &mut Rms<S>,
    jobs: &[Job],
    active: impl Fn(&Rms<S>) -> Policy,
) -> usize {
    let capacity = rms.machine().capacity();
    let mut checked = 0;
    for job in jobs.iter().map(Some).chain([None]) {
        let due_by = job.map_or(u64::MAX, |j| j.submit);
        while let Some((now, id)) = rms
            .machine()
            .next_completion()
            .filter(|&(end, _)| end <= due_by)
        {
            let running: Vec<(u32, u64)> = rms
                .machine()
                .running()
                .iter()
                .filter(|r| r.job.id != id)
                .map(|r| (r.job.width, r.estimated_end()))
                .collect();
            let history = MachineHistory::build(capacity, now, &running);
            let problem = SchedulingProblem::new(now, history, rms.waiting().to_vec());
            let policy = active(rms);
            let (dispatched, left) = expected_completion(&problem, policy);
            let installed = !problem.jobs.is_empty();
            checked += usize::from(installed);
            assert_eq!(
                rms.complete_next(due_by, false),
                Some((
                    now,
                    id,
                    Step {
                        tuned: None,
                        installed,
                        dispatched,
                        declined: Vec::new()
                    }
                )),
                "completion of {id} at {now} under {policy:?}"
            );
            assert_eq!(
                rms.plan().entries(),
                left,
                "derived plan after {id} at {now}"
            );
        }
        if let Some(job) = job {
            rms.submit(job.submit, [*job]);
        }
    }
    assert!(rms.waiting().is_empty() && rms.machine().running().is_empty());
    checked
}

/// Bursts of eight jobs every 300 s on 16 nodes, most ending well before
/// their estimate (so completions pull waiting jobs forward), with
/// zero-estimate jobs mixed in.
fn bursty_trace() -> Vec<Job> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    (0..160u32)
        .map(|id| {
            let estimate = if id % 37 == 5 { 0 } else { 30 + next(900) };
            let actual = estimate * (1 + next(4)) / 4;
            Job::new(
                id,
                u64::from(id / 8) * 300,
                1 + next(12) as u32,
                estimate,
                actual,
            )
        })
        .collect()
}

#[test]
fn kernel_completions_match_the_full_plan_on_a_bursty_trace() {
    let jobs = bursty_trace();
    for policy in Policy::ALL {
        let mut rms = Rms::new(16, FixedPolicy(policy), SnapshotLog::disabled());
        let checked = replay_checking_completions(&mut rms, &jobs, |_| policy);
        assert!(
            checked > 50,
            "{policy:?}: only {checked} completions found a queue"
        );
    }
    let tuner = SelfTuning::paper_config(Metric::SldwA);
    let mut rms = Rms::new(16, tuner, SnapshotLog::disabled());
    let checked = replay_checking_completions(&mut rms, &jobs, |rms| rms.selector().active());
    assert!(
        checked > 50,
        "dynP: only {checked} completions found a queue"
    );
    assert!(
        rms.selector().stats().switches() > 0,
        "the replay never switched policy"
    );
}
