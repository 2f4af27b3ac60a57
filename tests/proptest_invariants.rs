//! Property-based tests over the core data structures and the solver
//! stack, cross-checking the invariants DESIGN.md §5 calls out.

use dynp_rs::milp::timeindex::TimeIndexedModel;
use dynp_rs::milp::{self, solve_mip, BranchLimits, Milp, MipStatus, Sense, TimeScaling};
use dynp_rs::platform::{MachineHistory, ResourceProfile};
use dynp_rs::prelude::*;
use dynp_rs::trace::swf;
use proptest::prelude::*;

/// Strategy: a small job set on a machine of the given capacity.
fn jobs_strategy(capacity: u32, max_jobs: usize) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec((1..=capacity, 1u64..5000, 0u64..2000), 1..=max_jobs).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (width, duration, submit))| Job::exact(i as u32, submit, width, duration))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn planner_produces_valid_schedules_for_all_policies(
        jobs in jobs_strategy(16, 12),
        running in running_strategy(16),
    ) {
        let now = 2000u64;
        let history = MachineHistory::build(16, now, &running);
        let problem = SchedulingProblem::new(now, history, jobs);
        for policy in Policy::ALL {
            let schedule = plan(&problem, policy).unwrap();
            prop_assert!(schedule.validate(&problem).is_ok(),
                "{policy} invalid: {:?}", schedule.validate(&problem));
        }
    }

    #[test]
    fn machine_history_is_monotone_and_drains(
        running in running_strategy(64),
    ) {
        let h = MachineHistory::build(64, 1000, &running);
        h.check_invariants().unwrap();
        prop_assert_eq!(h.free_at(h.drained_at()), 64);
    }

    #[test]
    fn profile_allocation_roundtrip(
        allocs in prop::collection::vec((0u64..500, 1u64..200, 1u32..8), 1..12),
    ) {
        let mut p = ResourceProfile::new(64);
        let mut applied = Vec::new();
        for (start, len, width) in allocs {
            let end = start + len;
            if p.min_free(start, end) >= width {
                p.allocate(start, end, width);
                applied.push((start, end, width));
            }
        }
        p.check_invariants().unwrap();
        // Every breakpoint holds the capacity minus what was allocated
        // over it, and the machine is fully free after the last window.
        for &(time, free) in p.steps() {
            let taken: u32 = applied
                .iter()
                .filter(|&&(start, end, _)| start <= time && time < end)
                .map(|&(_, _, width)| width)
                .sum();
            prop_assert_eq!(free, 64 - taken, "free at {}", time);
        }
        prop_assert_eq!(p.free_at(10_000), 64);
    }

    #[test]
    fn earliest_fit_is_earliest_and_feasible(
        allocs in prop::collection::vec((0u64..300, 1u64..100, 1u32..16), 0..8),
        width in 1u32..16,
        duration in 1u64..100,
        from in 0u64..200,
    ) {
        let mut p = ResourceProfile::new(16);
        for (start, len, w) in allocs {
            let end = start + len;
            if p.min_free(start, end) >= w {
                p.allocate(start, end, w);
            }
        }
        let t = p.earliest_fit(from, duration, width).expect("must fit eventually");
        prop_assert!(t >= from);
        prop_assert!(p.fits(t, duration, width));
        // Earliestness: check a scatter of earlier instants don't fit.
        for probe in (from..t).rev().take(50) {
            prop_assert!(!p.fits(probe, duration, width),
                "job fits at {probe} < chosen {t}");
        }
    }

    #[test]
    fn swf_roundtrip_preserves_jobs(jobs in jobs_strategy(430, 20)) {
        let text = swf::swf_to_string(&jobs, 430);
        let parsed = swf::parse_swf(&text).unwrap();
        prop_assert_eq!(parsed.machine_size(), 430);
        prop_assert_eq!(parsed.jobs, jobs);
    }

    #[test]
    fn metrics_are_finite_and_directionally_consistent(
        jobs in jobs_strategy(16, 10),
    ) {
        let problem = SchedulingProblem::on_empty_machine(2000, 16, jobs);
        for policy in Policy::PAPER_SET {
            let s = plan(&problem, policy).unwrap();
            for m in [Metric::ArtwW, Metric::SldwA, Metric::Art, Metric::AvgWait,
                      Metric::AvgSlowdown, Metric::Utilization, Metric::Makespan] {
                let v = m.eval(&problem, &s);
                prop_assert!(v.is_finite());
                prop_assert!(v >= 0.0);
            }
            // Slowdown is at least 1, response at least the mean duration.
            prop_assert!(Metric::AvgSlowdown.eval(&problem, &s) >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn lp_relaxation_bounds_the_integer_optimum(
        values in prop::collection::vec(0u32..30, 2..7),
        weights in prop::collection::vec(1u32..9, 2..7),
        cap in 1u32..25,
    ) {
        let n = values.len().min(weights.len());
        let c: Vec<f64> = values[..n].iter().map(|&v| -(v as f64)).collect();
        let w: Vec<f64> = weights[..n].iter().map(|&x| x as f64).collect();
        let model = Milp::binary(
            c,
            milp::sparse::CscMatrix::from_dense(std::slice::from_ref(&w)),
            vec![Sense::Le],
            vec![cap as f64],
        );
        let start = milp::LpStart::Cold;
        let (lp, _) = milp::solve_lp(&model, &model.lower, &model.upper, start, 100_000);
        let lp_obj = lp.optimal().expect("knapsack LP solvable").objective;
        let mip = solve_mip(&model, BranchLimits::default());
        prop_assert_eq!(mip.status, MipStatus::Optimal);
        let mip_obj = mip.objective.unwrap();
        // Relaxation bound and brute force agreement.
        prop_assert!(lp_obj <= mip_obj + 1e-6);
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n).map(|j| ((mask >> j) & 1) as f64).collect();
            if model.check_feasible(&x, 1e-9).is_ok() {
                best = best.min(model.objective_value(&x));
            }
        }
        prop_assert!((mip_obj - best).abs() < 1e-6);
    }

    #[test]
    fn ilp_slot_optimum_beats_greedy_and_compaction_never_delays(
        jobs in jobs_strategy(8, 5),
    ) {
        // Normalize submits to 0 so the snapshot is internally consistent.
        let jobs: Vec<Job> = jobs.into_iter()
            .map(|j| Job { submit: 0, ..j })
            .collect();
        let problem = SchedulingProblem::on_empty_machine(0, 8, jobs);
        let ti = TimeIndexedModel::build(
            &problem, TimeScaling::fixed(600), problem.naive_horizon());
        let sol = solve_mip(&ti.model, BranchLimits {
            max_nodes: 3000, ..BranchLimits::default()
        });
        prop_assume!(sol.status == MipStatus::Optimal);
        let x = sol.x.unwrap();
        // Optimal slot objective is no worse than the greedy placement.
        let order: Vec<usize> = (0..problem.jobs.len()).collect();
        let greedy = ti.greedy_solution(&order).unwrap();
        prop_assert!(sol.objective.unwrap()
            <= ti.model.objective_value(&greedy) + 1e-6);
        // Compaction never delays any job past its slot-grid start.
        let slot_schedule = ti.slot_schedule(&x, &problem);
        let compacted = milp::compact(&problem, &ti.start_order(&x)).unwrap();
        compacted.validate(&problem).unwrap();
        for e in slot_schedule.entries() {
            prop_assert!(compacted.start_of(e.id).unwrap() <= e.start);
        }
    }

    #[test]
    fn queue_rms_completes_and_easy_only_helps(
        jobs in jobs_strategy(16, 20),
    ) {
        use dynp_rs::sim::{simulate_queue, QueueDiscipline};
        let (plain, b0) = simulate_queue(&jobs, 16, Policy::Fcfs, QueueDiscipline::Plain);
        let (easy, _b1) =
            simulate_queue(&jobs, 16, Policy::Fcfs, QueueDiscipline::EasyBackfill);
        prop_assert_eq!(b0, 0);
        prop_assert_eq!(plain.len(), jobs.len());
        prop_assert_eq!(easy.len(), jobs.len());
        // Per-job sanity under both disciplines. (EASY usually reduces the
        // total wait, but that is a statistical effect, not an invariant —
        // the deterministic comparison lives in the queueing unit tests.)
        for r in plain.iter().chain(easy.iter()) {
            prop_assert!(r.start >= r.submit);
            prop_assert!(r.end > r.start);
        }
    }

    #[test]
    fn admitted_reservations_are_never_overlapped(
        jobs in jobs_strategy(16, 8),
        req_width in 1u32..=16,
        req_duration in 1u64..2000,
        earliest in 0u64..3000,
    ) {
        use dynp_rs::sched::{admit, AdmissionRule, ReservationRequest};
        let mut problem = SchedulingProblem::on_empty_machine(2000, 16, jobs);
        let granted = admit(
            &problem,
            AdmissionRule::AroundPlannedJobs(Policy::Fcfs),
            ReservationRequest { width: req_width, duration: req_duration, earliest },
        ).expect("fits the machine");
        prop_assert!(granted.start >= earliest.max(problem.now));
        problem.reservations.push(granted);
        problem.validate().unwrap();
        // Re-planning with any policy must route around the reservation.
        for policy in Policy::PAPER_SET {
            let s = plan(&problem, policy).unwrap();
            prop_assert!(s.validate(&problem).is_ok());
            if granted.width == 16 {
                // Full-machine reservation: nothing may overlap it.
                for e in s.entries() {
                    prop_assert!(e.end <= granted.start || e.start >= granted.end);
                }
            }
        }
    }

    #[test]
    fn simulation_is_deterministic_and_complete(
        jobs in jobs_strategy(16, 15),
    ) {
        let a = simulate(&jobs, FixedPolicy(Policy::Sjf), SimConfig::new(16));
        let b = simulate(&jobs, FixedPolicy(Policy::Sjf), SimConfig::new(16));
        prop_assert_eq!(a.records.len(), jobs.len());
        prop_assert_eq!(a.records, b.records);
    }

    #[test]
    fn deciders_always_return_an_evaluated_policy(
        values in prop::collection::vec(0.1f64..100.0, 3),
        incumbent_idx in 0usize..3,
    ) {
        let evals: Vec<(Policy, f64)> = Policy::PAPER_SET
            .iter().copied().zip(values.iter().copied()).collect();
        let incumbent = Policy::PAPER_SET[incumbent_idx];
        for decider in [Decider::Simple, Decider::Advanced,
                        Decider::Sticky { margin: 0.1 }] {
            let chosen = decider.decide(Metric::SldwA, &evals, incumbent);
            prop_assert!(Policy::PAPER_SET.contains(&chosen));
            // The chosen policy is never strictly worse than the incumbent.
            let val = |p: Policy| evals.iter().find(|(q, _)| *q == p).unwrap().1;
            prop_assert!(val(chosen) <= val(incumbent) + 1e-12);
        }
    }
}
