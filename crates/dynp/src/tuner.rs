//! The self-tuning step: evaluate every policy's full schedule, decide,
//! switch.
//!
//! "The self-tuning dynP scheduler computes full schedules for each
//! available policy … These schedules are evaluated by means of a
//! performance metrics. Thereby, the performance of each policy is
//! expressed by a single value. These values are compared and a decider
//! mechanism chooses the best policy." (§2)
//!
//! The step plans the incumbent policy in full first, then each other
//! policy only until a [`dynp_sched::LowerBound`] on its metric — the
//! exact terms of the jobs placed so far, every unplaced job's term at
//! `now` — exceeds the best complete value so far. On a queue of 128 jobs
//! or more the bound also pours the unplaced jobs' areas into the
//! capacity the placed ones left free, every `max(32, n/16)` placements,
//! so a challenger is cut once the capacity its placed jobs took pushes
//! the rest of its queue past the best value; its fill order is sorted
//! once per step. The decider picks the same policy as over every full
//! plan's value:
//!
//! * a cut policy's full plan is strictly worse than one that was planned
//!   in full, so it is never the best — the first minimal value — and the
//!   first minimal value is the same over the reported values, where the
//!   cut policy carries its bound;
//! * it is never the incumbent, which is always planned in full;
//! * `Simple`, `Advanced` and `Sticky` decide from those two values
//!   alone.
//!
//! Three guards keep every outcome as the exhaustive step's:
//!
//! * *Errors.* A plan is cut only when no plan of any order can fail
//!   ([`plans_cannot_fail`]). Otherwise every policy is planned in full in
//!   enumeration order, so an `Err` names the job it always named.
//! * *Finite terms.* Only metrics that are sums of per-job terms which do
//!   not decrease as the start moves later are bounded (SLDwA, ARTwW, ART,
//!   mean wait, mean slowdown), and only when every term is finite — a
//!   zero estimate makes a slowdown infinite or NaN ([`Metric::lower_bound`]).
//!   Makespan and utilization keep full plans.
//! * *Rounding.* The fluid completion is lowered by a margin above its own
//!   rounding, and the bound shrunk by a relative margin well above the
//!   rounding of both its own sum and [`Metric::eval`]'s, so it stays
//!   below the value `eval` would give the full plan.

use crate::decider::Decider;
use crate::stats::TuningStats;
use dynp_sched::{
    plan_ordered_below, plan_ordered_with_profile, plans_cannot_fail, Metric, PlanError, Policy,
    Schedule, SchedulingProblem,
};

/// Result of one self-tuning step.
#[derive(Clone, Debug)]
pub struct TuningOutcome {
    /// The policy active before the step.
    pub previous: Policy,
    /// The policy chosen by the decider.
    pub chosen: Policy,
    /// Whether the step switched policies.
    pub switched: bool,
    /// Per-policy metric values, in enumeration order. The entry of a
    /// policy in [`Self::cut`] is a lower bound on its value, strictly
    /// worse than the best value here.
    pub evaluations: Vec<(Policy, f64)>,
    /// The policies whose plan was given up once its lower bound proved
    /// it worse than the best complete value, in enumeration order, each
    /// with how many jobs its pass placed before the cut.
    pub cut: Vec<(Policy, usize)>,
    /// The full schedule planned under the chosen policy — the RMS installs
    /// exactly this plan, so callers never need to re-plan.
    pub schedule: Schedule,
}

/// The self-tuning dynP scheduler state.
#[derive(Clone, Debug)]
pub struct SelfTuning {
    policies: Vec<Policy>,
    metric: Metric,
    decider: Decider,
    active: Policy,
    stats: TuningStats,
}

impl SelfTuning {
    /// dynP over an explicit policy set. The first policy is the initial
    /// active one.
    ///
    /// # Panics
    /// Panics on an empty policy set.
    pub fn new(policies: Vec<Policy>, metric: Metric, decider: Decider) -> SelfTuning {
        assert!(!policies.is_empty(), "dynP needs at least one policy");
        let active = policies[0];
        SelfTuning {
            policies,
            metric,
            decider,
            active,
            stats: TuningStats::new(),
        }
    }

    /// The paper's configuration: FCFS/SJF/LJF, deciding by the given
    /// metric with the advanced decider.
    pub fn paper_config(metric: Metric) -> SelfTuning {
        SelfTuning::new(Policy::PAPER_SET.to_vec(), metric, Decider::Advanced)
    }

    /// Currently active policy.
    pub fn active(&self) -> Policy {
        self.active
    }

    /// Metric used for schedule evaluation.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The policy enumeration this instance tunes over.
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// The decider this instance compares evaluations with.
    pub fn decider(&self) -> Decider {
        self.decider
    }

    /// Restores the active policy from persisted state (the serve
    /// front-end snapshots it between restarts). Returns `false` — with
    /// the tuner untouched — when `policy` is not in the tuned set,
    /// which means the snapshot belongs to a different configuration.
    ///
    /// This is a plain state restore, not a tuning decision: statistics
    /// are not updated and no decision event is emitted.
    pub fn restore_active(&mut self, policy: Policy) -> bool {
        if !self.policies.contains(&policy) {
            return false;
        }
        self.active = policy;
        true
    }

    /// Accumulated switch statistics.
    pub fn stats(&self) -> &TuningStats {
        &self.stats
    }

    /// Executes one self-tuning step on a quasi-off-line snapshot: plans a
    /// full schedule per policy — or a challenger's only until its bound
    /// rules it out (module doc) — evaluates, decides, switches, and
    /// returns the chosen policy's schedule.
    ///
    /// An empty snapshot (no waiting jobs) performs no evaluation and keeps
    /// the active policy, mirroring a real RMS where there is nothing to
    /// re-order.
    ///
    /// An unplannable job in the snapshot (wider than the machine) surfaces
    /// as `Err(PlanError)` naming the job, with the tuner's state — active
    /// policy and statistics — untouched, so the caller can decline that
    /// job and step again. (This mirrors the earlier `admit()` fix: a
    /// malformed job is the *job's* defect, not grounds to kill the whole
    /// simulation cell.)
    pub fn step(&mut self, problem: &SchedulingProblem) -> Result<TuningOutcome, PlanError> {
        // Per-decision latency: the whole plan-evaluate-decide cycle runs
        // on every submission/completion, so this histogram is the
        // scheduler-overhead side of the paper's comparison. Traced: one
        // span close event per decision, correlated to the campaign cell.
        let _step_span = dynp_obs::span("dynp.step");
        let previous = self.active;
        if problem.is_empty() {
            return Ok(TuningOutcome {
                previous,
                chosen: previous,
                switched: false,
                evaluations: Vec::new(),
                cut: Vec::new(),
                schedule: Schedule::new(),
            });
        }
        // Build the availability profile once; every policy plans against
        // a clone of it, one after the other — the incumbent first, then
        // the rest in enumeration order (which is also the decider's
        // tie-breaking order). The plans are independent but cost
        // microseconds each — far less than handing them to threads
        // (DESIGN.md §4) — and a plain loop keeps `step` the same code
        // path on every host. Each policy's queue is ordered once; the
        // plan's entries come out in that order, so the metric pairs them
        // with their jobs by position. Without a bound nothing is cut and
        // the policies plan in enumeration order, so an error names the
        // job the first failing policy meets. The incumbent plans before
        // any complete value exists, so it needs no bound.
        let profile = problem.availability_profile();
        let bound = plans_cannot_fail(problem, &profile)
            .then(|| self.metric.lower_bound(problem))
            .flatten();
        let first = match bound {
            Some(_) => self
                .policies
                .iter()
                .position(|&p| p == previous)
                .expect("the active policy is tuned"),
            None => 0,
        };
        let mut evaluations: Vec<(Policy, f64)> =
            self.policies.iter().map(|&p| (p, f64::NAN)).collect();
        let mut schedules: Vec<Option<Schedule>> = self.policies.iter().map(|_| None).collect();
        let mut cut = Vec::new();
        // The best complete value so far; nothing is cut before one exists.
        let mut best = f64::INFINITY;
        let later = (0..self.policies.len()).filter(|&idx| idx != first);
        for idx in std::iter::once(first).chain(later) {
            let policy = self.policies[idx];
            let order = policy.order(&problem.jobs);
            let mut lower = bound.as_ref().filter(|_| best.is_finite()).cloned();
            let schedule = match &mut lower {
                Some(lower) => plan_ordered_below(problem, &order, &profile, lower, best)?,
                None => plan_ordered_with_profile(problem, &order, &profile)?,
            };
            if let Some(lower) = lower.filter(|_| schedule.len() < order.len()) {
                evaluations[idx].1 = lower.value();
                cut.push((policy, schedule.len()));
                continue;
            }
            let value = self.metric.eval_in_order(problem, &order, &schedule);
            best = best.min(value);
            evaluations[idx].1 = value;
            schedules[idx] = Some(schedule);
        }
        let chosen = self.decider.decide(self.metric, &evaluations, previous);
        let idx = self
            .policies
            .iter()
            .position(|&p| p == chosen)
            .expect("decider returned an evaluated policy");
        let schedule = schedules[idx]
            .take()
            .expect("the decider picks a policy planned in full");
        let switched = chosen != previous;
        self.active = chosen;
        self.stats.record(problem.now, previous, chosen);
        if let Some(r) = dynp_obs::recorder() {
            // One event per decision, carrying every policy's metric
            // estimate (the paper's three SLD values under FCFS/SJF/LJF)
            // and naming the policies whose estimate is a cut plan's bound.
            let mut estimates = dynp_obs::JsonValue::object();
            for (policy, value) in &evaluations {
                estimates.set(&format!("{policy:?}"), *value);
            }
            let mut bounds = dynp_obs::JsonValue::array();
            for (policy, _) in &cut {
                bounds.push(format!("{policy:?}"));
            }
            r.event("dynp.decision")
                .kv("sim_time", problem.now)
                .kv("jobs", problem.len())
                .kv("metric", format!("{:?}", self.metric))
                .kv("estimates", estimates)
                .kv("cut", bounds)
                .kv("previous", format!("{previous:?}"))
                .kv("chosen", format!("{chosen:?}"))
                .kv("switched", switched)
                .emit();
        }
        Ok(TuningOutcome {
            previous,
            chosen,
            switched,
            evaluations,
            cut,
            schedule,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_trace::Job;

    /// Snapshot where SJF clearly wins on SLDwA: one long and several short
    /// jobs competing for the same resources.
    fn sjf_friendly() -> SchedulingProblem {
        SchedulingProblem::on_empty_machine(
            0,
            4,
            vec![
                Job::exact(0, 0, 4, 10_000),
                Job::exact(1, 0, 4, 100),
                Job::exact(2, 0, 4, 100),
                Job::exact(3, 0, 4, 100),
            ],
        )
    }

    /// Snapshot where all policies coincide: a single job.
    fn trivial() -> SchedulingProblem {
        SchedulingProblem::on_empty_machine(0, 4, vec![Job::exact(0, 0, 2, 100)])
    }

    #[test]
    fn switches_to_sjf_when_it_wins() {
        let mut dynp = SelfTuning::paper_config(Metric::SldwA);
        assert_eq!(dynp.active(), Policy::Fcfs);
        let out = dynp.step(&sjf_friendly()).unwrap();
        assert_eq!(out.chosen, Policy::Sjf);
        assert!(out.switched);
        assert_eq!(dynp.active(), Policy::Sjf);
        // SJF's value must be the minimum of the evaluations.
        let sjf_val = out
            .evaluations
            .iter()
            .find(|(p, _)| *p == Policy::Sjf)
            .unwrap()
            .1;
        for &(_, v) in &out.evaluations {
            assert!(sjf_val <= v);
        }
    }

    #[test]
    fn advanced_decider_stays_on_ties() {
        let mut dynp =
            SelfTuning::new(Policy::PAPER_SET.to_vec(), Metric::SldwA, Decider::Advanced);
        // Move to SJF first.
        dynp.step(&sjf_friendly()).unwrap();
        assert_eq!(dynp.active(), Policy::Sjf);
        // On a trivial snapshot every policy ties; advanced stays with SJF.
        let out = dynp.step(&trivial()).unwrap();
        assert_eq!(out.chosen, Policy::Sjf);
        assert!(!out.switched);
    }

    #[test]
    fn simple_decider_flips_back_to_fcfs_on_ties() {
        let mut dynp = SelfTuning::new(Policy::PAPER_SET.to_vec(), Metric::SldwA, Decider::Simple);
        dynp.step(&sjf_friendly()).unwrap();
        assert_eq!(dynp.active(), Policy::Sjf);
        let out = dynp.step(&trivial()).unwrap();
        // The documented wrong decision: simple favours FCFS.
        assert_eq!(out.chosen, Policy::Fcfs);
        assert!(out.switched);
    }

    #[test]
    fn returned_schedule_is_the_chosen_policys_plan() {
        let mut dynp = SelfTuning::paper_config(Metric::SldwA);
        let problem = sjf_friendly();
        let out = dynp.step(&problem).unwrap();
        let expected = dynp_sched::plan(&problem, out.chosen).unwrap();
        assert_eq!(out.schedule, expected);
        out.schedule.validate(&problem).unwrap();
    }

    #[test]
    fn empty_snapshot_keeps_policy_and_plans_nothing() {
        let mut dynp = SelfTuning::paper_config(Metric::SldwA);
        let out = dynp
            .step(&SchedulingProblem::on_empty_machine(0, 4, vec![]))
            .unwrap();
        assert!(!out.switched);
        assert!(out.schedule.is_empty());
        assert!(out.evaluations.is_empty());
    }

    #[test]
    fn stats_count_steps_and_switches() {
        let mut dynp = SelfTuning::paper_config(Metric::SldwA);
        dynp.step(&sjf_friendly()).unwrap(); // FCFS -> SJF
        dynp.step(&trivial()).unwrap(); // stays (advanced)
        let s = dynp.stats();
        assert_eq!(s.steps(), 2);
        assert_eq!(s.switches(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one policy")]
    fn empty_policy_set_panics() {
        SelfTuning::new(vec![], Metric::SldwA, Decider::Simple);
    }

    #[test]
    fn restore_active_accepts_tuned_policies_only() {
        let mut dynp = SelfTuning::paper_config(Metric::SldwA);
        assert_eq!(dynp.active(), Policy::Fcfs);
        assert!(dynp.restore_active(Policy::Ljf));
        assert_eq!(dynp.active(), Policy::Ljf);
        // SAF is not in the paper set: refused, state untouched.
        assert!(!dynp.restore_active(Policy::Saf));
        assert_eq!(dynp.active(), Policy::Ljf);
        assert_eq!(dynp.stats().steps(), 0, "restore is not a tuning step");
        assert_eq!(dynp.decider(), Decider::Advanced);
    }

    /// A job wider than the machine inside the snapshot must surface as
    /// a typed error naming the job — not a panic — and leave the tuner
    /// exactly where it was, so the caller can decline the job and step
    /// again.
    #[test]
    fn unplannable_job_declines_without_mutating_state() {
        let mut dynp = SelfTuning::paper_config(Metric::SldwA);
        dynp.step(&sjf_friendly()).unwrap(); // FCFS -> SJF
        let steps_before = dynp.stats().steps();
        let bad = SchedulingProblem::on_empty_machine(
            100,
            4,
            vec![Job::exact(10, 100, 2, 50), Job::exact(11, 100, 9, 50)],
        );
        let err = dynp.step(&bad).unwrap_err();
        assert_eq!(
            err,
            PlanError::JobTooWide {
                id: dynp_trace::JobId(11),
                width: 9,
                capacity: 4
            }
        );
        assert_eq!(dynp.active(), Policy::Sjf, "active policy untouched");
        assert_eq!(dynp.stats().steps(), steps_before, "stats untouched");
        // After declining the offending job the tuner works again.
        let ok = SchedulingProblem::on_empty_machine(100, 4, vec![Job::exact(10, 100, 2, 50)]);
        dynp.step(&ok).unwrap();
    }

    #[test]
    fn challengers_worse_than_the_incumbent_are_cut_at_their_bound() {
        let problem = sjf_friendly();
        let mut dynp = SelfTuning::paper_config(Metric::SldwA);
        assert!(dynp.restore_active(Policy::Sjf));
        let out = dynp.step(&problem).unwrap();
        // FCFS and LJF both run the long job first: once the first short
        // job is placed behind it, their bound passes SJF's value.
        assert_eq!(out.chosen, Policy::Sjf);
        // Two jobs each: the long one, then the first short one.
        assert_eq!(out.cut, vec![(Policy::Fcfs, 2), (Policy::Ljf, 2)]);
        let sjf = Metric::SldwA.eval(&problem, &out.schedule);
        for (policy, bound) in &out.evaluations {
            let exact = Metric::SldwA.eval(&problem, &dynp_sched::plan(&problem, *policy).unwrap());
            if *policy == Policy::Sjf {
                assert_eq!(bound.to_bits(), exact.to_bits());
            } else {
                assert!(
                    sjf < *bound && *bound <= exact,
                    "{policy:?}: {bound} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn unbounded_metrics_and_slowdowns_over_zero_estimates_plan_in_full() {
        let mut zero = sjf_friendly();
        zero.jobs.push(Job::exact(4, 0, 1, 0));
        for (metric, problem) in [
            (Metric::Makespan, sjf_friendly()),
            (Metric::Utilization, sjf_friendly()),
            (Metric::SldwA, zero.clone()),
            (Metric::AvgSlowdown, zero),
        ] {
            let mut dynp = SelfTuning::paper_config(metric);
            assert!(dynp.restore_active(Policy::Sjf));
            assert!(dynp.step(&problem).unwrap().cut.is_empty(), "{metric}");
        }
    }

    #[test]
    fn extension_policies_participate_when_configured() {
        let mut dynp = SelfTuning::new(
            vec![Policy::Fcfs, Policy::Saf, Policy::Laf],
            Metric::ArtwW,
            Decider::Advanced,
        );
        let out = dynp.step(&sjf_friendly()).unwrap();
        assert_eq!(out.evaluations.len(), 3);
    }
}
