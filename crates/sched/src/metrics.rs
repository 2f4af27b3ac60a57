//! Performance metrics over full schedules, weighted exactly as the paper
//! defines them.
//!
//! The self-tuning step measures each policy's schedule "by means of a
//! performance metrics (e.g. response time, slowdown, or utilization)" (§2).
//! The paper's ILP objective is **ARTwW** — average response time weighted
//! by width (Eq. 2) — and Table 1 is measured with **SLDwA** — average
//! slowdown weighted by job area.
//!
//! At planning time all metrics use the *estimated* duration, because that
//! is the only duration the scheduler knows (§3.1). End-of-run statistics
//! on actual durations are `dynp-sim`'s `SimSummary::compute`, which sums
//! the same weights over finished job records in its own pass.
//!
//! The metrics that are sums of per-job terms also give a [`LowerBound`]
//! over a plan still being placed, with which the self-tuning step gives
//! up a policy's plan once it cannot be chosen.

use crate::schedule::{Schedule, ScheduleEntry};
use crate::snapshot::SchedulingProblem;
use dynp_trace::Job;

/// A schedule performance metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Average response time weighted by width (Eq. 2); the ILP objective.
    ArtwW,
    /// Average slowdown weighted by job area; the Table 1 yardstick.
    SldwA,
    /// Plain average response time.
    Art,
    /// Plain average waiting time.
    AvgWait,
    /// Plain average slowdown.
    AvgSlowdown,
    /// Machine utilization over the schedule span (higher is better).
    Utilization,
    /// Schedule makespan measured from "now" (lower is better).
    Makespan,
}

impl Metric {
    /// Whether smaller values are better for this metric.
    pub fn lower_is_better(&self) -> bool {
        !matches!(self, Metric::Utilization)
    }

    /// Returns `true` if `a` is strictly better than `b` under this metric.
    pub fn better(&self, a: f64, b: f64) -> bool {
        if self.lower_is_better() {
            a < b
        } else {
            a > b
        }
    }

    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::ArtwW => "ARTwW",
            Metric::SldwA => "SLDwA",
            Metric::Art => "ART",
            Metric::AvgWait => "AvgWait",
            Metric::AvgSlowdown => "AvgSLD",
            Metric::Utilization => "Util",
            Metric::Makespan => "Makespan",
        }
    }

    /// Evaluates the metric on a planned schedule against its snapshot.
    /// Returns `0.0` for an empty schedule (no waiting jobs: nothing to
    /// measure, and the self-tuning step is skipped upstream anyway).
    pub fn eval(&self, problem: &SchedulingProblem, schedule: &Schedule) -> f64 {
        self.eval_pairs(problem, schedule, || zip_jobs(problem, schedule))
    }

    /// [`Self::eval`] of a schedule planned in `order` (as
    /// [`crate::plan_ordered_with_profile`] plans it): the schedule's
    /// `i`-th entry places `order[i]`, so jobs pair with their entries by
    /// position, without an index by id, and in the order `eval` pairs
    /// them — the value is the same to the bit.
    pub fn eval_in_order(
        &self,
        problem: &SchedulingProblem,
        order: &[Job],
        schedule: &Schedule,
    ) -> f64 {
        debug_assert!(
            schedule.len() <= order.len()
                && order.iter().zip(schedule.entries()).all(|(job, e)| job.id == e.id),
            "the schedule was not planned in this order"
        );
        self.eval_pairs(problem, schedule, || order.iter().zip(schedule.entries()))
    }

    /// The formulas, over the `(job, entry)` pairs of `schedule` in its
    /// entry order; `pairs` is only called by the metrics that read them.
    fn eval_pairs<'a, I>(
        &self,
        problem: &SchedulingProblem,
        schedule: &Schedule,
        pairs: impl FnOnce() -> I,
    ) -> f64
    where
        I: Iterator<Item = (&'a Job, &'a ScheduleEntry)>,
    {
        if schedule.is_empty() {
            return 0.0;
        }
        match self {
            Metric::ArtwW => {
                let mut num = 0.0;
                let mut den = 0.0;
                for (job, entry) in pairs() {
                    // (t - s_i + d_i) * w_i, per Eq. 2.
                    let response = (entry.start - job.submit + job.estimated_duration) as f64;
                    num += response * job.width as f64;
                    den += job.width as f64;
                }
                num / den
            }
            Metric::SldwA => {
                let mut num = 0.0;
                let mut den = 0.0;
                for (job, entry) in pairs() {
                    let wait = (entry.start - job.submit) as f64;
                    let run = job.estimated_duration as f64;
                    let slowdown = (wait + run) / run;
                    let area = job.estimated_area() as f64;
                    num += slowdown * area;
                    den += area;
                }
                num / den
            }
            Metric::Art => {
                mean(pairs().map(|(job, e)| (e.start - job.submit + job.estimated_duration) as f64))
            }
            Metric::AvgWait => mean(pairs().map(|(job, e)| (e.start - job.submit) as f64)),
            Metric::AvgSlowdown => mean(pairs().map(|(job, e)| {
                let wait = (e.start - job.submit) as f64;
                let run = job.estimated_duration as f64;
                (wait + run) / run
            })),
            Metric::Utilization => {
                let end = schedule.makespan_end().expect("non-empty") as f64;
                let span = end - problem.now as f64;
                if span <= 0.0 {
                    return 0.0;
                }
                let work: f64 = problem.jobs.iter().map(|j| j.estimated_area() as f64).sum();
                work / (span * problem.capacity() as f64)
            }
            Metric::Makespan => (schedule.makespan_end().expect("non-empty") - problem.now) as f64,
        }
    }

    /// The [`LowerBound`] of this metric over plans of `problem` before
    /// any job is placed, or `None` where the metric has none: makespan
    /// and utilization are not sums of per-job terms, a zero estimate
    /// makes a slowdown term infinite or NaN, and a job submitted after
    /// `now` or an empty divisor leaves no finite value to bound.
    pub fn lower_bound(&self, problem: &SchedulingProblem) -> Option<LowerBound> {
        let now = problem.now;
        let (mut sum, mut den) = (0.0, 0.0);
        for job in &problem.jobs {
            let (weight, lag, share) = self.linear_term(job)?;
            if job.submit > now {
                return None;
            }
            sum += weight * ((now - job.submit) as f64 + lag as f64);
            den += share;
        }
        // The rounding of this sum and of `eval`'s is below 4(n + 8)ε
        // relative each (a few roundings per term, one per addition); the
        // margin is twice their total, and at least 1e-9.
        let margin = 1e-9_f64.max(16.0 * (problem.jobs.len() as f64 + 8.0) * f64::EPSILON);
        (den > 0.0).then_some(LowerBound {
            now,
            metric: *self,
            sum,
            den,
            shrink: 1.0 - margin,
        })
    }

    /// A job's term of a sum metric, linear in its start `t`: the metric
    /// adds `weight · (t − submit + lag)` to its numerator and `share` to
    /// its divisor — mathematically the term `eval` computes, with the
    /// same area the job's [`Job::estimated_area`] gives. `None` for a
    /// metric that is not such a sum, and for a slowdown over a zero
    /// estimate.
    fn linear_term(&self, job: &Job) -> Option<(f64, u64, f64)> {
        let width = job.width as f64;
        let run = job.estimated_duration;
        match self {
            Metric::ArtwW => Some((width, run, width)),
            Metric::SldwA if run > 0 => {
                let area = job.estimated_area() as f64;
                Some((area / run as f64, run, area))
            }
            Metric::Art => Some((1.0, run, 1.0)),
            Metric::AvgWait => Some((1.0, 0, 1.0)),
            Metric::AvgSlowdown if run > 0 => Some((1.0 / run as f64, run, 1.0)),
            _ => None,
        }
    }
}

/// A lower bound on a sum metric over a plan still being placed: the
/// exact terms of the jobs placed so far plus every unplaced job's term
/// with its start set to `now`. For SLDwA that is
/// `(Σ_placed w·(S − s + d) + Σ_unplaced w·(now − s + d)) / Σ area`.
/// Every term only grows as its start moves later, and no job starts
/// before `now`, so the bound never exceeds the metric of any plan that
/// keeps the placements so far — the self-tuning step gives a
/// challenger's plan up once its bound passes the best complete value.
///
/// [`Self::value`] is certified against rounding: it is shrunk by a
/// relative margin well above the rounding of both this sum and
/// [`Metric::eval`]'s, so it stays at or below the value `eval` computes
/// for the full plan.
#[derive(Clone, Copy, Debug)]
pub struct LowerBound {
    now: u64,
    metric: Metric,
    /// Σ `weight · (t − submit + lag)`, with `t` the start of a placed
    /// job and `now` for an unplaced one.
    sum: f64,
    /// The metric's divisor: Σ width, Σ area, or the job count.
    den: f64,
    /// `1 − margin`.
    shrink: f64,
}

impl LowerBound {
    /// Moves `job`'s term from `now` to its placed `start >= now`.
    pub fn place(&mut self, job: &Job, start: u64) {
        debug_assert!(start >= self.now, "a job placed before now");
        let (weight, _, _) = self
            .metric
            .linear_term(job)
            .expect("a bounded metric bounds every job");
        self.sum += weight * (start - self.now) as f64;
    }

    /// The bound: at or below [`Metric::eval`] of every full plan that
    /// keeps the placements so far, so a value above another plan's
    /// `eval` proves every such plan strictly worse.
    pub fn value(&self) -> f64 {
        self.sum / self.den * self.shrink
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Metric {
    type Err = String;

    /// Parses the [`Metric::name`] spellings case-insensitively, so CLI
    /// flags and serve requests round-trip through `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "ARTWW" => Ok(Metric::ArtwW),
            "SLDWA" => Ok(Metric::SldwA),
            "ART" => Ok(Metric::Art),
            "AVGWAIT" => Ok(Metric::AvgWait),
            "AVGSLD" | "AVGSLOWDOWN" => Ok(Metric::AvgSlowdown),
            "UTIL" | "UTILIZATION" => Ok(Metric::Utilization),
            "MAKESPAN" => Ok(Metric::Makespan),
            other => Err(format!("unknown metric {other:?}")),
        }
    }
}

/// Pairs each schedule entry with its job record, for a schedule whose
/// planning order is not at hand: jobs are indexed by id once and found by
/// binary search per entry (`O((n+m) log n)`) instead of a linear scan per
/// entry. The tuning step knows its orders and uses
/// [`Metric::eval_in_order`] instead.
fn zip_jobs<'a>(
    problem: &'a SchedulingProblem,
    schedule: &'a Schedule,
) -> impl Iterator<Item = (&'a Job, &'a ScheduleEntry)> {
    let mut by_id: Vec<&Job> = problem.jobs.iter().collect();
    by_id.sort_unstable_by_key(|j| j.id);
    schedule.entries().iter().map(move |entry| {
        let idx = by_id
            .binary_search_by_key(&entry.id, |j| j.id)
            .expect("validated schedule entry has a job");
        (by_id[idx], entry)
    })
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The paper's schedule quality ratio (Eq. 7):
/// `quality(p, m) = performance(CPLEX, m) / performance(p, m)` for
/// lower-is-better metrics (and the reciprocal for utilization), so that
/// `quality < 1` means the reference (exact) schedule is better and
/// `(1 - quality) * 100` is the percentage performance loss of policy `p`.
pub fn quality(metric: Metric, reference: f64, policy_value: f64) -> f64 {
    if policy_value == 0.0 && reference == 0.0 {
        return 1.0;
    }
    if metric.lower_is_better() {
        reference / policy_value
    } else {
        policy_value / reference
    }
}

/// Percentage performance lost by the policy relative to the reference:
/// `(1 - quality) * 100`. Negative when the policy beats the (time-scaled)
/// reference, as the paper observes can happen.
pub fn performance_loss_percent(metric: Metric, reference: f64, policy_value: f64) -> f64 {
    (1.0 - quality(metric, reference, policy_value)) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan, plan_frontier, plan_ordered};
    use crate::policy::Policy;
    use dynp_platform::MachineHistory;
    use proptest::prelude::*;

    const ALL: [Metric; 7] = [
        Metric::ArtwW,
        Metric::SldwA,
        Metric::Art,
        Metric::AvgWait,
        Metric::AvgSlowdown,
        Metric::Utilization,
        Metric::Makespan,
    ];

    fn one_job_problem() -> (SchedulingProblem, Schedule) {
        let p = SchedulingProblem::on_empty_machine(100, 8, vec![Job::exact(0, 40, 4, 60)]);
        let s = plan(&p, Policy::Fcfs).unwrap();
        (p, s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Pairing by plan position ≡ pairing by id, to the bit, for every
        /// metric: full plans of a random order on a busy machine, and the
        /// frontier prefix of the same order.
        #[test]
        fn eval_in_order_equals_eval_to_the_bit(
            capacity in 1u32..=24,
            now in 0u64..1_000,
            running in prop::collection::vec((1u32..=6, 0u64..400), 0..5),
            // (waited, width, estimate, position key) per waiting job.
            queued in prop::collection::vec((0u64..900, 1u32..=24, 1u64..300, 0u64..1_000), 0..25),
        ) {
            let mut room = capacity;
            let running: Vec<(u32, u64)> = running
                .into_iter()
                .filter(|&(width, _)| width <= room && { room -= width; true })
                .map(|(width, end)| (width, now + end))
                .collect();
            let history = MachineHistory::build(capacity, now, &running);
            let jobs: Vec<Job> = (0u32..)
                .zip(&queued)
                .map(|(id, &(waited, width, estimate, _))| {
                    let width = 1 + (width - 1) % capacity;
                    Job::exact(id, now.saturating_sub(waited), width, estimate)
                })
                .collect();
            let mut order = jobs.clone();
            order.sort_by_key(|job| (queued[job.id.0 as usize].3, job.id));
            let problem = SchedulingProblem::new(now, history, jobs);
            for schedule in [
                plan_ordered(&problem, &order).unwrap(),
                plan_frontier(&problem, &order).unwrap(),
            ] {
                for metric in ALL {
                    prop_assert_eq!(
                        metric.eval_in_order(&problem, &order, &schedule).to_bits(),
                        metric.eval(&problem, &schedule).to_bits(),
                        "{} over {} of {} jobs",
                        metric,
                        schedule.len(),
                        order.len()
                    );
                }
            }
        }
    }

    #[test]
    fn metric_names_round_trip_through_fromstr() {
        for m in ALL {
            assert_eq!(m.name().parse::<Metric>().unwrap(), m);
            assert_eq!(m.name().to_lowercase().parse::<Metric>().unwrap(), m);
        }
        assert!("nope".parse::<Metric>().is_err());
    }

    #[test]
    fn artww_single_job() {
        let (p, s) = one_job_problem();
        // start = 100, submit = 40, d = 60 -> response = 120.
        assert_eq!(Metric::ArtwW.eval(&p, &s), 120.0);
        assert_eq!(Metric::Art.eval(&p, &s), 120.0);
        assert_eq!(Metric::AvgWait.eval(&p, &s), 60.0);
    }

    #[test]
    fn sldwa_single_job() {
        let (p, s) = one_job_problem();
        // wait = 60, run = 60 -> slowdown 2.
        assert_eq!(Metric::SldwA.eval(&p, &s), 2.0);
        assert_eq!(Metric::AvgSlowdown.eval(&p, &s), 2.0);
    }

    #[test]
    fn artww_weights_by_width() {
        let p = SchedulingProblem::on_empty_machine(
            0,
            16,
            vec![Job::exact(0, 0, 1, 100), Job::exact(1, 0, 3, 100)],
        );
        let s = plan(&p, Policy::Fcfs).unwrap(); // both start at 0
                                        // responses both 100; weighted mean still 100.
        assert_eq!(Metric::ArtwW.eval(&p, &s), 100.0);
        // Force different responses: narrow machine.
        let p2 = SchedulingProblem::on_empty_machine(
            0,
            3,
            vec![Job::exact(0, 0, 1, 100), Job::exact(1, 0, 3, 100)],
        );
        let s2 = plan(&p2, Policy::Fcfs).unwrap();
        // job0: resp 100 weight 1; job1: starts at 100, resp 200, weight 3.
        let expect = (100.0 * 1.0 + 200.0 * 3.0) / 4.0;
        assert_eq!(Metric::ArtwW.eval(&p2, &s2), expect);
        // Plain ART ignores width.
        assert_eq!(Metric::Art.eval(&p2, &s2), 150.0);
    }

    #[test]
    fn sldwa_weights_by_area() {
        let p = SchedulingProblem::on_empty_machine(
            0,
            2,
            vec![Job::exact(0, 0, 2, 100), Job::exact(1, 0, 2, 300)],
        );
        let s = plan(&p, Policy::Fcfs).unwrap();
        // job0: wait 0, sld 1, area 200. job1: wait 100, run 300, sld 4/3,
        // area 600.
        let expect = (1.0 * 200.0 + (400.0 / 300.0) * 600.0) / 800.0;
        assert!((Metric::SldwA.eval(&p, &s) - expect).abs() < 1e-12);
    }

    #[test]
    fn utilization_and_makespan() {
        let p = SchedulingProblem::on_empty_machine(
            0,
            4,
            vec![Job::exact(0, 0, 2, 100), Job::exact(1, 0, 2, 100)],
        );
        let s = plan(&p, Policy::Fcfs).unwrap();
        // Both run in parallel: makespan 100, work 400, capacity*span 400.
        assert_eq!(Metric::Makespan.eval(&p, &s), 100.0);
        assert_eq!(Metric::Utilization.eval(&p, &s), 1.0);
    }

    #[test]
    fn empty_schedule_measures_zero() {
        let p = SchedulingProblem::on_empty_machine(4, 4, vec![]);
        let s = Schedule::new();
        for m in ALL {
            assert_eq!(m.eval(&p, &s), 0.0);
            assert_eq!(m.eval_in_order(&p, &[], &s), 0.0);
        }
    }

    #[test]
    fn direction_of_metrics() {
        assert!(Metric::ArtwW.lower_is_better());
        assert!(Metric::SldwA.lower_is_better());
        assert!(!Metric::Utilization.lower_is_better());
        assert!(Metric::ArtwW.better(1.0, 2.0));
        assert!(Metric::Utilization.better(0.9, 0.5));
    }

    #[test]
    fn quality_ratio_matches_paper_definition() {
        // CPLEX better: quality < 1, positive loss.
        let q = quality(Metric::SldwA, 1.0, 1.25);
        assert!((q - 0.8).abs() < 1e-12);
        assert!((performance_loss_percent(Metric::SldwA, 1.0, 1.25) - 20.0).abs() < 1e-9);
        // Policy better (time-scaling artifact): quality > 1, negative loss.
        let q = quality(Metric::SldwA, 1.2, 1.0);
        assert!(q > 1.0);
        assert!(performance_loss_percent(Metric::SldwA, 1.2, 1.0) < 0.0);
        // Utilization flips the ratio.
        let q = quality(Metric::Utilization, 0.8, 0.4);
        assert!((q - 0.5).abs() < 1e-12);
    }
}
