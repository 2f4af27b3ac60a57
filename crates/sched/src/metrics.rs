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
//! up a policy's plan once it cannot be chosen. On a queue of 128 jobs or
//! more the bound also gets a *fluid completion* every few dozen
//! placements: the unplaced jobs' areas poured into the capacity
//! the placed jobs left free, which sees the capacity they took.

use crate::schedule::{Schedule, ScheduleEntry};
use crate::snapshot::SchedulingProblem;
use dynp_platform::ResourceProfile;
use dynp_trace::{Job, JobId};
use std::sync::Arc;

/// The queue length from which a [`LowerBound`] checks its fluid
/// completion. Below it the bound on `now` alone cuts most challengers
/// about as early, and sorting the fill and marking the placements cost
/// more than the later placements a check saves (DESIGN.md §4 item 9).
const FLUID_FROM: usize = 128;

/// Placements between two fluid checks of a pass over `n` jobs.
fn check_every(n: usize) -> usize {
    32.max(n / 16)
}

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
    /// `now` or an empty divisor leaves no finite value to bound. From 128
    /// jobs on it carries the fluid completion, whose fill order is
    /// sorted here, once for every pass that clones the bound.
    pub fn lower_bound(&self, problem: &SchedulingProblem) -> Option<LowerBound> {
        self.bound(problem, problem.jobs.len() >= FLUID_FROM)
    }

    /// [`Self::lower_bound`], with the fluid completion iff `fluid`.
    fn bound(&self, problem: &SchedulingProblem, fluid: bool) -> Option<LowerBound> {
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
        (den > 0.0).then(|| LowerBound {
            now,
            metric: *self,
            sum,
            den,
            shrink: 1.0 - margin,
            fluid: fluid.then(|| Fluid::new(*self, problem)).flatten(),
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

    /// A job's place in the fluid fill: its area `w·p` over its
    /// [`Self::linear_term`] weight, with `p = max(d, 1)` its planned
    /// duration — `p` for ARTwW and SLDwA (as SJF orders them), `w·p` for
    /// ART and mean wait, `w·p²` for mean slowdown. `None` from 2⁹⁶ on,
    /// which only mean slowdown reaches.
    fn fill_key(&self, job: &Job) -> Option<u128> {
        let planned = u128::from(job.estimated_duration.max(1));
        let area = u128::from(job.width) * planned;
        let key = match self {
            Metric::ArtwW | Metric::SldwA => planned,
            Metric::AvgSlowdown => area.checked_mul(planned)?,
            _ => area,
        };
        (key >> 96 == 0).then_some(key)
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
/// **Fluid completion.** On a queue of `n >= 128` jobs, every
/// `max(32, n/16)` placements [`Self::place`] also pours the unplaced
/// jobs' areas `a = w·p` (`p = max(d, 1)`) into the free capacity of the
/// working profile from `now`, whole job after whole job in ascending
/// `a / weight` — `p` for ARTwW and SLDwA, `w·p` for ART and mean wait,
/// `w·p²` for mean slowdown; ties by index — and takes
/// `F = Σ_unplaced weight·(M − p/2)`, with `M` a job's fluid mean busy
/// time relative to `now`. Until the next check the bound is the larger
/// of the running sum above and the sum at the check with `max(F, 0)` in
/// place of the unplaced terms at `now`. Valid because every later
/// placement of the pass lies in the capacity free at the check; a job
/// run rigidly over `[S, S + p)` at rate `w` has mean busy time
/// `S + p/2`, so its term is `weight·(M − p/2)` plus a constant; and
/// dropping rigidity and the rate cap leaves a relaxation whose minimum
/// of `Σ weight·M` the greedy fill attains — an exchange argument, Smith's
/// rule over Goemans' mean-busy-time relaxation.
///
/// [`Self::value`] is certified against rounding. Fill areas, segment
/// capacities and fill positions are exact integers; each piece of a
/// job's fill adds `piece × midpoint` in `f64`, a few roundings of a
/// positive term. So `F`'s error is below a few ε times its `m` terms
/// relative to `Σ weight·M + Σ weight·p/2`, and `F` is lowered by
/// `16(m + 8)ε` of that sum before it is used. The bound is then shrunk
/// by a relative margin well above the rounding of both its sum and
/// [`Metric::eval`]'s, so it stays at or below the value `eval`
/// computes for the full plan.
#[derive(Clone, Debug)]
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
    /// The fluid completion, on queues of [`FLUID_FROM`] jobs or more
    /// whose fill keys are below 2⁹⁶.
    fluid: Option<Fluid>,
}

impl LowerBound {
    /// Moves `job`'s term from `now` to its placed `start >= now`, and on
    /// the fluid check schedule pours the unplaced jobs into `profile`,
    /// the working profile of the pass after this placement.
    pub fn place(&mut self, job: &Job, start: u64, profile: &ResourceProfile) {
        debug_assert!(start >= self.now, "a job placed before now");
        let (weight, _, _) = self
            .metric
            .linear_term(job)
            .expect("a bounded metric bounds every job");
        self.sum += weight * (start - self.now) as f64;
        if self.fluid.is_some() {
            self.place_fluid(job, profile);
        }
    }

    /// [`Self::place`]'s fluid part, out of line: most passes have no
    /// fluid completion, and their placement loop stays as tight as
    /// without one.
    #[inline(never)]
    fn place_fluid(&mut self, job: &Job, profile: &ResourceProfile) {
        if self.fluid.as_mut().is_some_and(|fluid| fluid.mark(job)) {
            self.check(profile);
        }
    }

    /// The fluid check: raises the bound to the placed jobs' terms plus
    /// the fluid completion of the unplaced ones in `profile`.
    fn check(&mut self, profile: &ResourceProfile) {
        if let Some(fluid) = &mut self.fluid {
            let completed = self.sum + fluid.completion(self.now, profile);
            fluid.floor = fluid.floor.max(completed);
        }
    }

    /// The bound: at or below [`Metric::eval`] of every full plan that
    /// keeps the placements so far, so a value above another plan's
    /// `eval` proves every such plan strictly worse.
    pub fn value(&self) -> f64 {
        let sum = self
            .fluid
            .as_ref()
            .map_or(self.sum, |fluid| self.sum.max(fluid.floor));
        sum / self.den * self.shrink
    }
}

/// The fluid completion of a [`LowerBound`]: the jobs in fill order,
/// shared by every pass of a step, and what this pass has placed.
#[derive(Clone, Debug)]
struct Fluid {
    fill: Arc<[FillJob]>,
    /// `(id, rank in fill)` of every job, sorted by id.
    ranks: Arc<[(JobId, u32)]>,
    /// By fill rank.
    placed: Vec<bool>,
    until_check: usize,
    /// The bound's numerator at the latest check, 0 before the first.
    floor: f64,
}

/// A job as the fluid fill pours it.
#[derive(Clone, Copy, Debug)]
struct FillJob {
    /// `w · max(d, 1)`, the capacity its placement takes.
    area: u128,
    /// Its [`Metric::linear_term`] weight.
    weight: f64,
    /// `weight · max(d, 1) / 2`.
    half: f64,
}

impl Fluid {
    /// Sorts `problem`'s jobs into `metric`'s fill order, or `None` if a
    /// fill key is past 2⁹⁶; every term is finite ([`Metric::bound`]
    /// checked).
    fn new(metric: Metric, problem: &SchedulingProblem) -> Option<Fluid> {
        // `key · 2³² + index`: one integer sort, ties by index.
        let mut keyed = Vec::with_capacity(problem.jobs.len());
        for (idx, job) in (0u32..).zip(&problem.jobs) {
            keyed.push(metric.fill_key(job)? << 32 | u128::from(idx));
        }
        keyed.sort_unstable();
        let index = |key: u128| key as u32 as usize;
        let fill: Arc<[FillJob]> = keyed
            .iter()
            .map(|&key| {
                let job = &problem.jobs[index(key)];
                let (weight, _, _) = metric.linear_term(job).expect("a bounded job");
                let planned = job.estimated_duration.max(1);
                FillJob {
                    area: u128::from(job.width) * u128::from(planned),
                    weight,
                    half: weight * planned as f64 / 2.0,
                }
            })
            .collect();
        let mut ranks: Vec<(JobId, u32)> = (0..)
            .zip(&keyed)
            .map(|(rank, &key)| (problem.jobs[index(key)].id, rank))
            .collect();
        ranks.sort_unstable();
        Some(Fluid {
            placed: vec![false; fill.len()],
            until_check: check_every(fill.len()),
            fill,
            ranks: ranks.into(),
            floor: 0.0,
        })
    }

    /// Marks `job` placed; whether a check is due.
    fn mark(&mut self, job: &Job) -> bool {
        let at = self
            .ranks
            .binary_search_by_key(&job.id, |&(id, _)| id)
            .expect("a job of the snapshot");
        self.placed[self.ranks[at].1 as usize] = true;
        self.until_check -= 1;
        if self.until_check > 0 {
            return false;
        }
        self.until_check = check_every(self.fill.len());
        true
    }

    /// `max(F, 0)` over the unplaced jobs poured into `profile`'s free
    /// capacity from `now` (see [`LowerBound`]), lowered by its rounding
    /// margin; 0 where the profile ends with no free capacity. Times are
    /// relative to `now`. A zero-width job keeps its term at `now`.
    fn completion(&self, now: u64, profile: &ResourceProfile) -> f64 {
        let steps = profile.steps();
        let mut seg = steps.partition_point(|&(time, _)| time <= now) - 1;
        // The area poured into segment `seg` so far.
        let mut used = 0u128;
        let (mut moments, mut halves, mut terms) = (0.0, 0.0, 0usize);
        let unplaced = self
            .fill
            .iter()
            .zip(&self.placed)
            .filter(|&(_, &placed)| !placed);
        for (job, _) in unplaced.filter(|(job, _)| job.area > 0) {
            let (mut left, mut moment) = (job.area, 0.0);
            while left > 0 {
                let (time, free) = steps[seg];
                let from = time.max(now) - now;
                let room = match steps.get(seg + 1) {
                    Some(&(end, _)) => u128::from(free) * u128::from(end - now - from),
                    None if free == 0 => return 0.0,
                    None => u128::MAX,
                };
                if used == room {
                    (seg, used) = (seg + 1, 0);
                    continue;
                }
                // The piece runs at rate `free` over
                // `from + [used, used + piece) / free`: its moment is the
                // piece times that interval's midpoint.
                let piece = left.min(room - used);
                let mid = from as f64 + (2 * used + piece) as f64 / (2.0 * f64::from(free));
                moment += piece as f64 * mid;
                (used, left) = (used + piece, left - piece);
                terms += 1;
            }
            moments += job.weight * (moment / job.area as f64);
            halves += job.half;
            terms += 1;
        }
        let margin = 16.0 * (terms as f64 + 8.0) * f64::EPSILON;
        (moments - halves - margin * (moments + halves)).max(0.0)
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

    /// The metrics with a [`LowerBound`].
    const BOUNDED: [Metric; 5] = [
        Metric::ArtwW,
        Metric::SldwA,
        Metric::Art,
        Metric::AvgWait,
        Metric::AvgSlowdown,
    ];

    /// Every order of `0..k`.
    fn permutations(k: usize) -> Vec<Vec<usize>> {
        if k == 0 {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for rest in permutations(k - 1) {
            for at in 0..=rest.len() {
                let mut order = rest.clone();
                order.insert(at, k - 1);
                all.push(order);
            }
        }
        all
    }

    /// Places `job` at its earliest fit in `profile`, as the planner does.
    fn place(profile: &mut ResourceProfile, now: u64, job: &Job) -> ScheduleEntry {
        let duration = job.estimated_duration.max(1);
        let start = profile.place(now, duration, job.width).expect("plannable");
        ScheduleEntry {
            id: job.id,
            start,
            end: start + duration,
            width: job.width,
        }
    }

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

    proptest! {
        /// A snapshot on a busy machine, a random prefix of a random order
        /// placed as the planner places it, at most six jobs left: for
        /// every bounded metric, the bound after a fluid check is at or
        /// below the metric of the plan of every order of the jobs left
        /// after that prefix — with zero estimates, and `now` near the end
        /// of the time axis.
        #[test]
        fn the_fluid_bound_is_below_every_completion(
            capacity in 1u32..=16,
            // One `now` in four 20 000 s before the end of the axis.
            now in (0u64..4, 0u64..1_000)
                .prop_map(|(pick, t)| if pick == 0 { u64::MAX - 20_000 - t } else { 1_000 + t }),
            running in prop::collection::vec((1u32..=8, 1u64..400), 0..5),
            // (waited, width, estimate, position key) per waiting job; one
            // estimate in eight zero.
            queued in prop::collection::vec(
                (0u64..900, 1u32..=16, (0u64..8, 1u64..300), 0u64..1_000),
                1..=24,
            ),
            left in 1usize..=6,
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
                .map(|(id, &(waited, width, (pick, estimate), _))| {
                    let width = 1 + (width - 1) % capacity;
                    let estimate = if pick == 0 { 0 } else { estimate };
                    Job::exact(id, now - waited, width, estimate)
                })
                .collect();
            let mut order = jobs.clone();
            order.sort_by_key(|job| (queued[job.id.0 as usize].3, job.id));
            let problem = SchedulingProblem::new(now, history, jobs);
            let (prefix, rest) = order.split_at(order.len() - left.min(order.len()));
            let mut bounds: Vec<(Metric, LowerBound)> = BOUNDED
                .iter()
                .filter_map(|&metric| Some((metric, metric.bound(&problem, true)?)))
                .collect();
            let mut profile = problem.availability_profile();
            profile.compress_before(now);
            let mut placed = Vec::new();
            for job in prefix {
                let entry = place(&mut profile, now, job);
                for (_, lower) in &mut bounds {
                    lower.place(job, entry.start, &profile);
                }
                placed.push(entry);
            }
            for (_, lower) in &mut bounds {
                lower.check(&profile);
            }
            for completion in permutations(rest.len()) {
                let mut working = profile.clone();
                let mut schedule = Schedule::new();
                for &entry in &placed {
                    schedule.push(entry);
                }
                for &k in &completion {
                    schedule.push(place(&mut working, now, &rest[k]));
                }
                for (metric, lower) in &bounds {
                    let exact = metric.eval(&problem, &schedule);
                    prop_assert!(
                        lower.value() <= exact,
                        "{}: bound {} above {} after {} placed",
                        metric,
                        lower.value(),
                        exact,
                        placed.len()
                    );
                }
            }
        }
    }

    #[test]
    fn the_fluid_completion_sees_the_capacity_placed_jobs_took() {
        // Job 0 takes the whole machine for [0, 100); jobs 1 and 2 can
        // only follow it. At `now` their terms are 0; poured into the free
        // capacity they run [100, 110) and [110, 120), as they must.
        let jobs = vec![
            Job::exact(0, 0, 2, 100),
            Job::exact(1, 0, 2, 10),
            Job::exact(2, 0, 2, 10),
        ];
        let problem = SchedulingProblem::on_empty_machine(0, 2, jobs.clone());
        let full = plan_ordered(&problem, &jobs).unwrap();
        let exact = Metric::ArtwW.eval(&problem, &full);
        assert_eq!(exact, (200.0 + 220.0 + 240.0) / 6.0);
        let mut lower = Metric::ArtwW.bound(&problem, true).unwrap();
        let mut profile = problem.availability_profile();
        let entry = place(&mut profile, 0, &jobs[0]);
        lower.place(&jobs[0], entry.start, &profile);
        let at_now = lower.value();
        assert_eq!(at_now, (200.0 + 20.0 + 20.0) / 6.0 * lower.shrink);
        lower.check(&profile);
        assert!(at_now < lower.value() && lower.value() <= exact);
        assert!((lower.value() - exact).abs() < 2e-9 * exact);
        // The queue is below 128 jobs: no check is scheduled.
        assert!(Metric::ArtwW.lower_bound(&problem).unwrap().fluid.is_none());
    }

    #[test]
    fn fill_keys_past_2_to_the_96_drop_the_fluid_completion() {
        assert_eq!(Metric::SldwA.fill_key(&Job::exact(1, 0, 7, 0)), Some(1));
        assert_eq!(Metric::Art.fill_key(&Job::exact(1, 0, 7, 3)), Some(21));
        assert_eq!(
            Metric::AvgSlowdown.fill_key(&Job::exact(1, 0, 7, 3)),
            Some(63)
        );
        let long = Job::exact(0, 0, 1, 1 << 48);
        assert_eq!(Metric::AvgSlowdown.fill_key(&long), None);
        assert_eq!(Metric::ArtwW.fill_key(&long), Some(1 << 48));
        let problem = SchedulingProblem::on_empty_machine(0, 2, vec![long]);
        assert!(Metric::AvgSlowdown
            .bound(&problem, true)
            .unwrap()
            .fluid
            .is_none());
        assert!(Metric::ArtwW.bound(&problem, true).unwrap().fluid.is_some());
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
