//! Model generator shared by the property suites in this directory.

use dynp_milp::{TimeIndexedModel, TimeScaling};
use dynp_sched::SchedulingProblem;
use dynp_trace::Job;

/// A random §3.1 snapshot on an empty machine: `specs` is one
/// `(width_seed, duration_seed)` pair per waiting job.
pub fn random_model(capacity: u32, scale: u64, specs: &[(u32, u64)]) -> TimeIndexedModel {
    let jobs: Vec<Job> = specs
        .iter()
        .enumerate()
        .map(|(i, &(w, d))| Job::exact(i as u32, 0, 1 + w % capacity, 60 * (1 + d % 30)))
        .collect();
    let horizon: u64 = jobs.iter().map(|j| j.estimated_duration).sum();
    let problem = SchedulingProblem::on_empty_machine(0, capacity, jobs);
    TimeIndexedModel::build(&problem, TimeScaling::fixed(scale), horizon)
}
