//! High-level trace replay: one call from a job list to a finished run.

use crate::record::{JobRecord, SimSummary};
use crate::rms::{RmsEvent, RmsModel};
use crate::snapshots::{SnapshotFilter, SnapshotLog, TunedSnapshot};
use dynp_core::PolicySelector;
use dynp_des::{run_to_completion, EventQueue};
use dynp_sched::Policy;
use dynp_trace::Job;

/// Configuration of one simulation run.
///
/// Construct with [`SimConfig::new`] (or [`SimConfig::default`] for the
/// paper's 430-node CTC machine) and refine with the `with_*` builders.
/// The struct is `#[non_exhaustive]` so new knobs — the experiment
/// campaign runner grows them regularly — are not breaking changes.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct SimConfig {
    /// Machine size in resources (CTC: 430).
    pub machine_size: u32,
    /// Run a self-tuning step on completions too (the paper tunes on
    /// submissions only).
    pub tune_on_finish: bool,
    /// Collect quasi-off-line snapshots matching this filter.
    pub snapshots: Option<SnapshotFilter>,
}

impl Default for SimConfig {
    /// The paper's machine: 430 nodes, submission-only tuning, no
    /// snapshot collection.
    fn default() -> SimConfig {
        SimConfig::new(430)
    }
}

impl SimConfig {
    /// Paper-faithful configuration for a machine of `machine_size`.
    pub fn new(machine_size: u32) -> SimConfig {
        SimConfig {
            machine_size,
            tune_on_finish: false,
            snapshots: None,
        }
    }

    /// Enables snapshot collection.
    pub fn with_snapshots(mut self, filter: SnapshotFilter) -> SimConfig {
        self.snapshots = Some(filter);
        self
    }

    /// Also runs a self-tuning step when a job completes (the paper tunes
    /// on submissions only, so `false` is the default).
    pub fn with_tune_on_finish(mut self, tune_on_finish: bool) -> SimConfig {
        self.tune_on_finish = tune_on_finish;
        self
    }
}

/// Everything a finished run produces.
#[derive(Debug)]
pub struct SimRun<S> {
    /// Per-job completion records, in completion order.
    pub records: Vec<JobRecord>,
    /// Aggregate statistics on actual times.
    pub summary: SimSummary,
    /// `(time, policy)` at every selection point.
    pub policy_log: Vec<(u64, Policy)>,
    /// Captured quasi-off-line snapshots (empty unless configured).
    pub snapshots: Vec<TunedSnapshot>,
    /// The selector in its final state (e.g. dynP switch statistics).
    pub selector: S,
    /// Label of the selector, for tables.
    pub label: String,
    /// Jobs the RMS declined (wider than the machine), in submit order.
    pub skipped: Vec<Job>,
}

/// Replays `jobs` through a planning-based RMS driven by `selector`.
///
/// Jobs wider than the machine are declined by the RMS at submission and
/// reported as skipped, matching how trace-replay studies clean archive
/// traces.
pub fn simulate<S: PolicySelector>(jobs: &[Job], selector: S, config: SimConfig) -> SimRun<S> {
    // Whole-run wall time, one histogram sample per replay; traced so
    // the span close event lands under the enclosing campaign cell.
    let _run_span = dynp_obs::span("sim.run");
    let label = selector.label();
    let log = match config.snapshots {
        Some(filter) => SnapshotLog::with_filter(filter),
        None => SnapshotLog::disabled(),
    };
    let mut model =
        RmsModel::new(config.machine_size, selector, log).tune_on_finish(config.tune_on_finish);
    let mut queue = EventQueue::new();
    for job in jobs {
        queue.schedule(job.submit, RmsEvent::Submit(*job));
    }
    run_to_completion(&mut model, &mut queue);
    let (policy_log, skipped) = (model.policy_log, model.declined);
    if let Some(r) = dynp_obs::recorder() {
        r.event("sim.complete")
            .kv("selector", label.as_str())
            .kv("jobs", jobs.len() - skipped.len())
            .kv("skipped", skipped.len())
            .kv("end_time", queue.now())
            .emit();
    }
    let (records, snapshot_log, selector) = model.rms.into_parts();
    let summary = SimSummary::compute(&records, config.machine_size);
    SimRun {
        summary,
        policy_log,
        snapshots: snapshot_log.into_snapshots(),
        records,
        selector,
        label,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_core::{FixedPolicy, SelfTuning};
    use dynp_sched::Metric;
    use dynp_trace::{CtcModel, WorkloadModel};

    fn small_trace(n: usize, seed: u64) -> (Vec<Job>, u32) {
        let model = CtcModel {
            nodes: 64,
            mean_interarrival: 120.0,
            ..CtcModel::default()
        };
        let t = model.generate(n, seed);
        (t.jobs, t.machine_size)
    }

    #[test]
    fn fixed_policy_run_completes_all_jobs() {
        let (jobs, size) = small_trace(100, 1);
        let run = simulate(&jobs, FixedPolicy(Policy::Fcfs), SimConfig::new(size));
        assert_eq!(run.records.len(), 100);
        assert_eq!(run.summary.jobs, 100);
        assert!(run.skipped.is_empty());
        assert!(run.summary.utilization > 0.0);
        assert_eq!(run.label, "FCFS");
    }

    #[test]
    fn dynp_run_completes_and_logs_policies() {
        let (jobs, size) = small_trace(150, 2);
        let run = simulate(
            &jobs,
            SelfTuning::paper_config(Metric::SldwA),
            SimConfig::new(size),
        );
        assert_eq!(run.records.len(), 150);
        assert_eq!(run.policy_log.len(), 150); // one per submission
        assert_eq!(run.selector.stats().steps(), 150);
        assert!(run.label.starts_with("dynP"));
    }

    #[test]
    fn dynp_actually_switches_policies_on_bursty_traces() {
        let (jobs, size) = small_trace(400, 3);
        let run = simulate(
            &jobs,
            SelfTuning::paper_config(Metric::SldwA),
            SimConfig::new(size),
        );
        assert!(
            run.selector.stats().switches() > 0,
            "dynP never switched on a bursty CTC-like trace"
        );
    }

    #[test]
    fn snapshots_are_collected_when_configured() {
        let (jobs, size) = small_trace(80, 4);
        let run = simulate(
            &jobs,
            FixedPolicy(Policy::Fcfs),
            SimConfig::new(size).with_snapshots(SnapshotFilter {
                min_jobs: 2,
                max_count: 10,
                ..SnapshotFilter::default()
            }),
        );
        assert!(!run.snapshots.is_empty());
        assert!(run.snapshots.len() <= 10);
        for s in &run.snapshots {
            assert!(s.problem.len() >= 2);
            s.problem.validate().unwrap();
        }
    }

    #[test]
    fn oversized_jobs_are_skipped_not_fatal() {
        let mut jobs = vec![Job::exact(0, 0, 4, 100)];
        jobs.push(Job::exact(1, 10, 100, 100)); // wider than machine
        let run = simulate(&jobs, FixedPolicy(Policy::Fcfs), SimConfig::new(8));
        assert_eq!(run.records.len(), 1);
        assert_eq!(run.skipped.len(), 1);
    }

    #[test]
    fn deterministic_replay() {
        let (jobs, size) = small_trace(120, 5);
        let a = simulate(
            &jobs,
            SelfTuning::paper_config(Metric::SldwA),
            SimConfig::new(size),
        );
        let b = simulate(
            &jobs,
            SelfTuning::paper_config(Metric::SldwA),
            SimConfig::new(size),
        );
        assert_eq!(a.records, b.records);
        assert_eq!(a.policy_log, b.policy_log);
    }

    #[test]
    fn policies_differ_in_outcome_on_contended_traces() {
        // Sanity: FCFS and SJF should not produce identical summaries on a
        // contended workload (they plan different orders).
        let (jobs, size) = small_trace(300, 6);
        let fcfs = simulate(&jobs, FixedPolicy(Policy::Fcfs), SimConfig::new(size));
        let sjf = simulate(&jobs, FixedPolicy(Policy::Sjf), SimConfig::new(size));
        assert_ne!(fcfs.summary, sjf.summary);
    }
}
