//! Every decision of the shared RMS kernel pinned to recorded bytes.
//!
//! Three replays are folded with FNV-1a (`obs::checkpoint::fnv1a64`) and
//! compared with recorded constants:
//!
//! * a 2 000-job default-CTC replay under `SelfTuning::paper_config(SldwA)`
//!   — every job record, the policy log and the SLDwA summary by its bits;
//! * the same replay with self-tuning on completions too;
//! * a 5 s-interarrival 1 000-job trace through `ServiceCore::submit_batch`
//!   at 32 jobs a batch plus the drain — every decision body and record.
//!
//! The service constant predates the rewrite of the kernel's running set,
//! history → profile build and in-order metric evaluation. The two replay
//! constants are those of the service's event order — completions due by
//! a submission before it, in `(end, id)` order — recorded by driving the
//! kernel in that order on the commit before `simulate` adopted it (the
//! first equals `ServiceCore::submit_batch` one job per batch plus the
//! drain over the same trace). The replay has 23 completions at a submit
//! time and 93 at an end an earlier completion already had, so the tie
//! rule is part of what is pinned.
//!
//! A fourth pin, `service_views_are_pinned`, folds every status, schedule
//! and trace body the service renders over a shorter sequence.
//!
//! A change that moves one schedule, one metric value or one tie-break
//! moves a digest. Run in release too: the kernel's debug cross-checks are
//! compiled out there, so this is what holds the optimised build.

use dynp_rs::obs::checkpoint::fnv1a64;
use dynp_rs::prelude::*;
use dynp_rs::serve::api::decisions_body;
use dynp_rs::sim::JobRecord;

/// Jobs per `submit_batch` call of the service replay.
const BATCH: usize = 32;

fn digest(bytes: &str) -> String {
    format!("{:016x}", fnv1a64(bytes.as_bytes()))
}

fn push_records(bytes: &mut String, records: &[JobRecord]) {
    for record in records {
        bytes.push_str(&record.to_json().to_json());
    }
}

/// Digest of a 2 000-job default-CTC replay under the paper's dynP.
fn sim_digest(tune_on_finish: bool) -> String {
    let trace = CtcModel::default().generate(2000, 42);
    let run = simulate(
        &trace.jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(trace.machine_size).with_tune_on_finish(tune_on_finish),
    );
    assert_eq!(run.records.len(), trace.jobs.len());
    assert!(run.selector.stats().switches() > 0, "dynP never switched");
    let mut bytes = String::new();
    push_records(&mut bytes, &run.records);
    for (time, policy) in &run.policy_log {
        bytes.push_str(&format!("{time}:{policy};"));
    }
    bytes.push_str(&format!("{:016x}", run.summary.sldwa.to_bits()));
    digest(&bytes)
}

#[test]
fn submission_tuned_replay_is_pinned() {
    assert_eq!(sim_digest(false), "32f3c3ca93ebf857");
}

#[test]
fn completion_tuned_replay_is_pinned() {
    assert_eq!(sim_digest(true), "fe37290a823537d4");
}

#[test]
fn service_backlog_replay_is_pinned() {
    let model = CtcModel {
        mean_interarrival: 5.0,
        ..CtcModel::default()
    };
    let trace = model.generate(1000, 42);
    let requests: Vec<JobRequest> = trace
        .jobs
        .iter()
        .map(|j| JobRequest {
            width: j.width,
            runtime: j.estimated_duration,
            actual_runtime: Some(j.actual_duration),
            submit: Some(j.submit),
        })
        .collect();
    let mut core = ServiceCore::new(trace.machine_size, SelfTuning::paper_config(Metric::SldwA));
    let (mut bytes, mut deepest) = (String::new(), 0);
    for group in requests.chunks(BATCH) {
        bytes.push_str(&decisions_body(&core.submit_batch(group), true));
        deepest = deepest.max(core.in_flight());
    }
    assert!(deepest > 200, "the backlog never grew: {deepest} in flight");
    core.drain();
    assert_eq!(core.records().len(), trace.jobs.len());
    push_records(&mut bytes, core.records());
    assert_eq!(digest(&bytes), "eef4764b0945da74");
}

/// The paper's dynP, counting the jobs its challenger plans place: every
/// plan of a step but one full plan of the queue.
struct CountingTuner {
    tuner: SelfTuning,
    /// Σ queued jobs over the steps.
    queued: usize,
    /// Σ jobs placed by challenger plans over the steps.
    placed: usize,
}

impl PolicySelector for CountingTuner {
    fn select(&mut self, problem: &SchedulingProblem) -> Result<(Policy, Schedule), PlanError> {
        let out = self.tuner.step(problem)?;
        let full = out.evaluations.len().saturating_sub(out.cut.len() + 1);
        let cut: usize = out.cut.iter().map(|&(_, placed)| placed).sum();
        self.queued += problem.len();
        self.placed += full * problem.len() + cut;
        Ok((out.chosen, out.schedule))
    }

    fn label(&self) -> String {
        self.tuner.label()
    }
}

/// How much of its queue a challenger plan places before its bound
/// rules it out, over a deep replay: the 1 000 jobs of the service
/// backlog above, submitted one by one. A change that cuts challengers
/// later — or never — moves the count; the decisions are pinned above.
/// The steps queue 186 742 jobs in all, so a step plans 2 · 186 742
/// challenger jobs without the bound.
#[test]
fn challenger_placements_are_pinned() {
    let model = CtcModel {
        mean_interarrival: 5.0,
        ..CtcModel::default()
    };
    let trace = model.generate(1000, 42);
    let counting = CountingTuner {
        tuner: SelfTuning::paper_config(Metric::SldwA),
        queued: 0,
        placed: 0,
    };
    let run = simulate(&trace.jobs, counting, SimConfig::new(trace.machine_size));
    assert_eq!(run.records.len(), trace.jobs.len());
    let CountingTuner { queued, placed, .. } = run.selector;
    // 199 525 with the bound that puts every unplaced job at `now` alone.
    assert_eq!((queued, placed), (186_742, 88_089));
}

/// Every body the service renders for one job sequence with declines and
/// a backlog: the decisions, `GET /v1/schedule` and the stats after every
/// batch, and `GET /v1/jobs/<id>` and `/trace` for every id after every
/// fourth batch and after the drain — jobs waiting, running, completed
/// and declined. A core restored from the mid-stream snapshot renders the
/// same bodies from there on. The job-view constant was recorded on the
/// commit before the kernel's running set became the machine's; the trace
/// constant there too, with the `last_start` and `replans` members (no
/// longer kept) taken out of each body.
#[test]
fn service_views_are_pinned() {
    let model = CtcModel {
        mean_interarrival: 5.0,
        ..CtcModel::default()
    };
    let trace = model.generate(240, 7);
    let requests: Vec<JobRequest> = (0..)
        .zip(&trace.jobs)
        .map(|(k, j)| JobRequest {
            // Every 25th job is wider than the machine.
            width: if k % 25 == 3 { trace.machine_size + 1 } else { j.width },
            runtime: j.estimated_duration,
            actual_runtime: Some(j.actual_duration),
            submit: Some(j.submit),
        })
        .collect();
    let tuner = || SelfTuning::paper_config(Metric::SldwA);
    let mut live = ServiceCore::new(trace.machine_size, tuner());
    let mut restored: Option<ServiceCore> = None;
    let (mut views, mut traces) = (String::new(), String::new());
    let mut deepest = 0;
    for (k, group) in requests.chunks(16).enumerate() {
        if k == 6 {
            let snapshot = live.snapshot();
            restored = Some(ServiceCore::restore(trace.machine_size, tuner(), &snapshot).unwrap());
        }
        views.push_str(&decisions_body(&live.submit_batch(group), true));
        if let Some(twin) = &mut restored {
            twin.submit_batch(group);
        }
        deepest = deepest.max(live.in_flight());
        render_state(&live, k % 4 == 3, &mut views, &mut traces);
    }
    live.drain();
    render_state(&live, true, &mut views, &mut traces);
    assert!(deepest > 60, "the backlog never grew: {deepest} in flight");

    let mut twin = restored.expect("restored mid-stream");
    twin.drain();
    for id in 0..live.submitted() as u32 {
        assert_eq!(twin.job_view(id), live.job_view(id), "job {id}");
        assert_eq!(twin.trace_json(id), live.trace_json(id), "trace {id}");
    }
    assert_eq!(
        (digest(&views), digest(&traces)),
        ("c6a3fb04dd959301".to_string(), "2762a268eb64df20".to_string())
    );
}

/// Appends the schedule view and the stats to `views`, and with
/// `per_job` every job's status body to `views` and trace body to
/// `traces`.
fn render_state(core: &ServiceCore, per_job: bool, views: &mut String, traces: &mut String) {
    views.push_str(&core.schedule_view().to_json().to_json());
    views.push_str(&core.stats_json().to_json());
    if per_job {
        for id in 0..core.submitted() as u32 {
            views.push_str(&core.job_view(id).expect("assigned").to_json());
            traces.push_str(&core.trace_json(id).expect("recorded").to_json());
        }
    }
}
