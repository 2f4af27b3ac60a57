//! Every decision of the shared RMS kernel pinned to recorded bytes.
//!
//! Three replays are folded with FNV-1a (`obs::checkpoint::fnv1a64`) and
//! compared with constants recorded before the kernel's running set,
//! history → profile build and in-order metric evaluation were rewritten:
//!
//! * a 2 000-job default-CTC replay under `SelfTuning::paper_config(SldwA)`
//!   — every job record, the policy log and the SLDwA summary by its bits;
//! * the same replay with self-tuning on completions too;
//! * a 5 s-interarrival 1 000-job trace through `ServiceCore::submit_batch`
//!   at 32 jobs a batch plus the drain — every decision body and record.
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
    assert_eq!(sim_digest(false), "e0b10e99e5363d35");
}

#[test]
fn completion_tuned_replay_is_pinned() {
    assert_eq!(sim_digest(true), "3a29940f14c1db7a");
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
