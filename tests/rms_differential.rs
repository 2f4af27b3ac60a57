//! Differential test serve ≡ sim: the two drivers of the one RMS kernel
//! (`dynp_sim::Rms`) must turn the same trace into the same job records
//! and the same policy sequence.
//!
//! The trace is replayed (a) through [`simulate`] — the DES driver — and
//! (b) through [`ServiceCore::submit_batch`] one job per batch, then
//! [`ServiceCore::drain`] — the logical-clock driver. Both tune once per
//! submission and re-plan with the active policy on every completion, so
//! everything downstream of event order is the kernel's and must agree.
//!
//! **Precondition, asserted below:** no completion time equals a submit
//! time or another completion time. That is the one place the two drivers
//! order events differently — at an equal timestamp the DES runs the
//! pre-loaded submit before the finish and finishes in dispatch order,
//! while serve completes everything `<= t` in `(end, id)` order before
//! admitting the batch at `t` (`DESIGN.md` §4, "One RMS kernel, two
//! drivers") — so a trace with such a tie may legitimately diverge.

use dynp_rs::prelude::*;
use dynp_rs::sim::JobRecord;
use dynp_rs::trace::filter::overestimate;
use std::collections::HashSet;

const NODES: u32 = 64;

/// The traces compared: `(seed, burst_probability)`. One with the CTC
/// model's script bursts (many jobs sharing a submit time), one without
/// (more policy switches); both seeds picked so the precondition holds.
const TRACES: [(u64, f64); 2] = [(4, 0.06), (1, 0.0)];

/// 300 jobs of a contended CTC-like trace whose runtime estimates are
/// twice the actual runtimes (so completions pull the plan forward), with
/// ids renumbered in submit order — the ids serve will assign.
fn trace(seed: u64, burst_probability: f64) -> Vec<Job> {
    let model = CtcModel {
        nodes: NODES,
        mean_interarrival: 100.0,
        burst_probability,
        ..CtcModel::default()
    };
    let mut jobs = overestimate(&model.generate(300, seed).jobs, 2.0);
    jobs.sort_by_key(|j| j.submit);
    renumber(&mut jobs);
    jobs
}

fn renumber(jobs: &mut [Job]) {
    for (id, job) in (0u32..).zip(jobs.iter_mut()) {
        job.id = JobId(id);
    }
}

/// Replays `jobs` through the DES driver: records in completion order,
/// one policy per tuning step, ids of the jobs it refused.
fn through_sim(jobs: &[Job]) -> (Vec<JobRecord>, Vec<Policy>, Vec<u32>) {
    let run = simulate(
        jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(NODES),
    );
    let policies = run.policy_log.iter().map(|&(_, p)| p).collect();
    let refused = run.skipped.iter().map(|j| j.id.0).collect();
    (run.records, policies, refused)
}

/// Replays `jobs` through the service core, one job per batch.
fn through_serve(jobs: &[Job]) -> (Vec<JobRecord>, Vec<Policy>, Vec<u32>) {
    let mut core = ServiceCore::new(NODES, SelfTuning::paper_config(Metric::SldwA));
    let (mut policies, mut refused) = (Vec::new(), Vec::new());
    for job in jobs {
        let decisions = core.submit_batch(&[JobRequest {
            width: job.width,
            runtime: job.estimated_duration,
            actual_runtime: Some(job.actual_duration),
            submit: Some(job.submit),
        }]);
        assert_eq!(
            decisions[0].id, job.id.0,
            "serve assigns ids in admission order"
        );
        match decisions[0].declined {
            Some(_) => refused.push(decisions[0].id),
            None => policies.push(decisions[0].policy),
        }
    }
    core.drain();
    (core.records().to_vec(), policies, refused)
}

/// The precondition of the module docs, checked on the records the run
/// actually produced.
fn assert_no_event_ties(jobs: &[Job], records: &[JobRecord]) {
    let submits: HashSet<u64> = jobs.iter().map(|j| j.submit).collect();
    let mut ends = HashSet::new();
    for r in records {
        assert!(
            !submits.contains(&r.end),
            "job {} completes at t={}, a submit time: pick another seed",
            r.id,
            r.end
        );
        assert!(
            ends.insert(r.end),
            "two jobs complete at t={}: pick another seed",
            r.end
        );
    }
}

#[test]
fn serve_and_sim_agree_on_records_and_policies() {
    for (seed, burst_probability) in TRACES {
        agree_on(&trace(seed, burst_probability));
    }
}

fn agree_on(jobs: &[Job]) {
    let (sim_records, sim_policies, sim_refused) = through_sim(jobs);
    assert_no_event_ties(jobs, &sim_records);
    let (serve_records, serve_policies, serve_refused) = through_serve(jobs);

    assert_eq!(sim_records.len(), jobs.len());
    assert_eq!(
        sim_records, serve_records,
        "job records, in completion order"
    );
    assert_eq!(
        sim_policies.len(),
        jobs.len(),
        "one tuning step per submission"
    );
    assert_eq!(
        sim_policies, serve_policies,
        "per-submission policy sequence"
    );
    assert!(sim_refused.is_empty() && serve_refused.is_empty());
    // The comparison is only worth something if the run exercised the
    // interesting paths: queueing, early completions, policy switches.
    assert!(
        sim_records.iter().any(|r| r.wait() > 0),
        "nothing ever queued"
    );
    assert!(
        sim_records
            .iter()
            .any(|r| r.runtime() < r.estimated_duration),
        "nothing finished early"
    );
    assert!(
        sim_policies.windows(2).any(|w| w[0] != w[1]),
        "dynP never switched"
    );
}

#[test]
fn both_drivers_decline_a_too_wide_job_alone() {
    let clean = trace(TRACES[0].0, TRACES[0].1);
    // Inject a job wider than the machine mid-trace, into a busy queue.
    let at = 120;
    let mut dirty = clean.clone();
    dirty.insert(at, Job::new(0, clean[at].submit, NODES + 1, 600, 300));
    renumber(&mut dirty);

    let (sim_records, sim_policies, sim_refused) = through_sim(&dirty);
    assert_no_event_ties(&dirty, &sim_records);
    let (serve_records, serve_policies, serve_refused) = through_serve(&dirty);

    assert_eq!(sim_refused, [at as u32]);
    assert_eq!(serve_refused, [at as u32]);
    assert_eq!(sim_records, serve_records);
    assert_eq!(sim_policies, serve_policies);

    // "Alone": every other job fares exactly as if the bad job had never
    // been submitted (ids after it shift by one, nothing else).
    let (clean_records, clean_policies, _) = through_sim(&clean);
    let unshifted: Vec<JobRecord> = sim_records
        .iter()
        .map(|r| JobRecord {
            id: JobId(if r.id.0 > at as u32 {
                r.id.0 - 1
            } else {
                r.id.0
            }),
            ..*r
        })
        .collect();
    assert_eq!(unshifted, clean_records);
    assert_eq!(sim_policies, clean_policies);
}
