//! Differential test serve ≡ sim: the two drivers of the one RMS kernel
//! (`dynp_sim::Rms`) must turn the same trace into the same job records,
//! the same policy sequence and the same refusals.
//!
//! A trace is replayed (a) through [`simulate`] and (b) through
//! [`ServiceCore::submit_batch`] one job per batch, then
//! [`ServiceCore::drain`]. Both run the kernel's one loop — before each
//! submission every completion due by its time, in `(end, id)` order — so
//! they must agree on every trace, ties included. The property's traces
//! put every time on a coarse grid: bursts share a second, and
//! completions meet submissions and each other in every case.

use dynp_rs::prelude::*;
use dynp_rs::sim::JobRecord;
use dynp_rs::trace::filter::overestimate;
use proptest::prelude::*;
use std::collections::HashSet;

const NODES: u32 = 64;

/// `n` jobs of a contended CTC-like trace on [`NODES`] nodes, runtimes
/// capped at three hours so jobs complete while others still arrive,
/// estimates twice the actual runtimes (so completions pull the plan
/// forward), every submit time and runtime rounded up to `grain` seconds.
fn trace(n: usize, seed: u64, burst_probability: f64, grain: u64) -> Vec<Job> {
    let model = CtcModel {
        nodes: NODES,
        mean_interarrival: 100.0,
        burst_probability,
        max_runtime: 3 * 3600,
        ..CtcModel::default()
    };
    let up = |t: u64| t.div_ceil(grain) * grain;
    let jobs: Vec<Job> = overestimate(&model.generate(n, seed).jobs, 2.0)
        .into_iter()
        .map(|j| Job {
            submit: up(j.submit),
            estimated_duration: up(j.estimated_duration),
            actual_duration: up(j.actual_duration),
            ..j
        })
        .collect();
    in_submit_order(jobs)
}

/// `jobs` sorted by submit time (ties in input order) with ids
/// renumbered in that order — the ids serve will assign.
fn in_submit_order(mut jobs: Vec<Job>) -> Vec<Job> {
    jobs.sort_by_key(|j| j.submit);
    renumber(&mut jobs);
    jobs
}

fn renumber(jobs: &mut [Job]) {
    for (id, job) in (0u32..).zip(jobs.iter_mut()) {
        job.id = JobId(id);
    }
}

/// What a driver made of a trace: records in completion order, one
/// policy per tuning step, ids of the jobs it refused.
type Outcome = (Vec<JobRecord>, Vec<Policy>, Vec<u32>);

fn through_sim(jobs: &[Job], nodes: u32) -> Outcome {
    let run = simulate(
        jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(nodes),
    );
    let policies = run.policy_log.iter().map(|&(_, p)| p).collect();
    let refused = run.skipped.iter().map(|j| j.id.0).collect();
    (run.records, policies, refused)
}

/// Replays `jobs` through the service core, one job per batch.
fn through_serve(jobs: &[Job], nodes: u32) -> Outcome {
    let mut core = ServiceCore::new(nodes, SelfTuning::paper_config(Metric::SldwA));
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

/// `(completions at a submit time, completions at an end an earlier
/// completion already had)` — the ties a replay met.
fn ties(jobs: &[Job], records: &[JobRecord]) -> (usize, usize) {
    let submits: HashSet<u64> = jobs.iter().map(|j| j.submit).collect();
    let at_submit = records.iter().filter(|r| submits.contains(&r.end)).count();
    let ends: HashSet<u64> = records.iter().map(|r| r.end).collect();
    (at_submit, records.len() - ends.len())
}

/// Both drivers agree on `jobs`; returns the sim's outcome.
fn agree_on(jobs: &[Job], nodes: u32) -> Outcome {
    let sim = through_sim(jobs, nodes);
    let serve = through_serve(jobs, nodes);
    assert_eq!(sim.0, serve.0, "job records, in completion order");
    assert_eq!(sim.1, serve.1, "per-submission policy sequence");
    assert_eq!(sim.2, serve.2, "refused ids");
    assert_eq!(sim.0.len() + sim.2.len(), jobs.len(), "every job accounted for");
    sim
}

proptest! {
    #[test]
    fn serve_and_sim_agree_on_records_and_policies(
        seed in 0u64..1_000_000,
        burst in 0usize..3,
        grain in 0usize..2,
    ) {
        let jobs = trace(150, seed, [0.0, 0.06, 0.12][burst], [300, 900][grain]);
        let (records, policies, refused) = agree_on(&jobs, NODES);
        prop_assert!(refused.is_empty());
        prop_assert_eq!(policies.len(), jobs.len(), "one tuning step per submission");
        let (at_submit, shared) = ties(&jobs, &records);
        prop_assert!(at_submit > 0 && shared > 0, "no ties: {} / {}", at_submit, shared);
        prop_assert!(records.iter().any(|r| r.wait() > 0), "nothing ever queued");
    }
}

/// The 2 000-job seed-42 trace of `tests/pinned_replays.rs`, whose replay
/// has 23 completions at a submit time and 93 at an end an earlier
/// completion already had.
#[test]
fn serve_and_sim_agree_on_the_pinned_trace() {
    let trace = CtcModel::default().generate(2000, 42);
    let jobs = in_submit_order(trace.jobs.clone());
    assert_eq!(jobs, trace.jobs, "already in submit order");
    let (records, policies, _) = agree_on(&jobs, trace.machine_size);
    assert_eq!(ties(&jobs, &records), (23, 93));
    assert!(
        records.iter().any(|r| r.runtime() < r.estimated_duration),
        "nothing finished early"
    );
    assert!(
        policies.windows(2).any(|w| w[0] != w[1]),
        "dynP never switched"
    );
}

#[test]
fn both_drivers_decline_a_too_wide_job_alone() {
    let clean = trace(300, 4, 0.06, 60);
    // Inject a job wider than the machine mid-trace, into a busy queue.
    let at = 120;
    let mut dirty = clean.clone();
    dirty.insert(at, Job::new(0, clean[at].submit, NODES + 1, 600, 300));
    renumber(&mut dirty);

    let (records, policies, refused) = agree_on(&dirty, NODES);
    assert_eq!(refused, [at as u32]);

    // "Alone": every other job fares exactly as if the bad job had never
    // been submitted (ids after it shift by one, nothing else).
    let (clean_records, clean_policies, _) = through_sim(&clean, NODES);
    let unshifted: Vec<JobRecord> = records
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
    assert_eq!(policies, clean_policies);
}
