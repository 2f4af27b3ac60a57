//! `serve_core_backlog`: the service core fed in-process, 32 jobs per
//! batch, arrivals 5 s apart so the backlog grows to about half the
//! trace; then the drain (two variants of the trace a rep, each
//! into a fresh core). Every step plans the whole deep queue three
//! times and every completion re-plans it, so the planner, the profile
//! and the RMS bookkeeping do all the work and the wire does none: this
//! workload must move on planner changes and stay flat on wire changes.

use super::probes::{self, StepCost};
use super::{measure, ms_since, timed_setup, warm_up, Ctx, Quiet};
use crate::inputs::{backlog_traces, digest, requests, CTC_NODES};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::quantile;
use dynp_core::SelfTuning;
use dynp_sched::Metric;
use dynp_serve::api::decisions_body;
use dynp_serve::{JobRequest, ServiceCore};
use std::time::Instant;

/// Jobs per `submit_batch` call.
const BATCH: usize = 32;

/// What a rep saw per batch, for the residual estimate.
#[derive(Default)]
struct BatchLog {
    ms: Vec<f64>,
    /// One drain per trace.
    drain_ms: Vec<f64>,
    /// Jobs in flight after the batch and completions during it.
    depth: Vec<usize>,
    completions: Vec<usize>,
}

/// One rep: every trace submitted into a fresh core and drained.
fn one_rep(
    traces: &[Vec<JobRequest>],
    tracer: &mut Tracer,
    report: &mut Report,
    log: &mut BatchLog,
) -> f64 {
    *log = BatchLog::default();
    let mut replies = Vec::new();
    let mut records = Vec::new();
    let (mut steps, mut replans) = (0, 0);
    let root = tracer.enter("workload.rep");
    for requests in traces {
        let mut core = ServiceCore::new(CTC_NODES, SelfTuning::paper_config(Metric::SldwA));
        for group in requests.chunks(BATCH) {
            let done_before = core.records().len();
            let t = Instant::now();
            replies.push(tracer.span("serve.core.submit_batch", || core.submit_batch(group)));
            log.ms.push(ms_since(t));
            log.depth.push(core.in_flight());
            log.completions.push(core.records().len() - done_before);
        }
        replans += core.records().len();
        let t = Instant::now();
        tracer.span("serve.core.drain", || core.drain());
        log.drain_ms.push(ms_since(t));
        steps += core.tuner_steps();
        records.extend_from_slice(core.records());
    }
    tracer.exit(root);
    let wall = (log.ms.iter().sum::<f64>() + log.drain_ms.iter().sum::<f64>()) / 1e3;

    let jobs: usize = traces.iter().map(Vec::len).sum();
    if tracer.on() {
        report.push("serve.core.submit_batch_ms_p50", quantile(&log.ms, 0.5));
        report.push("serve.core.submit_batch_ms_p90", quantile(&log.ms, 0.9));
        report.push("serve.core.tuning_steps", steps as f64);
        report.push("serve.core.replans", replans as f64);
        report.push(
            "serve.core.max_in_flight",
            log.depth.iter().copied().max().unwrap_or(0) as f64,
        );
        report.push("serve.core.drain_s", log.drain_ms.iter().sum::<f64>() / 1e3);
    }

    // Output checks: every job admitted and, after the drain, completed;
    // the decision bytes and job records repeat exactly.
    let declined = replies
        .iter()
        .flatten()
        .filter(|d| d.declined.is_some())
        .count();
    report.attempted += jobs as u64;
    report.failed += (jobs - records.len().min(jobs) + declined) as u64;
    let mut bytes = String::new();
    for decisions in &replies {
        bytes.push_str(&decisions_body(decisions, true));
    }
    for record in &records {
        bytes.push_str(&record.to_json().to_json());
    }
    report.check_same("decisions_digest", digest(bytes.as_bytes()));
    wall
}

/// Microseconds of a cost that grows as a power law between probe depths.
fn interpolate(costs: &[StepCost; 3], depth: usize, pick: impl Fn(&StepCost) -> f64) -> f64 {
    let d = depth.max(1) as f64;
    let (lo, hi) = if depth <= costs[1].depth {
        (&costs[0], &costs[1])
    } else {
        (&costs[1], &costs[2])
    };
    let slope = (pick(hi) / pick(lo)).ln() / (hi.depth as f64 / lo.depth as f64).ln();
    pick(lo) * (d / lo.depth as f64).powf(slope)
}

/// The share of the submit loop that the probed kernel costs do not
/// explain: each batch is one tuning step at its depth plus one re-plan
/// per completion; what is left is the core's own bookkeeping (queue
/// clone, history rebuild, timelines).
fn self_share(costs: &[StepCost; 3], log: &BatchLog) -> f64 {
    let explained_us: f64 = log
        .depth
        .iter()
        .zip(&log.completions)
        .map(|(&depth, &completions)| {
            interpolate(costs, depth, |c| c.step_us)
                + completions as f64 * interpolate(costs, depth, |c| c.build_us + c.plan_us)
        })
        .sum();
    1.0 - explained_us / 1e3 / log.ms.iter().sum::<f64>()
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let (count, n) = (ctx.sizes.core_traces, ctx.sizes.core_jobs);
    let traces = timed_setup(report, || {
        let traces: Vec<Vec<JobRequest>> = backlog_traces(count, n, ctx.seed)
            .iter()
            .map(|jobs| requests(jobs))
            .collect();
        warm_up(|t, r| {
            one_rep(
                &[traces[0][..n / 4].to_vec()],
                t,
                r,
                &mut BatchLog::default(),
            )
        });
        traces
    });
    let (mut log, mut quiet) = (BatchLog::default(), Quiet::default());
    let mut rep = |tracer: &mut Tracer, report: &mut Report| {
        let wall = one_rep(&traces, tracer, report, &mut log);
        if !tracer.on() {
            quiet.push(&log.ms, &log.drain_ms);
        }
        wall
    };
    let budget = if ctx.trace {
        ctx.seconds * 0.7
    } else {
        ctx.seconds
    };
    measure(ctx, report, tracer, budget, &mut rep);
    quiet.report(report, count * n, 0.9);
    if ctx.trace {
        let costs = probes::planner(ctx, report, ctx.seconds * 0.25);
        report.push("serve.core.self_share", self_share(&costs, &log));
    }
}
