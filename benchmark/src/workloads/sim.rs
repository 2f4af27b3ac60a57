//! `sim_replay`: `sim::simulate` of the default CTC trace (369 s
//! interarrival, utilisation about 0.9; three variants a rep) under the
//! paper's self-tuning configuration. The queue stays shallow, so each of
//! the thousands of tuning steps is dominated by its fixed cost
//! (allocation, clones, history build, the event loop) rather than by
//! `plan`: the same kernel as `serve_core_backlog`, used the other way.
//! This is the paper's policy side and the inner loop of every campaign.
//!
//! Like every CPU-bound workload it runs on one CPU (`workloads::run`).
//! It is where that matters most: with two, every tuning step fans its
//! three plans out over freshly spawned threads, which on this VM costs
//! more than the plans themselves (43 % of the replay's CPU time was
//! system time, at 0.01 minor faults per job) and swings by ±20 % from
//! one run to the next.

use super::{measure, ms_since, probes, timed_setup, warm_up, Ctx, Quiet};
use crate::inputs::{digest, shallow_traces, CTC_NODES};
use crate::report::Report;
use crate::spans::Tracer;
use crate::sys::Usage;
use dynp_core::SelfTuning;
use dynp_sched::Metric;
use dynp_sim::{simulate, SimConfig};
use dynp_trace::Job;
use std::time::Instant;

/// One rep: every trace replayed once; `replay_ms` is left holding the
/// time of every replay.
fn one_rep(
    traces: &[Vec<Job>],
    tracer: &mut Tracer,
    report: &mut Report,
    replay_ms: &mut Vec<f64>,
) -> f64 {
    replay_ms.clear();
    let before = Usage::now();
    let root = tracer.enter("workload.rep");
    let started = Instant::now();
    let runs: Vec<_> = traces
        .iter()
        .map(|jobs| {
            let t = Instant::now();
            let run = tracer.span("sim.run.simulate", || {
                simulate(
                    jobs,
                    SelfTuning::paper_config(Metric::SldwA),
                    SimConfig::new(CTC_NODES),
                )
            });
            replay_ms.push(ms_since(t));
            run
        })
        .collect();
    let wall = started.elapsed().as_secs_f64();
    tracer.exit(root);
    let used = Usage::now().since(before);

    let jobs: usize = traces.iter().map(Vec::len).sum();
    let sldwa = runs.iter().map(|r| r.summary.sldwa).sum::<f64>() / runs.len() as f64;
    if tracer.on() {
        let stats = |f: fn(&dynp_core::TuningStats) -> usize| {
            runs.iter().map(|r| f(r.selector.stats())).sum::<usize>() as f64
        };
        report.push("sim.run.steps", stats(|s| s.steps()));
        report.push("sim.run.switches", stats(|s| s.switches()));
        report.push("sim.run.sldwa", sldwa);
        report.push("sim.run.user_s", used.user_s);
        report.push("sim.run.sys_s", used.sys_s);
        report.push(
            "sim.run.minflt_per_job",
            used.minor_faults as f64 / jobs as f64,
        );
    }

    // Output checks: every job completed; the records repeat exactly.
    let completed: usize = runs.iter().map(|r| r.records.len()).sum();
    report.attempted += jobs as u64;
    report.failed += (jobs - completed.min(jobs)) as u64;
    let mut bytes = String::new();
    for record in runs.iter().flat_map(|r| &r.records) {
        bytes.push_str(&record.to_json().to_json());
    }
    report.check_same("decisions_digest", digest(bytes.as_bytes()));
    report.check_same("sim.run.sldwa", format!("{sldwa:?}"));
    wall
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let (count, n) = (ctx.sizes.sim_traces, ctx.sizes.sim_jobs);
    let mut generate_ms = 0.0;
    let jobs = timed_setup(report, || {
        let started = Instant::now();
        let traces = shallow_traces(count, n, ctx.seed);
        generate_ms = started.elapsed().as_secs_f64() * 1e3;
        warm_up(|t, r| one_rep(&traces[..1], t, r, &mut Vec::new()));
        traces
    });
    // One replay is one operation; a rep has a few of them: enough for
    // an upper quartile, not for a p90.
    let (mut replay_ms, mut quiet) = (Vec::new(), Quiet::default());
    let budget = if ctx.trace {
        ctx.seconds * 0.7
    } else {
        ctx.seconds
    };
    measure(
        ctx,
        report,
        tracer,
        budget,
        |tracer: &mut Tracer, report: &mut Report| {
            let wall = one_rep(&jobs, tracer, report, &mut replay_ms);
            if !tracer.on() {
                quiet.push(&replay_ms, &[]);
            }
            wall
        },
    );
    quiet.report(report, count * n, 0.75);
    if ctx.trace {
        report.push("trace.synth.generate_ms", generate_ms);
        probes::planner(ctx, report, ctx.seconds * 0.25);
    }
}
