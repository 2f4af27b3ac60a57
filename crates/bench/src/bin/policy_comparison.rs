//! Context experiment (DESIGN.md §3): fixed FCFS / SJF / LJF versus the
//! self-tuning dynP scheduler on a full CTC-like trace — the comparison
//! that motivates dynP in the first place (§1–§2 of the paper).
//!
//! Prints actual-time metrics per scheduler: average response time, ARTwW,
//! average wait, SLDwA, utilization, plus dynP's switching behaviour.
//! Writes `results/policy_comparison.{txt,json,events.jsonl}`.
//!
//! Usage: `cargo run --release -p dynp-bench --bin policy_comparison [n_jobs] [seed] [--watch <addr>]`

use dynp_bench::{cli_args_and_watch, ctc_trace, start_watch, Report};
use dynp_core::{Decider, FixedPolicy, SelfTuning};
use dynp_obs::JsonValue;
use dynp_sched::{Metric, Policy};
use dynp_sim::{simulate, simulate_queue, QueueDiscipline, SimConfig, SimSummary};
use std::fmt::Display;

/// Writes one scheduler's text row, `extra` in the last column, and
/// returns its JSON row for the caller to tag.
fn row(report: &mut Report, label: &str, s: &SimSummary, extra: impl Display) -> JsonValue {
    report.line(format!(
        "{:<16} {:>9.0}s {:>9.0}s {:>9.0}s {:>8.2} {:>6.1}% {:>9}",
        label,
        s.avg_response,
        s.artww,
        s.avg_wait,
        s.sldwa,
        s.utilization * 100.0,
        extra
    ));
    JsonValue::object()
        .with("label", label)
        .with("avg_response", s.avg_response)
        .with("artww", s.artww)
        .with("avg_wait", s.avg_wait)
        .with("sldwa", s.sldwa)
        .with("utilization", s.utilization)
}

fn main() {
    let (args, watch_addr) = cli_args_and_watch();
    let mut args = args.into_iter();
    let n_jobs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2004);

    let mut report = Report::new("policy_comparison");
    let _watch = start_watch(watch_addr.as_deref());

    eprintln!("generating CTC-like trace: {n_jobs} jobs, seed {seed} ...");
    let trace = ctc_trace(n_jobs, seed);
    report.set(
        "params",
        JsonValue::object()
            .with("n_jobs", n_jobs)
            .with("seed", seed)
            .with("machine_size", trace.machine_size),
    );

    let mut schedulers = JsonValue::array();

    report.blank();
    report.line(format!(
        "Policy comparison on a CTC-like trace ({} jobs, {} nodes)",
        n_jobs, trace.machine_size
    ));
    report.line(format!(
        "{:<16} {:>10} {:>10} {:>10} {:>8} {:>7} {:>9}",
        "scheduler", "avg resp", "ARTwW", "avg wait", "SLDwA", "util", "switches"
    ));

    for policy in Policy::PAPER_SET {
        let run = simulate(
            &trace.jobs,
            FixedPolicy(policy),
            SimConfig::new(trace.machine_size),
        );
        schedulers.push(row(&mut report, &run.label, &run.summary, "-").with("kind", "fixed"));
    }

    // Queue-based architectures for contrast (paper §1/[4]: queuing vs
    // planning; planning-based FCFS backfills implicitly, a plain queue
    // does not).
    for (label, discipline) in [
        ("queue-FCFS", QueueDiscipline::Plain),
        ("queue-EASY", QueueDiscipline::EasyBackfill),
    ] {
        let (records, backfills) =
            simulate_queue(&trace.jobs, trace.machine_size, Policy::Fcfs, discipline);
        let s = SimSummary::compute(&records, trace.machine_size);
        schedulers.push(
            row(&mut report, label, &s, format!("bf:{backfills}"))
                .with("kind", "queue")
                .with("backfills", backfills),
        );
    }

    for (label, decider) in [
        ("dynP(simple)", Decider::Simple),
        ("dynP(advanced)", Decider::Advanced),
    ] {
        let tuner = SelfTuning::new(Policy::PAPER_SET.to_vec(), Metric::SldwA, decider);
        let run = simulate(&trace.jobs, tuner, SimConfig::new(trace.machine_size));
        let switches = run.selector.stats().switches();
        schedulers.push(
            row(&mut report, label, &run.summary, switches)
                .with("kind", "dynp")
                .with("switches", switches),
        );
    }
    report.set("schedulers", schedulers);

    report.blank();
    report.line(
        "expectation (paper §1-§2): no single fixed policy dominates; dynP tracks\n\
         the best policy as job characteristics change, so its response-time and\n\
         slowdown metrics should be at or better than the best fixed policy.",
    );
    report.finish().expect("writing results/");
}
