//! Planner hot-path benchmark: the pre-overhaul planner (per-policy
//! profile rebuild, binary-search-restart `earliest_fit`) against the
//! current one (shared profile, `compress_before`, skip-scan fit), both
//! planning their policies in a serial loop, measured as complete
//! `SelfTuning::step` calls at several queue depths.
//!
//! The baseline below is a faithful transcription of the pre-overhaul
//! code path — the same one `tests/planner_differential.rs` proves
//! bit-identical to the current planner — so the ratio is a real
//! apples-to-apples speedup, not a strawman. Before timing, the run
//! re-asserts schedule equality at every depth.
//!
//! Writes `results/planner_hot.{txt,json,events.jsonl}` plus the
//! repo-root `BENCH_planner.json` summary (shape documented in
//! DESIGN.md), self-validating both JSON documents with the
//! `dynp_obs::json` parser.
//!
//! Usage: `cargo run --release -p dynp-bench --bin planner_hot \
//!             [depths_csv=100,1000,5000] [iters=3] [--watch <addr>]`

use dynp_bench::{busy_snapshot, cli_args_and_watch, start_watch, Report, CTC_NODES};
use dynp_core::{Decider, SelfTuning};
use dynp_obs::JsonValue;
use dynp_platform::ResourceProfile;
use dynp_sched::{Metric, Policy, Schedule, ScheduleEntry, SchedulingProblem};
use std::time::Instant;

/// Pre-overhaul `ResourceProfile::earliest_fit`: restart at the next
/// segment after any blocking one, re-running the entry binary search.
fn earliest_fit_reference(
    profile: &ResourceProfile,
    earliest: u64,
    duration: u64,
    width: u32,
) -> Option<u64> {
    if width > profile.capacity() {
        return None;
    }
    if width == 0 {
        return Some(earliest);
    }
    let steps = profile.steps();
    let mut t = earliest;
    'outer: loop {
        let end = t.saturating_add(duration.max(1));
        let first = steps.partition_point(|&(time, _)| time <= t) - 1;
        for (i, &(time, free)) in steps[first..].iter().enumerate() {
            if time >= end {
                break;
            }
            if free < width {
                let seg = first + i;
                match steps.get(seg + 1) {
                    Some(&(next_time, _)) => {
                        t = next_time;
                        continue 'outer;
                    }
                    None => return None,
                }
            }
        }
        return Some(t);
    }
}

/// Pre-overhaul `plan`: profile rebuilt from the snapshot per call.
fn plan_reference(problem: &SchedulingProblem, policy: Policy) -> Schedule {
    let mut profile = problem.availability_profile();
    let mut schedule = Schedule::new();
    for job in policy.order(&problem.jobs) {
        let duration = job.estimated_duration.max(1);
        let start = earliest_fit_reference(&profile, problem.now, duration, job.width)
            .expect("job fits the machine");
        profile.allocate(start, start + duration, job.width);
        schedule.push(ScheduleEntry {
            id: job.id,
            start,
            end: start + duration,
            width: job.width,
        });
    }
    schedule
}

/// Pre-overhaul self-tuning step: serial plan-evaluate loop over the
/// paper's policy set, then the same advanced decider.
fn step_reference(problem: &SchedulingProblem, metric: Metric) -> (Policy, Schedule) {
    let mut evaluations = Vec::new();
    let mut schedules = Vec::new();
    for policy in Policy::PAPER_SET {
        let schedule = plan_reference(problem, policy);
        evaluations.push((policy, metric.eval(problem, &schedule)));
        schedules.push(schedule);
    }
    let chosen = Decider::Advanced.decide(metric, &evaluations, Policy::PAPER_SET[0]);
    let idx = evaluations
        .iter()
        .position(|&(p, _)| p == chosen)
        .expect("decider returned an evaluated policy");
    (chosen, schedules.swap_remove(idx))
}

/// Minimum wall-clock over `iters` runs of `f`, in milliseconds.
fn time_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn validate_or_die(what: &str, json: &str) {
    if let Err(e) = dynp_obs::json::validate(json) {
        eprintln!("{what}: invalid JSON produced: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let (args, watch_addr) = cli_args_and_watch();
    let mut args = args.into_iter();
    let depths: Vec<usize> = args
        .next()
        .unwrap_or_else(|| "100,1000,5000".into())
        .split(',')
        .map(|d| d.trim().parse().expect("depth list: comma-separated usize"))
        .collect();
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let metric = Metric::SldwA;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut report = Report::new("planner_hot");
    let _watch = start_watch(watch_addr.as_deref());
    report.line(format!(
        "Planner hot path: full SelfTuning::step, pre-overhaul vs current \
         ({CTC_NODES}-node machine, {cores} core(s), min of {iters} runs)"
    ));
    report.line(format!(
        "{:>7} {:>14} {:>14} {:>9}",
        "depth", "baseline (ms)", "optimized (ms)", "speedup"
    ));

    let mut rows = JsonValue::array();
    let mut speedup_at_1k: Option<f64> = None;
    for &depth in &depths {
        let problem = busy_snapshot(depth, CTC_NODES, 1729 + depth as u64);

        // Correctness first: the two paths must agree bit-for-bit.
        let (ref_chosen, ref_schedule) = step_reference(&problem, metric);
        let out = SelfTuning::paper_config(metric)
            .step(&problem)
            .expect("busy_snapshot jobs all fit the machine");
        assert_eq!(out.chosen, ref_chosen, "depth {depth}: chosen policy differs");
        assert_eq!(
            out.schedule, ref_schedule,
            "depth {depth}: schedules differ between baseline and optimized"
        );

        let baseline_ms = time_ms(iters, || {
            std::hint::black_box(step_reference(&problem, metric));
        });
        let optimized_ms = time_ms(iters, || {
            let _ = std::hint::black_box(SelfTuning::paper_config(metric).step(&problem));
        });
        let speedup = baseline_ms / optimized_ms;
        if speedup_at_1k.is_none() && depth >= 1000 {
            speedup_at_1k = Some(speedup);
        }
        report.line(format!(
            "{depth:>7} {baseline_ms:>14.3} {optimized_ms:>14.3} {speedup:>8.2}x"
        ));
        rows.push(
            JsonValue::object()
                .with("depth", depth)
                .with("baseline_step_ms", baseline_ms)
                .with("optimized_step_ms", optimized_ms)
                .with("speedup", speedup),
        );
    }

    report.blank();
    match speedup_at_1k {
        Some(s) => report.line(format!(
            "acceptance: speedup at first depth >= 1000 is {s:.2}x (floor: 3.00x)"
        )),
        None => report.line("acceptance: no depth >= 1000 in this run (smoke mode)"),
    }

    let summary = JsonValue::object()
        .with("bench", "planner_hot")
        .with("machine", JsonValue::object().with("cores", cores))
        .with("nodes", CTC_NODES)
        .with("iters", iters)
        .with("depths", rows.clone())
        .with(
            "acceptance",
            JsonValue::object()
                .with("min_speedup_at_1k", 3.0)
                .with("measured", speedup_at_1k),
        );
    let summary_json = summary.to_json_pretty();
    validate_or_die("BENCH_planner.json", &summary_json);
    std::fs::write("BENCH_planner.json", &summary_json).expect("writing BENCH_planner.json");
    eprintln!("wrote BENCH_planner.json");

    report.set("machine_cores", cores);
    report.set("iters", iters);
    report.set("rows", rows);
    report.set("speedup_at_1k", speedup_at_1k);
    report.finish().expect("writing results/");
    let written =
        std::fs::read_to_string("results/planner_hot.json").expect("reading back results JSON");
    validate_or_die("results/planner_hot.json", &written);
}
