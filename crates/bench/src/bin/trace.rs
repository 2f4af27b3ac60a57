//! Flight-recorder overhead benchmark: what does request-scoped
//! observability cost on the batched-admission fast path?
//!
//! Both modes drive the same [`dynp_serve::ServiceCore`] with the same
//! CTC-shaped submission sequence in the same 64-job batches. The
//! *on* mode is the full PR-9 observability surface: per-job lifecycle
//! timelines (the flight recorder behind `GET /v1/jobs/<id>/trace`)
//! plus a sliding-window aggregator fed one cumulative snapshot per
//! batch — the same work the serve decision loop does per tick. The
//! *off* mode turns both off: the core runs with
//! [`ServiceCore::set_flight_recorder`]`(false)` and feeds no window.
//!
//! Each mode runs `reps` times interleaved (on/off alternating, so
//! thermal and allocator drift hits both equally). The verdict is the
//! **median of the per-rep paired overheads**: each rep's on and off
//! runs are adjacent in time, so slow machine drift cancels inside
//! the pair, and the median rejects the outlier pairs a shared noisy
//! container produces. The per-mode minima are reported as the
//! throughput numbers (best-case runtimes) but do not gate — one
//! lucky rep in *either* mode would swing a min-vs-min comparison by
//! more than the budget itself.
//!
//! Acceptance: overhead ≤ 2 % of the recorder-off batched-admission
//! throughput. Writes `results/trace.{txt,json,events.jsonl}` and the
//! repo-root `BENCH_trace.json`; exits 1 when the gate fails.
//!
//! Usage: `cargo run --release -p dynp-bench --bin trace \
//!             [jobs=1000] [capacity=430] [reps=121] [--watch <addr>]`

use dynp_bench::{cli_args_and_watch, start_watch, Report, CTC_NODES};
use dynp_core::SelfTuning;
use dynp_obs::{Histogram, JsonValue, WindowAggregator};
use dynp_sched::Metric;
use dynp_serve::{JobRequest, ServiceCore};
use dynp_trace::{CtcModel, WorkloadModel};
use std::time::{Duration, Instant};

fn validate_or_die(what: &str, json: &str) {
    if let Err(e) = dynp_obs::json::validate(json) {
        eprintln!("{what}: invalid JSON produced: {e}");
        std::process::exit(1);
    }
}

/// The same workload shape as the serve throughput bench.
fn requests(n: usize, capacity: u32) -> Vec<JobRequest> {
    let trace = CtcModel {
        nodes: capacity,
        mean_interarrival: 5.0,
        ..CtcModel::default()
    }
    .generate(n, 42);
    trace
        .jobs
        .iter()
        .map(|j| JobRequest {
            width: j.width,
            runtime: j.estimated_duration,
            actual_runtime: Some(j.actual_duration),
            submit: Some(j.submit),
        })
        .collect()
}

/// One batched-admission pass, timing only the submit loop (the drain
/// is bookkeeping both modes share). With `observed` the flight
/// recorder is on and a [`WindowAggregator`] takes one cumulative
/// batch-latency snapshot per batch — the serve decision loop's
/// per-tick sampling work.
fn run_mode(
    requests: &[JobRequest],
    capacity: u32,
    chunk: usize,
    observed: bool,
) -> (Duration, usize) {
    let mut core = ServiceCore::new(capacity, SelfTuning::paper_config(Metric::SldwA));
    core.set_flight_recorder(observed);
    let mut window = observed.then(WindowAggregator::for_slo);
    let batch_latency = Histogram::new();
    let started = Instant::now();
    for (i, group) in requests.chunks(chunk).enumerate() {
        let batch_started = Instant::now();
        std::hint::black_box(core.submit_batch(group));
        if let Some(window) = window.as_mut() {
            batch_latency.record(batch_started.elapsed().as_nanos() as u64);
            window.observe_histogram(
                "serve.batch_latency",
                &batch_latency.snapshot(),
                i as u64,
            );
        }
    }
    let elapsed = started.elapsed();
    core.drain();
    (elapsed, core.records().len())
}

fn main() {
    let (args, watch_addr) = cli_args_and_watch();
    let jobs: usize = args
        .first()
        .map(|a| a.parse().expect("jobs must be a number"))
        .unwrap_or(1000);
    let capacity: u32 = args
        .get(1)
        .map(|a| a.parse().expect("capacity must be a number"))
        .unwrap_or(CTC_NODES);
    let reps: usize = args
        .get(2)
        .map(|a| a.parse().expect("reps must be a number"))
        .unwrap_or(121);
    let chunk = 64;

    // The timed region runs against the exact recorder configuration
    // the `dynp-serve` binary installs — a bounded in-memory ring, not
    // a file sink. `Report::new` installs a *rotating file* recorder,
    // so the report is constructed after all timing;
    // attributing file I/O to the flight recorder would measure the
    // wrong deployment.
    dynp_obs::install(dynp_obs::Recorder::new(dynp_obs::Sink::ring(4096)));

    let workload = requests(jobs, capacity);

    // Warm-up (allocator, availability-profile code paths) — unmeasured.
    run_mode(&workload[..workload.len().min(64)], capacity, 16, true);

    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    let mut rep_overheads = Vec::new();
    let mut rep_lines = Vec::new();
    for rep in 0..reps {
        // ABBA ordering: alternate which mode runs first within the
        // pair, so a within-pair temporal gradient (allocator state,
        // timer migration) cannot systematically land on one side.
        let (off, done_off, on, done_on) = if rep % 2 == 0 {
            let (off, done_off) = run_mode(&workload, capacity, chunk, false);
            let (on, done_on) = run_mode(&workload, capacity, chunk, true);
            (off, done_off, on, done_on)
        } else {
            let (on, done_on) = run_mode(&workload, capacity, chunk, true);
            let (off, done_off) = run_mode(&workload, capacity, chunk, false);
            (off, done_off, on, done_on)
        };
        assert_eq!(
            done_off, done_on,
            "both modes must complete the same workload"
        );
        best_off = best_off.min(off);
        best_on = best_on.min(on);
        let pct = (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0;
        rep_overheads.push(pct);
        rep_lines.push(format!(
            "  rep {rep}: off {:>8.2} ms   on {:>8.2} ms   ({pct:+.2}%)",
            off.as_secs_f64() * 1e3,
            on.as_secs_f64() * 1e3
        ));
    }

    // Report (installs its own rotating recorder — after all timing).
    let mut report = Report::new("trace");
    let _watch = start_watch(watch_addr.as_deref());
    report.line(format!(
        "flight-recorder overhead: {jobs} submissions, {chunk}/batch, {reps} reps per mode"
    ));
    report.blank();
    for line in rep_lines {
        report.line(line);
    }

    let off_rate = jobs as f64 / best_off.as_secs_f64();
    let on_rate = jobs as f64 / best_on.as_secs_f64();
    let best_pct =
        (best_on.as_secs_f64() - best_off.as_secs_f64()) / best_off.as_secs_f64() * 100.0;
    // Median of the paired per-rep overheads — NaN-free by
    // construction (both durations are positive), so total_cmp is the
    // plain numeric order.
    rep_overheads.sort_by(f64::total_cmp);
    let overhead_pct = rep_overheads[rep_overheads.len() / 2];
    let budget_pct = 2.0;
    let within = overhead_pct <= budget_pct;

    report.blank();
    report.line(format!(
        "  recorder off: {:>8.2} ms  {off_rate:>9.0} jobs/s  (best of {reps})",
        best_off.as_secs_f64() * 1e3
    ));
    report.line(format!(
        "  recorder on:  {:>8.2} ms  {on_rate:>9.0} jobs/s  (best of {reps})",
        best_on.as_secs_f64() * 1e3
    ));
    report.line(format!(
        "  overhead: {overhead_pct:.2}% (median of {reps} paired reps, budget {budget_pct:.1}%)"
    ));
    report.line(format!(
        "  best-of-{reps} overhead: {best_pct:+.2}% (from the minima above; not the gate)"
    ));
    report.blank();
    report.line(format!(
        "acceptance: flight recorder + windows cost <= {budget_pct:.0}% on the batched path: {}",
        if within { "yes" } else { "NO" }
    ));

    let summary = JsonValue::object()
        .with("bench", "trace")
        .with("jobs", jobs)
        .with("capacity", capacity)
        .with("chunk", chunk)
        .with("reps", reps)
        .with(
            "recorder_off",
            JsonValue::object()
                .with("elapsed_ms", best_off.as_secs_f64() * 1e3)
                .with("jobs_per_sec", off_rate),
        )
        .with(
            "recorder_on",
            JsonValue::object()
                .with("elapsed_ms", best_on.as_secs_f64() * 1e3)
                .with("jobs_per_sec", on_rate),
        )
        .with("overhead_percent", overhead_pct)
        .with("best_of_overhead_percent", best_pct)
        .with(
            "acceptance",
            JsonValue::object()
                .with("budget_percent", budget_pct)
                .with("within_budget", within),
        );
    let summary_json = summary.to_json_pretty();
    validate_or_die("BENCH_trace.json", &summary_json);
    std::fs::write("BENCH_trace.json", &summary_json).expect("writing BENCH_trace.json");
    eprintln!("wrote BENCH_trace.json");

    report.set("jobs", jobs);
    report.set("capacity", capacity);
    report.set("reps", reps);
    report.set("overhead_percent", overhead_pct);
    report.set("within_budget", within);
    report.finish().expect("writing results/");
    let written = std::fs::read_to_string("results/trace.json").expect("reading back results JSON");
    validate_or_die("results/trace.json", &written);

    if !within {
        eprintln!(
            "acceptance failed: {overhead_pct:.2}% overhead exceeds the {budget_pct:.1}% budget"
        );
        std::process::exit(1);
    }
}
