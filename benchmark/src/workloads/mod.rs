//! The six workloads and the scaffolding they share: timed set-up, the
//! repeat-until-the-time-is-used loop, and the untraced/traced pairing.

mod exact;
mod probes;
mod serve_core;
mod serve_http;
mod sim;
mod soak;

use crate::inputs::Sizes;
use crate::report::Report;
use crate::spans::{layer_times, root_ns, Tracer};
use crate::stats::{median, quantile, Pieces};
use std::time::Instant;

/// Timed sections repeat at least this often in the untraced pass.
const MIN_REPS: usize = 3;
/// Set-up runs at least this often, and then again while it has used
/// less than [`SETUP_SHARE`] of the measuring time (cheap set-ups get
/// more samples), at most [`SETUP_MAX_REPS`] times; `setup_s` is the
/// fastest.
const SETUP_REPS: usize = 5;
const SETUP_SHARE: f64 = 0.1;
const SETUP_MAX_REPS: usize = 40;
/// A residual above this share of the traced time is printed as a warning.
const RESIDUAL_WARN: f64 = 0.15;

pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    /// Measuring time for the timed section, seconds.
    pub seconds: f64,
    pub trace: bool,
}

/// Runs one workload and returns what it measured plus the spans of its
/// traced reps (empty in the untraced pass).
pub fn run(name: &str, ctx: &Ctx) -> Option<(Report, Tracer)> {
    let mut report = Report::new(name, ctx.seed, ctx.sizes.name, ctx.seconds, ctx.trace);
    let mut tracer = Tracer::new(ctx.trace);
    // Everything but the socket workload is CPU-bound and runs on one
    // CPU: see README.md, "One CPU".
    if name != "serve_http_open" && !crate::sys::pin_to_one_cpu() {
        report
            .warnings
            .push("could not pin to one CPU; times include thread fan-out".into());
    }
    match name {
        "serve_http_open" => serve_http::run(ctx, &mut report, &mut tracer),
        "serve_core_backlog" => serve_core::run(ctx, &mut report, &mut tracer),
        "serve_checkpoint_soak" => soak::run(ctx, &mut report, &mut tracer),
        "sim_replay" => sim::run(ctx, &mut report, &mut tracer),
        "exact_table1" => exact::run_table1(ctx, &mut report, &mut tracer),
        "exact_root_lp" => exact::run_root_lp(ctx, &mut report, &mut tracer),
        _ => return None,
    }
    let share = if report.attempted == 0 {
        1.0
    } else {
        report.failed as f64 / report.attempted as f64
    };
    report.push("failed_share", share);
    if ctx.trace {
        report.push("harness.peak_rss_mb", crate::sys::peak_rss_mb());
        residual(&mut report, &tracer);
    }
    Some((report, tracer))
}

/// Runs `setup` [`SETUP_REPS`] times or more, records each duration as a sample
/// of `setup_s`, reports the fastest (its quiet time, see
/// [`crate::stats::Pieces`]) and returns the last result. Set-up is
/// everything a workload does before its timed section: generating the
/// inputs, starting servers, and one untimed warming pass over a prefix
/// of the input, so that work a later change moves out of the timed
/// section (caches, precomputation) shows up here.
fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let (mut last, mut fastest) = (None, f64::INFINITY);
    let (budget_s, begun) = (report.seconds * SETUP_SHARE, Instant::now());
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_REPS && begun.elapsed().as_secs_f64() > budget_s {
            break;
        }
        drop(last.take());
        let started = Instant::now();
        last = Some(std::hint::black_box(setup()));
        let took = started.elapsed().as_secs_f64();
        report.push("setup_s", took);
        fastest = fastest.min(took);
    }
    report.set_quiet("setup_s", fastest);
    last.expect("SETUP_REPS > 0")
}

/// An untimed warming pass: `rep` runs once with tracing off and
/// everything it records is thrown away.
fn warm_up(rep: impl FnOnce(&mut Tracer, &mut Report) -> f64) {
    rep(
        &mut Tracer::new(false),
        &mut Report::new("", 0, "", 0.0, false),
    );
}

/// Repeats the timed section until `budget_s` is used up. `rep` runs it
/// once under the given tracer, records its samples and returns its wall
/// seconds. The untraced pass makes at least [`MIN_REPS`] reps; the
/// traced pass alternates untraced and traced reps, and the gap between
/// their medians is the tracing overhead.
fn measure(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &mut Tracer,
    budget_s: f64,
    mut rep: impl FnMut(&mut Tracer, &mut Report) -> f64,
) {
    let mut off = Tracer::new(false);
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let min_rounds = if ctx.trace { 1 } else { MIN_REPS };
    loop {
        plain.push(rep(&mut off, report));
        if ctx.trace {
            tracer.set_run(traced.len() as u32);
            traced.push(rep(tracer, report));
        }
        let used = started.elapsed().as_secs_f64();
        let per_round = used / plain.len() as f64;
        if plain.len() >= min_rounds && used + per_round > budget_s {
            break;
        }
    }
    if ctx.trace {
        report.push(
            "harness.trace_overhead_share",
            median(&traced) / median(&plain) - 1.0,
        );
    }
}

/// Accounts for the traced time: every span's self time plus the roots'
/// own self time (the residual) is the traced end-to-end time.
fn residual(report: &mut Report, tracer: &Tracer) {
    let spans = tracer.spans();
    let total = root_ns(spans);
    if total == 0 {
        return;
    }
    // Root spans have names of their own ("workload.rep",
    // "loadgen.sender"), so their self time can be looked up by name.
    let times = layer_times(spans);
    let root_names: std::collections::BTreeSet<_> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.name)
        .collect();
    let roots: u64 = root_names.iter().map(|name| times[name].self_ns).sum();
    let share = roots as f64 / total as f64;
    report.push("harness.residual_share", share);
    if share > RESIDUAL_WARN {
        report.warnings.push(format!(
            "{:.1}% of the traced time is in no layer's span",
            share * 100.0
        ));
    }
}

/// The untraced reps of a CPU-bound workload, piece by piece (see
/// [`Pieces`]): `ops` are the operations `op_p50_ms` and `op_tail_ms`
/// describe (a batch, a replay, a solve), `other` is the timed work
/// between them (drains, server start and shutdown).
#[derive(Default)]
struct Quiet {
    ops: Pieces,
    other: Pieces,
}

impl Quiet {
    /// Adds one untraced rep.
    fn push(&mut self, ops_ms: &[f64], other_ms: &[f64]) {
        self.ops.push(ops_ms.to_vec());
        self.other.push(other_ms.to_vec());
    }

    /// Reports the workload's end-to-end numbers from the quiet time of
    /// every piece: `jobs` jobs in the sum of all pieces, and the median
    /// and the `tail` quantile of the operations. The samples recorded
    /// next to each number are the same number with one rep left out.
    fn report(&self, report: &mut Report, jobs: usize, tail: f64) {
        const NAMES: [&str; 3] = ["jobs_per_s", "op_p50_ms", "op_tail_ms"];
        let numbers = |without: Option<usize>| {
            let ops_ms = self.ops.quiet(without);
            let total_ms = ops_ms.iter().chain(&self.other.quiet(without)).sum::<f64>();
            [
                jobs as f64 / (total_ms / 1e3),
                quantile(&ops_ms, 0.5),
                quantile(&ops_ms, tail),
            ]
        };
        let all = numbers(None);
        let reps = self.ops.reps();
        for without in 0..reps {
            let values = if reps > 1 {
                numbers(Some(without))
            } else {
                all
            };
            for (name, value) in NAMES.iter().zip(values) {
                report.push(name, value);
            }
        }
        for (name, value) in NAMES.iter().zip(all) {
            report.set_quiet(name, value);
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
