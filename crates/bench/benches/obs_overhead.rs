//! Overhead of the `dynp-obs` instrumentation primitives.
//!
//! Two regimes matter:
//!
//! 1. **No recorder installed** — the state every library user is in unless
//!    they opt into observability. Instrumented code paths must cost
//!    essentially nothing: `recorder()` is a single atomic load returning
//!    `None`, and a `Span` with no recorder holds no timer.
//! 2. **Null-sink recorder installed** — metrics are recorded into atomics
//!    but events go nowhere. This bounds the cost paid inside the solver's
//!    per-node hot loop when observability is on.
//!
//! The disabled group MUST run before `install` (the recorder is process
//! global and cannot be uninstalled); `criterion_main!` runs groups in
//! declaration order, which preserves that.
//!
//! Usage: `cargo bench -p dynp-bench --bench obs_overhead`

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dynp_obs::{
    cancelled, enter_cell, install, install_cancel, recorder, span, CancelToken, Recorder, Sink,
    Span,
};
use std::time::Duration;

/// A stand-in for one DES dispatch step: enough arithmetic that the loop
/// body is not optimised away, cheap enough that instrumentation overhead
/// would be visible.
fn simulated_dispatch(state: &mut u64) {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
}

fn bench_disabled(c: &mut Criterion) {
    assert!(
        recorder().is_none(),
        "disabled-path benches must run before any recorder is installed"
    );
    let mut group = c.benchmark_group("obs_disabled");
    group.sample_size(200);

    group.bench_function("recorder_fetch", |b| {
        b.iter(|| black_box(recorder().is_none()))
    });

    group.bench_function("span_enter_drop", |b| {
        b.iter(|| {
            let _span = Span::enter(black_box("bench.span"));
        })
    });

    // A traced span with no recorder is inert: no timer, no context push.
    group.bench_function("traced_span_enter_drop", |b| {
        b.iter(|| {
            let _span = span(black_box("bench.traced"));
        })
    });

    // The shape used in des::run_to_completion: fetch handles once, then
    // run the hot loop consulting the (absent) handles each iteration.
    group.bench_function("dispatch_loop_instrumented", |b| {
        b.iter(|| {
            let obs = recorder();
            let counter = obs.map(|r| r.counter("bench.events"));
            let mut state = 0u64;
            for _ in 0..1024 {
                simulated_dispatch(&mut state);
                if let Some(c) = &counter {
                    c.inc();
                }
            }
            black_box(state)
        })
    });

    group.bench_function("dispatch_loop_bare", |b| {
        b.iter(|| {
            let mut state = 0u64;
            for _ in 0..1024 {
                simulated_dispatch(&mut state);
            }
            black_box(state)
        })
    });

    group.finish();
}

/// Cost of the cooperative cancellation poll that sits inside the DES
/// event loop, the B&B node loop, and the simplex iteration loop. The
/// common case — no token installed — must be one thread-local read;
/// with a token installed the poll adds an atomic flag load, plus a
/// monotonic-clock read per poll for deadline tokens until the deadline
/// latches. This group pins the "within noise on hot paths" acceptance
/// claim for the per-cell deadline feature.
///
/// Runs before `install` so `cancelled()` is measured in the same
/// recorder-free regime the disabled group establishes (the poll itself
/// never touches the recorder either way).
fn bench_cancel(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_cancel");
    group.sample_size(200);

    group.bench_function("cancelled_no_token", |b| {
        b.iter(|| black_box(cancelled()))
    });

    group.bench_function("cancelled_flag_token", |b| {
        let token = CancelToken::new();
        let _guard = install_cancel(&token);
        b.iter(|| black_box(cancelled()))
    });

    group.bench_function("cancelled_deadline_token", |b| {
        // A one-hour deadline: every poll takes the pre-latch path that
        // reads the clock, the worst case a live campaign cell pays.
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        let _guard = install_cancel(&token);
        b.iter(|| black_box(cancelled()))
    });

    // The DES dispatch loop shape with the cancel poll in place,
    // comparable against `obs_disabled/dispatch_loop_bare`.
    group.bench_function("dispatch_loop_with_cancel_poll", |b| {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        let _guard = install_cancel(&token);
        b.iter(|| {
            let mut state = 0u64;
            for _ in 0..1024 {
                simulated_dispatch(&mut state);
                if cancelled() {
                    break;
                }
            }
            black_box(state)
        })
    });

    group.finish();
}

fn bench_null_recorder(c: &mut Criterion) {
    let r = install(Recorder::new(Sink::Null));
    let counter = r.counter("bench.counter");
    let histogram = r.histogram("bench.histogram");

    let mut group = c.benchmark_group("obs_null_recorder");
    group.sample_size(200);

    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));

    group.bench_function("histogram_record", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(997);
            histogram.record(black_box(v));
        })
    });

    group.bench_function("span_enter_drop", |b| {
        b.iter(|| {
            let _span = Span::enter(black_box("bench.span"));
        })
    });

    group.bench_function("event_emit_null_sink", |b| {
        b.iter(|| {
            r.event("bench.event")
                .kv("case", black_box(7u64))
                .kv("label", "null")
                .emit()
        })
    });

    group.finish();
}

/// Cost of trace-context propagation on top of the null recorder: the
/// same span/event operations as `obs_null_recorder`, but inside a
/// campaign-cell frame so every close event carries (campaign, cell,
/// span, parent) and every child span id comes from the cell counter.
fn bench_context(c: &mut Criterion) {
    let r = recorder().expect("installed by the previous group");
    let mut group = c.benchmark_group("obs_context");
    group.sample_size(200);

    group.bench_function("traced_span_free", |b| {
        b.iter(|| {
            let _span = span(black_box("bench.traced"));
        })
    });

    group.bench_function("traced_span_in_cell", |b| {
        let _cell = enter_cell(0xbe9c, 3);
        b.iter(|| {
            let _span = span(black_box("bench.traced"));
        })
    });

    group.bench_function("event_emit_in_cell", |b| {
        let _cell = enter_cell(0xbe9c, 4);
        b.iter(|| {
            r.event("bench.event")
                .kv("case", black_box(7u64))
                .kv("label", "ctx")
                .emit()
        })
    });

    group.finish();
}

/// Cost the live-telemetry layer (`dynp-watch`) adds when it is NOT
/// started — the default for every run without `--watch`. The watch
/// server samples the recorder from its own threads and owns no metric
/// state, so it adds nothing to the instrumented path. This group
/// measures the exact span shapes of `obs_context` again; the numbers
/// must be statistically indistinguishable from that group's.
fn bench_watch_disabled(c: &mut Criterion) {
    let r = recorder().expect("installed by a previous group");
    let mut group = c.benchmark_group("obs_watch_disabled");
    group.sample_size(200);

    group.bench_function("traced_span_free", |b| {
        b.iter(|| {
            let _span = span(black_box("bench.traced"));
        })
    });

    group.bench_function("traced_span_in_cell", |b| {
        let _cell = enter_cell(0xbe9c, 5);
        b.iter(|| {
            let _span = span(black_box("bench.traced"));
        })
    });

    group.bench_function("event_emit_in_cell", |b| {
        let _cell = enter_cell(0xbe9c, 6);
        b.iter(|| {
            r.event("bench.event")
                .kv("case", black_box(7u64))
                .kv("label", "nw")
                .emit()
        })
    });

    group.finish();
}

/// Event throughput of the bounded sinks: the in-memory ring buffer and
/// the size-rotating file writer (the default for experiment runs).
fn bench_sinks(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_sinks");
    group.sample_size(100);

    let ring = Recorder::new(Sink::ring(4096));
    group.bench_function("event_emit_ring", |b| {
        b.iter(|| {
            ring.event("bench.event")
                .kv("case", black_box(7u64))
                .kv("label", "ring")
                .emit()
        })
    });

    let dir = std::env::temp_dir().join(format!("dynp_obs_overhead_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let rotating = Recorder::new(
        Sink::rotating(dir.join("bench.events.jsonl"), 1024 * 1024, 2)
            .expect("temp dir is writable"),
    );
    group.bench_function("event_emit_rotating", |b| {
        b.iter(|| {
            rotating
                .event("bench.event")
                .kv("case", black_box(7u64))
                .kv("label", "rot")
                .emit()
        })
    });
    rotating.flush();
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

criterion_group!(disabled, bench_disabled);
criterion_group!(cancel, bench_cancel);
criterion_group!(null_recorder, bench_null_recorder);
criterion_group!(context, bench_context);
criterion_group!(watch_disabled, bench_watch_disabled);
criterion_group!(sinks, bench_sinks);
criterion_main!(disabled, cancel, null_recorder, context, watch_disabled, sinks);
