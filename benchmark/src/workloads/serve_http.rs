//! `serve_http_open`: a live `ServeServer` over real sockets, one CTC job
//! per `POST /v1/jobs`, two sender threads. The jobs carry the trace's
//! logical submit times, so the queue stays shallow and the planner does
//! almost nothing: `watch::router`, `watch::http`, `serve::api` and the
//! submission queue do the work. A wire fix must show here, and planner
//! work must *not* move anything here.
//!
//! Each cycle has an open-loop phase at 47 req/s (latency from the due
//! time: `op_p50_ms`, `op_tail_ms`) and a closed-loop phase with two
//! connections (saturation: `jobs_per_s`). The traced pass adds the same
//! load through `ServeServer::submit` without the wire, a rate ladder,
//! and micro-timings of the HTTP and API functions.

use super::probes::time_us;
use super::{timed_setup, Ctx};
use crate::inputs::{request_body, requests, shallow_trace, CTC_NODES};
use crate::loadgen::{climb, closed_loop, open_loop, post, rung_passes, senders, Outcome};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::quantile;
use dynp_obs::JsonValue;
use dynp_serve::api::decisions_body;
use dynp_serve::{JobRequest, ServeConfig, ServeServer};
use dynp_watch::http::{read_request, write_response};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Offered rate of the open-loop phase, requests per second. Not 50:
/// the router polls `accept` every 20 ms, and arrivals exactly 20 ms
/// apart lock onto that cycle, so a run's latency would depend on the
/// phase it happened to start in. At 21.3 ms apart, consecutive requests
/// sweep the whole poll window.
const BASE_RATE: f64 = 47.0;
const LADDER: [f64; 3] = [100.0, 200.0, 400.0];
const CYCLES: usize = 3;

struct Load {
    server: ServeServer,
    requests: Vec<JobRequest>,
    bodies: Vec<String>,
    /// Next unsent job: submissions go out in trace order.
    next: AtomicUsize,
    rejected_429: AtomicU64,
    rejected_503: AtomicU64,
}

impl Load {
    fn new(n: usize, seed: u64) -> Load {
        let requests = requests(&shallow_trace(n, seed));
        let bodies = requests.iter().map(request_body).collect();
        let mut config = ServeConfig::new(CTC_NODES);
        config.queue_depth = 4096;
        Load {
            server: ServeServer::start("127.0.0.1:0", config).expect("binding the bench server"),
            requests,
            bodies,
            next: AtomicUsize::new(0),
            rejected_429: AtomicU64::new(0),
            rejected_503: AtomicU64::new(0),
        }
    }

    /// One job over HTTP; a success is a `200` whose body is a decision
    /// that admitted the job.
    fn post_next(&self, tracer: &mut Tracer) -> bool {
        let Some(body) = self.bodies.get(self.next.fetch_add(1, Ordering::Relaxed)) else {
            return false;
        };
        let (status, reply) = post(self.server.local_addr(), "/v1/jobs", body, tracer);
        match status {
            429 => self.rejected_429.fetch_add(1, Ordering::Relaxed),
            503 => self.rejected_503.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        status == 200
            && dynp_obs::parse_json(&reply).is_ok_and(|decision| {
                decision.get("id").is_some()
                    && decision.get("status").and_then(JsonValue::as_str) != Some("declined")
            })
    }

    /// The same job through the server's queue and decision loop, no wire.
    fn submit_next(&self) -> bool {
        let Some(request) = self.requests.get(self.next.fetch_add(1, Ordering::Relaxed)) else {
            return false;
        };
        self.server
            .submit(vec![*request])
            .is_ok_and(|decisions| decisions.len() == 1 && decisions[0].declined.is_none())
    }
}

fn count(report: &mut Report, out: &Outcome) {
    report.attempted += out.ok + out.failed;
    report.failed += out.failed;
}

fn worst(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// One cycle: open loop for `open_s`, then closed loop for `closed_s`.
/// Returns the open-loop phase.
fn cycle(
    load: &Load,
    open_s: f64,
    closed_s: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Outcome {
    let n = (BASE_RATE * open_s).ceil() as usize;
    let open = open_loop(BASE_RATE, n, senders(), tracer, |_, t| load.post_next(t));
    count(report, &open);
    report.push("op_p50_ms", quantile(&open.latency_ms, 0.5));
    report.push("op_tail_ms", quantile(&open.latency_ms, 0.9));
    let closed = closed_loop(
        Duration::from_secs_f64(closed_s),
        usize::MAX,
        senders(),
        tracer,
        |_, t| load.post_next(t),
    );
    count(report, &closed);
    report.push("jobs_per_s", closed.ok as f64 / closed.elapsed_s);
    open
}

/// The traced pass's extras: where the latency of one request goes.
fn layers(ctx: &Ctx, load: &Load, plain: &Outcome, traced: &Outcome, report: &mut Report) {
    let p50 = |o: &Outcome| quantile(&o.latency_ms, 0.5);
    report.push(
        "harness.trace_overhead_share",
        p50(traced) / p50(plain) - 1.0,
    );
    report.push("loadgen.late_p90_ms", quantile(&traced.late_ms, 0.9));
    let pooled: Vec<f64> = plain
        .latency_ms
        .iter()
        .chain(&traced.latency_ms)
        .copied()
        .collect();
    report.push("serve.server.admit_p99_ms", quantile(&pooled, 0.99));

    // The same rate without the wire: what is left is accept wait,
    // thread spawn and socket work.
    let mut off = Tracer::new(false);
    let n = (BASE_RATE * ctx.seconds * 0.15).ceil() as usize;
    let direct = open_loop(BASE_RATE, n, senders(), &mut off, |_, _| load.submit_next());
    count(report, &direct);
    let submit_p50 = p50(&direct);
    report.push("serve.server.submit_p50_ms", submit_p50);
    report.push(
        "watch.router.wire_overhead_ms",
        quantile(&pooled, 0.5) - submit_p50,
    );

    // The ladder: the base rate is the first rung, already measured.
    let base_ok = rung_passes(
        worst(&plain.late_ms),
        quantile(&plain.latency_ms, 0.9),
        plain.failed,
    );
    let mut best = if base_ok { BASE_RATE } else { 0.0 };
    if base_ok {
        let rung_s = ctx.seconds * 0.12;
        let climbed = climb(&LADDER, |rate| {
            let n = (rate * rung_s).ceil() as usize;
            let out = open_loop(rate, n, senders(), &mut off, |_, t| load.post_next(t));
            count(report, &out);
            rung_passes(
                worst(&out.late_ms),
                quantile(&out.latency_ms, 0.9),
                out.failed,
            )
        });
        best = best.max(climbed);
    }
    report.push("serve.server.max_rate_ok", best);

    // The HTTP and API functions on in-memory streams.
    let slice = Duration::from_secs_f64(ctx.seconds * 0.01);
    let body = &load.bodies[0];
    let raw = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let decisions = load
        .server
        .submit(vec![
            load.requests[load.next.fetch_add(1, Ordering::Relaxed)],
        ])
        .expect("one more job");
    report.attempted += 1;
    let reply = decisions_body(&decisions, false);
    report.push(
        "watch.http.read_request_ns",
        1e3 * time_us(slice, || {
            black_box(read_request(&mut raw.as_bytes(), 256 * 1024).expect("well-formed request"));
        }),
    );
    let mut sink = Vec::with_capacity(1024);
    report.push(
        "watch.http.write_response_ns",
        1e3 * time_us(slice, || {
            sink.clear();
            write_response(&mut sink, 200, "application/json", &reply).expect("in-memory write");
        }),
    );
    report.push(
        "serve.api.parse_ns_per_job",
        1e3 * time_us(slice, || {
            black_box(JobRequest::parse_submit_body(body).expect("valid body"));
        }),
    );
    report.push(
        "serve.api.render_ns_per_job",
        1e3 * time_us(slice, || {
            black_box(decisions_body(&decisions, false));
        }),
    );
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let mut off = Tracer::new(false);
    // Set-up: the trace, the request bodies, a listening server, and a
    // few requests to warm the accept path and the core.
    let mut warm = Outcome::default();
    let load = timed_setup(report, || {
        let load = Load::new(ctx.sizes.http_jobs, ctx.seed);
        warm = closed_loop(
            Duration::from_secs_f64(ctx.seconds * 0.02),
            usize::MAX,
            senders(),
            &mut off,
            |_, t| load.post_next(t),
        );
        load
    });
    let mut sent = warm.ok;
    if ctx.trace {
        let (open_s, closed_s) = (ctx.seconds * 0.15, ctx.seconds * 0.08);
        let plain = cycle(&load, open_s, closed_s, &mut off, report);
        let traced = cycle(&load, open_s, closed_s, tracer, report);
        layers(ctx, &load, &plain, &traced, report);
    } else {
        let share = 1.0 / CYCLES as f64;
        for _ in 0..CYCLES {
            cycle(
                &load,
                ctx.seconds * share * 0.8,
                ctx.seconds * share * 0.2,
                &mut off,
                report,
            );
        }
    }
    sent += report.attempted - report.failed;

    // Output checks: the server saw every accepted job and, after the
    // drain, finished every one of them.
    let rejected = (
        load.rejected_429.load(Ordering::Relaxed),
        load.rejected_503.load(Ordering::Relaxed),
    );
    let stats = load.server.shutdown();
    let stat = |key: &str| stats.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    if stat("submitted") != sent || stat("completed") + stat("declined") != sent {
        report.error(format!(
            "server saw {} submissions and finished {} of the {sent} accepted",
            stat("submitted"),
            stat("completed")
        ));
    }
    if ctx.trace {
        report.push("serve.server.batches", stat("batches") as f64);
        report.push(
            "serve.server.avg_batch_size",
            sent as f64 / stat("batches").max(1) as f64,
        );
        report.push("serve.server.rejected_429", rejected.0 as f64);
        report.push("serve.server.rejected_503", rejected.1 as f64);
    }
}
