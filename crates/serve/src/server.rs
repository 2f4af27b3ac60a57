//! The serving front-end: HTTP routes, the bounded submission queue,
//! and the single-threaded decision loop.
//!
//! ## Shape
//!
//! ```text
//!  HTTP handler threads (shared watch router, connection-capped)
//!        │  try_send(Submission)          bounded sync_channel
//!        ▼                                (full → HTTP 429)
//!  decision loop (one thread, owns the ServiceCore)
//!        │  recv_timeout(tick) + try_recv drain → ONE batch
//!        ▼
//!  ServiceCore::submit_batch → one self-tuning step, replies fan out
//! ```
//!
//! Only the decision loop touches the [`ServiceCore`] for *writes*;
//! status reads (`GET /v1/jobs/<id>`, `/v1/schedule`) take the same
//! mutex briefly. Batching is what buys throughput: every submission
//! that lands within one tick shares a single planning pass (one
//! availability-profile build), instead of paying one per request.
//!
//! ## Graceful drain
//!
//! `POST /v1/shutdown` flips the draining flag: new submissions get a
//! typed 503, the decision loop finishes whatever the queue still
//! holds, then [`ServiceCore::drain`] completes every running and
//! waiting job on the logical clock. Status routes keep answering until
//! [`ServeServer::shutdown`] tears the listener down, so clients can
//! fetch their final records after draining.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dynp_core::SelfTuning;
use dynp_obs::checkpoint::{fingerprint, CheckpointLog};
use dynp_obs::{Counter, Histogram, JsonValue, WindowAggregator};
use dynp_sched::Metric;
use dynp_watch::{HttpServer, Request, Response, RouterConfig};

use crate::api::{decisions_body, ApiError, Decision, JobRequest, WIRE_VERSION};
use crate::core::ServiceCore;

/// Everything that can stop the service from starting or restoring.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or socket setup failed.
    Io(io::Error),
    /// A checkpoint snapshot existed but could not rebuild the core
    /// (wrong shape, foreign policy, overcommitted machine).
    Snapshot(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Snapshot(e) => write!(f, "serve snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Snapshot(_) => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Service configuration. [`ServeConfig::new`] gives the paper setup
/// (SLDwA metric, FCFS/SJF/LJF policy set) on a machine of `capacity`.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Machine capacity (resources).
    pub capacity: u32,
    /// The self-tuning yardstick.
    pub metric: Metric,
    /// Batch window: how long the decision loop waits for the first
    /// submission before idling, and the coalescing window after it.
    pub tick: Duration,
    /// Submission-queue depth; a full queue answers HTTP 429.
    pub queue_depth: usize,
    /// Concurrent-connection cap for the HTTP front-end (503 above).
    pub max_connections: usize,
    /// Request-body bound in bytes (413 above).
    pub max_body_bytes: usize,
    /// Snapshot file: when set, the service restores from the last
    /// valid snapshot at start and checkpoints after every batch.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Whether the per-job flight recorder is on (lifecycle timelines
    /// behind `GET /v1/jobs/<id>/trace`). Costs one small map entry per
    /// admitted job; off turns the trace route into a typed 404.
    pub flight_recorder: bool,
}

impl ServeConfig {
    /// The paper configuration on a machine of `capacity`.
    pub fn new(capacity: u32) -> ServeConfig {
        ServeConfig {
            capacity,
            metric: Metric::SldwA,
            tick: Duration::from_millis(20),
            queue_depth: 1024,
            max_connections: 64,
            max_body_bytes: 256 * 1024,
            checkpoint: None,
            flight_recorder: true,
        }
    }

    fn tuner(&self) -> SelfTuning {
        SelfTuning::paper_config(self.metric)
    }
}

/// One queued submission: the parsed batch plus the reply channel its
/// handler thread blocks on.
struct Submission {
    requests: Vec<JobRequest>,
    reply: mpsc::SyncSender<Vec<Decision>>,
}

/// The fixed route table behind `GET /v1/stats`: stable labels so the
/// windowed series names never depend on client-supplied paths.
const ROUTE_LABELS: [&str; 8] = [
    "jobs_submit",
    "job_status",
    "job_trace",
    "schedule",
    "stats",
    "shutdown",
    "healthz",
    "other",
];

/// RED (rate / errors / duration) primitives for one route.
struct RouteCell {
    label: &'static str,
    requests: Counter,
    errors: Counter,
    latency_ns: Histogram,
    /// The window-series names of the three primitives, built once: the
    /// decision loop samples on every turn, busy or idle.
    requests_series: String,
    errors_series: String,
    latency_series: String,
}

/// Per-route request statistics plus the sliding-window aggregator that
/// turns the cumulative totals into last-1m/5m/15m views. Handler
/// threads `record` into the lock-free primitives on every request; the
/// decision loop (and `GET /v1/stats` on demand) periodically `sample`s
/// the cumulative state into the window ring, so window freshness never
/// sits on the request path.
struct RouteStats {
    start: Instant,
    routes: Vec<RouteCell>,
    window: Mutex<WindowAggregator>,
}

impl RouteStats {
    fn new() -> RouteStats {
        RouteStats {
            start: Instant::now(),
            routes: ROUTE_LABELS
                .iter()
                .map(|label| RouteCell {
                    label,
                    requests: Counter::new(),
                    errors: Counter::new(),
                    latency_ns: Histogram::new(),
                    requests_series: format!("serve.route.{label}.requests"),
                    errors_series: format!("serve.route.{label}.errors"),
                    latency_series: format!("serve.route.{label}.latency_ns"),
                })
                .collect(),
            window: Mutex::new(WindowAggregator::for_slo()),
        }
    }

    /// Wall seconds since the server started — the slot clock for the
    /// window ring. Wall time is fine here: `/v1/stats` is explicitly
    /// outside the deterministic (logical-clock) surface.
    fn now_secs(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Maps a request to its route label index (`other` for misses).
    fn classify(method: &str, path: &str) -> usize {
        match (method, path) {
            ("POST", "/v1/jobs") => 0,
            ("GET", p) if job_path(p).is_some_and(|(_, trace)| trace) => 2,
            ("GET", p) if job_path(p).is_some() => 1,
            ("GET", "/v1/schedule") => 3,
            ("GET", "/v1/stats") => 4,
            ("POST", "/v1/shutdown") => 5,
            ("GET", "/healthz") => 6,
            _ => 7,
        }
    }

    fn record(&self, idx: usize, status: u16, latency_ns: u64) {
        let cell = &self.routes[idx];
        cell.requests.inc();
        if status >= 400 {
            cell.errors.inc();
        }
        cell.latency_ns.record(latency_ns);
    }

    /// Feeds the cumulative totals into the window ring (deltas are
    /// taken inside the aggregator).
    fn sample(&self) {
        let now = self.now_secs();
        let mut window = self.window.lock().unwrap_or_else(|e| e.into_inner());
        for cell in &self.routes {
            window.observe_histogram(&cell.latency_series, &cell.latency_ns.snapshot(), now);
            window.observe_counter(&cell.requests_series, cell.requests.get(), now);
            window.observe_counter(&cell.errors_series, cell.errors.get(), now);
        }
    }

    /// The strict-JSON `GET /v1/stats` body: cumulative per-route RED
    /// plus the last-1m/5m/15m windowed views.
    fn stats_json(&self) -> JsonValue {
        let now = self.now_secs();
        let mut routes = JsonValue::array();
        for cell in &self.routes {
            let snap = cell.latency_ns.snapshot();
            routes.push(
                JsonValue::object()
                    .with("route", cell.label)
                    .with("requests", cell.requests.get())
                    .with("errors", cell.errors.get())
                    .with("p50_ns", snap.quantile(0.50))
                    .with("p95_ns", snap.quantile(0.95))
                    .with("p99_ns", snap.quantile(0.99)),
            );
        }
        let windows = {
            let window = self.window.lock().unwrap_or_else(|e| e.into_inner());
            window.to_json(now)
        };
        JsonValue::object()
            .with("v", WIRE_VERSION)
            .with("uptime_secs", now)
            .with("routes", routes)
            .with("windows", windows)
    }
}

/// A running scheduling service. Dropping it (or calling
/// [`ServeServer::shutdown`]) drains and stops every thread.
pub struct ServeServer {
    core: Arc<Mutex<ServiceCore>>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    submit: SyncSender<Submission>,
    queue_depth: usize,
    http: Option<HttpServer>,
    loop_thread: Option<thread::JoinHandle<()>>,
}

impl ServeServer {
    /// Binds `addr` and starts the service. With `config.checkpoint`
    /// set, the core restores from the newest valid snapshot in that
    /// file (fingerprint-scoped to this configuration) before serving.
    pub fn start(addr: impl ToSocketAddrs, config: ServeConfig) -> Result<ServeServer, ServeError> {
        let core = Self::build_core(&config)?;
        let fp = fingerprint(&core.fingerprint_canonical());
        let core = Arc::new(Mutex::new(core));
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let (submit, inbox) = mpsc::sync_channel::<Submission>(config.queue_depth);

        let checkpoint = match config.checkpoint.as_ref() {
            None => None,
            Some(path) => match CheckpointLog::append_to(path) {
                Ok(log) => Some((log, fp)),
                Err(e) => {
                    // A service that cannot checkpoint still serves; it
                    // just loses restart continuity (and says so).
                    if let Some(r) = dynp_obs::recorder() {
                        r.counter("serve.checkpoint_open_failed").inc();
                        r.event("serve.checkpoint_open_failed")
                            .kv("error", e.to_string())
                            .emit();
                    }
                    None
                }
            },
        };
        let stats = Arc::new(RouteStats::new());
        let loop_thread = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let draining = Arc::clone(&draining);
            let stats = Arc::clone(&stats);
            let tick = config.tick;
            thread::Builder::new().name("serve-decide".into()).spawn(move || {
                decision_loop(&core, &stop, &draining, &inbox, tick, checkpoint, &stats)
            })?
        };

        let handler: dynp_watch::router::Handler = {
            let core = Arc::clone(&core);
            let draining = Arc::clone(&draining);
            let submit = submit.clone();
            let queue_depth = config.queue_depth;
            let stats = Arc::clone(&stats);
            Arc::new(move |request: &Request| {
                let started = Instant::now();
                let idx = RouteStats::classify(&request.method, &request.path);
                let response = route(request, &core, &draining, &submit, queue_depth, &stats);
                stats.record(idx, response.status, started.elapsed().as_nanos() as u64);
                response
            })
        };
        let http = HttpServer::start(
            addr,
            Arc::clone(&stop),
            RouterConfig::new("serve-conn", "serve.conn_rejected")
                .with_max_connections(config.max_connections)
                .with_max_body_bytes(config.max_body_bytes),
            handler,
        )?;

        Ok(ServeServer {
            core,
            stop,
            draining,
            submit,
            queue_depth: config.queue_depth,
            http: Some(http),
            loop_thread: Some(loop_thread),
        })
    }

    fn build_core(config: &ServeConfig) -> Result<ServiceCore, ServeError> {
        let mut fresh = ServiceCore::new(config.capacity, config.tuner());
        fresh.set_flight_recorder(config.flight_recorder);
        let Some(path) = &config.checkpoint else {
            return Ok(fresh);
        };
        if !path.exists() {
            return Ok(fresh);
        }
        let fp = fingerprint(&fresh.fingerprint_canonical());
        let loaded = dynp_obs::checkpoint::load(path, &fp).map_err(ServeError::Io)?;
        // The service checkpoints its whole state as cell 0; an empty
        // or foreign-fingerprint file just starts fresh.
        let Some(data) = loaded.cells.get(&0) else {
            return Ok(fresh);
        };
        let mut core = ServiceCore::restore(config.capacity, config.tuner(), data)
            .map_err(ServeError::Snapshot)?;
        core.set_flight_recorder(config.flight_recorder);
        if let Some(r) = dynp_obs::recorder() {
            r.event("serve.restored")
                .kv("clock", core.clock())
                .kv("batches", core.batches())
                .emit();
        }
        Ok(core)
    }

    /// The bound address — the actual port when started on port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.http
            .as_ref()
            .map(HttpServer::local_addr)
            .expect("server is running")
    }

    /// Submits a batch directly, bypassing HTTP — the bench's fast
    /// path and the programmatic client API. Goes through the same
    /// queue and decision loop as HTTP submissions. Returns the typed
    /// 429/503 errors HTTP clients would see.
    pub fn submit(&self, requests: Vec<JobRequest>) -> Result<Vec<Decision>, ApiError> {
        if self.draining.load(Ordering::Relaxed) {
            return Err(ApiError::draining());
        }
        enqueue(&self.submit, requests, self.queue_depth)
    }

    /// Begins the graceful drain: stop admitting, let the decision loop
    /// absorb the queue and run every job to completion on the logical
    /// clock. Status routes keep serving until [`ServeServer::shutdown`].
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Whether a drain has begun (via [`ServeServer::begin_drain`] or
    /// `POST /v1/shutdown`). Lets a hosting process wait for an
    /// API-initiated shutdown.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Drains (if not already draining) and stops everything. Returns
    /// the final service statistics.
    pub fn shutdown(mut self) -> JsonValue {
        self.begin_drain();
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
        self.stop.store(true, Ordering::Relaxed);
        if let Some(mut http) = self.http.take() {
            http.join();
        }
        let core = self.core.lock().unwrap_or_else(|e| e.into_inner());
        core.stats_json()
    }

    /// The current service statistics (see [`ServiceCore::stats_json`]).
    pub fn stats(&self) -> JsonValue {
        let core = self.core.lock().unwrap_or_else(|e| e.into_inner());
        core.stats_json()
    }
}

impl Drop for ServeServer {
    fn drop(&mut self) {
        self.draining.store(true, Ordering::Relaxed);
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
        self.stop.store(true, Ordering::Relaxed);
        if let Some(mut http) = self.http.take() {
            http.join();
        }
    }
}

/// Queues a parsed batch and waits for its decisions. `try_send` keeps
/// admission control strictly bounded: a full queue is an immediate
/// typed 429, never a blocked handler thread.
fn enqueue(
    submit: &SyncSender<Submission>,
    requests: Vec<JobRequest>,
    queue_depth: usize,
) -> Result<Vec<Decision>, ApiError> {
    let _span = dynp_obs::span("serve.admit_latency");
    let (reply, decisions) = mpsc::sync_channel(1);
    match submit.try_send(Submission { requests, reply }) {
        Ok(()) => {
            if let Some(r) = dynp_obs::recorder() {
                r.gauge("serve.queue_depth").add(1);
            }
        }
        Err(TrySendError::Full(_)) => {
            if let Some(r) = dynp_obs::recorder() {
                r.counter("serve.rejected").inc();
            }
            return Err(ApiError::queue_full(queue_depth));
        }
        Err(TrySendError::Disconnected(_)) => return Err(ApiError::draining()),
    }
    // The loop dropping our reply sender (drain raced the enqueue)
    // reads as draining, the same answer a later client would get.
    decisions.recv().map_err(|_| ApiError::draining())
}

/// The decision loop: blocks up to `tick` for the first submission,
/// then drains everything already queued into the same planning pass.
fn decision_loop(
    core: &Mutex<ServiceCore>,
    stop: &AtomicBool,
    draining: &AtomicBool,
    inbox: &Receiver<Submission>,
    tick: Duration,
    checkpoint: Option<(CheckpointLog, String)>,
    stats: &RouteStats,
) {
    loop {
        let first = match inbox.recv_timeout(tick) {
            Ok(s) => Some(s),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => None,
        };
        let mut pending = Vec::new();
        if let Some(first) = first {
            pending.push(first);
            // Everything already queued joins the same batch.
            while let Ok(next) = inbox.try_recv() {
                pending.push(next);
            }
        }
        // The window ring advances on the loop's own cadence, so stats
        // sampling never rides a handler thread's request path.
        stats.sample();
        if !pending.is_empty() {
            dequeued(pending.len());
            process_batch(core, &checkpoint, pending);
            continue;
        }
        if draining.load(Ordering::Relaxed) || stop.load(Ordering::Relaxed) {
            break;
        }
    }
    // Drain: absorb whatever snuck into the queue after the flag, then
    // run the logical clock forward until the machine is empty.
    let leftovers: Vec<Submission> = inbox.try_iter().collect();
    if !leftovers.is_empty() {
        dequeued(leftovers.len());
        process_batch(core, &checkpoint, leftovers);
    }
    let mut core = core.lock().unwrap_or_else(|e| e.into_inner());
    let end = core.drain();
    write_snapshot(&checkpoint, &core);
    if let Some(r) = dynp_obs::recorder() {
        r.event("serve.drained")
            .kv("clock", end)
            .kv("completed", core.records().len())
            .emit();
    }
}

/// Steps the `serve.queue_depth` gauge down as submissions leave the
/// queue for a planning pass (enqueue steps it up).
fn dequeued(n: usize) {
    if let Some(r) = dynp_obs::recorder() {
        r.gauge("serve.queue_depth").add(-(n as i64));
    }
}

/// Plans one merged batch and fans the decisions back out to the reply
/// channels, in submission order.
fn process_batch(
    core: &Mutex<ServiceCore>,
    checkpoint: &Option<(CheckpointLog, String)>,
    pending: Vec<Submission>,
) {
    let merged: Vec<JobRequest> = pending
        .iter()
        .flat_map(|s| s.requests.iter().copied())
        .collect();
    let decisions = {
        let mut core = core.lock().unwrap_or_else(|e| e.into_inner());
        let decisions = core.submit_batch(&merged);
        write_snapshot(checkpoint, &core);
        decisions
    };
    let mut cursor = decisions.into_iter();
    for submission in pending {
        let share: Vec<Decision> = cursor.by_ref().take(submission.requests.len()).collect();
        // A reply failure means the handler gave up (client gone) —
        // the decision stands either way.
        let _ = submission.reply.try_send(share);
    }
}

/// Appends the core's snapshot as checkpoint cell 0, rendered once as
/// text (no tree in between).
fn write_snapshot(checkpoint: &Option<(CheckpointLog, String)>, core: &ServiceCore) {
    if let Some((log, fp)) = checkpoint {
        log.append_json(fp, 0, &core.snapshot_json());
    }
}

/// Splits `/v1/jobs/<id>` and `/v1/jobs/<id>/trace` into the id text and
/// whether the trace was asked for; `None` for any other path.
fn job_path(path: &str) -> Option<(&str, bool)> {
    let rest = path.strip_prefix("/v1/jobs/")?;
    Some(match rest.strip_suffix("/trace") {
        Some(id) => (id, true),
        None => (rest, false),
    })
}

/// `GET /v1/jobs/<id>`, the job's status, or with `trace` its
/// flight-recorder timeline; `id` is the path segment as sent.
fn job_reply(core: &Mutex<ServiceCore>, id: &str, trace: bool) -> Response {
    let Ok(id) = id.parse::<u32>() else {
        return api_reply(Err(ApiError::bad_request(
            "job id must be an unsigned integer",
        )));
    };
    let (body, enabled) = {
        let core = core.lock().unwrap_or_else(|e| e.into_inner());
        if trace {
            (core.trace_json(id), core.flight_recorder())
        } else {
            (core.job_view(id), true)
        }
    };
    match body {
        Some(json) => Response::json(200, json.to_json()),
        None if !enabled => api_reply(Err(ApiError::new(
            404,
            "trace_disabled",
            "the flight recorder is disabled on this server",
        ))),
        None => api_reply(Err(ApiError::not_found(format!(
            "no job with id {id} was ever submitted"
        )))),
    }
}

/// Routes one HTTP request against the live service.
fn route(
    request: &Request,
    core: &Mutex<ServiceCore>,
    draining: &AtomicBool,
    submit: &SyncSender<Submission>,
    queue_depth: usize,
    stats: &RouteStats,
) -> Response {
    if let ("GET", Some((id, trace))) = (request.method.as_str(), job_path(&request.path)) {
        return job_reply(core, id, trace);
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/jobs") => {
            if draining.load(Ordering::Relaxed) {
                return api_reply(Err(ApiError::draining()));
            }
            let parsed = request
                .body_utf8()
                .map_err(|e| ApiError::bad_request(e.message.clone()))
                .and_then(JobRequest::parse_submit_body);
            let (requests, was_batch) = match parsed {
                Ok(p) => p,
                Err(e) => return api_reply(Err(e)),
            };
            match enqueue(submit, requests, queue_depth) {
                Ok(decisions) => Response::json(200, decisions_body(&decisions, was_batch)),
                Err(e) => api_reply(Err(e)),
            }
        }
        ("GET", "/v1/stats") => {
            stats.sample();
            Response::json(200, stats.stats_json().to_json())
        }
        ("GET", "/v1/schedule") => {
            let core = core.lock().unwrap_or_else(|e| e.into_inner());
            Response::json(200, core.schedule_view().to_json().to_json())
        }
        ("POST", "/v1/shutdown") => {
            let already = draining.swap(true, Ordering::Relaxed);
            let stats = {
                let core = core.lock().unwrap_or_else(|e| e.into_inner());
                core.stats_json()
            };
            let body = JsonValue::object()
                .with("v", WIRE_VERSION)
                .with("draining", true)
                .with("already_draining", already)
                .with("stats", stats);
            Response::json(202, body.to_json())
        }
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", _) => api_reply(Err(ApiError::not_found(format!(
            "no such route: GET {}",
            request.path
        )))),
        ("POST", _) => api_reply(Err(ApiError::not_found(format!(
            "no such route: POST {}",
            request.path
        )))),
        (method, _) => api_reply(Err(ApiError::new(
            405,
            "method_not_allowed",
            format!("method {method} is not supported"),
        ))),
    }
}

/// Serializes an [`ApiError`] (the `Ok` arm is unreachable by
/// construction; the signature keeps call sites uniform).
fn api_reply(result: Result<Response, ApiError>) -> Response {
    match result {
        Ok(r) => r,
        Err(e) => Response::json(e.status, e.to_json().to_json()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    fn http(addr: SocketAddr, request: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        http(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        http(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn server(capacity: u32) -> ServeServer {
        ServeServer::start("127.0.0.1:0", ServeConfig::new(capacity)).unwrap()
    }

    #[test]
    fn submit_status_schedule_round_trip() {
        let s = server(4);
        let addr = s.local_addr();
        let (status, body) = post(addr, "/v1/jobs", "{\"v\":1,\"width\":2,\"runtime\":100}");
        assert_eq!(status, 200, "{body}");
        dynp_obs::validate_json(&body).unwrap();
        assert!(body.contains("\"status\":\"running\""), "{body}");

        let (status, body) = get(addr, "/v1/jobs/0");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"running\""), "{body}");

        let (status, body) = get(addr, "/v1/schedule");
        assert_eq!(status, 200);
        dynp_obs::validate_json(&body).unwrap();
        assert!(body.contains("\"running\":1"), "{body}");

        let (status, body) = get(addr, "/v1/jobs/99");
        assert_eq!(status, 404);
        assert!(body.contains("not_found"), "{body}");
    }

    #[test]
    fn unsupported_versions_get_typed_400() {
        let s = server(4);
        let (status, body) = post(s.local_addr(), "/v1/jobs", "{\"v\":2,\"width\":1,\"runtime\":5}");
        assert_eq!(status, 400);
        assert!(body.contains("unsupported_version"), "{body}");
        dynp_obs::validate_json(&body).unwrap();
    }

    #[test]
    fn shutdown_drains_and_answers_status() {
        let s = server(4);
        let addr = s.local_addr();
        post(
            addr,
            "/v1/jobs",
            "{\"v\":1,\"jobs\":[{\"width\":4,\"runtime\":100},{\"width\":4,\"runtime\":50}]}",
        );
        let (status, body) = post(addr, "/v1/shutdown", "");
        assert_eq!(status, 202, "{body}");
        assert!(body.contains("\"draining\":true"), "{body}");
        // Submissions after the drain flag are refused...
        let (status, body) = post(addr, "/v1/jobs", "{\"v\":1,\"width\":1,\"runtime\":5}");
        assert_eq!(status, 503);
        assert!(body.contains("draining"), "{body}");
        // ...while the stats roll up both jobs as completed.
        let stats = s.shutdown();
        assert_eq!(stats.get("completed").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(stats.get("running").and_then(JsonValue::as_u64), Some(0));
    }

    #[test]
    fn stats_endpoint_reports_routes_and_windows() {
        let s = server(4);
        let addr = s.local_addr();
        post(addr, "/v1/jobs", "{\"v\":1,\"width\":2,\"runtime\":100}");
        get(addr, "/v1/jobs/0");
        let (status, body) = get(addr, "/v1/stats");
        assert_eq!(status, 200, "{body}");
        dynp_obs::validate_json(&body).unwrap();
        // The submit and status requests above are already counted; the
        // stats request itself samples before rendering, so its own
        // route appears with at least the in-flight request.
        assert!(body.contains("\"route\":\"jobs_submit\""), "{body}");
        assert!(body.contains("\"route\":\"job_status\""), "{body}");
        assert!(body.contains("\"window\":\"1m\""), "{body}");
        assert!(body.contains("\"window\":\"15m\""), "{body}");
        let parsed = dynp_obs::parse_json(&body).unwrap();
        let routes = parsed.get("routes").and_then(JsonValue::as_array).unwrap();
        let submit_row = routes
            .iter()
            .find(|r| r.get("route").and_then(JsonValue::as_str) == Some("jobs_submit"))
            .unwrap();
        assert_eq!(
            submit_row.get("requests").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(submit_row.get("errors").and_then(JsonValue::as_u64), Some(0));
    }

    #[test]
    fn trace_endpoint_serves_timelines_and_typed_404s() {
        let s = server(4);
        let addr = s.local_addr();
        post(addr, "/v1/jobs", "{\"v\":1,\"width\":2,\"runtime\":100}");
        let (status, body) = get(addr, "/v1/jobs/0/trace");
        assert_eq!(status, 200, "{body}");
        dynp_obs::validate_json(&body).unwrap();
        assert!(body.contains("\"trace\":\"t-1-0\""), "{body}");
        assert!(body.contains("\"event\":\"submitted\""), "{body}");
        let (status, body) = get(addr, "/v1/jobs/99/trace");
        assert_eq!(status, 404);
        assert!(body.contains("not_found"), "{body}");
        let (status, body) = get(addr, "/v1/jobs/zzz/trace");
        assert_eq!(status, 400);
        assert!(body.contains("unsigned integer"), "{body}");
    }

    #[test]
    fn trace_suffix_without_an_id_is_a_typed_400() {
        // `/v1/jobs/` and `/trace` overlap in `/v1/jobs/trace`: an empty
        // id between them, not a slice that ends before it starts.
        let s = server(4);
        let addr = s.local_addr();
        for path in ["/v1/jobs/trace", "/v1/jobs//trace", "/v1/jobs/"] {
            let (status, body) = get(addr, path);
            assert_eq!(status, 400, "{path}: {body}");
            assert!(body.contains("unsigned integer"), "{body}");
            dynp_obs::validate_json(&body).unwrap();
        }
        // The handler survived: the next request is served.
        post(addr, "/v1/jobs", "{\"v\":1,\"width\":2,\"runtime\":100}");
        let (status, body) = get(addr, "/v1/jobs/0/trace");
        assert_eq!(status, 200, "{body}");
    }

    #[test]
    fn disabled_flight_recorder_is_a_typed_404() {
        let mut config = ServeConfig::new(4);
        config.flight_recorder = false;
        let s = ServeServer::start("127.0.0.1:0", config).unwrap();
        let addr = s.local_addr();
        post(addr, "/v1/jobs", "{\"v\":1,\"width\":2,\"runtime\":100}");
        let (status, body) = get(addr, "/v1/jobs/0/trace");
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("trace_disabled"), "{body}");
        // The plain status route still answers.
        let (status, _) = get(addr, "/v1/jobs/0");
        assert_eq!(status, 200);
    }

    #[test]
    fn checkpoint_restores_across_restarts() {
        let dir = std::env::temp_dir().join(format!(
            "dynp-serve-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.ckpt");
        let mut config = ServeConfig::new(8);
        config.checkpoint = Some(path.clone());

        let first = ServeServer::start("127.0.0.1:0", config.clone()).unwrap();
        let d = first
            .submit(vec![JobRequest {
                width: 4,
                runtime: 100,
                actual_runtime: None,
                submit: Some(10),
            }])
            .unwrap();
        assert_eq!(d[0].id, 0);
        let stats = first.shutdown();
        assert_eq!(stats.get("completed").and_then(JsonValue::as_u64), Some(1));

        // A restarted server resumes ids, batches, and the clock.
        let second = ServeServer::start("127.0.0.1:0", config).unwrap();
        let d = second
            .submit(vec![JobRequest {
                width: 1,
                runtime: 5,
                actual_runtime: None,
                submit: None,
            }])
            .unwrap();
        assert_eq!(d[0].id, 1, "ids continue after restore");
        assert!(d[0].clock >= 110, "clock resumed from the drained state");
        let stats = second.shutdown();
        assert_eq!(stats.get("completed").and_then(JsonValue::as_u64), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
