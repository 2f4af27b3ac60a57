//! The watch server proper: the shared [`crate::router`] accept loop
//! with the telemetry routes, plus a sampling alert tick.
//!
//! ## Threading model
//!
//! Three kinds of threads, all owned by [`WatchServer`]:
//!
//! * one **accept** thread (the shared [`HttpServer`]) runs a
//!   non-blocking `accept()` loop, polling a shared stop flag every
//!   ~20 ms so shutdown never waits on a listener blocked in the
//!   kernel;
//! * short-lived **connection** threads, bounded by the router's
//!   connection cap (overflow is answered `503` and counted on
//!   `watch.conn_rejected`). Requests are single-shot with
//!   `Connection: close`, so there is no keep-alive state; the only
//!   long-lived handler — the `/events` long-poll — re-checks the stop
//!   flag every 25 ms and gives up after 2 s, so no handler outlives
//!   shutdown by more than a poll interval;
//! * one **alert tick** thread evaluates the [`AlertSet`] against the
//!   global recorder on a fixed period, emitting `alert` events on
//!   state transitions, and feeds the recorder's cumulative metrics
//!   into a sliding [`WindowAggregator`] so `/slo` and the window
//!   families on `/metrics` answer last-1m/5m/15m questions.
//!
//! Everything reads the process-global [`dynp_obs::recorder`]; beyond
//! the derived window ring, the server holds no metric state of its
//! own, which is why starting it is cheap and *not* starting it costs
//! the instrumented code nothing.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dynp_obs::{expo, AlertSet, JsonValue, Recorder, Rule, WindowAggregator};

use crate::http::{Request, Response};
use crate::progress::progress_json;
use crate::router::{HttpServer, RouterConfig, ACCEPT_POLL};

/// How often a `/events` long-poll re-checks for news (and the stop
/// flag).
const EVENTS_POLL: Duration = Duration::from_millis(25);
/// Longest a `/events` long-poll waits before answering empty-handed.
const EVENTS_WINDOW: Duration = Duration::from_secs(2);
/// Default alert evaluation period.
const DEFAULT_TICK: Duration = Duration::from_millis(250);
/// Lines the recorder's live-tail side ring keeps for `/events` when
/// the primary sink streams to a file.
const EVENTS_TAIL: usize = 4096;

/// The OpenMetrics content type `expo::render` output is served under.
const OPENMETRICS: &str = "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// The default rule set bench binaries install with `--watch`.
///
/// The `campaign-progress-selftest` rule is intentionally trivial — it
/// fires as soon as the first cell completes — so every watched run
/// demonstrably exercises the alert path end to end (a run whose
/// `/alerts` never fired anything is a run where alerting is broken,
/// not healthy).
///
/// `campaign-degraded-cells` watches the `exp.cells_degraded` gauge the
/// campaign runner maintains: any cell that stays crashed or timed out
/// after its retry budget raises the alert, so a sweep that silently
/// lost cells cannot look healthy from `/alerts`.
///
/// `serve-admit-p99-burn` is the windowed burn-rate rule: it fires only
/// when the *per-evaluation-window* admission p99 (not the cumulative
/// one, which old fast samples dilute forever) stays above 250 ms for
/// two consecutive evaluations — a sustained SLO burn, not a blip.
pub fn default_rules() -> Vec<Rule> {
    vec![
        Rule::gauge_above("campaign-progress-selftest", "exp.cells_done", 0),
        Rule::gauge_above("campaign-degraded-cells", "exp.cells_degraded", 0),
        Rule::counter_rate("milp-budget-exhaustion", "milp.budget_exhausted", 0.5),
        Rule::high_water_above("milp-open-list-high-water", "milp.open_nodes", 100_000),
        Rule::p99_above("cell-latency-p99", "exp.cell", 60_000_000_000),
        Rule::window_p99_above("serve-admit-p99-burn", "serve.admit_latency", 250_000_000, 2),
    ]
}

/// A running telemetry server; dropping it (or calling
/// [`WatchServer::shutdown`]) stops all of its threads.
#[derive(Debug)]
pub struct WatchServer {
    stop: Arc<AtomicBool>,
    alerts: Arc<Mutex<AlertSet>>,
    http: Option<HttpServer>,
    tick: Option<thread::JoinHandle<()>>,
}

impl WatchServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving with the default alert tick period.
    pub fn start(addr: impl ToSocketAddrs, rules: Vec<Rule>) -> io::Result<WatchServer> {
        WatchServer::start_with_tick(addr, rules, DEFAULT_TICK)
    }

    /// [`WatchServer::start`] with an explicit alert tick period (tests
    /// use a fast tick).
    pub fn start_with_tick(
        addr: impl ToSocketAddrs,
        rules: Vec<Rule>,
        tick: Duration,
    ) -> io::Result<WatchServer> {
        let stop = Arc::new(AtomicBool::new(false));
        let alerts = Arc::new(Mutex::new(AlertSet::new(rules)));
        let window = Arc::new(Mutex::new(WindowAggregator::for_slo()));

        // Bench runs stream events to rotating files, which hold no
        // in-memory buffer for `/events` to read; keep a bounded side
        // tail of recent lines on the recorder for the tail endpoint.
        if let Some(r) = dynp_obs::recorder() {
            r.set_event_tail(EVENTS_TAIL);
        }

        let handler = {
            let stop = Arc::clone(&stop);
            let alerts = Arc::clone(&alerts);
            let window = Arc::clone(&window);
            Arc::new(move |request: &Request| route(request, &stop, &alerts, &window))
        };
        let http = HttpServer::start(
            addr,
            Arc::clone(&stop),
            RouterConfig::new("watch-conn", "watch.conn_rejected"),
            handler,
        )?;
        let tick_handle = {
            let stop = Arc::clone(&stop);
            let alerts = Arc::clone(&alerts);
            let window = Arc::clone(&window);
            thread::Builder::new()
                .name("watch-alerts".into())
                .spawn(move || alert_loop(&stop, &alerts, &window, tick))?
        };
        Ok(WatchServer {
            stop,
            alerts,
            http: Some(http),
            tick: Some(tick_handle),
        })
    }

    /// The bound address — the actual port when started on port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.http.as_ref().expect("server running").local_addr()
    }

    /// Stops the accept and tick threads, waits for them, and returns
    /// the alert summary (also appended to the event log as an
    /// `alert.summary` event so offline analysis sees it).
    pub fn shutdown(mut self) -> JsonValue {
        self.stop_threads();
        let summary = self.alerts.lock().unwrap().summary();
        if let Some(r) = dynp_obs::recorder() {
            r.event("alert.summary")
                .kv("summary", summary.clone())
                .emit();
        }
        summary
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(mut h) = self.http.take() {
            h.join();
        }
        if let Some(h) = self.tick.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WatchServer {
    fn drop(&mut self) {
        // Best effort for the non-`shutdown()` path (e.g. unwinding):
        // stop the threads, skip the summary.
        self.stop_threads();
    }
}

fn alert_loop(
    stop: &Arc<AtomicBool>,
    alerts: &Arc<Mutex<AlertSet>>,
    window: &Arc<Mutex<WindowAggregator>>,
    tick: Duration,
) {
    while !stop.load(Ordering::Relaxed) {
        if let Some(r) = dynp_obs::recorder() {
            alerts.lock().unwrap().evaluate(r);
            let now = r.elapsed_secs() as u64;
            window.lock().unwrap().sample(r, now);
        }
        // Sleep in short slices so shutdown is never gated on a long
        // tick period.
        let deadline = Instant::now() + tick;
        while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
            thread::sleep(ACCEPT_POLL.min(tick));
        }
    }
}

fn route(
    request: &Request,
    stop: &AtomicBool,
    alerts: &Mutex<AlertSet>,
    window: &Mutex<WindowAggregator>,
) -> Response {
    if request.method != "GET" {
        return Response::text(405, "only GET is served here\n");
    }
    let recorder = dynp_obs::recorder();
    let no_recorder = || Response::text(503, "no recorder installed\n");
    match request.path.as_str() {
        "/healthz" => Response::text(200, "ok\n"),
        "/readyz" => match recorder {
            Some(_) => Response::text(200, "ready\n"),
            None => no_recorder(),
        },
        "/metrics" => match recorder {
            Some(r) => {
                // The window families ride the same exposition: sampled
                // fresh, spliced before `# EOF` so the render stays one
                // valid OpenMetrics document.
                let extra = {
                    let mut w = window.lock().unwrap();
                    let now = r.elapsed_secs() as u64;
                    w.sample(r, now);
                    w.openmetrics(now)
                };
                Response::new(200, OPENMETRICS, expo::render_with(r, &extra))
            }
            None => no_recorder(),
        },
        "/progress" => match recorder {
            Some(r) => Response::json(200, progress_json(r).to_json()),
            None => no_recorder(),
        },
        "/alerts" => Response::json(200, alerts.lock().unwrap().to_json().to_json()),
        "/slo" => match recorder {
            Some(_) => Response::json(200, slo_body(alerts, window).to_json()),
            None => no_recorder(),
        },
        "/events" => match recorder {
            Some(r) => {
                let since = request.query_u64("since").unwrap_or(0);
                Response::json(200, events_body(r, since, stop))
            }
            None => no_recorder(),
        },
        _ => Response::text(404, "unknown path\n"),
    }
}

/// Builds the `/slo` body: samples the window ring fresh from the
/// global recorder, then reports the 1m/5m/15m view alongside the alert
/// state (the burn-rate rules act on the same signals).
fn slo_body(alerts: &Mutex<AlertSet>, window: &Mutex<WindowAggregator>) -> JsonValue {
    let windows = {
        let mut w = window.lock().unwrap();
        let now = match dynp_obs::recorder() {
            Some(r) => {
                let now = r.elapsed_secs() as u64;
                w.sample(r, now);
                now
            }
            None => 0,
        };
        w.to_json(now)
    };
    JsonValue::object()
        .with("window", windows)
        .with("alerts", alerts.lock().unwrap().to_json())
}

/// The `/events?since=<seq>` long-poll: waits up to [`EVENTS_WINDOW`]
/// for at least one buffered event with `seq >= since`, then answers
/// with everything available and the `next` cursor to poll from.
///
/// An empty `events` array with `next == since` therefore means "caught
/// up"; `next > since` with missing sequence numbers means a bounded
/// ring sink dropped lines in between (the exposed
/// `dynp_obs_events_dropped` gauge quantifies it).
fn events_body(recorder: &Recorder, since: u64, stop: &AtomicBool) -> String {
    let deadline = Instant::now() + EVENTS_WINDOW;
    let mut lines = recorder.events_since(since);
    while lines.is_empty() && Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        thread::sleep(EVENTS_POLL);
        lines = recorder.events_since(since);
    }
    // `next_seq` is read after the lines so the cursor never skips an
    // event that was emitted between the two reads.
    let next = lines
        .iter()
        .filter_map(|l| dynp_obs::parse_json(l).ok())
        .filter_map(|v| v.get("seq").and_then(JsonValue::as_u64))
        .max()
        .map_or(since, |max_seen| max_seen + 1);
    // Event lines are already valid JSON objects; splice them verbatim
    // instead of re-serializing.
    let mut body = String::with_capacity(64 + lines.iter().map(|l| l.len() + 1).sum::<usize>());
    body.push_str("{\"since\":");
    body.push_str(&since.to_string());
    body.push_str(",\"next\":");
    body.push_str(&next.to_string());
    body.push_str(",\"events\":[");
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(line);
    }
    body.push_str("]}");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpStream;

    /// Plain-socket HTTP GET against a test server.
    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        use std::io::Write as _;
        write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    // These tests only hit routes that do not depend on the
    // process-global recorder (which other tests in the workspace own);
    // full end-to-end coverage lives in `tests/watch.rs`.

    #[test]
    fn serves_health_and_alerts_and_rejects_unknowns() {
        let server = WatchServer::start("127.0.0.1:0", default_rules()).unwrap();
        let addr = server.local_addr();

        let (status, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = get(addr, "/alerts");
        assert_eq!(status, 200);
        dynp_obs::validate_json(&body).unwrap();
        assert!(body.contains("campaign-progress-selftest"));

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        let summary = server.shutdown();
        dynp_obs::validate_json(&summary.to_json()).unwrap();
    }

    #[test]
    fn non_get_methods_are_refused() {
        let server = WatchServer::start("127.0.0.1:0", vec![]).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        use std::io::Write as _;
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        drop(server); // Drop path must also stop cleanly.
    }

    #[test]
    fn shutdown_joins_threads_promptly() {
        let server = WatchServer::start("127.0.0.1:0", default_rules()).unwrap();
        let addr = server.local_addr();
        let started = Instant::now();
        server.shutdown();
        assert!(started.elapsed() < Duration::from_secs(1));
        // The port is no longer served.
        let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        if let Ok(mut s) = refused {
            // A lingering socket may still connect; it must not answer.
            use std::io::Write as _;
            let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
            let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
            let mut buf = String::new();
            assert!(s.read_to_string(&mut buf).is_err() || buf.is_empty());
        }
    }
}
