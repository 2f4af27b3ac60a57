//! End-to-end checks of the `dynp-watch` live telemetry server: a real
//! campaign watched over HTTP must serve validator-clean OpenMetrics,
//! a /progress document that reaches done == total, the self-test alert
//! on /alerts, and tail-able /events — and the collapsed-stack profile
//! dynp-insight folds from its event log must be nested and reconcile
//! (parents cover their children). A campaign that loses a cell must
//! raise the `campaign-degraded-cells` alert; a clean one must not.
//!
//! The recorder is process-global, so every test takes `OBS_LOCK` and
//! installs a fresh recorder (the previous one is leaked by design).

use dynp_rs::obs::{self, expo, json, Recorder, Sink};
use dynp_rs::prelude::*;
use dynp_rs::watch::{default_rules, WatchServer};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn fresh_recorder() -> (&'static Recorder, MutexGuard<'static, ()>) {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = obs::install(Recorder::new(Sink::memory()));
    (recorder, guard)
}

fn unique_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "dynp_watch_{}_{}_{}",
        tag,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One blocking HTTP/1.1 GET against the watch server; returns
/// `(status, body)`.
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to watch server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: watch\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn campaign_trace() -> Vec<Job> {
    let model = CtcModel {
        nodes: 64,
        mean_interarrival: 6_000.0,
        ..CtcModel::default()
    };
    model.generate(220, 7).jobs
}

fn config(dir: &std::path::Path) -> CampaignConfig {
    CampaignConfig::new("watched", 64)
        .with_shard_seconds(WEEK_SECONDS / 2)
        .with_selectors(vec![
            SelectorSpec::Fixed(Policy::Fcfs),
            SelectorSpec::dynp(),
        ])
        .with_factors(vec![1.0, 2.0])
        .with_workers(2)
        .with_output_dir(dir)
}

/// How often `rule` has fired according to an `/alerts` body.
fn fired(alerts: &str, rule: &str) -> u64 {
    let alerts = json::parse(alerts).expect("alerts are strict JSON");
    alerts
        .get("rules")
        .and_then(json::JsonValue::as_array)
        .expect("rules array")
        .iter()
        .find(|r| r.get("rule").and_then(json::JsonValue::as_str) == Some(rule))
        .and_then(|r| r.get("fired").and_then(json::JsonValue::as_u64))
        .unwrap_or_else(|| panic!("rule {rule} missing from /alerts"))
}

#[test]
fn watched_campaign_serves_metrics_progress_alerts_and_a_reconciling_profile() {
    let (recorder, _guard) = fresh_recorder();

    // Fast tick so the alert rules evaluate many times within the test.
    let server = WatchServer::start_with_tick(
        ("127.0.0.1", 0),
        default_rules(),
        Duration::from_millis(20),
    )
    .expect("bind watch server");
    let addr = server.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _) = get(addr, "/readyz");
    assert_eq!(status, 200);

    // Run a real (small) campaign while the server is up.
    let dir = unique_dir("campaign");
    let outcome = run_campaign(&campaign_trace(), &config(&dir)).expect("campaign runs");
    assert!(outcome.cells_total >= 8, "trace too small");

    // /metrics: validator-clean OpenMetrics carrying the progress gauges.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    expo::validate(&metrics).expect("live /metrics must satisfy the strict validator");
    assert!(metrics.contains("dynp_exp_cells_done"), "no progress gauges:\n{metrics}");
    assert!(metrics.contains("dynp_exp_cell_count"), "no cell histogram:\n{metrics}");

    // /progress: the campaign is over, so done == total, 100 %, ETA 0.
    let (status, progress) = get(addr, "/progress");
    assert_eq!(status, 200);
    let progress = json::parse(&progress).expect("progress is strict JSON");
    let field = |k: &str| progress.get(k).and_then(json::JsonValue::as_u64);
    assert_eq!(field("cells_done"), Some(outcome.cells_total as u64));
    assert_eq!(field("cells_total"), Some(outcome.cells_total as u64));
    assert_eq!(field("cells_inflight"), Some(0));
    let pct = progress.get("pct").and_then(json::JsonValue::as_f64);
    assert_eq!(pct, Some(100.0));
    let eta = progress.get("eta_secs").and_then(json::JsonValue::as_f64);
    assert_eq!(eta, Some(0.0), "finished campaign must report ETA 0");

    // /alerts: the self-test rule watches exp.cells_done > 0, so a
    // finished campaign is guaranteed to trip it within a few ticks.
    let deadline = Instant::now() + Duration::from_secs(5);
    let alerts = loop {
        let (status, alerts) = get(addr, "/alerts");
        assert_eq!(status, 200);
        json::validate(&alerts).expect("alerts are strict JSON");
        if alerts.contains("\"firing\":true") {
            break alerts;
        }
        assert!(Instant::now() < deadline, "self-test alert never fired:\n{alerts}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        alerts.contains("campaign-progress-selftest"),
        "unexpected firing rule:\n{alerts}"
    );
    // No cell degraded, so that rule stayed silent on every tick so far.
    assert_eq!(fired(&alerts, "campaign-degraded-cells"), 0, "{alerts}");

    // /events: tailing from seq 0 returns the campaign's event lines,
    // each spliced in verbatim, with a resumable cursor.
    let (status, events) = get(addr, "/events?since=0");
    assert_eq!(status, 200);
    let events = json::parse(&events).expect("events document is strict JSON");
    let lines = events
        .get("events")
        .and_then(json::JsonValue::as_array)
        .expect("events array");
    assert!(!lines.is_empty(), "no events tailed");
    let next = events.get("next").and_then(json::JsonValue::as_u64).expect("next cursor");
    assert!(next > 0);

    // Unknown paths and non-GET methods are refused.
    assert_eq!(get(addr, "/nope").0, 404);

    // Shutdown joins the threads and reports the fired totals.
    let summary = server.shutdown();
    let fired = summary
        .get("fired")
        .and_then(|f| f.get("campaign-progress-selftest"))
        .and_then(json::JsonValue::as_u64)
        .unwrap_or(0);
    assert!(fired >= 1, "summary lost the self-test alert: {}", summary.to_json());

    // Folding the run's event log gives a non-empty collapsed-stack
    // profile with nested stacks whose parents cover their children.
    let event_lines = recorder.events();
    let merged = dynp_rs::insight::merge_lines(
        "watch.events.jsonl",
        event_lines.iter().map(String::as_str),
    );
    let from_events = dynp_rs::insight::profile_groups(std::slice::from_ref(&merged));
    assert!(!from_events.stacks.is_empty(), "empty profile");
    assert!(
        from_events.stacks.keys().any(|s| s.contains(';')),
        "no nested stacks — span parents were lost: {:?}",
        from_events.stacks
    );
    assert_eq!(from_events.violations, 0, "child self-times exceed a parent");
    assert!(from_events.parents_checked > 0);
    for (kind, stat) in &from_events.kinds {
        assert!(
            stat.total_ns >= stat.self_ns,
            "kind {kind}: self {} > total {}",
            stat.self_ns,
            stat.total_ns
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_campaign_fires_the_degraded_cells_alert() {
    let (_recorder, _guard) = fresh_recorder();
    let server = WatchServer::start_with_tick(
        ("127.0.0.1", 0),
        default_rules(),
        Duration::from_millis(20),
    )
    .expect("bind watch server");

    // Cell 0 panics on every attempt, so it stays crashed and the sweep
    // finishes degraded.
    let dir = unique_dir("degraded");
    let faulted = config(&dir).with_faults(FaultPlan::none().inject(0, FaultKind::Panic, u32::MAX));
    let outcome = run_campaign(&campaign_trace(), &faulted).expect("degraded campaign exits ok");
    assert_eq!(outcome.cells_crashed, 1);

    // The alert tick is asynchronous: poll until the rule has fired.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, alerts) = get(server.local_addr(), "/alerts");
        assert_eq!(status, 200);
        if fired(&alerts, "campaign-degraded-cells") >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "degraded-cells alert never fired:\n{alerts}");
        std::thread::sleep(Duration::from_millis(20));
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn events_long_poll_blocks_until_new_lines_arrive() {
    let (recorder, _guard) = fresh_recorder();
    let server = WatchServer::start_with_tick(
        ("127.0.0.1", 0),
        Vec::new(),
        Duration::from_millis(20),
    )
    .expect("bind watch server");
    let addr = server.local_addr();

    recorder.event("watch.seed").kv("n", 1u64).emit();
    let (_, first) = get(addr, "/events?since=0");
    let first = json::parse(&first).expect("strict JSON");
    let next = first.get("next").and_then(json::JsonValue::as_u64).expect("cursor");

    // A request past the current head long-polls; an event emitted while
    // it waits is delivered within the poll window.
    let writer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(120));
        obs::recorder().expect("installed").event("watch.late").kv("n", 2u64).emit();
    });
    let started = Instant::now();
    let (status, tail) = get(addr, &format!("/events?since={next}"));
    writer.join().unwrap();
    assert_eq!(status, 200);
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "long-poll returned before the event was emitted"
    );
    let tail = json::parse(&tail).expect("strict JSON");
    let lines = tail.get("events").and_then(json::JsonValue::as_array).expect("array");
    assert!(
        lines.iter().any(|l| l.to_json().contains("watch.late")),
        "late event not delivered: {}",
        tail.to_json()
    );

    server.shutdown();
}

#[test]
fn metrics_endpoint_matches_direct_exposition_rendering() {
    let (recorder, _guard) = fresh_recorder();
    recorder.counter("watch.requests").inc();
    recorder.gauge("watch.depth").set(3);
    recorder.histogram("watch.latency").record(1_500);

    let server = WatchServer::start(("127.0.0.1", 0), Vec::new()).expect("bind");
    let (status, body) = get(server.local_addr(), "/metrics");
    assert_eq!(status, 200);
    expo::validate(&body).expect("valid exposition");
    // The endpoint is a live render of the same recorder, with the
    // sliding-window gauge families spliced in before the terminator.
    let direct = expo::render(recorder);
    let families = direct.strip_suffix("# EOF\n").expect("terminated exposition");
    assert!(body.starts_with(families), "recorder families changed:\n{body}");
    assert!(body.ends_with("# EOF\n"), "missing terminator:\n{body}");
    assert!(
        body.contains("dynp_window_watch_latency_p99_1m"),
        "window families missing:\n{body}"
    );
    assert!(
        body.contains("dynp_window_watch_requests_delta_15m"),
        "window counter families missing:\n{body}"
    );
    server.shutdown();
}

#[test]
fn slo_endpoint_reports_windows_and_alert_state() {
    let (recorder, _guard) = fresh_recorder();
    recorder.histogram("serve.admit_latency").record(5_000_000);
    recorder.counter("serve.requests").add(3);

    let server = WatchServer::start_with_tick(
        ("127.0.0.1", 0),
        default_rules(),
        Duration::from_millis(20),
    )
    .expect("bind");
    let (status, body) = get(server.local_addr(), "/slo");
    assert_eq!(status, 200);
    json::validate(&body).expect("/slo is strict JSON");
    let parsed = json::parse(&body).unwrap();
    let window = parsed.get("window").expect("window section");
    let windows = window
        .get("windows")
        .and_then(json::JsonValue::as_array)
        .expect("windows array");
    assert_eq!(windows.len(), 3, "1m/5m/15m: {body}");
    assert!(body.contains("\"window\":\"1m\""), "{body}");
    assert!(body.contains("serve.admit_latency"), "{body}");
    assert!(
        body.contains("serve-admit-p99-burn"),
        "burn-rate rule missing from alert state: {body}"
    );
    server.shutdown();
}

#[test]
fn events_since_behind_a_dropped_tail_returns_promptly() {
    // A bounded ring sink that has already dropped the early lines must
    // answer an old `since` cursor immediately with what it still
    // holds — not sit out the long-poll window waiting for seq 0.
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = obs::install(Recorder::new(Sink::ring(4)));
    let _guard = guard;
    for n in 0..32u64 {
        recorder.event("watch.flood").kv("n", n).emit();
    }
    let server = WatchServer::start_with_tick(
        ("127.0.0.1", 0),
        Vec::new(),
        Duration::from_millis(20),
    )
    .expect("bind");
    let started = Instant::now();
    let (status, body) = get(server.local_addr(), "/events?since=0");
    let elapsed = started.elapsed();
    assert_eq!(status, 200);
    assert!(
        elapsed < Duration::from_secs(1),
        "tail already past since=0 must answer promptly, took {elapsed:?}"
    );
    let parsed = json::parse(&body).expect("strict JSON");
    let lines = parsed
        .get("events")
        .and_then(json::JsonValue::as_array)
        .expect("events array");
    assert!(!lines.is_empty(), "ring tail lost everything: {body}");
    let next = parsed.get("next").and_then(json::JsonValue::as_u64).unwrap();
    assert_eq!(next, 32, "cursor must land past the newest retained line");
    server.shutdown();
}

#[test]
fn oversized_bodies_get_413_from_the_shared_router() {
    let (_recorder, _guard) = fresh_recorder();
    let server = WatchServer::start(("127.0.0.1", 0), Vec::new()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Announce a body far over the router's 256 KiB cap; the router
    // must refuse before reading it (no body bytes are ever sent).
    write!(
        stream,
        "POST /metrics HTTP/1.1\r\nHost: watch\r\nContent-Length: 300000\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
    server.shutdown();
}
