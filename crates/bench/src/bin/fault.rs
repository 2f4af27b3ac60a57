//! Fault drill: runs a campaign under a deterministic [`FaultPlan`] and
//! proves the failure model end to end — panic isolation, per-cell
//! deadlines, bounded retries, checkpoint I/O faults, degraded-cell
//! resume, and (with `--watch`) the `campaign-degraded-cells` alert —
//! then measures the deadline machinery's overhead on clean campaigns.
//!
//! Writes `results/fault.{txt,json,events.jsonl}`, the drill campaign's
//! own `results/fault-run/` files, and `BENCH_fault.json` at the repo
//! root. Exits non-zero if any drill assertion fails; the overhead
//! numbers are informative (pinned by the `obs_cancel` criterion group,
//! not gated here).
//!
//! Usage: `cargo run --release -p dynp-bench --bin fault [--watch <addr>]`

use dynp_bench::{cli_args_and_watch, start_watch, Report};
use dynp_exp::{run_campaign, CampaignConfig, ExactConfig, FaultKind, FaultPlan, SelectorSpec};
use dynp_obs::{checkpoint, JsonValue};
use dynp_trace::{CtcModel, Job, WorkloadModel, WEEK_SECONDS};
use std::io::{Read as _, Write as _};
use std::time::{Duration, Instant};

fn drill_trace() -> Vec<Job> {
    // ~2 weekly shards on a 64-node machine; with two selectors that is
    // at least the 4 cells the fault plan targets.
    let model = CtcModel {
        nodes: 64,
        mean_interarrival: 4_000.0,
        ..CtcModel::default()
    };
    model.generate(300, 2004).jobs
}

fn drill_config(dir: &str) -> CampaignConfig {
    CampaignConfig::new("fault-drill", 64)
        .with_shard_seconds(WEEK_SECONDS / 2)
        .with_selectors(vec![SelectorSpec::Fixed(dynp_sched::Policy::Fcfs), SelectorSpec::dynp()])
        .with_factors(vec![1.0])
        .with_exact(None)
        .with_cell_deadline(Duration::from_secs(2))
        .with_retries(1)
        .with_faults(
            FaultPlan::none()
                // Cell 0 panics on every attempt: stays crashed.
                .inject(0, FaultKind::Panic, u32::MAX)
                // Cell 1 sleeps 10 minutes: the 2 s deadline times it out.
                .inject(1, FaultKind::Delay(Duration::from_secs(600)), u32::MAX)
                // Cell 2 computes fine but its checkpoint append is eaten.
                .inject(2, FaultKind::CheckpointIo, u32::MAX)
                // Cell 3 panics once and heals on the retry.
                .inject(3, FaultKind::Panic, 1),
        )
        .with_output_dir(dir)
}

/// One campaign used for the overhead measurement: clean (no faults),
/// with exact solves so the cancel polls in the B&B node loop, the
/// simplex iteration loop, and the DES event loop are all on the
/// measured path.
fn overhead_config(dir: String, deadline: Option<Duration>) -> CampaignConfig {
    let mut config = CampaignConfig::new("fault-overhead", 64)
        .with_shard_seconds(WEEK_SECONDS / 2)
        .with_selectors(vec![SelectorSpec::Fixed(dynp_sched::Policy::Fcfs), SelectorSpec::dynp()])
        .with_factors(vec![1.0, 3.0])
        .with_exact(Some(
            ExactConfig::new()
                .with_job_range(3, 10)
                .with_max_snapshots(1)
                .with_node_budget(400)
                .with_lp_iteration_budget(20_000),
        ))
        .with_output_dir(dir);
    if let Some(d) = deadline {
        config = config.with_cell_deadline(d);
    }
    config
}

/// Minimal HTTP GET against our own watch server; returns the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("watch server accepts");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: fault\r\nConnection: close\r\n\r\n")
        .expect("request writes");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response reads");
    match response.find("\r\n\r\n") {
        Some(at) => response[at + 4..].to_string(),
        None => response,
    }
}

/// Polls `/alerts` until `rule` has fired (the alert tick is async).
fn wait_for_alert(addr: std::net::SocketAddr, rule: &str) -> bool {
    for _ in 0..40 {
        let body = http_get(addr, "/alerts");
        if let Ok(alerts) = dynp_obs::parse_json(&body) {
            let fired = alerts
                .get("rules")
                .and_then(JsonValue::as_array)
                .into_iter()
                .flatten()
                .any(|r| {
                    r.get("rule").and_then(JsonValue::as_str) == Some(rule)
                        && r.get("fired").and_then(JsonValue::as_u64).unwrap_or(0) > 0
                });
            if fired {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    false
}

fn main() {
    let (_args, watch_addr) = cli_args_and_watch();
    let mut report = Report::new("fault");
    let watch = start_watch(watch_addr.as_deref());
    let jobs = drill_trace();

    // --- The drill: a campaign that must survive its fault plan. ---
    let dir = "results/fault-run";
    let _ = std::fs::remove_dir_all(dir);
    let first = run_campaign(&jobs, &drill_config(dir)).expect("faulted campaign exits ok");
    assert!(first.cells_total >= 4, "need >= 4 cells, got {}", first.cells_total);
    assert_eq!(first.cells_crashed, 1, "exactly the persistent panic stays crashed");
    assert_eq!(first.cells_timed_out, 1, "exactly the delayed cell times out");

    let loaded = checkpoint::load(&first.checkpoint_path, &first.fingerprint).expect("checkpoint loads");
    let field = |cell: usize, key: &str| loaded.cells[&cell].get(key).cloned();
    assert_eq!(
        field(0, "status").and_then(|s| s.as_str().map(String::from)),
        Some("crashed".into())
    );
    assert_eq!(field(0, "attempts").and_then(|a| a.as_u64()), Some(2));
    assert_eq!(
        field(1, "status").and_then(|s| s.as_str().map(String::from)),
        Some("timed_out".into())
    );
    assert!(!loaded.cells.contains_key(&2), "io-faulted cell must have no record");
    assert_eq!(field(3, "status").and_then(|s| s.as_str().map(String::from)), Some("ok".into()));
    assert_eq!(field(3, "attempts").and_then(|a| a.as_u64()), Some(2), "healed on retry");

    // The report carries the census and stays strict JSON.
    let report_bytes = std::fs::read(&first.report_json_path).expect("report exists");
    dynp_obs::validate_json(std::str::from_utf8(&report_bytes).unwrap())
        .expect("degraded report is strict JSON");
    let failures = first.report.get("failures").expect("failure census present");
    assert_eq!(failures.get("crashed").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(failures.get("timed_out").and_then(JsonValue::as_u64), Some(1));

    // Degraded records resume: everything except the io-faulted cell is
    // trusted, and the report reproduces byte for byte.
    let second = run_campaign(&jobs, &drill_config(dir)).expect("resume runs");
    assert_eq!(second.cells_resumed, second.cells_total - 1, "only the io-faulted cell recomputes");
    assert_eq!(second.cells_computed, 1);
    assert_eq!(
        std::fs::read(&second.report_json_path).expect("report exists"),
        report_bytes,
        "degraded resume must be byte-identical"
    );

    // CI greps this exact marker.
    eprintln!(
        "fault: census crashed={} timed_out={} resumed={} recomputed={}",
        second.cells_crashed, second.cells_timed_out, second.cells_resumed, second.cells_computed
    );
    report.line(format!(
        "drill: {} cells, {} crashed, {} timed out, resume recomputed {}",
        first.cells_total, first.cells_crashed, first.cells_timed_out, second.cells_computed
    ));
    report.set(
        "drill",
        JsonValue::object()
            .with("cells", first.cells_total)
            .with("crashed", first.cells_crashed)
            .with("timed_out", first.cells_timed_out)
            .with("resumed", second.cells_resumed)
            .with("recomputed_on_resume", second.cells_computed)
            .with("fingerprint", first.fingerprint.as_str()),
    );

    // --- With --watch: our own /alerts must show the degraded rule. ---
    let mut alert_fired = JsonValue::Null;
    if let Some(addr) = watch.local_addr() {
        let fired = wait_for_alert(addr, "campaign-degraded-cells");
        assert!(fired, "campaign-degraded-cells must fire for a degraded sweep");
        eprintln!("fault: alert campaign-degraded-cells fired");
        report.line("alert: campaign-degraded-cells fired on /alerts");
        alert_fired = JsonValue::from(true);
    }
    report.set("alert_fired", alert_fired);

    // --- Deadline overhead: same clean campaign, no deadline vs a huge
    // one. Every cell finishes long before the hour, so the delta is
    // purely the cancel polls + per-attempt token install. ---
    let overhead_jobs = drill_trace();
    let mut seconds = [0.0f64; 2];
    for (slot, deadline) in [(0, None), (1, Some(Duration::from_secs(3600)))] {
        let dir = format!("results/fault-overhead-{slot}");
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        let outcome =
            run_campaign(&overhead_jobs, &overhead_config(dir.clone(), deadline)).expect("clean run");
        seconds[slot] = started.elapsed().as_secs_f64();
        assert_eq!(outcome.cells_crashed + outcome.cells_timed_out, 0, "clean run degraded");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let overhead_percent = (seconds[1] / seconds[0].max(1e-9) - 1.0) * 100.0;
    report.blank();
    report.line(format!(
        "deadline overhead: {:.3} s without vs {:.3} s with a 1 h deadline ({overhead_percent:+.2}%)",
        seconds[0], seconds[1]
    ));
    report.set(
        "deadline_overhead",
        JsonValue::object()
            .with("no_deadline_seconds", seconds[0])
            .with("deadline_seconds", seconds[1])
            .with("overhead_percent", overhead_percent),
    );

    let bench = JsonValue::object()
        .with("bench", "fault")
        .with("cells", first.cells_total)
        .with("crashed", first.cells_crashed)
        .with("timed_out", first.cells_timed_out)
        .with("recomputed_on_resume", second.cells_computed)
        .with("deadline_overhead_percent", overhead_percent);
    std::fs::write("BENCH_fault.json", bench.to_json_pretty()).expect("write BENCH_fault");
    report.finish().expect("write report");
}
