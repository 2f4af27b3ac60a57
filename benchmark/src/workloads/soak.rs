//! `serve_checkpoint_soak`: a live `ServeServer` with a checkpoint file,
//! fed in-process through `ServeServer::submit`, 16 default-CTC jobs per
//! batch. Same core as `serve_core_backlog`, used for **writes**: after
//! every batch the server appends its whole state to the checkpoint, so
//! bytes written and per-batch latency grow with every job ever seen.
//! A bounded or incremental snapshot must show here; a planner gain that
//! costs snapshot size shows here too.
//!
//! The untraced reps drive the live server. The traced reps replay what
//! its decision loop does per batch — `submit_batch`, `snapshot`,
//! `CheckpointLog::append` — through the public functions, one span each;
//! the same decision digest and the same checkpoint size prove the
//! replica does the same work.

use super::{measure, ms_since, timed_setup, warm_up, Ctx, Quiet};
use crate::inputs::{digest, requests, shallow_trace, CTC_NODES};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::median;
use dynp_core::SelfTuning;
use dynp_obs::checkpoint::{fingerprint, CheckpointLog};
use dynp_obs::JsonValue;
use dynp_sched::Metric;
use dynp_serve::api::decisions_body;
use dynp_serve::{Decision, JobRequest, ServeConfig, ServeServer, ServiceCore};
use std::path::{Path, PathBuf};
use std::time::Instant;

const BATCH: usize = 16;

fn start_server(checkpoint: &Path) -> ServeServer {
    let mut config = ServeConfig::new(CTC_NODES);
    config.checkpoint = Some(checkpoint.to_path_buf());
    ServeServer::start("127.0.0.1:0", config).expect("binding the soak server")
}

/// What one rep produced, live or replayed.
#[derive(Default)]
struct Soaked {
    wall_s: f64,
    batch_ms: Vec<f64>,
    replies: Vec<Vec<Decision>>,
    refused: usize,
    completed: usize,
    /// The replayed pass keeps its last snapshot for sizing.
    last_snapshot: Option<JsonValue>,
}

fn live(requests: &[JobRequest], checkpoint: &Path) -> Soaked {
    let server = start_server(checkpoint);
    let mut out = Soaked::default();
    let started = Instant::now();
    for group in requests.chunks(BATCH) {
        let t = Instant::now();
        match server.submit(group.to_vec()) {
            Ok(decisions) => out.replies.push(decisions),
            Err(_) => out.refused += group.len(),
        }
        out.batch_ms.push(ms_since(t));
    }
    let stats = server.shutdown();
    out.wall_s = started.elapsed().as_secs_f64();
    out.completed = stats
        .get("completed")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0) as usize;
    out
}

/// The decision loop's work per batch, stage by stage.
fn staged(
    requests: &[JobRequest],
    checkpoint: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Soaked {
    let mut out = Soaked::default();
    let mut append_ms = Vec::new();
    let started = Instant::now();
    let mut core = ServiceCore::new(CTC_NODES, SelfTuning::paper_config(Metric::SldwA));
    let fp = fingerprint(&core.fingerprint_canonical());
    let log = CheckpointLog::append_to(checkpoint).expect("opening the soak checkpoint");
    let mut snapshot_ms = 0.0;
    // Builds, appends and releases one snapshot; freeing the tree is part
    // of what a snapshot costs, so it happens inside the span.
    let mut write = |core: &ServiceCore, tracer: &mut Tracer, keep: bool| {
        let t = Instant::now();
        let snapshot = tracer.span("serve.core.snapshot", || core.snapshot());
        snapshot_ms = ms_since(t);
        let t = Instant::now();
        tracer.span("obs.checkpoint.append", || log.append(&fp, 0, &snapshot));
        append_ms.push(ms_since(t));
        if keep {
            return Some(snapshot);
        }
        tracer.span("serve.core.snapshot", || drop(snapshot));
        None
    };
    for group in requests.chunks(BATCH) {
        let t = Instant::now();
        out.replies
            .push(tracer.span("serve.core.submit_batch", || core.submit_batch(group)));
        write(&core, tracer, false);
        out.batch_ms.push(ms_since(t));
    }
    tracer.span("serve.core.drain", || core.drain());
    out.last_snapshot = write(&core, tracer, true);
    out.wall_s = started.elapsed().as_secs_f64();
    out.completed = core.records().len();

    let decile = (append_ms.len() / 10).max(1);
    report.push(
        "obs.checkpoint.append_ms_first_decile",
        median(&append_ms[..decile]),
    );
    report.push(
        "obs.checkpoint.append_ms_last_decile",
        median(&append_ms[append_ms.len() - decile..]),
    );
    report.push("serve.core.snapshot_ms_last", snapshot_ms);
    out
}

/// One rep; `batch_ms` is left holding the time of every batch.
fn one_rep(
    requests: &[JobRequest],
    checkpoint: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
    batch_ms: &mut Vec<f64>,
) -> f64 {
    let _ = std::fs::remove_file(checkpoint);
    let root = tracer.enter("workload.rep");
    let out = if tracer.on() {
        staged(requests, checkpoint, tracer, report)
    } else {
        live(requests, checkpoint)
    };
    tracer.exit(root);
    let bytes_written = std::fs::metadata(checkpoint).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(checkpoint);

    let n = requests.len();
    report.push("ckpt_bytes_per_job", bytes_written as f64 / n as f64);
    if let Some(snapshot) = &out.last_snapshot {
        report.push("obs.checkpoint.bytes_total", bytes_written as f64);
        report.push(
            "serve.core.snapshot_bytes_last",
            snapshot.to_json().len() as f64,
        );
    }

    // Output checks: nothing refused, everything completed after the
    // drain; decisions and checkpoint size repeat exactly.
    let declined = out
        .replies
        .iter()
        .flatten()
        .filter(|d| d.declined.is_some())
        .count();
    report.attempted += n as u64;
    report.failed += (out.refused + declined).max(n - out.completed.min(n)) as u64;
    let mut bytes = String::new();
    for decisions in &out.replies {
        bytes.push_str(&decisions_body(decisions, true));
    }
    report.check_same("decisions_digest", digest(bytes.as_bytes()));
    report.check_same("obs.checkpoint.bytes_total", bytes_written.to_string());
    *batch_ms = out.batch_ms;
    out.wall_s
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) {
    let n = ctx.sizes.soak_jobs;
    let dir: PathBuf = crate::out_dir().join(format!("soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the soak scratch directory");
    let checkpoint = dir.join("serve.ckpt");
    // Set-up: the trace, and a server brought up on a fresh checkpoint
    // for the warming pass.
    let requests = timed_setup(report, || {
        let requests = requests(&shallow_trace(n, ctx.seed));
        warm_up(|t, r| one_rep(&requests[..n / 4], &checkpoint, t, r, &mut Vec::new()));
        requests
    });
    let (mut batch_ms, mut quiet) = (Vec::new(), Quiet::default());
    let mut rep = |tracer: &mut Tracer, report: &mut Report| {
        let wall = one_rep(&requests, &checkpoint, tracer, report, &mut batch_ms);
        if !tracer.on() {
            // Server start, shutdown and drain are the rest of the rep.
            let rest_ms = wall * 1e3 - batch_ms.iter().sum::<f64>();
            quiet.push(&batch_ms, &[rest_ms]);
        }
        wall
    };
    let budget = if ctx.trace {
        ctx.seconds * 0.9
    } else {
        ctx.seconds
    };
    measure(ctx, report, tracer, budget, &mut rep);
    quiet.report(report, n, 0.9);
    let _ = std::fs::remove_dir_all(&dir);
}
