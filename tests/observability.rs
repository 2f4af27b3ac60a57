//! End-to-end checks of the observability layer: instrumented subsystems
//! must produce the promised metrics, gap trajectories, and JSONL events
//! when a recorder is installed.
//!
//! The recorder is process-global, so every test takes `OBS_LOCK` and
//! installs a fresh recorder; the previously installed one is leaked by
//! design (handles held elsewhere stay valid).

use dynp_rs::obs::{self, json, Recorder, Sink};
use dynp_rs::prelude::*;
use std::sync::{Mutex, MutexGuard};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Installs a fresh in-memory recorder, holding the lock for the test's
/// duration so concurrent tests cannot swap it out.
fn fresh_recorder() -> (&'static Recorder, MutexGuard<'static, ()>) {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = obs::install(Recorder::new(Sink::memory()));
    (recorder, guard)
}

fn snapshot() -> SchedulingProblem {
    SchedulingProblem::on_empty_machine(
        0,
        4,
        vec![
            Job::exact(0, 0, 4, 3600),
            Job::exact(1, 0, 2, 600),
            Job::exact(2, 0, 2, 600),
            Job::exact(3, 0, 1, 1200),
        ],
    )
}

#[test]
fn exact_solve_populates_trajectory_histograms_and_events() {
    let (recorder, _guard) = fresh_recorder();
    let config = SolveConfig {
        scale_override: Some(60),
        ..SolveConfig::default()
    };
    let run = solve_snapshot(&snapshot(), &config).expect("snapshot has waiting jobs");

    // The solve found something, so the gap trajectory is non-empty and
    // closes at the solution-level gap.
    assert!(run.exact_value.is_some());
    assert!(!run.trajectory.is_empty(), "gap trajectory is empty");
    let last = run.trajectory.last().unwrap();
    assert_eq!(last.nodes, run.nodes);
    assert!((last.gap().unwrap() - run.gap.unwrap()).abs() < 1e-12);

    // Node and simplex-iteration metrics were recorded.
    assert!(recorder.counter("milp.nodes").get() > 0, "no nodes counted");
    let lp = recorder.histogram("milp.lp_iterations").snapshot();
    assert!(lp.count > 0, "no LP solves recorded");
    assert!(recorder.gauge("milp.open_nodes").high_water() > 0);

    // Incumbent and exit events exist and every line is valid JSON.
    let events = recorder.events();
    assert!(!events.is_empty());
    for line in &events {
        json::validate(line).unwrap_or_else(|e| panic!("invalid JSONL {line:?}: {e}"));
    }
    assert!(events.iter().any(|l| l.contains("\"target\":\"milp.incumbent\"")));
    assert!(events.iter().any(|l| l.contains("\"target\":\"milp.exit\"")));
}

#[test]
fn dynp_replay_emits_one_event_per_policy_decision() {
    let (recorder, _guard) = fresh_recorder();
    let model = CtcModel {
        nodes: 64,
        mean_interarrival: 120.0,
        ..CtcModel::default()
    };
    let trace = model.generate(120, 11);
    let run = simulate(
        &trace.jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(trace.machine_size),
    );

    // Every submission is a selection point; each non-trivial one must
    // have produced exactly one dynp.decision event carrying the per-
    // policy estimates, the policies whose estimate is a cut plan's
    // bound, and the chosen policy.
    let events = recorder.events();
    let decisions: Vec<&String> = events
        .iter()
        .filter(|l| l.contains("\"target\":\"dynp.decision\""))
        .collect();
    assert!(!decisions.is_empty(), "no policy-decision events");
    assert!(decisions.len() <= run.policy_log.len());
    for line in &decisions {
        json::validate(line).unwrap_or_else(|e| panic!("invalid JSONL {line:?}: {e}"));
        assert!(line.contains("\"estimates\""), "missing estimates: {line}");
        assert!(line.contains("\"cut\":["), "missing cut policies: {line}");
        assert!(line.contains("\"chosen\""), "missing chosen policy: {line}");
    }
    assert!(
        decisions.iter().any(|l| !l.contains("\"cut\":[]")),
        "no decision cut a challenger"
    );

    // Per-decision latency: one dynp.step span sample per tuning step.
    let step_latency = recorder.histogram("dynp.step").snapshot();
    assert_eq!(step_latency.count as usize, run.selector.stats().steps());
    assert!(step_latency.mean().unwrap() > 0.0);

    // The run-level span and completion event exist.
    assert_eq!(recorder.histogram("sim.run").snapshot().count, 1);
    assert!(events.iter().any(|l| l.contains("\"target\":\"sim.complete\"")));
}

#[test]
fn uninstrumented_paths_stay_silent_on_a_fresh_recorder() {
    let (recorder, _guard) = fresh_recorder();
    // Planning a schedule directly (no solver, no simulator) touches no
    // instrumented subsystem, so the recorder stays empty.
    let p = snapshot();
    let s = plan(&p, Policy::Sjf).unwrap();
    assert!(!s.is_empty());
    assert!(recorder.events().is_empty());
    assert_eq!(recorder.counter("milp.nodes").get(), 0);
}

#[test]
fn each_checkpoint_is_one_span_and_sets_the_snapshot_bytes_gauge() {
    let (recorder, _guard) = fresh_recorder();
    let dir = std::env::temp_dir().join(format!("dynp-obs-checkpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.ckpt");
    let _ = std::fs::remove_file(&path);
    let config_at = |checkpoint| {
        let mut config = ServeConfig::new(4);
        config.checkpoint = Some(checkpoint);
        config
    };
    let server = ServeServer::start("127.0.0.1:0", config_at(path.clone())).unwrap();
    let job = |width| JobRequest {
        width,
        runtime: 60,
        actual_runtime: None,
        submit: None,
    };
    server.submit(vec![job(2), job(4)]).unwrap();
    server.submit(vec![job(1)]).unwrap();
    server.shutdown();
    let written = std::fs::read_to_string(&path).unwrap();

    // One span per record: two batches and the drain.
    let lines: Vec<&str> = written.lines().collect();
    assert_eq!(lines.len(), 3);
    assert_eq!(recorder.histogram("serve.checkpoint").snapshot().count, 3);
    // The gauge holds the length of the last record's data, which is
    // written as canonical text.
    let last = obs::parse_json(lines[2]).unwrap();
    let data = last.get("data").unwrap().to_json();
    assert_eq!(recorder.gauge("serve.snapshot_bytes").get(), data.len() as i64);
    // Each batch is one span and one event; the drain is one event.
    let targets = |target: &str| {
        let needle = format!("\"target\":\"{target}\"");
        recorder.events().iter().filter(|l| l.contains(&needle)).count()
    };
    assert_eq!(recorder.histogram("serve.batch").snapshot().count, 2);
    assert_eq!((targets("serve.batch"), targets("serve.drained")), (2, 1));

    // A restart on the same file says it restored; a checkpoint file
    // that cannot be created (its directory is missing) still serves,
    // and says so.
    ServeServer::start("127.0.0.1:0", config_at(path)).unwrap().shutdown();
    assert_eq!(targets("serve.restored"), 1);
    let unopenable = dir.join("missing").join("serve.ckpt");
    ServeServer::start("127.0.0.1:0", config_at(unopenable)).unwrap().shutdown();
    assert_eq!(recorder.counter("serve.checkpoint_open_failed").get(), 1);
    assert_eq!(targets("serve.checkpoint_open_failed"), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
