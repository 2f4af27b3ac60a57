//! Shared experiment harness for the paper's tables and figures.
//!
//! Every experiment binary (see `src/bin/`) builds on the helpers here, so workload configuration is identical across
//! experiments: a CTC-like machine (430 nodes, mean interarrival 369 s)
//! generated by `dynp-trace`'s synthetic model (DESIGN.md §1 documents the
//! substitution for the original archive trace).

use dynp_core::SelfTuning;
use dynp_obs::JsonValue;
use dynp_platform::MachineHistory;
use dynp_sched::{Metric, SchedulingProblem};
use dynp_sim::{simulate, SimConfig, SimRun, SnapshotFilter};
use dynp_trace::{CtcModel, Job, SyntheticTrace, WorkloadModel};

/// Standard CTC-like workload for the experiments.
pub fn ctc_trace(n_jobs: usize, seed: u64) -> SyntheticTrace {
    CtcModel::default().generate(n_jobs, seed)
}

/// A smaller machine variant for quick experiments.
pub fn small_trace(n_jobs: usize, seed: u64, nodes: u32) -> SyntheticTrace {
    CtcModel {
        nodes,
        mean_interarrival: 120.0,
        ..CtcModel::default()
    }
    .generate(n_jobs, seed)
}

/// A mid-run scheduling snapshot (the `milp_par` instance): a `nodes`-node
/// machine with ten running jobs occupying part of it and `n_waiting`
/// CTC-model jobs queued at the snapshot time.
///
/// The running set caps each job's width so ten of them always fit, and
/// waiting submissions are folded into the hour before `now` — the same
/// shape the §3 timing claim ("less than 10 ms for 25 waiting jobs") is
/// measured against, scaled to arbitrary queue depths.
pub fn busy_snapshot(n_waiting: usize, nodes: u32, seed: u64) -> SchedulingProblem {
    let trace = CtcModel {
        nodes,
        ..CtcModel::default()
    }
    .generate(n_waiting + 10, seed);
    let now = 1_000_000u64;
    let cap = (nodes / 14).max(1);
    let running: Vec<(u32, u64)> = trace.jobs[..10]
        .iter()
        .enumerate()
        .map(|(k, j)| (j.width.min(cap), now + 600 + 300 * k as u64))
        .collect();
    let history = MachineHistory::build(nodes, now, &running);
    let jobs = trace.jobs[10..]
        .iter()
        .map(|j| Job {
            submit: now.saturating_sub(j.submit % 3600),
            ..*j
        })
        .collect();
    SchedulingProblem::new(now, history, jobs)
}

/// Replays `jobs` under the paper's dynP configuration, collecting
/// quasi-off-line snapshots matching `filter`.
pub fn dynp_run_with_snapshots(
    jobs: &[Job],
    machine_size: u32,
    filter: SnapshotFilter,
) -> SimRun<SelfTuning> {
    simulate(
        jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(machine_size).with_snapshots(filter),
    )
}

/// A dual-output experiment report: every human-readable line goes to
/// stdout *and* into `results/<name>.txt`, while the same underlying
/// values are accumulated as structured JSON for `results/<name>.json` —
/// one source of numbers, two renderings, so the files cannot drift
/// apart.
///
/// Constructing a report also installs a global [`dynp_obs`] recorder
/// whose JSONL event stream lands in `results/<name>.events.jsonl`, size-
/// rotated so result directories stay bounded (`dynp-insight` merges the
/// rotations back by logical clock). The recorder's counters and timing
/// histograms stay out of the two reports: they change from run to run,
/// and a report carries only what its inputs decide and the timings it
/// prints itself.
#[derive(Debug)]
pub struct Report {
    name: String,
    text: String,
    json: JsonValue,
    // Flushes the event sink even if the experiment panics mid-run.
    _flush: dynp_obs::FlushGuard,
}

/// Rotation policy for experiment event logs: ~2 MiB per file, a few
/// rotations of history. Enough for every committed-artifact experiment
/// to keep all events; a runaway run is bounded instead of unbounded.
const EVENTS_MAX_BYTES: u64 = 2 * 1024 * 1024;
const EVENTS_MAX_ROTATED: usize = 4;
/// Where every report writes, relative to the working directory.
const RESULTS_DIR: &str = "results";

impl Report {
    /// Starts the report `name`, writing under `results/`.
    pub fn new(name: &str) -> Report {
        let _ = std::fs::create_dir_all(RESULTS_DIR);
        let sink = dynp_obs::Sink::rotating(
            format!("{RESULTS_DIR}/{name}.events.jsonl"),
            EVENTS_MAX_BYTES,
            EVENTS_MAX_ROTATED,
        )
        .unwrap_or(dynp_obs::Sink::Null);
        dynp_obs::install(dynp_obs::Recorder::new(sink));
        Report {
            name: name.to_string(),
            text: String::new(),
            json: JsonValue::object().with("experiment", name),
            _flush: dynp_obs::flush_on_drop(),
        }
    }

    /// Prints one human-readable line and records it for the text file.
    pub fn line(&mut self, line: impl AsRef<str>) {
        let line = line.as_ref();
        println!("{line}");
        self.text.push_str(line);
        self.text.push('\n');
    }

    /// A blank separator line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Sets a top-level field of the JSON document.
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.json.set(key, value);
    }

    /// Writes `results/<name>.txt` and `results/<name>.json`; the event
    /// sink flushes when the report drops.
    pub fn finish(self) -> std::io::Result<()> {
        let path = format!("{RESULTS_DIR}/{}", self.name);
        std::fs::write(format!("{path}.txt"), &self.text)?;
        std::fs::write(format!("{path}.json"), self.json.to_json_pretty())?;
        eprintln!("wrote {path}.txt, {path}.json, {path}.events.jsonl");
        Ok(())
    }
}

/// Splits the process arguments into experiment-specific arguments and
/// the shared `--watch <addr>` flag every bench binary understands.
///
/// Call it instead of `std::env::args().skip(1)`: the returned argument
/// list has the flag (and its value) removed, so each binary's own
/// positional parsing is untouched.
pub fn cli_args_and_watch() -> (Vec<String>, Option<String>) {
    let mut args = Vec::new();
    let mut watch = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--watch" {
            watch = it.next();
            if watch.is_none() {
                eprintln!("--watch requires an <addr> argument (e.g. 127.0.0.1:0)");
                std::process::exit(2);
            }
        } else {
            args.push(arg);
        }
    }
    (args, watch)
}

/// A running watch server (or the disabled no-op); dropping it shuts
/// the server down and prints the alert summary.
///
/// Created by [`start_watch`] *after* [`Report::new`], so the server's
/// first `/metrics` response already reads this run's recorder.
#[derive(Debug, Default)]
pub struct Watch {
    server: Option<dynp_watch::WatchServer>,
}

impl Drop for Watch {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let summary = server.shutdown();
            eprintln!("watch: stopped; alerts {}", summary.to_json());
        }
    }
}

/// Starts the live telemetry server when `addr` was given (`--watch`).
///
/// The server runs [`dynp_watch::default_rules`]. The bound address is
/// printed to stderr as `watch: serving on http://<addr>` — with port 0
/// that line is how scripts learn the real port.
///
/// With `addr == None` no thread is started.
pub fn start_watch(addr: Option<&str>) -> Watch {
    let Some(addr) = addr else {
        return Watch::default();
    };
    match dynp_watch::WatchServer::start(addr, dynp_watch::default_rules()) {
        Ok(server) => {
            eprintln!("watch: serving on http://{}", server.local_addr());
            Watch {
                server: Some(server),
            }
        }
        Err(e) => {
            eprintln!("watch: cannot bind {addr}: {e}");
            std::process::exit(2);
        }
    }
}
