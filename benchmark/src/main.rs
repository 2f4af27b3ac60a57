//! dynp-rs benchmark harness: six named workloads over the serve, sim and
//! exact paths, end-to-end and per-layer numbers from one command.
//!
//! ```text
//! benchmark run [--workload W] [--seed S] [--scale full|smoke]
//!               [--seconds N] [--trace [0|1]]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! as the last line of standard output, the one-line JSON result the
//! benchmark contract asks for. `run` without `--workload` runs all six,
//! each in a process of its own (so `peak_rss_mb` belongs to one
//! workload), untraced and — with `--trace` — traced, and writes
//! `out/result.json` with the environment next to the numbers.

mod compare;
mod inputs;
mod loadgen;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use dynp_obs::JsonValue;
use report::WORKLOADS;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Where result and span files go: `benchmark/out/`, whatever the
/// current directory is.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    sizes: inputs::Sizes,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        sizes: inputs::FULL,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            it.next().cloned().ok_or(format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value(&mut it)?),
            "--seed" => {
                out.seed = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                out.seconds = Some(s);
            }
            "--scale" => {
                out.sizes = match value(&mut it)?.as_str() {
                    "full" => inputs::FULL,
                    "smoke" => inputs::SMOKE,
                    other => return Err(format!("unknown scale {other:?} (full or smoke)")),
                }
            }
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // form the benchmark driver uses.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &out.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {w:?}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(out)
}

/// Result file of one workload run, read back by the all-workloads run.
fn run_file(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}.{}.json",
        if trace { "traced" } else { "untraced" }
    ))
}

/// One workload in this process. Prints the metric table, then the
/// contract line.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let ctx = workloads::Ctx {
        seed: args.seed,
        sizes: args.sizes,
        seconds: args.seconds.unwrap_or(args.sizes.seconds),
        trace: args.trace,
    };
    let (report, tracer) = workloads::run(workload, &ctx).ok_or("unknown workload")?;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    std::fs::write(
        run_file(workload, args.trace),
        report.to_json().to_json_pretty(),
    )
    .map_err(|e| format!("writing the run file: {e}"))?;
    if args.trace {
        tracer
            .write_jsonl(&out.join(format!("{workload}.trace.jsonl")), workload)
            .map_err(|e| format!("writing the span file: {e}"))?;
    }
    report.print_table();
    println!("{}", report.contract_line());
    Ok(report.correct() && report.failed == 0)
}

/// Every workload, each in a child process; gathers `out/result.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut runs = JsonValue::array();
    let mut passed = true;
    for (workload, _) in WORKLOADS {
        for &trace in passes {
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--scale", args.sizes.name])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(s) = args.seconds {
                child.args(["--seconds", &s.to_string()]);
            }
            let status = child
                .status()
                .map_err(|e| format!("starting {workload}: {e}"))?;
            passed &= status.success();
            let text = std::fs::read_to_string(run_file(workload, trace))
                .map_err(|e| format!("{workload} left no result: {e}"))?;
            runs.push(dynp_obs::parse_json(&text)?);
        }
    }
    let result = JsonValue::object()
        .with("environment", sys::environment())
        .with("seed", args.seed)
        .with("scale", args.sizes.name)
        .with("runs", runs);
    let path = out_dir().join("result.json");
    std::fs::write(&path, result.to_json_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(passed)
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    dynp_obs::parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run_args(rest).and_then(|a| match &a.workload {
            Some(w) => run_one(w, &a),
            None => run_all(&a),
        }),
        Some((cmd, [a, b])) if cmd == "compare" => {
            load(a).and_then(|a| load(b).and_then(|b| compare::compare(&a, &b)))
        }
        _ => Err(
            "usage: benchmark run [--workload W] [--seed S] [--scale full|smoke] \
                  [--seconds N] [--trace [0|1]] | benchmark compare <a.json> <b.json>"
                .into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
