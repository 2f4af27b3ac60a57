//! `dynp-insight` — offline analyzer CLI for dynp-rs event logs.
//!
//! ```text
//! dynp-insight analyze <path>... [--logical] [--text] [--top N] [--out FILE]
//! dynp-insight diff <baseline.json> <candidate.json>
//! dynp-insight fold <path> [--out FILE]
//! dynp-insight check-metrics <snapshot.metrics.txt>
//! ```
//!
//! `analyze` ingests a results directory (or individual event logs,
//! rotations included), merges by logical clock, and prints the report
//! JSON. `--logical` restricts it to the worker-count-independent
//! section (the golden-file mode CI diffs); `--text` prints the human
//! summary instead. `diff` exits nonzero when the logical sections
//! differ; timing shifts are printed as notes only. `fold` rebuilds
//! the collapsed-stack profile (`flamegraph.pl` / inferno input) from
//! the span close events — the one way to get a profile of a run.
//! `check-metrics` validates an OpenMetrics snapshot with the strict
//! parser.

use dynp_insight::{
    analyze_groups, diff_reports, discover, merge_group, profile_path, render_text, Options,
};
use dynp_obs::JsonValue;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dynp-insight analyze <path>... [--logical] [--text] [--top N] [--out FILE]\n  dynp-insight diff <baseline.json> <candidate.json>\n  dynp-insight fold <path> [--out FILE]\n  dynp-insight check-metrics <snapshot.metrics.txt>"
    );
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("dynp-insight: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze_cmd(&args[1..]),
        Some("diff") => diff_cmd(&args[1..]),
        Some("fold") => fold_cmd(&args[1..]),
        Some("check-metrics") => check_metrics_cmd(&args[1..]),
        _ => usage(),
    }
}

fn analyze_cmd(args: &[String]) -> ExitCode {
    let mut opts = Options::default();
    let mut text = false;
    let mut out: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--logical" => opts.logical_only = true,
            "--text" => text = true,
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.top_k = n,
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            other if other.starts_with("--") => return usage(),
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        return usage();
    }
    let mut merged = Vec::new();
    for path in &paths {
        let groups = match discover(path) {
            Ok(g) => g,
            Err(e) => return fail(&format!("cannot read {}: {e}", path.display())),
        };
        if groups.is_empty() {
            return fail(&format!("no *.events.jsonl under {}", path.display()));
        }
        for g in &groups {
            match merge_group(g) {
                Ok(m) => merged.push(m),
                Err(e) => return fail(&format!("cannot merge {}: {e}", g.name)),
            }
        }
    }
    let report = analyze_groups(&merged, &opts);
    let rendered = if text {
        render_text(&report)
    } else {
        report.to_json_pretty() + "\n"
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, rendered) {
                return fail(&format!("cannot write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}

fn read_report(path: &str) -> Result<JsonValue, String> {
    let content =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    dynp_obs::parse_json(&content).map_err(|e| format!("{path} is not a valid report: {e}"))
}

fn diff_cmd(args: &[String]) -> ExitCode {
    let [baseline, candidate] = args else {
        return usage();
    };
    let (a, b) = match (read_report(baseline), read_report(candidate)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let outcome = diff_reports(&a, &b);
    for note in &outcome.timing_notes {
        println!("note: {note}");
    }
    if outcome.logical_equal {
        println!("logical sections identical");
        ExitCode::SUCCESS
    } else {
        for d in &outcome.logical_diffs {
            println!("diff: {d}");
        }
        eprintln!(
            "dynp-insight: {} logical difference(s) between {baseline} and {candidate}",
            outcome.logical_diffs.len()
        );
        ExitCode::FAILURE
    }
}

fn fold_cmd(args: &[String]) -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            other if other.starts_with("--") => return usage(),
            other => paths.push(PathBuf::from(other)),
        }
    }
    let [path] = paths.as_slice() else {
        return usage();
    };
    let profile = match profile_path(path) {
        Ok(p) => p,
        Err(e) => return fail(&format!("cannot profile {}: {e}", path.display())),
    };
    let rendered = dynp_obs::render_folded(&profile);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, rendered) {
                return fail(&format!("cannot write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}

fn check_metrics_cmd(args: &[String]) -> ExitCode {
    let [path] = args else {
        return usage();
    };
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    match dynp_obs::expo::validate(&content) {
        Ok(()) => {
            println!("{path}: valid OpenMetrics exposition");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("{path}: invalid OpenMetrics: {e}")),
    }
}
