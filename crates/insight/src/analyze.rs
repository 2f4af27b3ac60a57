//! The offline analyzer: turns merged event streams into a structured
//! insight report.
//!
//! The report has two top-level sections with different determinism
//! guarantees:
//!
//! * **`logical`** — derived only from deterministic quantities (cell
//!   payloads, span ids, solver node/iteration counts, statuses). For a
//!   given campaign config and trace it is **byte-identical regardless
//!   of worker count**, machine, or load, which is what makes it
//!   golden-file-diffable in CI.
//! * **`timing`** — wall-clock derived: latency percentiles per span
//!   kind, slowest cells, the critical path of the slowest cell, and
//!   the parent/child duration reconciliation. Informative, never
//!   gated on byte equality.
//!
//! Within a group, events are partitioned into *runs* at each
//! `exp.campaign_start` marker (a bench binary may run several
//! campaigns through one recorder); cells are keyed per run, so
//! repeated deterministic span ids across runs never collide.

use crate::merge::MergedGroup;
use dynp_obs::{Histogram, JsonValue, Profile, SpanRec};
use std::collections::BTreeMap;

/// Analyzer knobs.
#[derive(Clone, Debug)]
pub struct Options {
    /// Entries kept in top-k lists (slowest cells, biggest solves).
    pub top_k: usize,
    /// Emit only the `logical` section (byte-comparable across runs).
    pub logical_only: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            top_k: 5,
            logical_only: false,
        }
    }
}

/// One span close record inside a cell.
#[derive(Clone, Debug)]
struct SpanClose {
    kind: String,
    parent: u64,
    dur_ns: u64,
}

#[derive(Default)]
struct CellAgg {
    events: u64,
    spans: BTreeMap<u64, SpanClose>,
}

impl CellAgg {
    /// The cell's root span close (`parent == 0`), if the cell finished.
    fn root(&self) -> Option<(u64, &SpanClose)> {
        self.spans
            .iter()
            .find(|(_, s)| s.parent == 0)
            .map(|(id, s)| (*id, s))
    }
}

struct MilpExit {
    cell: Option<u64>,
    span: u64,
    nodes: u64,
    lp_iterations: u64,
    status: String,
    objective: Option<f64>,
    bound: Option<f64>,
    gap: Option<f64>,
}

/// Totals for the parent ≥ Σ children duration invariant.
#[derive(Default, Clone, Copy)]
pub struct Reconciliation {
    /// Spans that had at least one child.
    pub parents_checked: u64,
    /// Parents whose direct children's durations sum past their own.
    pub violations: u64,
}

fn opt_f64(v: Option<f64>) -> JsonValue {
    match v {
        Some(x) => JsonValue::from(x),
        None => JsonValue::Null,
    }
}

/// Analyzes merged groups into the report JSON. `hist_sink`, when
/// given, receives every span duration keyed by kind (shared across
/// groups) — used internally and exposed for tests.
pub fn analyze_groups(groups: &[MergedGroup], opts: &Options) -> JsonValue {
    let mut span_hists: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut recon = Reconciliation::default();
    // Full-stream profile (cell + free spans), merged per run: the same
    // fold the `fold` subcommand renders, so the timing section's self
    // times agree with it by construction.
    let mut profile = Profile::default();
    let mut logical_groups = JsonValue::Array(Vec::new());
    let mut timing_groups = JsonValue::Array(Vec::new());

    for group in groups {
        let (logical, timing) =
            analyze_group(group, opts, &mut span_hists, &mut recon, &mut profile);
        if let JsonValue::Array(items) = &mut logical_groups {
            items.push(logical);
        }
        if let JsonValue::Array(items) = &mut timing_groups {
            items.push(timing);
        }
    }

    let mut report = JsonValue::object()
        .with("schema", "dynp-insight/v1")
        .with("mode", if opts.logical_only { "logical" } else { "full" })
        .with("logical", JsonValue::object().with("groups", logical_groups));
    if !opts.logical_only {
        let mut kinds = JsonValue::object();
        for (kind, hist) in &span_hists {
            let snap = hist.snapshot();
            // Self time comes from the tree fold, not the histogram:
            // duration minus direct children, summed over the kind.
            let self_ns = profile
                .kinds
                .get(kind.as_str())
                .map(|stat| stat.self_ns)
                .unwrap_or(0);
            kinds.set(
                kind,
                JsonValue::object()
                    .with("count", snap.count)
                    .with("min_ns", snap.min)
                    .with("mean_ns", opt_f64(snap.mean()))
                    .with("p50_ns", opt_f64(snap.quantile(0.50).map(|v| v as f64)))
                    .with("p90_ns", opt_f64(snap.quantile(0.90).map(|v| v as f64)))
                    .with("p99_ns", opt_f64(snap.quantile(0.99).map(|v| v as f64)))
                    .with("max_ns", snap.max)
                    .with("sum_ns", snap.sum)
                    .with("self_ns", self_ns),
            );
        }
        report = report.with(
            "timing",
            JsonValue::object()
                .with("span_kinds", kinds)
                .with(
                    "reconciliation",
                    JsonValue::object()
                        .with("parents_checked", recon.parents_checked)
                        .with("violations", recon.violations),
                )
                .with("groups", timing_groups),
        );
    }
    report
}

/// Partitions a group's events into runs at each `exp.campaign_start`
/// marker. Run 0 is the (possibly empty, then dropped) prelude before
/// the first marker.
fn partition_runs(group: &MergedGroup) -> Vec<Vec<&crate::event::Event>> {
    let mut runs: Vec<Vec<&crate::event::Event>> = vec![Vec::new()];
    for ev in &group.events {
        if ev.target == "exp.campaign_start" {
            runs.push(Vec::new());
        }
        runs.last_mut().expect("never empty").push(ev);
    }
    if runs.first().is_some_and(Vec::is_empty) {
        runs.remove(0);
    }
    runs
}

/// Rebuilds [`SpanRec`]s from one run's `span` close events. Both cell
/// and free spans are kept; span ids are only meaningful within one run,
/// which is why callers fold per run and [`Profile::merge`] the results.
fn run_span_records(events: &[&crate::event::Event]) -> Vec<SpanRec> {
    events
        .iter()
        .filter(|ev| ev.target == "span")
        .filter_map(|ev| {
            ev.span.map(|span| SpanRec {
                cell: ev.cell,
                span,
                parent: ev.parent.unwrap_or(0),
                kind: ev.s("kind").unwrap_or("?").to_string(),
                dur_ns: ev.u("dur_ns").unwrap_or(0),
            })
        })
        .collect()
}

fn analyze_group(
    group: &MergedGroup,
    opts: &Options,
    span_hists: &mut BTreeMap<String, Histogram>,
    recon: &mut Reconciliation,
    profile: &mut Profile,
) -> (JsonValue, JsonValue) {
    let runs = partition_runs(group);

    let mut logical_runs = JsonValue::Array(Vec::new());
    let mut timing_runs = JsonValue::Array(Vec::new());
    for (index, events) in runs.iter().enumerate() {
        let (logical, timing) = analyze_run(index, events, opts, span_hists, recon, profile);
        if let JsonValue::Array(items) = &mut logical_runs {
            items.push(logical);
        }
        if let JsonValue::Array(items) = &mut timing_runs {
            items.push(timing);
        }
    }

    let logical = JsonValue::object()
        .with("name", group.name.as_str())
        .with("lines", group.lines)
        .with("rejected", group.rejected)
        .with("duplicate_seqs", group.duplicate_seqs)
        .with("conflicting_seqs", group.conflicting_seqs)
        .with("missing_seqs", group.missing_seqs)
        .with("runs", logical_runs);
    let timing = JsonValue::object()
        .with("name", group.name.as_str())
        .with(
            "files",
            JsonValue::Array(
                group
                    .files
                    .iter()
                    .map(|f| JsonValue::from(f.display().to_string()))
                    .collect(),
            ),
        )
        .with("runs", timing_runs);
    (logical, timing)
}

fn analyze_run(
    index: usize,
    events: &[&crate::event::Event],
    opts: &Options,
    span_hists: &mut BTreeMap<String, Histogram>,
    recon: &mut Reconciliation,
    profile: &mut Profile,
) -> (JsonValue, JsonValue) {
    let start = events.first().filter(|e| e.target == "exp.campaign_start");
    let fingerprint = start.and_then(|e| e.s("fingerprint")).map(str::to_string);
    // The campaign id events carry is the FNV hash of the fingerprint;
    // recompute it so we can verify every cell event belongs here.
    let expected_campaign = fingerprint
        .as_deref()
        .map(dynp_obs::checkpoint::fingerprint);

    let mut cells: BTreeMap<u64, CellAgg> = BTreeMap::new();
    let mut span_kinds: BTreeMap<String, u64> = BTreeMap::new();
    let mut events_in_cells = 0u64;
    let mut span_closes = 0u64;
    let mut campaign_mismatches = 0u64;
    let mut milp_exits: Vec<MilpExit> = Vec::new();
    let mut dynp_decisions = 0u64;
    let mut dynp_switches = 0u64;
    // Failure census: the fault-tolerance events the campaign runner
    // emits. Crashes, timeouts, and retry decisions are deterministic
    // for a given config + fault plan, so the census is logical.
    let mut cell_crashed = 0u64;
    let mut cell_timeout = 0u64;
    let mut cell_retry = 0u64;
    let mut checkpoint_write_failed = 0u64;
    // Online alert census: transitions by rule, split by direction. The
    // rates and p99s that drive alerts are wall-clock quantities, so the
    // census lives in the timing section (a watched run and an identical
    // unwatched run must still produce byte-identical logical sections).
    let mut alert_firing: BTreeMap<String, u64> = BTreeMap::new();
    let mut alert_resolved = 0u64;
    let mut alert_summaries = 0u64;

    for ev in events {
        if let Some(cell) = ev.cell {
            events_in_cells += 1;
            let agg = cells.entry(cell).or_default();
            agg.events += 1;
            if let (Some(expected), Some(seen)) = (&expected_campaign, &ev.campaign) {
                if expected != seen {
                    campaign_mismatches += 1;
                }
            }
        }
        match ev.target.as_str() {
            "span" => {
                span_closes += 1;
                let kind = ev.s("kind").unwrap_or("?").to_string();
                let dur_ns = ev.u("dur_ns").unwrap_or(0);
                *span_kinds.entry(kind.clone()).or_insert(0) += 1;
                span_hists.entry(kind.clone()).or_default().record(dur_ns);
                if let (Some(cell), Some(span)) = (ev.cell, ev.span) {
                    cells.entry(cell).or_default().spans.insert(
                        span,
                        SpanClose {
                            kind,
                            parent: ev.parent.unwrap_or(0),
                            dur_ns,
                        },
                    );
                }
            }
            "milp.exit" => milp_exits.push(MilpExit {
                cell: ev.cell,
                span: ev.span.unwrap_or(0),
                nodes: ev.u("nodes").unwrap_or(0),
                lp_iterations: ev.u("lp_iterations").unwrap_or(0),
                status: ev.s("status").unwrap_or("?").to_string(),
                objective: ev.f("objective"),
                bound: ev.f("bound"),
                gap: ev.f("gap"),
            }),
            "dynp.decision" => {
                dynp_decisions += 1;
                if ev.body.get("switched").and_then(JsonValue::as_bool) == Some(true) {
                    dynp_switches += 1;
                }
            }
            "exp.cell_crashed" => cell_crashed += 1,
            "exp.cell_timeout" => cell_timeout += 1,
            "exp.cell_retry" => cell_retry += 1,
            "exp.checkpoint_write_failed" => checkpoint_write_failed += 1,
            "alert" => {
                let rule = ev.s("rule").unwrap_or("?").to_string();
                if ev.s("state") == Some("firing") {
                    *alert_firing.entry(rule).or_insert(0) += 1;
                } else {
                    alert_resolved += 1;
                }
            }
            "alert.summary" => alert_summaries += 1,
            _ => {}
        }
    }

    let span_records = run_span_records(events);
    // Structure: every non-root span must hang off a span of its cell.
    // Both invariants are checked by the same fold that builds
    // `.folded` profiles; restricted to cell spans here so the logical
    // `orphan_spans` count never depends on what ran outside cells.
    let cell_profile = dynp_obs::profile_spans(
        &span_records
            .iter()
            .filter(|rec| rec.cell.is_some())
            .cloned()
            .collect::<Vec<_>>(),
    );
    let orphan_spans = cell_profile.orphans;
    recon.parents_checked += cell_profile.parents_checked;
    recon.violations += cell_profile.violations;
    // The full fold (cell + free spans) feeds the timing self times.
    profile.merge(&dynp_obs::profile_spans(&span_records));

    // The "CPLEX still running" census: Feasible means the budget ran
    // out with an incumbent in hand; Infeasible/Unknown mean not even
    // an incumbent.
    let mut by_status: BTreeMap<String, u64> = BTreeMap::new();
    let (mut nodes_total, mut lp_total) = (0u64, 0u64);
    for exit in &milp_exits {
        *by_status.entry(exit.status.clone()).or_insert(0) += 1;
        nodes_total += exit.nodes;
        lp_total += exit.lp_iterations;
    }
    let optimal = by_status.get("Optimal").copied().unwrap_or(0);
    let budget_hit = by_status.get("Feasible").copied().unwrap_or(0);
    let no_incumbent = milp_exits.len() as u64 - optimal - budget_hit;
    // Top-k biggest solves by explored nodes — deterministic effort, so
    // this ranking is part of the logical section; ties break on
    // (cell, span) for stability.
    let mut ranked: Vec<&MilpExit> = milp_exits.iter().collect();
    ranked.sort_by(|a, b| {
        b.nodes
            .cmp(&a.nodes)
            .then(a.cell.cmp(&b.cell))
            .then(a.span.cmp(&b.span))
    });
    let top_by_nodes = JsonValue::Array(
        ranked
            .iter()
            .take(opts.top_k)
            .map(|e| {
                JsonValue::object()
                    .with(
                        "cell",
                        match e.cell {
                            Some(c) => JsonValue::from(c),
                            None => JsonValue::Null,
                        },
                    )
                    .with("nodes", e.nodes)
                    .with("lp_iterations", e.lp_iterations)
                    .with("status", e.status.as_str())
                    .with("objective", opt_f64(e.objective))
                    .with("bound", opt_f64(e.bound))
                    .with("gap", opt_f64(e.gap))
            })
            .collect(),
    );

    let mut kinds_json = JsonValue::object();
    for (kind, count) in &span_kinds {
        kinds_json.set(kind, *count);
    }

    let mut logical = JsonValue::object().with("run", index);
    if let Some(s) = start {
        logical = logical
            .with("name", s.s("name").unwrap_or("?"))
            .with("fingerprint", fingerprint.as_deref().unwrap_or("?"))
            .with("shards", s.u("shards").unwrap_or(0))
            .with("cells_declared", s.u("cells").unwrap_or(0));
    }
    logical = logical
        .with("events", events.len())
        .with("events_in_cells", events_in_cells)
        .with("span_closes", span_closes)
        .with("cells_seen", cells.len())
        .with("span_kinds", kinds_json)
        .with(
            "structure",
            JsonValue::object()
                .with("orphan_spans", orphan_spans)
                .with("campaign_mismatches", campaign_mismatches),
        )
        .with(
            "milp",
            JsonValue::object()
                .with("solves", milp_exits.len())
                .with("optimal", optimal)
                .with("budget_hit", budget_hit)
                .with("no_incumbent", no_incumbent)
                .with("nodes", nodes_total)
                .with("lp_iterations", lp_total)
                .with("top_by_nodes", top_by_nodes),
        )
        .with(
            "dynp",
            JsonValue::object()
                .with("decisions", dynp_decisions)
                .with("switches", dynp_switches),
        )
        .with(
            "faults",
            JsonValue::object()
                .with("cell_crashed", cell_crashed)
                .with("cell_timeout", cell_timeout)
                .with("cell_retry", cell_retry)
                .with("checkpoint_write_failed", checkpoint_write_failed),
        );

    // Timing: slowest cells by their root span, then the critical path
    // of the slowest — at each level descend into the child that took
    // longest, which names the stage bounding wall-clock.
    let mut by_dur: Vec<(u64, u64)> = cells
        .iter()
        .filter_map(|(id, agg)| agg.root().map(|(_, root)| (*id, root.dur_ns)))
        .collect();
    by_dur.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let slowest_cells = JsonValue::Array(
        by_dur
            .iter()
            .take(opts.top_k)
            .map(|(cell, dur)| JsonValue::object().with("cell", *cell).with("dur_ns", *dur))
            .collect(),
    );
    let critical_path = match by_dur.first() {
        Some((cell, _)) => critical_path_json(*cell, &cells[cell]),
        None => JsonValue::Array(Vec::new()),
    };
    let mut by_rule = JsonValue::object();
    for (rule, count) in &alert_firing {
        by_rule.set(rule, *count);
    }
    let timing = JsonValue::object()
        .with("run", index)
        .with("slowest_cells", slowest_cells)
        .with("critical_path", critical_path)
        .with(
            "alerts",
            JsonValue::object()
                .with("firing", alert_firing.values().sum::<u64>())
                .with("resolved", alert_resolved)
                .with("summaries", alert_summaries)
                .with("by_rule", by_rule),
        );
    (logical, timing)
}

/// Walks from the cell's root span down its heaviest child at each
/// level.
fn critical_path_json(cell: u64, agg: &CellAgg) -> JsonValue {
    let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (id, close) in &agg.spans {
        if close.parent != 0 {
            children.entry(close.parent).or_default().push(*id);
        }
    }
    let mut path = Vec::new();
    let mut cursor = agg.root().map(|(id, _)| id);
    while let Some(id) = cursor {
        let close = &agg.spans[&id];
        path.push(
            JsonValue::object()
                .with("cell", cell)
                .with("span", id)
                .with("kind", close.kind.as_str())
                .with("dur_ns", close.dur_ns),
        );
        cursor = children.get(&id).and_then(|kids| {
            kids.iter()
                .copied()
                .max_by_key(|kid| (agg.spans[kid].dur_ns, u64::MAX - kid))
        });
    }
    JsonValue::Array(path)
}

/// Convenience: discover, merge, and analyze everything under `path`
/// (a results directory, one log file, or a rotated base file).
pub fn analyze_path(path: &std::path::Path, opts: &Options) -> std::io::Result<JsonValue> {
    Ok(analyze_groups(&merged_groups(path)?, opts))
}

/// Discovers and merges every log group under `path`.
fn merged_groups(path: &std::path::Path) -> std::io::Result<Vec<MergedGroup>> {
    let groups = crate::merge::discover(path)?;
    let mut merged = Vec::with_capacity(groups.len());
    for g in &groups {
        merged.push(crate::merge::merge_group(g)?);
    }
    Ok(merged)
}

/// Rebuilds the collapsed-stack profile of merged event streams,
/// folding each run's span trees and merging them (per-run folds keep
/// deterministic cell span ids from colliding across runs).
pub fn profile_groups(groups: &[MergedGroup]) -> Profile {
    let mut profile = Profile::default();
    for group in groups {
        for events in partition_runs(group) {
            profile.merge(&dynp_obs::profile_spans(&run_span_records(&events)));
        }
    }
    profile
}

/// [`profile_groups`] over everything discovered under `path` (the
/// `fold` subcommand).
pub fn profile_path(path: &std::path::Path) -> std::io::Result<Profile> {
    Ok(profile_groups(&merged_groups(path)?))
}

/// A short human-readable summary of a report (the `--text` view).
pub fn render_text(report: &JsonValue) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "dynp-insight report");
    let empty: [JsonValue; 0] = [];
    let groups = report
        .get("logical")
        .and_then(|l| l.get("groups"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    for group in groups {
        let name = group.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let _ = writeln!(out, "\ngroup {name}");
        for key in ["lines", "rejected", "missing_seqs"] {
            let v = group.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
            let _ = writeln!(out, "  {key:<14} {v}");
        }
        for run in group
            .get("runs")
            .and_then(JsonValue::as_array)
            .unwrap_or(&empty)
        {
            let idx = run.get("run").and_then(JsonValue::as_u64).unwrap_or(0);
            let name = run.get("name").and_then(JsonValue::as_str).unwrap_or("-");
            let cells = run.get("cells_seen").and_then(JsonValue::as_u64).unwrap_or(0);
            let _ = writeln!(out, "  run {idx} ({name}): {cells} cells");
            if let Some(milp) = run.get("milp") {
                let solves = milp.get("solves").and_then(JsonValue::as_u64).unwrap_or(0);
                let optimal = milp.get("optimal").and_then(JsonValue::as_u64).unwrap_or(0);
                let hit = milp.get("budget_hit").and_then(JsonValue::as_u64).unwrap_or(0);
                let nodes = milp.get("nodes").and_then(JsonValue::as_u64).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "    exact: {solves} solves, {optimal} optimal, {hit} budget-hit (\"CPLEX still running\"), {nodes} nodes"
                );
            }
            if let Some(dynp) = run.get("dynp") {
                let dec = dynp.get("decisions").and_then(JsonValue::as_u64).unwrap_or(0);
                let sw = dynp.get("switches").and_then(JsonValue::as_u64).unwrap_or(0);
                let _ = writeln!(out, "    dynP: {dec} decisions, {sw} switches");
            }
            if let Some(faults) = run.get("faults") {
                let g = |k: &str| faults.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
                let (crashed, timeout) = (g("cell_crashed"), g("cell_timeout"));
                let (retries, ckpt) = (g("cell_retry"), g("checkpoint_write_failed"));
                if crashed + timeout + retries + ckpt > 0 {
                    let _ = writeln!(
                        out,
                        "    faults: {crashed} crashed, {timeout} timed out, {retries} retries, {ckpt} checkpoint write failures"
                    );
                }
            }
        }
    }
    if let Some(timing) = report.get("timing") {
        let _ = writeln!(out, "\nspan kind latencies (ns)");
        let _ = writeln!(
            out,
            "  {:<22} {:>8} {:>12} {:>12} {:>12}",
            "kind", "count", "p50", "p99", "max"
        );
        if let Some(kinds) = timing.get("span_kinds").and_then(JsonValue::as_object) {
            for (kind, stats) in kinds {
                let g = |k: &str| {
                    stats
                        .get(k)
                        .and_then(JsonValue::as_f64)
                        .map(|v| format!("{v:.0}"))
                        .unwrap_or_else(|| "-".into())
                };
                let count = stats.get("count").and_then(JsonValue::as_u64).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  {kind:<22} {count:>8} {:>12} {:>12} {:>12}",
                    g("p50_ns"),
                    g("p99_ns"),
                    g("max_ns"),
                );
            }
        }
        for group in timing.get("groups").and_then(JsonValue::as_array).unwrap_or(&empty) {
            for run in group
                .get("runs")
                .and_then(JsonValue::as_array)
                .unwrap_or(&empty)
            {
                let path = run
                    .get("critical_path")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&empty);
                if path.is_empty() {
                    continue;
                }
                let idx = run.get("run").and_then(JsonValue::as_u64).unwrap_or(0);
                let _ = writeln!(out, "\ncritical path (run {idx}, slowest cell)");
                for hop in path {
                    let kind = hop.get("kind").and_then(JsonValue::as_str).unwrap_or("?");
                    let cell = hop.get("cell").and_then(JsonValue::as_u64).unwrap_or(0);
                    let dur = hop.get("dur_ns").and_then(JsonValue::as_f64).unwrap_or(0.0);
                    let _ = writeln!(out, "  cell {cell} {kind:<20} {:.3} ms", dur / 1e6);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_lines;

    /// A miniature two-cell campaign log written by hand: campaign
    /// start, each cell with replay + exact spans, one milp exit each.
    fn mini_log() -> Vec<String> {
        let fp = "abc123";
        let camp = dynp_obs::checkpoint::fingerprint(fp);
        let mut seq = 0u64;
        let mut n = |line: String| {
            let out = line.replace("SEQ", &seq.to_string());
            seq += 1;
            out
        };
        let cell = |c: u64, span_off: u64| (c + 1) * (1u64 << 32) + span_off;
        vec![
            n(format!(
                r#"{{"ts":0.0,"target":"exp.campaign_start","seq":SEQ,"name":"mini","fingerprint":"{fp}","shards":1,"cells":2,"resumable":0,"workers":1}}"#
            )),
            // cell 0: replay span (child 1 of root), exact with milp exit.
            n(format!(
                r#"{{"ts":0.1,"target":"span","seq":SEQ,"campaign":"{camp}","cell":0,"span":{},"parent":{},"kind":"exp.replay","dur_ns":4000}}"#,
                cell(0, 1),
                cell(0, 0)
            )),
            n(format!(
                r#"{{"ts":0.2,"target":"milp.exit","seq":SEQ,"campaign":"{camp}","cell":0,"span":{},"parent":{},"status":"Optimal","nodes":120,"lp_iterations":900,"objective":4.5,"bound":4.5,"gap":0.0,"wall_secs":0.01}}"#,
                cell(0, 2),
                cell(0, 0)
            )),
            n(format!(
                r#"{{"ts":0.3,"target":"span","seq":SEQ,"campaign":"{camp}","cell":0,"span":{},"parent":{},"kind":"exp.exact","dur_ns":5000}}"#,
                cell(0, 2),
                cell(0, 0)
            )),
            n(format!(
                r#"{{"ts":0.4,"target":"span","seq":SEQ,"campaign":"{camp}","cell":0,"span":{},"parent":0,"kind":"exp.cell","dur_ns":10000}}"#,
                cell(0, 0)
            )),
            // cell 1: budget-hit solve, slower cell overall.
            n(format!(
                r#"{{"ts":0.5,"target":"span","seq":SEQ,"campaign":"{camp}","cell":1,"span":{},"parent":{},"kind":"exp.replay","dur_ns":9000}}"#,
                cell(1, 1),
                cell(1, 0)
            )),
            n(format!(
                r#"{{"ts":0.6,"target":"milp.exit","seq":SEQ,"campaign":"{camp}","cell":1,"span":{},"parent":{},"status":"Feasible","nodes":300,"lp_iterations":2500,"objective":7.5,"bound":6.0,"gap":0.25,"wall_secs":0.05}}"#,
                cell(1, 2),
                cell(1, 0)
            )),
            n(format!(
                r#"{{"ts":0.7,"target":"span","seq":SEQ,"campaign":"{camp}","cell":1,"span":{},"parent":{},"kind":"exp.exact","dur_ns":6000}}"#,
                cell(1, 2),
                cell(1, 0)
            )),
            n(format!(
                r#"{{"ts":0.8,"target":"span","seq":SEQ,"campaign":"{camp}","cell":1,"span":{},"parent":0,"kind":"exp.cell","dur_ns":16000}}"#,
                cell(1, 0)
            )),
        ]
    }

    #[test]
    fn mini_campaign_analyzes_end_to_end() {
        let lines = mini_log();
        let merged = merge_lines("mini.events.jsonl", lines.iter().map(String::as_str));
        assert_eq!(merged.rejected, 0);
        let report = analyze_groups(&[merged], &Options::default());
        let run = report
            .get("logical")
            .and_then(|l| l.get("groups"))
            .and_then(JsonValue::as_array)
            .and_then(|g| g[0].get("runs"))
            .and_then(JsonValue::as_array)
            .map(|r| r[0].clone())
            .unwrap();
        assert_eq!(run.get("cells_seen").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(run.get("cells_declared").and_then(JsonValue::as_u64), Some(2));
        let milp = run.get("milp").unwrap();
        assert_eq!(milp.get("solves").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(milp.get("optimal").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(milp.get("budget_hit").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(milp.get("nodes").and_then(JsonValue::as_u64), Some(420));
        // Biggest solve first (by nodes).
        let top = milp.get("top_by_nodes").and_then(JsonValue::as_array).unwrap();
        assert_eq!(top[0].get("nodes").and_then(JsonValue::as_u64), Some(300));
        assert_eq!(top[0].get("cell").and_then(JsonValue::as_u64), Some(1));
        // Structure is clean.
        let structure = run.get("structure").unwrap();
        assert_eq!(structure.get("orphan_spans").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(
            structure.get("campaign_mismatches").and_then(JsonValue::as_u64),
            Some(0)
        );
        // Reconciliation: both cells checked, no violations (4000+5000
        // <= 10000, 9000+6000 <= 16000).
        let recon = report
            .get("timing")
            .and_then(|t| t.get("reconciliation"))
            .unwrap();
        assert_eq!(recon.get("parents_checked").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(recon.get("violations").and_then(JsonValue::as_u64), Some(0));
        // Critical path of the slowest cell (cell 1): root, then the
        // replay child (9000 > 6000).
        let timing_run = report
            .get("timing")
            .and_then(|t| t.get("groups"))
            .and_then(JsonValue::as_array)
            .and_then(|g| g[0].get("runs"))
            .and_then(JsonValue::as_array)
            .map(|r| r[0].clone())
            .unwrap();
        let path = timing_run
            .get("critical_path")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].get("kind").and_then(JsonValue::as_str), Some("exp.cell"));
        assert_eq!(path[1].get("kind").and_then(JsonValue::as_str), Some("exp.replay"));
        // Text rendering mentions the census.
        let text = render_text(&report);
        assert!(text.contains("CPLEX still running"));
    }

    #[test]
    fn violation_and_orphan_detection_fires() {
        // One cell whose child spans overrun the root and reference a
        // missing parent.
        let camp = dynp_obs::checkpoint::fingerprint("fp");
        let base = 1u64 << 32;
        let lines = [
            r#"{"ts":0.0,"target":"exp.campaign_start","seq":0,"name":"bad","fingerprint":"fp","shards":1,"cells":1}"#
                .to_string(),
            format!(
                r#"{{"ts":0.1,"target":"span","seq":1,"campaign":"{camp}","cell":0,"span":{},"parent":{base},"kind":"a","dur_ns":900}}"#,
                base + 1
            ),
            format!(
                r#"{{"ts":0.2,"target":"span","seq":2,"campaign":"{camp}","cell":0,"span":{},"parent":{base},"kind":"b","dur_ns":200}}"#,
                base + 2
            ),
            format!(
                r#"{{"ts":0.3,"target":"span","seq":3,"campaign":"{camp}","cell":0,"span":{},"parent":{},"kind":"orphan","dur_ns":5}}"#,
                base + 3,
                base + 99
            ),
            format!(
                r#"{{"ts":0.4,"target":"span","seq":4,"campaign":"{camp}","cell":0,"span":{base},"parent":0,"kind":"exp.cell","dur_ns":1000}}"#
            ),
        ];
        let merged = merge_lines("bad.events.jsonl", lines.iter().map(String::as_str));
        let report = analyze_groups(&[merged], &Options::default());
        let recon = report
            .get("timing")
            .and_then(|t| t.get("reconciliation"))
            .unwrap();
        assert_eq!(recon.get("violations").and_then(JsonValue::as_u64), Some(1));
        let structure = report
            .get("logical")
            .and_then(|l| l.get("groups"))
            .and_then(JsonValue::as_array)
            .and_then(|g| g[0].get("runs"))
            .and_then(JsonValue::as_array)
            .and_then(|r| r[0].get("structure").cloned())
            .unwrap();
        assert_eq!(structure.get("orphan_spans").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn fault_events_feed_the_failure_census() {
        // Fault events are emitted inside the cell's trace context, so
        // the cell index rides in the envelope like any other cell event.
        let camp = dynp_obs::checkpoint::fingerprint("fp");
        let base = |c: u64| (c + 1) << 32;
        let lines = [
            r#"{"ts":0.0,"target":"exp.campaign_start","seq":0,"name":"faulty","fingerprint":"fp","shards":2,"cells":4}"#
                .to_string(),
            format!(
                r#"{{"ts":0.1,"target":"exp.cell_retry","seq":1,"campaign":"{camp}","cell":0,"span":{},"parent":0,"attempt":1,"max_attempts":2}}"#,
                base(0)
            ),
            format!(
                r#"{{"ts":0.2,"target":"exp.cell_crashed","seq":2,"campaign":"{camp}","cell":0,"span":{},"parent":0,"attempt":2,"panic":"boom","at":"campaign.rs"}}"#,
                base(0)
            ),
            format!(
                r#"{{"ts":0.3,"target":"exp.cell_timeout","seq":3,"campaign":"{camp}","cell":1,"span":{},"parent":0,"attempt":1}}"#,
                base(1)
            ),
            format!(
                r#"{{"ts":0.4,"target":"exp.checkpoint_write_failed","seq":4,"campaign":"{camp}","cell":2,"span":{},"parent":0,"cell":2,"error":"injected checkpoint i/o fault"}}"#,
                base(2)
            ),
        ];
        let merged = merge_lines("faulty.events.jsonl", lines.iter().map(String::as_str));
        assert_eq!(merged.rejected, 0);
        let report = analyze_groups(&[merged], &Options::default());
        let run = report
            .get("logical")
            .and_then(|l| l.get("groups"))
            .and_then(JsonValue::as_array)
            .and_then(|g| g[0].get("runs"))
            .and_then(JsonValue::as_array)
            .map(|r| r[0].clone())
            .unwrap();
        let faults = run.get("faults").unwrap();
        assert_eq!(faults.get("cell_crashed").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(faults.get("cell_timeout").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(faults.get("cell_retry").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            faults.get("checkpoint_write_failed").and_then(JsonValue::as_u64),
            Some(1)
        );
        let text = render_text(&report);
        assert!(text.contains("faults: 1 crashed, 1 timed out, 1 retries, 1 checkpoint write failures"));
        // A clean run keeps its faults line silent.
        let clean = merge_lines("mini.events.jsonl", mini_log().iter().map(String::as_str));
        let clean_text = render_text(&analyze_groups(&[clean], &Options::default()));
        assert!(!clean_text.contains("faults:"));
    }

    #[test]
    fn logical_mode_omits_timing() {
        let lines = mini_log();
        let merged = merge_lines("mini.events.jsonl", lines.iter().map(String::as_str));
        let report = analyze_groups(
            &[merged],
            &Options {
                logical_only: true,
                ..Options::default()
            },
        );
        assert!(report.get("timing").is_none());
        assert_eq!(report.get("mode").and_then(JsonValue::as_str), Some("logical"));
    }

    #[test]
    fn shard_partitioning_does_not_change_the_report() {
        // The same event set split across k per-worker files must merge
        // to the identical report, timing included (all inputs equal).
        let lines = mini_log();
        let whole = merge_lines("g.events.jsonl", lines.iter().map(String::as_str));
        let report_whole = analyze_groups(&[whole], &Options::default()).to_json();
        for k in [2, 3] {
            let mut shards: Vec<Vec<&str>> = vec![Vec::new(); k];
            for (i, line) in lines.iter().enumerate() {
                shards[i % k].push(line);
            }
            let interleaved: Vec<&str> = shards.into_iter().flatten().collect();
            let merged = merge_lines("g.events.jsonl", interleaved);
            let report = analyze_groups(&[merged], &Options::default()).to_json();
            assert_eq!(report, report_whole, "k={k} partition changed the report");
        }
    }
}
