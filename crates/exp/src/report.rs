//! Folding checkpointed cells into the paper-style comparison report.
//!
//! The report exists in two forms written side by side: a human-readable
//! text table (per-shard SLDwA plus an overall row per selector × factor,
//! echoing the paper's weekly comparison tables) and a strict-JSON
//! document for machines. Both are built *only* from deterministic cell
//! fields and the campaign configuration — never from wall-clock time,
//! worker count, or resume bookkeeping — so a resumed campaign reproduces
//! both files byte for byte.

use crate::campaign::{record_status, CampaignConfig};
use crate::exact::ExactTally;
use dynp_obs::JsonValue;
use std::fmt::Write as _;

/// A rendered report: the same aggregation in both output forms.
pub struct BuiltReport {
    /// Human-readable table block.
    pub text: String,
    /// Strict-JSON document (serialize with `to_json`).
    pub json: JsonValue,
}

fn num(cell: &JsonValue, key: &str) -> f64 {
    cell.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn int(cell: &JsonValue, key: &str) -> u64 {
    cell.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// Aggregate of one `(selector, factor)` group across all shards.
struct GroupAggregate {
    label: String,
    factor: f64,
    shards: usize,
    jobs: u64,
    completed: u64,
    skipped: u64,
    sldwa_sum: f64,
    switches: u64,
    steps: u64,
    /// Cells of this group that panicked / hit their deadline. Degraded
    /// cells are counted here and *excluded* from every metric column —
    /// a crashed shard must not drag a selector's SLDwA mean toward 0.
    crashed: usize,
    timed_out: usize,
    exact: Option<ExactTally>,
}

impl GroupAggregate {
    fn sldwa_mean(&self) -> f64 {
        if self.shards == 0 {
            0.0
        } else {
            self.sldwa_sum / self.shards as f64
        }
    }

    fn to_json(&self) -> JsonValue {
        let mut v = JsonValue::object()
            .with("selector", self.label.as_str())
            .with("factor", self.factor)
            .with("shards", self.shards)
            .with("jobs", self.jobs)
            .with("completed", self.completed)
            .with("skipped", self.skipped)
            .with("sldwa_mean", self.sldwa_mean())
            .with("switches", self.switches)
            .with("steps", self.steps)
            .with("crashed", self.crashed)
            .with("timed_out", self.timed_out);
        v = match &self.exact {
            Some(e) => v.with("exact", exact_json(e)),
            None => v.with("exact", JsonValue::Null),
        };
        v
    }
}

/// The mean of `sum` over compared runs; `None` (rendered `null` / `-`)
/// without any.
fn compared_mean(e: &ExactTally, sum: f64) -> Option<f64> {
    (e.compared > 0).then(|| e.per_compared(sum))
}

fn exact_json(e: &ExactTally) -> JsonValue {
    JsonValue::object()
        .with("sampled", e.sampled)
        .with("compared", e.compared)
        .with("optimal", e.optimal)
        .with("budget_hit", e.compared - e.optimal)
        .with("no_incumbent", e.runs - e.compared)
        .with("quality_mean", compared_mean(e, e.quality_sum))
        .with("perf_loss_percent_mean", compared_mean(e, e.loss_sum))
        .with("nodes", e.nodes)
        .with("lp_iterations", e.lp_iterations)
}

/// Builds the report from the full, index-ordered cell list. `cells` is
/// shard-major (the enumeration order of the campaign runner), so each
/// consecutive chunk of `selectors × factors` cells is one shard.
pub fn build(config: &CampaignConfig, n_shards: usize, cells: &[JsonValue]) -> BuiltReport {
    let group_count = config.selectors.len() * config.factors.len();
    debug_assert_eq!(cells.len(), n_shards * group_count);

    // Fold cells into per-(selector, factor) aggregates, iterating in the
    // deterministic cell order so float sums reproduce exactly.
    let mut groups: Vec<GroupAggregate> = Vec::with_capacity(group_count);
    for spec in &config.selectors {
        for &factor in &config.factors {
            groups.push(GroupAggregate {
                label: spec.label(),
                factor,
                shards: 0,
                jobs: 0,
                completed: 0,
                skipped: 0,
                sldwa_sum: 0.0,
                switches: 0,
                steps: 0,
                crashed: 0,
                timed_out: 0,
                exact: None,
            });
        }
    }
    let mut failure_cells = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let g = &mut groups[i % group_count];
        match record_status(cell) {
            "ok" => {}
            status => {
                // A degraded cell contributes to the failure census only;
                // `shards` stays the count of cells behind the means.
                if status == "crashed" {
                    g.crashed += 1;
                } else {
                    g.timed_out += 1;
                }
                let mut entry = JsonValue::object()
                    .with("cell", i)
                    .with("shard", int(cell, "shard"))
                    .with("selector", cell.get("selector").cloned().unwrap_or(JsonValue::Null))
                    .with("factor", num(cell, "factor"))
                    .with("status", status)
                    .with("attempts", int(cell, "attempts"));
                if let Some(p) = cell.get("panic") {
                    entry = entry.with("panic", p.clone());
                }
                if let Some(at) = cell.get("panic_at") {
                    entry = entry.with("panic_at", at.clone());
                }
                failure_cells.push(entry);
                continue;
            }
        }
        g.shards += 1;
        g.jobs += int(cell, "jobs");
        g.completed += int(cell, "completed");
        g.skipped += int(cell, "skipped");
        g.sldwa_sum += num(cell, "sldwa");
        g.switches += int(cell, "switches");
        g.steps += int(cell, "steps");
        if let Some(exact) = cell.get("exact") {
            g.exact.get_or_insert_with(ExactTally::default).add_record(exact);
        }
    }

    // Per-shard blocks, in cell order.
    let mut per_shard = Vec::with_capacity(n_shards);
    for chunk in cells.chunks(group_count.max(1)) {
        let Some(first) = chunk.first() else { continue };
        // A degraded record carries the shard identity but no job count;
        // read `jobs` from any ok sibling of the same shard.
        let jobs = chunk
            .iter()
            .find(|c| record_status(c) == "ok")
            .map(|c| int(c, "jobs"))
            .unwrap_or(0);
        per_shard.push(
            JsonValue::object()
                .with("shard", int(first, "shard"))
                .with("from", int(first, "from"))
                .with("to", int(first, "to"))
                .with("jobs", jobs)
                .with(
                    "rows",
                    JsonValue::Array(
                        chunk
                            .iter()
                            .map(|cell| {
                                let degraded = record_status(cell) != "ok";
                                JsonValue::object()
                                    .with("selector", cell.get("selector").cloned().unwrap_or(JsonValue::Null))
                                    .with("factor", num(cell, "factor"))
                                    .with("status", record_status(cell))
                                    .with(
                                        "sldwa",
                                        if degraded {
                                            JsonValue::Null
                                        } else {
                                            JsonValue::from(num(cell, "sldwa"))
                                        },
                                    )
                                    .with("switches", int(cell, "switches"))
                            })
                            .collect(),
                    ),
                ),
        );
    }

    let crashed_total: usize = groups.iter().map(|g| g.crashed).sum();
    let timed_out_total: usize = groups.iter().map(|g| g.timed_out).sum();
    let failures = JsonValue::object()
        .with("crashed", crashed_total)
        .with("timed_out", timed_out_total)
        .with("cells", JsonValue::Array(failure_cells));

    let json = JsonValue::object()
        .with("campaign", config.name.as_str())
        .with("machine_size", config.machine_size)
        .with("shard_seconds", config.shard_seconds)
        .with("shards", n_shards)
        .with("cells", cells.len())
        .with(
            "selectors",
            JsonValue::Array(
                config
                    .selectors
                    .iter()
                    .map(|s| JsonValue::from(s.label()))
                    .collect(),
            ),
        )
        .with(
            "factors",
            JsonValue::Array(config.factors.iter().map(|&f| JsonValue::from(f)).collect()),
        )
        .with(
            "overall",
            JsonValue::Array(groups.iter().map(GroupAggregate::to_json).collect()),
        )
        .with("failures", failures)
        .with("per_shard", JsonValue::Array(per_shard));

    BuiltReport {
        text: render_text(config, n_shards, cells, &groups),
        json,
    }
}

fn render_text(
    config: &CampaignConfig,
    n_shards: usize,
    cells: &[JsonValue],
    groups: &[GroupAggregate],
) -> String {
    let group_count = config.selectors.len() * config.factors.len();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign {} — machine {} nodes, {} shard(s) of {} s, {} cell(s)",
        config.name,
        config.machine_size,
        n_shards,
        config.shard_seconds,
        cells.len()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<22} {:>6} {:>7} {:>9} {:>10} {:>9} {:>9} {:>8} {:>9} {:>10}",
        "selector", "factor", "shards", "jobs", "SLDwA", "switches", "compared", "optimal", "quality", "loss%"
    );
    for g in groups {
        let (compared, optimal, quality, loss) = match &g.exact {
            Some(e) => (
                e.compared.to_string(),
                e.optimal.to_string(),
                compared_mean(e, e.quality_sum).map(|q| format!("{q:.4}")).unwrap_or("-".into()),
                compared_mean(e, e.loss_sum).map(|l| format!("{l:+.2}")).unwrap_or("-".into()),
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
        };
        let _ = writeln!(
            out,
            "{:<22} {:>6.2} {:>7} {:>9} {:>10.4} {:>9} {:>9} {:>8} {:>9} {:>10}",
            g.label,
            g.factor,
            g.shards,
            g.jobs,
            g.sldwa_mean(),
            g.switches,
            compared,
            optimal,
            quality,
            loss
        );
    }
    let degraded: Vec<(usize, &JsonValue)> = cells
        .iter()
        .enumerate()
        .filter(|(_, c)| record_status(c) != "ok")
        .collect();
    if !degraded.is_empty() {
        let crashed = degraded.iter().filter(|(_, c)| record_status(c) == "crashed").count();
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "failures: {} crashed, {} timed out (excluded from the means above)",
            crashed,
            degraded.len() - crashed
        );
        for (i, cell) in &degraded {
            let selector = cell.get("selector").and_then(JsonValue::as_str).unwrap_or("?");
            let mut line = format!(
                "  cell {:>4}  shard {:>4}  {}@{:.2}  {}  after {} attempt(s)",
                i,
                int(cell, "shard"),
                selector,
                num(cell, "factor"),
                record_status(cell),
                int(cell, "attempts"),
            );
            if let Some(p) = cell.get("panic").and_then(JsonValue::as_str) {
                let _ = write!(line, " — {p}");
            }
            let _ = writeln!(out, "{line}");
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "per-shard SLDwA (rows: shards; columns: selector@factor):");
    let mut header = format!("{:>7} {:>9}", "shard", "jobs");
    for g in groups {
        let _ = write!(header, " {:>22}", format!("{}@{:.2}", g.label, g.factor));
    }
    let _ = writeln!(out, "{header}");
    for chunk in cells.chunks(group_count.max(1)) {
        let Some(first) = chunk.first() else { continue };
        let jobs = chunk
            .iter()
            .find(|c| record_status(c) == "ok")
            .map(|c| int(c, "jobs"))
            .unwrap_or(0);
        let mut row = format!("{:>7} {:>9}", int(first, "shard"), jobs);
        for cell in chunk {
            match record_status(cell) {
                "ok" => {
                    let _ = write!(row, " {:>22.4}", num(cell, "sldwa"));
                }
                status => {
                    let _ = write!(row, " {status:>22}");
                }
            }
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::SelectorSpec;
    use dynp_sched::Policy;

    fn cell(shard: u64, selector: &str, factor: f64, sldwa: f64) -> JsonValue {
        JsonValue::object()
            .with("shard", shard)
            .with("from", shard * 100)
            .with("to", (shard + 1) * 100)
            .with("selector", selector)
            .with("factor", factor)
            .with("jobs", 10u64)
            .with("completed", 10u64)
            .with("skipped", 0u64)
            .with("sldwa", sldwa)
            .with("switches", 1u64)
            .with("steps", 5u64)
            .with(
                "exact",
                JsonValue::object()
                    .with("sampled", 2u64)
                    .with("compared", 2u64)
                    .with("optimal", 1u64)
                    .with("budget_hit", 1u64)
                    .with("no_incumbent", 0u64)
                    .with("quality_sum", 1.8f64)
                    .with("loss_sum", 20.0f64)
                    .with("nodes", 100u64)
                    .with("lp_iterations", 1000u64),
            )
    }

    fn test_config() -> CampaignConfig {
        CampaignConfig::new("t", 64)
            .with_selectors(vec![
                SelectorSpec::Fixed(Policy::Fcfs),
                SelectorSpec::dynp(),
            ])
            .with_factors(vec![1.0])
    }

    #[test]
    fn aggregates_means_from_sums() {
        let cells = vec![
            cell(0, "FCFS", 1.0, 2.0),
            cell(0, "dynP(SLDwA,simple)", 1.0, 1.5),
            cell(1, "FCFS", 1.0, 4.0),
            cell(1, "dynP(SLDwA,simple)", 1.0, 2.5),
        ];
        let built = build(&test_config(), 2, &cells);
        let overall = built.json.get("overall").unwrap().as_array().unwrap();
        assert_eq!(overall.len(), 2);
        let fcfs = &overall[0];
        assert_eq!(fcfs.get("selector").unwrap().as_str().unwrap(), "FCFS");
        assert_eq!(fcfs.get("sldwa_mean").unwrap().as_f64().unwrap(), 3.0);
        let exact = fcfs.get("exact").unwrap();
        assert_eq!(exact.get("compared").unwrap().as_u64().unwrap(), 4);
        assert_eq!(exact.get("quality_mean").unwrap().as_f64().unwrap(), 0.9);
        // Both outputs mention every selector.
        assert!(built.text.contains("FCFS"));
        assert!(built.text.contains("dynP(SLDwA,simple)"));
        dynp_obs::validate_json(&built.json.to_json()).unwrap();
    }

    #[test]
    fn per_shard_blocks_follow_cell_order() {
        let cells = vec![
            cell(0, "FCFS", 1.0, 2.0),
            cell(0, "dynP(SLDwA,simple)", 1.0, 1.5),
            cell(3, "FCFS", 1.0, 4.0),
            cell(3, "dynP(SLDwA,simple)", 1.0, 2.5),
        ];
        let built = build(&test_config(), 2, &cells);
        let per_shard = built.json.get("per_shard").unwrap().as_array().unwrap();
        assert_eq!(per_shard.len(), 2);
        assert_eq!(per_shard[0].get("shard").unwrap().as_u64().unwrap(), 0);
        assert_eq!(per_shard[1].get("shard").unwrap().as_u64().unwrap(), 3);
        let rows = per_shard[1].get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("sldwa").unwrap().as_f64().unwrap(), 4.0);
    }

    fn crashed_cell(shard: u64, selector: &str, factor: f64) -> JsonValue {
        JsonValue::object()
            .with("shard", shard)
            .with("from", shard * 100)
            .with("to", (shard + 1) * 100)
            .with("selector", selector)
            .with("factor", factor)
            .with("status", "crashed")
            .with("attempts", 2u64)
            .with("panic", "injected fault: panic in cell 2 (attempt 2)")
            .with("panic_at", "crates/exp/src/campaign.rs:1:1")
    }

    #[test]
    fn degraded_cells_feed_the_census_not_the_means() {
        let cells = vec![
            cell(0, "FCFS", 1.0, 2.0),
            cell(0, "dynP(SLDwA,simple)", 1.0, 1.5),
            crashed_cell(1, "FCFS", 1.0),
            cell(1, "dynP(SLDwA,simple)", 1.0, 2.5),
        ];
        let built = build(&test_config(), 2, &cells);
        let overall = built.json.get("overall").unwrap().as_array().unwrap();
        let fcfs = &overall[0];
        // Only shard 0 contributes: the mean is its value, not (2.0+0)/2.
        assert_eq!(fcfs.get("shards").unwrap().as_u64().unwrap(), 1);
        assert_eq!(fcfs.get("sldwa_mean").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(fcfs.get("crashed").unwrap().as_u64().unwrap(), 1);
        assert_eq!(fcfs.get("timed_out").unwrap().as_u64().unwrap(), 0);
        let dynp = &overall[1];
        assert_eq!(dynp.get("shards").unwrap().as_u64().unwrap(), 2);
        assert_eq!(dynp.get("crashed").unwrap().as_u64().unwrap(), 0);

        let failures = built.json.get("failures").unwrap();
        assert_eq!(failures.get("crashed").unwrap().as_u64().unwrap(), 1);
        assert_eq!(failures.get("timed_out").unwrap().as_u64().unwrap(), 0);
        let listed = failures.get("cells").unwrap().as_array().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].get("cell").unwrap().as_u64().unwrap(), 2);
        assert_eq!(listed[0].get("status").unwrap().as_str().unwrap(), "crashed");
        assert_eq!(listed[0].get("attempts").unwrap().as_u64().unwrap(), 2);
        assert!(listed[0]
            .get("panic")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("injected fault"));

        // Per-shard row: Null sldwa, jobs read from the ok sibling.
        let per_shard = built.json.get("per_shard").unwrap().as_array().unwrap();
        let shard1 = &per_shard[1];
        assert_eq!(shard1.get("jobs").unwrap().as_u64().unwrap(), 10);
        let rows = shard1.get("rows").unwrap().as_array().unwrap();
        assert!(matches!(rows[0].get("sldwa"), Some(JsonValue::Null)));
        assert_eq!(rows[0].get("status").unwrap().as_str().unwrap(), "crashed");
        assert_eq!(rows[1].get("status").unwrap().as_str().unwrap(), "ok");

        // Text: the failures block and the status in the matrix.
        assert!(built.text.contains("failures: 1 crashed, 0 timed out"));
        assert!(built.text.contains("crashed"));
        dynp_obs::validate_json(&built.json.to_json()).unwrap();
    }

    #[test]
    fn records_without_status_count_as_ok() {
        // Pre-failure-model checkpoints carry no `status` key.
        let cells = vec![
            cell(0, "FCFS", 1.0, 2.0),
            cell(0, "dynP(SLDwA,simple)", 1.0, 1.5),
        ];
        let built = build(&test_config(), 1, &cells);
        let failures = built.json.get("failures").unwrap();
        assert_eq!(failures.get("crashed").unwrap().as_u64().unwrap(), 0);
        assert_eq!(failures.get("timed_out").unwrap().as_u64().unwrap(), 0);
        assert!(failures.get("cells").unwrap().as_array().unwrap().is_empty());
        assert!(!built.text.contains("failures:"));
    }

    #[test]
    fn identical_cells_render_identical_bytes() {
        let cells = vec![
            cell(0, "FCFS", 1.0, 2.25),
            cell(0, "dynP(SLDwA,simple)", 1.0, 1.125),
        ];
        let a = build(&test_config(), 1, &cells);
        let b = build(&test_config(), 1, &cells);
        assert_eq!(a.text, b.text);
        assert_eq!(a.json.to_json(), b.json.to_json());
    }
}
