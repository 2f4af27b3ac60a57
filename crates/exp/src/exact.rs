//! The policy-vs-exact stage. Table 1, Ablation B and every campaign
//! cell are one [`ExactConfig`] run through [`compare`]: one sampler
//! (`spread_picks`), one snapshot filter, one mapping to the solver's
//! configuration, one [`ExactTally`] of counts and sums, whose means
//! each renderer takes itself, and one per-snapshot row
//! ([`ExactStage::rows`], [`ExactStage::text_rows`]) that keeps its
//! wall-clock values under `timing`.

use dynp_milp::{solve_snapshot, BranchLimits, ExactRun, MipStatus, SolveConfig};
use dynp_obs::pool::{self, SlotOutcome};
use dynp_obs::JsonValue;
use dynp_sched::Metric;
use dynp_sim::{SnapshotFilter, TunedSnapshot};

/// One policy-vs-exact comparison: which snapshots to solve and under
/// what budget.
///
/// `#[non_exhaustive]`: build with [`ExactConfig::new`] + `with_*`.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ExactConfig {
    /// Comparison metric (the paper: SLDwA).
    pub metric: Metric,
    /// Keep snapshots with at least this many waiting jobs.
    pub min_jobs: usize,
    /// Keep snapshots with at most this many waiting jobs.
    pub max_jobs: usize,
    /// Solve at most this many snapshots, spread over the replay: pick
    /// `i` of `count` from `n` is snapshot `floor(i·n/count)`.
    pub max_snapshots: usize,
    /// Branch & bound node budget per solve — the deterministic stand-in
    /// for the paper's "CPLEX was interrupted" regime. A solve that
    /// exhausts it still yields its incumbent (or an explicit
    /// no-incumbent outcome), never an error.
    pub node_budget: usize,
    /// Simplex iteration budget per LP.
    pub lp_iteration_budget: usize,
    /// Worker threads for each solve's node LPs. Wall-clock only: the
    /// solver guarantees byte-identical results for any value, so this
    /// knob is still covered by the checkpoint fingerprint merely to
    /// keep "what ran" honest in resumed sweeps.
    pub solver_workers: usize,
    /// Eq. 6 memory budget in bytes; `None` = the paper's 8 GB / 4.
    /// Smaller budgets coarsen the time grid, which bounds not just the
    /// matrix memory but the simplex cost per iteration — the knob to
    /// turn when a trace's long-running jobs make snapshots expensive.
    pub memory_budget_bytes: Option<u64>,
    /// A fixed slot width in seconds in place of Eq. 6 (Ablation B).
    pub scale_override: Option<u64>,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig::new()
    }
}

impl ExactConfig {
    /// Paper-style defaults with a small deterministic budget: SLDwA,
    /// snapshots of 3–12 waiting jobs, 2 snapshots per cell, 3000 nodes.
    pub fn new() -> ExactConfig {
        ExactConfig {
            metric: Metric::SldwA,
            min_jobs: 3,
            max_jobs: 12,
            max_snapshots: 2,
            node_budget: 3_000,
            lp_iteration_budget: 200_000,
            solver_workers: 1,
            memory_budget_bytes: None,
            scale_override: None,
        }
    }

    /// Snapshot size window `[min_jobs, max_jobs]`.
    pub fn with_job_range(mut self, min_jobs: usize, max_jobs: usize) -> ExactConfig {
        self.min_jobs = min_jobs;
        self.max_jobs = max_jobs;
        self
    }

    /// Snapshots solved per comparison.
    pub fn with_max_snapshots(mut self, max_snapshots: usize) -> ExactConfig {
        self.max_snapshots = max_snapshots;
        self
    }

    /// Branch & bound node budget per solve.
    pub fn with_node_budget(mut self, node_budget: usize) -> ExactConfig {
        self.node_budget = node_budget;
        self
    }

    /// Simplex iteration budget per LP relaxation. Caps degenerate LPs:
    /// a stalled relaxation counts as "CPLEX still running", it does not
    /// stall the sweep.
    pub fn with_lp_iteration_budget(mut self, lp_iteration_budget: usize) -> ExactConfig {
        self.lp_iteration_budget = lp_iteration_budget;
        self
    }

    /// Worker threads for node-LP solves (wall-clock only; results are
    /// byte-identical for any value).
    pub fn with_solver_workers(mut self, workers: usize) -> ExactConfig {
        self.solver_workers = workers;
        self
    }

    /// Eq. 6 memory budget in bytes (the paper: 2 GiB). Coarsens the
    /// grid when smaller, bounding per-iteration simplex cost.
    pub fn with_memory_budget_bytes(mut self, bytes: u64) -> ExactConfig {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// A fixed slot width in seconds in place of Eq. 6.
    pub fn with_scale_override(mut self, seconds: u64) -> ExactConfig {
        self.scale_override = Some(seconds);
        self
    }

    /// The replay's snapshot filter: every snapshot in the size window.
    pub fn snapshot_filter(&self) -> SnapshotFilter {
        SnapshotFilter {
            min_jobs: self.min_jobs,
            max_jobs: self.max_jobs,
        }
    }

    /// The solver configuration of every solve.
    pub(crate) fn solve_config(&self) -> SolveConfig {
        let mut config = SolveConfig {
            metric: self.metric,
            scale_override: self.scale_override,
            limits: BranchLimits {
                max_nodes: self.node_budget,
                max_lp_iterations: self.lp_iteration_budget,
                solver_workers: self.solver_workers,
            },
            ..SolveConfig::default()
        };
        if let Some(bytes) = self.memory_budget_bytes {
            config.memory_bytes = bytes as f64;
        }
        config
    }

    pub(crate) fn canonical(&self) -> JsonValue {
        // The two nulls are knobs this config no longer has, written as
        // they always were so fingerprints and checkpoints still match.
        JsonValue::object()
            .with("metric", self.metric.name())
            .with("min_jobs", self.min_jobs)
            .with("max_jobs", self.max_jobs)
            .with("max_snapshots", self.max_snapshots)
            .with("node_budget", self.node_budget)
            .with("lp_iteration_budget", self.lp_iteration_budget)
            .with("total_lp_iteration_budget", JsonValue::Null)
            .with("solver_workers", self.solver_workers)
            .with("time_limit_ms", JsonValue::Null)
            .with("scale_override", self.scale_override)
            .with("memory_budget_bytes", self.memory_budget_bytes)
    }
}

/// The indices of `count` picks spread over `n` snapshots: pick `i` is
/// `floor(i·n/count)`, so the first snapshot is always in and the picks
/// cover the whole replay rather than one burst. All `n` when
/// `n <= count`.
fn spread_picks(n: usize, count: usize) -> Vec<usize> {
    if n <= count {
        return (0..n).collect();
    }
    (0..count).map(|i| i * n / count).collect()
}

/// Counts and sums over the runs of one stage, in sample order.
#[derive(Clone, Debug, Default)]
pub struct ExactTally {
    /// Snapshots sampled for solving.
    pub sampled: usize,
    /// Solves that ran (a sampled snapshot with an input defect does not).
    pub runs: usize,
    /// Runs with an incumbent, hence a comparison.
    pub compared: usize,
    /// Compared runs the search proved optimal.
    pub optimal: usize,
    /// Σ Eq. 7 quality over compared runs.
    pub quality_sum: f64,
    /// Σ performance loss (%) of the compacted schedule over compared runs.
    pub loss_sum: f64,
    /// Σ performance loss (%) of the slot-grid schedule over compared runs.
    pub slot_loss_sum: f64,
    /// Σ branch & bound nodes.
    pub nodes: u64,
    /// Σ simplex iterations.
    pub lp_iterations: u64,
    /// Σ waiting jobs.
    pub jobs: u64,
    /// Σ §3.1 horizon (seconds).
    pub max_makespan: u64,
    /// Σ accumulated estimated runtime (seconds).
    pub accumulated_runtime: u64,
    /// Σ time scale (seconds per slot).
    pub time_scale: u64,
    /// Σ model variables.
    pub variables: u64,
    /// Σ wall-clock solve seconds (never part of a campaign record).
    pub solve_seconds: f64,
}

impl ExactTally {
    fn add(&mut self, run: &ExactRun) {
        self.runs += 1;
        self.nodes += run.nodes as u64;
        self.lp_iterations += run.lp_iterations as u64;
        self.jobs += run.jobs as u64;
        self.max_makespan += run.max_makespan;
        self.accumulated_runtime += run.accumulated_runtime;
        self.time_scale += run.time_scale;
        self.variables += run.num_variables as u64;
        self.solve_seconds += run.solve_time.as_secs_f64();
        if let (Some(quality), Some(loss), Some(slot_loss)) =
            (run.quality, run.perf_loss_percent, run.slot_loss_percent)
        {
            self.compared += 1;
            self.quality_sum += quality;
            self.loss_sum += loss;
            self.slot_loss_sum += slot_loss;
            if run.status == MipStatus::Optimal {
                self.optimal += 1;
            }
        }
    }

    /// Adds a campaign cell's record (see [`ExactStage::record`]): the
    /// campaign report sums its cells' exact sides this way.
    pub(crate) fn add_record(&mut self, record: &JsonValue) {
        let int = |key| record.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let num = |key| record.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        self.sampled += int("sampled") as usize;
        self.runs += (int("compared") + int("no_incumbent")) as usize;
        self.compared += int("compared") as usize;
        self.optimal += int("optimal") as usize;
        self.quality_sum += num("quality_sum");
        self.loss_sum += num("loss_sum");
        self.nodes += int("nodes");
        self.lp_iterations += int("lp_iterations");
    }

    /// `sum` over all runs; 0, not NaN, without runs.
    pub fn per_run(&self, sum: f64) -> f64 {
        sum / self.runs.max(1) as f64
    }

    /// `sum` over compared runs; 0, not NaN, without any.
    pub fn per_compared(&self, sum: f64) -> f64 {
        sum / self.compared.max(1) as f64
    }
}

/// What one stage saw, sampled and solved, and the tally of its runs.
#[derive(Clone, Debug)]
pub struct ExactStage {
    /// Snapshots the replay offered.
    pub snapshots_seen: usize,
    /// One run per sampled snapshot that could be solved, in sample order.
    pub runs: Vec<ExactRun>,
    /// The index of each run's snapshot in the replay's snapshots.
    pub picks: Vec<usize>,
    /// The tally of `runs`.
    pub tally: ExactTally,
}

impl ExactStage {
    /// The header line of [`ExactStage::text_rows`].
    pub const TEXT_HEADER: &'static str =
        " jobs  makespan  acc.runtime  scale      vars  quality    loss    nodes      time  status";

    /// One line per run in the style of the paper's Table 1: snapshot
    /// size, Eq. 6 scale (minutes), model size, Eq. 7 quality and loss,
    /// nodes, solve time and status.
    pub fn text_rows(&self) -> impl Iterator<Item = String> + '_ {
        self.runs.iter().map(text_row)
    }

    /// One JSON row per run: every Table 1 quantity, both sides of the
    /// comparison (compacted and slot-grid) and the gap trajectory. Every
    /// wall-clock value sits under the row's `timing` key, so two stages
    /// over the same sample render equal rows once `timing` is dropped.
    pub fn rows(&self) -> JsonValue {
        self.runs.iter().map(json_row).collect::<Vec<_>>().into()
    }

    /// The campaign cell's record: counts and sums only, no wall-clock,
    /// so a resumed campaign reproduces its report byte for byte.
    pub fn record(&self) -> JsonValue {
        let t = &self.tally;
        JsonValue::object()
            .with("snapshots_seen", self.snapshots_seen)
            .with("sampled", t.sampled)
            .with("compared", t.compared)
            .with("optimal", t.optimal)
            // Compared but not proven: the "CPLEX still running" regime.
            .with("budget_hit", t.compared - t.optimal)
            .with("no_incumbent", t.runs - t.compared)
            .with("quality_sum", t.quality_sum)
            .with("loss_sum", t.loss_sum)
            .with("nodes", t.nodes)
            .with("lp_iterations", t.lp_iterations)
    }
}

fn text_row(r: &ExactRun) -> String {
    let (quality, loss) = match (r.quality, r.perf_loss_percent) {
        (Some(q), Some(l)) => (format!("{q:.3}"), format!("{l:+.1}%")),
        _ => ("-".into(), "-".into()),
    };
    format!(
        "{:>5} {:>9} {:>11} {:>6.1} {:>9} {:>8} {:>7} {:>8} {:>9.3}s  {:?}",
        r.jobs,
        r.max_makespan,
        r.accumulated_runtime,
        r.time_scale as f64 / 60.0,
        r.num_variables,
        quality,
        loss,
        r.nodes,
        r.solve_time.as_secs_f64(),
        r.status,
    )
}

fn json_row(r: &ExactRun) -> JsonValue {
    let trajectory: Vec<JsonValue> = r
        .trajectory
        .iter()
        .map(|p| {
            JsonValue::object()
                .with("nodes", p.nodes)
                .with("incumbent", p.incumbent)
                .with("bound", p.bound.is_finite().then_some(p.bound))
                .with("gap", p.gap())
        })
        .collect();
    let elapsed: Vec<f64> = r
        .trajectory
        .iter()
        .map(|p| p.elapsed.as_secs_f64())
        .collect();
    JsonValue::object()
        .with("jobs", r.jobs)
        .with("max_makespan", r.max_makespan)
        .with("accumulated_runtime", r.accumulated_runtime)
        .with("time_scale", r.time_scale)
        .with("num_variables", r.num_variables)
        .with("num_constraints", r.num_constraints)
        .with("status", format!("{:?}", r.status))
        .with("nodes", r.nodes)
        .with("lp_iterations", r.lp_iterations)
        .with("warm_lps", r.warm_lps)
        .with("cold_lps", r.cold_lps)
        .with("gap", r.gap)
        .with("best_policy", format!("{:?}", r.best_policy))
        .with("best_policy_value", r.best_policy_value)
        .with("exact_value", r.exact_value)
        .with("quality", r.quality)
        .with("perf_loss_percent", r.perf_loss_percent)
        .with("slot_value", r.slot_value)
        .with("slot_loss_percent", r.slot_loss_percent)
        .with("trajectory", trajectory)
        .with(
            "timing",
            JsonValue::object()
                .with("solve_seconds", r.solve_time.as_secs_f64())
                .with("policy_plan_seconds", r.policy_plan_time.as_secs_f64())
                .with("trajectory_elapsed_secs", elapsed),
        )
}

/// Samples `snapshots` under `exact`, solves the sample on `workers`
/// threads and tallies the runs in sample order, so the outcome is the
/// same at any worker count. A snapshot with an input defect is skipped;
/// a solver panic is a bug and is raised again on the caller.
pub fn compare(snapshots: &[TunedSnapshot], exact: &ExactConfig, workers: usize) -> ExactStage {
    let sample = spread_picks(snapshots.len(), exact.max_snapshots);
    let config = exact.solve_config();
    let solve = |_: usize, &i: &usize| solve_snapshot(&snapshots[i].problem, &config);
    let (picks, runs): (Vec<usize>, Vec<ExactRun>) = pool::run_indexed(workers, &sample, solve)
        .into_iter()
        .zip(&sample)
        .filter_map(|(slot, &pick)| match slot {
            SlotOutcome::Done(solved) => Some((pick, solved.ok()?)),
            SlotOutcome::Panicked(p) => {
                panic!("exact solve panicked at {}: {}", p.location, p.payload)
            }
        })
        .unzip();
    let mut tally = ExactTally {
        sampled: sample.len(),
        ..ExactTally::default()
    };
    for run in &runs {
        tally.add(run);
    }
    ExactStage {
        snapshots_seen: snapshots.len(),
        runs,
        picks,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_core::SelfTuning;
    use dynp_sched::{Policy, SchedulingProblem};
    use dynp_sim::{simulate, SimConfig};
    use dynp_trace::{CtcModel, Job, WorkloadModel};

    #[test]
    fn the_sampler_spreads_by_floor_of_i_n_over_count() {
        assert_eq!(
            spread_picks(14, 12),
            vec![0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12]
        );
        assert_eq!(spread_picks(30, 6), vec![0, 5, 10, 15, 20, 25]);
        for n in 1..40 {
            assert_eq!(spread_picks(n, 1), vec![0]);
        }
        assert_eq!(spread_picks(3, 5), vec![0, 1, 2]);
        assert_eq!(spread_picks(7, 0), Vec::<usize>::new());
    }

    #[test]
    fn an_empty_tally_means_zero_not_nan() {
        let t = ExactTally::default();
        for m in [
            t.per_run(t.jobs as f64),
            t.per_run(t.variables as f64),
            t.per_run(t.nodes as f64),
            t.per_run(t.solve_seconds),
            t.per_compared(t.quality_sum),
            t.per_compared(t.loss_sum),
            t.per_compared(t.slot_loss_sum),
        ] {
            assert_eq!(m.to_bits(), 0.0f64.to_bits(), "{m}");
        }
    }

    #[test]
    fn the_stage_solves_its_sample_alike_at_every_worker_count() {
        let trace = CtcModel {
            nodes: 32,
            mean_interarrival: 120.0,
            ..CtcModel::default()
        }
        .generate(60, 7);
        let exact = ExactConfig::new()
            .with_job_range(2, 5)
            .with_max_snapshots(3)
            .with_node_budget(200)
            .with_scale_override(60);
        let run = simulate(
            &trace.jobs,
            SelfTuning::paper_config(Metric::SldwA),
            SimConfig::new(trace.machine_size).with_snapshots(exact.snapshot_filter()),
        );
        assert!(run.snapshots.len() >= 3);
        let one = compare(&run.snapshots, &exact, 1);
        assert_eq!((one.snapshots_seen, one.tally.sampled), (run.snapshots.len(), 3));
        assert_eq!(one.runs.len(), 3);
        assert_eq!(one.tally.runs, 3);
        for r in &one.runs {
            assert!((2..=5).contains(&r.jobs));
            assert_eq!(r.time_scale, 60);
        }
        let two = compare(&run.snapshots, &exact, 2);
        assert_eq!(one.record().to_json(), two.record().to_json());
        assert_eq!(
            one.tally.slot_loss_sum.to_bits(),
            two.tally.slot_loss_sum.to_bits()
        );
        // Rows differ only under `timing`: across worker counts, and
        // across two calls, whose wall-clock values differ.
        let again = compare(&run.snapshots, &exact, 1);
        for stage in [&one, &two, &again] {
            let rows = stage.rows();
            let rows = rows.as_array().unwrap();
            assert_eq!(rows.len(), 3);
            for row in rows {
                assert!(row.get("timing").and_then(JsonValue::as_object).is_some());
            }
        }
        let logical = |stage: &ExactStage| without_timing(&stage.rows()).to_json();
        assert_eq!(logical(&one), logical(&two));
        assert_eq!(logical(&one), logical(&again));
    }

    fn without_timing(value: &JsonValue) -> JsonValue {
        match value {
            JsonValue::Object(entries) => JsonValue::Object(
                entries
                    .iter()
                    .filter(|(key, _)| key != "timing")
                    .map(|(key, v)| (key.clone(), without_timing(v)))
                    .collect(),
            ),
            JsonValue::Array(items) => JsonValue::Array(items.iter().map(without_timing).collect()),
            other => other.clone(),
        }
    }

    #[test]
    fn a_run_without_an_incumbent_is_counted_and_rendered_as_such() {
        // On a 30-minute grid the best policy's start order needs a slot
        // past the §3.1 horizon, so the seed cannot embed; with no node
        // budget the search ends without an incumbent.
        let problem = SchedulingProblem::on_empty_machine(
            0,
            2,
            vec![
                Job::exact(1, 0, 1, 3400),
                Job::exact(2, 0, 1, 100),
                Job::exact(0, 0, 1, 200),
            ],
        );
        let snapshot = TunedSnapshot {
            step: 0,
            problem,
            chosen: Policy::Fcfs,
        };
        let exact = ExactConfig::new()
            .with_node_budget(0)
            .with_scale_override(1800);
        let stage = compare(&[snapshot], &exact, 1);
        assert_eq!(stage.runs.len(), 1);
        assert_eq!(stage.runs[0].status, MipStatus::Unknown);
        let record = stage.record();
        let count = |key| record.get(key).and_then(JsonValue::as_u64);
        assert_eq!(count("sampled"), Some(1));
        assert_eq!(count("compared"), Some(0));
        assert_eq!(count("no_incumbent"), Some(1));
        let text: Vec<String> = stage.text_rows().collect();
        let cells: Vec<&str> = text[0].split_whitespace().collect();
        assert_eq!((cells[5], cells[6]), ("-", "-"), "{}", text[0]);
        let rows = stage.rows();
        let row = &rows.as_array().unwrap()[0];
        for key in [
            "exact_value",
            "quality",
            "perf_loss_percent",
            "slot_loss_percent",
        ] {
            assert_eq!(row.get(key), Some(&JsonValue::Null), "{key}");
        }
    }

    #[test]
    fn table_row_renders() {
        let problem = SchedulingProblem::on_empty_machine(
            0,
            4,
            vec![
                Job::exact(0, 0, 4, 3600),
                Job::exact(1, 0, 2, 600),
                Job::exact(2, 0, 2, 600),
                Job::exact(3, 0, 1, 1200),
            ],
        );
        let config = ExactConfig::new().with_scale_override(60).solve_config();
        let row = text_row(&solve_snapshot(&problem, &config).unwrap());
        assert!(row.contains('%'));
        assert!(row.trim().starts_with('4'));
        assert!(row.ends_with("  Optimal"));
        assert_eq!(
            row.split_whitespace().count(),
            ExactStage::TEXT_HEADER.split_whitespace().count()
        );
    }
}
