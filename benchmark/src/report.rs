//! The metric and workload registries, and the per-workload report every
//! run fills in. `BENCHMARK.json` at the repo root mirrors the registries
//! (a unit test keeps the two in step).

use crate::stats::Summary;
use dynp_obs::JsonValue;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// What a user of the system sees; reported by every workload in the
    /// untraced pass; may worsen by at most `bound` (share of the
    /// baseline median) before `compare` says `worse`.
    EndToEnd { bound: f64 },
    /// Counted from the program's outputs, so it repeats exactly for one
    /// seed; reported in both passes; `compare` gates it at bound 0.
    Quality,
    /// One layer's number from the traced pass; never gated.
    Layer,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
    }
}

const fn quality(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Quality,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        kind: Kind::Layer,
    }
}

use Better::{Higher, Lower};

/// Every metric the harness can report. README.md says what each one
/// means and which end-to-end metric each layer metric should move.
pub const METRICS: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("jobs_per_s", "jobs/s", Higher, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_tail_ms", "ms", Lower, 0.25),
    quality("failed_share", "share", Lower),
    quality("ckpt_bytes_per_job", "bytes", Lower),
    quality("gap_mean", "share", Lower),
    quality("proven_share", "share", Higher),
    layer("harness.trace_overhead_share", "share", Lower),
    layer("harness.residual_share", "share", Lower),
    layer("harness.peak_rss_mb", "MB", Lower),
    // serve_http_open: the wire.
    layer("loadgen.late_p90_ms", "ms", Lower),
    layer("watch.http.read_request_ns", "ns", Lower),
    layer("watch.http.write_response_ns", "ns", Lower),
    layer("watch.router.wire_overhead_ms", "ms", Lower),
    layer("serve.api.parse_ns_per_job", "ns", Lower),
    layer("serve.api.render_ns_per_job", "ns", Lower),
    layer("serve.server.submit_p50_ms", "ms", Lower),
    layer("serve.server.admit_p99_ms", "ms", Lower),
    layer("serve.server.max_rate_ok", "1/s", Higher),
    layer("serve.server.batches", "count", Lower),
    layer("serve.server.avg_batch_size", "jobs", Higher),
    layer("serve.server.rejected_429", "count", Lower),
    layer("serve.server.rejected_503", "count", Lower),
    // serve_core_backlog: the service core.
    layer("serve.core.submit_batch_ms_p50", "ms", Lower),
    layer("serve.core.submit_batch_ms_p90", "ms", Lower),
    layer("serve.core.tuning_steps", "count", Lower),
    layer("serve.core.replans", "count", Lower),
    layer("serve.core.max_in_flight", "jobs", Lower),
    layer("serve.core.drain_s", "s", Lower),
    layer("serve.core.self_share", "share", Lower),
    // The planning kernel, probed at three queue depths.
    layer("platform.profile.build_us_d25", "us", Lower),
    layer("platform.profile.build_us_d250", "us", Lower),
    layer("platform.profile.build_us_d2500", "us", Lower),
    layer("platform.profile.probes_per_job_d25", "count", Lower),
    layer("platform.profile.probes_per_job_d250", "count", Lower),
    layer("platform.profile.probes_per_job_d2500", "count", Lower),
    layer("sched.planner.plan_us_d25", "us", Lower),
    layer("sched.planner.plan_us_d250", "us", Lower),
    layer("sched.planner.plan_us_d2500", "us", Lower),
    layer("sched.metrics.eval_us_d25", "us", Lower),
    layer("sched.metrics.eval_us_d250", "us", Lower),
    layer("sched.metrics.eval_us_d2500", "us", Lower),
    layer("dynp.tuner.step_us_d25", "us", Lower),
    layer("dynp.tuner.step_us_d250", "us", Lower),
    layer("dynp.tuner.step_us_d2500", "us", Lower),
    layer("dynp.decider.share", "share", Lower),
    // serve_checkpoint_soak: snapshots and the checkpoint log.
    layer("serve.core.snapshot_ms_last", "ms", Lower),
    layer("serve.core.snapshot_bytes_last", "bytes", Lower),
    layer("obs.checkpoint.append_ms_first_decile", "ms", Lower),
    layer("obs.checkpoint.append_ms_last_decile", "ms", Lower),
    layer("obs.checkpoint.bytes_total", "bytes", Lower),
    // sim_replay: the simulator.
    layer("sim.run.steps", "count", Lower),
    layer("sim.run.switches", "count", Lower),
    layer("sim.run.sldwa", "ratio", Lower),
    layer("sim.run.user_s", "s", Lower),
    layer("sim.run.sys_s", "s", Lower),
    layer("sim.run.minflt_per_job", "count", Lower),
    layer("trace.synth.generate_ms", "ms", Lower),
    // exact_*: the exact solver's stages.
    layer("sched.planner.baseline_ms", "ms", Lower),
    layer("milp.timeindex.build_ms", "ms", Lower),
    layer("milp.timeindex.vars", "count", Lower),
    layer("milp.timeindex.constraints", "count", Lower),
    layer("milp.simplex.root_lp_s", "s", Lower),
    layer("milp.simplex.root_iterations", "count", Lower),
    layer("milp.simplex.us_per_iteration", "us", Lower),
    layer("milp.branch.search_s", "s", Lower),
    layer("milp.branch.nodes", "count", Lower),
    layer("milp.branch.lp_iterations", "count", Lower),
    layer("milp.branch.warm_lps", "count", Higher),
    layer("milp.branch.cold_lps", "count", Lower),
    layer("milp.branch.warm_hit_share", "share", Higher),
    layer("milp.branch.root_gap_mean", "share", Lower),
    layer("milp.compact.ms", "ms", Lower),
    layer("milp.solve.solve_s", "s", Lower),
    layer("milp.solve.residual_share", "share", Lower),
];

pub fn def(name: &str) -> &'static Def {
    METRICS
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the registry"))
}

/// The six workloads and the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve_http_open",
        "one job per POST over real sockets at a fixed rate: wire-dominated, the planner does almost nothing",
    ),
    (
        "serve_core_backlog",
        "in-process submit_batch into a deep backlog: planner-dominated, zero wire",
    ),
    (
        "serve_checkpoint_soak",
        "live server that snapshots its whole state after every batch: write-dominated",
    ),
    (
        "sim_replay",
        "trace replay with a shallow queue: per-step fixed cost of the tuning loop dominates, not planning",
    ),
    (
        "exact_table1",
        "twelve small Table 1 snapshots under a fixed node budget: branch-and-bound and bound quality dominate",
    ),
    (
        "exact_root_lp",
        "two large snapshots, root LP plus one warm round each: the simplex kernel dominates",
    ),
];

/// What one run of one workload measured.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub scale: &'static str,
    pub seconds: f64,
    pub trace: bool,
    /// Operations attempted (requests, jobs or solves) and how many failed.
    pub attempted: u64,
    pub failed: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Quiet-machine values (see `stats::Pieces`): what the CPU-bound
    /// workloads report for their end-to-end metrics. The samples of such
    /// a metric are the same value with one rep left out each.
    quiet: BTreeMap<&'static str, f64>,
    /// Output digests and exact counts, so two commits can be compared.
    pub checks: BTreeMap<&'static str, String>,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub warnings: Vec<String>,
}

impl Report {
    pub fn new(
        workload: &str,
        seed: u64,
        scale: &'static str,
        seconds: f64,
        trace: bool,
    ) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            scale,
            seconds,
            trace,
            attempted: 0,
            failed: 0,
            samples: BTreeMap::new(),
            quiet: BTreeMap::new(),
            checks: BTreeMap::new(),
            errors: Vec::new(),
            warnings: Vec::new(),
        }
    }

    /// Adds one sample of a registered metric; the reported value is the
    /// median of a metric's samples unless [`Report::set_quiet`] sets it.
    pub fn push(&mut self, name: &str, value: f64) {
        self.samples.entry(def(name).name).or_default().push(value);
    }

    /// Sets the value reported for a metric, whatever its samples say.
    pub fn set_quiet(&mut self, name: &str, value: f64) {
        self.quiet.insert(def(name).name, value);
    }

    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.samples.get(name).map(|s| Summary::of(s))
    }

    /// What the run reports for a metric: its quiet value if it has one,
    /// else the median of its samples.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.quiet
            .get(name)
            .copied()
            .or_else(|| self.summary(name).map(|s| s.median))
    }

    /// Records a check value; a value that differs from an earlier one
    /// under the same name (another rep, the other pass) is an error.
    pub fn check_same(&mut self, name: &'static str, value: String) {
        match self.checks.get(name) {
            Some(seen) if *seen != value => self
                .errors
                .push(format!("{name} changed between reps: {seen} then {value}")),
            Some(_) => {}
            None => {
                self.checks.insert(name, value);
            }
        }
    }

    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    fn wanted(&self, d: &Def) -> bool {
        match d.kind {
            Kind::EndToEnd { .. } => !self.trace,
            Kind::Quality | Kind::Layer => self.trace,
        }
    }

    /// The one-line result the benchmark contract asks for: every
    /// end-to-end metric in the untraced pass, every other metric in the
    /// traced pass (0 for a layer this workload never enters).
    pub fn contract_line(&self) -> String {
        let mut metrics = JsonValue::object();
        for d in METRICS.iter().filter(|d| self.wanted(d)) {
            let value = self.value(d.name).unwrap_or(0.0);
            metrics.set(
                d.name,
                JsonValue::object()
                    .with("value", value)
                    .with("unit", d.unit),
            );
        }
        JsonValue::object()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_json()
    }

    /// The full record for `result.json`: every metric with its samples.
    pub fn to_json(&self) -> JsonValue {
        let mut metrics = JsonValue::object();
        for d in METRICS {
            let Some(samples) = self.samples.get(d.name) else {
                continue;
            };
            let s = Summary::of(samples);
            let mut m = JsonValue::object()
                .with("unit", d.unit)
                .with("better", d.better.as_str())
                .with("value", self.value(d.name).unwrap_or(s.median))
                .with("median", s.median)
                .with("q1", s.q1)
                .with("q3", s.q3)
                .with("n", s.n);
            match d.kind {
                Kind::EndToEnd { bound } => {
                    m.set("kind", "end_to_end");
                    m.set("bound", bound);
                }
                Kind::Quality => {
                    m.set("kind", "quality");
                    m.set("bound", 0.0);
                }
                Kind::Layer => {
                    m.set("kind", "per_layer");
                }
            }
            let mut array = JsonValue::array();
            for v in samples {
                array.push(*v);
            }
            metrics.set(d.name, m.with("samples", array));
        }
        let mut checks = JsonValue::object();
        for (k, v) in &self.checks {
            checks.set(k, v.as_str());
        }
        let strings = |items: &[String]| {
            let mut array = JsonValue::array();
            for item in items {
                array.push(item.as_str());
            }
            array
        };
        JsonValue::object()
            .with("workload", self.workload.as_str())
            .with("seed", self.seed)
            .with("scale", self.scale)
            .with("seconds", self.seconds)
            .with("trace", self.trace)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .with("checks", checks)
            .with("errors", strings(&self.errors))
            .with("warnings", strings(&self.warnings))
    }

    /// Every measured metric by name, with unit, direction and bound.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, scale {}, {}) ==",
            self.workload,
            self.seed,
            self.scale,
            if self.trace {
                "traced pass"
            } else {
                "untraced pass"
            }
        );
        for d in METRICS {
            let Some(s) = self.summary(d.name) else {
                continue;
            };
            let mut kind = match d.kind {
                Kind::EndToEnd { bound } => format!("end-to-end, bound {:.0}%", bound * 100.0),
                Kind::Quality => "quality, bound 0".to_string(),
                Kind::Layer => "per-layer".to_string(),
            };
            if self.quiet.contains_key(d.name) {
                // The value is below what any one rep measured (q1, q3).
                kind.push_str(", quiet");
            }
            println!(
                "  {:<40} {:>14.4} {:<7} {:<6} n={:<4} q1={:.4} q3={:.4}  [{kind}]",
                d.name,
                self.value(d.name).unwrap_or(s.median),
                d.unit,
                d.better.as_str(),
                s.n,
                s.q1,
                s.q3
            );
        }
        for (k, v) in &self.checks {
            println!("  check {k} = {v}");
        }
        println!("  attempted {} failed {}", self.attempted, self.failed);
        for w in &self.warnings {
            println!("  warning: {w}");
        }
        for e in &self.errors {
            println!("  FAILED CHECK: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(value: &JsonValue, key: &str) -> Vec<String> {
        value
            .get(key)
            .and_then(JsonValue::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` is the contract the driver reads; the registry is
    /// what the harness prints. They must name the same things.
    #[test]
    fn benchmark_json_mirrors_the_registries() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = dynp_obs::parse_json(&text).expect("valid JSON");

        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(names(&json, "workloads"), workloads);

        let e2e: Vec<&Def> = METRICS
            .iter()
            .filter(|d| matches!(d.kind, Kind::EndToEnd { .. }))
            .collect();
        assert_eq!(
            names(&json, "end_to_end"),
            e2e.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        for (entry, d) in json
            .get("end_to_end")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .zip(&e2e)
        {
            let Kind::EndToEnd { bound } = d.kind else {
                unreachable!()
            };
            assert_eq!(
                entry.get("bound").and_then(JsonValue::as_f64),
                Some(bound),
                "{}",
                d.name
            );
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(d.unit));
            assert_eq!(
                entry.get("better").and_then(JsonValue::as_str),
                Some(d.better.as_str())
            );
        }

        let rest: Vec<&str> = METRICS
            .iter()
            .filter(|d| !matches!(d.kind, Kind::EndToEnd { .. }))
            .map(|d| d.name)
            .collect();
        assert_eq!(names(&json, "per_layer"), rest);
    }

    #[test]
    fn contract_line_carries_the_pass_s_metrics_and_zero_fills_layers() {
        let mut untraced = Report::new("sim_replay", 1, "smoke", 1.0, false);
        untraced.attempted = 10;
        for d in METRICS {
            untraced.push(d.name, 2.5);
        }
        let line = dynp_obs::parse_json(&untraced.contract_line()).unwrap();
        assert_eq!(line.get("correct").and_then(JsonValue::as_bool), Some(true));
        let metrics = line.get("metrics").and_then(JsonValue::as_object).unwrap();
        assert_eq!(metrics.len(), 4);
        assert!(metrics.iter().any(|(k, _)| k == "setup_s"));

        let traced = Report::new("sim_replay", 1, "smoke", 1.0, true);
        let line = dynp_obs::parse_json(&traced.contract_line()).unwrap();
        let metrics = line.get("metrics").and_then(JsonValue::as_object).unwrap();
        assert_eq!(metrics.len(), METRICS.len() - 4);
        let steps = line.get("metrics").unwrap().get("sim.run.steps").unwrap();
        assert_eq!(steps.get("value").and_then(JsonValue::as_f64), Some(0.0));
    }

    #[test]
    fn a_check_that_changes_between_reps_is_an_error() {
        let mut r = Report::new("sim_replay", 1, "smoke", 1.0, false);
        r.check_same("decisions_digest", "abc".into());
        r.check_same("decisions_digest", "abc".into());
        assert!(r.correct());
        r.check_same("decisions_digest", "abd".into());
        assert!(!r.correct());
    }
}
