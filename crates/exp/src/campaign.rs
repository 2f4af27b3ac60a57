//! Campaign configuration and the parallel, resumable cell runner.
//!
//! A *campaign* is the paper's §4 evaluation protocol as a first-class
//! value: slice a trace into weekly shards, replay every shard under every
//! selector and over-estimation factor, optionally compare a sample of
//! quasi-off-line snapshots against the exact ILP under a fixed node
//! budget, and aggregate everything into Table-1-style comparison tables.
//!
//! The cross-product `{shard × selector × factor}` is enumerated into a
//! deterministic *cell* list. Cells are independent, so they fan out
//! across a worker pool; every finished cell is appended to a JSONL
//! checkpoint ([`dynp_obs::checkpoint`]), and re-launching the same
//! campaign against the same output directory resumes exactly — completed
//! cells are read back instead of recomputed, and the final report is
//! **byte-identical** to an uninterrupted run. That works because cell
//! records contain only deterministic quantities: solve effort is counted
//! in branch & bound nodes and simplex iterations, never wall-clock time.

use crate::exact::{self, ExactConfig};
use crate::report;
use dynp_core::{Decider, FixedPolicy, SelfTuning};
use dynp_obs::checkpoint::{self, CheckpointLog};
use dynp_obs::{pool, JsonValue};
use dynp_sched::{Metric, Policy};
use dynp_sim::{simulate, SimConfig};
use dynp_trace::filter::overestimate;
use dynp_trace::{shards, Job, TraceShard, WEEK_SECONDS};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Which scheduler drives a campaign cell.
///
/// The spec (not the live selector) is what a campaign stores: it has a
/// stable [`label`](SelectorSpec::label) that identifies the cell in
/// checkpoints and reports, and it builds a fresh selector per cell so
/// cells never share tuning state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SelectorSpec {
    /// A fixed basic policy for the whole replay.
    Fixed(Policy),
    /// The self-tuning dynP scheduler.
    DynP {
        /// Tuning metric (the paper uses SLDwA).
        metric: Metric,
        /// Switch decision mechanism.
        decider: Decider,
    },
}

impl SelectorSpec {
    /// The campaign's default set: the paper's three basic policies plus
    /// [`SelectorSpec::dynp`].
    pub fn paper_set() -> Vec<SelectorSpec> {
        vec![
            SelectorSpec::Fixed(Policy::Fcfs),
            SelectorSpec::Fixed(Policy::Sjf),
            SelectorSpec::Fixed(Policy::Ljf),
            SelectorSpec::dynp(),
        ]
    }

    /// The campaign's default dynP cell: SLDwA metric, simple decider.
    /// The paper's own configuration decides with the advanced decider
    /// (`SelfTuning::paper_config`; `dynp-adv` here).
    pub fn dynp() -> SelectorSpec {
        SelectorSpec::DynP {
            metric: Metric::SldwA,
            decider: Decider::Simple,
        }
    }

    /// Stable display/checkpoint label. Unlike the live selector's label,
    /// this encodes the decider too, so two dynP variants never collide
    /// in a checkpoint.
    pub fn label(&self) -> String {
        match self {
            SelectorSpec::Fixed(p) => p.name().to_string(),
            SelectorSpec::DynP { metric, decider } => {
                format!("dynP({},{})", metric.name(), decider.name())
            }
        }
    }

    /// Parses a command-line selector name: `fcfs`, `sjf`, `ljf`, `dynp`
    /// (simple decider), `dynp-adv` (advanced), `dynp-sticky` (5 %
    /// margin).
    pub fn parse(s: &str) -> Result<SelectorSpec, CampaignError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fcfs" => Ok(SelectorSpec::Fixed(Policy::Fcfs)),
            "sjf" => Ok(SelectorSpec::Fixed(Policy::Sjf)),
            "ljf" => Ok(SelectorSpec::Fixed(Policy::Ljf)),
            "dynp" | "dynp-simple" => Ok(SelectorSpec::dynp()),
            "dynp-adv" | "dynp-advanced" => Ok(SelectorSpec::DynP {
                metric: Metric::SldwA,
                decider: Decider::Advanced,
            }),
            "dynp-sticky" => Ok(SelectorSpec::DynP {
                metric: Metric::SldwA,
                decider: Decider::Sticky { margin: 0.05 },
            }),
            other => Err(CampaignError::InvalidConfig(format!(
                "unknown selector {other:?} (expected fcfs, sjf, ljf, dynp, dynp-adv or dynp-sticky)"
            ))),
        }
    }
}

/// How a deterministic fault injection manifests inside a cell.
///
/// Faults exist so the failure machinery is *testable*: a campaign can
/// be told to crash, stall, or lose checkpoint writes at chosen cells,
/// and the resulting degraded records, retries, events, and resume
/// behavior are exactly what a real fault would produce — minus the
/// nondeterminism of real faults.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Panic inside the cell body. It is caught at the cell boundary and
    /// never unwinds past it; with retries exhausted the cell records
    /// `crashed` with the panic payload and source location.
    Panic,
    /// Sleep before the replay starts. Combined with
    /// [`CampaignConfig::cell_deadline`] this forces a timeout; the
    /// sleep polls the cell's cancel token, so it never outlives the
    /// deadline by more than a few milliseconds.
    Delay(Duration),
    /// Suppress the cell's checkpoint append through the same code path
    /// a real write error takes (`exp.checkpoint_write_failed` is
    /// emitted, the campaign continues): the cell is recomputed on
    /// every resume.
    CheckpointIo,
}

impl FaultKind {
    fn canonical(&self) -> JsonValue {
        match self {
            FaultKind::Panic => JsonValue::object().with("kind", "panic"),
            FaultKind::Delay(d) => JsonValue::object()
                .with("kind", "delay")
                .with("delay_ms", d.as_millis() as u64),
            FaultKind::CheckpointIo => JsonValue::object().with("kind", "checkpoint_io"),
        }
    }
}

/// One injection: `kind` applies to the first `attempts` attempts of
/// `cell`. `attempts: 1` with retries enabled models a transient fault
/// that a retry clears; `u32::MAX` a persistent one.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultInjection {
    /// Index in the campaign's deterministic cell enumeration.
    pub cell: usize,
    /// What happens there.
    pub kind: FaultKind,
    /// How many leading attempts the fault applies to.
    pub attempts: u32,
}

/// A deterministic fault schedule for a campaign.
///
/// Part of the campaign fingerprint, so runs with different fault plans
/// never share checkpoints. An empty plan (the default) injects
/// nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The injections; the first one matching `(cell, attempt)` wins.
    pub injections: Vec<FaultInjection>,
}

impl FaultPlan {
    /// The empty plan (what [`CampaignConfig::new`] starts with).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Adds an injection (builder style).
    pub fn inject(mut self, cell: usize, kind: FaultKind, attempts: u32) -> FaultPlan {
        self.injections.push(FaultInjection {
            cell,
            kind,
            attempts,
        });
        self
    }

    /// The fault active at `(cell, attempt)`, if any.
    fn at(&self, cell: usize, attempt: u32) -> Option<&FaultKind> {
        self.injections
            .iter()
            .find(|inj| inj.cell == cell && attempt <= inj.attempts)
            .map(|inj| &inj.kind)
    }

    fn canonical(&self) -> JsonValue {
        JsonValue::Array(
            self.injections
                .iter()
                .map(|inj| {
                    inj.kind
                        .canonical()
                        .with("cell", inj.cell)
                        .with("attempts", inj.attempts)
                })
                .collect(),
        )
    }
}

/// How a cell ended, as recorded in its checkpoint line and report row.
///
/// A degraded cell (anything but `Ok`) contributes no metrics to the
/// report aggregates; it appears in the failure census instead.
#[derive(Clone, Debug, PartialEq)]
pub enum CellStatus {
    /// The cell replayed (and solved) to completion.
    Ok,
    /// Every attempt panicked; the last payload and panic site are kept.
    Crashed {
        /// Rendered panic payload of the final attempt.
        payload: String,
        /// `file:line` of the panic site (the deterministic stand-in
        /// for a backtrace).
        location: String,
    },
    /// Every attempt overran [`CampaignConfig::cell_deadline`]; partial
    /// results were discarded.
    TimedOut,
}

impl CellStatus {
    /// The status string stored in checkpoint records and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Crashed { .. } => "crashed",
            CellStatus::TimedOut => "timed_out",
        }
    }
}

/// Status string of a cell record; records written before the failure
/// model existed carry no `status` key and count as ok.
pub(crate) fn record_status(data: &JsonValue) -> &str {
    data.get("status")
        .and_then(JsonValue::as_str)
        .unwrap_or("ok")
}

/// A full campaign description.
///
/// `#[non_exhaustive]`: build with [`CampaignConfig::new`] + `with_*`.
/// Everything except `workers` and `output_dir` enters the campaign
/// fingerprint, so a checkpoint taken with 1 worker resumes fine under 8.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct CampaignConfig {
    /// Campaign name: file stem of the checkpoint and the reports.
    pub name: String,
    /// Machine size in nodes (CTC: 430).
    pub machine_size: u32,
    /// Shard window length in seconds ([`WEEK_SECONDS`] = the paper's
    /// weekly protocol).
    pub shard_seconds: u64,
    /// Selectors swept per shard.
    pub selectors: Vec<SelectorSpec>,
    /// Runtime over-estimation factors swept per shard (1.0 = exact
    /// estimates).
    pub factors: Vec<f64>,
    /// Worker threads for the cell fan-out.
    pub workers: usize,
    /// Exact ILP comparison; `None` replays only.
    pub exact: Option<ExactConfig>,
    /// Wall-clock budget per cell attempt. Past it the cell's
    /// cooperative cancel token fires, the replay / branch & bound /
    /// simplex loops wind down, the attempt's partial results are
    /// discarded, and the cell records `timed_out` (after retries).
    /// `None` disables the deadline. Whether a deadline is *hit* is a
    /// wall-clock fact — a fresh rerun on a slower machine may time out
    /// differently — but resume stays byte-identical because degraded
    /// records are checkpointed and trusted like any other.
    pub cell_deadline: Option<Duration>,
    /// Extra attempts after a crashed or timed-out one (0 = fail fast).
    /// The retry decision depends only on the attempt counter and the
    /// fault plan, never on the clock, so recorded attempt counts are
    /// deterministic.
    pub retries: u32,
    /// Deterministic fault injections (tests, failure drills, CI smoke).
    pub faults: FaultPlan,
    /// Where the checkpoint and reports live.
    pub output_dir: PathBuf,
}

impl CampaignConfig {
    /// A weekly-shard campaign over the paper's selector set with exact
    /// estimates, one worker, and exact comparison at default budgets.
    pub fn new(name: &str, machine_size: u32) -> CampaignConfig {
        CampaignConfig {
            name: name.to_string(),
            machine_size,
            shard_seconds: WEEK_SECONDS,
            selectors: SelectorSpec::paper_set(),
            factors: vec![1.0],
            workers: 1,
            exact: Some(ExactConfig::new()),
            cell_deadline: None,
            retries: 0,
            faults: FaultPlan::none(),
            output_dir: PathBuf::from("results"),
        }
    }

    /// Shard window length in seconds.
    pub fn with_shard_seconds(mut self, shard_seconds: u64) -> CampaignConfig {
        self.shard_seconds = shard_seconds;
        self
    }

    /// Replaces the selector sweep.
    pub fn with_selectors(mut self, selectors: Vec<SelectorSpec>) -> CampaignConfig {
        self.selectors = selectors;
        self
    }

    /// Replaces the over-estimation factor sweep.
    pub fn with_factors(mut self, factors: Vec<f64>) -> CampaignConfig {
        self.factors = factors;
        self
    }

    /// Worker threads (not part of the fingerprint).
    pub fn with_workers(mut self, workers: usize) -> CampaignConfig {
        self.workers = workers;
        self
    }

    /// Sets (or, with `None`, disables) the exact comparison.
    pub fn with_exact(mut self, exact: Option<ExactConfig>) -> CampaignConfig {
        self.exact = exact;
        self
    }

    /// Wall-clock deadline per cell attempt.
    pub fn with_cell_deadline(mut self, deadline: Duration) -> CampaignConfig {
        self.cell_deadline = Some(deadline);
        self
    }

    /// Extra attempts after a crashed or timed-out one.
    pub fn with_retries(mut self, retries: u32) -> CampaignConfig {
        self.retries = retries;
        self
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> CampaignConfig {
        self.faults = faults;
        self
    }

    /// Output directory for checkpoint + reports.
    pub fn with_output_dir(mut self, dir: impl Into<PathBuf>) -> CampaignConfig {
        self.output_dir = dir.into();
        self
    }

    fn validate(&self, jobs: &[Job]) -> Result<(), CampaignError> {
        if jobs.is_empty() {
            return Err(CampaignError::EmptyTrace);
        }
        if self.selectors.is_empty() {
            return Err(CampaignError::InvalidConfig(
                "campaign has no selectors".into(),
            ));
        }
        if self.factors.is_empty() {
            return Err(CampaignError::InvalidConfig(
                "campaign has no over-estimation factors".into(),
            ));
        }
        if let Some(f) = self.factors.iter().find(|f| !f.is_finite() || **f < 1.0) {
            return Err(CampaignError::InvalidConfig(format!(
                "over-estimation factor {f} < 1.0 (estimates must cover the actual runtime)"
            )));
        }
        if self.machine_size == 0 {
            return Err(CampaignError::InvalidConfig("machine size is 0".into()));
        }
        if self.shard_seconds == 0 {
            return Err(CampaignError::InvalidConfig("shard length is 0".into()));
        }
        if self.name.is_empty() || self.name.contains(['/', '\\']) {
            return Err(CampaignError::InvalidConfig(format!(
                "campaign name {:?} is not a valid file stem",
                self.name
            )));
        }
        Ok(())
    }

    /// Canonical description of everything that determines cell results.
    /// `workers` and `output_dir` are deliberately absent.
    fn fingerprint(&self, jobs: &[Job]) -> String {
        let mut trace = String::new();
        for j in jobs {
            use std::fmt::Write as _;
            let _ = write!(
                trace,
                "{},{},{},{};",
                j.submit, j.width, j.estimated_duration, j.actual_duration
            );
        }
        let canonical = JsonValue::object()
            .with("name", self.name.as_str())
            .with("machine_size", self.machine_size)
            .with("shard_seconds", self.shard_seconds)
            .with(
                "selectors",
                JsonValue::Array(
                    self.selectors
                        .iter()
                        .map(|s| JsonValue::from(s.label()))
                        .collect(),
                ),
            )
            .with(
                "factors",
                JsonValue::Array(self.factors.iter().map(|&f| JsonValue::from(f)).collect()),
            )
            .with(
                "exact",
                match &self.exact {
                    Some(e) => e.canonical(),
                    None => JsonValue::Null,
                },
            )
            .with(
                "cell_deadline_ms",
                match self.cell_deadline {
                    Some(d) => JsonValue::from(d.as_millis() as u64),
                    None => JsonValue::Null,
                },
            )
            .with("retries", self.retries)
            .with("faults", self.faults.canonical())
            .with(
                "trace",
                checkpoint::fingerprint(&trace),
            )
            .to_json();
        checkpoint::fingerprint(&canonical)
    }
}

/// Why a campaign could not run.
#[derive(Debug)]
pub enum CampaignError {
    /// The input trace has no jobs, so there are no shards and no cells.
    EmptyTrace,
    /// A configuration field is unusable; the message names it.
    InvalidConfig(String),
    /// Creating the output directory, checkpoint, or reports failed.
    Io(std::io::Error),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::EmptyTrace => {
                write!(f, "campaign trace is empty: nothing to shard")
            }
            CampaignError::InvalidConfig(msg) => write!(f, "invalid campaign config: {msg}"),
            CampaignError::Io(e) => write!(f, "campaign i/o failed: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> CampaignError {
        CampaignError::Io(e)
    }
}

/// What [`run_campaign`] hands back.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The campaign fingerprint stamped on every checkpoint record.
    pub fingerprint: String,
    /// Cells in the cross-product `shards × selectors × factors`.
    pub cells_total: usize,
    /// Cells read back from the checkpoint instead of computed.
    pub cells_resumed: usize,
    /// Cells computed (and appended to the checkpoint) in this run.
    pub cells_computed: usize,
    /// Cells whose final record (computed or resumed) is `crashed`:
    /// every attempt panicked.
    pub cells_crashed: usize,
    /// Cells whose final record is `timed_out`: every attempt overran
    /// the deadline.
    pub cells_timed_out: usize,
    /// Checkpoint lines that were truncated, corrupt, or foreign.
    pub checkpoint_rejected: usize,
    /// The aggregated report (same value serialized to the JSON file).
    pub report: JsonValue,
    /// Path of the JSONL checkpoint.
    pub checkpoint_path: PathBuf,
    /// Path of the strict-JSON report.
    pub report_json_path: PathBuf,
    /// Path of the human-readable report.
    pub report_text_path: PathBuf,
    /// Path of the OpenMetrics snapshot (`None` when no global recorder
    /// was installed, so there was nothing to expose).
    pub metrics_path: Option<PathBuf>,
}

/// One unit of campaign work, fully determined by config + trace.
struct Cell<'a> {
    shard: &'a TraceShard,
    spec: SelectorSpec,
    factor: f64,
}

/// Runs (or resumes) a campaign over `jobs`.
///
/// The cell cross-product fans out over [`CampaignConfig::workers`]
/// threads; each finished cell is checkpointed before the next is picked
/// up. Valid records already present in the checkpoint are trusted and
/// skipped, which makes a re-launch after a crash continue where it died
/// and produce a byte-identical report.
///
/// Cells are fault-isolated: a panicking cell records `crashed`, a cell
/// past [`CampaignConfig::cell_deadline`] records `timed_out` (both
/// after [`CampaignConfig::retries`] extra attempts), and in either
/// case the sweep continues and `run_campaign` returns `Ok` — degraded
/// cells surface in [`CampaignOutcome::cells_crashed`] /
/// [`CampaignOutcome::cells_timed_out`], the report's failure census,
/// the `exp.cells_degraded` gauge, and the
/// `exp.cell_crashed`/`exp.cell_timeout`/`exp.cell_retry` events.
pub fn run_campaign(jobs: &[Job], config: &CampaignConfig) -> Result<CampaignOutcome, CampaignError> {
    // Panic-safe: even a campaign that dies mid-cell leaves a flushed
    // event log behind, matching what the checkpoint recorded.
    let _flush = dynp_obs::flush_on_drop();
    config.validate(jobs)?;
    let shard_list: Vec<TraceShard> = shards(jobs, config.shard_seconds).collect();
    if shard_list.is_empty() {
        // Unreachable with a non-empty trace, but keep the invariant local.
        return Err(CampaignError::EmptyTrace);
    }
    let fingerprint = config.fingerprint(jobs);

    // Deterministic cell enumeration: shard-major, then selector, then
    // factor. The index is the checkpoint key.
    let mut cells = Vec::new();
    for shard in &shard_list {
        for spec in &config.selectors {
            for &factor in &config.factors {
                cells.push(Cell {
                    shard,
                    spec: *spec,
                    factor,
                });
            }
        }
    }

    std::fs::create_dir_all(&config.output_dir)?;
    let checkpoint_path = config.output_dir.join(format!("{}.checkpoint.jsonl", config.name));
    let loaded = checkpoint::load(&checkpoint_path, &fingerprint)?;
    let log = CheckpointLog::append_to(&checkpoint_path)?;

    if let Some(r) = dynp_obs::recorder() {
        r.event("exp.campaign_start")
            .kv("name", config.name.as_str())
            .kv("fingerprint", fingerprint.as_str())
            .kv("shards", shard_list.len())
            .kv("cells", cells.len())
            .kv("resumable", loaded.cells.len())
            .kv("workers", config.workers)
            .emit();
    }

    // Progress gauges: the live source for `dynp-watch`'s `/progress`
    // endpoint and for the stderr progress line below. Published before
    // the pool starts so a poll during the very first cell already sees
    // the totals.
    let progress = dynp_obs::recorder().map(|r| {
        r.gauge("exp.cells_total").set(cells.len() as i64);
        r.gauge("exp.workers").set(config.workers.max(1) as i64);
        r.gauge("exp.cells_done").set(0);
        r.gauge("exp.cells_inflight").set(0);
        r.gauge("exp.cells_degraded").set(0);
        (
            r.gauge("exp.cells_done"),
            r.gauge("exp.cells_inflight"),
            r.gauge("exp.cells_degraded"),
        )
    });
    let campaign_started = std::time::Instant::now();
    let campaign_id = checkpoint::fnv1a64(fingerprint.as_bytes());
    let computed = AtomicUsize::new(0);
    let resumed = AtomicUsize::new(0);
    let cells_total = cells.len();
    let slot_results = pool::run_indexed(config.workers, &cells, |i, cell| {
        if let Some(cached) = loaded.cells.get(&i) {
            resumed.fetch_add(1, Ordering::Relaxed);
            if let Some((done, _, degraded)) = &progress {
                if record_status(cached) != "ok" {
                    degraded.add(1);
                }
                done.add(1);
            }
            return cached.clone();
        }
        if let Some((_, inflight, _)) = &progress {
            inflight.add(1);
        }
        // Everything a cell does — replay, exact solves, the checkpoint
        // append — runs under the cell's trace
        // context, so all its events correlate. A cell runs entirely on
        // one worker thread, which is what keeps its span ids
        // deterministic regardless of the worker count.
        let cell_ctx = dynp_obs::enter_cell(campaign_id, i as u64);
        let data = run_cell_guarded(cell, i, config);
        if matches!(config.faults.at(i, 1), Some(FaultKind::CheckpointIo)) {
            log.append_injected_failure(&fingerprint, i, &data);
        } else {
            log.append(&fingerprint, i, &data);
        }
        let computed_now = computed.fetch_add(1, Ordering::Relaxed) + 1;
        drop(cell_ctx);
        let done_now = match &progress {
            Some((done, inflight, degraded)) => {
                inflight.add(-1);
                if record_status(&data) != "ok" {
                    degraded.add(1);
                }
                done.add(1) as usize
            }
            None => computed_now + resumed.load(Ordering::Relaxed),
        };
        // One progress line per checkpoint flush. Resumed cells are
        // read back in microseconds, so the ETA extrapolates from the
        // computed-cell rate only.
        let remaining = cells_total.saturating_sub(done_now);
        let elapsed = campaign_started.elapsed().as_secs_f64();
        let pct = 100.0 * done_now as f64 / cells_total.max(1) as f64;
        let eta = remaining as f64 * elapsed / computed_now as f64;
        eprintln!(
            "campaign {}: {done_now}/{cells_total} cells ({pct:.0}%), ETA {eta:.0}s",
            config.name
        );
        // Flush per finished cell: a killed campaign keeps event logs
        // that cover exactly what the checkpoint covers.
        if let Some(r) = dynp_obs::recorder() {
            r.flush();
        }
        data
    });
    // Every panic inside a cell is already caught (and retried) by
    // `run_cell_guarded`, so a `Panicked` slot means the worker died
    // outside the guarded region — synthesize a crashed record rather
    // than losing the whole sweep to one slot.
    let cell_results: Vec<JsonValue> = slot_results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            pool::SlotOutcome::Done(data) => data,
            pool::SlotOutcome::Panicked(p) => {
                let status = CellStatus::Crashed {
                    payload: p.payload,
                    location: p.location,
                };
                degraded_record(&cells[i], &status, 1)
            }
        })
        .collect();
    let cells_crashed = cell_results
        .iter()
        .filter(|c| record_status(c) == "crashed")
        .count();
    let cells_timed_out = cell_results
        .iter()
        .filter(|c| record_status(c) == "timed_out")
        .count();
    // Authoritative final value (the incremental adds above miss only
    // the defensive pool-level synthesis).
    if let Some((_, _, degraded)) = &progress {
        degraded.set((cells_crashed + cells_timed_out) as i64);
    }

    let report = report::build(config, shard_list.len(), &cell_results);
    let report_json_path = config.output_dir.join(format!("{}.report.json", config.name));
    let report_text_path = config.output_dir.join(format!("{}.report.txt", config.name));
    std::fs::write(&report_json_path, report.json.to_json())?;
    std::fs::write(&report_text_path, &report.text)?;
    // OpenMetrics snapshot of whatever recorder observed this run, next
    // to the reports (scrape-ready; also CI-validated).
    let metrics_path = match dynp_obs::recorder() {
        Some(r) => {
            let path = config.output_dir.join(format!("{}.metrics.txt", config.name));
            std::fs::write(&path, dynp_obs::expo::render(r))?;
            Some(path)
        }
        None => None,
    };

    Ok(CampaignOutcome {
        fingerprint,
        cells_total: cells.len(),
        cells_resumed: resumed.into_inner(),
        cells_computed: computed.into_inner(),
        cells_crashed,
        cells_timed_out,
        checkpoint_rejected: loaded.rejected,
        report: report.json,
        checkpoint_path,
        report_json_path,
        report_text_path,
        metrics_path,
    })
}

/// The checkpoint record of a cell whose every attempt failed: only
/// identity fields plus the failure itself, so its bytes depend on
/// nothing wall-clock (a crashed record carries the deterministic panic
/// payload and site; a timed-out record carries no partial data at
/// all).
fn degraded_record(cell: &Cell<'_>, status: &CellStatus, attempts: u32) -> JsonValue {
    let mut v = JsonValue::object()
        .with("shard", cell.shard.index)
        .with("from", cell.shard.from)
        .with("to", cell.shard.to)
        .with("selector", cell.spec.label())
        .with("factor", cell.factor)
        .with("status", status.name())
        .with("attempts", attempts);
    if let CellStatus::Crashed { payload, location } = status {
        v = v
            .with("panic", payload.as_str())
            .with("panic_at", location.as_str());
    }
    v
}

/// Sleeps `total` in small slices, returning early once the cell's
/// cancel token fires (a [`FaultKind::Delay`] must not outlive the
/// deadline it exists to trip).
fn sleep_unless_cancelled(total: Duration) {
    const SLICE: Duration = Duration::from_millis(5);
    let mut remaining = total;
    while !remaining.is_zero() {
        if dynp_obs::cancelled() {
            return;
        }
        let step = remaining.min(SLICE);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

/// Runs one cell with panic isolation, the per-attempt deadline token,
/// and the bounded retry loop; returns the final checkpoint record.
///
/// The failure handling is layered:
///
/// * a panic anywhere in the replay or the exact solves is caught by
///   [`pool::call_caught`] at the cell boundary — the worker thread and
///   its sibling cells keep running,
/// * the deadline is enforced cooperatively: a fresh [`CancelToken`]
///   with the configured budget is installed per attempt, and the replay
///   loop, the branch & bound loop, and the simplex iteration
///   loop poll it. A cancelled attempt *returns normally* with partial
///   data, which is discarded here — an interrupted replay is not a
///   finished one,
/// * retry decisions depend only on the attempt counter and the fault
///   plan, never on the clock, so the `attempts` count in the record is
///   deterministic. The backoff sleep between attempts uses the clock
///   for waiting, not for deciding.
///
/// [`CancelToken`]: dynp_obs::CancelToken
fn run_cell_guarded(cell: &Cell<'_>, index: usize, config: &CampaignConfig) -> JsonValue {
    let max_attempts = config.retries.saturating_add(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let fault = config.faults.at(index, attempt).cloned();
        let token = match config.cell_deadline {
            Some(budget) => dynp_obs::CancelToken::with_deadline(budget),
            None => dynp_obs::CancelToken::new(),
        };
        let guard = dynp_obs::install_cancel(&token);
        let result = pool::call_caught(|| {
            match &fault {
                Some(FaultKind::Panic) => {
                    panic!("injected fault: panic in cell {index} (attempt {attempt})")
                }
                Some(FaultKind::Delay(d)) => sleep_unless_cancelled(*d),
                _ => {}
            }
            run_cell(cell, config)
        });
        drop(guard);
        let failure = match result {
            Ok(data) if !token.is_cancelled() => {
                return data.with("status", "ok").with("attempts", attempt);
            }
            Ok(_) => {
                if let Some(r) = dynp_obs::recorder() {
                    r.counter("exp.cell_timeout").inc();
                    // The cell index rides in the trace-context envelope
                    // (the caller holds the cell guard), not in a kv.
                    r.event("exp.cell_timeout").kv("attempt", attempt).emit();
                }
                CellStatus::TimedOut
            }
            Err(caught) => {
                if let Some(r) = dynp_obs::recorder() {
                    r.counter("exp.cell_crashed").inc();
                    r.event("exp.cell_crashed")
                        .kv("attempt", attempt)
                        .kv("panic", caught.payload.as_str())
                        .kv("at", caught.location.as_str())
                        .emit();
                }
                CellStatus::Crashed {
                    payload: caught.payload,
                    location: caught.location,
                }
            }
        };
        if attempt >= max_attempts {
            return degraded_record(cell, &failure, attempt);
        }
        if let Some(r) = dynp_obs::recorder() {
            r.counter("exp.cell_retry").inc();
            r.event("exp.cell_retry")
                .kv("attempt", attempt)
                .kv("max_attempts", max_attempts)
                .emit();
        }
        std::thread::sleep(Duration::from_millis(25).saturating_mul(attempt.min(40)));
    }
}

/// Replays one cell and packs its deterministic results.
fn run_cell(cell: &Cell<'_>, config: &CampaignConfig) -> JsonValue {
    let jobs = if cell.factor > 1.0 {
        overestimate(&cell.shard.jobs, cell.factor)
    } else {
        cell.shard.jobs.clone()
    };
    let mut sim_config = SimConfig::new(config.machine_size);
    if let Some(exact) = &config.exact {
        sim_config = sim_config.with_snapshots(exact.snapshot_filter());
    }

    // `simulate` is generic over the selector, so dispatch per variant and
    // collapse to the common record set + dynP stats. The replay stage is
    // one traced child span of the cell.
    let replay_span = dynp_obs::span("exp.replay");
    let (summary, completed, skipped, snapshots, steps, switches) = match cell.spec {
        SelectorSpec::Fixed(policy) => {
            let run = simulate(&jobs, FixedPolicy(policy), sim_config);
            (run.summary, run.records.len(), run.skipped.len(), run.snapshots, 0, 0)
        }
        SelectorSpec::DynP { metric, decider } => {
            let selector = SelfTuning::new(Policy::PAPER_SET.to_vec(), metric, decider);
            let run = simulate(&jobs, selector, sim_config);
            let stats = run.selector.stats();
            (
                run.summary,
                run.records.len(),
                run.skipped.len(),
                run.snapshots,
                stats.steps(),
                stats.switches(),
            )
        }
    };
    drop(replay_span);

    let mut data = JsonValue::object()
        .with("shard", cell.shard.index)
        .with("from", cell.shard.from)
        .with("to", cell.shard.to)
        .with("selector", cell.spec.label())
        .with("factor", cell.factor)
        .with("jobs", jobs.len())
        .with("completed", completed)
        .with("skipped", skipped)
        .with("sldwa", summary.sldwa)
        .with("avg_response", summary.avg_response)
        .with("avg_wait", summary.avg_wait)
        .with("utilization", summary.utilization)
        .with("steps", steps)
        .with("switches", switches);

    if let Some(exact) = &config.exact {
        let _exact_span = dynp_obs::span("exp.exact");
        // Cells already run in parallel, so each solves its sample inline.
        data = data.with("exact", exact::compare(&snapshots, exact, 1).record());
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_trace::{CtcModel, WorkloadModel};
    use std::path::Path;

    fn tiny_trace(n: usize) -> Vec<Job> {
        CtcModel {
            nodes: 64,
            ..CtcModel::default()
        }
        .generate(n, 11)
        .jobs
    }

    fn unique_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "dynp_exp_{}_{}_{}",
            tag,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn tiny_config(name: &str, dir: &Path) -> CampaignConfig {
        CampaignConfig::new(name, 64)
            .with_shard_seconds(6 * 3_600)
            .with_selectors(vec![
                SelectorSpec::Fixed(Policy::Fcfs),
                SelectorSpec::dynp(),
            ])
            .with_exact(Some(
                ExactConfig::new()
                    .with_job_range(2, 8)
                    .with_max_snapshots(1)
                    .with_node_budget(200),
            ))
            .with_output_dir(dir)
    }

    #[test]
    fn selector_labels_are_unique_and_parseable() {
        let specs = [
            "fcfs", "sjf", "ljf", "dynp", "dynp-adv", "dynp-sticky",
        ]
        .map(|s| SelectorSpec::parse(s).unwrap());
        let labels: Vec<String> = specs.iter().map(SelectorSpec::label).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "labels collide: {labels:?}");
        assert!(SelectorSpec::parse("cplex").is_err());
    }

    #[test]
    fn empty_trace_is_a_typed_error_not_a_panic() {
        let dir = unique_dir("empty");
        let err = run_campaign(&[], &tiny_config("empty", &dir)).unwrap_err();
        assert!(matches!(err, CampaignError::EmptyTrace));
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn invalid_factors_are_rejected() {
        let dir = unique_dir("factors");
        let config = tiny_config("factors", &dir).with_factors(vec![0.5]);
        let err = run_campaign(&tiny_trace(10), &config).unwrap_err();
        assert!(matches!(err, CampaignError::InvalidConfig(_)));
    }

    #[test]
    fn campaign_covers_the_cell_cross_product() {
        let dir = unique_dir("cover");
        let config = tiny_config("cover", &dir).with_factors(vec![1.0, 3.0]);
        let jobs = tiny_trace(60);
        let outcome = run_campaign(&jobs, &config).unwrap();
        let n_shards = shards(&jobs, config.shard_seconds).count();
        assert_eq!(outcome.cells_total, n_shards * 2 * 2);
        assert_eq!(outcome.cells_computed, outcome.cells_total);
        assert_eq!(outcome.cells_resumed, 0);
        assert!(outcome.report_json_path.exists());
        assert!(outcome.report_text_path.exists());
        // The report is strict JSON.
        let text = std::fs::read_to_string(&outcome.report_json_path).unwrap();
        dynp_obs::validate_json(&text).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_launch_resumes_every_cell() {
        let dir = unique_dir("resume");
        let config = tiny_config("resume", &dir);
        let jobs = tiny_trace(40);
        let first = run_campaign(&jobs, &config).unwrap();
        assert!(first.cells_computed > 0);
        let report_a = std::fs::read(&first.report_json_path).unwrap();
        let second = run_campaign(&jobs, &config).unwrap();
        assert_eq!(second.cells_resumed, first.cells_total);
        assert_eq!(second.cells_computed, 0);
        let report_b = std::fs::read(&second.report_json_path).unwrap();
        assert_eq!(report_a, report_b, "resumed report must be byte-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn changing_the_config_invalidates_the_checkpoint() {
        let dir = unique_dir("invalidate");
        let jobs = tiny_trace(40);
        let config = tiny_config("inv", &dir);
        let first = run_campaign(&jobs, &config).unwrap();
        // Same name + dir, different node budget: fingerprint changes, so
        // nothing resumes.
        let changed = config.clone().with_exact(Some(
            ExactConfig::new()
                .with_job_range(2, 8)
                .with_max_snapshots(1)
                .with_node_budget(350),
        ));
        let second = run_campaign(&jobs, &changed).unwrap();
        assert_eq!(second.cells_resumed, 0);
        assert_eq!(second.cells_computed, first.cells_total);
        // The stale lines are foreign, not fatal.
        assert_eq!(second.checkpoint_rejected, first.cells_total);
        std::fs::remove_dir_all(&dir).unwrap();

        // Every solver budget enters the fingerprint, including the Eq. 6
        // memory budget (it changes the time grid, hence every result).
        let base = tiny_config("inv", Path::new("x"));
        let tighter = base
            .clone()
            .with_exact(Some(ExactConfig::new().with_memory_budget_bytes(2 << 20)));
        assert_ne!(base.fingerprint(&jobs), tighter.fingerprint(&jobs));
    }

    #[test]
    fn workers_do_not_change_the_report() {
        let dir1 = unique_dir("w1");
        let dir4 = unique_dir("w4");
        let jobs = tiny_trace(50);
        let serial = run_campaign(&jobs, &tiny_config("w", &dir1)).unwrap();
        let parallel =
            run_campaign(&jobs, &tiny_config("w", &dir4).with_workers(4)).unwrap();
        assert_eq!(
            serial.report.to_json(),
            parallel.report.to_json(),
            "worker count must not leak into results"
        );
        std::fs::remove_dir_all(&dir1).unwrap();
        std::fs::remove_dir_all(&dir4).unwrap();
    }

    #[test]
    fn injected_panic_records_a_crashed_cell_and_the_sweep_survives() {
        let dir = unique_dir("crash");
        let config = tiny_config("crash", &dir)
            .with_faults(FaultPlan::none().inject(0, FaultKind::Panic, u32::MAX));
        let outcome = run_campaign(&tiny_trace(60), &config).unwrap();
        assert_eq!(outcome.cells_crashed, 1);
        assert_eq!(outcome.cells_timed_out, 0);
        assert_eq!(outcome.cells_computed, outcome.cells_total);

        // The crashed record is in the checkpoint with payload + site.
        let loaded = checkpoint::load(&outcome.checkpoint_path, &outcome.fingerprint).unwrap();
        let crashed = &loaded.cells[&0];
        assert_eq!(record_status(crashed), "crashed");
        assert_eq!(crashed.get("attempts").and_then(JsonValue::as_u64), Some(1));
        let payload = crashed.get("panic").and_then(JsonValue::as_str).unwrap();
        assert!(payload.contains("injected fault: panic in cell 0"));
        assert!(crashed
            .get("panic_at")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("campaign.rs"));

        // The report carries the census and excludes the cell from the
        // aggregates (its group has one shard fewer than its sibling).
        let failures = outcome.report.get("failures").unwrap();
        assert_eq!(failures.get("crashed").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(failures.get("timed_out").and_then(JsonValue::as_u64), Some(0));
        let listed = failures.get("cells").and_then(JsonValue::as_array).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].get("cell").and_then(JsonValue::as_u64), Some(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delayed_cell_past_the_deadline_times_out() {
        let dir = unique_dir("deadline");
        // No exact solves: clean cells finish in microseconds, far under
        // the 400 ms deadline even in debug mode, so only the injected
        // 10-minute delay can trip it.
        let config = tiny_config("deadline", &dir)
            .with_exact(None)
            .with_cell_deadline(Duration::from_millis(400))
            .with_faults(FaultPlan::none().inject(
                1,
                FaultKind::Delay(Duration::from_secs(600)),
                u32::MAX,
            ));
        let outcome = run_campaign(&tiny_trace(60), &config).unwrap();
        assert_eq!(outcome.cells_timed_out, 1);
        assert_eq!(outcome.cells_crashed, 0);
        // The timed-out record carries no partial metrics.
        let loaded = checkpoint::load(&outcome.checkpoint_path, &outcome.fingerprint).unwrap();
        let timed = &loaded.cells[&1];
        assert_eq!(record_status(timed), "timed_out");
        assert!(timed.get("sldwa").is_none(), "partial data must be discarded");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_retry_clears_a_transient_fault() {
        let dir = unique_dir("retry");
        let config = tiny_config("retry", &dir)
            .with_retries(2)
            .with_faults(FaultPlan::none().inject(0, FaultKind::Panic, 1));
        let outcome = run_campaign(&tiny_trace(60), &config).unwrap();
        assert_eq!(outcome.cells_crashed, 0);
        assert_eq!(outcome.cells_timed_out, 0);
        let loaded = checkpoint::load(&outcome.checkpoint_path, &outcome.fingerprint).unwrap();
        let healed = &loaded.cells[&0];
        assert_eq!(record_status(healed), "ok");
        assert_eq!(healed.get("attempts").and_then(JsonValue::as_u64), Some(2));
        // Untouched cells succeeded first try.
        assert_eq!(
            loaded.cells[&1].get("attempts").and_then(JsonValue::as_u64),
            Some(1)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_io_fault_recomputes_the_cell_on_resume() {
        let dir = unique_dir("ckptio");
        let config = tiny_config("ckptio", &dir)
            .with_faults(FaultPlan::none().inject(0, FaultKind::CheckpointIo, u32::MAX));
        let jobs = tiny_trace(40);
        let first = run_campaign(&jobs, &config).unwrap();
        assert_eq!(first.cells_computed, first.cells_total);
        let report_a = std::fs::read(&first.report_json_path).unwrap();
        // Cell 0's append was suppressed through the io-error path, so a
        // relaunch recomputes exactly that cell — and nothing else.
        let second = run_campaign(&jobs, &config).unwrap();
        assert_eq!(second.cells_resumed, second.cells_total - 1);
        assert_eq!(second.cells_computed, 1);
        assert_eq!(
            std::fs::read(&second.report_json_path).unwrap(),
            report_a,
            "recomputing the unpersisted cell must not change the report"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_cells_resume_byte_identically() {
        let dir = unique_dir("degraded_resume");
        let config = tiny_config("degr", &dir)
            .with_retries(1)
            .with_faults(
                FaultPlan::none()
                    .inject(0, FaultKind::Panic, u32::MAX)
                    .inject(2, FaultKind::Panic, 1),
            );
        let jobs = tiny_trace(40);
        let first = run_campaign(&jobs, &config).unwrap();
        assert_eq!(first.cells_crashed, 1);
        let report_a = std::fs::read(&first.report_json_path).unwrap();
        let second = run_campaign(&jobs, &config).unwrap();
        assert_eq!(second.cells_resumed, second.cells_total, "crashed records are trusted");
        assert_eq!(second.cells_crashed, 1, "resumed census still counts the crash");
        assert_eq!(std::fs::read(&second.report_json_path).unwrap(), report_a);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_knobs_enter_the_fingerprint() {
        let jobs = tiny_trace(20);
        let base = tiny_config("fp", Path::new("x"));
        let with_deadline = base.clone().with_cell_deadline(Duration::from_secs(30));
        let with_retries = base.clone().with_retries(1);
        let with_fault = base
            .clone()
            .with_faults(FaultPlan::none().inject(0, FaultKind::Panic, 1));
        let prints = [
            base.fingerprint(&jobs),
            with_deadline.fingerprint(&jobs),
            with_retries.fingerprint(&jobs),
            with_fault.fingerprint(&jobs),
        ];
        for (i, a) in prints.iter().enumerate() {
            for b in prints.iter().skip(i + 1) {
                assert_ne!(a, b, "fault knobs must invalidate the checkpoint");
            }
        }
    }

    #[test]
    fn fault_plan_lookup_respects_cell_and_attempt() {
        let plan = FaultPlan::none()
            .inject(3, FaultKind::Panic, 2)
            .inject(5, FaultKind::CheckpointIo, u32::MAX);
        assert_eq!(plan.at(3, 1), Some(&FaultKind::Panic));
        assert_eq!(plan.at(3, 2), Some(&FaultKind::Panic));
        assert_eq!(plan.at(3, 3), None, "transient fault clears after 2 attempts");
        assert_eq!(plan.at(4, 1), None);
        assert_eq!(plan.at(5, 99), Some(&FaultKind::CheckpointIo));
        assert!(FaultPlan::none().is_empty());
        assert!(!plan.is_empty());
    }
}
