//! Parallel, resumable experiment campaigns for the dynP reproduction.
//!
//! The paper's §4 evaluation is a *batch* of experiments: weekly slices of
//! the CTC trace, each replayed under several schedulers and runtime
//! over-estimation factors, with a sample of quasi-off-line snapshots
//! solved exactly by CPLEX under an interruption budget. This crate turns
//! that protocol into a first-class API:
//!
//! * [`exact`] — the policy-vs-exact stage: [`ExactConfig`] and
//!   [`compare`], which samples snapshots, solves them and tallies the
//!   runs; Table 1, Ablation B and every campaign cell go through it,
//! * [`campaign`] — the [`CampaignConfig`] builder, the
//!   [`SelectorSpec`] sweep axis, and [`run_campaign`], which fans the
//!   `shard × selector × factor` cross-product over the shared worker
//!   pool ([`dynp_obs::pool`]: input-ordered, panic-isolating),
//! * [`dynp_obs::checkpoint`] — the self-validating JSONL record format
//!   that makes a killed campaign resume exactly where it died, with a
//!   byte-identical final report (shared with the serve front-end, hence
//!   in `dynp-obs`),
//! * [`report`] — the fold from checkpointed cells into the paper-style
//!   comparison tables (text + strict JSON).
//!
//! ```no_run
//! use dynp_exp::{run_campaign, CampaignConfig};
//! use dynp_trace::{CtcModel, WorkloadModel};
//!
//! let jobs = CtcModel::default().generate(2_000, 42).jobs;
//! let config = CampaignConfig::new("ctc-weekly", 430).with_workers(4);
//! let outcome = run_campaign(&jobs, &config).expect("campaign runs");
//! println!("{} cells -> {:?}", outcome.cells_total, outcome.report_json_path);
//! ```

pub mod campaign;
pub mod exact;
pub mod report;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignError, CampaignOutcome, CellStatus, FaultInjection,
    FaultKind, FaultPlan, SelectorSpec,
};
pub use exact::{compare, ExactConfig, ExactStage, ExactTally};
pub use report::BuiltReport;
