//! The self-tuning **dynP** scheduler — the paper's primary contribution.
//!
//! dynP ("dynamic policy") switches the active scheduling policy of a
//! planning-based RMS at run time. In each *self-tuning step* (§2) the
//! scheduler:
//!
//! 1. computes a **full schedule** for every available policy (FCFS, SJF,
//!    LJF in CCS),
//! 2. evaluates each schedule with a **performance metric** so every
//!    policy's quality collapses to a single number,
//! 3. feeds those numbers to a **decider** that picks the policy to switch
//!    to.
//!
//! The crate provides:
//! * [`decider`] — the paper's *simple* decider (three if-then-else
//!   constructs) and the *advanced* decider that fixes its four wrong
//!   decisions by considering the incumbent policy,
//! * [`tuner`] — [`SelfTuning`], the dynP scheduler state machine
//!   executing self-tuning steps,
//! * [`selector`] — the [`PolicySelector`] abstraction the RMS kernel
//!   drives, with [`FixedPolicy`] as the non-switching baseline,
//! * [`stats`] — switch counts and per-policy residency for the ablation
//!   experiments.

pub mod decider;
pub mod selector;
pub mod stats;
pub mod tuner;

pub use decider::Decider;
pub use selector::{FixedPolicy, PolicySelector};
pub use stats::TuningStats;
pub use tuner::{SelfTuning, TuningOutcome};
