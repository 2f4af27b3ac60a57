//! # dynp-insight — offline campaign telemetry analyzer
//!
//! Second-generation observability for dynp-rs: where `dynp-obs`
//! *records* (metrics, spans, JSONL events with trace context), this
//! crate *answers questions* after the fact, from the files alone:
//!
//! * [`merge`] — discovers `*.events.jsonl` logs (including size-rotated
//!   siblings) and merges each group into one totally-ordered stream by
//!   the `seq` logical clock, independent of how worker threads
//!   interleaved their writes.
//! * [`analyze`] — rebuilds the per-cell span tree from the
//!   `(campaign, cell, span, parent)` context fields and reports: span
//!   kind latency percentiles (log2 histograms), per-campaign critical
//!   paths, the "CPLEX still running" budget-exhaustion census, top-k
//!   costliest exact solves with incumbent-gap context, and structural
//!   invariants (orphan spans, parent ≥ Σ children reconciliation).
//!   The report's `logical` section is byte-identical regardless of
//!   worker count.
//! * [`diff`] — regression-compares two reports: logical differences
//!   fail, timing shifts are notes.
//! * [`analyze::profile_groups`] — rebuilds the collapsed-stack profile
//!   (per-kind self times, `flamegraph.pl`-compatible folded stacks)
//!   from the same span events through the `dynp_obs::profile` fold —
//!   the one way to get a profile of a run.
//!
//! The `dynp-insight` binary wraps these as `analyze`, `diff`, `fold`
//! (collapsed stacks), and `check-metrics` (OpenMetrics validation)
//! subcommands.
//!
//! Like `dynp-obs`, this crate is std-only: its only dependency is
//! `dynp-obs` itself (for the JSON and histogram machinery), which CI
//! enforces with a `cargo tree` gate.

pub mod analyze;
pub mod diff;
pub mod event;
pub mod merge;

pub use analyze::{
    analyze_groups, analyze_path, profile_groups, profile_path, render_text, Options,
};
pub use diff::{diff_reports, DiffOutcome};
pub use event::{parse_line, Event};
pub use merge::{discover, group_for, merge_group, merge_lines, LogGroup, MergedGroup};
