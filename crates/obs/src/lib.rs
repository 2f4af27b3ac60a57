//! # dynp-obs — workspace observability layer
//!
//! Std-only (zero external dependencies, by policy — CI asserts it)
//! metrics, span timing, and structured event logging for the dynp-rs
//! solver and simulator:
//!
//! * **Metrics** — atomic [`Counter`]s, [`Gauge`]s with high-water
//!   marks, and fixed-bucket base-2 [`Histogram`]s with merge support.
//! * **Spans** — RAII [`span`] guards: each close feeds the kind's
//!   latency histogram and is itself one event; near-zero cost when no
//!   global recorder is installed.
//! * **Events** — one-line JSONL records (`{"ts":…,"target":…,…}`)
//!   written to an in-memory buffer, a bounded ring, a size-rotating
//!   file set, or discarded; escaping is hand-rolled in
//!   [`json`], which also ships a strict serde-free validator used by
//!   the test suite. Every event carries a `seq` logical-clock value so
//!   interleaved multi-worker logs merge into one total order.
//! * **Trace context** — [`context`] threads
//!   `(campaign, cell, span, parent)` correlation ids through worker
//!   threads; all events emitted under an active context are tagged
//!   automatically and span ids are deterministic per cell, so the
//!   `dynp-insight` analyzer can rebuild the causal tree independent of
//!   worker count.
//! * **Exposition** — [`expo`] renders a recorder snapshot in the
//!   OpenMetrics/Prometheus text format (and strictly validates it),
//!   including sink self-diagnostics (ring drops, log rotations).
//! * **Profiling** — [`profile`] folds closed-span records (rebuilt
//!   from the `span` close events by `dynp-insight`) into per-kind self
//!   times and `flamegraph.pl`-compatible collapsed stacks, checking
//!   the parent ≥ Σ children invariant on the way.
//! * **Alerts** — declarative online [`alert::Rule`]s (counter rate,
//!   gauge threshold, histogram p99 bound, windowed p99 burn rate)
//!   evaluated on a sampling tick by an [`AlertSet`]; state
//!   transitions land in the event log.
//! * **Windows** — [`window::WindowAggregator`] differences periodic
//!   cumulative snapshots into a ring of per-slot delta histograms,
//!   answering last-1m/5m/15m rate/count/p50/p95/p99 questions
//!   (`/v1/stats`, `/slo`) that cumulative metrics cannot; its gauge
//!   families fold into the exposition via [`expo::render_with`].
//! * **Checkpoints** — [`checkpoint`] is the append-only JSONL record
//!   format (FNV-1a checksummed, fingerprint-scoped, torn-tail
//!   tolerant) that makes campaign sweeps resumable and serve state
//!   snapshottable without either crate depending on the other.
//! * **Cancellation** — a cooperative [`CancelToken`] with an optional
//!   wall-clock deadline, installed thread-locally ([`install_cancel`])
//!   and polled from the solver's and simulator's unbounded loops via
//!   [`cancelled`]; how campaign cells — and exact solves with a time
//!   limit, nested inside them — get a wall-clock budget without new
//!   dependency edges.
//! * **Worker pool** — [`pool::run_indexed`] is the workspace's one
//!   ordered map-over-slice fan-out (campaign cells, branch & bound node
//!   LPs): a panicking item becomes a [`pool::CaughtPanic`] with payload
//!   and `file:line` instead of unwinding, and the caller's cancel
//!   tokens are re-installed on every worker.
//!
//! The [`Recorder`] owns the metric registries and the event sink.
//! Production code uses the optional process-global recorder:
//! [`install`] one at program start (the bench binaries do), then
//! instrumented subsystems fetch handles via [`recorder`]. When nothing
//! is installed, instrumentation costs one atomic load per handle fetch
//! and nothing per loop iteration. Long-lived runs hold a
//! [`FlushGuard`] (see [`flush_on_drop`]) so buffered event sinks reach
//! disk even when the run panics.
//!
//! ```
//! use dynp_obs::{Recorder, Sink};
//!
//! let r = Recorder::new(Sink::memory());
//! r.counter("milp.nodes").add(128);
//! r.gauge("milp.open_nodes").set(17);
//! r.histogram("milp.lp_iterations").record(40);
//! r.event("milp.incumbent").kv("objective", 42.0).emit();
//! assert_eq!(r.events().len(), 1);
//! ```

pub mod alert;
pub mod cancel;
pub mod checkpoint;
pub mod context;
pub mod expo;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod profile;
mod recorder;
pub mod window;

pub use alert::{AlertSet, Rule, RuleKind};
pub use cancel::{cancelled, install_cancel, installed_cancels, CancelGuard, CancelToken};
pub use checkpoint::{CheckpointLog, LoadedCheckpoint};
pub use context::{cell_span_base, enter_cell, span, CellGuard, SpanGuard, TraceContext};
pub use json::{parse as parse_json, validate as validate_json, JsonValue};
pub use metrics::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Counter, Gauge, Histogram,
    HistogramSnapshot, BUCKETS,
};
pub use profile::{profile_spans, render_folded, KindStat, Profile, SpanRec};
pub use recorder::{install, flush_on_drop, recorder, EventBuilder, FlushGuard, Recorder, Sink, SinkStats};
pub use window::{Window, WindowAggregator, WINDOWS};
