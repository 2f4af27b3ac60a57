//! dynp-serve: an **online scheduling service** in front of a live
//! self-tuning dynP scheduler.
//!
//! Everything else in this workspace replays recorded traces; this crate
//! turns the same planning stack into a long-running service that takes
//! job submissions over HTTP and answers with scheduling decisions:
//!
//! - `POST /v1/jobs` — submit one job or a batch; the reply carries a
//!   [`Decision`] per job (dispatched now, planned start, or declined),
//!   each stamped with a deterministic trace id ([`api::trace_id`]).
//! - `GET /v1/jobs/<id>` — lifecycle status of a submitted job.
//! - `GET /v1/jobs/<id>/trace` — the flight-recorder timeline
//!   ([`JobTimeline`]): submitted → queued → planned → started →
//!   finished on the logical clock, with the deciding policy, batch id,
//!   and replan count. Persists through checkpoints.
//! - `GET /v1/schedule` — the current plan ([`ScheduleView`]).
//! - `GET /v1/stats` — per-route RED (rate / errors / duration) plus
//!   sliding-window (1m/5m/15m) p50/p95/p99, fed by an
//!   [`dynp_obs::WindowAggregator`] sampled from the decision loop.
//! - `POST /v1/shutdown` — graceful drain: stop admitting, finish
//!   everything, answer status queries until the process exits.
//!
//! Three properties drive the design (DESIGN.md §12):
//!
//! 1. **Batched admission.** Submissions arriving within one tick are
//!    coalesced and planned by a *single* self-tuning step — one
//!    availability-profile build for the whole batch instead of one
//!    full tuning pass per request. `benchmark/`'s `serve_core_backlog`
//!    and `serve_http_open` workloads measure the resulting throughput.
//! 2. **Determinism.** The service runs on a logical clock advanced
//!    only by submissions, so the decision stream is a pure function of
//!    the admitted submission sequence: same order in, byte-identical
//!    decision bodies out.
//! 3. **Bounded everything.** The submission queue is bounded (full →
//!    HTTP 429), request bodies are bounded (413), and the shared
//!    [`dynp_watch::router`] caps concurrent connections (503).
//!
//! The wire schema is versioned: every body carries `"v": 1`
//! ([`api::WIRE_VERSION`]); unsupported versions get a typed 400.
//! Service state snapshots ride the [`dynp_obs::checkpoint`] machinery,
//! so a restarted server resumes the decision sequence exactly.

pub mod api;
pub mod core;
pub mod server;

pub use api::{
    trace_id, ApiError, Decision, Declined, JobRequest, PlanEntry, ScheduleView, WIRE_VERSION,
};
pub use core::{JobTimeline, ServiceCore};
pub use server::{ServeConfig, ServeError, ServeServer};
