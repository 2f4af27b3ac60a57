//! The versioned wire schema of the serve API.
//!
//! Every JSON body — request or response — carries `"v": 1`. Requests
//! without a version, or with one this build does not speak, are
//! answered `400` with a typed error body instead of being half-
//! interpreted; that is what lets the schema evolve without silently
//! mis-reading old clients. Bodies are validated with the strict
//! [`dynp_obs::json`] parser (no NaN, no duplicate keys, no trailing
//! garbage) and unknown fields are rejected, so a typo in a client
//! request fails loudly at the door rather than being ignored.
//!
//! The full schema is documented in `DESIGN.md` §12.

use dynp_obs::JsonValue;
use dynp_sched::Policy;

/// The wire schema version this build speaks.
pub const WIRE_VERSION: u64 = 1;

/// The deterministic trace id of a job: a pure function of the batch
/// that admitted it and its admission-ordered id, so two servers fed
/// the same admitted sequence mint identical ids — the correlation key
/// threading an HTTP submission through the admission batch, the tuning
/// step, the placement decision, and the flight-recorder timeline
/// (`GET /v1/jobs/<id>/trace`).
pub fn trace_id(batch: u64, id: u32) -> String {
    // Built by hand: this runs once per completion on the service fast
    // path, where `format!`'s per-call setup is measurable.
    let mut out = String::with_capacity(16);
    out.push_str("t-");
    dynp_obs::json::int_into(&mut out, batch as i64);
    out.push('-');
    dynp_obs::json::int_into(&mut out, id as i64);
    out
}

/// A typed API rejection: HTTP status plus a machine-readable code,
/// serialized as `{"v":1,"error":{"code":…,"message":…}}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable error code (e.g. `unsupported_version`).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl ApiError {
    /// A new typed error.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
        }
    }

    /// `400 unsupported_version` for a body whose `v` is not
    /// [`WIRE_VERSION`] (or missing).
    pub fn unsupported_version(found: Option<u64>) -> ApiError {
        let message = match found {
            Some(v) => format!("wire version {v} is not supported; this server speaks v{WIRE_VERSION}"),
            None => format!("body carries no \"v\" field; this server speaks v{WIRE_VERSION}"),
        };
        ApiError::new(400, "unsupported_version", message)
    }

    /// `400 bad_request` for a malformed body or field.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_request", message)
    }

    /// `404 not_found` for an unknown job or path.
    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError::new(404, "not_found", message)
    }

    /// `429 queue_full` when admission control rejects a submission.
    pub fn queue_full(depth: usize) -> ApiError {
        ApiError::new(
            429,
            "queue_full",
            format!("submission queue is at its {depth}-entry depth limit, retry later"),
        )
    }

    /// `503 draining` once shutdown has begun.
    pub fn draining() -> ApiError {
        ApiError::new(503, "draining", "server is draining; no new submissions accepted")
    }

    /// The error body.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object().with("v", WIRE_VERSION).with(
            "error",
            JsonValue::object()
                .with("code", self.code)
                .with("message", self.message.as_str()),
        )
    }
}

/// Checks that `value` is an object carrying `"v": WIRE_VERSION`.
pub fn require_version(value: &JsonValue) -> Result<(), ApiError> {
    match value.get("v") {
        Some(v) => match v.as_u64() {
            Some(n) if n == WIRE_VERSION => Ok(()),
            Some(n) => Err(ApiError::unsupported_version(Some(n))),
            None => Err(ApiError::bad_request("\"v\" must be an unsigned integer")),
        },
        None => Err(ApiError::unsupported_version(None)),
    }
}

/// One job submission as it arrives on `POST /v1/jobs`.
///
/// `submit` is a *logical* timestamp (seconds on the service clock);
/// omitted, it defaults to the clock at admission. `actual_runtime`
/// defaults to `runtime` — the quasi-off-line model completes a job at
/// its actual end once the clock passes it, exactly like the trace
/// replay does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobRequest {
    /// Requested resources (processors), `w_i`.
    pub width: u32,
    /// Estimated runtime in seconds, `d_i` — what the planner sees.
    pub runtime: u64,
    /// Real runtime, if the submitter knows it (replay/drill traffic);
    /// defaults to `runtime`.
    pub actual_runtime: Option<u64>,
    /// Logical submission time; defaults to the service clock and is
    /// clamped up to it (the clock never runs backwards).
    pub submit: Option<u64>,
}

/// Field whitelist of a job object; anything else is a typo we refuse.
const JOB_FIELDS: [&str; 5] = ["v", "width", "runtime", "actual_runtime", "submit"];

impl JobRequest {
    /// Parses one job object (version already checked by the caller for
    /// nested batch entries; top-level objects check it again).
    pub fn from_json(value: &JsonValue) -> Result<JobRequest, ApiError> {
        let fields = value
            .as_object()
            .ok_or_else(|| ApiError::bad_request("job must be a JSON object"))?;
        for (key, _) in fields {
            if !JOB_FIELDS.contains(&key.as_str()) {
                return Err(ApiError::bad_request(format!("unknown job field {key:?}")));
            }
        }
        let width = value
            .get("width")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ApiError::bad_request("\"width\" (unsigned integer) is required"))?;
        if width == 0 || width > u32::MAX as u64 {
            return Err(ApiError::bad_request("\"width\" must be in 1..=2^32-1"));
        }
        let runtime = value
            .get("runtime")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ApiError::bad_request("\"runtime\" (seconds) is required"))?;
        if runtime == 0 {
            return Err(ApiError::bad_request("\"runtime\" must be at least 1 second"));
        }
        let actual_runtime = match value.get("actual_runtime") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|&a| a > 0)
                    .ok_or_else(|| ApiError::bad_request("\"actual_runtime\" must be a positive integer"))?,
            ),
        };
        let submit = match value.get("submit") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| ApiError::bad_request("\"submit\" must be an unsigned integer"))?,
            ),
        };
        Ok(JobRequest {
            width: width as u32,
            runtime,
            actual_runtime,
            submit,
        })
    }

    /// Parses a `POST /v1/jobs` body: either one job object or a batch
    /// `{"v":1,"jobs":[…]}`. Both forms check the version first, so an
    /// unknown `v` is rejected before any field is interpreted. The
    /// `bool` reports the batch form, which shapes the reply (see
    /// [`decisions_body`]).
    pub fn parse_submit_body(body: &str) -> Result<(Vec<JobRequest>, bool), ApiError> {
        let value = dynp_obs::parse_json(body)
            .map_err(|e| ApiError::bad_request(format!("body is not valid JSON: {e}")))?;
        require_version(&value)?;
        match value.get("jobs") {
            None => Ok((vec![JobRequest::from_json(&value)?], false)),
            Some(jobs) => {
                let jobs = jobs
                    .as_array()
                    .ok_or_else(|| ApiError::bad_request("\"jobs\" must be an array"))?;
                if jobs.is_empty() {
                    return Err(ApiError::bad_request("\"jobs\" must not be empty"));
                }
                let jobs: Result<Vec<JobRequest>, ApiError> =
                    jobs.iter().map(JobRequest::from_json).collect();
                Ok((jobs?, true))
            }
        }
    }
}

/// Why a submission was not admitted into the waiting queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Declined {
    /// Wider than the machine: no plan can ever place it.
    TooWide {
        /// Requested width.
        width: u32,
        /// Machine capacity.
        capacity: u32,
    },
    /// The planner refused the job for another reason (defensive: the
    /// width check at the door catches the known case).
    Unplannable {
        /// The planner's error text.
        reason: String,
    },
}

impl Declined {
    /// The stable reason string carried on the wire.
    pub fn reason(&self) -> String {
        match self {
            Declined::TooWide { width, capacity } => {
                format!("width {width} exceeds machine capacity {capacity}")
            }
            Declined::Unplannable { reason } => reason.clone(),
        }
    }
}

/// The decision a submission receives: admitted into the plan (running
/// now or waiting with a planned start) or declined at the door.
///
/// Decisions are deterministic: ids are assigned in admission order and
/// every field is derived from the logical service state, so the same
/// submission sequence always yields byte-identical decision bodies.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// The id the service assigned (also the job id for `GET
    /// /v1/jobs/<id>`); admission order within and across batches.
    pub id: u32,
    /// Batch sequence number this decision was planned in.
    pub batch: u64,
    /// How many submissions that batch coalesced.
    pub batch_size: usize,
    /// Service clock when the batch was planned.
    pub clock: u64,
    /// Policy active after the batch's tuning step.
    pub policy: Policy,
    /// Planned start time; `None` for declined jobs.
    pub planned_start: Option<u64>,
    /// `true` when the job was dispatched at decision time
    /// (`planned_start == clock`).
    pub started: bool,
    /// Why the job was declined, when it was.
    pub declined: Option<Declined>,
}

impl Decision {
    /// The wire form. Field order is fixed (insertion-ordered objects),
    /// which is what makes decision bodies byte-comparable.
    pub fn to_json(&self) -> JsonValue {
        let status = if self.declined.is_some() {
            "declined"
        } else if self.started {
            "running"
        } else {
            "waiting"
        };
        let mut json = JsonValue::object()
            .with("v", WIRE_VERSION)
            .with("id", self.id)
            .with("trace", trace_id(self.batch, self.id))
            .with("batch", self.batch)
            .with("batch_size", self.batch_size)
            .with("clock", self.clock)
            .with("policy", self.policy.name())
            .with("status", status);
        if let Some(start) = self.planned_start {
            json.set("planned_start", start);
        }
        if let Some(declined) = &self.declined {
            json.set("reason", declined.reason());
        }
        json
    }
}

/// Serializes a batch reply: one decision object for a single-job
/// submission, `{"v":1,"decisions":[…]}` for a batch submission.
pub fn decisions_body(decisions: &[Decision], was_batch: bool) -> String {
    if decisions.len() == 1 && !was_batch {
        return decisions[0].to_json().to_json();
    }
    let mut array = JsonValue::array();
    for d in decisions {
        array.push(d.to_json());
    }
    JsonValue::object()
        .with("v", WIRE_VERSION)
        .with("decisions", array)
        .to_json()
}

/// One entry of the current plan, as served on `GET /v1/schedule`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanEntry {
    /// Job id.
    pub id: u32,
    /// Planned (waiting) or actual (running) start.
    pub start: u64,
    /// Estimated end (start + estimated runtime).
    pub estimated_end: u64,
    /// Width.
    pub width: u32,
    /// `true` for running entries, `false` for planned waiting jobs.
    pub running: bool,
}

/// The current planned schedule: what the service believes will happen,
/// rendered from live state at request time.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleView {
    /// Logical service clock.
    pub clock: u64,
    /// Active policy.
    pub policy: Policy,
    /// Batches planned so far.
    pub batches: u64,
    /// Jobs waiting, running, completed, declined.
    pub waiting: usize,
    /// Running count.
    pub running: usize,
    /// Completed count.
    pub completed: usize,
    /// Declined count.
    pub declined: usize,
    /// Running entries first (by start, then id), then planned waiting
    /// entries in planned-start order.
    pub entries: Vec<PlanEntry>,
}

impl ScheduleView {
    /// The wire form.
    pub fn to_json(&self) -> JsonValue {
        let mut entries = JsonValue::array();
        for e in &self.entries {
            entries.push(
                JsonValue::object()
                    .with("id", e.id)
                    .with("start", e.start)
                    .with("estimated_end", e.estimated_end)
                    .with("width", e.width)
                    .with("state", if e.running { "running" } else { "planned" }),
            );
        }
        JsonValue::object()
            .with("v", WIRE_VERSION)
            .with("clock", self.clock)
            .with("policy", self.policy.name())
            .with("batches", self.batches)
            .with("waiting", self.waiting)
            .with("running", self.running)
            .with("completed", self.completed)
            .with("declined", self.declined)
            .with("entries", entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_gate_accepts_v1_only() {
        assert!(require_version(&dynp_obs::parse_json("{\"v\":1}").unwrap()).is_ok());
        let e = require_version(&dynp_obs::parse_json("{\"v\":2}").unwrap()).unwrap_err();
        assert_eq!((e.status, e.code), (400, "unsupported_version"));
        let e = require_version(&dynp_obs::parse_json("{}").unwrap()).unwrap_err();
        assert_eq!((e.status, e.code), (400, "unsupported_version"));
        dynp_obs::validate_json(&e.to_json().to_json()).unwrap();
    }

    #[test]
    fn single_and_batch_bodies_parse() {
        let (single, was_batch) =
            JobRequest::parse_submit_body("{\"v\":1,\"width\":4,\"runtime\":100}").unwrap();
        assert!(!was_batch);
        assert_eq!(
            single,
            vec![JobRequest {
                width: 4,
                runtime: 100,
                actual_runtime: None,
                submit: None
            }]
        );
        let (batch, was_batch) = JobRequest::parse_submit_body(
            "{\"v\":1,\"jobs\":[{\"width\":1,\"runtime\":10,\"submit\":5},{\"width\":2,\"runtime\":20,\"actual_runtime\":15}]}",
        )
        .unwrap();
        assert!(was_batch);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].submit, Some(5));
        assert_eq!(batch[1].actual_runtime, Some(15));
    }

    #[test]
    fn malformed_submissions_are_typed_400s() {
        for (body, expect) in [
            ("not json", "bad_request"),
            ("{\"v\":1}", "bad_request"),                          // no width
            ("{\"v\":1,\"width\":0,\"runtime\":10}", "bad_request"), // zero width
            ("{\"v\":1,\"width\":1,\"runtime\":0}", "bad_request"), // zero runtime
            ("{\"v\":1,\"width\":1,\"runtime\":5,\"nodes\":9}", "bad_request"), // unknown field
            ("{\"v\":1,\"jobs\":[]}", "bad_request"),              // empty batch
            ("{\"v\":3,\"width\":1,\"runtime\":5}", "unsupported_version"),
        ] {
            let e = JobRequest::parse_submit_body(body).unwrap_err();
            assert_eq!((e.status, e.code), (400, expect), "body: {body}");
        }
    }

    #[test]
    fn decision_wire_form_is_stable() {
        let d = Decision {
            id: 7,
            batch: 3,
            batch_size: 2,
            clock: 120,
            policy: Policy::Sjf,
            planned_start: Some(120),
            started: true,
            declined: None,
        };
        let json = d.to_json().to_json();
        assert_eq!(
            json,
            "{\"v\":1,\"id\":7,\"trace\":\"t-3-7\",\"batch\":3,\"batch_size\":2,\"clock\":120,\"policy\":\"SJF\",\"status\":\"running\",\"planned_start\":120}"
        );
        dynp_obs::validate_json(&json).unwrap();

        let declined = Decision {
            declined: Some(Declined::TooWide {
                width: 99,
                capacity: 8,
            }),
            planned_start: None,
            started: false,
            ..d
        };
        let json = declined.to_json().to_json();
        assert!(json.contains("\"status\":\"declined\""));
        assert!(json.contains("width 99 exceeds machine capacity 8"));
    }

    #[test]
    fn decisions_body_shapes() {
        let d = Decision {
            id: 0,
            batch: 1,
            batch_size: 1,
            clock: 0,
            policy: Policy::Fcfs,
            planned_start: Some(0),
            started: true,
            declined: None,
        };
        let single = decisions_body(std::slice::from_ref(&d), false);
        assert!(single.starts_with("{\"v\":1,\"id\":0,\"trace\":\"t-1-0\""));
        assert_eq!(trace_id(3, 7), "t-3-7");
        let batch = decisions_body(std::slice::from_ref(&d), true);
        assert!(batch.starts_with("{\"v\":1,\"decisions\":["));
        dynp_obs::validate_json(&batch).unwrap();
    }

    #[test]
    fn schedule_view_serializes() {
        let view = ScheduleView {
            clock: 50,
            policy: Policy::Fcfs,
            batches: 2,
            waiting: 1,
            running: 1,
            completed: 3,
            declined: 0,
            entries: vec![
                PlanEntry {
                    id: 4,
                    start: 40,
                    estimated_end: 140,
                    width: 2,
                    running: true,
                },
                PlanEntry {
                    id: 5,
                    start: 140,
                    estimated_end: 150,
                    width: 4,
                    running: false,
                },
            ],
        };
        let json = view.to_json().to_json();
        dynp_obs::validate_json(&json).unwrap();
        assert!(json.contains("\"state\":\"running\""));
        assert!(json.contains("\"state\":\"planned\""));
        assert!(json.contains("\"policy\":\"FCFS\""));
    }
}
