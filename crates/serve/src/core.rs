//! The service core: a live planning-based RMS on a **logical clock**,
//! mutated only by the decision loop.
//!
//! The RMS itself — machine, waiting queue, running set, plan, records,
//! the tune/plan/decline/dispatch loop — is the kernel shared with the
//! simulator, [`dynp_sim::Rms`]. This module is its second driver and
//! keeps only what is the service's own: batching, the logical clock and
//! the `(end, id)` finish heap that orders completions, id assignment,
//! the flight recorder, the wire views and snapshot/restore.
//!
//! ## Time is data
//!
//! Nothing in here reads the wall clock. The service clock advances
//! only when a submission (or the final drain) moves it: a batch is
//! planned at the latest logical submit time it carries, and running
//! jobs complete at their actual ends *as the clock passes them*,
//! processed chronologically exactly like the trace replay in
//! `dynp-sim`. The whole service state — decisions included — is
//! therefore a pure function of the admitted submission sequence, which
//! is what makes decision bodies byte-identical across runs (the
//! determinism guarantee of `DESIGN.md` §12) and what lets a snapshot
//! restore resume mid-stream.
//!
//! ## One planning pass per batch
//!
//! All submissions coalesced into a batch are admitted together by
//! **one** [`Rms::submit`] and planned by **one** [`SelfTuning::step`]:
//! one availability-profile build shared across every policy's plan
//! (the planner hot-path work), instead of one full tuning pass per
//! request. The serve bench measures exactly this batched-vs-per-request
//! gap.

use std::collections::BTreeMap;
use std::collections::BinaryHeap;
use std::cmp::Reverse;

use dynp_core::SelfTuning;
use dynp_obs::json::{array_into, ObjectWriter};
use dynp_obs::JsonValue;
use dynp_sched::{PlanError, Policy};
use dynp_sim::{JobRecord, Rms, SnapshotLog, Step};
use dynp_trace::{Job, JobId};

use crate::api::{trace_id, Decision, Declined, JobRequest, ScheduleView, PlanEntry, WIRE_VERSION};

/// One job's lifecycle timeline in the flight recorder: every milestone
/// on the **logical** clock, so the rendered trace body is a pure
/// function of the admitted sequence (byte-identical across servers and
/// across a checkpoint restart — no wall-clock field ever lands here).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobTimeline {
    /// Batch that admitted the job (1-based, the wire `batch` field).
    pub batch: u64,
    /// Logical clock when the batch was admitted.
    pub admitted: u64,
    /// Clamped logical submit stamp the job was admitted with.
    pub submit: u64,
    /// Policy the batch's tuning step decided on.
    pub policy: Policy,
    /// First planned start (`None` until planned, or when declined).
    pub planned_start: Option<u64>,
    /// Latest known planned start: the first placement until dispatch,
    /// then the actual start (where the final plan put the job). The
    /// recorder never rescans the queue on a plan revision — milestones
    /// are stamped O(1) at admission, dispatch, and completion, which
    /// is what keeps the recorder inside its ≤2% overhead budget.
    pub last_planned: Option<u64>,
    /// Plan revisions installed between admission and dispatch — how
    /// many times the queue was re-planned while this job sat in it.
    /// Frozen at dispatch; while the job waits, the live value is
    /// `ServiceCore` installs minus [`JobTimeline::replans_base`].
    pub replans: u32,
    /// Install-counter reading when the timeline opened (bookkeeping
    /// for the O(1) `replans` accounting).
    pub replans_base: u64,
    /// Actual dispatch time.
    pub started: Option<u64>,
    /// Actual completion time.
    pub finished: Option<u64>,
    /// Decline reason, for jobs that never entered the queue (or were
    /// rejected by the planner later).
    pub declined: Option<String>,
}

// The snapshot's flat wire shapes, one key list each in wire order:
// `snapshot_json` writes through these lists and `restore` reads
// through them.

/// A waiting job; a running one carries `start` after these.
const JOB_FIELDS: [&str; 5] = ["id", "submit", "width", "runtime", "actual"];

/// The values of [`JOB_FIELDS`].
fn job_fields(job: &Job) -> [u64; 5] {
    [
        job.id.0.into(),
        job.submit,
        job.width.into(),
        job.estimated_duration,
        job.actual_duration,
    ]
}

/// A timeline's members before its `policy`.
const TIMELINE_HEAD: [&str; 4] = ["id", "batch", "admitted", "submit"];

/// A timeline's members after its `policy`, each written when set (the
/// two counts always are); `declined` follows when set.
const TIMELINE_TAIL: [&str; 6] = [
    "replans",
    "replans_base",
    "planned_start",
    "last_planned",
    "started",
    "finished",
];

impl JobTimeline {
    /// The values of [`TIMELINE_TAIL`].
    fn tail(&self) -> [Option<u64>; 6] {
        [
            Some(self.replans.into()),
            Some(self.replans_base),
            self.planned_start,
            self.last_planned,
            self.started,
            self.finished,
        ]
    }
}

/// The live scheduling state behind the serve API.
#[derive(Debug)]
pub struct ServiceCore {
    /// Logical service clock (seconds).
    clock: u64,
    /// The RMS kernel: machine, tuner, queue, running set, plan, records.
    rms: Rms<SelfTuning>,
    /// Pending completions `(actual_end, id)`, popped chronologically.
    finishes: BinaryHeap<Reverse<(u64, u32)>>,
    /// Index into the kernel's completion records by raw job id.
    record_index: BTreeMap<u32, usize>,
    /// Declined submissions and why, keyed by raw job id.
    declined: BTreeMap<u32, (JobRequest, Declined)>,
    /// Next job id to assign; ids are admission-ordered.
    next_id: u32,
    /// Batches planned so far.
    batches: u64,
    /// Flight recorder: per-job lifecycle timelines, indexed by raw
    /// job id. Ids are assigned densely from zero, so a vector makes
    /// the admission-fast-path lookups one bounds check instead of a
    /// hash; ids the recorder never saw stay `None`.
    timelines: Vec<Option<JobTimeline>>,
    /// Plan revisions installed so far ([`Step::installed`] kernel
    /// calls) — the monotone counter behind per-job `replans` accounting.
    installs: u64,
    /// Whether the flight recorder captures timelines (on by default;
    /// the overhead bench flips it off to measure the delta).
    flight_recorder: bool,
}

impl ServiceCore {
    /// A fresh core over `capacity` resources tuned by `tuner`.
    pub fn new(capacity: u32, tuner: SelfTuning) -> ServiceCore {
        ServiceCore::over(Rms::new(capacity, tuner, SnapshotLog::disabled()))
    }

    /// A core at clock 0 driving `rms`, with nothing admitted yet.
    fn over(rms: Rms<SelfTuning>) -> ServiceCore {
        ServiceCore {
            clock: 0,
            rms,
            finishes: BinaryHeap::new(),
            record_index: BTreeMap::new(),
            declined: BTreeMap::new(),
            next_id: 0,
            batches: 0,
            timelines: Vec::new(),
            installs: 0,
            flight_recorder: true,
        }
    }

    /// Turns the flight recorder on or off. Off, `submit_batch` skips
    /// timeline bookkeeping entirely and [`ServiceCore::trace_json`]
    /// answers `None` for every id.
    pub fn set_flight_recorder(&mut self, on: bool) {
        self.flight_recorder = on;
    }

    /// Whether the flight recorder is capturing timelines.
    pub fn flight_recorder(&self) -> bool {
        self.flight_recorder
    }

    /// The recorded timeline for `id`, if the flight recorder saw it.
    pub fn timeline(&self, id: u32) -> Option<&JobTimeline> {
        self.timelines.get(id as usize).and_then(Option::as_ref)
    }

    /// Stores `t` as the timeline for `id`, growing the table as
    /// needed (ids are assigned densely from zero).
    fn put_timeline(&mut self, id: u32, t: JobTimeline) {
        let idx = id as usize;
        if self.timelines.len() <= idx {
            self.timelines.resize_with(idx + 1, || None);
        }
        self.timelines[idx] = Some(t);
    }

    /// Logical service clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Machine capacity.
    pub fn capacity(&self) -> u32 {
        self.rms.machine().capacity()
    }

    /// Batches planned so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Self-tuning steps executed so far — one per batch, however many
    /// submissions the batch carried (the quantity the serve bench
    /// compares against per-request planning).
    pub fn tuner_steps(&self) -> usize {
        self.rms.selector().stats().steps()
    }

    /// Completion records so far, in completion order.
    pub fn records(&self) -> &[JobRecord] {
        self.rms.records()
    }

    /// Jobs admitted or declined so far (== ids assigned).
    pub fn submitted(&self) -> u64 {
        self.next_id as u64
    }

    /// Waiting + running counts, for admission diagnostics.
    pub fn in_flight(&self) -> usize {
        self.rms.waiting().len() + self.rms.running().len()
    }

    /// Admits `requests` as **one batch**: the clock advances to the
    /// batch's latest logical submit time (processing any completions
    /// it passes), every request is admitted (or declined at the door),
    /// and a single self-tuning step plans the whole queue — one
    /// availability-profile build for the entire batch. Jobs planned to
    /// start right now are dispatched before the decisions are built.
    pub fn submit_batch(&mut self, requests: &[JobRequest]) -> Vec<Decision> {
        let _span = dynp_obs::span("serve.batch");
        self.batches += 1;
        // Admission: ids in request order, each logical submit clamped up
        // to the current clock (time never runs backwards).
        let jobs: Vec<Job> = (self.next_id..)
            .zip(requests)
            .map(|(id, request)| Job {
                id: JobId(id),
                submit: request.submit.unwrap_or(self.clock).max(self.clock),
                width: request.width,
                estimated_duration: request.runtime,
                actual_duration: request.actual_runtime.unwrap_or(request.runtime),
                user: 0,
            })
            .collect();
        self.next_id += jobs.len() as u32;
        let batch_time = jobs.iter().map(|j| j.submit).max().unwrap_or(self.clock);
        self.advance_to(batch_time);

        // The kernel width-checks at the door (a job wider than the
        // machine can never be planned) and runs one tuning step for the
        // whole batch.
        let step = self.rms.submit(self.clock, jobs.iter().copied());
        self.apply(step);

        // One pass over the installed plan (`Schedule::start_of` is a
        // linear scan; per-id scans would be O(batch × plan)), keeping
        // only this batch's own jobs: their ids are contiguous.
        let first_id = self.next_id - jobs.len() as u32;
        let mut starts: Vec<Option<u64>> = vec![None; jobs.len()];
        for entry in self.rms.plan().entries() {
            let slot = entry.id.0.checked_sub(first_id);
            if let Some(slot) = slot.and_then(|k| starts.get_mut(k as usize)) {
                *slot = Some(entry.start);
            }
        }

        // Decisions, in request order.
        let (batch, clock, policy) = (self.batches, self.clock, self.rms.selector().active());
        let decisions: Vec<Decision> = jobs
            .iter()
            .zip(starts)
            .map(|(job, planned)| {
                let id = job.id.0;
                let declined = self.declined.get(&id).map(|(_, why)| why.clone());
                let started = self.rms.running().contains_key(&job.id);
                let planned_start = if declined.is_some() {
                    None
                } else if started {
                    Some(clock)
                } else {
                    planned
                };
                Decision {
                    id,
                    batch,
                    batch_size: requests.len(),
                    clock,
                    policy,
                    planned_start,
                    started,
                    declined,
                }
            })
            .collect();

        // Flight recorder: open one timeline per id in this batch. The
        // deciding policy is only known after the tuning step, so the
        // timelines open here; jobs the dispatcher already started get
        // their start stamped retroactively (it happened at this very
        // clock — no time passes inside a batch).
        if self.flight_recorder {
            for (d, job) in decisions.iter().zip(&jobs) {
                self.put_timeline(
                    d.id,
                    JobTimeline {
                        batch,
                        admitted: clock,
                        submit: job.submit,
                        policy,
                        planned_start: d.planned_start,
                        last_planned: d.planned_start,
                        replans: 0,
                        replans_base: self.installs,
                        started: d.started.then_some(clock),
                        finished: None,
                        declined: d.declined.as_ref().map(Declined::reason),
                    },
                );
            }
        }

        if let Some(r) = dynp_obs::recorder() {
            r.counter("serve.batches").inc();
            r.counter("serve.jobs").add(requests.len() as u64);
            r.histogram("serve.batch_size").record(requests.len() as u64);
            r.event("serve.batch")
                .kv("batch", batch)
                .kv("size", requests.len())
                .kv("clock", clock)
                .kv("policy", policy.name())
                .emit();
        }
        decisions
    }

    /// Books what a kernel call did: declines, the plan revision, and a
    /// pending completion per dispatched job.
    ///
    /// Flight-recorder accounting here is strictly O(dispatched): one
    /// counter bump for the revision plus a timeline stamp per job that
    /// starts. Re-scanning the whole waiting queue per revision to diff
    /// planned starts was measured at 20–37% of the batched-admission
    /// path (revisions land on every completion, so the scan was
    /// quadratic in the backlog) — the `replans` counter instead
    /// derives from the install counter, and `last_planned` is
    /// refreshed when the job actually dispatches.
    fn apply(&mut self, step: Step) {
        for decline in step.declined {
            let (job, id) = (decline.job, decline.job.id.0);
            let why = match decline.error {
                PlanError::JobTooWide { width, capacity, .. } if decline.at_door => {
                    Declined::TooWide { width, capacity }
                }
                error => Declined::Unplannable {
                    reason: error.to_string(),
                },
            };
            if self.flight_recorder {
                // A planner rejection can hit a job from an earlier batch
                // (its timeline is open); same-batch declines are folded
                // in when the timeline opens.
                if let Some(t) = self.timelines.get_mut(id as usize).and_then(Option::as_mut) {
                    t.declined = Some(why.reason());
                    t.planned_start = None;
                    t.last_planned = None;
                }
            }
            let request = JobRequest {
                width: job.width,
                runtime: job.estimated_duration,
                actual_runtime: Some(job.actual_duration),
                submit: Some(job.submit),
            };
            self.declined.insert(id, (request, why));
        }
        self.installs += u64::from(step.installed);
        for (id, actual_end) in step.dispatched {
            self.finishes.push(Reverse((actual_end, id.0)));
            if self.flight_recorder {
                // Jobs from *earlier* batches have open timelines; jobs
                // of the batch being planned right now are stamped when
                // their timelines open (same clock either way). The
                // final plan placed the job at this very clock, so the
                // dispatch stamp is also the last planned start.
                if let Some(t) = self.timelines.get_mut(id.0 as usize).and_then(Option::as_mut) {
                    t.started = Some(self.clock);
                    t.last_planned = Some(self.clock);
                    t.replans = self.installs.saturating_sub(t.replans_base + 1) as u32;
                }
            }
        }
    }

    /// Advances the clock to `t`, completing every job whose actual end
    /// it passes, in `(end, id)` order (each completion releases
    /// resources and re-plans with the active policy, so waiting jobs
    /// move forward).
    fn advance_to(&mut self, t: u64) {
        while let Some(&Reverse((end, id))) = self.finishes.peek() {
            if end > t {
                break;
            }
            self.finishes.pop();
            self.clock = end;
            // A duplicate completion releases nothing (cannot happen
            // with the heap holding one entry per start, but cheap to
            // keep the machine's own defence).
            let Ok(step) = self.rms.complete(end, JobId(id), false) else {
                continue;
            };
            self.record_index.insert(id, self.rms.records().len() - 1);
            if self.flight_recorder {
                if let Some(t) = self.timelines.get_mut(id as usize).and_then(Option::as_mut) {
                    t.finished = Some(end);
                }
            }
            if let Some(r) = dynp_obs::recorder() {
                r.counter("serve.completed").inc();
            }
            self.apply(step);
        }
        self.clock = self.clock.max(t);
    }

    /// Drains the service: advances the clock past every pending
    /// completion until nothing is running or waiting. Returns the
    /// final clock.
    pub fn drain(&mut self) -> u64 {
        while let Some(&Reverse((end, _))) = self.finishes.peek() {
            self.advance_to(end);
        }
        debug_assert!(
            self.rms.waiting().is_empty(),
            "drain left jobs waiting with an idle machine"
        );
        self.clock
    }

    /// The current planned schedule, rendered for `GET /v1/schedule`:
    /// running entries (actual starts, estimated ends) then planned
    /// waiting entries in planned-start order.
    pub fn schedule_view(&self) -> ScheduleView {
        let (waiting, started) = (self.rms.waiting(), self.rms.running());
        let mut entries = Vec::with_capacity(started.len() + waiting.len());
        let mut running: Vec<&dynp_platform::RunningJob> =
            self.rms.machine().running().iter().collect();
        running.sort_by_key(|r| (r.start, r.id));
        for r in running {
            entries.push(PlanEntry {
                id: r.id.0,
                start: r.start,
                estimated_end: r.estimated_end,
                width: r.width,
                running: true,
            });
        }
        for entry in self.rms.plan().start_order() {
            // A tuning step's plan covers the jobs it dispatched too (a
            // plan derived on this read, after a completion, does not);
            // only show the ones still waiting — the dispatched are in
            // the running section.
            if started.contains_key(&entry.id) {
                continue;
            }
            entries.push(PlanEntry {
                id: entry.id.0,
                start: entry.start,
                estimated_end: entry.end,
                width: entry.width,
                running: false,
            });
        }
        ScheduleView {
            clock: self.clock,
            policy: self.rms.selector().active(),
            batches: self.batches,
            waiting: waiting.len(),
            running: started.len(),
            completed: self.records().len(),
            declined: self.declined.len(),
            entries,
        }
    }

    /// The status body for `GET /v1/jobs/<id>`, or `None` for an id the
    /// service never assigned.
    pub fn job_view(&self, id: u32) -> Option<JsonValue> {
        let base = |status: &str| {
            JsonValue::object()
                .with("v", WIRE_VERSION)
                .with("id", id)
                .with("status", status)
        };
        if let Some(job) = self.rms.waiting().iter().find(|j| j.id.0 == id) {
            let mut json = base("waiting")
                .with("submit", job.submit)
                .with("width", job.width)
                .with("estimated_duration", job.estimated_duration);
            // After a completion the kernel derives the plan on this read.
            if let Some(start) = self.rms.plan().start_of(job.id) {
                json.set("planned_start", start);
            }
            return Some(json);
        }
        if let Some((job, start)) = self.rms.running().get(&JobId(id)) {
            return Some(
                base("running")
                    .with("submit", job.submit)
                    .with("width", job.width)
                    .with("estimated_duration", job.estimated_duration)
                    .with("start", *start)
                    .with("estimated_end", *start + job.estimated_duration),
            );
        }
        if let Some(&idx) = self.record_index.get(&id) {
            return Some(base("completed").with("record", self.records()[idx].to_json()));
        }
        if let Some((request, why)) = self.declined.get(&id) {
            return Some(
                base("declined")
                    .with("width", request.width)
                    .with("reason", why.reason()),
            );
        }
        None
    }

    /// The flight-recorder body for `GET /v1/jobs/<id>/trace`: the
    /// job's full lifecycle timeline on the logical clock. `None` when
    /// the recorder is off or never saw the id. Every field is logical,
    /// so two servers fed the same admitted sequence render
    /// byte-identical bodies (the differential test in
    /// `tests/serve_trace.rs` holds this across a checkpoint restart).
    pub fn trace_json(&self, id: u32) -> Option<JsonValue> {
        if !self.flight_recorder {
            return None;
        }
        let t = self.timelines.get(id as usize)?.as_ref()?;
        let mut timeline = JsonValue::array();
        timeline.push(
            JsonValue::object()
                .with("event", "submitted")
                .with("clock", t.admitted)
                .with("submit", t.submit),
        );
        if let Some(reason) = &t.declined {
            timeline.push(
                JsonValue::object()
                    .with("event", "declined")
                    .with("clock", t.admitted)
                    .with("reason", reason.as_str()),
            );
        } else {
            timeline.push(JsonValue::object().with("event", "queued").with("clock", t.admitted));
            if let Some(first) = t.planned_start {
                let mut planned = JsonValue::object()
                    .with("event", "planned")
                    .with("start", first);
                if let Some(last) = t.last_planned {
                    if last != first {
                        planned.set("last_start", last);
                    }
                }
                // Frozen at dispatch; live while the job still waits
                // (every install since admission is a revision it sat
                // through — the dispatch freeze excludes the revision
                // that started the job, so the value never regresses).
                let replans = if t.started.is_some() {
                    u64::from(t.replans)
                } else {
                    self.installs.saturating_sub(t.replans_base)
                };
                planned.set("replans", replans);
                timeline.push(planned);
            }
            if let Some(s) = t.started {
                timeline.push(JsonValue::object().with("event", "started").with("clock", s));
            }
            if let Some(f) = t.finished {
                timeline.push(JsonValue::object().with("event", "finished").with("clock", f));
            }
        }
        Some(
            JsonValue::object()
                .with("v", WIRE_VERSION)
                .with("id", id)
                .with("trace", trace_id(t.batch, id))
                .with("batch", t.batch)
                .with("policy", t.policy.name())
                .with("timeline", timeline),
        )
    }

    /// Aggregate service statistics (the shutdown reply and the bench
    /// report both use this).
    pub fn stats_json(&self) -> JsonValue {
        JsonValue::object()
            .with("clock", self.clock)
            .with("batches", self.batches)
            .with("submitted", self.submitted())
            .with("waiting", self.rms.waiting().len())
            .with("running", self.rms.running().len())
            .with("completed", self.records().len())
            .with("declined", self.declined.len())
            .with("policy", self.rms.selector().active().name())
    }

    // ------------------------------------------------------------------
    // Snapshot / restore through the obs checkpoint machinery.
    // ------------------------------------------------------------------

    /// The canonical configuration string whose
    /// [`dynp_obs::checkpoint::fingerprint`] scopes snapshot records: a
    /// snapshot taken under a different capacity, policy set, metric,
    /// or decider is ignored on load instead of corrupting the service.
    pub fn fingerprint_canonical(&self) -> String {
        let tuner = self.rms.selector();
        let policies: Vec<&str> = tuner.policies().iter().map(|p| p.name()).collect();
        format!(
            "serve/v{WIRE_VERSION}|capacity={}|policies={}|metric={}|decider={:?}",
            self.capacity(),
            policies.join(","),
            tuner.metric().name(),
            tuner.decider(),
        )
    }

    /// The full service state as one checkpoint `data` object, written
    /// as compact JSON text in one pass — the service's only state
    /// serializer. Everything is deterministic (logical times only), so
    /// a restored core continues the decision sequence byte-identically.
    pub fn snapshot_json(&self) -> String {
        let (waiting, running) = (self.rms.waiting(), self.rms.running());
        let entries = waiting.len() + running.len() + self.records().len() + self.timelines.len();
        let mut out = String::with_capacity(256 + 160 * entries);
        let mut state = ObjectWriter::open(&mut out);
        state
            .uint("clock", self.clock)
            .uint("next_id", self.next_id.into())
            .uint("batches", self.batches)
            .uint("installs", self.installs)
            .str("active", self.rms.selector().active().name());
        array_into(state.key("waiting"), waiting, |out, job| {
            let mut object = ObjectWriter::open(out);
            object.uints(&JOB_FIELDS, &job_fields(job));
            object.close();
        });
        array_into(state.key("running"), running.values(), |out, (job, start)| {
            let mut object = ObjectWriter::open(out);
            object.uints(&JOB_FIELDS, &job_fields(job)).uint("start", *start);
            object.close();
        });
        array_into(state.key("records"), self.records(), |out, r| r.write_json(out));
        array_into(state.key("declined"), &self.declined, |out, (id, (request, why))| {
            let mut object = ObjectWriter::open(out);
            object
                .uint("id", (*id).into())
                .uint("width", request.width.into())
                .uint("runtime", request.runtime)
                .str("reason", &why.reason());
            object.close();
        });
        // Vector order is ascending-id by construction.
        let timelines = (0u32..).zip(&self.timelines).filter_map(|(id, t)| Some((id, t.as_ref()?)));
        array_into(state.key("timelines"), timelines, |out, (id, t)| {
            let mut object = ObjectWriter::open(out);
            object
                .uints(&TIMELINE_HEAD, &[id.into(), t.batch, t.admitted, t.submit])
                .str("policy", t.policy.name());
            for (key, value) in TIMELINE_TAIL.iter().zip(t.tail()) {
                if let Some(value) = value {
                    object.uint(key, value);
                }
            }
            if let Some(reason) = &t.declined {
                object.str("declined", reason);
            }
            object.close();
        });
        state.close();
        out
    }

    /// [`ServiceCore::snapshot_json`] parsed: the state as the tree
    /// [`ServiceCore::restore`] reads.
    pub fn snapshot(&self) -> JsonValue {
        let text = self.snapshot_json();
        let tree = dynp_obs::parse_json(&text).expect("the snapshot writer emits strict JSON");
        debug_assert_eq!(tree.to_json(), text, "the snapshot text is canonical");
        tree
    }

    /// Rebuilds a core from a [`ServiceCore::snapshot`] object. The
    /// caller passes the same configuration (capacity + tuner) the
    /// snapshot was taken under — the checkpoint fingerprint guarantees
    /// it matched at load time.
    pub fn restore(capacity: u32, mut tuner: SelfTuning, data: &JsonValue) -> Result<ServiceCore, String> {
        let missing = |key: &str| format!("snapshot field {key:?} missing or not an integer");
        let u = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key).and_then(JsonValue::as_u64).ok_or_else(|| missing(key))
        };
        let array = |key: &str| -> Result<&[JsonValue], String> {
            data.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("snapshot field {key:?} missing"))
        };
        let clock = u(data, "clock")?;
        let active: Policy = data
            .get("active")
            .and_then(JsonValue::as_str)
            .ok_or("snapshot field \"active\" missing")?
            .parse()?;
        if !tuner.restore_active(active) {
            return Err(format!(
                "snapshot policy {} is not in the configured policy set",
                active.name()
            ));
        }
        let parse_job = |v: &JsonValue| -> Result<Job, String> {
            let [id, submit, width, runtime, actual] = JOB_FIELDS.map(|key| u(v, key));
            Ok(Job {
                id: JobId(id? as u32),
                submit: submit?,
                width: width? as u32,
                estimated_duration: runtime?,
                actual_duration: actual?,
                user: 0,
            })
        };
        let waiting = array("waiting")?.iter().map(parse_job).collect::<Result<Vec<Job>, _>>()?;
        let running = array("running")?
            .iter()
            .map(|v| Ok((parse_job(v)?, u(v, "start")?)))
            .collect::<Result<Vec<(Job, u64)>, String>>()?;
        let records = array("records")?
            .iter()
            .map(|v| JobRecord::from_json(v).map_err(|e| e.to_string()))
            .collect::<Result<Vec<JobRecord>, _>>()?;

        // The kernel restarts running jobs at their recorded starts, so
        // the machine reports the same actual ends the original run saw
        // and the pending-completion heap rebuilds exactly.
        let mut core = ServiceCore::over(Rms::restore(
            capacity, tuner, clock, active, waiting, running, records,
        )?);
        for r in core.rms.machine().running() {
            core.finishes.push(Reverse((r.actual_end, r.id.0)));
        }
        for (idx, record) in core.rms.records().iter().enumerate() {
            core.record_index.insert(record.id.0, idx);
        }
        core.clock = clock;
        core.next_id = u(data, "next_id")? as u32;
        core.batches = u(data, "batches")?;
        // Absent in pre-trace snapshots (no timelines to account for).
        // Restored verbatim: the kernel re-derives the current plan, but
        // that plan was already counted when it first installed, so the
        // rebuild is revision-neutral — otherwise every waiting job
        // would charge one phantom replan per restart and trace bodies
        // would diverge from a server that never restarted.
        core.installs = data
            .get("installs")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        for v in array("declined")? {
            let id = u(v, "id")? as u32;
            let width = u(v, "width")? as u32;
            let runtime = u(v, "runtime")?;
            let reason = v
                .get("reason")
                .and_then(JsonValue::as_str)
                .ok_or("declined entry without a reason")?
                .to_string();
            core.declined.insert(
                id,
                (
                    JobRequest {
                        width,
                        runtime,
                        actual_runtime: None,
                        submit: None,
                    },
                    Declined::Unplannable { reason },
                ),
            );
        }
        // Flight-recorder timelines (absent in pre-trace snapshots —
        // an empty recorder is the correct restore for those). The
        // per-timeline bases are restored verbatim like the install
        // counter, so replan counters — and therefore trace bodies —
        // stay byte-identical across the restart.
        if let Some(entries) = data.get("timelines").and_then(JsonValue::as_array) {
            for v in entries {
                let policy: Policy = v
                    .get("policy")
                    .and_then(JsonValue::as_str)
                    .ok_or("timeline entry without a policy")?
                    .parse()?;
                let [id, batch, admitted, submit] = TIMELINE_HEAD.map(|key| u(v, key));
                let [replans, replans_base, planned_start, last_planned, started, finished] =
                    TIMELINE_TAIL.map(|key| v.get(key).and_then(JsonValue::as_u64));
                core.put_timeline(
                    id? as u32,
                    JobTimeline {
                        batch: batch?,
                        admitted: admitted?,
                        submit: submit?,
                        policy,
                        planned_start,
                        last_planned,
                        replans: replans.ok_or_else(|| missing("replans"))? as u32,
                        replans_base: replans_base.unwrap_or(0),
                        started,
                        finished,
                        declined: v
                            .get("declined")
                            .and_then(JsonValue::as_str)
                            .map(str::to_string),
                    },
                );
            }
        }
        Ok(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_platform::MachineHistory;
    use dynp_sched::{plan, plan_frontier, Metric, SchedulingProblem};

    fn core(capacity: u32) -> ServiceCore {
        ServiceCore::new(capacity, SelfTuning::paper_config(Metric::SldwA))
    }

    fn req(width: u32, runtime: u64) -> JobRequest {
        JobRequest {
            width,
            runtime,
            actual_runtime: None,
            submit: None,
        }
    }

    #[test]
    fn single_job_is_dispatched_immediately() {
        let mut c = core(4);
        let d = c.submit_batch(&[req(2, 100)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].id, 0);
        assert!(d[0].started);
        assert_eq!(d[0].planned_start, Some(0));
        assert!(d[0].declined.is_none());
        let view = c.schedule_view();
        assert_eq!((view.running, view.waiting), (1, 0));
    }

    #[test]
    fn batch_is_one_tuning_step_and_queues_excess() {
        let mut c = core(4);
        let d = c.submit_batch(&[req(4, 100), req(4, 10), req(4, 10)]);
        assert_eq!(c.batches(), 1, "one batch, one planning pass");
        assert_eq!(c.tuner_steps(), 1, "one tuning step for three jobs");
        // Machine fits one 4-wide job; the others wait with plans.
        let started: Vec<bool> = d.iter().map(|x| x.started).collect();
        assert_eq!(started.iter().filter(|&&s| s).count(), 1);
        for x in &d {
            assert!(x.planned_start.is_some());
            assert_eq!(x.batch, 1);
            assert_eq!(x.batch_size, 3);
        }
    }

    #[test]
    fn too_wide_jobs_are_declined_at_the_door() {
        let mut c = core(4);
        let d = c.submit_batch(&[req(9, 10), req(2, 10)]);
        assert!(matches!(
            d[0].declined,
            Some(Declined::TooWide { width: 9, capacity: 4 })
        ));
        assert!(d[0].planned_start.is_none());
        assert!(d[1].started);
        assert!(c.job_view(0).unwrap().to_json().contains("declined"));
    }

    #[test]
    fn clock_advances_and_completions_fire_chronologically() {
        let mut c = core(4);
        c.submit_batch(&[req(4, 100)]); // runs 0..100
        c.submit_batch(&[req(4, 50)]); // queued behind it
        assert_eq!(c.clock(), 0, "no logical time passed yet");
        // A submission at logical time 300 passes both completions.
        let d = c.submit_batch(&[JobRequest {
            submit: Some(300),
            ..req(1, 10)
        }]);
        assert_eq!(c.clock(), 300);
        assert!(d[0].started);
        assert_eq!(c.records().len(), 2);
        assert_eq!(c.records()[0].end, 100);
        assert_eq!(c.records()[1].start, 100, "job 1 started when job 0 freed");
        assert_eq!(c.records()[1].end, 150);
    }

    #[test]
    fn submit_times_never_run_backwards() {
        let mut c = core(4);
        c.submit_batch(&[JobRequest {
            submit: Some(100),
            ..req(1, 10)
        }]);
        assert_eq!(c.clock(), 100);
        // An older timestamp is clamped to the clock, not honoured.
        let d = c.submit_batch(&[JobRequest {
            submit: Some(40),
            ..req(1, 10)
        }]);
        assert_eq!(c.clock(), 100);
        assert_eq!(d[0].planned_start, Some(100));
    }

    #[test]
    fn drain_completes_everything() {
        let mut c = core(4);
        c.submit_batch(&[req(4, 100), req(4, 50), req(2, 10), req(2, 20)]);
        let end = c.drain();
        assert_eq!(c.records().len(), 4);
        let view = c.schedule_view();
        assert_eq!((view.waiting, view.running), (0, 0));
        assert_eq!(end, c.records().iter().map(|r| r.end).max().unwrap());
    }

    #[test]
    fn job_views_cover_every_lifecycle_state() {
        let mut c = core(4);
        // Two batches so the lifecycle states are policy-independent:
        // job 0 dispatches alone, then job 1 must wait behind it.
        c.submit_batch(&[req(4, 100)]);
        c.submit_batch(&[req(4, 50), req(9, 10)]);
        let running = c.job_view(0).unwrap().to_json();
        assert!(running.contains("\"status\":\"running\""));
        let waiting = c.job_view(1).unwrap().to_json();
        assert!(waiting.contains("\"status\":\"waiting\""));
        assert!(waiting.contains("\"planned_start\":100"));
        let declined = c.job_view(2).unwrap().to_json();
        assert!(declined.contains("\"status\":\"declined\""));
        assert!(c.job_view(77).is_none());
        c.drain();
        let completed = c.job_view(0).unwrap().to_json();
        assert!(completed.contains("\"status\":\"completed\""));
        dynp_obs::validate_json(&completed).unwrap();
    }

    #[test]
    fn decisions_are_deterministic_across_fresh_cores() {
        let requests: Vec<JobRequest> = (0..40)
            .map(|i| JobRequest {
                width: 1 + (i % 4) as u32,
                runtime: 30 + (i % 7) * 20,
                actual_runtime: None,
                submit: Some(i * 3),
            })
            .collect();
        let run = |batch: usize| {
            let mut c = core(8);
            let mut bodies = Vec::new();
            for chunk in requests.chunks(batch) {
                for d in c.submit_batch(chunk) {
                    bodies.push(d.to_json().to_json());
                }
            }
            bodies
        };
        assert_eq!(run(5), run(5), "same batching → byte-identical decisions");
    }

    #[test]
    fn snapshot_restores_to_identical_future_behaviour() {
        let mut a = core(8);
        a.submit_batch(&[req(4, 100), req(4, 60), req(2, 30)]);
        a.submit_batch(&[JobRequest {
            submit: Some(50),
            ..req(8, 40)
        }]);

        let snapshot = a.snapshot();
        let b = ServiceCore::restore(
            8,
            SelfTuning::paper_config(Metric::SldwA),
            &snapshot,
        )
        .unwrap();
        let mut b = b;
        assert_eq!(b.snapshot().to_json(), snapshot.to_json(), "restore round-trips");
        assert_eq!(
            a.schedule_view().to_json().to_json(),
            b.schedule_view().to_json().to_json()
        );

        // The futures coincide, decision bytes included.
        let more = [JobRequest {
            submit: Some(120),
            ..req(3, 25)
        }];
        let da: Vec<String> = a.submit_batch(&more).iter().map(|d| d.to_json().to_json()).collect();
        let db: Vec<String> = b.submit_batch(&more).iter().map(|d| d.to_json().to_json()).collect();
        assert_eq!(da, db);
        assert_eq!(a.drain(), b.drain());
        assert_eq!(a.records(), b.records());
    }

    /// The one route that reads a plan nobody planned: completions empty
    /// the kernel's plan, a batch that admits nothing runs no tuning
    /// step to refill it, and the views derive it on read.
    #[test]
    fn views_after_a_completion_show_the_derived_plan() {
        let mut c = core(4);
        // Job 0 takes the machine and ends early, at 60; three jobs wait.
        let early = JobRequest {
            actual_runtime: Some(60),
            ..req(4, 100)
        };
        c.submit_batch(&[early]);
        c.submit_batch(&[req(4, 50), req(2, 30), req(3, 40)]);
        let too_wide = JobRequest {
            submit: Some(70),
            ..req(9, 10)
        };
        let d = c.submit_batch(&[too_wide]);
        assert!(d[0].declined.is_some());
        assert_eq!((c.clock(), c.records().len()), (70, 1), "the clock passed job 0's end");
        assert_eq!(c.tuner_steps(), 2, "admitting nothing is not a tuning point");

        // What a fresh full plan of the queue gives, here and now.
        let problem = SchedulingProblem::new(
            c.clock(),
            c.rms.machine().history(c.clock()),
            c.rms.waiting().to_vec(),
        );
        let fresh = plan(&problem, c.rms.selector().active()).unwrap();
        assert!(!fresh.is_empty(), "jobs still wait");
        let view = c.schedule_view();
        let shown: Vec<(u32, u64)> = view.entries.iter().filter(|e| !e.running).map(|e| (e.id, e.start)).collect();
        let expected: Vec<(u32, u64)> = fresh.start_order().iter().map(|e| (e.id.0, e.start)).collect();
        assert_eq!(shown, expected);
        for (id, start) in expected {
            let body = c.job_view(id).unwrap().to_json();
            assert!(body.contains(&format!("\"planned_start\":{start}")), "{body}");
        }

        // A restored core plans the queue in full; the views cannot tell.
        let b = ServiceCore::restore(4, SelfTuning::paper_config(Metric::SldwA), &c.snapshot())
            .unwrap();
        assert_eq!(
            b.schedule_view().to_json().to_json(),
            c.schedule_view().to_json().to_json()
        );
        for id in 0..5 {
            assert_eq!(
                b.job_view(id).map(|j| j.to_json()),
                c.job_view(id).map(|j| j.to_json()),
                "job {id}"
            );
        }
    }

    /// A completion costs the jobs it starts, not the queue behind them.
    #[test]
    fn a_completion_places_only_the_jobs_it_dispatches() {
        let mut c = core(4);
        let backlog: Vec<JobRequest> = (0..1001).map(|_| req(4, 100)).collect();
        c.submit_batch(&backlog);
        assert_eq!((c.rms.running().len(), c.rms.waiting().len()), (1, 1000));
        // The pass as the kernel runs it when job 0 ends at 100: the
        // placed prefix it returns is one job long, the one it starts.
        let problem = SchedulingProblem::new(
            100,
            MachineHistory::empty(4, 100),
            c.rms.waiting().to_vec(),
        );
        let order = c.rms.selector().active().order(&problem.jobs);
        let frontier = plan_frontier(&problem, &order).unwrap();
        assert_eq!(frontier.len(), 1, "placed {} of 1000 queued jobs", frontier.len());
        c.advance_to(100);
        assert!(c.rms.running().contains_key(&frontier.entries()[0].id));
        assert_eq!((c.rms.running().len(), c.rms.waiting().len()), (1, 999));
    }

    #[test]
    fn flight_recorder_captures_the_full_lifecycle() {
        let mut c = core(4);
        // Job 0 monopolizes the machine, job 1 waits, job 2 is declined.
        c.submit_batch(&[req(4, 100)]);
        c.submit_batch(&[req(4, 50), req(9, 10)]);

        let t0 = c.timeline(0).unwrap().clone();
        assert_eq!((t0.batch, t0.started), (1, Some(0)));
        assert!(t0.finished.is_none());
        let t1 = c.timeline(1).unwrap();
        assert_eq!(t1.planned_start, Some(100));
        assert!(t1.started.is_none());
        let t2 = c.timeline(2).unwrap();
        assert!(t2.declined.is_some());

        c.drain();
        let t0 = c.timeline(0).unwrap();
        assert_eq!(t0.finished, Some(100));
        let t1 = c.timeline(1).unwrap();
        assert_eq!((t1.started, t1.finished), (Some(100), Some(150)));

        // Trace bodies: every event on the logical clock, strict JSON.
        let body = c.trace_json(1).unwrap().to_json();
        dynp_obs::validate_json(&body).unwrap();
        for needle in [
            "\"event\":\"submitted\"",
            "\"event\":\"queued\"",
            "\"event\":\"planned\"",
            "\"event\":\"started\"",
            "\"event\":\"finished\"",
            "\"trace\":\"t-2-1\"",
        ] {
            assert!(body.contains(needle), "{needle} missing in {body}");
        }
        let declined = c.trace_json(2).unwrap().to_json();
        assert!(declined.contains("\"event\":\"declined\""), "{declined}");
        assert!(c.trace_json(77).is_none());
    }

    #[test]
    fn flight_recorder_off_skips_timelines() {
        let mut c = core(4);
        c.set_flight_recorder(false);
        c.submit_batch(&[req(2, 10)]);
        assert!(c.trace_json(0).is_none());
        assert!(c.timeline(0).is_none());
        // The decision stream itself is unchanged.
        assert_eq!(c.submitted(), 1);
    }

    #[test]
    fn trace_bodies_survive_snapshot_restore() {
        let mut a = core(8);
        a.submit_batch(&[req(4, 100), req(4, 60), req(2, 30)]);
        a.submit_batch(&[JobRequest {
            submit: Some(50),
            ..req(8, 40)
        }]);
        let snapshot = a.snapshot();
        let mut b =
            ServiceCore::restore(8, SelfTuning::paper_config(Metric::SldwA), &snapshot).unwrap();
        assert_eq!(b.snapshot().to_json(), snapshot.to_json(), "timelines round-trip");
        for id in 0..4u32 {
            assert_eq!(
                a.trace_json(id).map(|j| j.to_json()),
                b.trace_json(id).map(|j| j.to_json()),
                "trace body diverged for job {id}"
            );
        }
        // And the futures keep matching after more traffic.
        let more = [JobRequest {
            submit: Some(500),
            ..req(3, 25)
        }];
        a.submit_batch(&more);
        b.submit_batch(&more);
        a.drain();
        b.drain();
        for id in 0..5u32 {
            assert_eq!(
                a.trace_json(id).map(|j| j.to_json()),
                b.trace_json(id).map(|j| j.to_json()),
                "post-restore trace diverged for job {id}"
            );
        }
    }

    #[test]
    fn restore_refuses_foreign_policy() {
        let snapshot = JsonValue::object()
            .with("clock", 0u64)
            .with("next_id", 0u64)
            .with("batches", 0u64)
            .with("active", "SAF")
            .with("waiting", JsonValue::array())
            .with("running", JsonValue::array())
            .with("records", JsonValue::array())
            .with("declined", JsonValue::array());
        let err = ServiceCore::restore(8, SelfTuning::paper_config(Metric::SldwA), &snapshot)
            .unwrap_err();
        assert!(err.contains("not in the configured policy set"), "{err}");
    }

    #[test]
    fn fingerprint_covers_the_configuration() {
        let a = core(8).fingerprint_canonical();
        let b = core(16).fingerprint_canonical();
        assert_ne!(a, b);
        assert_eq!(a, core(8).fingerprint_canonical());
        let c = ServiceCore::new(8, SelfTuning::paper_config(Metric::ArtwW)).fingerprint_canonical();
        assert_ne!(a, c);
    }
}
