//! The service core: a live planning-based RMS on a **logical clock**,
//! mutated only by the decision loop.
//!
//! The RMS itself — machine, waiting queue, running set, plan, records,
//! the tune/plan/decline/dispatch loop — is the kernel shared with the
//! simulator, [`dynp_sim::Rms`]. This module is its second driver and
//! keeps only what is the service's own: batching, the logical clock
//! (completions are taken from the machine's running set in `(actual
//! end, id)` order as the clock passes them), id assignment, the flight
//! recorder, the wire views and snapshot/restore.
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

use std::cell::RefCell;
use std::collections::BTreeMap;

use dynp_core::SelfTuning;
use dynp_obs::json::{array_into, ObjectWriter};
use dynp_obs::JsonValue;
use dynp_platform::RunningJob;
use dynp_sched::{PlanError, Policy};
use dynp_sim::{Decline, JobRecord, Rms, SnapshotLog};
use dynp_trace::{Job, JobId};

use crate::api::{trace_id, Decision, Declined, JobRequest, ScheduleView, PlanEntry, WIRE_VERSION};

/// What admission decided about one job — the flight recorder's entry.
/// The rest of the job's lifecycle (dispatch, completion, a later
/// decline) is read from where the kernel holds it when the trace is
/// rendered, so nothing is stamped after admission. Every field is on
/// the **logical** clock: the rendered trace body is a pure function of
/// the admitted sequence (byte-identical across servers and across a
/// checkpoint restart — no wall-clock field ever lands here).
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
    /// Where the batch's plan placed the job; `None` when the batch
    /// declined it.
    pub planned_start: Option<u64>,
}

/// A submission the service refused: what the views and the snapshot
/// show of it.
#[derive(Debug)]
struct DeclinedJob {
    width: u32,
    runtime: u64,
    why: Declined,
}

/// Where a job is now: exactly one of the places the service keeps jobs.
enum Whereabouts<'a> {
    Waiting(&'a Job),
    Running(&'a RunningJob),
    Completed(&'a JobRecord),
    Declined(&'a DeclinedJob),
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

/// A timeline's members before its `policy`; `planned_start` follows
/// when set.
const TIMELINE_HEAD: [&str; 4] = ["id", "batch", "admitted", "submit"];

/// The snapshot's `records` and `timelines` items rendered so far,
/// comma-joined without brackets, and how far into each list they
/// reach. Both lists only grow and an entry never changes once written,
/// so the text of the entries before a cursor is final.
#[derive(Debug, Default)]
struct RenderCache {
    records: String,
    records_done: usize,
    timelines: String,
    /// Next timeline slot to look at (slots the recorder skipped stay
    /// `None` for good: later ids are only ever higher).
    timelines_done: usize,
}

impl RenderCache {
    /// Renders the records and timeline slots appended since the last
    /// call.
    fn catch_up(&mut self, records: &[JobRecord], timelines: &[Option<JobTimeline>]) {
        let fresh = &records[self.records_done..];
        extend_items(&mut self.records, fresh, |out, r| r.write_json(out));
        self.records_done = records.len();
        // Slot order is ascending-id by construction.
        let fresh = (self.timelines_done..).zip(&timelines[self.timelines_done..]);
        let fresh = fresh.filter_map(|(id, t)| Some((id as u64, t.as_ref()?)));
        extend_items(&mut self.timelines, fresh, |out, (id, t)| {
            let mut object = ObjectWriter::open(out);
            object
                .uints(&TIMELINE_HEAD, &[id, t.batch, t.admitted, t.submit])
                .str("policy", t.policy.name());
            if let Some(start) = t.planned_start {
                object.uint("planned_start", start);
            }
            object.close();
        });
        self.timelines_done = timelines.len();
    }
}

/// Appends one rendered item per entry of `items` to the comma-joined
/// `text` (every item renders non-empty, so empty text means no items).
fn extend_items<T>(
    text: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    for it in items {
        if !text.is_empty() {
            text.push(',');
        }
        item(text, it);
    }
}

/// Writes comma-joined `items` as a JSON array.
fn bracketed(out: &mut String, items: &str) {
    out.push('[');
    out.push_str(items);
    out.push(']');
}

/// The live scheduling state behind the serve API.
#[derive(Debug)]
pub struct ServiceCore {
    /// Logical service clock (seconds).
    clock: u64,
    /// The RMS kernel: machine (with the running set), tuner, queue,
    /// plan, records.
    rms: Rms<SelfTuning>,
    /// Index into the kernel's completion records by raw job id.
    record_index: BTreeMap<u32, usize>,
    /// Declined submissions and why, keyed by raw job id.
    declined: BTreeMap<u32, DeclinedJob>,
    /// Next job id to assign; ids are admission-ordered.
    next_id: u32,
    /// Batches planned so far.
    batches: u64,
    /// Flight recorder: what admission decided per job, indexed by raw
    /// job id. Ids are assigned densely from zero, so a vector makes
    /// the admission-fast-path write one bounds check instead of a
    /// hash; ids the recorder never saw stay `None`.
    timelines: Vec<Option<JobTimeline>>,
    /// Whether the flight recorder captures timelines (on by default;
    /// the overhead bench flips it off to measure the delta).
    flight_recorder: bool,
    /// What [`ServiceCore::snapshot_json`] rendered of the append-only
    /// lists; empty until the first snapshot, so a core that never
    /// checkpoints pays nothing for it.
    rendered: RefCell<RenderCache>,
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
            record_index: BTreeMap::new(),
            declined: BTreeMap::new(),
            next_id: 0,
            batches: 0,
            timelines: Vec::new(),
            flight_recorder: true,
            rendered: RefCell::default(),
        }
    }

    /// Turns the flight recorder on or off. Off, `submit_batch` opens no
    /// timelines and [`ServiceCore::trace_json`] answers `None` for every
    /// id.
    pub fn set_flight_recorder(&mut self, on: bool) {
        self.flight_recorder = on;
    }

    /// What the flight recorder kept of `id`'s admission, if it saw it.
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
        self.rms.waiting().len() + self.rms.machine().running().len()
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

        // One pass each over the dispatched jobs and the installed plan
        // (`Schedule::start_of` is a linear scan; per-id scans would be
        // O(batch × plan)), keeping only this batch's own jobs: their ids
        // are contiguous.
        let first_id = self.next_id - jobs.len() as u32;
        let slot = |id: JobId| id.0.checked_sub(first_id).map(|k| k as usize);
        let mut started = vec![false; jobs.len()];
        for (id, _) in &step.dispatched {
            if let Some(flag) = slot(*id).and_then(|k| started.get_mut(k)) {
                *flag = true;
            }
        }
        self.book_declines(step.declined);
        let mut starts: Vec<Option<u64>> = vec![None; jobs.len()];
        for entry in self.rms.plan().entries() {
            if let Some(start) = slot(entry.id).and_then(|k| starts.get_mut(k)) {
                *start = Some(entry.start);
            }
        }

        // Decisions, in request order.
        let (batch, clock, policy) = (self.batches, self.clock, self.rms.selector().active());
        let decisions: Vec<Decision> = jobs
            .iter()
            .zip(starts)
            .zip(started)
            .map(|((job, planned), started)| {
                let id = job.id.0;
                let declined = self.declined.get(&id).map(|d| d.why.clone());
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

        // Flight recorder: one entry per id in this batch, written once.
        // The deciding policy is only known after the tuning step, so the
        // entries open here.
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

    /// Books the jobs a kernel call refused, with the wire reason.
    fn book_declines(&mut self, declined: Vec<Decline>) {
        for Decline { job, error, at_door } in declined {
            let why = match error {
                PlanError::JobTooWide { width, capacity, .. } if at_door => {
                    Declined::TooWide { width, capacity }
                }
                error => Declined::Unplannable {
                    reason: error.to_string(),
                },
            };
            let declined = DeclinedJob {
                width: job.width,
                runtime: job.estimated_duration,
                why,
            };
            self.declined.insert(job.id.0, declined);
        }
    }

    /// Advances the clock to `t`, completing every running job whose
    /// actual end it passes, in `(end, id)` order (each completion
    /// releases resources and re-plans with the active policy, so
    /// waiting jobs move forward).
    fn advance_to(&mut self, t: u64) {
        while let Some((end, id, step)) = self.rms.complete_next(t, false) {
            self.clock = end;
            self.record_index.insert(id.0, self.rms.records().len() - 1);
            if let Some(r) = dynp_obs::recorder() {
                r.counter("serve.completed").inc();
            }
            self.book_declines(step.declined);
        }
        self.clock = self.clock.max(t);
    }

    /// Drains the service: advances the clock past every pending
    /// completion until nothing is running or waiting. Returns the
    /// final clock.
    pub fn drain(&mut self) -> u64 {
        while let Some((end, _)) = self.rms.machine().next_completion() {
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
        let (waiting, running) = (self.rms.waiting(), self.rms.machine().running());
        let mut entries = Vec::with_capacity(running.len() + waiting.len());
        let mut by_start: Vec<&RunningJob> = running.iter().collect();
        by_start.sort_by_key(|r| (r.start, r.job.id));
        for r in by_start {
            entries.push(PlanEntry {
                id: r.job.id.0,
                start: r.start,
                estimated_end: r.estimated_end(),
                width: r.job.width,
                running: true,
            });
        }
        let mut started: Vec<JobId> = running.iter().map(|r| r.job.id).collect();
        started.sort_unstable();
        for entry in self.rms.plan().start_order() {
            // A tuning step's plan covers the jobs it dispatched too (a
            // plan derived on this read, after a completion, does not);
            // only show the ones still waiting — the dispatched are in
            // the running section.
            if started.binary_search(&entry.id).is_ok() {
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
            running: running.len(),
            completed: self.records().len(),
            declined: self.declined.len(),
            entries,
        }
    }

    /// Where job `id` is now, or `None` for an id the service never
    /// assigned.
    fn whereabouts(&self, id: u32) -> Option<Whereabouts<'_>> {
        if let Some(job) = self.rms.waiting().iter().find(|j| j.id.0 == id) {
            return Some(Whereabouts::Waiting(job));
        }
        if let Some(r) = self.rms.machine().running().iter().find(|r| r.job.id.0 == id) {
            return Some(Whereabouts::Running(r));
        }
        if let Some(&idx) = self.record_index.get(&id) {
            return Some(Whereabouts::Completed(&self.records()[idx]));
        }
        self.declined.get(&id).map(Whereabouts::Declined)
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
        let view = match self.whereabouts(id)? {
            Whereabouts::Waiting(job) => {
                let mut json = base("waiting")
                    .with("submit", job.submit)
                    .with("width", job.width)
                    .with("estimated_duration", job.estimated_duration);
                // After a completion the kernel derives the plan on this read.
                if let Some(start) = self.rms.plan().start_of(job.id) {
                    json.set("planned_start", start);
                }
                json
            }
            Whereabouts::Running(r) => base("running")
                .with("submit", r.job.submit)
                .with("width", r.job.width)
                .with("estimated_duration", r.job.estimated_duration)
                .with("start", r.start)
                .with("estimated_end", r.estimated_end()),
            Whereabouts::Completed(record) => base("completed").with("record", record.to_json()),
            Whereabouts::Declined(d) => base("declined")
                .with("width", d.width)
                .with("reason", d.why.reason()),
        };
        Some(view)
    }

    /// The flight-recorder body for `GET /v1/jobs/<id>/trace`: the
    /// job's full lifecycle timeline on the logical clock — admission as
    /// the recorder kept it, then dispatch, completion or a decline as
    /// the kernel holds them. `None` when the recorder is off or never
    /// saw the id. Every field is logical, so two servers fed the same
    /// admitted sequence render byte-identical bodies (the differential
    /// test in `tests/serve_trace.rs` holds this across a checkpoint
    /// restart).
    pub fn trace_json(&self, id: u32) -> Option<JsonValue> {
        if !self.flight_recorder {
            return None;
        }
        let t = self.timeline(id)?;
        let event = |name: &str| JsonValue::object().with("event", name);
        let mut timeline = JsonValue::array();
        timeline.push(event("submitted").with("clock", t.admitted).with("submit", t.submit));
        let now = self.whereabouts(id)?;
        if let Whereabouts::Declined(d) = now {
            timeline.push(
                event("declined")
                    .with("clock", t.admitted)
                    .with("reason", d.why.reason()),
            );
        } else {
            timeline.push(event("queued").with("clock", t.admitted));
            if let Some(start) = t.planned_start {
                timeline.push(event("planned").with("start", start));
            }
            let (started, finished) = match now {
                Whereabouts::Running(r) => (Some(r.start), None),
                Whereabouts::Completed(record) => (Some(record.start), Some(record.end)),
                _ => (None, None),
            };
            for (name, clock) in [("started", started), ("finished", finished)] {
                if let Some(clock) = clock {
                    timeline.push(event(name).with("clock", clock));
                }
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
            .with("running", self.rms.machine().running().len())
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
    /// as compact JSON text — the service's only state serializer.
    /// Everything is deterministic (logical times only), so a restored
    /// core continues the decision sequence byte-identically.
    ///
    /// Each completion record and flight-recorder entry is rendered once
    /// per core: both lists only grow and never change an entry once
    /// written, so a call renders the entries appended since the last
    /// one and copies the text of the rest. The header and the
    /// `waiting`, `running` and `declined` arrays are rendered afresh.
    pub fn snapshot_json(&self) -> String {
        let mut cache = self.rendered.borrow_mut();
        cache.catch_up(self.records(), &self.timelines);
        let (waiting, running) = (self.rms.waiting(), self.rms.machine().running());
        let entries = waiting.len() + running.len() + self.declined.len();
        let cached = cache.records.len() + cache.timelines.len();
        let mut out = String::with_capacity(256 + 160 * entries + cached);
        let mut state = ObjectWriter::open(&mut out);
        state
            .uint("clock", self.clock)
            .uint("next_id", self.next_id.into())
            .uint("batches", self.batches)
            .str("active", self.rms.selector().active().name());
        array_into(state.key("waiting"), waiting, |out, job| {
            let mut object = ObjectWriter::open(out);
            object.uints(&JOB_FIELDS, &job_fields(job));
            object.close();
        });
        array_into(state.key("running"), running, |out, r| {
            let mut object = ObjectWriter::open(out);
            object.uints(&JOB_FIELDS, &job_fields(&r.job)).uint("start", r.start);
            object.close();
        });
        bracketed(state.key("records"), &cache.records);
        array_into(state.key("declined"), &self.declined, |out, (id, d)| {
            let mut object = ObjectWriter::open(out);
            object
                .uint("id", (*id).into())
                .uint("width", d.width.into())
                .uint("runtime", d.runtime)
                .str("reason", &d.why.reason());
            object.close();
        });
        bracketed(state.key("timelines"), &cache.timelines);
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
        // Ids and widths are `u32`: a larger value is refused, never cut.
        let narrow = |v: &JsonValue, key: &str| -> Result<u32, String> {
            u32::try_from(u(v, key)?).map_err(|_| format!("snapshot field {key:?} exceeds u32"))
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
            let [id, submit, width, runtime, actual] = JOB_FIELDS;
            Ok(Job {
                id: JobId(narrow(v, id)?),
                submit: u(v, submit)?,
                width: narrow(v, width)?,
                estimated_duration: u(v, runtime)?,
                actual_duration: u(v, actual)?,
                user: 0,
            })
        };
        let waiting = array("waiting")?.iter().map(parse_job).collect::<Result<Vec<Job>, _>>()?;
        let running = array("running")?
            .iter()
            .map(|v| {
                Ok(RunningJob {
                    job: parse_job(v)?,
                    start: u(v, "start")?,
                })
            })
            .collect::<Result<Vec<RunningJob>, String>>()?;
        let records = array("records")?
            .iter()
            .map(|v| JobRecord::from_json(v).map_err(|e| e.to_string()))
            .collect::<Result<Vec<JobRecord>, _>>()?;

        // The kernel restarts running jobs at their recorded starts, so
        // the machine completes them at the same actual ends the original
        // run saw.
        let mut core = ServiceCore::over(Rms::restore(
            capacity, tuner, clock, active, waiting, running, records,
        )?);
        for (idx, record) in core.rms.records().iter().enumerate() {
            core.record_index.insert(record.id.0, idx);
        }
        core.clock = clock;
        core.next_id = narrow(data, "next_id")?;
        core.batches = u(data, "batches")?;
        for v in array("declined")? {
            let id = narrow(v, "id")?;
            let width = narrow(v, "width")?;
            let runtime = u(v, "runtime")?;
            let reason = v
                .get("reason")
                .and_then(JsonValue::as_str)
                .ok_or("declined entry without a reason")?
                .to_string();
            let why = Declined::Unplannable { reason };
            core.declined.insert(id, DeclinedJob { width, runtime, why });
        }
        // Flight-recorder entries (absent in pre-trace snapshots — an
        // empty recorder is the correct restore for those). Members that
        // snapshots once carried after `policy` (dispatch and completion
        // stamps, replan counts, the decline reason) are the kernel's to
        // hold, and are ignored.
        if let Some(entries) = data.get("timelines").and_then(JsonValue::as_array) {
            for v in entries {
                let policy: Policy = v
                    .get("policy")
                    .and_then(JsonValue::as_str)
                    .ok_or("timeline entry without a policy")?
                    .parse()?;
                let [id, batch, admitted, submit] = TIMELINE_HEAD;
                let id = narrow(v, id)?;
                // Ids are dense below `next_id`; a larger one would grow
                // the id-indexed table to it.
                if id >= core.next_id {
                    return Err(format!("timeline id {id} is not below next_id {}", core.next_id));
                }
                core.put_timeline(
                    id,
                    JobTimeline {
                        batch: u(v, batch)?,
                        admitted: u(v, admitted)?,
                        submit: u(v, submit)?,
                        policy,
                        planned_start: v.get("planned_start").and_then(JsonValue::as_u64),
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

    /// A completion places the jobs it starts, not the queue behind them.
    #[test]
    fn a_completion_places_only_the_jobs_it_dispatches() {
        let mut c = core(4);
        let backlog: Vec<JobRequest> = (0..1001).map(|_| req(4, 100)).collect();
        c.submit_batch(&backlog);
        assert_eq!((c.rms.machine().running().len(), c.rms.waiting().len()), (1, 1000));
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
        assert_eq!(c.rms.machine().running()[0].job.id, frontier.entries()[0].id);
        assert_eq!((c.rms.machine().running().len(), c.rms.waiting().len()), (1, 999));
    }

    #[test]
    fn flight_recorder_captures_the_full_lifecycle() {
        let mut c = core(4);
        // Job 0 monopolizes the machine, job 1 waits, job 2 is declined.
        c.submit_batch(&[req(4, 100)]);
        c.submit_batch(&[req(4, 50), req(9, 10)]);

        // The recorder keeps what admission decided, nothing later.
        let t1 = c.timeline(1).unwrap();
        assert_eq!((t1.batch, t1.admitted, t1.planned_start), (2, 0, Some(100)));
        assert_eq!(c.timeline(2).unwrap().planned_start, None);
        let events = |c: &ServiceCore, id: u32| {
            let body = c.trace_json(id).unwrap().to_json();
            dynp_obs::validate_json(&body).unwrap();
            let (_, timeline) = body.split_once("\"timeline\":").unwrap();
            timeline.to_string()
        };
        assert_eq!(
            events(&c, 0),
            r#"[{"event":"submitted","clock":0,"submit":0},{"event":"queued","clock":0},{"event":"planned","start":0},{"event":"started","clock":0}]}"#
        );
        assert_eq!(
            events(&c, 1),
            r#"[{"event":"submitted","clock":0,"submit":0},{"event":"queued","clock":0},{"event":"planned","start":100}]}"#
        );

        // Dispatch and completion are read from the kernel's records.
        c.drain();
        assert!(events(&c, 0).ends_with(r#"{"event":"started","clock":0},{"event":"finished","clock":100}]}"#));
        assert!(events(&c, 1).ends_with(r#"{"event":"planned","start":100},{"event":"started","clock":100},{"event":"finished","clock":150}]}"#));
        assert!(c.trace_json(1).unwrap().to_json().contains("\"trace\":\"t-2-1\""));
        assert_eq!(
            events(&c, 2),
            r#"[{"event":"submitted","clock":0,"submit":0},{"event":"declined","clock":0,"reason":"width 9 exceeds machine capacity 4"}]}"#
        );
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

    /// A snapshot in the layout written before the flight recorder kept
    /// only admission's facts (an install counter; dispatch, completion,
    /// replan and decline members on every timeline; running jobs in id
    /// order) restores to the core that wrote it.
    #[test]
    fn snapshots_in_the_earlier_layout_still_restore() {
        const EARLIER: &str = r#"{"clock":70,"next_id":6,"batches":3,"installs":4,"active":"SJF","waiting":[{"id":4,"submit":50,"width":8,"runtime":40,"actual":40},{"id":5,"submit":70,"width":3,"runtime":20,"actual":20}],"running":[{"id":0,"submit":0,"width":4,"runtime":100,"actual":100,"start":0},{"id":2,"submit":0,"width":2,"runtime":30,"actual":30,"start":60}],"records":[{"id":1,"submit":0,"start":0,"end":60,"width":4,"estimated_duration":60,"wait":0,"response":60}],"declined":[{"id":3,"width":9,"runtime":10,"reason":"width 9 exceeds machine capacity 8"}],"timelines":[{"id":0,"batch":1,"admitted":0,"submit":0,"policy":"FCFS","replans":0,"replans_base":1,"planned_start":0,"last_planned":0,"started":0},{"id":1,"batch":1,"admitted":0,"submit":0,"policy":"FCFS","replans":0,"replans_base":1,"planned_start":0,"last_planned":0,"started":0,"finished":60},{"id":2,"batch":1,"admitted":0,"submit":0,"policy":"FCFS","replans":1,"replans_base":1,"planned_start":60,"last_planned":60,"started":60},{"id":3,"batch":1,"admitted":0,"submit":0,"policy":"FCFS","replans":0,"replans_base":1,"declined":"width 9 exceeds machine capacity 8"},{"id":4,"batch":2,"admitted":50,"submit":50,"policy":"FCFS","replans":0,"replans_base":2,"planned_start":100,"last_planned":100},{"id":5,"batch":3,"admitted":70,"submit":70,"policy":"SJF","replans":0,"replans_base":4,"planned_start":90,"last_planned":90}]}"#;
        let mut live = core(8);
        live.submit_batch(&[req(4, 100), req(4, 60), req(2, 30), req(9, 10)]);
        live.submit_batch(&[JobRequest { submit: Some(50), ..req(8, 40) }]);
        live.submit_batch(&[JobRequest { submit: Some(70), ..req(3, 20) }]);
        let earlier = dynp_obs::parse_json(EARLIER).unwrap();
        let mut restored =
            ServiceCore::restore(8, SelfTuning::paper_config(Metric::SldwA), &earlier).unwrap();
        assert_eq!(restored.snapshot_json(), live.snapshot_json());
        live.drain();
        restored.drain();
        for id in 0..6 {
            assert_eq!(restored.job_view(id), live.job_view(id), "job {id}");
            assert_eq!(restored.trace_json(id), live.trace_json(id), "trace {id}");
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
    fn restore_refuses_what_it_would_have_to_cut() {
        let mut live = core(8);
        live.submit_batch(&[req(4, 100), req(4, 60), req(2, 30), req(9, 10)]);
        live.submit_batch(&[JobRequest { submit: Some(50), ..req(8, 40) }]);
        let text = live.snapshot_json();
        let restore = |text: &str| {
            let data = dynp_obs::parse_json(text).unwrap();
            ServiceCore::restore(8, SelfTuning::paper_config(Metric::SldwA), &data)
        };
        assert!(restore(&text).is_ok());
        // One field at a time: ids and widths past `u32`, and a timeline
        // id `next_id + 3`. Each would restore cut or grow the timeline
        // table; each must be refused instead.
        let past = |v: u64| (1u64 << 32) + v;
        let edits = [
            (r#"{"id":4,"submit":50,"#, format!(r#"{{"id":{},"submit":50,"#, past(4))),
            (r#""width":8,"runtime":40"#, format!(r#""width":{},"runtime":40"#, past(8))),
            (r#""width":4,"runtime":60"#, format!(r#""width":{},"runtime":60"#, past(4))),
            (r#"{"id":3,"width":9"#, format!(r#"{{"id":{},"width":9"#, past(3))),
            (r#""width":9,"runtime":10"#, format!(r#""width":{},"runtime":10"#, past(3))),
            (r#""next_id":5"#, format!(r#""next_id":{}"#, past(5))),
            (r#"{"id":4,"batch":2"#, format!(r#"{{"id":{},"batch":2"#, past(4))),
            (r#"{"id":4,"batch":2"#, r#"{"id":8,"batch":2"#.to_string()),
        ];
        for (from, to) in edits {
            let edited = text.replacen(from, &to, 1);
            assert_ne!(edited, text, "{from} is not in the snapshot");
            assert!(restore(&edited).is_err(), "{to} restored");
        }
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
