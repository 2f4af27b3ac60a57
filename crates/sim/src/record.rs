//! Per-job completion records and end-of-run aggregate statistics.
//!
//! Planning happens on *estimated* durations, but a simulation run reveals
//! the *actual* runtimes, so the end-of-run metrics here are computed on
//! what really happened — the numbers a machine owner would report.

use dynp_platform::RunningJob;
use dynp_trace::JobId;

/// Everything known about one completed job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// Which job.
    pub id: JobId,
    /// Submission time.
    pub submit: u64,
    /// Dispatch (start) time.
    pub start: u64,
    /// Completion time.
    pub end: u64,
    /// Resources occupied.
    pub width: u32,
    /// The runtime estimate the planner saw.
    pub estimated_duration: u64,
}

impl JobRecord {
    /// The record of `running`, released from the machine at `end`.
    pub fn completed(running: RunningJob, end: u64) -> JobRecord {
        let RunningJob { job, start } = running;
        JobRecord {
            id: job.id,
            submit: job.submit,
            start,
            end,
            width: job.width,
            estimated_duration: job.estimated_duration,
        }
    }

    /// Waiting time: start minus submit.
    pub fn wait(&self) -> u64 {
        self.start - self.submit
    }

    /// Response time: end minus submit.
    pub fn response(&self) -> u64 {
        self.end - self.submit
    }

    /// Actual runtime.
    pub fn runtime(&self) -> u64 {
        self.end - self.start
    }

    /// Slowdown = response / runtime (runtime floored at 1 s).
    pub fn slowdown(&self) -> f64 {
        self.response() as f64 / self.runtime().max(1) as f64
    }

    /// Bounded slowdown with threshold `tau` seconds: short jobs do not
    /// blow the metric up (Feitelson's bounded slowdown).
    pub fn bounded_slowdown(&self, tau: u64) -> f64 {
        let denom = self.runtime().max(tau).max(1) as f64;
        ((self.wait() + self.runtime()) as f64 / denom).max(1.0)
    }

    /// Actual area: width times actual runtime, saturating at `u64::MAX`.
    pub fn area(&self) -> u64 {
        (self.width as u64).saturating_mul(self.runtime())
    }

    /// The wire shape, in wire order: the stored fields, then the derived
    /// wait and response (so consumers need no arithmetic).
    /// [`JobRecord::to_json`] and [`JobRecord::write_json`] write all
    /// eight; [`JobRecord::from_json`] reads the first six and recomputes
    /// the derived two.
    const FIELDS: [&str; 8] = [
        "id",
        "submit",
        "start",
        "end",
        "width",
        "estimated_duration",
        "wait",
        "response",
    ];

    /// The values of [`JobRecord::FIELDS`], in the same order.
    fn field_values(&self) -> [u64; 8] {
        [
            self.id.0.into(),
            self.submit,
            self.start,
            self.end,
            self.width.into(),
            self.estimated_duration,
            self.wait(),
            self.response(),
        ]
    }

    /// The record as a strict-JSON object. Shared by the serve API's
    /// completed-job view and ad-hoc result dumps.
    pub fn to_json(&self) -> dynp_obs::JsonValue {
        let members = Self::FIELDS.iter().zip(self.field_values());
        dynp_obs::JsonValue::Object(members.map(|(k, v)| (k.to_string(), v.into())).collect())
    }

    /// Appends the bytes `self.to_json().to_json()` renders, without
    /// building the object (how the serve snapshot writes its records).
    pub fn write_json(&self, out: &mut String) {
        let mut object = dynp_obs::json::ObjectWriter::open(out);
        object.uints(&Self::FIELDS, &self.field_values());
        object.close();
    }

    /// Parses what [`JobRecord::to_json`] rendered (the derived fields are
    /// recomputed, not read).
    pub fn from_json(v: &dynp_obs::JsonValue) -> Result<JobRecord, RecordFieldError> {
        let u = |field: &'static str| {
            v.get(field)
                .and_then(dynp_obs::JsonValue::as_u64)
                .ok_or(RecordFieldError(field))
        };
        let narrow = |field: &'static str| {
            u(field).and_then(|x| u32::try_from(x).map_err(|_| RecordFieldError(field)))
        };
        let [id, submit, start, end, width, estimated_duration, ..] = Self::FIELDS;
        Ok(JobRecord {
            id: JobId(narrow(id)?),
            submit: u(submit)?,
            start: u(start)?,
            end: u(end)?,
            width: narrow(width)?,
            estimated_duration: u(estimated_duration)?,
        })
    }
}

/// A [`JobRecord`] JSON object lacks the named field, or holds something
/// other than an in-range unsigned integer there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordFieldError(pub &'static str);

impl std::fmt::Display for RecordFieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job record field {:?} missing or not an integer", self.0)
    }
}

impl std::error::Error for RecordFieldError {}

/// Aggregate statistics over all completed jobs of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSummary {
    /// Number of completed jobs.
    pub jobs: usize,
    /// Completion time of the last job.
    pub makespan_end: u64,
    /// Average response time in seconds.
    pub avg_response: f64,
    /// Average response time weighted by width (ARTwW on actual times).
    pub artww: f64,
    /// Average waiting time in seconds.
    pub avg_wait: f64,
    /// Average slowdown.
    pub avg_slowdown: f64,
    /// Average slowdown weighted by actual job area (SLDwA on actual
    /// times) — the paper's Table 1 yardstick.
    pub sldwa: f64,
    /// Average bounded slowdown (tau = 10 s).
    pub avg_bounded_slowdown: f64,
    /// Machine utilization: total actual work over capacity x (last end −
    /// first submit).
    pub utilization: f64,
}

impl SimSummary {
    /// The all-zero summary of an empty record set.
    pub fn empty() -> SimSummary {
        SimSummary {
            jobs: 0,
            makespan_end: 0,
            avg_response: 0.0,
            artww: 0.0,
            avg_wait: 0.0,
            avg_slowdown: 0.0,
            sldwa: 0.0,
            avg_bounded_slowdown: 0.0,
            utilization: 0.0,
        }
    }

    /// Computes the summary for `records` on a machine of `capacity`.
    /// Returns [`SimSummary::empty`] for an empty record set — callers
    /// that must treat an empty run as a failure (the campaign runner
    /// does) check emptiness *before* simulating, so this path stays
    /// panic-free.
    pub fn compute(records: &[JobRecord], capacity: u32) -> SimSummary {
        // Structurally unwrap-free: the span is derived in one pass and
        // its absence (no records) yields the zero summary.
        let Some((first_submit, last_end)) = records.iter().fold(None, |acc, r| match acc {
            None => Some((r.submit, r.end)),
            Some((lo, hi)) => Some((lo.min(r.submit), hi.max(r.end))),
        }) else {
            return SimSummary::empty();
        };
        let n = records.len() as f64;
        let mut resp_sum = 0.0;
        let mut artww_num = 0.0;
        let mut artww_den = 0.0;
        let mut wait_sum = 0.0;
        let mut sld_sum = 0.0;
        let mut sldwa_num = 0.0;
        let mut sldwa_den = 0.0;
        let mut bsld_sum = 0.0;
        let mut work = 0.0;
        for r in records {
            resp_sum += r.response() as f64;
            artww_num += r.response() as f64 * r.width as f64;
            artww_den += r.width as f64;
            wait_sum += r.wait() as f64;
            sld_sum += r.slowdown();
            let area = r.area() as f64;
            sldwa_num += r.slowdown() * area;
            sldwa_den += area;
            bsld_sum += r.bounded_slowdown(10);
            work += area;
        }
        let span = (last_end - first_submit).max(1) as f64;
        SimSummary {
            jobs: records.len(),
            makespan_end: last_end,
            avg_response: resp_sum / n,
            artww: artww_num / artww_den,
            avg_wait: wait_sum / n,
            avg_slowdown: sld_sum / n,
            sldwa: if sldwa_den > 0.0 {
                sldwa_num / sldwa_den
            } else {
                0.0
            },
            avg_bounded_slowdown: bsld_sum / n,
            utilization: work / (span * capacity.max(1) as f64),
        }
    }
}

impl std::fmt::Display for SimSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "jobs:          {}", self.jobs)?;
        writeln!(f, "avg response:  {:.1} s", self.avg_response)?;
        writeln!(f, "ARTwW:         {:.1} s", self.artww)?;
        writeln!(f, "avg wait:      {:.1} s", self.avg_wait)?;
        writeln!(f, "avg slowdown:  {:.2}", self.avg_slowdown)?;
        writeln!(f, "SLDwA:         {:.2}", self.sldwa)?;
        writeln!(f, "bounded sld:   {:.2}", self.avg_bounded_slowdown)?;
        write!(f, "utilization:   {:.1}%", self.utilization * 100.0)
    }
}

/// Machine utilization over time as a step function: fraction of
/// `capacity` busy between consecutive job start/end events. Useful for
/// plotting load timelines of a finished run.
pub fn utilization_timeline(records: &[JobRecord], capacity: u32) -> Vec<(u64, f64)> {
    if records.is_empty() || capacity == 0 {
        return Vec::new();
    }
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(records.len() * 2);
    for r in records {
        events.push((r.start, r.width as i64));
        events.push((r.end, -(r.width as i64)));
    }
    events.sort_unstable();
    let mut timeline = Vec::new();
    let mut busy = 0i64;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            busy += events[i].1;
            i += 1;
        }
        timeline.push((t, busy as f64 / capacity as f64));
    }
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, submit: u64, start: u64, end: u64, width: u32) -> JobRecord {
        JobRecord {
            id: JobId(id),
            submit,
            start,
            end,
            width,
            estimated_duration: end - start,
        }
    }

    #[test]
    fn record_derived_quantities() {
        let r = rec(1, 100, 150, 250, 4);
        assert_eq!(r.wait(), 50);
        assert_eq!(r.response(), 150);
        assert_eq!(r.runtime(), 100);
        assert!((r.slowdown() - 1.5).abs() < 1e-12);
        assert_eq!(r.area(), 400);
    }

    #[test]
    fn record_json_round_trips_and_names_the_bad_field() {
        let r = rec(7, 100, 150, 250, 4);
        let parsed = dynp_obs::parse_json(&r.to_json().to_json()).unwrap();
        assert_eq!(JobRecord::from_json(&parsed), Ok(r));
        let mut missing = r.to_json();
        missing.set("end", "soon");
        assert_eq!(JobRecord::from_json(&missing), Err(RecordFieldError("end")));
        let mut wide = r.to_json();
        wide.set("width", u64::MAX);
        assert_eq!(JobRecord::from_json(&wide), Err(RecordFieldError("width")));
        assert!(JobRecord::from_json(&dynp_obs::JsonValue::object()).is_err());
    }

    #[test]
    fn record_to_json_is_strict_and_complete() {
        let r = rec(1, 100, 150, 250, 4);
        let json = r.to_json().to_json();
        dynp_obs::validate_json(&json).unwrap();
        let mut text = String::new();
        r.write_json(&mut text);
        assert_eq!(text, json, "the text writer and the tree render alike");
        let v = dynp_obs::parse_json(&json).unwrap();
        assert_eq!(v.get("id").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("wait").and_then(|x| x.as_u64()), Some(50));
        assert_eq!(v.get("response").and_then(|x| x.as_u64()), Some(150));
    }

    #[test]
    fn bounded_slowdown_floors_short_jobs() {
        // 1-second job waiting 100 s: raw slowdown 101, bounded (tau=10)
        // uses max(runtime, 10) in the denominator.
        let r = rec(1, 0, 100, 101, 1);
        assert!(r.slowdown() > 100.0);
        assert!((r.bounded_slowdown(10) - 10.1).abs() < 1e-9);
        // Bounded slowdown never drops below 1.
        let idle = rec(2, 0, 0, 5, 1);
        assert_eq!(idle.bounded_slowdown(10), 1.0);
    }

    #[test]
    fn summary_single_job() {
        let s = SimSummary::compute(&[rec(1, 0, 50, 150, 2)], 4);
        assert_eq!(s.jobs, 1);
        assert_eq!(s.avg_response, 150.0);
        assert_eq!(s.artww, 150.0);
        assert_eq!(s.avg_wait, 50.0);
        assert!((s.avg_slowdown - 1.5).abs() < 1e-12);
        // work = 2*100 = 200; span = 150; capacity 4 -> 200/600.
        assert!((s.utilization - 200.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn artww_weights_wide_jobs_heavier() {
        let records = vec![rec(1, 0, 0, 100, 1), rec(2, 0, 100, 300, 3)];
        let s = SimSummary::compute(&records, 4);
        // responses: 100 (w1), 300 (w3) -> ARTwW = (100 + 900)/4 = 250.
        assert_eq!(s.artww, 250.0);
        assert_eq!(s.avg_response, 200.0);
    }

    #[test]
    fn sldwa_weights_by_actual_area() {
        let records = vec![rec(1, 0, 0, 100, 2), rec(2, 0, 100, 400, 2)];
        let s = SimSummary::compute(&records, 4);
        // job1: sld 1, area 200. job2: response 400, runtime 300 -> sld
        // 4/3, area 600.
        let expect = (1.0 * 200.0 + (4.0 / 3.0) * 600.0) / 800.0;
        assert!((s.sldwa - expect).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = SimSummary::compute(&[], 16);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.utilization, 0.0);
    }

    #[test]
    fn utilization_timeline_steps_through_events() {
        let records = vec![rec(1, 0, 0, 100, 2), rec(2, 0, 50, 150, 2)];
        let tl = utilization_timeline(&records, 4);
        assert_eq!(tl, vec![(0, 0.5), (50, 1.0), (100, 0.5), (150, 0.0),]);
    }

    #[test]
    fn utilization_timeline_empty_and_zero_capacity() {
        assert!(utilization_timeline(&[], 4).is_empty());
        assert!(utilization_timeline(&[rec(1, 0, 0, 10, 1)], 0).is_empty());
    }

    #[test]
    fn display_is_humane() {
        let s = SimSummary::compute(&[rec(1, 0, 0, 100, 1)], 4);
        let text = format!("{s}");
        assert!(text.contains("jobs:"));
        assert!(text.contains("utilization:"));
    }
}
