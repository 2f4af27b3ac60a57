//! Reader/writer for the Standard Workload Format (SWF) of the Parallel
//! Workloads Archive.
//!
//! The paper's evaluation replays the **CTC trace** ("we used the CTC job
//! trace from Dror Feitelson's Parallel Workloads Archive"). That archive
//! distributes traces in SWF: one line per job with 18 whitespace-separated
//! fields, `;`-prefixed header comments carrying machine metadata such as
//! `MaxNodes`. This module parses exactly that format so the original trace —
//! or any other archive trace — can be dropped into the simulator, and writes
//! it back out so synthetic workloads can be inspected with standard tooling.
//!
//! Field layout (see the archive's documentation):
//! ```text
//!  0 job number          6 used memory        12 executable id
//!  1 submit time         7 requested procs    13 queue id
//!  2 wait time           8 requested time     14 partition id
//!  3 run time            9 requested memory   15 preceding job
//!  4 allocated procs    10 status             16 think time
//!  5 avg cpu time       11 user id            17 (end)
//! ```
//! `-1` denotes "unknown" throughout.

use crate::job::{Job, JobId};
use std::fmt;
use std::io::{BufRead, Write};

/// One raw SWF record, all 18 fields, `-1` = unknown.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwfJob {
    pub job_number: i64,
    pub submit_time: i64,
    pub wait_time: i64,
    pub run_time: i64,
    pub allocated_procs: i64,
    pub avg_cpu_time: f64,
    pub used_memory: i64,
    pub requested_procs: i64,
    pub requested_time: i64,
    pub requested_memory: i64,
    pub status: i64,
    pub user_id: i64,
    pub group_id: i64,
    pub executable: i64,
    pub queue: i64,
    pub partition: i64,
    pub preceding_job: i64,
    pub think_time: i64,
}

impl SwfJob {
    /// Converts the raw record into the workspace [`Job`] model, applying the
    /// archive conventions: requested processors fall back to allocated
    /// processors, the runtime estimate falls back to the actual runtime,
    /// and records that are unusable for scheduling (zero width, zero
    /// runtime, cancelled before start) are rejected with a reason, as are
    /// a job number, processor count or user id that do not fit a `u32` —
    /// truncated, a job number would alias another job's id and a
    /// processor count would shrink the job.
    pub fn to_job(&self) -> Result<Job, String> {
        let in_range = |value: i64, field: &str| {
            u32::try_from(value)
                .map_err(|_| format!("job {}: {field} {value} out of range", self.job_number))
        };
        let id = in_range(self.job_number, "job number")?;
        // SWF status: 1 = completed, 0 = failed, 5 = cancelled (before
        // start). Failed and cancelled records carry `-1` sentinels in
        // their time fields; letting them through would smuggle clamped
        // one-second durations into the workload and pollute every
        // duration-weighted metric (SLDwA weighs by job area).
        match self.status {
            0 => return Err(format!("job {}: failed (status 0)", self.job_number)),
            5 => return Err(format!("job {}: cancelled (status 5)", self.job_number)),
            _ => {}
        }
        let width = if self.requested_procs > 0 {
            self.requested_procs
        } else {
            self.allocated_procs
        };
        if width <= 0 {
            return Err(format!("job {}: no processor count", self.job_number));
        }
        let width = in_range(width, "processor count")?;
        // Unknown (-1) and zero user ids map to user 0.
        let user = in_range(self.user_id.max(0), "user id")?;
        let actual = self.run_time;
        if actual <= 0 {
            return Err(format!("job {}: no positive runtime", self.job_number));
        }
        // Planning-based RMSs require an estimate; fall back to the actual
        // runtime when the trace has none (the archive marks it -1). A
        // zero/negative estimate with a positive runtime is a sentinel
        // leak, not a one-second job — reject instead of clamping.
        let estimated = if self.requested_time > 0 {
            self.requested_time
        } else {
            actual
        };
        if estimated <= 0 {
            return Err(format!("job {}: no positive time estimate", self.job_number));
        }
        if self.submit_time < 0 {
            return Err(format!("job {}: negative submit time", self.job_number));
        }
        let job = Job {
            id: JobId(id),
            submit: self.submit_time as u64,
            width,
            // Jobs may exceed their estimate in archive traces; the planner
            // and the simulator cap the runtime at the estimate (CCS
            // semantics), so keep both raw values here.
            estimated_duration: estimated as u64,
            actual_duration: actual as u64,
            user,
        };
        job.validate()?;
        Ok(job)
    }

    /// Builds a raw record from a [`Job`], with unknown fields set to `-1`.
    pub fn from_job(job: &Job) -> SwfJob {
        SwfJob {
            job_number: job.id.0 as i64,
            submit_time: job.submit as i64,
            wait_time: -1,
            run_time: job.actual_duration as i64,
            allocated_procs: job.width as i64,
            avg_cpu_time: -1.0,
            used_memory: -1,
            requested_procs: job.width as i64,
            requested_time: job.estimated_duration as i64,
            requested_memory: -1,
            status: 1,
            user_id: if job.user == 0 { -1 } else { job.user as i64 },
            group_id: -1,
            executable: -1,
            queue: -1,
            partition: -1,
            preceding_job: -1,
            think_time: -1,
        }
    }
}

/// A parsed SWF trace: machine metadata from header comments plus all
/// usable jobs in submit order.
#[derive(Clone, Debug, Default)]
pub struct SwfTrace {
    /// `MaxNodes` from the header, if present (430 for CTC).
    pub max_nodes: Option<u32>,
    /// `MaxProcs` from the header, if present.
    pub max_procs: Option<u32>,
    /// Usable jobs, in file order.
    pub jobs: Vec<Job>,
    /// Records skipped during conversion, with reasons (for diagnostics).
    pub skipped: Vec<String>,
}

impl SwfTrace {
    /// Number of resources the trace's machine exposes: `MaxProcs` if known,
    /// else `MaxNodes`, else the widest job.
    pub fn machine_size(&self) -> u32 {
        self.max_procs
            .or(self.max_nodes)
            .unwrap_or_else(|| self.jobs.iter().map(|j| j.width).max().unwrap_or(1))
    }
}

/// Errors produced by the SWF reader.
#[derive(Debug)]
pub enum SwfError {
    /// I/O failure while reading.
    Io(std::io::Error),
    /// A data line that could not be tokenized into 18 numeric fields.
    Malformed { line_number: usize, reason: String },
}

impl fmt::Display for SwfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwfError::Io(e) => write!(f, "I/O error reading SWF: {e}"),
            SwfError::Malformed {
                line_number,
                reason,
            } => {
                write!(f, "malformed SWF line {line_number}: {reason}")
            }
        }
    }
}

impl std::error::Error for SwfError {}

impl From<std::io::Error> for SwfError {
    fn from(e: std::io::Error) -> Self {
        SwfError::Io(e)
    }
}

fn parse_i64(tok: &str, line_number: usize, field: &str) -> Result<i64, SwfError> {
    // Some archive traces write integral fields with a decimal point.
    if let Ok(v) = tok.parse::<i64>() {
        return Ok(v);
    }
    if let Ok(v) = tok.parse::<f64>() {
        return Ok(v.round() as i64);
    }
    Err(SwfError::Malformed {
        line_number,
        reason: format!("field {field}: cannot parse {tok:?} as a number"),
    })
}

/// Parses an SWF document from any buffered reader.
///
/// Header comments (`; Key: Value`) are scanned for `MaxNodes` / `MaxProcs`.
/// Data lines with fewer than 18 fields are an error; records that parse but
/// are unusable for scheduling (no width, no runtime, a job number seen
/// before) are collected in [`SwfTrace::skipped`] rather than aborting the
/// whole read, mirroring how simulation studies clean archive traces.
pub fn read_swf<R: BufRead>(reader: R) -> Result<SwfTrace, SwfError> {
    let mut trace = SwfTrace::default();
    // The RMS keys its queue, running set and completions by job id.
    let mut ids = std::collections::HashSet::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_number = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix(';') {
            if let Some((key, value)) = comment.split_once(':') {
                let key = key.trim();
                let value = value.trim();
                match key {
                    "MaxNodes" => trace.max_nodes = value.parse().ok(),
                    "MaxProcs" => trace.max_procs = value.parse().ok(),
                    _ => {}
                }
            }
            continue;
        }
        let toks: Vec<&str> = trimmed.split_whitespace().collect();
        if toks.len() < 18 {
            return Err(SwfError::Malformed {
                line_number,
                reason: format!("expected 18 fields, found {}", toks.len()),
            });
        }
        let avg_cpu_time = toks[5].parse::<f64>().unwrap_or(-1.0);
        let record = SwfJob {
            job_number: parse_i64(toks[0], line_number, "job_number")?,
            submit_time: parse_i64(toks[1], line_number, "submit_time")?,
            wait_time: parse_i64(toks[2], line_number, "wait_time")?,
            run_time: parse_i64(toks[3], line_number, "run_time")?,
            allocated_procs: parse_i64(toks[4], line_number, "allocated_procs")?,
            avg_cpu_time,
            used_memory: parse_i64(toks[6], line_number, "used_memory")?,
            requested_procs: parse_i64(toks[7], line_number, "requested_procs")?,
            requested_time: parse_i64(toks[8], line_number, "requested_time")?,
            requested_memory: parse_i64(toks[9], line_number, "requested_memory")?,
            status: parse_i64(toks[10], line_number, "status")?,
            user_id: parse_i64(toks[11], line_number, "user_id")?,
            group_id: parse_i64(toks[12], line_number, "group_id")?,
            executable: parse_i64(toks[13], line_number, "executable")?,
            queue: parse_i64(toks[14], line_number, "queue")?,
            partition: parse_i64(toks[15], line_number, "partition")?,
            preceding_job: parse_i64(toks[16], line_number, "preceding_job")?,
            think_time: parse_i64(toks[17], line_number, "think_time")?,
        };
        match record.to_job() {
            Ok(job) if !ids.insert(job.id) => trace
                .skipped
                .push(format!("job {}: duplicate job number", job.id)),
            Ok(job) => trace.jobs.push(job),
            Err(reason) => trace.skipped.push(reason),
        }
    }
    Ok(trace)
}

/// Parses an SWF document from an in-memory string.
pub fn parse_swf(text: &str) -> Result<SwfTrace, SwfError> {
    read_swf(std::io::BufReader::new(text.as_bytes()))
}

/// Serializes jobs as an SWF document, including a minimal header.
pub fn write_swf<W: Write>(mut w: W, jobs: &[Job], machine_size: u32) -> std::io::Result<()> {
    writeln!(w, "; Generated by dynp-rs")?;
    writeln!(w, "; MaxNodes: {machine_size}")?;
    writeln!(w, "; MaxProcs: {machine_size}")?;
    for job in jobs {
        let r = SwfJob::from_job(job);
        writeln!(
            w,
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            r.job_number,
            r.submit_time,
            r.wait_time,
            r.run_time,
            r.allocated_procs,
            r.avg_cpu_time,
            r.used_memory,
            r.requested_procs,
            r.requested_time,
            r.requested_memory,
            r.status,
            r.user_id,
            r.group_id,
            r.executable,
            r.queue,
            r.partition,
            r.preceding_job,
            r.think_time,
        )?;
    }
    Ok(())
}

/// Serializes jobs as an SWF document into a `String`.
pub fn swf_to_string(jobs: &[Job], machine_size: u32) -> String {
    let mut buf = Vec::new();
    write_swf(&mut buf, jobs, machine_size).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("SWF output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Version: 2
; MaxNodes: 430
; MaxProcs: 430
1 0 5 100 4 -1 -1 4 200 -1 1 7 1 -1 -1 -1 -1 -1
2 60 0 50 1 -1 -1 1 60 -1 1 8 1 -1 -1 -1 -1 -1
3 60 0 -1 2 -1 -1 2 60 -1 0 8 1 -1 -1 -1 -1 -1
";

    #[test]
    fn parses_header_metadata() {
        let t = parse_swf(SAMPLE).unwrap();
        assert_eq!(t.max_nodes, Some(430));
        assert_eq!(t.max_procs, Some(430));
        assert_eq!(t.machine_size(), 430);
    }

    #[test]
    fn parses_jobs_and_skips_unusable() {
        let t = parse_swf(SAMPLE).unwrap();
        assert_eq!(t.jobs.len(), 2);
        assert_eq!(t.skipped.len(), 1); // job 3 has run_time -1
        let j = &t.jobs[0];
        assert_eq!(j.id, JobId(1));
        assert_eq!(j.submit, 0);
        assert_eq!(j.width, 4);
        assert_eq!(j.estimated_duration, 200);
        assert_eq!(j.actual_duration, 100);
        assert_eq!(j.user, 7);
    }

    #[test]
    fn estimate_falls_back_to_runtime() {
        let line = "5 10 0 300 2 -1 -1 2 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert_eq!(t.jobs[0].estimated_duration, 300);
    }

    #[test]
    fn width_falls_back_to_allocated() {
        let line = "5 10 0 300 8 -1 -1 -1 400 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert_eq!(t.jobs[0].width, 8);
    }

    #[test]
    fn short_line_is_an_error() {
        let err = parse_swf("1 2 3\n").unwrap_err();
        match err {
            SwfError::Malformed { line_number, .. } => assert_eq!(line_number, 1),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn accepts_decimal_points_in_integral_fields() {
        let line = "5 10.0 0 300.5 2 1.5 -1 2 400 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert_eq!(t.jobs[0].submit, 10);
        // 300.5 rounds to 301 seconds of runtime.
        assert_eq!(t.jobs[0].actual_duration, 301);
    }

    #[test]
    fn failed_job_with_positive_runtime_is_rejected() {
        // Regression: a status-0 (failed) record with a real runtime used
        // to pass conversion and enter the workload. Field 10 = status.
        let line = "7 10 0 300 4 -1 -1 4 400 -1 0 -1 -1 -1 -1 -1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert!(t.jobs.is_empty());
        assert_eq!(t.skipped.len(), 1);
        assert!(t.skipped[0].contains("failed"), "{}", t.skipped[0]);
    }

    #[test]
    fn cancelled_job_is_rejected() {
        // Status 5 = cancelled before start; such records typically carry
        // -1 in run_time, but even a positive one must not be scheduled.
        let line = "8 10 0 300 4 -1 -1 4 400 -1 5 -1 -1 -1 -1 -1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert!(t.jobs.is_empty());
        assert!(t.skipped[0].contains("cancelled"), "{}", t.skipped[0]);
    }

    #[test]
    fn run_time_sentinel_is_rejected() {
        // run_time -1 (field 3) on an otherwise completed record.
        let line = "9 10 0 -1 4 -1 -1 4 400 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert!(t.jobs.is_empty());
        assert!(t.skipped[0].contains("runtime"), "{}", t.skipped[0]);
    }

    #[test]
    fn both_time_sentinels_are_rejected_not_clamped() {
        // Both run_time and requested_time -1: before this was checked,
        // the estimate was silently clamped to 1 second. Nothing about
        // this record is schedulable.
        let line = "10 10 0 -1 4 -1 -1 4 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert!(t.jobs.is_empty());
        assert_eq!(t.skipped.len(), 1);
    }

    #[test]
    fn width_sentinels_in_both_proc_fields_are_rejected() {
        // requested_procs and allocated_procs both -1 (fields 7 and 4).
        let line = "11 10 0 300 -1 -1 -1 -1 400 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert!(t.jobs.is_empty());
        assert!(t.skipped[0].contains("processor"), "{}", t.skipped[0]);
    }

    #[test]
    fn submit_time_sentinel_is_rejected() {
        let line = "12 -1 0 300 4 -1 -1 4 400 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert!(t.jobs.is_empty());
        assert!(t.skipped[0].contains("submit"), "{}", t.skipped[0]);
    }

    #[test]
    fn out_of_range_fields_are_rejected_not_truncated() {
        // Regression: `as u32` made 4 294 967 300 processors a 4-wide job,
        // and job numbers 2^32 + 1 and -3 alias the ids 1 and 4 294 967 293
        // the RMS keys its running set, records and completions by.
        let text = "\
1 10 0 300 4 -1 -1 4294967300 400 -1 1 -1 -1 -1 -1 -1 -1 -1
4294967297 10 0 300 4 -1 -1 4 400 -1 1 -1 -1 -1 -1 -1 -1 -1
-3 10 0 300 4 -1 -1 4 400 -1 1 -1 -1 -1 -1 -1 -1 -1
2 10 0 300 4 -1 -1 4 400 -1 1 4294967296 -1 -1 -1 -1 -1 -1
3 10 0 300 4 -1 -1 4 400 -1 1 4294967295 -1 -1 -1 -1 -1 -1
";
        let t = parse_swf(text).unwrap();
        assert_eq!(
            t.skipped,
            [
                "job 1: processor count 4294967300 out of range",
                "job 4294967297: job number 4294967297 out of range",
                "job -3: job number -3 out of range",
                "job 2: user id 4294967296 out of range",
            ]
        );
        // The largest user id that fits is kept as it is.
        assert_eq!(t.jobs.len(), 1);
        assert_eq!((t.jobs[0].id, t.jobs[0].user), (JobId(3), u32::MAX));
    }

    #[test]
    fn unknown_status_with_usable_times_is_kept() {
        // Status -1 (unknown) records with real time fields are usable —
        // only explicit failure/cancellation is disqualifying.
        let line = "13 10 0 300 4 -1 -1 4 400 -1 -1 -1 -1 -1 -1 -1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert_eq!(t.jobs.len(), 1);
        assert!(t.skipped.is_empty());
    }

    #[test]
    fn roundtrip_preserves_scheduling_fields() {
        let jobs = vec![Job::new(1, 0, 4, 200, 100), Job::new(2, 60, 1, 60, 50)];
        let text = swf_to_string(&jobs, 430);
        let back = parse_swf(&text).unwrap();
        assert_eq!(back.machine_size(), 430);
        assert_eq!(back.jobs, jobs);
    }

    #[test]
    fn machine_size_falls_back_to_widest_job() {
        let line = "5 10 0 300 8 -1 -1 16 400 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let t = parse_swf(line).unwrap();
        assert_eq!(t.machine_size(), 16);
    }

    #[test]
    fn empty_input_gives_empty_trace() {
        let t = parse_swf("").unwrap();
        assert!(t.jobs.is_empty());
        assert_eq!(t.machine_size(), 1);
    }
}
