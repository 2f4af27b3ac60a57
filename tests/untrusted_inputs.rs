//! Never-panic properties over every input the system takes from outside
//! its process: HTTP request bytes, `POST /v1/jobs` bodies, and SWF trace
//! lines — and over what the scheduler then does with any job those
//! parsers accept, up to the end of the `u64` time axis.
//!
//! The overflow regressions below pin the two inputs that used to panic
//! the planner: one 2 100-job POST batch and three SWF records, each
//! pushing a planned window past `u64::MAX`. CI runs this file in release
//! too, where the overflow would wrap silently instead of panicking.

use dynp_rs::obs;
use dynp_rs::prelude::serve::*;
use dynp_rs::prelude::sim::{simulate, FixedPolicy, Metric, Policy, SelfTuning, SimConfig};
use dynp_rs::trace::swf;
use dynp_rs::watch::http::read_request;
use proptest::prelude::*;

/// Largest integer the wire accepts (JSON numbers are read as `f64`).
const WIRE_MAX: u64 = 1 << 53;

/// Picks one of `items` by index.
fn one_of<T: Clone + 'static>(items: &'static [T]) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i].clone())
}

/// Text built from fragments of the grammar under test, mixed with
/// arbitrary characters, so the parser sees near-misses and not only
/// noise.
fn text(fragments: &'static [&'static str], max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..4, 0..fragments.len(), 0u32..0x11_0000), 0..=max_len).prop_map(
        move |pieces| {
            let mut out = String::new();
            for (kind, fragment, code) in pieces {
                match kind {
                    0 => out.push(char::from_u32(code).unwrap_or('\u{fffd}')),
                    _ => out.push_str(fragments[fragment]),
                }
            }
            out
        },
    )
}

const HTTP_FRAGMENTS: &[&str] = &[
    "GET ",
    "POST ",
    "/v1/jobs",
    "/v1/jobs/7/trace",
    "?since=",
    "&",
    "=",
    " HTTP/1.1",
    " HTTP/1.0",
    "\r\n",
    "\n",
    "\r\n\r\n",
    "Host: x",
    "Content-Length: ",
    "content-length:",
    ":",
    "0",
    "5",
    "17",
    "99999999999999999999",
    "-1",
    " ",
    "{\"v\":1}",
];

const JSON_FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "d800",
    "\"v\":1",
    "\"v\"",
    "\"width\"",
    "\"runtime\"",
    "\"actual_runtime\"",
    "\"submit\"",
    "\"jobs\"",
    "1",
    "0",
    "-",
    ".",
    "e",
    "E",
    "+",
    "9007199254740992",
    "9007199254740993",
    "1e400",
    "18446744073709551616",
    "null",
    "true",
    " ",
    "\n",
];

proptest! {
    #[test]
    fn read_request_never_panics(raw in text(HTTP_FRAGMENTS, 64), max_body in 0usize..64) {
        match read_request(&mut raw.as_bytes(), max_body) {
            Ok(request) => prop_assert!(request.body.len() <= max_body),
            Err(e) => prop_assert!(e.status == 400 || e.status == 413, "{e}"),
        }
    }

    #[test]
    fn read_request_never_panics_on_raw_bytes(raw in prop::collection::vec(0u8..=255, 0..512)) {
        if let Err(e) = read_request(&mut raw.as_slice(), 256) {
            prop_assert!(e.status == 400 || e.status == 413, "{e}");
        }
    }

    #[test]
    fn submit_bodies_never_panic_the_parser(body in text(JSON_FRAGMENTS, 48)) {
        check_submit_body(&body)?;
    }

    #[test]
    fn deeply_nested_bodies_never_overflow_the_parser(
        depth in 0usize..100_000,
        opener in one_of(&["[", "{\"jobs\":", "[{\"v\":"]),
        closed in 0u8..2,
    ) {
        let mut body = format!("{{\"v\":1,\"jobs\":{}", opener.repeat(depth));
        if closed == 1 {
            body += &"]".repeat(depth);
        }
        check_submit_body(&body)?;
    }

    #[test]
    fn mutated_valid_bodies_never_panic_the_parser(
        jobs in prop::collection::vec(request(8), 1..4),
        batch in 0u8..2,
        edits in prop::collection::vec((0u8..4, 0usize..512, one_of(JSON_FRAGMENTS)), 1..6),
    ) {
        let mut body: Vec<char> = submit_body(&jobs, batch == 1).chars().collect();
        for (op, at, fragment) in edits {
            let at = at % (body.len() + 1);
            match op {
                0 if at < body.len() => {
                    body.remove(at);
                }
                1 => body.splice(at..at, fragment.chars()).for_each(drop),
                2 if at < body.len() => body[at] = fragment.chars().next().unwrap(),
                _ => body.truncate(at),
            }
        }
        check_submit_body(&body.into_iter().collect::<String>())?;
    }

    #[test]
    fn swf_lines_never_panic_the_reader(
        lines in prop::collection::vec((0u8..3, swf_record(), text(SWF_FRAGMENTS, 24)), 0..10),
    ) {
        let lines: Vec<String> = lines
            .into_iter()
            .map(|(kind, record, free)| match kind {
                0 => record,
                1 => format!(";{free}"),
                _ => free,
            })
            .collect();
        if let Ok(trace) = swf::parse_swf(&lines.join("\n")) {
            check_swf_jobs(&trace)?;
        }
    }

    #[test]
    fn swf_records_never_panic_the_replay(
        records in prop::collection::vec(swf_record(), 1..8),
        procs in 0u32..16,
    ) {
        let text = format!("; MaxProcs: {procs}\n{}", records.join("\n"));
        let trace = swf::parse_swf(&text)
            .map_err(|e| TestCaseError::Fail(format!("{e}: {text}")))?;
        check_swf_jobs(&trace)?;
        for machine in [8, trace.machine_size()] {
            let dynp = SelfTuning::paper_config(Metric::SldwA);
            let tuned = simulate(&trace.jobs, dynp, SimConfig::new(machine));
            prop_assert_eq!(tuned.records.len() + tuned.skipped.len(), trace.jobs.len());
            for policy in Policy::ALL {
                let fixed = simulate(&trace.jobs, FixedPolicy(policy), SimConfig::new(machine));
                prop_assert_eq!(fixed.records.len() + fixed.skipped.len(), trace.jobs.len());
            }
        }
    }

    #[test]
    fn accepted_bodies_never_panic_the_service_core(
        capacity in 1u32..=8,
        batches in prop::collection::vec(
            (prop::collection::vec(request(10), 1..12), 0u8..32),
            1..4,
        ),
    ) {
        let mut core = ServiceCore::new(capacity, SelfTuning::paper_config(Metric::SldwA));
        let mut submitted = 0;
        for (jobs, shape) in batches {
            // One case in 32 piles 2 048 + full-width jobs of 2^53 s onto
            // the machine: their windows run off the end of the time axis.
            let jobs = if shape == 0 {
                vec![job(capacity, WIRE_MAX); 2048 + jobs.len()]
            } else {
                jobs
            };
            let (requests, _) = JobRequest::parse_submit_body(&submit_body(&jobs, true))
                .map_err(|e| TestCaseError::Fail(format!("valid body refused: {e:?}")))?;
            prop_assert_eq!(&requests, &jobs);
            for decision in core.submit_batch(&requests) {
                let request = requests.get(decision.id as usize - submitted);
                if let Some((start, request)) = decision.planned_start.zip(request) {
                    prop_assert!(start.checked_add(request.runtime).is_some(), "{decision:?}");
                }
            }
            submitted += requests.len();
            observe(&core)?;
        }
        core.drain();
        observe(&core)?;
        let stats = core.stats_json();
        let count = |key| stats.get(key).and_then(obs::JsonValue::as_u64).unwrap_or(u64::MAX);
        prop_assert_eq!((count("waiting"), count("running")), (0, 0));
        prop_assert_eq!(count("completed") + count("declined"), submitted as u64);

        // The service keeps deciding after the end of time.
        prop_assert_eq!(core.submit_batch(&[job(1, 1)]).len(), 1);
    }
}

/// A job request with only the required fields.
fn job(width: u32, runtime: u64) -> JobRequest {
    JobRequest {
        width,
        runtime,
        actual_runtime: None,
        submit: None,
    }
}

/// `parse_submit_body` answers every body with requests it can plan or
/// a typed 400.
fn check_submit_body(body: &str) -> Result<(), TestCaseError> {
    match JobRequest::parse_submit_body(body) {
        Ok((requests, _)) => {
            prop_assert!(!requests.is_empty());
            for r in requests {
                prop_assert!(
                    r.width >= 1 && r.runtime >= 1 && r.actual_runtime != Some(0),
                    "{r:?}"
                );
            }
        }
        Err(e) => prop_assert_eq!(e.status, 400, "{:?}", e),
    }
    Ok(())
}

/// A job request the wire accepts: widths up to past the machine,
/// runtimes and submits anywhere up to 2^53.
fn request(max_width: u32) -> impl Strategy<Value = JobRequest> {
    (
        1..=max_width,
        (0u8..3, 1..=WIRE_MAX),
        (0u8..3, 1..=WIRE_MAX),
        (0u8..3, 0..=WIRE_MAX),
    )
        .prop_map(
            |(width, (runtime_kind, runtime), (actual_kind, actual), (submit_kind, submit))| {
                // Half the runtimes short, so queues both drain and pile up.
                let runtime = if runtime_kind == 0 {
                    runtime
                } else {
                    1 + runtime % 600
                };
                JobRequest {
                    width,
                    runtime,
                    actual_runtime: (actual_kind == 0).then_some(actual),
                    submit: match submit_kind {
                        0 => Some(submit),
                        1 => Some(submit % 3600),
                        _ => None,
                    },
                }
            },
        )
}

/// The wire form of `jobs`: a batch object, or one job object.
fn submit_body(jobs: &[JobRequest], batch: bool) -> String {
    let job = |r: &JobRequest| {
        let mut json = format!("\"width\":{},\"runtime\":{}", r.width, r.runtime);
        if let Some(actual) = r.actual_runtime {
            json += &format!(",\"actual_runtime\":{actual}");
        }
        if let Some(submit) = r.submit {
            json += &format!(",\"submit\":{submit}");
        }
        json
    };
    if batch || jobs.len() > 1 {
        let jobs: Vec<String> = jobs.iter().map(|r| format!("{{{}}}", job(r))).collect();
        format!("{{\"v\":1,\"jobs\":[{}]}}", jobs.join(","))
    } else {
        format!("{{\"v\":1,{}}}", job(&jobs[0]))
    }
}

/// Every read-only view the HTTP handlers serve renders strict JSON.
fn observe(core: &ServiceCore) -> Result<(), TestCaseError> {
    let schedule = core.schedule_view().to_json().to_json();
    prop_assert!(obs::validate_json(&schedule).is_ok(), "{schedule}");
    for id in 0..core.submitted() as u32 {
        let view = core.job_view(id).map(|v| v.to_json());
        prop_assert!(
            view.is_some_and(|v| obs::validate_json(&v).is_ok()),
            "job {id}"
        );
        if let Some(trace) = core.trace_json(id) {
            prop_assert!(obs::validate_json(&trace.to_json()).is_ok(), "trace {id}");
        }
    }
    prop_assert!(obs::validate_json(&core.snapshot_json()).is_ok());
    Ok(())
}

const SWF_FRAGMENTS: &[&str] = &[
    " ",
    "\t",
    "1",
    "-1",
    "9223372036854775808",
    ".",
    "e",
    ":",
    ";",
    "MaxNodes",
    "MaxProcs",
];

/// One SWF record: 18 numeric fields over the whole `i64` line and the
/// float spellings the reader rounds. Job number, processor counts and
/// status stay plausible two times in three, so most records reach the
/// replay.
fn swf_record() -> impl Strategy<Value = String> {
    const EXTREMES: &[&str] = &[
        "-1",
        "0",
        "1",
        "8",
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "4294967296",
        "1e300",
        "-1e300",
        "NaN",
        "inf",
        "2.5",
    ];
    prop::collection::vec((0u8..3, 0u64..=u64::MAX, one_of(EXTREMES)), 18).prop_map(|fields| {
        let field = |(i, (kind, bits, extreme)): (usize, &(u8, u64, &str))| match (i, kind) {
            (0, 0 | 1) => (bits % 6).to_string(),
            (4 | 7, 0 | 1) => (1 + bits % 8).to_string(),
            (10, 0 | 1) => "1".to_string(),
            (_, 0) => (*bits as i64).to_string(),
            (_, 1) => (bits % 1000).to_string(),
            _ => extreme.to_string(),
        };
        fields
            .iter()
            .enumerate()
            .map(field)
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// What the reader hands on: valid jobs, each job number once.
fn check_swf_jobs(trace: &swf::SwfTrace) -> Result<(), TestCaseError> {
    let mut ids: Vec<_> = trace.jobs.iter().map(|j| j.id).collect();
    ids.sort_unstable();
    ids.dedup();
    prop_assert_eq!(ids.len(), trace.jobs.len(), "job numbers are unique");
    for job in &trace.jobs {
        prop_assert!(job.validate().is_ok(), "{job:?}");
    }
    Ok(())
}

/// The 2 100-job POST batch of full-width 2^53-second jobs on an 8-wide
/// core: the first 2 047 windows fit the time axis, the rest are declined
/// by name, and the core keeps deciding.
#[test]
fn a_batch_past_the_end_of_time_is_declined_job_by_job() {
    let body = submit_body(&vec![job(8, WIRE_MAX); 2100], true);
    assert!(
        body.len() < 256 * 1024,
        "{} bytes fit the body cap",
        body.len()
    );
    let (requests, _) = JobRequest::parse_submit_body(&body).unwrap();
    let mut core = ServiceCore::new(8, SelfTuning::paper_config(Metric::SldwA));
    let decisions = core.submit_batch(&requests);
    let declined: Vec<&Decision> = decisions.iter().filter(|d| d.declined.is_some()).collect();
    assert_eq!(decisions.len() - declined.len(), 2047);
    assert_eq!(declined.len(), 53);
    let reason = declined[0].declined.as_ref().unwrap().reason();
    assert!(reason.contains("past the time axis"), "{reason}");
    assert!(
        reason.starts_with(&format!("job {} ", declined[0].id)),
        "{reason}"
    );
    core.drain();
    let next = core.submit_batch(&requests[..1]);
    assert!(
        next[0].declined.is_some(),
        "{:?}: the clock is at the end of time",
        next[0]
    );
}

/// Three SWF records of 8 processors and `i64::MAX` seconds each on an
/// 8-node machine: two run back to back, the third cannot end on the
/// time axis and is skipped — under dynP and under every fixed policy.
#[test]
fn swf_records_past_the_end_of_time_are_skipped() {
    let max = i64::MAX as u64;
    let line = |id: u32| format!("{id} 0 0 {max} 8 -1 -1 8 {max} -1 1 -1 -1 -1 -1 -1 -1 -1");
    let trace = swf::parse_swf(&[line(1), line(2), line(3)].join("\n")).unwrap();
    assert_eq!(trace.jobs.len(), 3);
    let tuned = simulate(
        &trace.jobs,
        SelfTuning::paper_config(Metric::SldwA),
        SimConfig::new(8),
    );
    assert_eq!((tuned.records.len(), tuned.skipped.len()), (2, 1));
    assert_eq!(tuned.summary.makespan_end, 2 * max);
    for policy in Policy::ALL {
        let run = simulate(&trace.jobs, FixedPolicy(policy), SimConfig::new(8));
        assert_eq!((run.records.len(), run.skipped.len()), (2, 1), "{policy}");
    }
}
