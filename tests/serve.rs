//! End-to-end tests of the online scheduling service over real sockets:
//! a submission burst coalescing into batched decisions, the graceful
//! drain, admission control (429), the connection cap (503), wire
//! versioning, and the tentpole guarantee — two servers fed the same
//! submission sequence answer with **byte-identical** decision bodies.

use dynp_rs::prelude::serve::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One raw HTTP exchange; returns (status, body).
fn http(addr: SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting to the serve port");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// The deterministic burst workload: widths and runtimes cycle, logical
/// submit times ascend.
fn burst(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "{{\"v\":1,\"width\":{},\"runtime\":{},\"submit\":{}}}",
                1 + i % 4,
                30 + (i % 7) * 20,
                i * 2
            )
        })
        .collect()
}

#[test]
fn burst_coalesces_into_batches_and_drains() {
    let mut config = ServeConfig::new(8);
    // A generous tick so concurrent submissions land in few batches.
    config.tick = Duration::from_millis(50);
    let server = ServeServer::start("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // 40 concurrent submissions from 8 client threads.
    let bodies = burst(40);
    let decisions: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = bodies
            .chunks(5)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|body| {
                            let (status, reply) = post(addr, "/v1/jobs", body);
                            assert_eq!(status, 200, "{reply}");
                            reply
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });

    // Every decision is a valid v1 body; at least one batch coalesced
    // more than one submission (40 concurrent posts, 50 ms window).
    let mut max_batch_size = 0;
    for body in &decisions {
        dynp_rs::obs::validate_json(body).unwrap();
        let v = dynp_rs::obs::parse_json(body).unwrap();
        assert_eq!(v.get("v").and_then(|x| x.as_u64()), Some(1));
        let size = v.get("batch_size").and_then(|x| x.as_u64()).unwrap();
        max_batch_size = max_batch_size.max(size);
    }
    assert!(
        max_batch_size > 1,
        "no coalescing observed across 40 concurrent submissions"
    );

    // The schedule view accounts for all 40 jobs.
    let (status, body) = get(addr, "/v1/schedule");
    assert_eq!(status, 200);
    let view = dynp_rs::obs::parse_json(&body).unwrap();
    let accounted = ["waiting", "running", "completed", "declined"]
        .iter()
        .map(|k| view.get(k).and_then(|x| x.as_u64()).unwrap())
        .sum::<u64>();
    assert_eq!(accounted, 40, "{body}");

    // Graceful drain: shutdown answers 202, then completes everything.
    let (status, body) = post(addr, "/v1/shutdown", "");
    assert_eq!(status, 202, "{body}");
    let stats = server.shutdown();
    assert_eq!(stats.get("completed").and_then(|x| x.as_u64()), Some(40));
    assert_eq!(stats.get("waiting").and_then(|x| x.as_u64()), Some(0));
    assert_eq!(stats.get("running").and_then(|x| x.as_u64()), Some(0));
}

#[test]
fn identical_submission_sequences_yield_identical_decision_bytes() {
    // Two fresh servers, the same ordered submission sequence (serial
    // posts so batching is identical), byte-identical decision bodies.
    let run = || -> Vec<String> {
        let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(8)).unwrap();
        let addr = server.local_addr();
        let decisions = burst(25)
            .iter()
            .map(|body| {
                let (status, reply) = post(addr, "/v1/jobs", body);
                assert_eq!(status, 200, "{reply}");
                reply
            })
            .collect();
        server.shutdown();
        decisions
    };
    assert_eq!(run(), run(), "decision stream must be deterministic");
}

#[test]
fn unsupported_wire_versions_get_typed_400() {
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(8)).unwrap();
    let addr = server.local_addr();
    for body in [
        "{\"v\":2,\"width\":1,\"runtime\":5}",
        "{\"width\":1,\"runtime\":5}",
    ] {
        let (status, reply) = post(addr, "/v1/jobs", body);
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("unsupported_version"), "{reply}");
        dynp_rs::obs::validate_json(&reply).unwrap();
    }
}

#[test]
fn full_queue_answers_429() {
    // A 1-deep queue under 16 concurrent submitters must overflow:
    // while the decision loop plans one batch, a second submitter fills
    // the only slot and the rest get the typed queue_full rejection.
    // (HTTP and the programmatic path share this admission control; the
    // ApiError-to-response mapping is covered by the version test.)
    let mut config = ServeConfig::new(64);
    config.queue_depth = 1;
    let server = ServeServer::start("127.0.0.1:0", config).unwrap();
    let rejected = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..16 {
            scope.spawn(|| {
                for _ in 0..8 {
                    let request = JobRequest {
                        width: 1,
                        runtime: 1,
                        actual_runtime: None,
                        submit: None,
                    };
                    match server.submit(vec![request]) {
                        Ok(decisions) => assert_eq!(decisions.len(), 1),
                        Err(e) => {
                            assert_eq!((e.status, e.code), (429, "queue_full"), "{e:?}");
                            rejected.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    assert!(
        rejected.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "a 1-deep queue under 16 concurrent submitters never filled"
    );
    server.shutdown();
}

#[test]
fn connection_cap_answers_503() {
    let mut config = ServeConfig::new(8);
    config.max_connections = 1;
    let server = ServeServer::start("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // Park one connection in the handler by sending an incomplete
    // request (the router waits on its socket timeout), then probe.
    let mut parked = TcpStream::connect(addr).unwrap();
    parked.write_all(b"POST /v1/jobs HTTP/1.1\r\n").unwrap();
    let mut saw_503 = false;
    for _ in 0..50 {
        let (status, body) = get(addr, "/healthz");
        if status == 503 {
            assert!(body.contains("connection limit"), "{body}");
            saw_503 = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_503, "the 1-connection cap never rejected");
    drop(parked);
    server.shutdown();
}

/// One valid POST of 2 100 full-width jobs of 2^53 s (≈ 80 kB, under the
/// body cap) plans windows past the end of the `u64` time axis. The
/// batch is answered 200 with the 53 jobs that cannot end on the axis
/// declined by name, and the decision loop keeps deciding: the next
/// ordinary POST gets 200 too.
#[test]
fn a_batch_past_the_end_of_time_is_declined_and_the_server_keeps_deciding() {
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(8)).unwrap();
    let addr = server.local_addr();
    let job = format!("{{\"width\":8,\"runtime\":{}}}", 1u64 << 53);
    let body = format!("{{\"v\":1,\"jobs\":[{}]}}", vec![job; 2100].join(","));
    let (status, reply) = post(addr, "/v1/jobs", &body);
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.matches("\"status\":\"declined\"").count(), 53);
    assert!(reply.contains("would end past the time axis"), "{reply}");
    let (status, reply) = post(addr, "/v1/jobs", "{\"v\":1,\"width\":1,\"runtime\":5}");
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"status\":\"waiting\""), "{reply}");
    server.shutdown();
}

/// The fixed submission sequence behind the pinned checkpoint: thirty
/// batches of one to four jobs, every seventh job too wide for the
/// 8-wide machine, every third one finishing at half its estimate, and
/// logical time advancing 25 s a batch so completions, re-plans and
/// admissions interleave.
fn pinned_batches() -> Vec<Vec<JobRequest>> {
    let mut n = 0u64;
    (0..30u64)
        .map(|b| {
            (0..1 + b % 4)
                .map(|_| {
                    n += 1;
                    let runtime = 20 + n * 37 % 200;
                    JobRequest {
                        width: if n.is_multiple_of(7) { 9 } else { 1 + (n * 5 % 8) as u32 },
                        runtime,
                        actual_runtime: n.is_multiple_of(3).then_some(runtime / 2 + 1),
                        submit: Some(b * 25),
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn checkpoint_bytes_are_pinned_and_match_the_in_process_records() {
    use dynp_rs::obs::checkpoint::{fingerprint, fnv1a64, record_line};
    let dir = std::env::temp_dir().join(format!("dynp-serve-pinned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.ckpt");
    let _ = std::fs::remove_file(&path);
    let batches = pinned_batches();

    // One submission at a time, each waiting for its decisions: every
    // batch the decision loop plans is exactly one of `batches`.
    let mut config = ServeConfig::new(8);
    config.checkpoint = Some(path.clone());
    let server = ServeServer::start("127.0.0.1:0", config).unwrap();
    for batch in &batches {
        server.submit(batch.clone()).unwrap();
    }
    server.shutdown();
    let written = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // The same batches through an in-process core: a record of its
    // snapshot after every batch and after the drain.
    let tuner = dynp_rs::dynp::SelfTuning::paper_config(dynp_rs::sched::Metric::SldwA);
    let mut core = ServiceCore::new(8, tuner);
    let fp = fingerprint(&core.fingerprint_canonical());
    let mut expected = String::new();
    for batch in &batches {
        core.submit_batch(batch);
        expected.push_str(&record_line(&fp, 0, &core.snapshot()));
        expected.push('\n');
    }
    core.drain();
    expected.push_str(&record_line(&fp, 0, &core.snapshot()));
    expected.push('\n');
    assert!(written == expected.as_bytes(), "server and core checkpoints differ");
    // The sequence reaches every part of the snapshot layout.
    for needle in [
        "\"waiting\":[{",
        "\"running\":[{",
        "\"declined\":[{",
        "\"reason\":\"width 9 exceeds machine capacity 8\"",
        "\"last_planned\":",
        "\"finished\":",
        "\"wait\":",
    ] {
        assert!(expected.contains(needle), "{needle} never written");
    }

    // Recorded from the record layout before the snapshot was written
    // as text: the same file, byte for byte.
    assert_eq!(
        (written.len(), format!("{:016x}", fnv1a64(&written))),
        (267_482, "8286c306ae1a96d5".to_string())
    );
}

#[test]
fn prelude_serve_surface_is_usable() {
    // The versioned types re-export through the facade prelude.
    assert_eq!(WIRE_VERSION, 1);
    let err = ApiError::queue_full(7);
    assert_eq!(err.status, 429);
    let request = JobRequest {
        width: 2,
        runtime: 60,
        actual_runtime: None,
        submit: None,
    };
    let server = ServeServer::start("127.0.0.1:0", ServeConfig::new(4)).unwrap();
    let decisions = server.submit(vec![request]).unwrap();
    assert_eq!(decisions.len(), 1);
    assert!(decisions[0].declined.is_none());
    let stats = server.shutdown();
    assert_eq!(stats.get("completed").and_then(|x| x.as_u64()), Some(1));
}
