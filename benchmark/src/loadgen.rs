//! The load generator: one process, at most `nproc` sender threads, one
//! request in flight per sender.
//!
//! *Open loop*: request `k` is due at `start + k / rate` whatever the
//! server does, and its latency is timed from that due time — so a stall
//! charges every request queued behind it, and how late the generator
//! itself ran is reported next to the latency. *Closed loop*: each
//! sender fires its next request when the previous reply arrives, which
//! measures saturation throughput.

use crate::spans::Tracer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sender threads (and so connections in flight): the box has two cores.
pub fn senders() -> usize {
    crate::sys::nproc().min(2)
}

/// What one phase of load produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per successful request, milliseconds from due time (open loop) or
    /// from send (closed loop) to the full reply.
    pub latency_ms: Vec<f64>,
    /// Per request, how long after its due time it was actually sent.
    pub late_ms: Vec<f64>,
    pub ok: u64,
    pub failed: u64,
    pub elapsed_s: f64,
}

impl Outcome {
    fn absorb(&mut self, other: Outcome) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `body(sender index, tracer, outcome)` on `senders` threads, each
/// under its own `loadgen.sender` root span, and merges what they saw.
fn on_senders<B>(senders: usize, tracer: &mut Tracer, body: B) -> Outcome
where
    B: Fn(usize, &mut Tracer, &mut Outcome) + Sync,
{
    let start = Instant::now();
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..senders)
            .map(|s| {
                let mut tracer = tracer.fork();
                let body = &body;
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    let root = tracer.enter("loadgen.sender");
                    body(s, &mut tracer, &mut out);
                    tracer.exit(root);
                    (out, tracer)
                })
            })
            .collect();
        for w in workers {
            let (out, forked) = w.join().expect("sender thread");
            total.absorb(out);
            tracer.join(forked);
        }
    });
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// Sends requests `0..count` at `rate` per second from `senders`
/// threads; `send(k, tracer)` performs request `k` and says whether it
/// succeeded.
pub fn open_loop<F>(
    rate: f64,
    count: usize,
    senders: usize,
    tracer: &mut Tracer,
    send: F,
) -> Outcome
where
    F: Fn(usize, &mut Tracer) -> bool + Sync,
{
    let start = Instant::now();
    on_senders(senders, tracer, |s, tracer, out| {
        for k in (s..count).step_by(senders) {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            let wait = tracer.enter("loadgen.wait_due");
            if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(ahead);
            }
            tracer.exit(wait);
            out.late_ms.push(ms(due.elapsed()));
            if send(k, tracer) {
                out.ok += 1;
                out.latency_ms.push(ms(due.elapsed()));
            } else {
                out.failed += 1;
            }
        }
    })
}

/// Each of `senders` threads sends its next request as soon as the
/// previous one returned, until `duration` has passed or `limit`
/// requests were taken.
pub fn closed_loop<F>(
    duration: Duration,
    limit: usize,
    senders: usize,
    tracer: &mut Tracer,
    send: F,
) -> Outcome
where
    F: Fn(usize, &mut Tracer) -> bool + Sync,
{
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    on_senders(senders, tracer, |_, tracer, out| {
        while start.elapsed() < duration {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= limit {
                break;
            }
            let sent = Instant::now();
            if send(k, tracer) {
                out.ok += 1;
                out.latency_ms.push(ms(sent.elapsed()));
            } else {
                out.failed += 1;
            }
        }
    })
}

/// One `POST` on a fresh connection (the router answers
/// `Connection: close`). Returns the status and the reply body; status 0
/// is a dead connection.
pub fn post(addr: SocketAddr, path: &str, body: &str, tracer: &mut Tracer) -> (u16, String) {
    let open = tracer.enter("loadgen.request");
    let reply = (|| {
        let mut stream = tracer
            .span("wire.connect", || TcpStream::connect(addr))
            .ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok()?;
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        tracer
            .span("wire.write", || stream.write_all(request.as_bytes()))
            .ok()?;
        let mut raw = String::new();
        tracer
            .span("wire.read", || stream.read_to_string(&mut raw))
            .ok()?;
        let (head, payload) = raw.split_once("\r\n\r\n")?;
        let status = head.split_whitespace().nth(1)?.parse().ok()?;
        Some((status, payload.to_string()))
    })();
    tracer.exit(open);
    reply.unwrap_or((0, String::new()))
}

/// The ladder's limits: a rung passes while the generator kept up (never
/// more than a second late) and the p90 latency stayed under 50 ms.
pub const MAX_LATE_MS: f64 = 1000.0;
pub const MAX_P90_MS: f64 = 50.0;

pub fn rung_passes(worst_late_ms: f64, p90_ms: f64, failed: u64) -> bool {
    failed == 0 && worst_late_ms <= MAX_LATE_MS && p90_ms <= MAX_P90_MS
}

/// Climbs `rates` in order, stopping at the first rung that fails;
/// returns the highest rate that passed (0 when the first one failed).
pub fn climb(rates: &[f64], mut rung: impl FnMut(f64) -> bool) -> f64 {
    let mut best = 0.0;
    for &rate in rates {
        if !rung(rate) {
            break;
        }
        best = rate;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    #[test]
    fn open_loop_latency_counts_the_wait_behind_a_slow_server() {
        // 100 req/s offered to one sender whose "server" needs 30 ms per
        // request: request k is sent about 20k ms late, and its latency
        // from due time includes that lateness on top of the 30 ms.
        let mut tracer = Tracer::new(false);
        let out = open_loop(100.0, 10, 1, &mut tracer, |_, _| {
            std::thread::sleep(Duration::from_millis(30));
            true
        });
        assert_eq!((out.ok, out.failed), (10, 0));
        assert!(
            out.late_ms[0] < 15.0,
            "first request is on time: {:?}",
            out.late_ms
        );
        assert!(
            out.late_ms[9] > 150.0,
            "last request queued behind nine: {:?}",
            out.late_ms
        );
        assert!(out.latency_ms[9] > out.late_ms[9] + 29.0);
        assert!(median(&out.latency_ms) > 100.0);
    }

    #[test]
    fn open_loop_holds_its_schedule_when_the_server_is_fast() {
        let mut tracer = Tracer::new(true);
        let out = open_loop(200.0, 20, 2, &mut tracer, |_, _| true);
        assert_eq!(out.ok, 20);
        // 20 requests at 200/s span 95 ms of schedule.
        assert!(out.elapsed_s >= 0.094, "elapsed {}", out.elapsed_s);
        assert!(median(&out.late_ms) < 10.0);
        let senders = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "loadgen.sender")
            .count();
        assert_eq!(senders, 2);
    }

    #[test]
    fn closed_loop_stops_at_the_limit_and_counts_failures() {
        let mut tracer = Tracer::new(false);
        let out = closed_loop(Duration::from_secs(5), 25, 2, &mut tracer, |k, _| {
            k % 5 != 0
        });
        assert_eq!(out.ok + out.failed, 25);
        assert_eq!(out.failed, 5);
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        assert!(rung_passes(3.0, 21.0, 0));
        assert!(
            !rung_passes(1200.0, 21.0, 0),
            "generator fell a second behind"
        );
        assert!(!rung_passes(3.0, 51.0, 0), "p90 over the limit");
        assert!(
            !rung_passes(3.0, 21.0, 1),
            "a failed request misses any limit"
        );

        let mut tried = Vec::new();
        let best = climb(&[50.0, 100.0, 200.0, 400.0], |rate| {
            tried.push(rate);
            rate < 200.0
        });
        assert_eq!(best, 100.0);
        assert_eq!(tried, vec![50.0, 100.0, 200.0], "400 is never offered");
        assert_eq!(climb(&[50.0], |_| false), 0.0);
    }
}
