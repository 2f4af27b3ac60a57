//! `dynp-serve --listen <addr> [--watch <addr>]` — the scheduling
//! service as a host process.
//!
//! Prints `serve: listening on http://<addr>` to stderr (`127.0.0.1:0`
//! picks a free port) and blocks until `POST /v1/shutdown` drains it;
//! `--watch` serves `/metrics`, `/slo`, and `/events` from a `dynp-watch`
//! server next door, its port printed the same way. Exits 2 on a bad
//! command line or an address that cannot be bound.

use dynp_serve::{ServeConfig, ServeServer};
use dynp_watch::{default_rules, WatchServer};
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: dynp-serve --listen <addr> [--watch <addr>]");
    std::process::exit(2);
}

/// A live server until drained via the API. A ring recorder is installed
/// so the service metrics (queue-depth gauge, admission spans, flight-
/// recorder events) are live; `--watch` serves them.
fn listen(addr: &str, watch_addr: Option<&str>) {
    dynp_obs::install(dynp_obs::Recorder::new(dynp_obs::Sink::ring(4096)));
    let watch = watch_addr.map(|watch_addr| {
        let watch = WatchServer::start(watch_addr, default_rules()).unwrap_or_else(|e| {
            eprintln!("watch: cannot bind {watch_addr}: {e}");
            std::process::exit(2);
        });
        eprintln!("watch: serving on http://{}", watch.local_addr());
        watch
    });
    let mut config = ServeConfig::new(64);
    config.queue_depth = 256;
    let server = ServeServer::start(addr, config).unwrap_or_else(|e| {
        eprintln!("serve: cannot bind {addr}: {e}");
        std::process::exit(2);
    });
    eprintln!("serve: listening on http://{}", server.local_addr());
    // Block until a shutdown request begins the drain; `shutdown()`
    // then joins the decision loop and tears the listener down.
    while !server.is_draining() {
        std::thread::sleep(Duration::from_millis(100));
    }
    let stats = server.shutdown();
    eprintln!("serve: drained; {}", stats.to_json());
    if let Some(watch) = watch {
        eprintln!("watch: stopped; alerts {}", watch.shutdown().to_json());
    }
}

fn main() {
    let (mut listen_addr, mut watch_addr) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--listen" => &mut listen_addr,
            "--watch" => &mut watch_addr,
            _ => usage(),
        };
        *slot = Some(args.next().unwrap_or_else(|| usage()));
    }
    let Some(addr) = listen_addr else { usage() };
    listen(&addr, watch_addr.as_deref());
}
