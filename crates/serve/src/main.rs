//! `dynp-serve --listen <addr> [--watch <addr>] [--checkpoint <path>]` —
//! the scheduling service as a host process.
//!
//! Prints `serve: listening on http://<addr>` to stderr (`127.0.0.1:0`
//! picks a free port) and blocks until `POST /v1/shutdown` drains it;
//! `--watch` serves `/metrics`, `/slo`, and `/events` from a `dynp-watch`
//! server next door, its port printed the same way. `--checkpoint`
//! appends the service state to `<path>` after every batch and restores
//! from it at start, so a restarted process continues the id, batch and
//! decision sequence. Exits 2 on a bad command line, an address that
//! cannot be bound, or a checkpoint that cannot be restored.

use dynp_serve::{ServeConfig, ServeServer};
use dynp_watch::{default_rules, WatchServer};
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: dynp-serve --listen <addr> [--watch <addr>] [--checkpoint <path>]");
    std::process::exit(2);
}

/// A live server until drained via the API. A ring recorder is installed
/// so the service metrics (queue-depth gauge, admission spans, flight-
/// recorder events) are live; `--watch` serves them.
fn listen(addr: &str, watch_addr: Option<&str>, checkpoint: Option<String>) {
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
    config.checkpoint = checkpoint.map(Into::into);
    let server = ServeServer::start(addr, config).unwrap_or_else(|e| {
        eprintln!("serve: cannot start on {addr}: {e}");
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
    let (mut listen_addr, mut watch_addr, mut checkpoint) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--listen" => &mut listen_addr,
            "--watch" => &mut watch_addr,
            "--checkpoint" => &mut checkpoint,
            _ => usage(),
        };
        *slot = Some(args.next().unwrap_or_else(|| usage()));
    }
    let Some(addr) = listen_addr else { usage() };
    listen(&addr, watch_addr.as_deref(), checkpoint);
}
