//! The `dynp-serve` binary as a process: it starts, prints its banner,
//! serves, drains on `POST /v1/shutdown`, and exits 0; with
//! `--checkpoint` a second process resumes where the first stopped; and
//! it exits 2 on an address it cannot bind.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// One raw HTTP/1.1 POST; returns `(status, body)`.
fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to dynp-serve");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    (status, body)
}

/// A running `dynp-serve`, its address read off the banner.
struct Served {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: String,
}

fn serve(args: &[&str]) -> Served {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dynp-serve"))
        .args(["--listen", "127.0.0.1:0"])
        .args(args)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dynp-serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));

    // With port 0 the banner is how a client learns the real address.
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim_end()
        .strip_prefix("serve: listening on http://")
        .unwrap_or_else(|| panic!("unexpected first stderr line: {banner:?}"))
        .to_string();
    Served {
        child,
        stderr,
        addr,
    }
}

impl Served {
    /// Shuts the server down over the API and waits for a clean exit;
    /// returns the rest of its stderr.
    fn shut_down(mut self) -> String {
        let (status, shutdown) = post(&self.addr, "/v1/shutdown", "");
        assert_eq!(status, 202, "{shutdown}");
        let deadline = Instant::now() + Duration::from_secs(10);
        let exit = loop {
            if let Some(exit) = self.child.try_wait().expect("poll child") {
                break exit;
            }
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                panic!("dynp-serve still running 10 s after POST /v1/shutdown");
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        assert_eq!(exit.code(), Some(0));
        let mut rest = String::new();
        self.stderr
            .read_to_string(&mut rest)
            .expect("read remaining stderr");
        assert!(rest.contains("serve: drained"), "{rest}");
        rest
    }
}

#[test]
fn binary_starts_serves_drains_and_exits_zero() {
    let served = serve(&[]);
    let (status, decision) = post(
        &served.addr,
        "/v1/jobs",
        r#"{"v":1,"width":2,"runtime":100}"#,
    );
    assert_eq!(status, 200, "{decision}");
    assert!(decision.contains("\"id\":0"), "{decision}");
    served.shut_down();
}

#[test]
fn checkpoint_flag_resumes_ids_across_processes() {
    let dir = std::env::temp_dir().join(format!("dynp-serve-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.ckpt");
    let _ = std::fs::remove_file(&path);
    let path_arg = path.to_str().expect("utf-8 temp path");

    let first = serve(&["--checkpoint", path_arg]);
    post(
        &first.addr,
        "/v1/jobs",
        r#"{"v":1,"width":2,"runtime":100}"#,
    );
    let batch = r#"{"v":1,"jobs":[{"width":1,"runtime":30},{"width":4,"runtime":60}]}"#;
    let (status, decisions) = post(&first.addr, "/v1/jobs", batch);
    assert_eq!(status, 200, "{decisions}");
    first.shut_down();

    let second = serve(&["--checkpoint", path_arg]);
    let (status, decision) = post(&second.addr, "/v1/jobs", r#"{"v":1,"width":1,"runtime":5}"#);
    assert_eq!(status, 200, "{decision}");
    assert!(
        decision.contains("\"id\":3"),
        "ids continue after a restart: {decision}"
    );
    second.shut_down();

    // One line per batch and per drain: 2 + 1, then 1 + 1.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(text.lines().count(), 5, "{text}");
    for line in text.lines() {
        let record = dynp_obs::parse_json(line).expect("strict JSON");
        assert!(record.get("crc").is_some(), "{line}");
    }
}

#[test]
fn unusable_address_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_dynp-serve"))
        .args(["--listen", "not-an-address"])
        .output()
        .expect("run dynp-serve");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot start"), "{stderr}");
}
