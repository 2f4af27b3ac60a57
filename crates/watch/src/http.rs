//! A deliberately minimal HTTP/1.1 slice: parse one request (request
//! line, headers, and a bounded `Content-Length` body), write one
//! response, close the connection.
//!
//! This started as the watch server's GET-only diagnostics channel and
//! grew into the shared wire layer under both dynp-watch and
//! dynp-serve (see [`crate::router`] for the accept loop the two
//! servers share). It is still not a web framework: every response
//! carries `Connection: close`, bodies are always produced whole,
//! chunked encoding is not understood, and anything the parser does not
//! like is answered with a typed 4xx instead of guessed at. Keeping the
//! surface this small is what lets both crates stay std-only.

use std::io::{BufRead, BufReader, Read, Write};

/// Upper bound on the request head (request line + headers) we are
/// willing to buffer; enough for any sane request, small enough that a
/// misdirected upload cannot balloon memory.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A request the parser refused, carrying the HTTP status the
/// connection handler should answer with (400 for malformed input, 413
/// for an oversized body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpError {
    /// Response status for this rejection.
    pub status: u16,
    /// Human-readable reason, served as the plain-text body.
    pub message: String,
}

impl HttpError {
    /// A new typed rejection.
    pub fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.status, reason(self.status), self.message)
    }
}

/// One parsed request: method, decoded path, raw query pairs, and the
/// request body (empty unless the client sent `Content-Length`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// HTTP method, e.g. `GET` or `POST`.
    pub method: String,
    /// Path without the query string, e.g. `/events`.
    pub path: String,
    /// Query pairs in order, e.g. `[("since", "42")]`; no percent
    /// decoding (the served API never needs it).
    pub query: Vec<(String, String)>,
    /// Raw request body, bounded by the limit passed to
    /// [`read_request`].
    pub body: Vec<u8>,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First value of query parameter `key`, parsed as `u64`.
    pub fn query_u64(&self, key: &str) -> Option<u64> {
        self.query_value(key)?.parse().ok()
    }

    /// The body as UTF-8 text, or a 400 if the client sent bytes that
    /// are not (every body served here is JSON, which must be UTF-8).
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::new(400, "request body is not valid UTF-8"))
    }
}

/// One complete response: status, content type, whole body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The whole response body.
    pub body: String,
}

impl Response {
    /// A response with an explicit content type.
    pub fn new(status: u16, content_type: &'static str, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type,
            body: body.into(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "text/plain; charset=utf-8", body)
    }

    /// An `application/json` response (the body must already be
    /// serialized JSON).
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "application/json", body)
    }

    /// The response a rejected request is answered with.
    pub fn from_error(error: &HttpError) -> Response {
        Response::text(error.status, format!("{}\n", error.message))
    }

    /// Writes the response to `stream` as one `Connection: close`
    /// HTTP/1.1 message.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        write_response(stream, self.status, self.content_type, &self.body)
    }
}

/// Reads one request from `stream`: the request line, the headers (only
/// `Content-Length` is interpreted; everything else is consumed and
/// discarded), and — when a length is declared — exactly that many body
/// bytes, bounded by `max_body`.
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut head_left = MAX_HEAD_BYTES;
    let mut line = String::new();
    let n = read_head_line(&mut reader, &mut line, head_left)
        .map_err(|e| HttpError::new(400, format!("reading request line: {e}")))?;
    if n > head_left {
        return Err(HttpError::new(400, "request line too long"));
    }
    head_left -= n;
    let mut request =
        parse_request_line(line.trim_end()).map_err(|e| HttpError::new(400, e))?;
    // Drain headers up to the blank line so the peer sees us consume its
    // full request before the response lands (some clients treat early
    // close as an error); pick out Content-Length on the way.
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        match read_head_line(&mut reader, &mut header, head_left) {
            Ok(0) => break,
            Ok(n) => {
                if n > head_left {
                    return Err(HttpError::new(400, "request head too large"));
                }
                head_left -= n;
                let header = header.trim_end();
                if header.is_empty() {
                    break;
                }
                if let Some((name, value)) = header.split_once(':') {
                    if name.trim().eq_ignore_ascii_case("content-length") {
                        content_length = value.trim().parse().map_err(|_| {
                            HttpError::new(400, format!("bad Content-Length {:?}", value.trim()))
                        })?;
                    }
                }
            }
            Err(_) => break,
        }
    }
    if content_length > max_body {
        return Err(HttpError::new(
            413,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    if content_length > 0 {
        let mut body = vec![0u8; content_length];
        reader
            .read_exact(&mut body)
            .map_err(|e| HttpError::new(400, format!("reading {content_length}-byte body: {e}")))?;
        request.body = body;
    }
    Ok(request)
}

/// Reads one head line into `line`, but never more than `budget + 1`
/// bytes of it: a line longer than the head budget left is cut off
/// there, and the byte count past `budget` tells the caller so.
fn read_head_line(
    reader: &mut impl BufRead,
    line: &mut String,
    budget: usize,
) -> std::io::Result<usize> {
    reader.take(budget as u64 + 1).read_line(line)
}

/// Parses `"GET /path?k=v HTTP/1.1"`.
pub fn parse_request_line(line: &str) -> Result<Request, String> {
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line without a target")?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/") => {}
        _ => return Err(format!("not an HTTP request line: {line:?}")),
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        method,
        path: path.to_string(),
        query,
        body: Vec::new(),
    })
}

/// Reason phrases for the handful of statuses the servers use.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete `Connection: close` response.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len(),
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_query_targets() {
        let r = parse_request_line("GET /metrics HTTP/1.1").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/metrics");
        assert!(r.query.is_empty());
        assert!(r.body.is_empty());

        let r = parse_request_line("GET /events?since=42&x HTTP/1.0").unwrap();
        assert_eq!(r.path, "/events");
        assert_eq!(r.query_u64("since"), Some(42));
        assert_eq!(r.query_value("x"), Some(""));
        assert_eq!(r.query_value("missing"), None);
        assert_eq!(r.query_u64("x"), None, "empty value is not a number");
    }

    #[test]
    fn rejects_garbage_request_lines() {
        assert!(parse_request_line("").is_err());
        assert!(parse_request_line("GET").is_err());
        assert!(parse_request_line("GET /x").is_err());
        assert!(parse_request_line("GET /x SMTP/1.0").is_err());
    }

    #[test]
    fn read_request_consumes_headers() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        let r = read_request(&mut cursor, 1024).unwrap();
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
    }

    #[test]
    fn read_request_reads_content_length_body() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        let r = read_request(&mut cursor, 1024).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body_utf8().unwrap(), "hello world");
    }

    #[test]
    fn oversized_body_is_rejected_with_413() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        let err = read_request(&mut cursor, 1024).unwrap_err();
        assert_eq!(err.status, 413);
    }

    #[test]
    fn truncated_body_and_bad_length_are_400() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort";
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        assert_eq!(read_request(&mut cursor, 1024).unwrap_err().status, 400);

        let raw = b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        assert_eq!(read_request(&mut cursor, 1024).unwrap_err().status, 400);
    }

    /// Serves `head` once, then `filler` bytes without end (an error
    /// after 1 MiB, so a parser that never stops fails instead of hangs),
    /// counting every byte handed out.
    struct Endless {
        head: &'static [u8],
        filler: u8,
        served: usize,
    }

    impl Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.served > 1 << 20 {
                return Err(std::io::Error::other("endless stream cut off at 1 MiB"));
            }
            let n = buf.len();
            for (i, byte) in buf.iter_mut().enumerate() {
                *byte = *self.head.get(self.served + i).unwrap_or(&self.filler);
            }
            self.served += n;
            Ok(n)
        }
    }

    #[test]
    fn head_without_end_is_refused_within_the_head_budget() {
        // BufReader's default capacity: the one read past the budget.
        const BUFFER: usize = 8 * 1024;
        for (head, what) in [
            (&b""[..], "request line too long"),
            (&b"GET / HTTP/1.1\r\nX-Pad: "[..], "request head too large"),
        ] {
            let mut stream = Endless {
                head,
                filler: b'a',
                served: 0,
            };
            let err = read_request(&mut stream, 1024).unwrap_err();
            assert_eq!((err.status, err.message.as_str()), (400, what));
            assert!(
                stream.served <= MAX_HEAD_BYTES + BUFFER,
                "read {} bytes for a {MAX_HEAD_BYTES}-byte head budget",
                stream.served
            );
        }
    }

    #[test]
    fn head_of_exactly_the_budget_is_accepted() {
        let line = b"GET / HTTP/1.1\r\n";
        let mut raw = line.to_vec();
        let pad = MAX_HEAD_BYTES - line.len() - "X: \r\n\r\n".len();
        raw.extend_from_slice(format!("X: {}\r\n\r\n", "p".repeat(pad)).as_bytes());
        assert_eq!(raw.len(), MAX_HEAD_BYTES);
        assert!(read_request(&mut raw.as_slice(), 0).is_ok());
        raw.insert(line.len(), b'p');
        let err = read_request(&mut raw.as_slice(), 0).unwrap_err();
        assert_eq!(err.message, "request head too large");
    }

    #[test]
    fn non_utf8_bodies_are_refused_lazily() {
        let mut raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\n".to_vec();
        raw.extend_from_slice(&[0xff, 0xfe]);
        let mut cursor = std::io::Cursor::new(raw);
        let r = read_request(&mut cursor, 1024).unwrap();
        assert_eq!(r.body, vec![0xff, 0xfe]);
        assert_eq!(r.body_utf8().unwrap_err().status, 400);
    }

    #[test]
    fn responses_are_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", "ok\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));

        let mut out = Vec::new();
        Response::json(429, "{\"v\":1}").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
    }

    #[test]
    fn error_responses_carry_the_reason() {
        let e = HttpError::new(413, "too big");
        assert_eq!(e.to_string(), "413 Payload Too Large: too big");
        let r = Response::from_error(&e);
        assert_eq!(r.status, 413);
        assert_eq!(r.body, "too big\n");
    }
}
